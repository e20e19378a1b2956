"""Candidate generation, uncertainty-weighted index values, and enumeration.

Candidates target distinct dimensions of query execution: filter columns,
join keys, order-by/group-by columns, and two-column filter+join composites
on the same table. A candidate's total value V = EB * (1 + lambda * EV)
multiplies its corrected execution benefit by an exploration bonus summed
from model uncertainty over the operators that would use it; enumeration
then samples without replacement proportionally to max(V, 0) + 1e-6,
pruning covered, prefix-shadowed, or per-table-capped picks.

Valuation prices a (candidate, query) pair with its own what-if plan only
when that plan can differ from the no-index plan. The planner offers an
index only to an access on the index's own table whose filter columns, or
whose join lookup column, match the index's leading key prefix; that depends
on the query's template alone (``simulator.index_applicable``). Any other
index leaves the plan unchanged, the indexable-column pruning of Chaudhuri &
Narasayya (VLDB 1997). Likewise, a plan that uses no index at all is built
node for node like the no-index plan. Both cases add the query's weighted
gate-corrected no-index cost, a term computed once per round from a copy of
the query's shared no-index plan, and contribute nothing to EV. Applicability
is decided once per (template, candidate), and the workload's no-index total
is summed once per round. A candidate's plans are corrected together, and
so are the no-index terms it is the first to need: the uncached uncertainty
scores of each group's leaves take one batched call per operator kind. The
sums run in query order and are bit-identical to pricing every pair.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .catalog import Catalog, IndexCandidate, sized_candidate
from .correction import (
    cached_uncertainties,
    correct_plan,
    leaf_encodings,
    scored_leaves,
)
from .errors import ConfigurationError, ContractError
from .plan import PlanNode, leaves
from .seeding import rng_for
from .simulator import index_applicable, whatif_plan
from .workload import MiniWorkload

VALUE_FLOOR = 1e-6


@dataclass(frozen=True)
class Configuration:
    """A deployed index set."""

    indexes: tuple = ()

    @property
    def total_size_bytes(self) -> int:
        return sum(ix.estimated_size_bytes for ix in self.indexes)

    def __len__(self) -> int:
        return len(self.indexes)


@dataclass(frozen=True)
class IndexValuation:
    candidate: IndexCandidate
    execution_benefit: float
    exploratory_value: float
    value: float


def generate_candidates(workload: MiniWorkload, catalog: Catalog) -> list:
    """Deduplicated index candidates for one mini-workload."""
    seen_templates = set()
    out, seen_keys = [], set()

    def add(table, columns):
        key = (table, tuple(columns))
        if key in seen_keys:
            return
        seen_keys.add(key)
        out.append(sized_candidate(table, columns, catalog))

    for q in workload.queries:
        t = q.template
        if t.id in seen_templates:
            continue
        seen_templates.add(t.id)
        filter_cols = [(f.column.table, f.column.column) for f in t.filter_specs]
        join_cols = []
        for j in t.join_predicates:
            join_cols.append((j.left.table, j.left.column))
            join_cols.append((j.right.table, j.right.column))
        for table, col in filter_cols:
            add(table, (col,))
        for table, col in join_cols:
            add(table, (col,))
        for ref in list(t.order_by) + list(t.group_by):
            add(ref.table, (ref.column,))
        for ftable, fcol in filter_cols:
            for jtable, jcol in join_cols:
                if ftable == jtable and fcol != jcol:
                    add(ftable, (fcol, jcol))
    return out


@dataclass
class CorrectionContext:
    """Everything candidate valuation needs to price corrected plans.

    A context lives for one round: the models must not change while it is in
    use, because the corrected no-index terms it keeps were computed from
    their current state. ``noindex_plans`` maps a query to its no-index plan,
    which is shared and must never be mutated; a context without it plans
    each query for itself. ``uncertainty_cache`` may be shared across rounds:
    its keys carry each model's ``step_count``, which every update advances.
    """

    catalog: Catalog
    models: dict
    threshold: float = 0.1
    mix_weight: float = 0.5
    passes: int = 20
    uncertainty_cache: dict = field(default_factory=dict)
    noindex_plans: Optional[Callable] = None
    # the workload priced last, its no-index total, and its weighted
    # corrected no-index terms in query order (None until first needed)
    _workload: object = field(default=None, init=False, repr=False)
    _noindex_total: float = field(default=0.0, init=False, repr=False)
    _noindex_terms: list = field(default=None, init=False, repr=False)

    def noindex_plan(self, query) -> PlanNode:
        """The query's no-index plan; callers must not mutate it."""
        if self.noindex_plans is None:
            return whatif_plan(query, (), self.catalog)[0]
        return self.noindex_plans(query)

    def baseline_cost(self, query) -> float:
        return self.noindex_plan(query).total_cost

    def _use_workload(self, workload: MiniWorkload) -> None:
        if self._workload is workload:
            return
        total = 0.0
        for q in workload.queries:
            total += q.frequency_weight * self.baseline_cost(q)
        if total <= 0:
            raise ContractError("workload has nonpositive no-index cost")
        self._workload = workload
        self._noindex_total = total
        self._noindex_terms = [None] * len(workload.queries)

    def noindex_total(self, workload: MiniWorkload) -> float:
        """Frequency-weighted no-index cost of the workload, summed in query
        order; raises ContractError when it is not positive."""
        self._use_workload(workload)
        return self._noindex_total

    def noindex_terms(self, workload: MiniWorkload, positions) -> list:
        """Frequency weight times the corrected no-index cost of the
        workload's query at each position, each computed once per round."""
        self._use_workload(workload)
        terms = self._noindex_terms
        missing = [i for i in positions if terms[i] is None]
        copies = [self.noindex_plan(workload.queries[i]).clone() for i in missing]
        for i, result in zip(missing, self.correct_all(copies)):
            terms[i] = workload.queries[i].frequency_weight * result.corrected_cost
        return [terms[i] for i in positions]

    def correct(self, plan, encoded=None):
        """Gate-and-correct ``plan`` in place under this context's models;
        ``encoded`` is its `leaf_encodings`, when the caller has them."""
        return correct_plan(
            plan,
            self.models,
            self.catalog,
            self.threshold,
            self.mix_weight,
            self.passes,
            self.uncertainty_cache,
            encoded,
        )

    def correct_all(self, plans) -> list:
        """`correct` each plan, after scoring the uncached leaves of them all
        in one batched call per operator kind."""
        encoded = [leaf_encodings(p, self.models, self.catalog) for p in plans]
        cached_uncertainties(
            self.models,
            [pair for e in encoded for pair in scored_leaves(e)],
            self.mix_weight,
            self.passes,
            self.uncertainty_cache,
        )
        return [self.correct(p, e) for p, e in zip(plans, encoded)]


def candidate_valuation(
    candidate: IndexCandidate,
    workload: MiniWorkload,
    ctx: CorrectionContext,
    explore_weight: float,
) -> IndexValuation:
    """Corrected EB, uncertainty EV, and total value for one candidate.

    Pairs whose plan cannot use the candidate take the query's corrected
    no-index term from ``ctx`` (see the module docstring). The candidate's
    own plans are corrected together, so their leaves are scored in one
    batched call per operator kind.
    """
    den = ctx.noindex_total(workload)
    plans = {}  # query position -> its plan with the candidate, if it uses an index
    applicable = {}  # id(template) -> index_applicable(template, candidate)
    for i, q in enumerate(workload.queries):
        usable = applicable.get(id(q.template))
        if usable is None:
            usable = applicable[id(q.template)] = index_applicable(
                q.template, candidate
            )
        if usable:
            plan, _ = whatif_plan(q, (candidate,), ctx.catalog)
            if any(leaf.index is not None for leaf in leaves(plan)):
                plans[i] = plan
    others = [i for i in range(len(workload.queries)) if i not in plans]
    terms = dict(zip(others, ctx.noindex_terms(workload, others)))
    results = dict(zip(plans, ctx.correct_all(list(plans.values()))))
    num = 0.0
    ev = 0.0
    for i, q in enumerate(workload.queries):
        if i in terms:
            num += terms[i]
            continue
        result = results[i]
        num += q.frequency_weight * result.corrected_cost
        for report in result.reports:
            if report.leaf.index == candidate and report.score is not None:
                ev += report.score.combined
    eb = 1.0 - num / den
    return IndexValuation(candidate, eb, ev, total_value(eb, ev, explore_weight))


def total_value(eb: float, ev: float, explore_weight: float) -> float:
    """V = EB * (1 + lambda * EV)."""
    if explore_weight < 0:
        raise ConfigurationError("explore weight must be >= 0")
    return eb * (1.0 + explore_weight * ev)


def exploration_weight(
    round_index: int, seen_fraction: float, init_weight: float, decay: float
) -> float:
    """lambda = lambda0 * decay^(seen_fraction * t); full reset at 0 seen."""
    if not 0.0 < decay < 1.0:
        raise ConfigurationError("decay must lie strictly between 0 and 1")
    if init_weight <= 0:
        raise ConfigurationError("init_weight must be positive")
    if not 0.0 <= seen_fraction <= 1.0:
        raise ConfigurationError("seen_fraction must be in [0, 1]")
    if round_index < 0:
        raise ConfigurationError("round_index must be >= 0")
    return init_weight * decay ** (seen_fraction * round_index)


def selection_probabilities(values) -> np.ndarray:
    """Probability proportional to max(V, 0) + 1e-6; always strictly positive."""
    values = [
        v.value if isinstance(v, IndexValuation) else float(v) for v in values
    ]
    if len(values) == 0:
        raise ValueError("at least one candidate is required")
    floored = np.maximum(np.asarray(values, dtype=float), 0.0) + VALUE_FLOOR
    return floored / floored.sum()


def _pruned(candidate: IndexCandidate, selected, per_table_cap: int) -> bool:
    same_table = [s for s in selected if s.table == candidate.table]
    if len(same_table) >= per_table_cap:
        return True
    cand_cols = set(candidate.key_columns)
    for s in same_table:
        if set(s.key_columns) >= cand_cols:
            return True  # superseded by a covering index
        if s.key_columns[: len(candidate.key_columns)] == candidate.key_columns:
            return True  # same prefix with more key columns already selected
    return False


def enumerate_configuration(
    candidates,
    probabilities,
    seed: int,
    max_indexes: int = None,
    storage_budget_bytes: int = None,
    per_table_cap: int = 3,
) -> Configuration:
    """Sample a configuration without replacement under one budget mode.

    Count mode runs ``max_indexes`` draws (pruned draws are consumed); storage
    mode keeps drawing until the pool is exhausted, skipping candidates that
    no longer fit the remaining bytes. The budget and the cap come from a
    `TunerParams`, which checks their ranges.
    """
    if (max_indexes is None) == (storage_budget_bytes is None):
        raise ConfigurationError(
            "exactly one of max_indexes / storage_budget_bytes must be set"
        )

    pool = list(candidates)
    weights = list(np.asarray(probabilities, dtype=float))
    if len(pool) != len(weights):
        raise ConfigurationError("probabilities must align with candidates")
    rng = rng_for(seed, "enumeration")
    selected = []
    remaining = storage_budget_bytes
    draws_left = max_indexes if max_indexes is not None else len(pool)
    while pool and draws_left > 0:
        p = np.asarray(weights, dtype=float)
        p = p / p.sum()
        pick = int(rng.choice(len(pool), p=p))
        candidate = pool.pop(pick)
        weights.pop(pick)
        if max_indexes is not None:
            draws_left -= 1
        if remaining is not None and candidate.estimated_size_bytes > remaining:
            continue
        if _pruned(candidate, selected, per_table_cap):
            continue
        selected.append(candidate)
        if remaining is not None:
            remaining -= candidate.estimated_size_bytes
    return Configuration(indexes=tuple(selected))
