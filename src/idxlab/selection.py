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
node for node like the no-index plan. Both cases add the query's
gate-corrected no-index cost, computed once per round, and contribute
nothing to EV. The workload's no-index total is also summed once per round.
The sums are bit-identical to pricing every pair.
"""

from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, IndexCandidate, sized_candidate
from .correction import correct_plan
from .errors import ConfigurationError, ContractError
from .plan import leaves
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
    use, because ``corrected_baselines`` holds results computed from their
    current state. ``baseline_costs`` holds raw what-if costs and may be
    shared across rounds. So may ``uncertainty_cache``: its keys carry each
    model's ``step_count``, which every update advances.
    """

    catalog: Catalog
    models: dict
    threshold: float = 0.1
    mix_weight: float = 0.5
    passes: int = 20
    baseline_costs: dict = field(default_factory=dict)
    uncertainty_cache: dict = field(default_factory=dict)
    corrected_baselines: dict = field(default_factory=dict)
    # (workload, its no-index total): every candidate of a round shares it
    _noindex_total: tuple = field(default=(None, 0.0), init=False, repr=False)

    def baseline_cost(self, query) -> float:
        key = query.key()
        if key not in self.baseline_costs:
            _, cost = whatif_plan(query, (), self.catalog)
            self.baseline_costs[key] = cost
        return self.baseline_costs[key]

    def noindex_total(self, workload: MiniWorkload) -> float:
        """Frequency-weighted no-index cost of the workload, summed in query
        order; raises ContractError when it is not positive."""
        if self._noindex_total[0] is not workload:
            total = 0.0
            for q in workload.queries:
                total += q.frequency_weight * self.baseline_cost(q)
            if total <= 0:
                raise ContractError("workload has nonpositive no-index cost")
            self._noindex_total = (workload, total)
        return self._noindex_total[1]

    def correct(self, plan):
        """Gate-and-correct ``plan`` in place under this context's models."""
        return correct_plan(
            plan,
            self.models,
            self.catalog,
            self.threshold,
            self.mix_weight,
            self.passes,
            self.uncertainty_cache,
        )

    def corrected_baseline(self, query) -> float:
        """Gate-corrected cost of the query's no-index plan."""
        key = query.key()
        if key not in self.corrected_baselines:
            plan, _ = whatif_plan(query, (), self.catalog)
            self.corrected_baselines[key] = self.correct(plan).corrected_cost
        return self.corrected_baselines[key]


def candidate_valuation(
    candidate: IndexCandidate,
    workload: MiniWorkload,
    ctx: CorrectionContext,
    explore_weight: float,
) -> IndexValuation:
    """Corrected EB, uncertainty EV, and total value for one candidate.

    Pairs whose plan cannot use the candidate take the query's corrected
    no-index cost from ``ctx`` (see the module docstring).
    """
    den = ctx.noindex_total(workload)
    num = 0.0
    ev = 0.0
    for q in workload.queries:
        w = q.frequency_weight
        if not index_applicable(q.template, candidate):
            num += w * ctx.corrected_baseline(q)
            continue
        plan, _ = whatif_plan(q, (candidate,), ctx.catalog)
        if all(leaf.index is None for leaf in leaves(plan)):
            num += w * ctx.corrected_baseline(q)
            continue
        result = ctx.correct(plan)
        num += w * result.corrected_cost
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
    no longer fit the remaining bytes.
    """
    if (max_indexes is None) == (storage_budget_bytes is None):
        raise ConfigurationError(
            "exactly one of max_indexes / storage_budget_bytes must be set"
        )
    if max_indexes is not None and max_indexes < 1:
        raise ConfigurationError("max_indexes must be >= 1")
    if storage_budget_bytes is not None and storage_budget_bytes < 1:
        raise ConfigurationError("storage budget must be positive")
    if per_table_cap < 1:
        raise ConfigurationError("per_table_cap must be >= 1")

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
