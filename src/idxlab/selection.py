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
gate-corrected no-index cost and contribute nothing to EV. `applicability`
decides it once per (template, candidate).

`whatif_pricing` is the one loop that plans a candidate's applicable pairs.
Before any plan is corrected, it also sums the candidate's raw what-if total,
one multiply-add per query, so valuation returns the raw EB beside the
corrected one. The baselines rank by that raw EB: they read it from the
tuner's valuation, or price it through the same loop when they run alone,
and get the same floats either way.

`round_context` builds a round's no-index pricing once, before any candidate
is valued: the workload's no-index total, every query's raw no-index cost,
and every query's no-index term, corrected from the query's shared no-index
plan, which correction leaves as it is. A candidate's plans are corrected
together, and so are the round's no-index terms: the uncached uncertainty
scores of each group's leaves take one batched call per operator kind. The
sums run in query order and are bit-identical to pricing every pair.

A tuner keeps the pricing of a recurring query's pairs across rounds, in the
context's ``plan_memo``: each (query key, candidate) pair's what-if cost and,
when the plan uses an index, the plan and its leaf encodings. A what-if plan
is a pure function of the query's key, the candidate and the catalog, and
correction never changes it, so a kept pair is only corrected again, under
the models as they are now. A pair is stored only when its query was in the
previous round too, and the tuner drops the pairs of queries that left the
round, so a workload whose queries do not recur keeps nothing.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import Catalog, IndexCandidate, sized_candidate
from .correction import (
    cached_uncertainties,
    correct_plan,
    leaf_encodings,
    scored_leaves,
)
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

    def __len__(self) -> int:
        return len(self.indexes)


@dataclass(frozen=True)
class IndexValuation:
    """A candidate's corrected EB, its EV and value, and ``raw_benefit``, its
    EB under the uncorrected what-if costs."""

    candidate: IndexCandidate
    execution_benefit: float
    exploratory_value: float
    value: float
    raw_benefit: float


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


@dataclass(frozen=True)
class CorrectionContext:
    """Everything candidate valuation needs to price one round's corrected
    plans; `round_context` builds it.

    The models must not change while a context is in use: its no-index terms
    were corrected under their current state. ``uncertainty_cache`` may be
    shared across rounds, because its keys carry each model's ``step_count``,
    which every update advances, and so may ``plan_memo`` (see `whatif`).
    ``recurring`` holds the keys of the previous round's queries.
    ``query_keys[i]`` is the key of the round workload's ``i``-th query,
    ``noindex_total`` is the workload's `noindex_total`, ``noindex_costs[i]``
    is the cost of its ``i``-th query's no-index plan, and
    ``noindex_terms[i]`` is that query's frequency weight times the plan's
    gate-corrected cost.
    """

    catalog: Catalog
    models: dict
    threshold: float
    mix_weight: float
    passes: int
    uncertainty_cache: dict
    plan_memo: dict
    recurring: frozenset
    workload: MiniWorkload
    query_keys: tuple
    noindex_total: float
    noindex_costs: tuple
    noindex_terms: tuple

    def correct_all(self, plans, encoded=None) -> list:
        """Gate-and-correct each plan under this context's models, after
        scoring the uncached leaves of them all in one batched call per
        operator kind; ``encoded[j]`` is plan ``j``'s `leaf_encodings`, when
        the caller has them. No plan is changed."""
        if encoded is None:
            encoded = [leaf_encodings(p, self.models, self.catalog) for p in plans]
        cached_uncertainties(
            self.models,
            [pair for e in encoded for pair in scored_leaves(e)],
            self.mix_weight,
            self.passes,
            self.uncertainty_cache,
        )
        return [
            correct_plan(
                p,
                self.models,
                self.catalog,
                self.threshold,
                self.mix_weight,
                self.passes,
                self.uncertainty_cache,
                e,
            )
            for p, e in zip(plans, encoded)
        ]

    def whatif(self, candidate: IndexCandidate) -> Callable:
        """The `whatif_pricing` ``price`` of ``candidate`` for valuation.

        ``price(i, query)`` returns ``(entry, cost)`` for the ``i``-th
        query: ``entry`` is the query's what-if plan with the candidate and
        its `leaf_encodings` when the plan uses an index, else None, and
        ``cost`` is the plan's cost. A pair is read from ``plan_memo``, under
        (query key, candidate), when it is there. Otherwise it is planned,
        and stored when the query's key is in ``recurring``. A what-if plan
        is a pure function of the query's key, the candidate and the
        catalog, and no correction changes it, so a stored pair is exact for
        as long as it is kept.
        """

        def price(i, query):
            key = (self.query_keys[i], candidate)
            priced = self.plan_memo.get(key)
            if priced is None:
                plan, cost = whatif_plan(query, (candidate,), self.catalog)
                entry = None
                if any(leaf.index is not None for leaf in leaves(plan)):
                    entry = (plan, leaf_encodings(plan, self.models, self.catalog))
                priced = (entry, cost)
                if key[0] in self.recurring:
                    self.plan_memo[key] = priced
            return priced

        return price


def noindex_total(workload: MiniWorkload, noindex_plan: Callable) -> float:
    """Frequency-weighted cost of each query's ``noindex_plan``, summed in
    query order."""
    total = 0.0
    for q in workload.queries:
        total += q.frequency_weight * noindex_plan(q).total_cost
    return total


def round_context(
    workload: MiniWorkload,
    catalog: Catalog,
    models: dict,
    threshold: float,
    mix_weight: float,
    passes: int,
    uncertainty_cache: dict,
    noindex_plan: Callable,
    plan_memo: dict = None,
    recurring: frozenset = frozenset(),
) -> CorrectionContext:
    """The round's `CorrectionContext`, its no-index terms corrected from
    each query's ``noindex_plan``, which is shared and stays as it is;
    raises ContractError when the no-index total is not positive.

    ``plan_memo`` and ``recurring`` are the tuner's (see `CorrectionContext`);
    without them, valuation plans every pair and keeps none."""
    total = noindex_total(workload, noindex_plan)
    if total <= 0:
        raise ContractError("workload has nonpositive no-index cost")
    plans = [noindex_plan(q) for q in workload.queries]
    gate = (catalog, models, threshold, mix_weight, passes, uncertainty_cache)
    memo = ({} if plan_memo is None else plan_memo, recurring)
    keys = tuple(q.key() for q in workload.queries)
    pricing = (workload, keys, total, tuple(plan.total_cost for plan in plans))
    corrected = CorrectionContext(*gate, *memo, *pricing, ()).correct_all(plans)
    terms = tuple(
        q.frequency_weight * result.corrected_cost
        for q, result in zip(workload.queries, corrected)
    )
    return CorrectionContext(*gate, *memo, *pricing, terms)


def applicability(queries, candidate: IndexCandidate) -> list:
    """`index_applicable` of each query's template to ``candidate``, in query
    order; decided once per template."""
    memo = {}  # id(template) -> index_applicable(template, candidate)
    for q in queries:
        if id(q.template) not in memo:
            memo[id(q.template)] = index_applicable(q.template, candidate)
    return [memo[id(q.template)] for q in queries]


def whatif_pricing(
    candidate: IndexCandidate, queries, catalog: Catalog, noindex_costs, price=None
):
    """``candidate``'s what-if plan of each query whose template can use it,
    by query position, and the raw what-if total: the frequency-weighted plan
    costs summed in query order, where any other query keeps
    ``noindex_costs[i]``, the cost the planner would return anyway.

    ``price(i, query)``, when given, prices the ``i``-th query's pair in the
    planner's stead and returns what to keep for it in place of the plan,
    and its cost (`CorrectionContext.whatif`). Valuation and the baselines'
    own ranking both price through this one loop, so a raw benefit is the
    same float whichever of them computed it.
    """
    plans = {}
    total = 0.0
    for i, (q, usable, cost) in enumerate(
        zip(queries, applicability(queries, candidate), noindex_costs)
    ):
        if usable:
            if price is None:
                plans[i], cost = whatif_plan(q, (candidate,), catalog)
            else:
                plans[i], cost = price(i, q)
        total += q.frequency_weight * cost
    return plans, total


def candidate_valuation(
    candidate: IndexCandidate, ctx: CorrectionContext, explore_weight: float
) -> IndexValuation:
    """Corrected EB, uncertainty EV, total value, and raw what-if EB for one
    candidate over the context's workload.

    Pairs whose plan cannot use the candidate take the query's corrected
    no-index term from ``ctx`` (see the module docstring). The candidate's
    own plans are corrected together, so their leaves are scored in one
    batched call per operator kind. The raw EB is summed from the same plans
    before correction, by `whatif_pricing`, which reads a recurring query's
    pairs from the context's memo.
    """
    queries = ctx.workload.queries
    priced, raw = whatif_pricing(
        candidate, queries, ctx.catalog, ctx.noindex_costs, ctx.whatif(candidate)
    )
    # query position -> (plan, leaf encodings) of its plan with the
    # candidate, if that plan uses an index
    entries = {i: entry for i, entry in priced.items() if entry is not None}
    plans = [plan for plan, _ in entries.values()]
    encoded = [leaf_pairs for _, leaf_pairs in entries.values()]
    results = dict(zip(entries, ctx.correct_all(plans, encoded)))
    num = 0.0
    ev = 0.0
    for i, q in enumerate(queries):
        result = results.get(i)
        if result is None:
            num += ctx.noindex_terms[i]
            continue
        num += q.frequency_weight * result.corrected_cost
        for report in result.reports:
            if report.leaf.index == candidate and report.score is not None:
                ev += report.score.combined
    eb = 1.0 - num / ctx.noindex_total
    value = total_value(eb, ev, explore_weight)
    return IndexValuation(candidate, eb, ev, value, 1.0 - raw / ctx.noindex_total)


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
