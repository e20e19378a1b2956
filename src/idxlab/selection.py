"""Candidate generation, uncertainty-weighted index values, and enumeration.

Candidates target distinct dimensions of query execution: filter columns,
join keys, order-by/group-by columns, and two-column filter+join composites
on the same table. A candidate's total value V = EB * (1 + lambda * EV)
multiplies its corrected execution benefit by an exploration bonus summed
from model uncertainty over the operators that would use it; enumeration
then samples without replacement proportionally to max(V, 0) + 1e-6,
pruning covered or per-table-capped picks. A pick is covered when an index
already selected holds all its key columns, as every longer index with the
same leading columns does.

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
one multiply-add per query, and `round_context` keeps it in the round's
``pricing``. The baselines rank by raw EB, ``1 - total / noindex total``,
which `tuner.Calibration.record_order` alone computes: the tuner feeds it
the round's raw totals, and a baseline that runs alone prices its own
through the same loop, so the floats are the same either way.

A tuner's `Gate` owns what outlives a round: the catalog, the models, the
gate threshold, mix weight and MC-dropout passes, the uncertainty scores and
the memo of the last round's pairs below. `correction.cached_uncertainties`
keeps the scores per operator kind with the model state they were made
under, and starts a kind afresh when its state has moved on, so nothing
here decides whether a score is still valid. The gate scores through
`Gate.score`, which takes the (leaf, encoding) pairs of any number of plans,
as `correction.leaf_encodings` gives them, and scores the uncached ones in
one batched call per operator kind. It corrects through `Gate.correct`,
which scores a plan's uncached leaves itself and applies the multiplier
each open leaf's score carries.

`round_context` prices a whole round once, before any candidate is valued,
into a `CorrectionContext` that is dropped with the round. It sums the
workload's no-index total and takes every query's raw no-index cost. It
plans each (query, candidate) pair whose template can use the candidate,
once, through `whatif_pricing`. It encodes each distinct leaf of a query
once: a leaf's encoding depends on its kind, table and index alone within
one query (`correction.leaf_encodings`), so every SeqScan leaf of a
candidate plan takes the encoding of the query's no-index leaf. It scores
the leaves of the no-index plans and of every candidate plan in one
`Gate.score` call, and corrects each query's no-index term from the query's
shared no-index plan, which correction leaves as it is. `candidate_valuation`
then only corrects the candidate's own plans from those scores and sums in
query order, bit-identical to pricing every pair. The round's deployed plans
take their leaf encodings from the same round.

A tuner keeps the last round's pricing in its gate's ``plan_memo``: each
(query key, candidate) pair's what-if cost and, when the plan uses an index,
the plan and its leaf encodings. A what-if plan is a pure function of the
query's key, the candidate and the catalog, and correction never changes it,
so a pair the round before priced is only corrected again, under the models
as they are now, the plan reuse of INUM (Papadomanolakis et al., VLDB 2007).

The baselines neither value nor learn: each round they take `epsilon_greedy`
of the round's candidates in raw what-if order, what-if greedy at epsilon 0.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .catalog import Catalog, IndexCandidate, sized_candidate
from .correction import (
    PlanCorrection,
    cached_uncertainties,
    correct_plan,
    leaf_encodings,
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


@dataclass(frozen=True)
class IndexValuation:
    """A candidate's corrected EB, its EV and its value."""

    candidate: IndexCandidate
    execution_benefit: float
    exploratory_value: float
    value: float


def generate_candidates(workload: MiniWorkload, catalog: Catalog) -> list:
    """Deduplicated index candidates for one mini-workload, from each of its
    distinct templates (`MiniWorkload.templates`) in order of first use."""
    out, seen_keys = [], set()

    def add(table, columns):
        key = (table, tuple(columns))
        if key in seen_keys:
            return
        seen_keys.add(key)
        out.append(sized_candidate(table, columns, catalog))

    for t in workload.templates:
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
class Gate:
    """The uncertainty gate of one tuner: its catalog, its models (one per
    leaf kind, which the tuner trains in place), the gate threshold, mix
    weight and MC-dropout passes, and its two caches (see the module
    docstring). ``score_cache`` is `cached_uncertainties`'s cache, which
    renews a kind's scores itself when the kind's model state moves on.
    ``plan_memo`` maps (query key, candidate) to ``(entry, cost)``: the
    pair's entry in `CorrectionContext.pricing` and its what-if cost, for
    each pair the last `round_context` call priced. Each call replaces the
    memo with its own pairs, so a tuner makes exactly one per round.
    """

    catalog: Catalog
    models: dict
    threshold: float
    mix_weight: float
    passes: int
    score_cache: dict = field(default_factory=dict)
    plan_memo: dict = field(default_factory=dict)

    def score(self, pairs) -> list:
        """The cached `combined_uncertainty` of each (leaf, encoding) pair of
        `leaf_encodings`, under the model of the leaf's kind."""
        return cached_uncertainties(
            self.models, pairs, self.mix_weight, self.passes, self.score_cache
        )

    def correct(self, plan, encoded) -> PlanCorrection:
        """Gate-and-correct ``plan``, whose `leaf_encodings` are
        ``encoded``, under the models as they are now; a leaf whose score is
        not cached yet is scored on its own. The plan is not changed."""
        return correct_plan(
            plan,
            self.models,
            self.catalog,
            self.threshold,
            self.mix_weight,
            self.passes,
            self.score_cache,
            encoded,
        )


@dataclass(frozen=True)
class CorrectionContext:
    """One round of candidate valuation under ``gate``; `round_context`
    builds it, and it is dropped with the round.

    The models must not change while a context is in use: its no-index terms
    and its scores were made under their current state. ``noindex_total`` is
    the workload's `noindex_total`, and ``noindex_terms[i]`` is the ``i``-th
    query's frequency weight times its no-index plan's gate-corrected cost.
    ``pricing`` maps each of the round's candidates to its `whatif_pricing`:
    the pair entry of each query whose template can use the candidate, by
    query position, and the raw what-if total. A pair entry is the what-if
    plan with the candidate and its `leaf_encodings` when the plan uses an
    index, else None. ``leaf_encodings(i, plan)`` is the `leaf_encodings`
    of a plan of the ``i``-th query; it encodes only the leaves that no plan
    of the query had this round.
    """

    gate: Gate
    workload: MiniWorkload
    noindex_total: float
    noindex_terms: tuple
    pricing: dict
    leaf_encodings: Callable


def noindex_total(workload: MiniWorkload, noindex_plans) -> float:
    """Frequency-weighted cost of each query's plan in ``noindex_plans``,
    summed in query order."""
    total = 0.0
    for q, plan in zip(workload.queries, noindex_plans):
        total += q.frequency_weight * plan.total_cost
    return total


def round_context(
    workload: MiniWorkload,
    candidates,
    gate: Gate,
    noindex_plans,
) -> CorrectionContext:
    """The round's `CorrectionContext`, with every candidate in
    ``candidates`` priced; raises ContractError when the no-index total is
    not positive.

    It plans each (query, candidate) pair whose template can use the
    candidate, reading the pair from the gate's ``plan_memo`` when the call
    before priced it, and at the end the memo holds this call's pairs; so
    each call must be made once per real round, never as a side probe of a
    tuner's gate. A what-if plan is a pure function of the query's key, the
    candidate and the catalog, and no correction changes it, so a kept pair
    is exact. Each distinct leaf of a query is encoded once. The leaves of
    ``noindex_plans``, each query's no-index plan in query order, which are
    shared and stay as they are, and of every candidate plan are scored in
    one batched call per operator kind, and the no-index terms are
    corrected from those scores."""
    total = noindex_total(workload, noindex_plans)
    if total <= 0:
        raise ContractError("workload has nonpositive no-index cost")
    queries = workload.queries
    keys = tuple(q.key() for q in queries)
    priced_now = {}  # this round's pairs, the next round's memo
    known = {}  # query key -> its leaves' encodings by (kind, table, index)

    def encode(i, plan):
        store = known.setdefault(keys[i], {})
        return leaf_encodings(plan, gate.catalog, store)

    def price(candidate, i, query):
        key = (keys[i], candidate)
        priced = gate.plan_memo.get(key)
        if priced is None:
            plan, cost = whatif_plan(query, (candidate,), gate.catalog)
            entry = None
            if any(leaf.index is not None for leaf in leaves(plan)):
                entry = (plan, encode(i, plan))
            priced = (entry, cost)
        priced_now[key] = priced
        return priced

    noindex_encoded = [encode(i, plan) for i, plan in enumerate(noindex_plans)]
    costs = [plan.total_cost for plan in noindex_plans]
    pricing = {
        x: whatif_pricing(x, queries, costs, partial(price, x)) for x in candidates
    }
    encoded = noindex_encoded + [
        entry[1]
        for entries, _ in pricing.values()
        for entry in entries.values()
        if entry is not None
    ]
    # each encoding object once: a query's plans share their leaves' encodings
    pairs = {id(enc): (leaf, enc) for e in encoded for leaf, enc in e}
    gate.score(list(pairs.values()))
    terms = tuple(
        q.frequency_weight * gate.correct(plan, e).corrected_cost
        for q, plan, e in zip(queries, noindex_plans, noindex_encoded)
    )
    gate.plan_memo.clear()
    gate.plan_memo.update(priced_now)
    return CorrectionContext(gate, workload, total, terms, pricing, encode)


def applicability(queries, candidate: IndexCandidate) -> list:
    """`index_applicable` of each query's template to ``candidate``, in query
    order; decided once per template."""
    memo = {}  # id(template) -> index_applicable(template, candidate)
    for q in queries:
        if id(q.template) not in memo:
            memo[id(q.template)] = index_applicable(q.template, candidate)
    return [memo[id(q.template)] for q in queries]


def whatif_pricing(candidate: IndexCandidate, queries, noindex_costs, price):
    """``price(i, query)``'s entry of each query whose template can use
    ``candidate``, by query position, and the raw what-if total: the
    frequency-weighted costs that ``price`` returns summed in query order,
    where any other query keeps ``noindex_costs[i]``, the cost the planner
    would return anyway.

    ``price`` plans the ``i``-th query's pair and returns what to keep for it
    and its cost: the planner itself for the baselines' own ranking
    (`tuner.Calibration.order`), the memo-backed planner of `round_context`
    for valuation. Both price through this one loop, so a raw benefit is the
    same float whichever of them computed it.
    """
    plans = {}
    total = 0.0
    for i, (q, usable, cost) in enumerate(
        zip(queries, applicability(queries, candidate), noindex_costs)
    ):
        if usable:
            plans[i], cost = price(i, q)
        total += q.frequency_weight * cost
    return plans, total


def candidate_valuation(
    candidate: IndexCandidate, ctx: CorrectionContext, explore_weight: float
) -> IndexValuation:
    """Corrected EB, uncertainty EV and total value for one of the
    candidates ``ctx`` priced, over the context's workload; raises
    ContractError for any other candidate.

    Pairs whose plan cannot use the candidate take the query's corrected
    no-index term from ``ctx`` (see the module docstring). The candidate's
    own plans are corrected from the scores `round_context` made.
    """
    priced = ctx.pricing.get(candidate)
    if priced is None:
        raise ContractError(f"candidate {candidate} was not priced this round")
    entries, _ = priced
    num = 0.0
    ev = 0.0
    for i, q in enumerate(ctx.workload.queries):
        entry = entries.get(i)
        if entry is None:
            num += ctx.noindex_terms[i]
            continue
        result = ctx.gate.correct(*entry)
        num += q.frequency_weight * result.corrected_cost
        for report in result.reports:
            if report.leaf.index == candidate:
                ev += report.score.combined
    eb = 1.0 - num / ctx.noindex_total
    value = total_value(eb, ev, explore_weight)
    return IndexValuation(candidate, eb, ev, value)


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
    """Probability proportional to max(V, 0) + 1e-6 for each value V;
    always strictly positive."""
    if len(values) == 0:
        raise ValueError("at least one candidate is required")
    floored = np.maximum(np.asarray(values, dtype=float), 0.0) + VALUE_FLOOR
    return floored / floored.sum()


def _pruned(candidate: IndexCandidate, selected, per_table_cap: int) -> bool:
    same_table = [s for s in selected if s.table == candidate.table]
    if len(same_table) >= per_table_cap:
        return True
    cand_cols = set(candidate.key_columns)
    # covered: a longer index with the same leading columns is one case
    return any(set(s.key_columns) >= cand_cols for s in same_table)


def epsilon_greedy(candidates, order, k: int, epsilon: float, rng) -> Configuration:
    """``k`` picks, at most, from ``order``, positions into ``candidates``
    best first: each pick is the best one left or, when ``rng.random()`` is
    below ``epsilon``, a uniform random one of those left. At epsilon 0 this
    is the first ``k`` of ``order``."""
    pool = list(order)
    selected = []
    for _ in range(min(k, len(pool))):
        pick = int(rng.integers(0, len(pool))) if rng.random() < epsilon else 0
        selected.append(candidates[pool.pop(pick)])
    return Configuration(tuple(selected))


def enumerate_configuration(
    candidates,
    probabilities,
    seed: int,
    max_indexes: int = None,
    storage_budget_bytes: int = None,
    per_table_cap: int = 3,
) -> Configuration:
    """Sample a configuration without replacement under one budget mode.

    Count mode runs ``max_indexes`` draws under an unbounded byte budget;
    storage mode draws the whole pool under ``storage_budget_bytes``. In
    both, a drawn candidate that no longer fits the remaining bytes, or is
    pruned, uses up its draw and is skipped. The budget and the cap come
    from a `TunerParams`, which checks their ranges.
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
    remaining = math.inf if storage_budget_bytes is None else storage_budget_bytes
    draws = len(pool) if max_indexes is None else min(max_indexes, len(pool))
    for _ in range(draws):
        p = np.asarray(weights, dtype=float)
        pick = int(rng.choice(len(pool), p=p / p.sum()))
        candidate = pool.pop(pick)
        weights.pop(pick)
        size = candidate.estimated_size_bytes
        if size > remaining or _pruned(candidate, selected, per_table_cap):
            continue
        selected.append(candidate)
        remaining -= size
    return Configuration(indexes=tuple(selected))
