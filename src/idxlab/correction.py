"""Uncertainty-gated cost correction and execution-feedback labeling.

Correcting a leaf scales only its execution cost; the change then propagates
to the root through per-kind delta rules that mirror how cumulative plan
costs compose. On the leaf's path only the path's own child of a node
carries a delta, so the rules fold one (dcs, dce) pair from the leaf up,
starting at (0, (multiplier - 1) * leaf exec cost):

    NestedLoopJoin   dce = rows(outer) * dce, when the path comes through
                     the inner child
    Limit            dce = rows(parent)/rows(child) * dce
    Hash/Sort/
    Aggregate/Gather dcs, dce = dcs + dce, 0
    HashJoin/
    GatherMerge      dce = 0 unless the path comes through the first (probe)
                     child; dcs passes from any child

A leaf is corrected only when its combined uncertainty is at or below the
gate threshold, and then by the multiplier its score carries: the argmax of
the dropout-off softmax the score's entropy comes from, so one forward pass
yields the leaf's whole verdict. `update_cost` applies one correction to a
plan in place; `correct_plan`, the gate, sums the root's deltas instead and
never changes a plan, so planner and executor plans can be corrected,
shared and kept without copies. Labeling runs the same rules once per
config-related leaf with the whole multiplier grid as a vector (every rule
is `+` and `*`, so each element takes the scalar path's IEEE operations in
the same order) and keeps the multiplier whose corrected benefit comes
closest to the observed benefit, ties going to the multiplier nearest 1x in
log space.

Labels are ratios, not absolute multipliers. Label search explains the
observed benefit against the *uncorrected* no-index plan's cost, while the
observed no-index time carries the table's hidden SeqScan factor. An index
leaf's label therefore learns its own factor divided by the table's SeqScan
factor, and a SeqScan leaf's label learns about 1. Candidate
valuation, by contrast, prices every no-index term gate-corrected. The two
agree only while the no-index plan's SeqScan leaves stay uncorrected, that
is while the SeqScan model predicts about 1 or its gate stays closed.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import Catalog
from .costmodel import (
    UncertaintyScore,
    combined_uncertainties,
    # not called here (scores are batched), but perfbench/tracer.py patches
    # correction.combined_uncertainty by name
    combined_uncertainty,  # noqa: F401
)
from .errors import ConfigurationError, ContractError
from .plan import PlanNode, leaves, path_to_root

_PASSTHROUGH_KINDS = ("Hash", "Sort", "Aggregate", "Gather")
_PROBE_KINDS = ("HashJoin", "GatherMerge")


@dataclass
class CorrectionLedger:
    """Per-node (dcs, dce) deltas of one correction."""

    deltas: dict = field(default_factory=dict)

    def delta_for(self, node: PlanNode) -> tuple:
        return tuple(self.deltas.get(id(node), (0.0, 0.0)))


def update_cost(plan: PlanNode, leaf: PlanNode, multiplier: float) -> CorrectionLedger:
    """Scale a leaf's execution cost by ``multiplier`` and propagate to the root.

    Mutates the plan in place; returns a ledger of this correction's deltas
    on every touched node.
    """
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    if not leaf.is_leaf:
        raise ValueError("cost correction applies to leaf operators only")
    path = path_to_root(plan, leaf)
    deltas = _path_deltas(path, multiplier)
    for node, (dcs, dce) in zip(path, deltas):
        node.startup_cost += dcs
        node.exec_cost += dce
    return CorrectionLedger({id(node): delta for node, delta in zip(path, deltas)})


def _path_deltas(path: list, multiplier) -> list:
    """The (dcs, dce) of each node of ``path`` (leaf first), in path order,
    for scaling the leaf's execution cost by ``multiplier``: a float, or an
    array that carries every element through the same operations as a float
    would. Of a node's children only the path's own carries a delta, so each
    step folds the one pair below it."""
    dcs, dce = 0.0, (multiplier - 1.0) * path[0].exec_cost
    deltas = [(dcs, dce)]
    for child, parent in zip(path, path[1:]):
        kind = parent.kind
        if kind == "NestedLoopJoin":
            if child is parent.children[1]:  # inner: once per outer row
                dce = parent.children[0].est_rows * dce
        elif kind == "Limit":
            ratio = parent.est_rows / child.est_rows if child.est_rows > 0 else 0.0
            dce = ratio * dce
        elif kind in _PASSTHROUGH_KINDS:
            dcs, dce = dcs + dce, 0.0
        elif kind in _PROBE_KINDS:
            if child is not parent.children[0]:
                dce = 0.0
        else:
            raise ConfigurationError(f"no propagation rule for plan kind {kind!r}")
        deltas.append((dcs, dce))
    return deltas


@dataclass(frozen=True)
class LeafCorrection:
    """One leaf's gate outcome: its score, and the multiplier applied, None
    when the gate stayed closed."""

    leaf: PlanNode
    score: UncertaintyScore
    multiplier: Optional[float]


@dataclass(frozen=True)
class PlanCorrection:
    corrected_cost: float
    reports: tuple

    @property
    def corrected_leaf_count(self) -> int:
        return sum(1 for r in self.reports if r.multiplier is not None)


def correct_plan(
    plan: PlanNode,
    models: dict,
    catalog: Catalog,
    threshold: float,
    mix_weight: float,
    passes: int,
    uncertainty_cache: Optional[dict] = None,
    encoded: Optional[list] = None,
) -> PlanCorrection:
    """Gate-and-correct every leaf in depth-first order; the plan is left
    as it is.

    Each corrected leaf's root delta is added to the root's startup and
    execution costs, kept here, in leaf order: the same additions, in the
    same order, as `update_cost` makes on the root. A delta reads only the
    leaf's own execution cost and the rows of its path, which no other
    leaf's correction changes, so the corrected cost is bit-identical to
    `update_cost` applied to a copy of the plan once per corrected leaf.
    ``encoded`` is the plan's `leaf_encodings`, when the caller has them.
    A leaf whose gate opens is scaled by its score's multiplier, proposed by
    the forward pass that scored it, so no model runs a second pass here.
    ``models`` must hold a model for every leaf kind of the plan, as a
    tuner's do (`plan.LEAF_KINDS`); a missing one raises a KeyError that
    names the kind."""
    if not threshold >= 0:  # also rejects NaN, which would close every gate
        raise ConfigurationError("uncertainty threshold must be >= 0")
    if encoded is None:
        encoded = leaf_encodings(plan, catalog)
    scores = cached_uncertainties(
        models, encoded, mix_weight, passes, uncertainty_cache
    )
    reports = []
    startup, execution = plan.startup_cost, plan.exec_cost
    for (leaf, _), score in zip(encoded, scores):
        applied = None
        if score.combined <= threshold:
            applied = score.multiplier
            dcs, dce = _path_deltas(path_to_root(plan, leaf), applied)[-1]
            startup += dcs
            execution += dce
        reports.append(LeafCorrection(leaf, score, applied))
    return PlanCorrection(startup + execution, tuple(reports))


def leaf_encodings(
    plan: PlanNode, catalog: Catalog, known: Optional[dict] = None
) -> list:
    """(leaf, encoding) per leaf of ``plan`` in depth-first order. Correction
    never changes a plan, so the pairs stay valid for as long as the plan is
    kept.

    ``known`` maps (kind, table, index) to the encoding of a leaf of a plan
    of the same query, and takes each leaf it lacks. `encode_operator` reads
    only a leaf's kind, index and predicates, and the planner gives every
    access to a table the query's one predicate list for that table, so a
    leaf with the same kind, table and index has the same encoding."""
    from .plan import encode_operator

    known = {} if known is None else known
    out = []
    for leaf in leaves(plan):
        key = (leaf.kind, leaf.table, leaf.index)
        encoding = known.get(key)
        if encoding is None:
            encoding = known[key] = encode_operator(leaf, catalog)
        out.append((leaf, encoding))
    return out


def cached_uncertainties(models, pairs, mix_weight, passes, cache=None) -> list:
    """`combined_uncertainty` of each (leaf, encoding) pair of
    `leaf_encodings` under ``models[leaf.kind]``, in order.

    ``cache`` maps a kind to ``(state, scores)``: the state its scores were
    made under, ``(models[kind].step_count, mix_weight, passes)``, and those
    scores by the encoding's bytes. A lookup under another state starts that
    kind afresh and drops its old scores, so no score is ever read under a
    state it was not made under: parameters change only in
    `CostMultiplierModel.update`, which advances ``step_count``, and the
    dropout masks derive from it, so a kept score, its multiplier included,
    is exact. The pairs missing from it are scored once each, one batched
    `combined_uncertainties` call per kind, and stored."""
    cache = {} if cache is None else cache
    keys = [(leaf.kind, enc.tobytes()) for leaf, enc in pairs]
    for kind in {kind for kind, _ in keys}:
        state = (models[kind].step_count, mix_weight, passes)
        if kind not in cache or cache[kind][0] != state:
            cache[kind] = (state, {})
    misses = {}  # kind -> {key: encoding}, each distinct key once
    for (kind, key), (_, enc) in zip(keys, pairs):
        if key not in cache[kind][1]:
            misses.setdefault(kind, {})[key] = enc
    for kind, batch in misses.items():
        scores = combined_uncertainties(
            models[kind], list(batch.values()), mix_weight, passes
        )
        cache[kind][1].update(zip(batch, scores))
    return [cache[kind][1][key] for kind, key in keys]


def estimated_benefit(cost_noindex: float, cost_corrected: float) -> float:
    """1 - corrected/no-index cost; negative values flag predicted regressions."""
    if cost_noindex <= 0:
        raise ContractError("no-index cost must be positive")
    return 1.0 - cost_corrected / cost_noindex


def actual_benefit(time_noindex: float, time_with: float) -> float:
    """1 - observed/no-index runtime."""
    if time_noindex <= 0:
        raise ContractError("no-index time must be positive")
    return 1.0 - time_with / time_noindex


def config_related_leaves(plan: PlanNode, config_indexes) -> list:
    """Leaves whose access path the configuration decided: index leaves using a
    configured index, plus sequential scans on tables that have one."""
    indexes = tuple(config_indexes)
    tables_with_index = {ix.table for ix in indexes}
    related = []
    for leaf in leaves(plan):
        if leaf.index is not None and leaf.index in indexes:
            related.append(leaf)
        elif leaf.kind == "SeqScan" and leaf.table in tables_with_index:
            related.append(leaf)
    return related


def telemetry_to_labels(
    plan: PlanNode,
    config_indexes,
    grid,
    observed_benefit: float,
    baseline_cost: float,
) -> list:
    """Per config-related leaf, the grid multiplier whose corrected benefit
    best matches the observed one; the plan is not modified."""
    if not math.isfinite(observed_benefit):
        raise ValueError("observed benefit must be finite")
    if baseline_cost <= 0:
        raise ContractError("baseline cost must be positive")
    grid = np.asarray(grid, dtype=float)
    if not (grid > 0).all():
        raise ValueError("multiplier must be positive")
    labels = []
    base_benefit = 1.0 - plan.total_cost / baseline_cost
    for leaf in config_related_leaves(plan, config_indexes):
        benefits = 1.0 - _corrected_totals(plan, leaf, grid) / baseline_cost
        best_key = (abs(observed_benefit - base_benefit), 0.0)
        best_multiplier = 1.0
        for multiplier, benefit in zip(grid.tolist(), benefits.tolist()):
            key = (abs(observed_benefit - benefit), abs(math.log(multiplier)))
            if key < best_key:
                best_key = key
                best_multiplier = multiplier
        labels.append((leaf, best_multiplier))
    return labels


def _corrected_totals(plan: PlanNode, leaf: PlanNode, grid: np.ndarray) -> np.ndarray:
    """The plan's total cost after scaling ``leaf`` by each grid multiplier,
    bit-identical to `update_cost` on a fresh copy per multiplier."""
    dcs, dce = _path_deltas(path_to_root(plan, leaf), grid)[-1]
    # both stay scalars when the leaf's delta never reaches the root
    totals = (plan.startup_cost + dcs) + (plan.exec_cost + dce)
    return np.broadcast_to(totals, grid.shape)
