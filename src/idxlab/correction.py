"""Uncertainty-gated cost correction and execution-feedback labeling.

Correcting a leaf scales only its execution cost; the change then propagates
to the root through per-kind delta rules that mirror how cumulative plan
costs compose:

    NestedLoopJoin   dcs = sum(dcs(children));  dce = rows(outer)*dce(inner) + dce(outer)
    Limit            dcs = dcs(child);          dce = rows(parent)/rows(child) * dce(child)
    Hash/Sort/
    Aggregate/Gather dcs = dcs(child)+dce(child); dce = 0
    HashJoin/
    GatherMerge      dcs = sum(dcs(children));  dce = dce(probe child)

A leaf is corrected only when its combined uncertainty is at or below the
gate threshold. Labeling replays every grid multiplier against a fresh copy
of the plan per (leaf, multiplier) pair and keeps the one whose corrected
benefit comes closest to the observed benefit, ties going to the multiplier
nearest 1x in log space.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .catalog import Catalog
from .costmodel import UncertaintyScore, combined_uncertainty
from .errors import ConfigurationError, ContractError
from .plan import PlanNode, leaves, path_to_root

_PASSTHROUGH_KINDS = ("Hash", "Sort", "Aggregate", "Gather")
_PROBE_KINDS = ("HashJoin", "GatherMerge")


@dataclass
class CorrectionLedger:
    """Cumulative per-node (dcs, dce) deltas plus the applied corrections."""

    deltas: dict = field(default_factory=dict)
    applied: list = field(default_factory=list)

    def delta_for(self, node: PlanNode) -> tuple:
        return tuple(self.deltas.get(id(node), (0.0, 0.0)))

    def _merge(self, local: dict) -> None:
        for node_id, (dcs, dce) in local.items():
            prev = self.deltas.get(node_id, (0.0, 0.0))
            self.deltas[node_id] = (prev[0] + dcs, prev[1] + dce)


def update_cost(
    plan: PlanNode,
    leaf: PlanNode,
    multiplier: float,
    ledger: Optional[CorrectionLedger] = None,
) -> CorrectionLedger:
    """Scale a leaf's execution cost by ``multiplier`` and propagate to the root.

    Mutates the plan in place; returns the (possibly shared) ledger recording
    this application's deltas on every touched node.
    """
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    if not leaf.is_leaf:
        raise ValueError("cost correction applies to leaf operators only")
    path = path_to_root(plan, leaf)

    local = {id(leaf): (0.0, (multiplier - 1.0) * leaf.exec_cost)}
    for child, parent in zip(path, path[1:]):
        local[id(parent)] = _parent_delta(parent, local)
    for node in path:
        dcs, dce = local[id(node)]
        node.startup_cost += dcs
        node.exec_cost += dce

    if ledger is None:
        ledger = CorrectionLedger()
    ledger._merge(local)
    ledger.applied.append((leaf, multiplier))
    return ledger


def _parent_delta(parent: PlanNode, local: dict) -> tuple:
    def d(node):
        return local.get(id(node), (0.0, 0.0))

    kind = parent.kind
    if kind == "NestedLoopJoin":
        outer, inner = parent.children[0], parent.children[1]
        dcs = sum(d(c)[0] for c in parent.children)
        dce = outer.est_rows * d(inner)[1] + d(outer)[1]
        return dcs, dce
    if kind == "Limit":
        child = parent.children[0]
        ratio = parent.est_rows / child.est_rows if child.est_rows > 0 else 0.0
        return d(child)[0], ratio * d(child)[1]
    if kind in _PASSTHROUGH_KINDS:
        child = parent.children[0]
        return d(child)[0] + d(child)[1], 0.0
    if kind in _PROBE_KINDS:
        dcs = sum(d(c)[0] for c in parent.children)
        return dcs, d(parent.children[0])[1]
    raise ConfigurationError(f"no propagation rule for plan kind {kind!r}")


@dataclass(frozen=True)
class LeafCorrection:
    leaf: PlanNode
    score: Optional[UncertaintyScore]
    multiplier: Optional[float]


@dataclass(frozen=True)
class PlanCorrection:
    corrected_cost: float
    reports: tuple
    ledger: CorrectionLedger

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
) -> PlanCorrection:
    """Gate-and-correct every leaf in depth-first order; mutates the plan."""
    from .plan import encode_operator

    if not threshold >= 0:  # also rejects NaN, which would close every gate
        raise ConfigurationError("uncertainty threshold must be >= 0")
    ledger = CorrectionLedger()
    reports = []
    for leaf in leaves(plan):
        model = models.get(leaf.kind)
        if model is None:
            reports.append(LeafCorrection(leaf, None, None))
            continue
        encoding = encode_operator(leaf, catalog)
        score = _cached_uncertainty(
            model, leaf.kind, encoding, mix_weight, passes, uncertainty_cache
        )
        applied = None
        if score.combined <= threshold:
            applied = model.predict_multiplier(encoding)
            update_cost(plan, leaf, applied, ledger)
        reports.append(LeafCorrection(leaf, score, applied))
    return PlanCorrection(plan.total_cost, tuple(reports), ledger)


def _cached_uncertainty(model, kind, encoding, mix_weight, passes, cache):
    if cache is None:
        return combined_uncertainty(model, encoding, mix_weight, passes)
    key = (kind, encoding.tobytes(), model.step_count, mix_weight, passes)
    if key not in cache:
        cache[key] = combined_uncertainty(model, encoding, mix_weight, passes)
    return cache[key]


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
    best matches the observed one. Each trial runs on a fresh plan copy."""
    if not math.isfinite(observed_benefit):
        raise ValueError("observed benefit must be finite")
    if baseline_cost <= 0:
        raise ContractError("baseline cost must be positive")
    all_leaves = leaves(plan)
    related = config_related_leaves(plan, config_indexes)
    positions = [
        i for i, leaf in enumerate(all_leaves) if any(leaf is r for r in related)
    ]
    labels = []
    base_benefit = 1.0 - plan.total_cost / baseline_cost
    for pos in positions:
        best_key = (abs(observed_benefit - base_benefit), 0.0)
        best_multiplier = 1.0
        for multiplier in grid:
            copy = plan.clone()
            update_cost(copy, leaves(copy)[pos], float(multiplier))
            benefit = 1.0 - copy.total_cost / baseline_cost
            key = (abs(observed_benefit - benefit), abs(math.log(multiplier)))
            if key < best_key:
                best_key = key
                best_multiplier = float(multiplier)
        labels.append((all_leaves[pos], best_multiplier))
    return labels
