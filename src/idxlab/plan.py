"""Plan-tree data model and fixed-length operator featurization.

An operator encoding is a float vector in [0, 1] with layout

    node-kind one-hot (11)
    3 key-column one-hots over all catalog columns (zero-padded)
    predicate column one-hot
    comparison-op one-hot (6)
    normalized numeric literal (1 slot)
    normalized cardinality rank for string literals (1 slot)

so its length is a pure function of the catalog. Operators with several
predicates encode the most selective one; absent slots stay all-zero.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import (
    COMPARISON_OPS,
    NUMERIC,
    Catalog,
    ColumnRef,
    IndexCandidate,
    selectivity,
    string_value_index,
)
from .errors import CatalogLookupError, ConfigurationError

PLAN_KINDS = (
    "SeqScan",
    "IndexScan",
    "IndexOnlyScan",
    "NestedLoopJoin",
    "HashJoin",
    "Hash",
    "Sort",
    "Aggregate",
    "Limit",
    "Gather",
    "GatherMerge",
)
LEAF_KINDS = ("SeqScan", "IndexScan", "IndexOnlyScan")
MAX_INDEX_WIDTH = 3


@dataclass(frozen=True)
class Predicate:
    column: ColumnRef
    op: str
    value: object

    def __post_init__(self):
        object.__setattr__(self, "column", ColumnRef(*self.column))
        if self.op not in COMPARISON_OPS:
            raise ConfigurationError(f"unknown comparison op {self.op!r}")


@dataclass(eq=False)
class PlanNode:
    kind: str
    startup_cost: float = 0.0
    exec_cost: float = 0.0
    est_rows: float = 0.0
    table: Optional[str] = None
    index: Optional[IndexCandidate] = None
    predicates: list = field(default_factory=list)
    children: list = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.startup_cost + self.exec_cost

    @property
    def is_leaf(self) -> bool:
        return self.kind in LEAF_KINDS

    def walk(self):
        """Depth-first, outer-first preorder over the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def clone(self) -> "PlanNode":
        return PlanNode(
            kind=self.kind,
            startup_cost=self.startup_cost,
            exec_cost=self.exec_cost,
            est_rows=self.est_rows,
            table=self.table,
            index=self.index,
            predicates=list(self.predicates),
            children=[c.clone() for c in self.children],
        )

    def validate(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ConfigurationError(f"unknown plan kind {self.kind!r}")
        if self.startup_cost < 0 or self.exec_cost < 0:
            raise ConfigurationError("plan costs must be nonnegative")
        if self.is_leaf:
            if self.children:
                raise ConfigurationError(f"{self.kind} must not have children")
            if self.table is None:
                raise ConfigurationError(f"{self.kind} needs a table reference")
            if self.kind == "SeqScan" and self.index is not None:
                raise ConfigurationError("SeqScan must not carry an index")
            if self.kind != "SeqScan" and self.index is None:
                raise ConfigurationError(f"{self.kind} needs an index reference")
        else:
            if not self.children:
                raise ConfigurationError(f"{self.kind} needs children")
        for c in self.children:
            c.validate()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "startup_cost": self.startup_cost,
            "exec_cost": self.exec_cost,
            "est_rows": self.est_rows,
            "table": self.table,
            "index": None
            if self.index is None
            else {
                "table": self.index.table,
                "key_columns": list(self.index.key_columns),
                "estimated_size_bytes": self.index.estimated_size_bytes,
            },
            "predicates": [
                {"column": list(p.column), "op": p.op, "value": p.value}
                for p in self.predicates
            ],
            "children": [c.to_dict() for c in self.children],
        }


def leaves(root: PlanNode) -> list:
    """All leaf-kind nodes, depth-first outer-first."""
    return [n for n in root.walk() if n.is_leaf]


def path_to_root(root: PlanNode, node: PlanNode) -> list:
    """[node, parent(node), ..., root]; raises if node is not in the tree."""
    path = _search(root, node)
    if path is None:
        raise CatalogLookupError("node is not part of the given plan tree")
    return path


def _search(current: PlanNode, target: PlanNode):
    if current is target:
        return [current]
    for child in current.children:
        sub = _search(child, target)
        if sub is not None:
            sub.append(current)
            return sub
    return None


def encoding_length(catalog: Catalog) -> int:
    n_cols = len(catalog.column_refs)
    return len(PLAN_KINDS) + (MAX_INDEX_WIDTH + 1) * n_cols + len(COMPARISON_OPS) + 2


def encode_operator(node: PlanNode, catalog: Catalog) -> np.ndarray:
    """Fixed-length featurization of one operator; every entry lies in [0, 1]."""
    n_cols = len(catalog.column_refs)
    vec = np.zeros(encoding_length(catalog))
    vec[PLAN_KINDS.index(node.kind)] = 1.0
    base = len(PLAN_KINDS)

    if node.index is not None:
        for slot, col in enumerate(node.index.key_columns[:MAX_INDEX_WIDTH]):
            pos = catalog.column_position(ColumnRef(node.index.table, col))
            vec[base + slot * n_cols + pos] = 1.0
    base += MAX_INDEX_WIDTH * n_cols

    pred = _most_selective(node.predicates, catalog)
    if pred is not None:
        vec[base + catalog.column_position(pred.column)] = 1.0
        base += n_cols
        vec[base + COMPARISON_OPS.index(pred.op)] = 1.0
        base += len(COMPARISON_OPS)
        col = catalog.column(pred.column.table, pred.column.column)
        if col.kind == NUMERIC:
            width = col.max_value - col.min_value
            if width > 0:
                frac = (float(pred.value) - col.min_value) / width
            else:
                frac = 1.0
            vec[base] = min(1.0, max(0.0, frac))
        else:
            rank = (string_value_index(pred.value) + 1) / col.distinct_count
            vec[base + 1] = min(1.0, max(0.0, rank))
    return vec


def _most_selective(predicates, catalog):
    best, best_sel = None, None
    for p in predicates:
        s = selectivity(p, catalog)
        if best is None or s < best_sel:
            best, best_sel = p, s
    return best
