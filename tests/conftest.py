"""Shared fixtures: tiny hand-built catalogs and plan trees."""

import math

import pytest

from idxlab.catalog import (
    NUMERIC,
    STRING,
    Catalog,
    ColumnDef,
    IndexCandidate,
    TableDef,
)
from idxlab.plan import PlanNode
from idxlab.selection import applicability, generate_candidates


def build_catalog():
    """One table with known statistics: two 8-byte numerics and a string."""
    columns = (
        ColumnDef("a", NUMERIC, 100, 0.0, 1000.0, 8),
        ColumnDef("b", NUMERIC, 50, 0.0, 500.0, 8),
        ColumnDef("s", STRING, 40, None, None, 16),
    )
    width = sum(c.avg_width_bytes for c in columns) + 24
    pages = max(1, math.ceil(1000 * width / 8192))
    table = TableDef("t", 1000, pages, columns)
    return Catalog(tables=(table,), seed=0)


def total_size_bytes(config) -> int:
    """The estimated bytes of a configuration's indexes."""
    return sum(ix.estimated_size_bytes for ix in config.indexes)


def applicable_pairs(workload, catalog) -> set:
    """The (query key, candidate) pairs that a round of ``workload`` prices:
    each of its candidates with each query whose template can use it."""
    queries = workload.queries
    return {
        (q.key(), x)
        for x in generate_candidates(workload, catalog)
        for q, usable in zip(queries, applicability(queries, x))
        if usable
    }


@pytest.fixture
def small_catalog():
    return build_catalog()


def controlled_catalog(n_tables=2, rows=20000, filter_distinct=12):
    """Tables whose filter column has a fixed, low distinct count, so equality
    scans keep a moderate selectivity (1/filter_distinct)."""
    tables = []
    for i in range(n_tables):
        columns = (
            ColumnDef("c0", NUMERIC, rows, 0.0, float(rows), 8),
            ColumnDef("c1", NUMERIC, filter_distinct, 0.0, 100.0, 8),
            ColumnDef("c2", NUMERIC, rows // 2, 0.0, 1000.0, 8),
        )
        width = sum(c.avg_width_bytes for c in columns) + 24
        pages = max(1, math.ceil(rows * width / 8192))
        tables.append(TableDef(f"t{i}", rows, pages, columns))
    return Catalog(tables=tuple(tables), seed=0)


def nlj_example_plan():
    """The worked propagation example: NLJ over a seq scan and an index scan."""
    outer = PlanNode(
        "SeqScan", startup_cost=0.0, exec_cost=700.0, est_rows=50000.0, table="a"
    )
    inner = PlanNode(
        "IndexScan",
        startup_cost=0.0,
        exec_cost=1.35,
        est_rows=1.0,
        table="b",
        index=IndexCandidate("b", ("k",), 1),
    )
    root = PlanNode(
        "NestedLoopJoin",
        startup_cost=0.0,
        exec_cost=113587.0,
        est_rows=50000.0,
        children=[outer, inner],
    )
    return root, outer, inner
