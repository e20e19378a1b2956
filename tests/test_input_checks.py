"""Each input and contract check of the catalog, the plan encoding, the
correction rules and the uncertainty score raises on the input it guards
against, and a numeric column whose domain is one value has a defined
selectivity and encoding."""

from types import SimpleNamespace

import numpy as np
import pytest

from idxlab.catalog import (
    NUMERIC,
    STRING,
    Catalog,
    ColumnDef,
    ColumnRef,
    TableDef,
    selectivity,
    string_value_index,
)
from idxlab.correction import telemetry_to_labels, update_cost
from idxlab.costmodel import MULTIPLIER_GRID, entropy
from idxlab.errors import CatalogLookupError, ConfigurationError, ContractError
from idxlab.plan import (
    COMPARISON_OPS,
    MAX_INDEX_WIDTH,
    PLAN_KINDS,
    PlanNode,
    Predicate,
    encode_operator,
)

from conftest import build_catalog

A = ColumnDef("a", NUMERIC, 2, 0.0, 1.0)


def _string_range(catalog):
    return selectivity((Predicate(ColumnRef("t", "s"), "<", "v1"),), catalog)


def _unknown_op(catalog):
    # a hand-built predicate: `Predicate` itself rejects the op
    predicate = SimpleNamespace(column=ColumnRef("t", "a"), op="~", value=1.0)
    return selectivity((predicate,), catalog)


def _unknown_parent_kind(catalog):
    leaf = PlanNode("SeqScan", exec_cost=10.0, table="t")
    return update_cost(PlanNode("Materialize", children=[leaf]), leaf, 2.0)


def _nonpositive_baseline(catalog):
    plan = PlanNode("SeqScan", exec_cost=10.0, table="t")
    return telemetry_to_labels(plan, (), MULTIPLIER_GRID, 0.5, 0.0)


CHECKS = {
    "column-kind": (
        ConfigurationError, "column kind", lambda c: ColumnDef("x", "blob", 1)
    ),
    "column-distinct": (
        ConfigurationError,
        "distinct_count",
        lambda c: ColumnDef("x", NUMERIC, 0, 0.0, 1.0),
    ),
    "column-width": (
        ConfigurationError,
        "avg_width_bytes",
        lambda c: ColumnDef("x", STRING, 1, avg_width_bytes=0),
    ),
    "column-no-range": (
        ConfigurationError, "min/max", lambda c: ColumnDef("x", NUMERIC, 1)
    ),
    "column-inverted-range": (
        ConfigurationError,
        "must not exceed",
        lambda c: ColumnDef("x", NUMERIC, 1, 2.0, 1.0),
    ),
    "table-rows": (
        ConfigurationError, "row_count", lambda c: TableDef("x", 0, 1, (A,))
    ),
    "table-duplicate-columns": (
        ConfigurationError, "duplicate column", lambda c: TableDef("x", 10, 1, (A, A))
    ),
    "table-distinct-over-rows": (
        ConfigurationError, "exceeds row_count", lambda c: TableDef("x", 1, 1, (A,))
    ),
    "catalog-duplicate-tables": (
        ConfigurationError, "duplicate table", lambda c: Catalog(c.tables * 2, 0)
    ),
    "column-position": (
        CatalogLookupError,
        "no column",
        lambda c: c.column_position(ColumnRef("t", "zz")),
    ),
    "token-prefix": (
        ConfigurationError, "malformed", lambda c: string_value_index("x5")
    ),
    "token-number": (
        ConfigurationError, "malformed", lambda c: string_value_index("vx")
    ),
    "selectivity-string-range": (ConfigurationError, "range predicate", _string_range),
    "selectivity-unknown-op": (
        ConfigurationError, "unknown comparison op", _unknown_op
    ),
    "predicate-unknown-op": (
        ConfigurationError,
        "unknown comparison op",
        lambda c: Predicate(ColumnRef("t", "a"), "~", 1.0),
    ),
    "propagation-unknown-kind": (
        ConfigurationError, "no propagation rule", _unknown_parent_kind
    ),
    "labels-nonpositive-baseline": (
        ContractError, "baseline cost", _nonpositive_baseline
    ),
    "entropy-not-1d": (
        ContractError, "one-dimensional", lambda c: entropy(np.full((2, 2), 0.25))
    ),
}


@pytest.mark.parametrize("check", CHECKS)
def test_check_raises(check):
    error, message, build = CHECKS[check]
    with pytest.raises(error, match=message):
        build(build_catalog())


def one_value_catalog():
    """One table whose numeric column ``z`` holds the single value 5."""
    z = ColumnDef("z", NUMERIC, 1, 5.0, 5.0)
    return Catalog((TableDef("t", 100, 1, (z,)),), seed=0)


@pytest.mark.parametrize(
    "op, value, expected", [(">", 4.0, 1.0), ("<=", 5.0, 1.0), (">", 6.0, 0.0)]
)
def test_range_on_a_one_value_column_keeps_all_or_nothing(op, value, expected):
    predicate = Predicate(ColumnRef("t", "z"), op, value)
    assert selectivity((predicate,), one_value_catalog()) == expected


def test_a_one_value_column_encodes_its_literal_at_the_top():
    catalog = one_value_catalog()
    predicate = Predicate(ColumnRef("t", "z"), "<", 3.0)
    leaf = PlanNode("SeqScan", table="t", predicates=[predicate])
    vec = encode_operator(leaf, catalog)
    # the numeric value slot follows the kind, key, column and op blocks
    n_cols = len(catalog.column_refs)
    value_slot = len(PLAN_KINDS) + (MAX_INDEX_WIDTH + 1) * n_cols + len(COMPARISON_OPS)
    assert vec[value_slot] == 1.0 and vec[value_slot + 1] == 0.0
