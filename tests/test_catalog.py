import math

import pytest

from idxlab.catalog import (
    NUMERIC,
    CatalogSpec,
    ColumnRef,
    IndexCandidate,
    estimate_index_size,
    generate_catalog,
    selectivity,
    sized_candidate,
)
from idxlab.errors import CatalogLookupError, ConfigurationError
from idxlab.plan import Predicate


def pred(col, op, value, table="t"):
    return Predicate(ColumnRef(table, col), op, value)


def test_generation_is_deterministic():
    spec = CatalogSpec(n_tables=1, rows_range=(1000, 1000), cols_per_table_range=(2, 2))
    a = generate_catalog(spec, seed=7)
    b = generate_catalog(spec, seed=7)
    assert a == b
    assert len(a.tables) == 1
    assert a.tables[0].row_count == 1000


def test_zero_tables_rejected():
    with pytest.raises(ConfigurationError):
        generate_catalog(CatalogSpec(n_tables=0), seed=1)
    with pytest.raises(ConfigurationError):
        generate_catalog(CatalogSpec(n_tables=2, rows_range=(10, 5)), seed=1)


def test_row_counts_stay_in_range_across_seeds():
    spec = CatalogSpec(n_tables=3, rows_range=(100, 100000))
    for seed in range(100):
        cat = generate_catalog(spec, seed)
        for t in cat.tables:
            assert 100 <= t.row_count <= 100000


def test_generated_catalogs_satisfy_invariants():
    spec = CatalogSpec(n_tables=4)
    for seed in range(20):
        cat = generate_catalog(spec, seed)
        for t in cat.tables:
            width = sum(c.avg_width_bytes for c in t.columns) + 24
            assert t.page_count == max(1, math.ceil(t.row_count * width / 8192))
            for c in t.columns:
                assert c.distinct_count <= t.row_count
                if c.kind == NUMERIC:
                    assert c.min_value <= c.max_value


def test_index_size_formula(small_catalog):
    one = IndexCandidate("t", ("a",))
    assert estimate_index_size(one, small_catalog) == 1000 * (8 + 16)
    two = IndexCandidate("t", ("a", "b"))
    assert estimate_index_size(two, small_catalog) == 1000 * (8 + 8 + 16)


def test_index_size_strictly_grows_with_width(small_catalog):
    sizes = [
        estimate_index_size(IndexCandidate("t", cols), small_catalog)
        for cols in (("a",), ("a", "b"), ("a", "b", "s"))
    ]
    assert sizes[0] < sizes[1] < sizes[2]


def test_index_lookup_errors(small_catalog):
    with pytest.raises(CatalogLookupError):
        estimate_index_size(IndexCandidate("t", ("missing",)), small_catalog)
    with pytest.raises(CatalogLookupError):
        estimate_index_size(IndexCandidate("nope", ("a",)), small_catalog)


def test_index_candidate_invariants():
    with pytest.raises(ConfigurationError):
        IndexCandidate("t", ())
    with pytest.raises(ConfigurationError):
        IndexCandidate("t", ("a", "b", "c", "d"))
    with pytest.raises(ConfigurationError):
        IndexCandidate("t", ("a", "a"))


def test_equality_selectivity(small_catalog):
    assert selectivity((pred("a", "=", 3.0),), small_catalog) == pytest.approx(0.01)
    assert selectivity((pred("s", "=", "v7"),), small_catalog) == pytest.approx(1 / 40)


def test_range_selectivity_clamps(small_catalog):
    full = [pred("a", ">", 0.0), pred("a", "<", 1000.0)]
    assert selectivity(full, small_catalog) == pytest.approx(1.0)
    empty = [pred("a", ">", 400.0), pred("a", "<", 400.0)]
    assert selectivity(empty, small_catalog) == 0.0
    half = [pred("a", ">", 250.0), pred("a", "<", 750.0)]
    assert selectivity(half, small_catalog) == pytest.approx(0.5)


def test_selectivity_unknown_column(small_catalog):
    with pytest.raises(CatalogLookupError):
        selectivity((pred("zz", "=", 1.0),), small_catalog)


def test_selectivity_bounds_over_random_predicates():
    import numpy as np

    spec = CatalogSpec(n_tables=2)
    for seed in range(100):
        cat = generate_catalog(spec, seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            t = cat.tables[int(rng.integers(0, len(cat.tables)))]
            col = t.columns[int(rng.integers(0, len(t.columns)))]
            if col.kind == NUMERIC:
                op = ("=", ">", "<", ">=", "<=", "!=")[int(rng.integers(0, 6))]
                value = float(rng.uniform(col.min_value - 10, col.max_value + 10))
            else:
                op = ("=", "!=")[int(rng.integers(0, 2))]
                value = f"v{int(rng.integers(0, col.distinct_count))}"
            s = selectivity((pred(col.name, op, value, table=t.name),), cat)
            assert 0.0 <= s <= 1.0


def test_sized_candidate_fills_size(small_catalog):
    c = sized_candidate("t", ("a",), small_catalog)
    assert c.estimated_size_bytes == 24000
