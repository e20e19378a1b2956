"""Synthetic database catalogs: table/column statistics, index sizing, selectivity.

A catalog is a pure function of (CatalogSpec, seed) and immutable afterwards,
so it can be shared across concurrent experiment runs and regenerated from
its seed. String column values are opaque tokens ``v<k>`` with ``k`` in
``[0, distinct_count)``; only their statistical rank carries information.

Storage constants are fixed so size-budget tests stay stable: 8192-byte pages,
16 bytes of per-tuple index overhead, 24 bytes of heap row header.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import CatalogLookupError, ConfigurationError

PAGE_SIZE_BYTES = 8192
TUPLE_OVERHEAD_BYTES = 16
ROW_HEADER_BYTES = 24

NUMERIC = "numeric"
STRING = "string"

COMPARISON_OPS = ("=", ">", "<", ">=", "<=", "!=")


class ColumnRef(NamedTuple):
    table: str
    column: str

    def __str__(self):
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    kind: str
    distinct_count: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    avg_width_bytes: int = 8

    def __post_init__(self):
        if self.kind not in (NUMERIC, STRING):
            raise ConfigurationError(f"unknown column kind {self.kind!r}")
        if self.distinct_count < 1:
            raise ConfigurationError("distinct_count must be positive")
        if self.avg_width_bytes < 1:
            raise ConfigurationError("avg_width_bytes must be positive")
        if self.kind == NUMERIC:
            if self.min_value is None or self.max_value is None:
                raise ConfigurationError("numeric columns need min/max values")
            if self.min_value > self.max_value:
                raise ConfigurationError("min_value must not exceed max_value")


@dataclass(frozen=True)
class TableDef:
    name: str
    row_count: int
    page_count: int
    columns: tuple

    def __post_init__(self):
        if self.row_count < 1 or self.page_count < 1:
            raise ConfigurationError("row_count and page_count must be >= 1")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate column names in table {self.name}")
        for c in self.columns:
            if c.distinct_count > self.row_count:
                raise ConfigurationError(
                    f"{self.name}.{c.name}: distinct_count exceeds row_count"
                )

    @cached_property
    def _column_map(self):
        return {c.name: c for c in self.columns}

    def column(self, name: str) -> ColumnDef:
        try:
            return self._column_map[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise CatalogLookupError(
                f"no column {name!r} in table {self.name!r}"
            ) from None


@dataclass(frozen=True)
class IndexCandidate:
    """Ordered-key-column index definition; at most 3 key columns."""

    table: str
    key_columns: tuple
    estimated_size_bytes: int = field(default=0, compare=False)

    def __post_init__(self):
        cols = tuple(self.key_columns)
        object.__setattr__(self, "key_columns", cols)
        if not 1 <= len(cols) <= 3:
            raise ConfigurationError("index width must be between 1 and 3")
        if len(set(cols)) != len(cols):
            raise ConfigurationError("index key columns must be distinct")

    def __str__(self):
        return f"{self.table}({','.join(self.key_columns)})"


@dataclass(frozen=True)
class Catalog:
    tables: tuple
    seed: int

    def __post_init__(self):
        names = [t.name for t in self.tables]
        if len(names) != len(set(names)):
            raise ConfigurationError("duplicate table names in catalog")

    @cached_property
    def _table_map(self):
        return {t.name: t for t in self.tables}

    @cached_property
    def column_refs(self) -> tuple:
        """All columns, catalog-wide, in (table order, column order)."""
        return tuple(
            ColumnRef(t.name, c.name) for t in self.tables for c in t.columns
        )

    @cached_property
    def _column_positions(self):
        return {ref: i for i, ref in enumerate(self.column_refs)}

    def table(self, name: str) -> TableDef:
        try:
            return self._table_map[name]
        except KeyError:
            raise CatalogLookupError(f"no table {name!r} in catalog") from None

    def column(self, table: str, column: str) -> ColumnDef:
        return self.table(table).column(column)

    def column_position(self, ref: ColumnRef) -> int:
        try:
            return self._column_positions[ColumnRef(*ref)]
        except KeyError:
            raise CatalogLookupError(f"no column {ref} in catalog") from None


@dataclass(frozen=True)
class CatalogSpec:
    n_tables: int
    rows_range: tuple = (1000, 100000)
    cols_per_table_range: tuple = (3, 6)
    string_column_fraction: float = 0.25


def _validate_spec(spec: CatalogSpec) -> None:
    if spec.n_tables < 1:
        raise ConfigurationError("n_tables must be >= 1")
    for label, (lo, hi) in (
        ("rows_range", spec.rows_range),
        ("cols_per_table_range", spec.cols_per_table_range),
    ):
        if lo < 1 or hi < lo:
            raise ConfigurationError(f"{label} must be a nonempty positive range")
    if not 0.0 <= spec.string_column_fraction <= 1.0:
        raise ConfigurationError("string_column_fraction must be in [0, 1]")


def _log_uniform_int(rng, low: int, high: int) -> int:
    if high <= low:
        return low
    return int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))


def generate_catalog(spec: CatalogSpec, seed: int) -> Catalog:
    """Deterministically synthesize a catalog from (spec, seed)."""
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    tables = []
    for ti in range(spec.n_tables):
        row_count = int(rng.integers(spec.rows_range[0], spec.rows_range[1] + 1))
        n_cols = int(
            rng.integers(
                spec.cols_per_table_range[0], spec.cols_per_table_range[1] + 1
            )
        )
        columns = []
        # a one-row table's columns each hold a single value
        min_distinct = min(2, row_count)
        for ci in range(n_cols):
            name = f"c{ci}"
            if ci == 0:
                # leading id-like column keeps every table joinable
                columns.append(
                    ColumnDef(name, NUMERIC, row_count, 0.0, float(row_count), 8)
                )
                continue
            if rng.random() < spec.string_column_fraction:
                distinct = _log_uniform_int(rng, min_distinct, min(row_count, 5000))
                width = int(rng.integers(8, 33))
                columns.append(ColumnDef(name, STRING, distinct, None, None, width))
            else:
                # mostly selective columns, plus a low-cardinality minority
                # (status/category-style attributes) whose indexes sit on
                # thin cost margins
                if rng.random() < 0.3:
                    distinct = _log_uniform_int(rng, min_distinct, min(row_count, 64))
                else:
                    distinct = int(rng.integers(min_distinct, row_count + 1))
                lo = float(rng.uniform(0.0, 5e5))
                hi = lo + float(rng.uniform(1.0, 5e5))
                width = int(rng.choice([4, 8]))
                columns.append(ColumnDef(name, NUMERIC, distinct, lo, hi, width))
        avg_row_width = sum(c.avg_width_bytes for c in columns) + ROW_HEADER_BYTES
        page_count = max(1, math.ceil(row_count * avg_row_width / PAGE_SIZE_BYTES))
        tables.append(TableDef(f"t{ti}", row_count, page_count, tuple(columns)))
    return Catalog(tables=tuple(tables), seed=seed)


def estimate_index_size(candidate: IndexCandidate, catalog: Catalog) -> int:
    """Index size in bytes: rows x (key widths + per-tuple overhead)."""
    table = catalog.table(candidate.table)
    width = sum(table.column(c).avg_width_bytes for c in candidate.key_columns)
    return table.row_count * (width + TUPLE_OVERHEAD_BYTES)


def sized_candidate(table: str, key_columns, catalog: Catalog) -> IndexCandidate:
    """Build an IndexCandidate with its estimated size filled in."""
    cand = IndexCandidate(table, tuple(key_columns), 0)
    return IndexCandidate(table, cand.key_columns, estimate_index_size(cand, catalog))


def string_value_index(token) -> int:
    """Parse the statistical value index out of a string token ``v<k>``."""
    s = str(token)
    if not s.startswith("v"):
        raise ConfigurationError(f"malformed string token {token!r}")
    try:
        return int(s[1:])
    except ValueError:
        raise ConfigurationError(f"malformed string token {token!r}") from None


def selectivity(predicates, catalog: Catalog) -> float:
    """Uniform-domain selectivity of one predicate or a conjunction of them.

    Equality contributes 1/distinct_count, inequality its complement; range
    comparisons on a numeric column narrow an interval whose width fraction is
    clamped to [0, 1], so a two-sided range a < col < b yields (b-a)/(max-min).
    Predicates on different columns multiply (independence).
    """
    if hasattr(predicates, "column"):
        predicates = (predicates,)
    by_column = {}
    for p in predicates:
        by_column.setdefault(ColumnRef(*p.column), []).append(p)

    sel = 1.0
    for ref, preds in by_column.items():
        col = catalog.column(ref.table, ref.column)
        lo = col.min_value if col.kind == NUMERIC else None
        hi = col.max_value if col.kind == NUMERIC else None
        ranged = False
        for p in preds:
            if p.op == "=":
                sel *= 1.0 / col.distinct_count
            elif p.op == "!=":
                sel *= 1.0 - 1.0 / col.distinct_count
            elif p.op in (">", ">=", "<", "<="):
                if col.kind != NUMERIC:
                    raise ConfigurationError(
                        f"range predicate on string column {ref}"
                    )
                ranged = True
                v = float(p.value)
                if p.op in (">", ">="):
                    lo = max(lo, v)
                else:
                    hi = min(hi, v)
            else:
                raise ConfigurationError(f"unknown comparison op {p.op!r}")
        if ranged:
            width = col.max_value - col.min_value
            if width <= 0.0:
                frac = 1.0 if hi >= lo else 0.0
            else:
                frac = (hi - lo) / width
            sel *= min(1.0, max(0.0, frac))
    return min(1.0, max(0.0, sel))
