"""What-if planner and ground-truth executor over synthetic catalogs.

The planner prices access paths with PostgreSQL-flavored constants and picks,
per table access, the cheapest of SeqScan and the applicable index scans from
the hypothetical configuration; join order is fixed left-deep by the template.
Parent costs are cumulative (child costs included), which is exactly the shape
the delta-propagation rules in the correction module assume. The planner and
the executor take a configuration in one form, a sequence of index
candidates; a caller holding a `selection.Configuration` passes its
``indexes``.

What a plan needs from a query apart from its configuration is derived once
and kept on the frozen object it comes from, never in a table keyed by
literals: a template's referenced columns per table and its filter columns
(``QueryTemplate.referenced_columns``, ``filter_columns``), a query's bound
predicates per table (``Query.predicates_by_table``) and each table's filter
selectivity (``Query.filter_selectivities``), which is kept for the catalog
object it was computed against and recomputed under any other. Each catalog
table maps its column names once. All of these are pure functions of frozen
values, so every plan is built node for node as from scratch. The planner
itself hashes no query and keeps no plan: each call plans the whole query
under its configuration. A what-if plan is therefore a pure function of the
query's key, the configuration and the catalog, which is what lets the
tuner keep the plans of queries that recur from one round to the next
(`selection.round_context`).

The executor turns per-operator execution costs into "true" runtimes through
hidden per-(leaf kind, table) multipliers and optional lognormal noise;
those multipliers are the systematic estimation errors the learned models
must recover, and an internal operator is scaled by its noise alone. Each
execution draws its noise from its own stream, `seeding.rng_for(ground truth seed, round seed, digest of the query and the
configuration)`, which `noise_streams` makes for many queries in one hash
pass (`seeding.seed_words`, then `seeding.generators`); `execute` takes one
of them, or makes its query's own through `noise_streams`. One optimizer
cost unit is worth 1 ms of simulated time, a constant that cancels in every
benefit ratio.
"""

import math
import zlib
from dataclasses import dataclass

from .catalog import Catalog, selectivity
from .errors import ConfigurationError
from .plan import LEAF_KINDS, PlanNode
from .seeding import generators, rng_for, seed_words
from .workload import Query

SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 4.0
CPU_TUPLE_COST = 0.01
CPU_INDEX_TUPLE_COST = 0.005
CPU_OPERATOR_COST = 0.0025
INDEX_ONLY_PAGE_FACTOR = 0.25
TIME_UNIT_SECONDS = 0.001

MULTIPLIER_LOW = 0.05
MULTIPLIER_HIGH = 20.0


@dataclass(frozen=True)
class GroundTruth:
    """Hidden per-(leaf kind, table) cost multipliers plus noise shape;
    ``multipliers`` has exactly the keys `plan.LEAF_KINDS` x the catalog's
    tables."""

    catalog: Catalog
    multipliers: dict
    noise_sigma: float
    seed: int

    def factor(self, kind: str, table: str) -> float:
        return self.multipliers[(kind, table)]


@dataclass(frozen=True)
class ExecutionTelemetry:
    total_time: float
    per_operator: tuple
    plan: PlanNode


def make_ground_truth(
    catalog: Catalog, seed: int, noise_sigma: float = 0.05, choices=None
) -> GroundTruth:
    """Draw one multiplier per (leaf kind, table), log-uniform in [0.05, 20].

    Systematic errors live on the table-access operators only, so internal
    operators carry none (noise still applies to every operator).
    Compounding internal-node errors through the row-count leverage of joins
    would push the correction a leaf can express outside the multiplier
    grid, breaking the guarantee that the right bucket exists.

    ``choices`` maps a leaf kind to an explicit set of multipliers to draw
    from; leaf kinds it does not map get multiplier 1.0, and a kind that is
    not a leaf kind raises ConfigurationError.
    """
    if noise_sigma < 0:
        raise ConfigurationError("noise_sigma must be >= 0")
    if choices is not None and not set(choices) <= set(LEAF_KINDS):
        raise ConfigurationError(f"choices must map only leaf kinds {LEAF_KINDS}")
    rng = rng_for(seed, "ground-truth")
    multipliers = {}
    for kind in LEAF_KINDS:
        for table in catalog.tables:
            if choices is None:
                low, high = math.log(MULTIPLIER_LOW), math.log(MULTIPLIER_HIGH)
                g = math.exp(rng.uniform(low, high))
            else:
                opts = choices.get(kind)
                g = 1.0 if opts is None else float(rng.choice(list(opts)))
            multipliers[(kind, table.name)] = g
    return GroundTruth(catalog, multipliers, noise_sigma, seed)


def whatif_plan(query: Query, indexes, catalog: Catalog):
    """Cost a query under a hypothetical configuration, the sequence of
    index candidates ``indexes``.

    Returns (plan tree, root total cost). Deterministic; an empty
    configuration always plans via sequential scans.
    """
    t = query.template

    current = _best_scan(query, t.tables[0], indexes, catalog, lookup_col=None)
    for i, join in enumerate(t.join_predicates):
        inner_table = t.tables[i + 1]
        inner_plain = _best_scan(query, inner_table, indexes, catalog, lookup_col=None)
        rows_out = _join_rows(current.est_rows, inner_plain.est_rows, join, catalog)

        hash_node = PlanNode(
            kind="Hash",
            startup_cost=inner_plain.total_cost
            + CPU_OPERATOR_COST * inner_plain.est_rows,
            exec_cost=0.0,
            est_rows=inner_plain.est_rows,
            children=[inner_plain],
        )
        hash_join = PlanNode(
            kind="HashJoin",
            startup_cost=current.startup_cost + hash_node.startup_cost,
            exec_cost=current.exec_cost
            + CPU_OPERATOR_COST * current.est_rows
            + CPU_TUPLE_COST * rows_out,
            est_rows=rows_out,
            children=[current, hash_node],
        )
        best = hash_join

        inner_lookup = _best_scan(
            query, inner_table, indexes, catalog, lookup_col=join.right.column
        )
        # a lookup access has no SeqScan option: any path found is an index's
        if inner_lookup is not None:
            nlj = PlanNode(
                kind="NestedLoopJoin",
                startup_cost=current.startup_cost + inner_lookup.startup_cost,
                exec_cost=current.exec_cost
                + current.est_rows * inner_lookup.exec_cost
                + CPU_TUPLE_COST * rows_out,
                est_rows=rows_out,
                children=[current, inner_lookup],
            )
            if nlj.total_cost < best.total_cost:
                best = nlj
        current = best

    if t.group_by:
        col = catalog.column(t.group_by[0].table, t.group_by[0].column)
        groups = min(float(col.distinct_count), current.est_rows)
        current = PlanNode(
            kind="Aggregate",
            startup_cost=current.total_cost + CPU_OPERATOR_COST * current.est_rows,
            exec_cost=CPU_TUPLE_COST * groups,
            est_rows=groups,
            children=[current],
        )
    if t.order_by:
        rows = current.est_rows
        sort_work = 2.0 * CPU_OPERATOR_COST * rows * math.log2(max(rows, 2.0))
        current = PlanNode(
            kind="Sort",
            startup_cost=current.total_cost + sort_work,
            exec_cost=CPU_OPERATOR_COST * rows,
            est_rows=rows,
            children=[current],
        )
    return current, current.total_cost


def _best_scan(query, table_name, indexes, catalog, lookup_col):
    """Cheapest access path for one table (or the cheapest lookup path)."""
    table = catalog.table(table_name)
    preds = list(query.predicates_by_table.get(table_name, ()))
    filter_sel = query.filter_selectivities(catalog).get(table_name, 1.0)
    out_rows = table.row_count * filter_sel
    if lookup_col is not None:
        join_col = catalog.column(table_name, lookup_col)
        out_rows = out_rows / join_col.distinct_count

    options = []
    if lookup_col is None:
        seq = PlanNode(
            kind="SeqScan",
            startup_cost=0.0,
            exec_cost=SEQ_PAGE_COST * table.page_count
            + (CPU_TUPLE_COST + CPU_OPERATOR_COST * len(preds)) * table.row_count,
            est_rows=out_rows,
            table=table_name,
            predicates=preds,
        )
        options.append(seq)

    referenced = query.template.referenced_columns.get(table_name, frozenset())
    for idx in indexes:
        if idx.table != table_name:
            continue
        matched = _matched_selectivity(idx, preds, catalog, lookup_col)
        if matched is None:
            continue
        descent = CPU_OPERATOR_COST * math.log2(max(table.row_count, 2.0))
        heap_pages = matched * table.page_count
        cpu = (CPU_INDEX_TUPLE_COST + CPU_TUPLE_COST) * matched * table.row_count
        post_filter = CPU_OPERATOR_COST * len(preds) * matched * table.row_count
        kind = "IndexScan"
        page_cost = RANDOM_PAGE_COST * heap_pages
        if referenced <= set(idx.key_columns):
            kind = "IndexOnlyScan"
            page_cost = INDEX_ONLY_PAGE_FACTOR * RANDOM_PAGE_COST * heap_pages
        options.append(
            PlanNode(
                kind=kind,
                startup_cost=descent,
                exec_cost=page_cost + cpu + post_filter,
                est_rows=out_rows,
                table=table_name,
                index=idx,
                predicates=preds,
            )
        )

    if not options:
        return None
    best = options[0]
    for node in options[1:]:
        if node.total_cost < best.total_cost:
            best = node
    return best


def _matched_prefix(key_columns, filtered, lookup_col):
    """The index's leading key columns an access can use, or None if unusable.

    ``filtered`` maps each filtered column of the table to its predicates.
    Each matched key comes with those predicates, or None where it serves the
    join lookup on ``lookup_col``. The lookup column must be matched.
    """
    matched = []
    for key in key_columns:
        if key == lookup_col:
            matched.append((key, None))
        elif key in filtered:
            matched.append((key, filtered[key]))
        else:
            break
    if not matched:
        return None
    if lookup_col is not None and lookup_col not in key_columns[: len(matched)]:
        return None
    return matched


def _matched_selectivity(idx, preds, catalog, lookup_col):
    """Selectivity served by the index's leading key prefix, or None if unusable."""
    filtered = {}
    for p in preds:
        filtered.setdefault(p.column.column, []).append(p)
    matched = _matched_prefix(idx.key_columns, filtered, lookup_col)
    if matched is None:
        return None
    sel = 1.0
    for key, key_preds in matched:
        if key_preds is None:
            sel *= 1.0 / catalog.column(idx.table, key).distinct_count
        else:
            sel *= selectivity(key_preds, catalog)
    return sel


def index_applicable(template, index) -> bool:
    """Whether ``whatif_plan`` can offer an access path on ``index`` to some
    query of ``template``.

    Only the template's structure decides it, never the literals: the index
    must lie on one of the template's tables, and its leading key prefix must
    match that table's filter columns, or the lookup column of a join whose
    inner table it is. No other index can change a query's plan (the
    indexable-column pruning of Chaudhuri & Narasayya, VLDB 1997).
    """
    if index.table not in template.tables:
        return False
    filtered = template.filter_columns.get(index.table, {})
    if _matched_prefix(index.key_columns, filtered, None) is not None:
        return True
    return any(
        template.tables[i + 1] == index.table
        and _matched_prefix(index.key_columns, filtered, join.right.column)
        is not None
        for i, join in enumerate(template.join_predicates)
    )


def _join_rows(outer_rows, inner_rows, join, catalog) -> float:
    d_left = catalog.column(join.left.table, join.left.column).distinct_count
    d_right = catalog.column(join.right.table, join.right.column).distinct_count
    return outer_rows * inner_rows / max(d_left, d_right)


def _query_digest(query: Query, indexes) -> int:
    parts = [query.template.id]
    parts += [repr(v) for v in query.bound_literals]
    parts += sorted(str(ix) for ix in indexes)
    return zlib.crc32("|".join(parts).encode("utf-8"))


def noise_streams(queries, indexes, ground_truth: GroundTruth, round_seed: int) -> list:
    """The noise stream `execute` draws from for each of ``queries`` under
    the index sequence ``indexes``, made together from one
    `seeding.seed_words` pass."""
    keys = ((ground_truth.seed, round_seed, _query_digest(q, indexes)) for q in queries)
    return generators(seed_words(keys))


def execute(
    query: Query, indexes, ground_truth: GroundTruth, round_seed: int, *, stream=None
) -> ExecutionTelemetry:
    """Simulated execution under the index sequence ``indexes``: a leaf's
    time is exec cost x its (kind, table) multiplier x noise, any other
    operator's exec cost x noise.

    The noise comes from the query's own stream, a pure function of the
    ground truth's seed, ``round_seed``, the query and the indexes.
    ``stream`` is that stream when the caller made it already, as
    `noise_streams` makes a round's."""
    root, _ = whatif_plan(query, indexes, ground_truth.catalog)
    if stream is None:
        stream = noise_streams((query,), indexes, ground_truth, round_seed)[0]
    nodes = list(root.walk())
    # one draw per node in walk order, the values and generator state of a
    # scalar draw per node
    noises = stream.lognormal(0.0, ground_truth.noise_sigma, size=len(nodes)).tolist()
    per_operator = []
    total = 0.0
    for node, noise in zip(nodes, noises):
        g = ground_truth.factor(node.kind, node.table) if node.is_leaf else 1.0
        t = node.exec_cost * g * noise * TIME_UNIT_SECONDS
        per_operator.append((node, t))
        total += t
    return ExecutionTelemetry(total, tuple(per_operator), root)
