"""What-if planner and ground-truth executor over synthetic catalogs.

The planner prices access paths with PostgreSQL-flavored constants and picks,
per table access, the cheapest of SeqScan and the applicable index scans from
the hypothetical configuration; join order is fixed left-deep by the template.
Parent costs are cumulative (child costs included), which is exactly the shape
the delta-propagation rules in the correction module assume. The planner and
the executor take a configuration in one form, a sequence of index
candidates; a caller holding a `selection.Configuration` passes its
``indexes``.

What a plan needs apart from its configuration is derived once and kept on
the frozen object it comes from, never in a table keyed by literals (the
reuse of INUM, Papadomanolakis et al., VLDB 2007). A template keeps its
filter columns (``QueryTemplate.filter_columns``) and, through
`_template_constants`, what its accesses take from the catalog: each
table's SeqScan cost, index descent cost and referenced columns, each
join's larger distinct count and lookup-column distinct count, and the
group-by column's distinct count. A query keeps its bound predicates per
table (``Query.predicates_by_table``) and, through `_filter_selectivities`,
each table's filter selectivity, and each catalog table maps its column
names once. One rule, `_kept`, keeps whatever is derived under a catalog:
on the frozen object, for the catalog object it was derived under, derived
again under any other. All of these are pure functions of frozen values, so
every plan is built node for node as from scratch. The planner weighs each
access option and each join's two methods on their costs and builds only
the tree it returns. It hashes no query and keeps no plan: each call plans
the whole query under its configuration. A what-if plan is therefore a pure
function of the query's key, the configuration and the catalog, which is
what lets the tuner keep the plans of queries that recur from one round to
the next (`selection.round_context`).

The executor turns per-operator execution costs into "true" runtimes through
hidden per-(leaf kind, table) multipliers and optional lognormal noise;
those multipliers are the systematic estimation errors the learned models
must recover, and an internal operator is scaled by its noise alone. Each
execution draws its noise from its own stream, `seeding.rng_for(ground
truth seed, round seed, digest of the query and the configuration)`, which
`noise_streams` makes for many queries in one hash pass
(`seeding.seed_words`, then `seeding.generators`), naming the configuration
once for all of them; `execute` takes one of them, or makes its query's own
through `noise_streams`. One optimizer cost unit is worth 1 ms of simulated
time, a constant that cancels in every benefit ratio.
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
    configuration always plans via sequential scans. Each join weighs its
    HashJoin against its NestedLoopJoin on their costs, and only the winner,
    with the scan under it, becomes a node.
    """
    t = query.template
    tables, joins, groups = _kept(t, "_plan_constants", catalog, _template_constants)

    current = PlanNode(*_best_scan(query, tables[t.tables[0]], indexes, catalog))
    for i, join in enumerate(t.join_predicates):
        facts = tables[t.tables[i + 1]]
        max_distinct, lookup_distinct = joins[i]
        plain = _best_scan(query, facts, indexes, catalog)
        _, inner_startup, inner_exec, inner_rows = plain[:4]
        rows_out = current.est_rows * inner_rows / max_distinct
        hash_startup = inner_startup + inner_exec + CPU_OPERATOR_COST * inner_rows
        startup = current.startup_cost + hash_startup
        exec_cost = (
            current.exec_cost
            + CPU_OPERATOR_COST * current.est_rows
            + CPU_TUPLE_COST * rows_out
        )
        # a lookup access has no SeqScan option: any path found is an index's
        lookup = _best_scan(
            query, facts, indexes, catalog, (join.right.column, lookup_distinct)
        )
        if lookup is not None:
            _, lookup_startup, lookup_exec, _ = lookup[:4]
            nlj_startup = current.startup_cost + lookup_startup
            nlj_exec = (
                current.exec_cost
                + current.est_rows * lookup_exec
                + CPU_TUPLE_COST * rows_out
            )
            if nlj_startup + nlj_exec < startup + exec_cost:
                children = [current, PlanNode(*lookup)]
                current = PlanNode(
                    "NestedLoopJoin", nlj_startup, nlj_exec, rows_out, children=children
                )
                continue
        hash_node = PlanNode(
            "Hash", hash_startup, 0.0, inner_rows, children=[PlanNode(*plain)]
        )
        children = [current, hash_node]
        current = PlanNode("HashJoin", startup, exec_cost, rows_out, children=children)

    if t.group_by:
        groups = min(groups, current.est_rows)
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


def _kept(obj, name, catalog, derive):
    """``derive(obj, catalog)``, a value derived from the frozen ``obj`` and
    ``catalog``, kept on ``obj`` under ``name`` for the catalog object it was
    derived under, and derived again under any other."""
    memo = obj.__dict__.get(name)
    if memo is None or memo[0] is not catalog:
        memo = (catalog, derive(obj, catalog))
        object.__setattr__(obj, name, memo)
    return memo[1]


def _template_constants(template, catalog):
    """What planning any query of ``template`` takes from ``catalog`` alone:
    ({table: (its TableDef, SeqScan exec cost, index descent cost,
    referenced columns)}, [(larger distinct count of the join's two columns,
    distinct count of its lookup column) per join], the group-by column's
    distinct count as a float or None). `whatif_plan` keeps it on the
    template through `_kept`.
    """
    referenced = {}
    for ref in template._column_refs():
        referenced.setdefault(ref.table, set()).add(ref.column)
    tables = {}
    for name in template.tables:
        table = catalog.table(name)
        n_preds = sum(f.column.table == name for f in template.filter_specs)
        tables[name] = (
            table,
            SEQ_PAGE_COST * table.page_count
            + (CPU_TUPLE_COST + CPU_OPERATOR_COST * n_preds) * table.row_count,
            CPU_OPERATOR_COST * math.log2(max(table.row_count, 2.0)),
            frozenset(referenced.get(name, ())),
        )
    joins = []
    for join in template.join_predicates:
        d_left = catalog.column(*join.left).distinct_count
        d_right = catalog.column(*join.right).distinct_count
        joins.append((max(d_left, d_right), d_right))
    groups = None
    if template.group_by:
        groups = float(catalog.column(*template.group_by[0]).distinct_count)
    return tables, joins, groups


def _filter_selectivities(query, catalog) -> dict:
    """{table: selectivity of ``query``'s filters on it} under ``catalog``.
    `_best_scan` keeps it on the query through `_kept`."""
    by_table = query.predicates_by_table
    return {table: selectivity(preds, catalog) for table, preds in by_table.items()}


def _best_scan(query, facts, indexes, catalog, lookup=None):
    """The cheapest access path for one table, or with ``lookup``, a
    (lookup column, its distinct count) pair, its cheapest lookup path.

    ``facts`` are the table's `_template_constants` entry. The options are
    weighed on their costs alone, and the winner comes back as the
    `PlanNode` arguments (kind, startup cost, exec cost, rows, table, index,
    predicates), or None when there is no option.
    """
    table, seq_exec, descent, referenced = facts
    name = table.name
    preds = list(query.predicates_by_table.get(name, ()))
    sels = _kept(query, "_filter_selectivities", catalog, _filter_selectivities)
    out_rows = table.row_count * sels.get(name, 1.0)
    lookup_col = None
    best = best_total = None
    if lookup is None:
        best, best_total = ("SeqScan", 0.0, seq_exec, None), seq_exec
    else:
        lookup_col, lookup_distinct = lookup
        out_rows = out_rows / lookup_distinct

    for idx in indexes:
        if idx.table != name:
            continue
        matched = _matched_selectivity(idx, preds, catalog, lookup_col)
        if matched is None:
            continue
        heap_pages = matched * table.page_count
        cpu = (CPU_INDEX_TUPLE_COST + CPU_TUPLE_COST) * matched * table.row_count
        post_filter = CPU_OPERATOR_COST * len(preds) * matched * table.row_count
        kind = "IndexScan"
        page_cost = RANDOM_PAGE_COST * heap_pages
        if referenced.issubset(idx.key_columns):
            kind = "IndexOnlyScan"
            page_cost = INDEX_ONLY_PAGE_FACTOR * RANDOM_PAGE_COST * heap_pages
        exec_cost = page_cost + cpu + post_filter
        total = descent + exec_cost
        if best is None or total < best_total:
            best, best_total = (kind, descent, exec_cost, idx), total

    if best is None:
        return None
    kind, startup, exec_cost, idx = best
    return kind, startup, exec_cost, out_rows, name, idx, preds


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


def noise_streams(queries, indexes, ground_truth: GroundTruth, round_seed: int) -> list:
    """The noise stream `execute` draws from for each of ``queries`` under
    the index sequence ``indexes``, made together from one
    `seeding.seed_words` pass.

    A query's stream is keyed by the crc32 of its template id, the reprs of
    its literals and the sorted names of ``indexes``, joined by "|"; the
    names are sorted and joined once for all the queries."""
    config = "".join("|" + name for name in sorted(str(ix) for ix in indexes))
    texts = ("|".join([q.template.id, *map(repr, q.bound_literals)]) for q in queries)
    digests = (zlib.crc32((text + config).encode("utf-8")) for text in texts)
    keys = ((ground_truth.seed, round_seed, digest) for digest in digests)
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
