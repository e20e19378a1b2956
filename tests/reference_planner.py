"""The what-if planner and noise key as they stood before the planner built
only the plan it returns, kept as oracles for differential tests.

`whatif_plan` here builds every access option and both join alternatives
as nodes, compares the nodes' totals and drops the losers, and derives
every table constant (SeqScan cost, index descent, join and group-by
distinct counts), each table's filter selectivity and its referenced
columns afresh at each access. `query_digest` hashes one query
and its configuration, sorting the configuration's names for that query
alone. `idxlab.simulator` must agree with both float for float and byte for
byte.
"""

import math
import zlib

from idxlab.catalog import selectivity
from idxlab.plan import PlanNode
from idxlab.simulator import (
    CPU_INDEX_TUPLE_COST,
    CPU_OPERATOR_COST,
    CPU_TUPLE_COST,
    INDEX_ONLY_PAGE_FACTOR,
    RANDOM_PAGE_COST,
    SEQ_PAGE_COST,
    _matched_selectivity,
)


def whatif_plan(query, indexes, catalog):
    """(plan tree, root total cost) of ``query`` under ``indexes``."""
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
    filter_sel = selectivity(preds, catalog) if preds else 1.0
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

    refs = query.template._column_refs()
    referenced = {ref.column for ref in refs if ref.table == table_name}
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


def _join_rows(outer_rows, inner_rows, join, catalog) -> float:
    d_left = catalog.column(join.left.table, join.left.column).distinct_count
    d_right = catalog.column(join.right.table, join.right.column).distinct_count
    return outer_rows * inner_rows / max(d_left, d_right)


def query_digest(query, indexes) -> int:
    """The crc32 that keys ``query``'s noise stream under ``indexes``."""
    parts = [query.template.id]
    parts += [repr(v) for v in query.bound_literals]
    parts += sorted(str(ix) for ix in indexes)
    return zlib.crc32("|".join(parts).encode("utf-8"))
