"""Properties of the what-if planner over drawn catalogs and queries.

The planner derives a query's bound predicates and filter selectivities once
and keeps them on the query, and a template's referenced and filter columns
and its table constants on the template. Planning through those values must
equal planning fresh copies that have none, against whichever catalog the
query is planned with. The planner weighs its options on their costs and
builds only the tree it returns; that tree must equal, node for node, the
one the earlier planner in `reference_planner` picks from fully built
alternatives.
"""

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from idxlab.catalog import (
    COMPARISON_OPS,
    NUMERIC,
    Catalog,
    CatalogSpec,
    ColumnDef,
    ColumnRef,
    TableDef,
    generate_catalog,
    selectivity,
    sized_candidate,
)
from idxlab.correction import correct_plan, leaf_encodings
from idxlab.costmodel import CostMultiplierModel
from idxlab.errors import ConfigurationError
from idxlab.plan import (
    LEAF_KINDS,
    PlanNode,
    Predicate,
    encode_operator,
    encoding_length,
    leaves,
)
from idxlab.selection import Gate, generate_candidates, round_context
from idxlab.simulator import index_applicable, make_ground_truth, whatif_plan
from idxlab.tuner import Environment
from idxlab.workload import (
    FilterSpec,
    JoinSpec,
    LiteralSampler,
    MiniWorkload,
    Query,
    QueryTemplate,
    bind_query,
    generate_templates,
)

import reference_planner

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def catalogs(draw, max_tables=4):
    low = draw(st.integers(1, 5000))
    spec = CatalogSpec(
        n_tables=draw(st.integers(1, max_tables)),
        rows_range=(low, draw(st.integers(low, 100000))),
        string_column_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    )
    return generate_catalog(spec, seed=draw(st.integers(0, 2**16)))


def literal(draw, column):
    """A literal for ``column``: inside its domain or far outside it."""
    if column.kind == NUMERIC:
        width = column.max_value - column.min_value + 1.0
        return draw(
            st.floats(column.min_value - 2 * width, column.max_value + 2 * width)
            | st.floats(allow_nan=False, allow_infinity=False)
        )
    return f"v{draw(st.integers(0, 2 * column.distinct_count))}"


@st.composite
def planning_cases(draw):
    """A catalog, a query with drawn literals, and 0-3 of the candidates
    generated from its template and the catalog's other drawn templates."""
    catalog = draw(catalogs())
    try:
        templates = generate_templates(catalog, 3, seed=draw(st.integers(0, 2**16)))
    except ConfigurationError:  # too few columns for three distinct templates
        assume(False)
    template = draw(st.sampled_from(templates))
    values = tuple(
        literal(draw, catalog.column(*f.column)) for f in template.filter_specs
    )
    query = Query(template, values, draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    workload = MiniWorkload(0, (query,) + tuple(bind_query(t, rng) for t in templates))
    candidates = generate_candidates(workload, catalog)
    config = tuple(
        draw(st.lists(st.sampled_from(candidates), max_size=3, unique=True))
    )
    return catalog, query, config


def restated(catalog):
    """The same tables and columns under other statistics."""
    tables = []
    for t in catalog.tables:
        columns = []
        for c in t.columns:
            changes = {"distinct_count": max(1, c.distinct_count // 3)}
            if c.kind == NUMERIC:
                changes.update(min_value=c.min_value - 1000.0, max_value=2 * c.max_value + 1)
            columns.append(dataclasses.replace(c, **changes))
        tables.append(
            dataclasses.replace(
                t,
                row_count=2 * t.row_count,
                page_count=3 * t.page_count,
                columns=tuple(columns),
            )
        )
    return Catalog(tuple(tables), catalog.seed + 1)


def fresh_copy(query):
    """The same query, with nothing derived from it yet."""
    template = dataclasses.replace(query.template)
    return Query(template, query.bound_literals, query.frequency_weight)


@SETTINGS
@given(planning_cases())
def test_planning_through_the_memo_equals_planning_fresh_copies(case):
    catalog, query, config = case
    other = restated(catalog)
    # the same query again and again, against alternating catalogs
    for current in (catalog, catalog, other, catalog, other, other):
        plan, cost = whatif_plan(query, config, current)
        want_plan, want_cost = whatif_plan(fresh_copy(query), config, current)
        assert dataclasses.asdict(plan) == dataclasses.asdict(want_plan)
        assert cost == want_cost
    for index in config:
        assert index_applicable(query.template, index) == index_applicable(
            fresh_copy(query).template, index
        )


@st.composite
def oracle_cases(draw):
    """A catalog of 1-5 tables, a query of each of three of its templates,
    each template with a drawn group-by and order-by, and the index sets to
    plan them under: none, each candidate alone, and up to 8 of the
    candidates together with two-column composites and lookup-only indexes
    (led by a join's lookup column)."""
    catalog = draw(catalogs(max_tables=5))
    try:
        templates = generate_templates(catalog, 3, seed=draw(st.integers(0, 2**16)))
    except ConfigurationError:  # too few columns for three distinct templates
        assume(False)
    queries, extras = [], []
    for template in templates:
        refs = [
            ColumnRef(t, c.name)
            for t in template.tables
            for c in catalog.table(t).columns
        ]
        template = dataclasses.replace(
            template,
            order_by=tuple(draw(st.lists(st.sampled_from(refs), max_size=1))),
            group_by=tuple(draw(st.lists(st.sampled_from(refs), max_size=1))),
        )
        values = tuple(
            literal(draw, catalog.column(*f.column)) for f in template.filter_specs
        )
        queries.append(Query(template, values))
        for table in template.tables:
            names = [c.name for c in catalog.table(table).columns]
            keys = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
            extras.append(sized_candidate(table, draw(keys), catalog))
        for join in template.join_predicates:
            table = catalog.table(join.right.table)
            others = [c.name for c in table.columns if c.name != join.right.column]
            keys = (join.right.column, draw(st.sampled_from(others)))
            extras.append(sized_candidate(join.right.table, keys, catalog))
    candidates = generate_candidates(MiniWorkload(0, tuple(queries)), catalog)
    together = draw(st.lists(st.sampled_from(candidates + extras), max_size=8))
    index_sets = [(), *((ix,) for ix in candidates + extras), tuple(together)]
    return catalog, queries, index_sets


def node_fields(plan):
    """Each node of ``plan`` in walk order, by every field but its children,
    which the order and the child counts pin."""
    return [
        (
            node.kind,
            node.startup_cost,
            node.exec_cost,
            node.est_rows,
            node.table,
            node.index,
            node.predicates,
            len(node.children),
        )
        for node in plan.walk()
    ]


@SETTINGS
@given(oracle_cases())
def test_the_planner_equals_the_planner_that_built_every_alternative(case):
    catalog, queries, index_sets = case
    other = restated(catalog)
    for current in (catalog, other, catalog):
        for query in queries:
            for indexes in index_sets:
                plan, cost = whatif_plan(query, indexes, current)
                want_plan, want_cost = reference_planner.whatif_plan(
                    query, indexes, current
                )
                assert cost == want_cost
                assert node_fields(plan) == node_fields(want_plan)


@SETTINGS
@given(oracle_cases())
def test_a_planner_call_builds_only_the_nodes_of_the_tree_it_returns(case):
    catalog, queries, index_sets = case
    built = []
    init = PlanNode.__init__

    def recording(node, *args, **kwargs):
        built.append(node)
        init(node, *args, **kwargs)

    PlanNode.__init__ = recording
    try:
        for query in queries:
            for indexes in index_sets:
                built.clear()
                plan, _ = whatif_plan(query, indexes, catalog)
                returned = list(plan.walk())
                assert len(built) == len(returned)
                assert {id(node) for node in built} == {id(node) for node in returned}
    finally:
        PlanNode.__init__ = init


def test_template_constants_follow_the_catalog_a_query_is_planned_against():
    # two catalogs with the same tables and columns, at other row and page
    # counts; the template keeps the constants of the last one only
    def catalog(rows, pages):
        left = TableDef("a", rows, pages, (ColumnDef("x", NUMERIC, 50, 0.0, 100.0),))
        right = TableDef(
            "b", 2 * rows, 3 * pages, (ColumnDef("y", NUMERIC, 40, 0.0, 100.0),)
        )
        return Catalog((left, right), 0)

    small, large = catalog(1000, 10), catalog(90000, 2000)
    template = QueryTemplate(
        "T",
        ("a", "b"),
        (JoinSpec(ColumnRef("a", "x"), ColumnRef("b", "y")),),
        (FilterSpec(ColumnRef("a", "x"), "<", LiteralSampler(NUMERIC, 0.0, 100.0)),),
        group_by=(ColumnRef("b", "y"),),
    )
    query = Query(template, (30.0,))
    indexes = (sized_candidate("b", ("y",), small), sized_candidate("a", ("x",), small))
    costs = {}
    for current in (small, large, large, small, large):
        plan, cost = whatif_plan(query, indexes, current)
        fresh = Query(dataclasses.replace(template), query.bound_literals)
        want_plan, want_cost = whatif_plan(fresh, indexes, current)
        assert cost == want_cost
        assert node_fields(plan) == node_fields(want_plan)
        assert node_fields(plan) == node_fields(
            reference_planner.whatif_plan(query, indexes, current)[0]
        )
        costs[id(current)] = cost
    assert costs[id(small)] != costs[id(large)]


@SETTINGS
@given(planning_cases())
def test_leaves_with_one_kind_table_and_index_encode_alike(case):
    # a round encodes each (kind, table, index) of a query once, and every
    # plan of the query with such a leaf takes that encoding
    catalog, query, config = case
    known = {}
    for indexes in [(), config, *((ix,) for ix in config)]:
        plan, _ = whatif_plan(query, indexes, catalog)
        for leaf, encoding in leaf_encodings(plan, catalog, known):
            assert (encoding == encode_operator(leaf, catalog)).all()


@SETTINGS
@given(
    planning_cases(),
    st.sampled_from([0.0, 0.5, math.inf]),
    st.integers(0, 2**16),
    st.lists(st.integers(2, 5), min_size=1, max_size=3),
)
def test_corrected_baseline_of_the_environment_plan_equals_a_fresh_plan(
    case, threshold, seed, weights
):
    catalog, query, _ = case
    models = {}
    for i, kind in enumerate(LEAF_KINDS):
        models[kind] = CostMultiplierModel(encoding_length(catalog), seed=seed + i)
    bare, _ = whatif_plan(query, (), catalog)
    # a few labels, so that the models predict multipliers other than 1
    for leaf in leaves(bare):
        models[leaf.kind].update([(encode_operator(leaf, catalog), seed % 37)])
    # the query twice, then other literals of its template at weights above 1
    rng = np.random.default_rng(seed)
    others = tuple(bind_query(query.template, rng, w) for w in weights)
    workload = MiniWorkload(0, (query, query) + others)
    env = Environment(make_ground_truth(catalog, seed), seed)
    plans = [b.plan for b in env.calibration.calibrate(workload.queries)]
    shared = [dataclasses.asdict(plan) for plan in plans]
    gate = Gate(catalog, models, threshold, 0.5, 5)
    ctx = round_context(workload, (), gate, plans)
    # each query's corrected no-index term, as candidate valuation takes it
    assert len(ctx.noindex_terms) == len(workload.queries)
    total = 0.0
    for q, term in zip(workload.queries, ctx.noindex_terms):
        fresh, cost = whatif_plan(q, (), catalog)
        want = correct_plan(fresh, models, catalog, threshold, 0.5, 5)
        assert term == q.frequency_weight * want.corrected_cost
        total += q.frequency_weight * cost
    assert ctx.noindex_total == total
    # the environment's plans are corrected through copies only
    plans = [b.plan for b in env.calibration.calibrate(workload.queries)]
    assert [dataclasses.asdict(plan) for plan in plans] == shared


@st.composite
def conjunctions(draw):
    """A catalog and a conjunction of predicates on its columns, with
    out-of-domain literals and two-sided ranges among them."""
    catalog = draw(catalogs())
    preds = []
    for _ in range(draw(st.integers(1, 6))):
        table = draw(st.sampled_from(catalog.tables))
        column = draw(st.sampled_from(table.columns))
        ref = (table.name, column.name)
        if column.kind != NUMERIC:
            op = draw(st.sampled_from(["=", "!="]))
            preds.append(Predicate(ref, op, literal(draw, column)))
        elif draw(st.booleans()):
            low, high = sorted([literal(draw, column), literal(draw, column)])
            preds.append(Predicate(ref, draw(st.sampled_from([">", ">="])), low))
            preds.append(Predicate(ref, draw(st.sampled_from(["<", "<="])), high))
        else:
            op = draw(st.sampled_from(COMPARISON_OPS))
            preds.append(Predicate(ref, op, literal(draw, column)))
    return catalog, preds


@settings(max_examples=300, deadline=None)
@given(conjunctions())
def test_selectivity_lies_in_the_unit_interval(case):
    catalog, preds = case
    assert 0.0 <= selectivity(preds, catalog) <= 1.0
    for p in preds:
        assert 0.0 <= selectivity((p,), catalog) <= 1.0


@SETTINGS
@given(planning_cases())
def test_every_planner_node_encodes_to_a_fixed_length_in_the_unit_interval(case):
    catalog, query, config = case
    plan, _ = whatif_plan(query, config, catalog)
    for node in plan.walk():
        vec = encode_operator(node, catalog)
        assert vec.shape == (encoding_length(catalog),)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
