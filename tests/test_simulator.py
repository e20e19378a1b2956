import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idxlab.catalog import CatalogSpec, IndexCandidate, generate_catalog
from idxlab.correction import telemetry_to_labels
from idxlab.costmodel import MULTIPLIER_GRID, nearest_bucket_index
from idxlab.errors import ConfigurationError
from idxlab.plan import LEAF_KINDS, PLAN_KINDS, PlanNode, leaves
from idxlab.selection import generate_candidates
from idxlab.simulator import (
    MULTIPLIER_HIGH,
    MULTIPLIER_LOW,
    TIME_UNIT_SECONDS,
    GroundTruth,
    execute,
    make_ground_truth,
    noise_streams,
    whatif_plan,
)
from idxlab.seeding import rng_for
from idxlab.workload import (
    DriftSchedule,
    MiniWorkload,
    bind_query,
    build_schedule,
    generate_templates,
)

from reference_planner import query_digest


@pytest.fixture(scope="module")
def env():
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=42)
    templates = generate_templates(catalog, 12, seed=1)
    sched = DriftSchedule("static", total_rounds=1, templates_per_round=12)
    workload = build_schedule(templates, sched, seed=2)[0]
    candidates = generate_candidates(workload, catalog)
    return catalog, workload, candidates


def test_empty_config_plans_seq_scans_only(env):
    catalog, workload, _ = env
    for q in workload.queries:
        plan, cost = whatif_plan(q, (), catalog)
        assert all(leaf.kind == "SeqScan" for leaf in leaves(plan))
        assert cost > 0


def test_useless_index_changes_nothing(env):
    catalog, workload, _ = env
    q = workload.queries[0]
    plan0, cost0 = whatif_plan(q, (), catalog)
    # an index on a column the query never filters or joins on is inapplicable
    referenced = {
        (f.column.table, f.column.column) for f in q.template.filter_specs
    }
    for j in q.template.join_predicates:
        referenced.add((j.left.table, j.left.column))
        referenced.add((j.right.table, j.right.column))
    unused = None
    for t in catalog.tables:
        for c in t.columns:
            if (t.name, c.name) not in referenced:
                unused = IndexCandidate(t.name, (c.name,), 1)
                break
        if unused:
            break
    planx, costx = whatif_plan(q, (unused,), catalog)
    assert costx == cost0
    assert [n.kind for n in planx.walk()] == [n.kind for n in plan0.walk()]


def test_config_never_increases_estimated_cost(env):
    catalog, workload, candidates = env
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = workload.queries[int(rng.integers(0, len(workload.queries)))]
        k = int(rng.integers(0, min(5, len(candidates)) + 1))
        config = [candidates[i] for i in rng.choice(len(candidates), k, replace=False)]
        _, cost0 = whatif_plan(q, (), catalog)
        _, costx = whatif_plan(q, config, catalog)
        assert costx <= cost0 + 1e-9


def test_plan_costs_positive_everywhere(env):
    catalog, workload, candidates = env
    for q in workload.queries:
        plan, _ = whatif_plan(q, candidates, catalog)
        for node in plan.walk():
            assert node.total_cost >= 0
            assert node.startup_cost >= 0 and node.exec_cost >= 0
        assert plan.total_cost > 0


def test_identity_execution_sums_exec_costs(env):
    catalog, workload, _ = env
    gt = make_ground_truth(catalog, 0, 0.0, choices={})
    q = workload.queries[0]
    telem = execute(q, (), gt, round_seed=1)
    expected = sum(n.exec_cost for n in telem.plan.walk()) * TIME_UNIT_SECONDS
    assert telem.total_time == pytest.approx(expected, rel=1e-12)
    assert telem.total_time == pytest.approx(
        sum(t for _, t in telem.per_operator), rel=1e-9
    )


def test_multiplier_scales_one_leaf(env):
    catalog, workload, candidates = env
    q = workload.queries[0]
    plan, _ = whatif_plan(q, candidates, catalog)
    target = leaves(plan)[0]
    gt1 = make_ground_truth(catalog, 0, 0.0, choices={})
    mult = dict(gt1.multipliers)
    mult[(target.kind, target.table)] = 2.0
    gt2 = type(gt1)(catalog, mult, 0.0, 0)
    t1 = execute(q, candidates, gt1, round_seed=5)
    t2 = execute(q, candidates, gt2, round_seed=5)
    for (n1, a), (n2, b) in zip(t1.per_operator, t2.per_operator):
        if n1.kind == target.kind and n1.table == target.table:
            assert b == pytest.approx(2 * a, rel=1e-12)


def test_execution_is_deterministic(env):
    catalog, workload, candidates = env
    gt = make_ground_truth(catalog, seed=9, noise_sigma=0.1)
    q = workload.queries[3]
    a = execute(q, candidates, gt, round_seed=77)
    b = execute(q, candidates, gt, round_seed=77)
    assert a.total_time == b.total_time
    assert [t for _, t in a.per_operator] == [t for _, t in b.per_operator]
    c = execute(q, candidates, gt, round_seed=78)
    assert c.total_time != a.total_time


def test_ground_truth_range_and_determinism(env):
    catalog, _, _ = env
    gt = make_ground_truth(catalog, seed=4, noise_sigma=0.0)
    for g in gt.multipliers.values():
        assert MULTIPLIER_LOW <= g <= MULTIPLIER_HIGH
    gt2 = make_ground_truth(catalog, seed=4, noise_sigma=0.0)
    assert gt.multipliers == gt2.multipliers


def test_ground_truth_median_near_one():
    # the log-uniform draws (scan kinds) are symmetric about 1 in log space
    catalog = generate_catalog(CatalogSpec(n_tables=1), seed=0)
    values = []
    for seed in range(10000 // 3):  # 3 scan kinds x 1 table per draw
        gt = make_ground_truth(catalog, seed=seed, noise_sigma=0.0)
        values.extend(
            g
            for (kind, _), g in gt.multipliers.items()
            if kind in ("SeqScan", "IndexScan", "IndexOnlyScan")
        )
    med = float(np.median(values))
    assert abs(med - 1.0) <= 0.3


def test_ground_truth_choices_and_validation(env):
    catalog, _, _ = env
    choices = dict.fromkeys(LEAF_KINDS, (0.5, 2.0, 5.0))
    gt = make_ground_truth(catalog, seed=1, noise_sigma=0.0, choices=choices)
    keys = {(kind, t.name) for kind in LEAF_KINDS for t in catalog.tables}
    assert set(gt.multipliers) == keys
    assert set(gt.multipliers.values()) <= {0.5, 2.0, 5.0}
    gt2 = make_ground_truth(
        catalog, seed=1, noise_sigma=0.0, choices={"IndexScan": (2.0,)}
    )
    assert set(gt2.multipliers) == keys
    assert gt2.multipliers[("IndexScan", catalog.tables[0].name)] == 2.0
    assert gt2.multipliers[("SeqScan", catalog.tables[0].name)] == 1.0
    with pytest.raises(ConfigurationError):
        make_ground_truth(catalog, seed=1, noise_sigma=-0.1)
    with pytest.raises(ConfigurationError, match="leaf kinds"):
        make_ground_truth(catalog, seed=1, noise_sigma=0.0, choices={"Hash": (2.0,)})


def subtree_table(node):
    """Table attributed to a node: its own, else the outermost leaf's."""
    if node.table is not None:
        return node.table
    return subtree_table(node.children[0])


def all_kinds_ground_truth(catalog, seed, noise_sigma, choices=None):
    """The ground truth of the earlier rule, kept as an oracle: one entry per
    (kind of `PLAN_KINDS`, table), drawn in that order, where only leaf kinds
    draw log-uniformly and every other kind holds 1.0 unless ``choices``
    maps it; the executor looked a node up under `subtree_table`."""
    rng = rng_for(seed, "ground-truth")
    multipliers = {}
    for kind in PLAN_KINDS:
        for table in catalog.tables:
            if choices is not None:
                opts = choices.get(kind)
                g = 1.0 if opts is None else float(rng.choice(list(opts)))
            elif kind in LEAF_KINDS:
                low, high = math.log(MULTIPLIER_LOW), math.log(MULTIPLIER_HIGH)
                g = math.exp(rng.uniform(low, high))
            else:
                g = 1.0
            multipliers[(kind, table.name)] = g
    return GroundTruth(catalog, multipliers, noise_sigma, seed)


@pytest.mark.parametrize(
    "choices",
    [None, {}, {"IndexScan": (2.0,)}, dict.fromkeys(LEAF_KINDS, (0.5, 2.0, 5.0))],
    ids=["drawn", "none", "one kind", "every leaf kind"],
)
def test_ground_truth_draws_the_leaf_entries_of_the_all_kinds_rule(env, choices):
    catalog, _, _ = env
    for seed in range(20):
        got = make_ground_truth(catalog, seed, 0.05, choices)
        want = all_kinds_ground_truth(catalog, seed, 0.05, choices)
        leaf = [(k, g) for k, g in want.multipliers.items() if k[0] in LEAF_KINDS]
        assert list(got.multipliers.items()) == leaf
        assert all(
            g == 1.0 for k, g in want.multipliers.items() if k[0] not in LEAF_KINDS
        )


def _two_node_case(leaf_cost, seq_cost, agg_cost, multiplier):
    """Aggregate over one scan; analytic effective multiplier equals g."""
    index = IndexCandidate("b", ("k",), 1)
    scan = PlanNode(
        "IndexScan", startup_cost=0.0, exec_cost=leaf_cost, est_rows=10.0,
        table="b", index=index,
    )
    root = PlanNode(
        "Aggregate",
        startup_cost=scan.total_cost,
        exec_cost=agg_cost,
        est_rows=5.0,
        children=[scan],
    )
    baseline_cost = seq_cost + agg_cost
    time_noindex = (agg_cost + seq_cost) * TIME_UNIT_SECONDS
    time_with = (agg_cost + multiplier * leaf_cost) * TIME_UNIT_SECONDS
    observed = 1.0 - time_with / time_noindex
    return root, index, observed, baseline_cost


def test_learnability_link_on_two_node_plans():
    # the grid multiplier minimizing |b_t - b_c'| equals the log-space nearest
    # bucket of the effective multiplier; here the effective multiplier is g
    off_grid = (0.33, 2.4, 4.2, 13.0)
    for g in list(MULTIPLIER_GRID[5:32:3]) + list(off_grid):
        root, index, observed, baseline = _two_node_case(40.0, 90.0, 7.0, float(g))
        labels = telemetry_to_labels(
            root, (index,), MULTIPLIER_GRID, observed, baseline
        )
        assert len(labels) == 1
        _, multiplier = labels[0]
        assert multiplier == MULTIPLIER_GRID[nearest_bucket_index(float(g))]


def test_telemetry_strictly_positive(env):
    catalog, workload, candidates = env
    gt = make_ground_truth(catalog, seed=21, noise_sigma=0.05)
    for q in workload.queries[:10]:
        telem = execute(q, candidates, gt, round_seed=3)
        assert telem.total_time > 0
        assert all(t >= 0 for _, t in telem.per_operator)


def reference_execute_times(query, indexes, gt, round_seed):
    """Per-operator times from one scalar noise draw per plan node, in
    `walk()` order, each node scaled by the `all_kinds_ground_truth` entry of
    its kind and `subtree_table`: the loop `execute`'s one vector draw per
    query and its leaf-only lookup replaced. Returns the times and the noise
    generator's state after the draws."""
    root, _ = whatif_plan(query, indexes, gt.catalog)
    oracle = all_kinds_ground_truth(gt.catalog, gt.seed, gt.noise_sigma)
    rng = rng_for(gt.seed, round_seed, query_digest(query, indexes))
    times = []
    for node in root.walk():
        noise = float(rng.lognormal(0.0, gt.noise_sigma))
        g = oracle.factor(node.kind, subtree_table(node))
        times.append(node.exec_cost * g * noise * TIME_UNIT_SECONDS)
    return times, rng.bit_generator.state


@st.composite
def execution_cases(draw):
    """A drawn catalog and ground truth, a query of one of its templates and
    an index sequence drawn from the templates' candidates."""
    spec = CatalogSpec(
        n_tables=draw(st.integers(1, 4)),
        string_column_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
    )
    catalog = generate_catalog(spec, seed=draw(st.integers(0, 2**16)))
    templates = generate_templates(catalog, 3, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    workload = MiniWorkload(0, tuple(bind_query(t, rng) for t in templates))
    query = draw(st.sampled_from(workload.queries))
    candidates = generate_candidates(workload, catalog)
    indexes = tuple(draw(st.lists(st.sampled_from(candidates), max_size=4)))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.7]))
    gt = make_ground_truth(catalog, draw(st.integers(0, 2**16)), sigma)
    return query, indexes, gt, draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(execution_cases())
def test_execute_equals_the_all_kinds_rule(case):
    query, indexes, gt, round_seed = case
    want, state = reference_execute_times(query, indexes, gt, round_seed)
    stream = noise_streams((query,), indexes, gt, round_seed)[0]
    telem = execute(query, indexes, gt, round_seed, stream=stream)
    assert [t for _, t in telem.per_operator] == want
    assert telem.total_time == sum(want)
    assert stream.bit_generator.state == state


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.7])
def test_vector_noise_equals_one_draw_per_node(env, sigma):
    catalog, workload, candidates = env
    gt = make_ground_truth(catalog, seed=13, noise_sigma=sigma)
    for i, q in enumerate(workload.queries):
        config = candidates[: i % 4]
        want, _ = reference_execute_times(q, config, gt, round_seed=i)
        telem = execute(q, config, gt, round_seed=i)
        assert [t for _, t in telem.per_operator] == want
        assert telem.total_time == sum(want)
    # the vector draw also leaves the generator where the scalar draws do
    for n in (1, 2, 6, 17):
        scalar, vector = rng_for(13, "noise", n), rng_for(13, "noise", n)
        draws = [float(scalar.lognormal(0.0, sigma)) for _ in range(n)]
        assert vector.lognormal(0.0, sigma, size=n).tolist() == draws
        assert vector.bit_generator.state == scalar.bit_generator.state


def telemetry_values(telemetry):
    """Everything a telemetry says, its plan's nodes by kind, table and cost
    (plans compare by identity)."""
    return telemetry.total_time, [
        (node.kind, node.table, node.index, node.exec_cost, t)
        for node, t in telemetry.per_operator
    ]


@pytest.mark.parametrize("width", [0, 1, 3])
def test_batch_made_noise_streams_execute_as_execute_does(env, width):
    catalog, workload, candidates = env
    gt = make_ground_truth(catalog, seed=13, noise_sigma=0.3)
    config = candidates[:width]
    queries = workload.queries
    streams = noise_streams(queries, config, gt, round_seed=5)
    assert len(streams) == len(queries)
    for q, stream in zip(queries, streams):
        # the stream a query's execution draws from, made on its own
        oracle = rng_for(gt.seed, 5, query_digest(q, config))
        want = telemetry_values(execute(q, config, gt, 5, stream=oracle))
        assert telemetry_values(execute(q, config, gt, 5, stream=stream)) == want
        assert telemetry_values(execute(q, config, gt, 5)) == want
