import math
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idxlab.catalog import CatalogSpec, IndexCandidate, generate_catalog
from idxlab.correction import (
    _corrected_totals,
    actual_benefit,
    config_related_leaves,
    correct_plan,
    estimated_benefit,
    telemetry_to_labels,
    update_cost,
)
from idxlab.costmodel import MULTIPLIER_GRID, CostMultiplierModel, nearest_bucket_index
from idxlab.errors import ConfigurationError, ContractError
from idxlab.plan import PlanNode, encode_operator, encoding_length, leaves
from idxlab.selection import generate_candidates
from idxlab.simulator import execute, make_ground_truth, whatif_plan
from idxlab.workload import DriftSchedule, build_schedule, generate_templates

from conftest import nlj_example_plan


# --- independent oracle: recompute internal costs from scratch --------------

def _recombine(node, new_children):
    """Absolute reaggregation mirroring the delta table's semantics."""
    kind = node.kind
    olds = node.children
    if kind == "NestedLoopJoin":
        own_s = node.startup_cost - sum(c.startup_cost for c in olds)
        own_e = (
            node.exec_cost
            - olds[0].exec_cost
            - olds[0].est_rows * olds[1].exec_cost
        )
        s = own_s + sum(c.startup_cost for c in new_children)
        e = (
            own_e
            + new_children[0].exec_cost
            + olds[0].est_rows * new_children[1].exec_cost
        )
    elif kind == "Limit":
        ratio = node.est_rows / olds[0].est_rows if olds[0].est_rows > 0 else 0.0
        own_s = node.startup_cost - olds[0].startup_cost
        own_e = node.exec_cost - ratio * olds[0].exec_cost
        s = own_s + new_children[0].startup_cost
        e = own_e + ratio * new_children[0].exec_cost
    elif kind in ("Hash", "Sort", "Aggregate", "Gather"):
        own_s = node.startup_cost - olds[0].startup_cost - olds[0].exec_cost
        s = own_s + new_children[0].startup_cost + new_children[0].exec_cost
        e = node.exec_cost
    elif kind in ("HashJoin", "GatherMerge"):
        own_s = node.startup_cost - sum(c.startup_cost for c in olds)
        own_e = node.exec_cost - olds[0].exec_cost
        s = own_s + sum(c.startup_cost for c in new_children)
        e = own_e + new_children[0].exec_cost
    else:
        raise AssertionError(kind)
    out = PlanNode(kind, s, e, node.est_rows, node.table, node.index,
                   list(node.predicates), new_children)
    return out


def oracle_corrected_cost(plan, leaf_position, multiplier):
    """Root total after scaling one leaf, rebuilt bottom-up from absolutes."""
    counter = [0]

    def rebuild(node):
        if node.is_leaf:
            scaled = node.clone()
            if counter[0] == leaf_position:
                scaled.exec_cost = multiplier * scaled.exec_cost
            counter[0] += 1
            return scaled
        return _recombine(node, [rebuild(c) for c in node.children])

    return rebuild(plan).total_cost


def oracle_labels(plan, config_indexes, grid, observed, baseline):
    all_leaves = leaves(plan)
    related = config_related_leaves(plan, config_indexes)
    out = []
    for pos, leaf in enumerate(all_leaves):
        if not any(leaf is r for r in related):
            continue
        base_b = 1.0 - plan.total_cost / baseline
        best_key, best = (abs(observed - base_b), 0.0), 1.0
        for multiplier in grid:
            b = 1.0 - oracle_corrected_cost(plan, pos, float(multiplier)) / baseline
            key = (abs(observed - b), abs(math.log(multiplier)))
            if key < best_key:
                best_key, best = key, float(multiplier)
        out.append((leaf, best))
    return out


# --- propagation -------------------------------------------------------------

def test_example_propagation_is_exact():
    root, outer, inner = nlj_example_plan()
    ledger = update_cost(root, inner, 2.0)
    assert inner.exec_cost == 2.70
    assert ledger.delta_for(inner) == (0.0, 1.35)
    assert root.exec_cost == 181087.0
    assert ledger.delta_for(root) == (0.0, 67500.0)


def test_identity_multiplier_changes_nothing():
    root, outer, inner = nlj_example_plan()
    before = asdict(root)
    ledger = update_cost(root, inner, 1.0)
    assert asdict(root) == before
    assert all(d == (0.0, 0.0) for d in
               (ledger.delta_for(n) for n in root.walk()))


def limit_plan():
    leaf = PlanNode("SeqScan", exec_cost=50.0, est_rows=100.0, table="a")
    limit = PlanNode("Limit", startup_cost=0.0, exec_cost=5.0, est_rows=10.0,
                     children=[leaf])
    return limit, leaf


def sort_plan():
    leaf = PlanNode("IndexScan", exec_cost=8.0, est_rows=10.0, table="a",
                    index=IndexCandidate("a", ("k",), 1))
    sort = PlanNode("Sort", startup_cost=8.0, exec_cost=1.0, est_rows=10.0,
                    children=[leaf])
    return sort, leaf


def gather_merge_plan():
    leaf = PlanNode("SeqScan", exec_cost=6.0, est_rows=10.0, table="a")
    gm = PlanNode("GatherMerge", startup_cost=1.0, exec_cost=6.5, est_rows=10.0,
                  children=[leaf])
    return gm, leaf


def test_limit_rule():
    limit, leaf = limit_plan()
    ledger = update_cost(limit, leaf, 2.0)
    assert ledger.delta_for(leaf) == (0.0, 50.0)
    assert ledger.delta_for(limit) == (0.0, 5.0)
    assert limit.exec_cost == 10.0


def test_passthrough_moves_exec_delta_to_startup():
    sort, leaf = sort_plan()
    update_cost(sort, leaf, 3.0)
    assert leaf.exec_cost == 24.0
    assert sort.startup_cost == 24.0
    assert sort.exec_cost == 1.0


def test_gather_merge_uses_probe_delta():
    gm, leaf = gather_merge_plan()
    ledger = update_cost(gm, leaf, 2.0)
    assert ledger.delta_for(gm) == (0.0, 6.0)
    assert gm.exec_cost == 12.5


def test_update_cost_preconditions():
    root, outer, inner = nlj_example_plan()
    with pytest.raises(ValueError):
        update_cost(root, inner, 0.0)
    with pytest.raises(ValueError):
        update_cost(root, inner, -2.0)
    with pytest.raises(ValueError):
        update_cost(root, root, 2.0)


def _simulator_plans(n=30, with_config=True, seed=0):
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=11)
    templates = generate_templates(catalog, 12, seed=11)
    sched = DriftSchedule("static", total_rounds=1, templates_per_round=12)
    workload = build_schedule(templates, sched, seed=11)[0]
    candidates = generate_candidates(workload, catalog)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = workload.queries[int(rng.integers(0, len(workload.queries)))]
        k = int(rng.integers(1, min(5, len(candidates)) + 1)) if with_config else 0
        config = tuple(
            candidates[i] for i in rng.choice(len(candidates), k, replace=False)
        )
        plan, cost = whatif_plan(q, config, catalog)
        out.append((catalog, q, config, plan, cost))
    return out


def test_propagation_linearity():
    for catalog, q, config, plan, cost in _simulator_plans(10):
        for pos in range(len(leaves(plan))):
            a, b = 3.0, 0.2
            pa = plan.clone()
            la = update_cost(pa, leaves(pa)[pos], a)
            pb = plan.clone()
            lb = update_cost(pb, leaves(pb)[pos], b)
            da = sum(la.delta_for(pa))
            db = sum(lb.delta_for(pb))
            assert da / (a - 1.0) == pytest.approx(db / (b - 1.0), rel=1e-9)


def test_root_delta_consistency():
    for catalog, q, config, plan, cost in _simulator_plans(10):
        copy = plan.clone()
        dcs = dce = 0.0  # the root deltas of every call, summed
        for pos, multiplier in enumerate((2.0, 0.5, 7.0)):
            if pos >= len(leaves(copy)):
                break
            root = update_cost(copy, leaves(copy)[pos], multiplier).delta_for(copy)
            dcs, dce = dcs + root[0], dce + root[1]
        assert copy.total_cost == pytest.approx(cost + dcs + dce, rel=1e-9)


def test_corrected_costs_stay_nonnegative():
    for catalog, q, config, plan, cost in _simulator_plans(15):
        for pos in range(len(leaves(plan))):
            for multiplier in MULTIPLIER_GRID:
                copy = plan.clone()
                update_cost(copy, leaves(copy)[pos], float(multiplier))
                for node in copy.walk():
                    assert node.startup_cost >= 0.0
                    assert node.exec_cost >= -1e-9


def test_delta_matches_recompute_oracle():
    for catalog, q, config, plan, cost in _simulator_plans(15):
        for pos in range(len(leaves(plan))):
            for multiplier in (0.01, 0.4, 2.0, 30.0):
                copy = plan.clone()
                update_cost(copy, leaves(copy)[pos], multiplier)
                assert copy.total_cost == pytest.approx(
                    oracle_corrected_cost(plan, pos, multiplier), rel=1e-12
                )


# --- gated correction --------------------------------------------------------

def _trained_models(catalog, confident=True):
    dim = encoding_length(catalog)
    models = {}
    for seed, kind in enumerate(("SeqScan", "IndexScan", "IndexOnlyScan")):
        m = CostMultiplierModel(input_dim=dim, seed=seed)
        if confident:
            m.params["b3"][:] = 0.0
            m.params["b3"][nearest_bucket_index(2.0)] = 800.0
        models[kind] = m
    return models


def test_gate_blocks_all_when_threshold_zero():
    (catalog, q, config, plan, cost), = _simulator_plans(1)
    models = _trained_models(catalog, confident=False)  # uniform, high entropy
    corrected = correct_plan(plan.clone(), models, catalog, 0.0, 0.5, 10)
    assert corrected.corrected_cost == cost


def test_gate_threshold_monotonicity():
    for catalog, q, config, plan, cost in _simulator_plans(8, seed=3):
        models = _trained_models(catalog, confident=False)
        # nudge models with a few labels so uncertainties spread out
        rng = np.random.default_rng(1)
        for kind, m in models.items():
            n = int(rng.integers(4, 40))
            m.update([(rng.random(m.input_dim), 19) for _ in range(n)])
        cache = {}
        counts = []
        for rho in (math.inf, 0.5, 0.1, 0.05, 0.0):
            result = correct_plan(
                plan.clone(), models, catalog, rho, 0.5, 10, cache
            )
            counts.append(result.corrected_leaf_count)
        assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("threshold", [math.nan, -0.1])
def test_gate_rejects_nan_and_negative_threshold(threshold):
    (catalog, q, config, plan, cost), = _simulator_plans(1)
    models = _trained_models(catalog, confident=True)
    with pytest.raises(ConfigurationError, match="threshold"):
        correct_plan(plan.clone(), models, catalog, threshold, 0.5, 10)


def test_a_leaf_kind_without_a_model_raises_a_key_error_naming_it():
    (catalog, q, config, plan, cost), = _simulator_plans(1)
    models = _trained_models(catalog, confident=True)
    kind = leaves(plan)[0].kind
    del models[kind]
    with pytest.raises(KeyError, match=kind):
        correct_plan(plan, models, catalog, math.inf, 0.5, 10)


def test_unbounded_threshold_corrects_every_leaf():
    (catalog, q, config, plan, cost), = _simulator_plans(1, seed=5)
    models = _trained_models(catalog, confident=True)
    result = correct_plan(plan.clone(), models, catalog, math.inf, 0.5, 10)
    assert result.corrected_leaf_count == len(leaves(plan))
    # equals a sequential composition of update_cost with the same multipliers
    manual = plan.clone()
    for pos, report in enumerate(result.reports):
        update_cost(manual, leaves(manual)[pos], report.multiplier)
    assert result.corrected_cost == manual.total_cost


@lru_cache(maxsize=None)
def gate_cases():
    """Simulator plans with two or more leaves, their catalog, and models
    with random output weights, so that gate scores spread out over the
    leaves and the predicted multipliers differ from 1."""
    cases = [c for c in _simulator_plans(200, seed=12) if len(leaves(c[3])) > 1]
    catalog = cases[0][0]
    rng = np.random.default_rng(4)
    models = {}
    for seed, kind in enumerate(("SeqScan", "IndexScan", "IndexOnlyScan")):
        m = CostMultiplierModel(input_dim=encoding_length(catalog), seed=seed)
        m.params["W3"][...] = rng.normal(0.0, 1.0, m.params["W3"].shape)
        models[kind] = m
    return catalog, models, tuple(plan for _, _, _, plan, _ in cases)


gate_plans = st.deferred(lambda: st.sampled_from(gate_cases()[2]))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_plans, st.one_of(st.floats(min_value=0.0, max_value=2.0), st.just(math.inf)))
def test_correct_plan_leaves_the_plan_and_equals_update_cost_on_a_clone(
    plan, threshold
):
    catalog, models, _ = gate_cases()
    before = [(node.startup_cost, node.exec_cost) for node in plan.walk()]
    result = correct_plan(plan, models, catalog, threshold, 0.5, 10)
    assert [(node.startup_cost, node.exec_cost) for node in plan.walk()] == before
    # update_cost on a clone, once per corrected leaf in report order, at
    # the argmax multiplier of the leaf's own dropout-off prediction
    manual = plan.clone()
    for pos, report in enumerate(result.reports):
        leaf = leaves(plan)[pos]
        assert report.leaf is leaf
        assert (report.multiplier is None) == (report.score.combined > threshold)
        if report.multiplier is not None:
            probs = models[leaf.kind].predict(encode_operator(leaf, catalog))
            want = float(MULTIPLIER_GRID[int(np.argmax(probs))])
            update_cost(manual, leaves(manual)[pos], want)
    assert result.corrected_cost == manual.total_cost


def test_gate_cases_correct_some_leaves_of_every_plan_and_not_others():
    catalog, models, plans = gate_cases()
    scores = [
        report.score.combined
        for plan in plans
        for report in correct_plan(plan, models, catalog, 0.0, 0.5, 10).reports
    ]
    threshold = float(np.median(scores))
    for plan in plans:
        applied = [
            report.multiplier
            for report in correct_plan(plan, models, catalog, threshold, 0.5, 10).reports
        ]
        assert None in applied
        assert any(m is not None and m != 1.0 for m in applied)


def test_example_gate_only_low_uncertainty_leaf_corrected():
    # one leaf's model is uncertain, the other's is confident at 2.0x; with
    # threshold 0.1 only the confident index scan is corrected
    from idxlab.catalog import Catalog, ColumnDef, TableDef

    catalog = Catalog(
        tables=(
            TableDef("a", 50000, 100, (ColumnDef("x", "numeric", 10, 0.0, 1.0, 8),)),
            TableDef("b", 1000, 10, (ColumnDef("k", "numeric", 10, 0.0, 1.0, 8),)),
        ),
        seed=0,
    )
    root, outer, inner = nlj_example_plan()
    dim = encoding_length(catalog)
    seq_model = CostMultiplierModel(input_dim=dim, seed=1)  # uniform: U ~ 1.8
    idx_model = CostMultiplierModel(input_dim=dim, seed=2)
    idx_model.params["b3"][:] = 0.0
    idx_model.params["b3"][nearest_bucket_index(2.0)] = 800.0  # one-hot at 2.0
    models = {"SeqScan": seq_model, "IndexScan": idx_model}
    result = correct_plan(root, models, catalog, 0.1, 0.5, 10)
    assert [r.multiplier for r in result.reports] == [None, 2.0]
    # the corrected root execution cost, with the plan itself left as it was
    assert result.corrected_cost == root.startup_cost + 181087.0
    assert inner.exec_cost == 1.35


# --- benefits ----------------------------------------------------------------

def test_estimated_benefit_values():
    assert estimated_benefit(100.0, 100.0) == 0.0
    assert estimated_benefit(100.0, 50.0) == 0.5
    assert estimated_benefit(100.0, 200.0) == -1.0
    with pytest.raises(ContractError):
        estimated_benefit(0.0, 10.0)


def test_actual_benefit_values():
    assert actual_benefit(10.0, 5.0) == 0.5
    assert actual_benefit(10.0, 10.0) == 0.0
    assert actual_benefit(10.0, 29.0) == pytest.approx(-1.9)
    with pytest.raises(ContractError):
        actual_benefit(0.0, 1.0)


# --- telemetry labeling ------------------------------------------------------

def test_labels_identity_when_estimate_already_matches():
    root, outer, inner = nlj_example_plan()
    baseline = 130000.0
    observed = 1.0 - root.total_cost / baseline
    labels = telemetry_to_labels(
        root, (inner.index,), MULTIPLIER_GRID, observed, baseline
    )
    # only the index leaf is config-related (the seq scan is on another table)
    assert labels == [(inner, 1.0)]
    # a seq scan on a table that does carry a configured index is related too
    related = config_related_leaves(
        root, (inner.index, IndexCandidate("a", ("x",), 1))
    )
    assert related == [outer, inner]


def test_labels_recover_known_leaf_multiplier():
    root, outer, inner = nlj_example_plan()
    baseline = 130000.0
    doubled = root.clone()
    update_cost(doubled, leaves(doubled)[1], 2.0)
    observed = 1.0 - doubled.total_cost / baseline
    labels = telemetry_to_labels(
        root, (inner.index,), MULTIPLIER_GRID, observed, baseline
    )
    by_leaf = {leaf: multiplier for leaf, multiplier in labels}
    assert by_leaf[inner] == 2.0


def test_labels_empty_without_config_leaves():
    root, outer, inner = nlj_example_plan()
    assert telemetry_to_labels(root, (), MULTIPLIER_GRID, 0.3, 1000.0) == []
    with pytest.raises(ValueError):
        telemetry_to_labels(root, (), MULTIPLIER_GRID, math.nan, 1000.0)


def test_labels_match_exhaustive_oracle_on_simulator_plans():
    catalog0 = None
    cases = _simulator_plans(50, seed=9)
    gt = make_ground_truth(cases[0][0], seed=31, noise_sigma=0.1)
    checked = 0
    for catalog, q, config, plan, cost in cases:
        telem = execute(q, config, gt, round_seed=7)
        _, baseline_cost = whatif_plan(q, (), catalog)
        base = execute(q, (), gt, round_seed=1)
        observed = actual_benefit(base.total_time, telem.total_time)
        got = telemetry_to_labels(
            plan, config, MULTIPLIER_GRID, observed, baseline_cost
        )
        want = oracle_labels(plan, config, MULTIPLIER_GRID, observed, baseline_cost)
        assert [(id(l), w) for l, w in got] == [(id(l), w) for l, w in want]
        checked += len(got)
    assert checked > 0


# --- grid label search: one vector pass equals a clone per multiplier ---------

def clone_reference_labels(plan, config_indexes, grid, observed_benefit, baseline_cost):
    """The label search the vector kernel replaced: per config-related leaf,
    `update_cost` on a fresh clone of the plan for every grid multiplier."""
    all_leaves = leaves(plan)
    related = config_related_leaves(plan, config_indexes)
    positions = [
        i for i, leaf in enumerate(all_leaves) if any(leaf is r for r in related)
    ]
    labels = []
    base_benefit = 1.0 - plan.total_cost / baseline_cost
    for pos in positions:
        best_key = (abs(observed_benefit - base_benefit), 0.0)
        best_multiplier = 1.0
        for multiplier in grid:
            copy = plan.clone()
            update_cost(copy, leaves(copy)[pos], float(multiplier))
            benefit = 1.0 - copy.total_cost / baseline_cost
            key = (abs(observed_benefit - benefit), abs(math.log(multiplier)))
            if key < best_key:
                best_key = key
                best_multiplier = float(multiplier)
        labels.append((all_leaves[pos], best_multiplier))
    return labels


def bare_build_leaf_plan():
    """A hash join whose build side is a bare leaf: that leaf's delta never
    reaches the root."""
    probe = PlanNode("SeqScan", exec_cost=40.0, est_rows=100.0, table="a")
    build = PlanNode("IndexScan", exec_cost=3.0, est_rows=5.0, table="b",
                     index=IndexCandidate("b", ("k",), 1))
    join = PlanNode("HashJoin", startup_cost=3.0, exec_cost=45.0, est_rows=100.0,
                    children=[probe, build])
    return join, probe


@lru_cache(maxsize=None)
def exactness_cases():
    """(plan, config) pairs: planner plans under the configuration they were
    planned with, then the hand-built plans under one index per leaf table."""
    cases = [(plan, config) for _, _, config, plan, _ in _simulator_plans(30, seed=4)]
    for build in (nlj_example_plan, limit_plan, sort_plan, gather_merge_plan,
                  bare_build_leaf_plan):
        plan = build()[0]
        config = tuple(dict.fromkeys(
            leaf.index or IndexCandidate(leaf.table, ("k",), 1)
            for leaf in leaves(plan)
        ))
        cases.append((plan, config))
    return tuple(cases)


GRID = np.asarray(MULTIPLIER_GRID, dtype=float)
plan_cases = st.deferred(lambda: st.sampled_from(exactness_cases()))
multipliers = st.floats(min_value=1e-3, max_value=1e3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plan_cases, st.lists(multipliers, max_size=8))
def test_vector_totals_equal_update_cost_on_clones(case, extra):
    plan, _ = case
    grid = np.concatenate([GRID, extra])
    for pos, leaf in enumerate(leaves(plan)):
        totals = _corrected_totals(plan, leaf, grid)
        for multiplier, total in zip(grid.tolist(), totals.tolist()):
            copy = plan.clone()
            update_cost(copy, leaves(copy)[pos], multiplier)
            assert total == copy.total_cost, (pos, multiplier)


simulator_plans = st.deferred(
    lambda: st.sampled_from([plan for _, _, _, plan, _ in _simulator_plans(30, seed=6)])
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(simulator_plans, st.data(), st.lists(multipliers, min_size=1, max_size=8))
def test_corrected_totals_are_affine_in_the_leaf_multiplier(plan, data, extra):
    # the slope comes from one update_cost on a clone, at multiplier 2
    pos = data.draw(st.sampled_from(range(len(leaves(plan)))))
    copy = plan.clone()
    update_cost(copy, leaves(copy)[pos], 2.0)
    slope = copy.total_cost - plan.total_cost
    grid = np.concatenate([GRID, extra])
    totals = _corrected_totals(plan, leaves(plan)[pos], grid)
    for multiplier, total in zip(grid.tolist(), totals.tolist()):
        want = plan.total_cost + (multiplier - 1.0) * slope
        assert total == pytest.approx(want, rel=1e-9), (pos, multiplier)


@st.composite
def label_search_case(draw):
    """A plan, a sub-configuration, a baseline cost and an observed benefit;
    the benefit is drawn freely or set to one grid value's reference benefit
    so that exact ties come up."""
    plan, config = draw(plan_cases)
    config = tuple(draw(st.lists(st.sampled_from(config), unique=True)))
    baseline = plan.total_cost * draw(st.floats(min_value=0.1, max_value=10.0))
    if draw(st.booleans()):
        pos = draw(st.sampled_from(range(len(leaves(plan)))))
        multiplier = draw(st.sampled_from(GRID.tolist()))
        copy = plan.clone()
        update_cost(copy, leaves(copy)[pos], multiplier)
        observed = 1.0 - copy.total_cost / baseline
    else:
        observed = draw(st.floats(min_value=-10.0, max_value=1.0))
    return plan, config, baseline, observed


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(label_search_case())
def test_label_search_equals_clone_reference(case):
    plan, config, baseline, observed = case
    got = telemetry_to_labels(plan, config, MULTIPLIER_GRID, observed, baseline)
    assert got == clone_reference_labels(
        plan, config, MULTIPLIER_GRID, observed, baseline
    )


def test_label_search_rejects_nonpositive_grid_value():
    root, outer, inner = nlj_example_plan()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            telemetry_to_labels(root, (inner.index,), [0.5, bad, 2.0], 0.1, 1e6)
