"""Candidate valuation skips pricing that cannot change a plan; the results
must equal, bit for bit, a loop that prices every (candidate, query) pair."""

import copy
import gc
import math
import weakref
from dataclasses import asdict, fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from idxlab.catalog import CatalogSpec, generate_catalog, sized_candidate
from idxlab.correction import correct_plan
from idxlab.costmodel import combined_uncertainties
from idxlab.plan import Predicate, encode_operator, leaves
from idxlab.selection import (
    Gate,
    IndexValuation,
    applicability,
    candidate_valuation,
    generate_candidates,
    noindex_total,
    round_context,
    total_value,
    whatif_pricing,
)
from idxlab.simulator import (
    _matched_selectivity,
    index_applicable,
    make_ground_truth,
    whatif_plan,
)
from idxlab.tuner import Calibration, OnlineTuner, TunerParams
from idxlab.workload import (
    DriftSchedule,
    MiniWorkload,
    bind_query,
    build_schedule,
    generate_templates,
)

from conftest import applicable_pairs


@lru_cache(maxsize=None)
def catalog_and_templates(catalog_seed):
    catalog = generate_catalog(CatalogSpec(n_tables=5), seed=catalog_seed)
    return catalog, tuple(generate_templates(catalog, 8, seed=catalog_seed))


@st.composite
def query_and_table(draw, inside):
    """A bound query plus a table inside (or outside) the query's tables."""
    catalog, templates = catalog_and_templates(draw(st.integers(0, 5)))
    template = draw(st.sampled_from(templates))
    query = bind_query(template, np.random.default_rng(draw(st.integers(0, 10**6))))
    tables = [
        t for t in catalog.tables if (t.name in template.tables) == inside
    ]
    assume(tables)
    table = draw(st.sampled_from(tables))
    names = [c.name for c in table.columns]
    columns = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    return catalog, query, sized_candidate(table.name, tuple(columns), catalog)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query_and_table(inside=False))
def test_index_off_the_query_leaves_plan_unchanged(case):
    catalog, query, candidate = case
    plan, cost = whatif_plan(query, (candidate,), catalog)
    bare, bare_cost = whatif_plan(query, (), catalog)
    assert asdict(plan) == asdict(bare)
    assert cost == bare_cost


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query_and_table(inside=True))
def test_plan_without_index_leaf_is_the_no_index_plan(case):
    catalog, query, candidate = case
    plan, cost = whatif_plan(query, (candidate,), catalog)
    assume(all(leaf.index is None for leaf in leaves(plan)))
    bare, bare_cost = whatif_plan(query, (), catalog)
    assert asdict(plan) == asdict(bare)
    assert cost == bare_cost


@st.composite
def query_and_candidates(draw):
    """A bound query plus the candidates generated from its template and up to
    three other templates of the same catalog."""
    catalog, templates = catalog_and_templates(draw(st.integers(0, 5)))
    chosen = draw(
        st.lists(
            st.sampled_from(templates), min_size=1, max_size=4, unique_by=lambda t: t.id
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    queries = tuple(bind_query(t, rng) for t in chosen)
    return catalog, queries[0], generate_candidates(MiniWorkload(0, queries), catalog)


def offered(catalog, query, index):
    """Whether the planner offers ``index`` to one of the query's table
    accesses or join lookups: the test `_best_scan` applies to each."""
    t = query.template
    preds = [
        Predicate(spec.column, spec.op, literal)
        for spec, literal in zip(t.filter_specs, query.bound_literals)
        if spec.column.table == index.table
    ]
    accesses = [(table, None) for table in t.tables]
    accesses += [
        (t.tables[i + 1], j.right.column) for i, j in enumerate(t.join_predicates)
    ]
    return any(
        table == index.table
        and _matched_selectivity(index, preds, catalog, lookup) is not None
        for table, lookup in accesses
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(query_and_candidates())
def test_index_applicable_exactly_when_the_planner_can_use_the_index(case):
    catalog, query, candidates = case
    bare, bare_cost = whatif_plan(query, (), catalog)
    for ix in candidates:
        applicable = index_applicable(query.template, ix)
        assert applicable == offered(catalog, query, ix)
        plan, cost = whatif_plan(query, (ix,), catalog)
        if not applicable:
            assert asdict(plan) == asdict(bare)
            assert cost == bare_cost
        if any(leaf.index == ix for leaf in leaves(plan)):
            assert applicable


def reference_valuation(candidate, workload, ctx, explore_weight):
    """Prices every pair with its own plan and correction, no caches."""
    gate = ctx.gate
    num = den = ev = 0.0
    corrected = 0
    for q in workload.queries:
        w = q.frequency_weight
        den += w * whatif_plan(q, (), gate.catalog)[1]
        plan, _ = whatif_plan(q, (candidate,), gate.catalog)
        result = correct_plan(
            plan,
            gate.models,
            gate.catalog,
            gate.threshold,
            gate.mix_weight,
            gate.passes,
        )
        num += w * result.corrected_cost
        corrected += result.corrected_leaf_count
        for report in result.reports:
            if report.leaf.index == candidate:
                ev += report.score.combined
    eb = 1.0 - num / den
    return (eb, ev, total_value(eb, ev, explore_weight)), corrected


def reference_uncorrected_benefit(candidate, workload, catalog):
    num = den = 0.0
    for q in workload.queries:
        den += q.frequency_weight * whatif_plan(q, (), catalog)[1]
        num += q.frequency_weight * whatif_plan(q, (candidate,), catalog)[1]
    return 1.0 - num / den


@pytest.fixture(scope="module")
def scenario():
    """A catalog, a five-round static schedule over it, and its ground truth."""
    catalog = generate_catalog(CatalogSpec(n_tables=4), seed=42)
    templates = generate_templates(catalog, 10, seed=1)
    sched = DriftSchedule(
        "static", total_rounds=5, templates_per_round=6, queries_per_template=2
    )
    schedule = build_schedule(templates, sched, seed=2)
    return catalog, schedule, make_ground_truth(catalog, seed=5, noise_sigma=0.05)


@pytest.fixture(scope="module")
def trained(scenario):
    """A tuner after a few rounds, plus the next round's workload."""
    catalog, schedule, gt = scenario
    tuner = OnlineTuner(catalog, gt, TunerParams(mcd_passes=5), seed=7)
    for workload in schedule[:4]:
        tuner.run_round(workload)
    return tuner, schedule[4]


@pytest.mark.parametrize("gate", ["median", "open"])
def test_valuation_matches_pricing_every_pair(trained, gate):
    tuner, workload = trained
    candidates = generate_candidates(workload, tuner.catalog)
    threshold = math.inf
    if gate == "median":
        # half of the leaves pass the gate, half do not
        scores = [
            report.score.combined
            for c in candidates
            for q in workload.queries
            for report in correct_plan(
                whatif_plan(q, (c,), tuner.catalog)[0],
                tuner.models,
                tuner.catalog,
                math.inf,
                tuner.gate.mix_weight,
                tuner.gate.passes,
            ).reports
        ]
        threshold = float(np.median(scores))
    shared = replace(tuner.gate, threshold=threshold)  # and the tuner's caches
    plans = [b.plan for b in tuner.env.calibration.calibrate(workload.queries)]
    ctx = round_context(workload, candidates, shared, plans)
    corrected = 0
    for candidate in candidates:
        got = candidate_valuation(candidate, ctx, 0.5)
        want, n = reference_valuation(candidate, workload, ctx, 0.5)
        corrected += n
        assert (got.execution_benefit, got.exploratory_value, got.value) == want
    assert corrected > 0  # the gates opened, so corrections were compared too


def test_uncorrected_benefit_matches_pricing_every_pair(scenario):
    catalog, schedule, gt = scenario
    tuner = OnlineTuner(catalog, gt, TunerParams(mcd_passes=5), seed=7)
    alone = Calibration(gt, 7)  # prices every order itself, as a lone baseline
    for workload in schedule:
        candidates = generate_candidates(workload, catalog)
        ctx = tuner._context(workload, candidates)
        want = [reference_uncorrected_benefit(x, workload, catalog) for x in candidates]
        plans = [b.plan for b in alone.calibrate(workload.queries)]
        den = noindex_total(workload, plans)
        costs = [plan.total_cost for plan in plans]
        for candidate, benefit in zip(candidates, want):
            # the round's pricing, summed before correction
            assert 1.0 - ctx.pricing[candidate][1] / ctx.noindex_total == benefit
            # a lone baseline's own pricing, against the calibration's plans
            def planner(i, q):
                return whatif_plan(q, (candidate,), catalog)

            _, num = whatif_pricing(candidate, workload.queries, costs, planner)
            assert 1.0 - num / den == benefit
        tuner.run_round(workload)
        ranked = sorted(range(len(want)), key=lambda i: (-want[i], i))
        assert tuner.env.calibration.order(workload, candidates) == ranked
        assert alone.order(workload, candidates) == ranked


def test_mean_uncertainty_before_reuses_gate_scores(trained):
    tuner, workload = trained
    tuner = copy.deepcopy(tuner)
    before = copy.deepcopy(tuner)
    report = tuner.run_round(workload)
    indexes = report.configuration.indexes
    probes = [
        (leaf, encode_operator(leaf, tuner.catalog))
        for q in workload.queries
        for leaf in leaves(whatif_plan(q, indexes, tuner.catalog)[0])
    ]
    assert probes
    assert report.mean_uncertainty_before == before._mean_uncertainty(probes)
    assert report.mean_uncertainty_after == tuner._mean_uncertainty(probes)


@pytest.mark.parametrize("hot", [False, True], ids=["static", "hot"])
def test_round_pricing_plans_and_scores_once_and_values_exactly(
    scenario, monkeypatch, hot
):
    """A round prices all its candidates before valuing any: each applicable
    pair is planned at most once, valuation plans nothing, the leaves are
    scored in at most one call per operator kind, every valuation equals
    pricing every pair anew, and the round's pricing is dropped with it,
    but for the memo of its pairs."""
    from idxlab import correction, selection, tuner as tuner_module

    catalog, schedule, gt = scenario
    rounds = schedule[:4]
    if hot:
        rounds = [MiniWorkload(t, schedule[0].queries) for t in range(4)]
    tuner = OnlineTuner(catalog, gt, TunerParams(mcd_passes=5), seed=7)
    kind_of = {id(model): kind for kind, model in tuner.models.items()}
    phase = [None]  # "pricing" or "valuation" while either runs
    planned, scored, contexts = [], [], []

    def during(name, function):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return function(*args, **kwargs)
            finally:
                phase[0] = None

        return wrapper

    def planning(query, config, catalog):
        planned.append((phase[0], query.key(), tuple(config)))
        return whatif_plan(query, config, catalog)

    def scoring(model, encodings, mix_weight, passes):
        if phase[0] == "pricing":
            scored.append(kind_of[id(model)])
        return combined_uncertainties(model, encodings, mix_weight, passes)

    def context(workload, candidates, gate, noindex_plans):
        ctx = round_context(workload, candidates, gate, noindex_plans)
        contexts.append(weakref.ref(ctx))
        return ctx

    def valuation(candidate, ctx, explore_weight):
        got = candidate_valuation(candidate, ctx, explore_weight)
        workload = ctx.workload
        want, _ = reference_valuation(candidate, workload, ctx, explore_weight)
        raw = reference_uncorrected_benefit(candidate, workload, catalog)
        assert got == IndexValuation(candidate, *want)
        assert 1.0 - ctx.pricing[candidate][1] / ctx.noindex_total == raw
        return got

    monkeypatch.setattr(selection, "whatif_plan", planning)
    monkeypatch.setattr(correction, "combined_uncertainties", scoring)
    monkeypatch.setattr(tuner_module, "round_context", during("pricing", context))
    monkeypatch.setattr(
        tuner_module, "candidate_valuation", during("valuation", valuation)
    )
    for t, workload in enumerate(rounds):
        del planned[:], scored[:]
        tuner.run_round(workload)
        queries = workload.queries
        candidates = generate_candidates(workload, catalog)
        applicable = sum(sum(applicability(queries, x)) for x in candidates)
        assert {phase for phase, _, _ in planned} <= {"pricing"}
        assert len(planned) <= applicable
        if hot and t >= 1:
            assert planned == []
        keys = [q.key() for q in queries]
        for key, config in {(key, config) for _, key, config in planned}:
            assert planned.count(("pricing", key, config)) <= keys.count(key)
        assert len(scored) == len(set(scored)) and scored
        # nothing of the round outlives it but the memo of its pairs
        gc.collect()
        assert contexts[-1]() is None
        assert set(vars(tuner.gate)) == {f.name for f in fields(Gate)}
        assert set(tuner.gate.plan_memo) == applicable_pairs(workload, catalog)
