import copy
import math

import numpy as np
import pytest

from idxlab.catalog import CatalogSpec, ColumnRef, generate_catalog
from idxlab.costmodel import nearest_bucket_index
from idxlab.errors import ConfigurationError, ContractError
from idxlab.simulator import make_ground_truth, noise_streams, whatif_plan
from idxlab.selection import Configuration, Gate, generate_candidates
from idxlab.tuner import (
    Environment,
    OnlineTuner,
    TunerParams,
    creation_seconds,
    overall_improvement,
    run_baseline,
)
from idxlab.workload import (
    DriftSchedule,
    FilterSpec,
    LiteralSampler,
    MiniWorkload,
    Query,
    QueryTemplate,
    build_schedule,
    generate_templates,
)

from conftest import (
    applicable_pairs,
    assert_score_states_current,
    cached_scores,
    total_size_bytes,
)


@pytest.fixture(scope="module")
def env():
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=42)
    templates = generate_templates(catalog, 10, seed=1)
    sched = DriftSchedule(
        "static", total_rounds=6, templates_per_round=6, queries_per_template=2
    )
    schedule = build_schedule(templates, sched, seed=2)
    gt = make_ground_truth(catalog, seed=5, noise_sigma=0.05)
    return catalog, schedule, gt


def single_table_environment(multiplier=2.0, rounds=8):
    """Noise-free single-table scans with a known index-scan multiplier.

    Filter columns have low distinct counts, so index scans are helpful but
    not overwhelmingly so; a mispredicted multiplier then moves the benefit
    by a lot, which is what the learning-signal checks need.
    """
    from conftest import controlled_catalog

    catalog = controlled_catalog()
    templates = []
    for i, table in enumerate(catalog.tables):
        col = table.columns[1]
        # payload on a different column keeps the access path a plain IndexScan
        templates.append(
            QueryTemplate(
                id=f"S{i}",
                tables=(table.name,),
                join_predicates=(),
                filter_specs=(
                    FilterSpec(
                        ColumnRef(table.name, col.name),
                        "=",
                        LiteralSampler("numeric", col.min_value, col.max_value),
                    ),
                ),
                payload_columns=(ColumnRef(table.name, table.columns[2].name),),
            )
        )
    sched = DriftSchedule(
        "static",
        total_rounds=rounds,
        templates_per_round=len(templates),
        queries_per_template=3,
    )
    schedule = build_schedule(templates, sched, seed=4)
    gt = make_ground_truth(
        catalog,
        seed=6,
        noise_sigma=0.0,
        choices={"IndexScan": (multiplier,), "IndexOnlyScan": (multiplier,)},
    )
    return catalog, schedule, gt


def test_round_report_shape(env):
    catalog, schedule, gt = env
    tuner = OnlineTuner(catalog, gt, TunerParams(max_indexes=4), seed=7)
    report = tuner.run_round(schedule[0])
    assert report.round == 0
    assert tuner.round == 1
    assert len(tuner.metrics) == 1
    assert 0 < len(report.configuration) <= 4
    assert report.improvement == pytest.approx(
        1 - report.exec_time_s / report.noindex_time_s
    )
    assert len(report.per_query_benefits) == len(schedule[0].queries)


def test_zero_candidate_round_is_exact_noop(env):
    catalog, schedule, gt = env
    t0 = catalog.tables[0].name
    tpl = QueryTemplate(
        id="P",
        tables=(t0,),
        join_predicates=(),
        filter_specs=(),
        payload_columns=(ColumnRef(t0, "c0"),),
    )
    w = MiniWorkload(0, (Query(tpl, ()),))
    tuner = OnlineTuner(catalog, gt, TunerParams(), seed=7)
    report = tuner.run_round(w)
    assert len(report.configuration) == 0
    assert report.improvement == 0.0
    assert report.labels_emitted == 0


def test_known_multiplier_lands_in_label_buffer():
    catalog, schedule, gt = single_table_environment(2.0)
    tuner = OnlineTuner(catalog, gt, TunerParams(max_indexes=2), seed=9)
    tuner.run_round(schedule[0])
    tuner.run_round(schedule[1])
    buckets = {idx for _, idx in tuner.model_for("IndexScan").buffer}
    assert nearest_bucket_index(2.0) in buckets


def test_round_replay_is_bit_identical(env):
    catalog, schedule, gt = env
    a = OnlineTuner(catalog, gt, TunerParams(), seed=13)
    b = OnlineTuner(catalog, gt, TunerParams(), seed=13)
    for w in schedule[:3]:
        ra = a.run_round(w)
        rb = b.run_round(w)
        assert ra.to_dict() == rb.to_dict()
    assert a.metrics == b.metrics


def test_mid_run_copy_replays_identically(env):
    catalog, schedule, gt = env
    tuner = OnlineTuner(catalog, gt, TunerParams(), seed=13)
    tuner.run_round(schedule[0])
    fork = copy.deepcopy(tuner)
    assert tuner.run_round(schedule[1]).to_dict() == fork.run_round(
        schedule[1]
    ).to_dict()


class FreshCacheTuner(OnlineTuner):
    """Scores every model state anew each round: the reference for the
    tuner-lifetime uncertainty cache."""

    def _context(self, workload, candidates):
        self.gate.score_cache.clear()
        return super()._context(workload, candidates)


@pytest.mark.parametrize("threshold", [0.1, math.inf])
def test_lifetime_uncertainty_cache_changes_no_report(env, threshold):
    catalog, schedule, gt = env
    params = TunerParams(uncertainty_threshold=threshold)
    tuner = OnlineTuner(catalog, gt, params, seed=13)
    fresh = FreshCacheTuner(catalog, gt, params, seed=13)
    for w in schedule:
        assert tuner.run_round(w).to_dict() == fresh.run_round(w).to_dict()
    assert tuner.metrics == fresh.metrics


class FreshMemoTuner(OnlineTuner):
    """Plans every (query, candidate) pair anew: the reference for the
    pricing memo. Its gate forgets the last round's pairs before each
    round's pricing, so it reads nothing from the memo."""

    def _context(self, workload, candidates):
        self.gate.plan_memo.clear()
        return super()._context(workload, candidates)


def hot_schedule(schedule):
    """Round 0's queries in every round."""
    return [MiniWorkload(t, schedule[0].queries) for t in range(len(schedule))]


def half_recurring_schedule(schedule):
    """Each round keeps the second half of the round before's queries, after
    half of its own: round 0's second half recurs in every round."""
    out = [schedule[0]]
    for t, w in enumerate(schedule[1:], start=1):
        kept = out[-1].queries[len(out[-1].queries) // 2 :]
        out.append(MiniWorkload(t, w.queries[: len(w.queries) // 2] + kept))
    return out


def gap_schedule(schedule):
    """Round 0's queries again after one other round, then in a row."""
    a, b = schedule[0].queries, schedule[1].queries
    return [MiniWorkload(t, q) for t, q in enumerate((a, b, a, a, a, b))]


def round_keys(workload):
    return {q.key() for q in workload.queries}


@pytest.mark.parametrize("threshold", [0.1, math.inf])
@pytest.mark.parametrize(
    "build", [hot_schedule, half_recurring_schedule, gap_schedule]
)
def test_plan_memo_changes_no_report(env, monkeypatch, build, threshold):
    from idxlab import selection, tuner as tuner_module

    catalog, schedule, gt = env
    rounds = build(schedule)
    planned, valued = [], []

    def counting_whatif_plan(*args, **kwargs):
        planned[-1] += 1
        return whatif_plan(*args, **kwargs)

    valuation = tuner_module.candidate_valuation

    def recording_valuation(*args, **kwargs):
        valued[-1].append(valuation(*args, **kwargs))
        return valued[-1][-1]

    params = TunerParams(uncertainty_threshold=threshold)
    tuner = OnlineTuner(catalog, gt, params, seed=13)
    fresh = FreshMemoTuner(catalog, gt, params, seed=13)
    saved = 0
    for t, w in enumerate(rounds):
        with monkeypatch.context() as m:
            m.setattr(selection, "whatif_plan", counting_whatif_plan)
            m.setattr(tuner_module, "candidate_valuation", recording_valuation)
            planned.append(0)
            valued.append([])
            report = tuner.run_round(w)
            planned.append(0)
            valued.append([])
            want = fresh.run_round(w)
        # every candidate's valuation, not only the sampled configuration
        assert valued[-2] == valued[-1]
        assert report.to_dict() == want.to_dict()
        # valuation's planner calls, with the memo and without it
        with_memo, without = planned[-2:]
        assert with_memo <= without
        saved += without - with_memo
        # a round that repeats the round before plans nothing: every hot
        # round from round 1 on, and the gap schedule's rounds 3 and 4
        if t > 0 and w.queries == rounds[t - 1].queries:
            assert with_memo == 0, t
        # the memo holds exactly the pairs this round priced
        assert set(tuner.gate.plan_memo) == applicable_pairs(w, catalog), t
    assert tuner.metrics == fresh.metrics
    assert saved > 0


def test_plan_memo_holds_only_the_last_rounds_pairs(env):
    catalog, schedule, gt = env
    for earlier, w in zip(schedule, schedule[1:]):
        assert not round_keys(earlier) & round_keys(w)
    tuner = OnlineTuner(catalog, gt, TunerParams(), seed=13)
    for t, w in enumerate(schedule):
        tuner.run_round(w)
        memo = tuner.gate.plan_memo
        assert set(memo) == applicable_pairs(w, catalog), t
        # no pair of an earlier round is left, and each kept cost is the
        # planner's
        queries = {q.key(): q for q in w.queries}
        for (key, x), (_, cost) in memo.items():
            assert cost == whatif_plan(queries[key], (x,), catalog)[1]


def test_the_next_round_context_reads_the_probes_scores(env, monkeypatch):
    catalog, schedule, gt = env
    tuner = OnlineTuner(catalog, gt, TunerParams(), seed=13)
    gate = tuner.gate
    score = Gate.score
    read, updated = [], set()

    def recording_score(self, pairs):
        read.append((pairs, score(self, pairs)))
        return read[-1][1]

    for w, following in zip(schedule[:3], schedule[1:]):
        steps = {kind: model.step_count for kind, model in tuner.models.items()}
        before = cached_scores(gate)
        tuner.run_round(w)
        # the after-update probe read every updated kind under its new state
        assert_score_states_current(gate)
        for kind, old in before.items():
            now = gate.score_cache[kind][1]
            if tuner.models[kind].step_count != steps[kind]:
                updated.add(kind)
                assert {id(s) for s in old.values()}.isdisjoint(map(id, now.values()))
            else:
                assert all(now[key] is s for key, s in old.items())
        probed = cached_scores(gate)
        read.clear()
        with monkeypatch.context() as m:
            m.setattr(Gate, "score", recording_score)
            ctx = tuner._context(following, generate_candidates(following, catalog))
        assert ctx.gate is gate
        assert_score_states_current(gate)
        # the context's one scoring call reads the probe's score objects
        [(pairs, scores)] = read
        hits = 0
        for (kind, enc), s in zip(pairs, scores):
            if enc.tobytes() in probed.get(kind, {}):
                assert s is probed[kind][enc.tobytes()]
                hits += 1
        assert hits
    assert updated


def test_budget_compliance_every_round(env):
    catalog, schedule, gt = env
    params = TunerParams(max_indexes=3)
    tuner = OnlineTuner(catalog, gt, params, seed=17)
    for w in schedule:
        report = tuner.run_round(w)
        assert len(report.configuration) <= 3
        per_table = {}
        for ix in report.configuration.indexes:
            per_table[ix.table] = per_table.get(ix.table, 0) + 1
        assert all(v <= params.per_table_cap for v in per_table.values())


def test_storage_budget_mode(env):
    catalog, schedule, gt = env
    params = TunerParams(storage_budget_bytes=300000)
    tuner = OnlineTuner(catalog, gt, params, seed=19)
    report = tuner.run_round(schedule[0])
    assert total_size_bytes(report.configuration) <= 300000


def test_learning_signal_shrinks_benefit_gap():
    catalog, schedule, gt = single_table_environment(5.0, rounds=14)
    tuner = OnlineTuner(catalog, gt, TunerParams(max_indexes=2), seed=21)
    gaps = []
    for w in schedule:
        report = tuner.run_round(w)
        gaps.append(
            float(np.mean([abs(bc - bt) for bc, bt in report.per_query_benefits]))
        )
    # once the uncertainty gate opens, corrections close the gap entirely
    assert np.mean(gaps[-3:]) < 0.5 * np.mean(gaps[:3])


def test_exploration_decay_on_static_schedule():
    catalog = generate_catalog(CatalogSpec(n_tables=4), seed=5)
    templates = generate_templates(catalog, 10, seed=5)
    sched = DriftSchedule(
        "static", total_rounds=12, templates_per_round=10, queries_per_template=2
    )
    schedule = build_schedule(templates, sched, seed=5)
    gt = make_ground_truth(catalog, seed=5, noise_sigma=0.05)
    tuner = OnlineTuner(catalog, gt, TunerParams(), seed=5)
    news = [tuner.run_round(w).n_new_indexes for w in schedule]
    trailing = [float(np.mean(news[i : i + 5])) for i in range(len(news) - 4)]
    assert all(a >= b - 1e-12 for a, b in zip(trailing, trailing[1:]))


def test_overall_improvement_arithmetic():
    rows = [
        {"exec_time_s": 10.0, "noindex_time_s": 10.0},
        {"exec_time_s": 5.0, "noindex_time_s": 10.0},
    ]
    assert overall_improvement(rows) == pytest.approx(0.25)
    same = [{"exec_time_s": 4.0, "noindex_time_s": 4.0}] * 3
    assert overall_improvement(same) == 0.0
    halved = [{"exec_time_s": 2.0, "noindex_time_s": 4.0}] * 3
    assert overall_improvement(halved) == 0.5
    mixed = [
        {"exec_time_s": 80.0, "noindex_time_s": 100.0},
        {"exec_time_s": 120.0, "noindex_time_s": 100.0},
    ]
    assert overall_improvement(mixed) == 0.0
    with pytest.raises(ValueError):
        overall_improvement([])
    with pytest.raises(ContractError):
        overall_improvement([{"exec_time_s": 0.0, "noindex_time_s": 0.0}])


def test_baseline_validation(env):
    catalog, schedule, gt = env
    with pytest.raises(ConfigurationError):
        run_baseline("nope", catalog, gt, schedule)


def test_whatif_greedy_deterministic(env):
    catalog, schedule, gt = env
    a = run_baseline("whatif_greedy", catalog, gt, schedule, TunerParams(), seed=1)
    b = run_baseline("whatif_greedy", catalog, gt, schedule, TunerParams(), seed=2)
    # no sampler: even different seeds pick the same configurations, so the
    # only difference could come from seeded execution noise streams
    assert [r["n_new_indexes"] for r in a] == [r["n_new_indexes"] for r in b]


def test_epsilon_zero_matches_greedy(env):
    catalog, schedule, gt = env
    params = TunerParams(epsilon=0.0)
    greedy = run_baseline("whatif_greedy", catalog, gt, schedule, params, seed=3)
    eps = run_baseline(
        "plain_epsilon_greedy", catalog, gt, schedule, params, seed=3
    )
    assert [r["exec_time_s"] for r in greedy] == [r["exec_time_s"] for r in eps]
    assert [r["improvement"] for r in greedy] == [r["improvement"] for r in eps]


def test_baselines_share_workloads_with_tuner(env):
    catalog, schedule, gt = env
    # the schedule is a pure function of its inputs, so paired methods that
    # receive the same (templates, sched, seed) iterate identical queries
    templates = generate_templates(catalog, 10, seed=1)
    sched = DriftSchedule(
        "static", total_rounds=6, templates_per_round=6, queries_per_template=2
    )
    assert build_schedule(templates, sched, seed=2) == schedule
    # and running a baseline leaves the shared schedule untouched
    before = [q.key() for w in schedule for q in w.queries]
    run_baseline("whatif_greedy", catalog, gt, schedule, TunerParams(), 1)
    assert [q.key() for w in schedule for q in w.queries] == before


def test_metrics_log_columns(env):
    catalog, schedule, gt = env
    log = run_baseline("whatif_greedy", catalog, gt, schedule[:2], TunerParams(), 1)
    assert len(log) == 2
    for row in log:
        assert set(row) == {
            "round",
            "exec_time_s",
            "noindex_time_s",
            "improvement",
            "n_new_indexes",
            "creation_s",
            "mean_uncertainty",
        }


def two_indexes(catalog, workload):
    a, b = generate_candidates(workload, catalog)[:2]
    assert creation_seconds([a]) > 0 and creation_seconds([b]) > 0
    return a, b


def test_environment_redeploy_is_free(env):
    catalog, schedule, gt = env
    a, b = two_indexes(catalog, schedule[0])
    environment = Environment(gt, seed=3)
    config = Configuration((a, b))
    _, first = environment.step(0, schedule[0], config)
    assert first["creation_s"] == creation_seconds([a, b])
    assert first["n_new_indexes"] == 2
    _, again = environment.step(1, schedule[1], config)
    assert again["creation_s"] == 0
    assert again["n_new_indexes"] == 0


def test_environment_rebuild_after_drop_costs_time_but_is_not_new(env):
    catalog, schedule, gt = env
    a, b = two_indexes(catalog, schedule[0])
    environment = Environment(gt, seed=3)
    environment.step(0, schedule[0], Configuration((a, b)))
    _, dropped = environment.step(1, schedule[1], Configuration((b,)))
    assert dropped["creation_s"] == 0 and dropped["n_new_indexes"] == 0
    _, rebuilt = environment.step(2, schedule[2], Configuration((a, b)))
    assert rebuilt["creation_s"] == creation_seconds([a])
    assert rebuilt["n_new_indexes"] == 0


def test_known_queries_and_empty_configurations_make_no_noise_streams(
    env, monkeypatch
):
    """A batch of noise streams has a fixed cost, so calibrating queries the
    calibration holds, or stepping under the empty configuration, must make
    none; a new query or a deployed index makes exactly one per call."""
    from idxlab import tuner as tuner_module

    catalog, schedule, gt = env
    batches = []

    def counting(queries, *args):
        queries = list(queries)
        batches.append(len(queries))
        return noise_streams(queries, *args)

    monkeypatch.setattr(tuner_module, "noise_streams", counting)
    environment = Environment(gt, seed=3)
    calibration = environment.calibration
    first, second = schedule[0].queries, schedule[1].queries
    calibration.calibrate(first)
    assert batches == [len({q.key() for q in first})]
    calibration.calibrate(first)
    environment.step(0, schedule[0], Configuration())
    assert len(batches) == 1
    calibration.calibrate(first + second)
    new = {q.key() for q in second} - {q.key() for q in first}
    assert batches[1:] == [len(new)] and new
    environment.step(1, schedule[1], Configuration())
    assert len(batches) == 2
    environment.step(2, schedule[0], Configuration(two_indexes(catalog, schedule[0])))
    assert batches[2:] == [len(first)]


def test_environment_empty_configuration_reuses_calibration(env):
    catalog, schedule, gt = env
    environment = Environment(gt, seed=3)
    executed, row = environment.step(0, schedule[0], Configuration())
    assert [q for q, _, _ in executed] == list(schedule[0].queries)
    for q, telemetry, baseline in executed:
        assert telemetry is baseline
        assert baseline is environment.calibration.calibrate((q,))[0]
    assert row["exec_time_s"] == row["noindex_time_s"] > 0
    assert row["improvement"] == 0.0
    assert row["creation_s"] == 0 and row["n_new_indexes"] == 0
