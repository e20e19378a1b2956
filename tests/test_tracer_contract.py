"""The benchmark tracer (perfbench/tracer.py) patches idxlab by attribute name.

A renamed or removed name makes `perfbench/run.py --trace 1` fail with an
AttributeError, so this checks that a layered tracer installs over the
current package and that restoring it leaves every attribute as it was. A
call that moves behind a name the tracer does not patch makes its layer read
zero, so a short traced run must see every layer it counts. The benchmark
attributes time to methods by their spans and to rounds by its reference
runs, so a traced experiment must show one span per method and one reference
per round of each.
"""

import importlib.util
import os

from idxlab import correction, costmodel, experiment, plan, selection, tuner
from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.simulator import make_ground_truth
from idxlab.workload import (
    DriftSchedule,
    MiniWorkload,
    build_schedule,
    generate_templates,
)

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)

# every name the tracer wraps on the tuner module
TUNER_NAMES = (
    "whatif_plan",
    "correct_plan",
    "execute",
    "telemetry_to_labels",
    "candidate_valuation",
    "enumerate_configuration",
    "encode_operator",
    "generate_candidates",
    "run_baseline",
)

OWNERS = (
    correction,
    costmodel,
    experiment,
    plan,
    selection,
    tuner,
    tuner.OnlineTuner,
    costmodel.CostMultiplierModel,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def test_layered_tracer_installs_and_restores_cleanly():
    before = snapshot()
    tracer = load_tracer().Tracer(layers=True)
    try:
        tracer.install()
        for name in TUNER_NAMES:
            assert getattr(tuner, name) is not before[tuner][name], name
            assert getattr(tuner, name).__wrapped__ is before[tuner][name], name
    finally:
        tracer.restore()
    after = snapshot()
    for owner in OWNERS:
        assert after[owner].keys() == before[owner].keys(), owner
        for name, value in before[owner].items():
            assert after[owner][name] is value, (owner, name)


def test_layered_tracer_sees_every_layer_of_a_short_run():
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=42)
    templates = generate_templates(catalog, 6, seed=1)
    sched = DriftSchedule(
        "static", total_rounds=2, templates_per_round=4, queries_per_template=2
    )
    schedule = build_schedule(templates, sched, seed=2)
    gt = make_ground_truth(catalog, seed=5)
    params = tuner.TunerParams(mcd_passes=5)
    tracer = load_tracer().Tracer(layers=True)
    with tracer:
        tuner.OnlineTuner(catalog, gt, params, seed=7).run(schedule)
        tuner.run_baseline("whatif_greedy", catalog, gt, schedule, params, seed=7)
    calls, _ = tracer.self_times()
    for name in (
        "selection.candidate_valuation",
        "correction.correct_plan",
        "simulator.whatif_plan",
    ):
        assert calls[name] > 0, name
    assert tracer.counts["correction.correct_plan.leaves_scored.SeqScan"] > 0
    # outside valuation, a round corrects each query's no-index plan and its
    # deployed plan once
    direct = [
        span
        for span in tracer.spans
        if span[0] == "correction.correct_plan"
        and tracer.spans[span[3]][0] == "tuner.run_round"
    ]
    assert len(direct) == sum(2 * len(w.queries) for w in schedule)
    baseline_calls, _ = tracer.self_times(within="method.whatif_greedy")
    assert baseline_calls["simulator.whatif_plan"] > 0


def test_layered_tracer_sees_every_correction_of_a_hot_schedule():
    # round 0's queries every round: from round 2 on, valuation reads every
    # pair from the tuner's memo, but every plan is still corrected through
    # the traced gate
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=42)
    templates = generate_templates(catalog, 6, seed=1)
    sched = DriftSchedule(
        "static", total_rounds=1, templates_per_round=4, queries_per_template=2
    )
    first = build_schedule(templates, sched, seed=2)[0]
    schedule = [MiniWorkload(t, first.queries) for t in range(3)]
    gt = make_ground_truth(catalog, seed=5)
    tracer = load_tracer().Tracer(layers=True)
    with tracer:
        tuner.OnlineTuner(catalog, gt, tuner.TunerParams(mcd_passes=5), seed=7).run(
            schedule
        )
    calls, _ = tracer.self_times(by_round=True)
    for t in range(3):
        direct = [
            span
            for span in tracer.spans
            if span[0] == "correction.correct_plan"
            and span[4] == t
            and tracer.spans[span[3]][0] == "tuner.run_round"
        ]
        assert len(direct) == 2 * len(first.queries), t
        assert calls[("selection.candidate_valuation", t)] > 0, t
    assert calls[("simulator.whatif_plan", 0)] > 0
    assert calls[("simulator.whatif_plan", 2)] == 0
    assert calls[("correction.correct_plan", 2)] > 2 * len(first.queries)


def test_layered_tracer_attributes_each_method_of_an_experiment(tmp_path):
    rounds = 3
    config = {
        "catalog": {"n_tables": 2, "rows_range": [1000, 5000]},
        "workload": {
            "n_templates": 6,
            "total_rounds": rounds,
            "templates_per_round": 4,
            "queries_per_template": 2,
        },
        "tuner": {"mcd_passes": 5},
        "replications": [1],
    }
    tracer = load_tracer().Tracer(layers=True, reference=lambda: None)
    with tracer:
        experiment.run_experiment(config, out_dir=str(tmp_path / "out"))
    calls, _ = tracer.self_times()
    assert calls["experiment.run_experiment"] == 1
    for kind in tuner.BASELINE_KINDS:
        assert calls[f"method.{kind}"] == 1, kind
    runs = tracer.method_runs()
    assert [run["method"] for run in runs] == ["tuner", *tuner.BASELINE_KINDS]
    for run in runs:
        assert len(run["refs"]) == rounds, run["method"]
    # the tuner's valuation plans every pair; both baselines read its ranking
    planned = {
        method: tracer.self_times(within=f"method.{method}")[0]["simulator.whatif_plan"]
        for method in ("tuner", *tuner.BASELINE_KINDS)
    }
    assert planned["tuner"] > 0
    for kind in tuner.BASELINE_KINDS:
        assert planned[kind] == 0, kind
