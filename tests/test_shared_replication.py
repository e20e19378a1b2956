"""One replication's methods share a calibration and its raw ranking.

`experiment.run_replication` calibrates each query once for the tuner and
both baselines, and the baselines read each round's raw what-if ranking from
the tuner's valuation instead of planning it again. A ranking is kept under
the round's queries with their weights, so a lone baseline plans a repeated
query set once. Sharing must not change a single result: every method must
read exactly what it reads when it runs alone with private state.
"""

import dataclasses
from collections import Counter

import pytest

from idxlab import experiment, selection, tuner
from idxlab.errors import ContractError
from idxlab.experiment import (
    _environment,
    _tuner_params,
    resolve_config,
    run_replication,
)
from idxlab.selection import Configuration, applicability, generate_candidates
from idxlab.simulator import _config_indexes, make_ground_truth
from idxlab.tuner import (
    BASELINE_KINDS,
    Calibration,
    Environment,
    OnlineTuner,
    run_baseline,
)
from idxlab.workload import MiniWorkload, save_schedule

SEED = 3

CONFIG = {
    "catalog": {"n_tables": 3, "rows_range": [1000, 20000]},
    "workload": {
        "kind": "periodic",
        "n_templates": 8,
        "total_rounds": 5,
        "templates_per_round": 4,
        "change_fraction": 0.5,
        "period": 2,
        "queries_per_template": 2,
    },
    "tuner": {"mcd_passes": 5, "epsilon": 0.5},
    "budget": {"max_indexes": 3},
    "replications": [SEED],
}


def standalone(cfg, seed):
    """What each method of ``cfg`` gives when it runs alone."""
    catalog, schedule, ground_truth = _environment(cfg, seed)
    params = _tuner_params(cfg)
    tuner = OnlineTuner(catalog, ground_truth, params, seed)
    methods = {"tuner": tuner.run(schedule)}
    for kind in cfg["baselines"]:
        methods[kind] = run_baseline(
            kind, catalog, ground_truth, schedule, params, seed
        )
    return {
        "seed": seed,
        "methods": methods,
        "reports": [r.to_dict() for r in tuner.reports],
    }


def repeating_schedule_config(tmp_path):
    """``CONFIG`` over a schedule file that replays round 0's queries in
    every round."""
    cfg = resolve_config(CONFIG)
    _, schedule, _ = _environment(cfg, SEED)
    repeated = [MiniWorkload(w.round, schedule[0].queries) for w in schedule]
    path = tmp_path / "schedule.json"
    save_schedule(repeated, path)
    return {**CONFIG, "workload": {"schedule_file": str(path)}}


@pytest.mark.parametrize(
    "baselines",
    [
        ["whatif_greedy", "plain_epsilon_greedy"],
        ["plain_epsilon_greedy", "whatif_greedy"],
        ["plain_epsilon_greedy"],
    ],
)
@pytest.mark.parametrize("repeating", [False, True])
def test_replication_equals_each_method_alone(tmp_path, baselines, repeating):
    config = repeating_schedule_config(tmp_path) if repeating else CONFIG
    cfg = resolve_config({**config, "baselines": baselines})
    shared = run_replication(cfg, SEED)
    assert list(shared["methods"]) == ["tuner", *baselines]
    assert shared == standalone(cfg, SEED)
    # the baselines chose indexes, so their rankings were compared too
    for kind in baselines:
        assert any(row["n_new_indexes"] for row in shared["methods"][kind])


def counting_planner(monkeypatch):
    """Count every what-if planner call made through the names pricing uses,
    under the label ``method[0]`` holds when the call is made."""
    calls, method = Counter(), ["tuner"]

    def wrap(original):
        def wrapper(*args, **kwargs):
            calls[method[0]] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in (selection, tuner):
        monkeypatch.setattr(module, "whatif_plan", wrap(module.whatif_plan))
    return calls, method


def test_ranking_never_serves_a_round_of_another_workload():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    params = _tuner_params(cfg)
    # the same workloads in another order, numbered from 0 again
    other = [MiniWorkload(t, w.queries) for t, w in enumerate(reversed(schedule))]
    calibration = Calibration(ground_truth, SEED)
    for kind in BASELINE_KINDS:
        for rounds in (schedule, other):
            alone = run_baseline(kind, catalog, ground_truth, rounds, params, SEED)
            got = run_baseline(
                kind, catalog, ground_truth, rounds, params, SEED, calibration
            )
            assert got == alone


def test_queries_with_another_weight_get_their_own_order():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    light = schedule[0]
    # the same queries, the last one weighted far above the rest
    last = light.queries[-1]
    heavy = MiniWorkload(
        light.round,
        light.queries[:-1] + (dataclasses.replace(last, frequency_weight=10**6),),
    )
    candidates = generate_candidates(light, catalog)
    assert generate_candidates(heavy, catalog) == candidates
    calibration = Calibration(ground_truth, SEED)
    light_order = calibration.order(light, candidates)
    heavy_order = calibration.order(heavy, candidates)
    assert heavy_order == Calibration(ground_truth, SEED).order(heavy, candidates)
    # so an order kept without the weights would have served the wrong one
    assert heavy_order != light_order


def test_replication_baselines_plan_nothing(monkeypatch):
    calls, method = counting_planner(monkeypatch)

    def labelled(kind, *args):
        method[0] = kind
        return tuner.run_baseline(kind, *args)

    monkeypatch.setattr(experiment, "run_baseline", labelled)
    shared = run_replication(resolve_config(CONFIG), SEED)
    assert list(shared["methods"]) == ["tuner", *BASELINE_KINDS]
    assert method[0] == BASELINE_KINDS[-1]
    # the tuner's valuation planned every pair, and each baseline read it
    assert calls["tuner"] > 0
    assert calls == Counter(tuner=calls["tuner"])


@pytest.mark.parametrize("repeating", [False, True])
def test_replication_calibrates_each_distinct_query_once(
    tmp_path, monkeypatch, repeating
):
    config = repeating_schedule_config(tmp_path) if repeating else CONFIG
    cfg = resolve_config(config)
    _, schedule, _ = _environment(cfg, SEED)
    calibrated = Counter()
    execute = tuner.execute

    def counting(query, config, *args, **kwargs):
        if not _config_indexes(config):
            calibrated[query.key()] += 1
        return execute(query, config, *args, **kwargs)

    monkeypatch.setattr(tuner, "execute", counting)
    run_replication(cfg, SEED)
    # only the calibration executes a query under no index, and it does so
    # once per distinct query, across rounds and methods
    keys = {q.key() for w in schedule for q in w.queries}
    assert calibrated == Counter(dict.fromkeys(keys, 1))


def test_lone_baseline_plans_a_repeated_query_set_once(tmp_path, monkeypatch):
    cfg = resolve_config(repeating_schedule_config(tmp_path))
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    assert len(schedule) > 1
    assert all(w.queries == schedule[0].queries for w in schedule)
    queries = schedule[0].queries
    pairs = sum(
        sum(applicability(queries, x))
        for x in generate_candidates(schedule[0], catalog)
    )
    assert pairs > 0
    calls, _ = counting_planner(monkeypatch)
    for kind in BASELINE_KINDS:
        calls.clear()
        run_baseline(kind, catalog, ground_truth, schedule, _tuner_params(cfg), SEED)
        # round 0's applicable pairs, and none of a later round's
        assert calls == Counter(tuner=pairs)


def test_ranking_of_another_catalog_is_rejected():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    other_catalog, _, _ = _environment(cfg, SEED + 1)
    calibration = Calibration(ground_truth, SEED)
    # the calibration ranks against its ground truth's catalog
    with pytest.raises(ContractError):
        run_baseline(
            "whatif_greedy", other_catalog, ground_truth, schedule, seed=SEED
        )
    with pytest.raises(ContractError):
        run_baseline(
            "whatif_greedy",
            other_catalog,
            ground_truth,
            schedule,
            seed=SEED,
            calibration=calibration,
        )
    with pytest.raises(ContractError):
        OnlineTuner(other_catalog, ground_truth, seed=SEED, calibration=calibration)


def test_calibration_rejects_another_ground_truth_or_seed():
    cfg = resolve_config(CONFIG)
    catalog, _, ground_truth = _environment(cfg, SEED)
    calibration = Calibration(ground_truth, SEED)
    other_truth = make_ground_truth(catalog, ground_truth.seed + 1)
    with pytest.raises(ContractError):
        Environment(other_truth, SEED, calibration)
    with pytest.raises(ContractError):
        Environment(ground_truth, SEED + 1, calibration)
    with pytest.raises(ContractError):
        OnlineTuner(catalog, other_truth, seed=SEED, calibration=calibration)
    # an equal copy of the ground truth is the same ground truth
    copy = make_ground_truth(catalog, ground_truth.seed, ground_truth.noise_sigma)
    assert Environment(copy, SEED, calibration).calibration is calibration


def test_environments_sharing_a_calibration_keep_their_own_deployments():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    calibration = Calibration(ground_truth, SEED)
    first = Environment(ground_truth, SEED, calibration)
    second = Environment(ground_truth, SEED, calibration)
    a, b = generate_candidates(schedule[0], catalog)[:2]
    executed_first, row_first = first.step(0, schedule[0], Configuration((a,)))
    executed_second, row_second = second.step(0, schedule[0], Configuration((b,)))
    assert first.deployed == Configuration((a,)) and first.ever_deployed == {a}
    assert second.deployed == Configuration((b,)) and second.ever_deployed == {b}
    # one calibration run per query, read by both environments
    for (q, _, mine), (_, _, theirs) in zip(executed_first, executed_second):
        assert mine is theirs is calibration.calibrate((q,))[0]
    assert row_first["noindex_time_s"] == row_second["noindex_time_s"]
    # a private calibration executes the same no-index telemetry
    private = Environment(ground_truth, SEED)
    _, row_private = private.step(0, schedule[0], Configuration((a,)))
    assert row_private == row_first
