"""One replication's methods share a calibration and a baseline ranking.

`experiment.run_replication` calibrates each query once for the tuner and
both baselines, and ranks each round once for both baselines. Sharing must
not change a single result: every method must read exactly what it reads
when it runs alone with private state.
"""

import pytest

from idxlab.errors import ContractError
from idxlab.experiment import (
    _environment,
    _tuner_params,
    resolve_config,
    run_replication,
)
from idxlab.selection import Configuration, generate_candidates
from idxlab.simulator import make_ground_truth
from idxlab.tuner import (
    BaselineRanking,
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


def test_ranking_never_serves_a_round_of_another_workload():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    params = _tuner_params(cfg)
    # the same workloads in another order, numbered from 0 again
    other = [MiniWorkload(t, w.queries) for t, w in enumerate(reversed(schedule))]
    ranking = BaselineRanking(catalog, Calibration(ground_truth, SEED))
    for kind in ("whatif_greedy", "plain_epsilon_greedy"):
        for rounds in (schedule, other):
            alone = run_baseline(kind, catalog, ground_truth, rounds, params, SEED)
            got = run_baseline(
                kind, catalog, ground_truth, rounds, params, SEED, ranking
            )
            assert got == alone


def test_ranking_of_another_catalog_is_rejected():
    cfg = resolve_config(CONFIG)
    catalog, schedule, ground_truth = _environment(cfg, SEED)
    other_catalog, _, _ = _environment(cfg, SEED + 1)
    ranking = BaselineRanking(other_catalog, Calibration(ground_truth, SEED))
    with pytest.raises(ContractError):
        run_baseline(
            "whatif_greedy", catalog, ground_truth, schedule, seed=SEED, ranking=ranking
        )


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
        assert mine is theirs is calibration.noindex_telemetry(q)
    assert row_first["noindex_time_s"] == row_second["noindex_time_s"]
    # a private calibration executes the same no-index telemetry
    private = Environment(ground_truth, SEED)
    _, row_private = private.step(0, schedule[0], Configuration((a,)))
    assert row_private == row_first
