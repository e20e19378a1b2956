"""Self-tests of the benchmark harness, on workloads truncated to two rounds.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static-c8", "static-hot", "drift-exp")

with open(ROOT / "BENCHMARK.json") as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--rounds", "2", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


_runs = {}


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    return run


def traced_run(workload, attempt):
    key = (workload, attempt)
    if key not in _runs:
        _runs[key] = bench("--workload", workload, "--trace", "1")
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_named_metric(workload, trace):
    if trace:
        code, result = traced_run(workload, 0)
        expected = SPEC["per_layer"]
    else:
        code, result = bench("--workload", workload, "--trace", "0")
        expected = SPEC["end_to_end"]
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * 3  # two rounds of three methods, at least once
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def test_wrong_golden_digest_is_a_failure(tmp_path):
    golden = tmp_path / "golden.json"
    wrong = {
        "tuner": {"metrics_tuner": "0" * 64, "reports_tuner": "0" * 64},
        "whatif_greedy": {"metrics_whatif_greedy": "0" * 64},
        "plain_epsilon_greedy": {"metrics_plain_epsilon_greedy": "0" * 64},
    }
    golden.write_text(json.dumps({"static-c8": {"seed": 108, "rounds": 2, "digests": wrong}}))
    code, result = bench("--workload", "static-c8", "--trace", "0", "--golden", str(golden))
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload, harness):
    first, second = traced_run(workload, 0)[1], traced_run(workload, 1)[1]
    for name in harness.DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_matches_the_harness(harness):
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    code, result = bench("--workload", "static-c8", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
