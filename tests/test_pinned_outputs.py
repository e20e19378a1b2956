"""Tier-1 pins the outputs of the default benchmark scenario, static-c8.

static-c8 is acceptance criterion 8's scenario at seed 108: 8 tables, 20
templates, a static schedule of 20 rounds of 3 queries per template, run by
the tuner and both baselines. The test runs this module as a script in its
own interpreter, with BLAS pinned to one thread, and hashes each method's
metrics log and the tuner's round reports as perfbench/run.py does.
`pinned_outputs.json` holds those four digests and the numeric stack they
were made under (`experiment._runtime()`: numpy and its BLAS). A change that
alters an output on purpose re-pins that file and names each digest it
changes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.experiment import _runtime
from idxlab.simulator import make_ground_truth
from idxlab.tuner import BASELINE_KINDS, OnlineTuner, TunerParams, run_baseline
from idxlab.workload import DriftSchedule, build_schedule, generate_templates

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).with_name("pinned_outputs.json")
SEED = 108


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_outputs() -> dict:
    """The numeric stack and the four output digests of static-c8."""
    catalog = generate_catalog(CatalogSpec(n_tables=8, rows_range=(1000, 100000)), SEED)
    templates = generate_templates(catalog, 20, SEED)
    sched = DriftSchedule(
        "static", total_rounds=20, templates_per_round=20, queries_per_template=3
    )
    schedule = build_schedule(templates, sched, SEED)
    ground_truth = make_ground_truth(catalog, SEED, noise_sigma=0.05)
    tuner = OnlineTuner(catalog, ground_truth, TunerParams(), seed=SEED)
    rows = tuner.run(schedule)
    reports = "".join(
        json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in tuner.reports
    )
    digests = {
        "metrics_tuner": _sha256(json.dumps(rows, sort_keys=True)),
        "reports_tuner": _sha256(reports),
    }
    for kind in BASELINE_KINDS:
        rows = run_baseline(
            kind, catalog, ground_truth, schedule, TunerParams(), seed=SEED
        )
        digests[f"metrics_{kind}"] = _sha256(json.dumps(rows, sort_keys=True))
    return {"runtime": _runtime(), "digests": digests}


def test_static_c8_outputs_equal_their_pins():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert got["runtime"] == pinned["runtime"], (
        f"the pins were made under {pinned['runtime']}, and this run used "
        f"{got['runtime']}: BLAS sums, and so the digests, may differ between "
        "numeric stacks"
    )
    assert got["digests"] == pinned["digests"]


if __name__ == "__main__":
    print(json.dumps(scenario_outputs(), sort_keys=True))
