"""idxlab benchmark: one tuning workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload static-c8 --seed 108 --seconds 40 --trace 0

The program under test is imported from ``src/`` next to this directory. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, plus the tuning-quality numbers and the machine.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. See README.md in this directory.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
GOLDEN_PATH = HERE / "golden.json"

SETUP_REPEATS = 5
# Untraced passes a run makes even when the second overruns --seconds, so
# that no median rests on a single sample.
MIN_PASSES = 2

# name, unit, better. The end-to-end metrics are measured with tracing off.
# A `ref` is the wall time of one `reference_work()` in the same run: times
# in that unit cancel the swings of a shared host's speed (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_time", "ref", "lower"),
    ("tuner_time", "ref", "lower"),
    ("tuner_round_time.p50", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _import_program():
    package = ROOT / "src" / "idxlab" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no idxlab sources at {package.parent}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import idxlab

    if Path(idxlab.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported idxlab from {idxlab.__file__}, not from {package}")


_import_program()

import numpy as np  # noqa: E402
from idxlab import experiment, tuner as tuner_mod  # noqa: E402
from idxlab.catalog import CatalogSpec, generate_catalog  # noqa: E402
from idxlab.seeding import rng_for, subseed  # noqa: E402
from idxlab.simulator import make_ground_truth  # noqa: E402
from idxlab.tuner import OnlineTuner, TunerParams, overall_improvement  # noqa: E402
from idxlab.workload import (  # noqa: E402
    DriftSchedule,
    MiniWorkload,
    bind_query,
    build_schedule,
    generate_templates,
    save_schedule,
)

from tracer import Tracer  # noqa: E402

METHODS = ("tuner",) + tuner_mod.BASELINE_KINDS
LEAF_KINDS = ("SeqScan", "IndexScan", "IndexOnlyScan")


def _layer_metrics():
    out = []

    def add(name, unit, better):
        out.append((name, unit, better))

    for layer in (
        "simulator.whatif_plan",
        "correction.correct_plan",
        "costmodel.combined_uncertainty.gate",
        "costmodel.combined_uncertainty.probe",
        "costmodel.update",
        "correction.telemetry_to_labels",
        "simulator.execute",
        "selection.candidate_valuation",
        "plan.encode_operator",
    ):
        add(f"{layer}.calls", "count", "lower")
        add(f"{layer}.self_s", "s", "lower")
    add("simulator.whatif_plan.useful_ratio", "ratio", "higher")
    add("simulator.whatif_plan.repeat_ratio", "ratio", "lower")
    for what in ("leaves_scored", "leaves_corrected"):
        add(f"correction.correct_plan.{what}", "count", "lower")
        for kind in LEAF_KINDS:
            add(f"correction.correct_plan.{what}.{kind}", "count", "lower")
    add("correction.uncertainty_cache.hit_ratio", "ratio", "higher")
    add("costmodel.update.labels", "count", "lower")
    for kind in LEAF_KINDS:
        add(f"costmodel.update.labels.{kind}", "count", "lower")
    add("costmodel.update.steps", "count", "lower")
    add("correction.telemetry_to_labels.labels", "count", "lower")
    add("selection.generate_candidates.self_s", "s", "lower")
    add("selection.enumerate_configuration.self_s", "s", "lower")
    add("experiment.run_experiment.self_s", "s", "lower")
    for method in METHODS[1:]:
        add(f"{method}_s", "s", "lower")
    add("trace.tuner_s", "s", "lower")
    add("trace.overhead_s", "s", "lower")
    add("trace.valuation_share_of_tuner", "ratio", "lower")
    for method in METHODS:
        add(f"improvement.{method}", "ratio", "higher")
    return tuple(out)


PER_LAYER = _layer_metrics()
# Metrics whose values are counts or ratios of counts: identical on every
# traced run of the same inputs.
DETERMINISTIC = tuple(
    name for name, unit, _ in PER_LAYER if unit == "count" or name.endswith("_ratio")
) + tuple(f"improvement.{m}" for m in METHODS)

PARAMS = TunerParams()


def reference_work():
    """A fixed computation of about 15 ms that no idxlab change can speed up.

    An untraced run times it at the start of every method round. It mixes
    what a tuning round does: dict and tuple work in the interpreter, a
    sort, numpy products of the cost model's batch and layer shapes, and
    JSON encoding.
    """
    counts = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * 0.5
    ordered = sorted(counts.items(), key=lambda item: item[1])
    x = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    for _ in range(200):
        x = np.maximum(x @ w, 0.0) + 0.5
    return len(json.dumps(ordered)) + float(x.sum())


# -- workloads ---------------------------------------------------------------
#
# Each workload keeps the catalog, templates and hidden multipliers of its
# default seed, so every seed prices the same candidate set; ``--seed`` draws
# the bound queries and seeds the tuner and baselines. At the default seed a
# workload is exactly the scenario it is named after.


class StaticWorkload:
    """The acceptance criterion-8 scenario, optionally with hot queries.

    Its units are the three methods, each run on its own.
    """

    base_seed = 108
    rounds = 20
    units = METHODS
    fill_units = ("tuner",)

    def __init__(self, hot: bool):
        self.hot = hot

    def build(self, seed, rounds, workdir):
        base = self.base_seed
        catalog = generate_catalog(CatalogSpec(n_tables=8, rows_range=(1000, 100000)), base)
        templates = generate_templates(catalog, 20, base)
        sched = DriftSchedule(
            "static", total_rounds=rounds, templates_per_round=20, queries_per_template=3
        )
        schedule = build_schedule(templates, sched, seed)
        if self.hot:
            schedule = [MiniWorkload(round=w.round, queries=schedule[0].queries) for w in schedule]
        ground_truth = make_ground_truth(catalog, base, noise_sigma=0.05)
        return catalog, schedule, ground_truth

    def run_unit(self, unit, env, seed, workdir):
        catalog, schedule, ground_truth = env
        outcome = Outcome(len(schedule), (unit,))
        try:
            if unit == "tuner":
                tuner = OnlineTuner(catalog, ground_truth, PARAMS, seed=seed)
                rows = tuner.run(schedule)
            else:
                rows = tuner_mod.run_baseline(unit, catalog, ground_truth, schedule, PARAMS, seed=seed)
        except Exception:
            outcome.crashed(unit)
            return outcome
        outcome.rows[unit] = rows
        outcome.digests[f"metrics_{unit}"] = _sha256(json.dumps(rows, sort_keys=True))
        if unit == "tuner":
            outcome.configs = [
                [(ix.table, ix.key_columns) for ix in r.configuration.indexes] for r in tuner.reports
            ]
            payload = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in tuner.reports)
            outcome.digests["reports_tuner"] = _sha256(payload)
        return outcome


class DriftExperiment:
    """`run_experiment` over a periodically drifting workload, both baselines.

    Its one unit is the whole experiment, as a user runs it.
    """

    base_seed = 37
    rounds = 40
    units = ("experiment",)
    fill_units = ()

    def build(self, seed, rounds, workdir):
        base = self.base_seed
        catalog_seed = subseed(base, "catalog")
        catalog = generate_catalog(CatalogSpec(n_tables=4, rows_range=(1000, 50000)), catalog_seed)
        templates = generate_templates(catalog, 30, subseed(base, "workload"))
        sched = DriftSchedule(
            "periodic",
            total_rounds=rounds,
            templates_per_round=6,
            change_fraction=0.5,
            period=4,
            queries_per_template=8,
        )
        # The default seed's template sequence, with literals drawn from
        # ``seed`` exactly as build_schedule draws them.
        schedule = []
        for w in build_schedule(templates, sched, subseed(base, "workload")):
            rng = rng_for(subseed(seed, "workload"), "literals", w.round)
            queries = tuple(bind_query(q.template, rng, q.frequency_weight) for q in w.queries)
            schedule.append(MiniWorkload(round=w.round, queries=queries))
        workdir.mkdir(parents=True, exist_ok=True)
        schedule_file = workdir / "schedule.json"
        save_schedule(schedule, schedule_file)
        ground_truth_seed = subseed(base, "ground-truth")
        make_ground_truth(catalog, ground_truth_seed, noise_sigma=0.05)
        return {
            "catalog": {"n_tables": 4, "rows_range": [1000, 50000], "seed": catalog_seed},
            "workload": {"schedule_file": str(schedule_file), "total_rounds": rounds},
            "environment": {"noise_sigma": 0.05, "ground_truth_seed": ground_truth_seed},
            "baselines": list(tuner_mod.BASELINE_KINDS),
            "replications": [seed],
        }

    def run_unit(self, unit, cfg, seed, workdir):
        outcome = Outcome(cfg["workload"]["total_rounds"], METHODS)
        out_dir = workdir / "artifacts"
        try:
            manifest = experiment.run_experiment(cfg, out_dir=str(out_dir), jobs=1)
        except Exception:
            outcome.crashed(*METHODS)
            return outcome
        outcome.digests = dict(manifest["artifacts"])
        for method in METHODS:
            with open(out_dir / f"metrics_{method}_seed{seed}.csv", newline="") as f:
                outcome.rows[method] = [
                    {k: float(v) for k, v in row.items()} for row in csv.DictReader(f)
                ]
        with open(out_dir / f"reports_tuner_seed{seed}.jsonl") as f:
            outcome.configs = [
                [(ix["table"], tuple(ix["key_columns"])) for ix in json.loads(line)["configuration"]]
                for line in f
            ]
        shutil.rmtree(out_dir)
        return outcome


WORKLOADS = {
    "static-c8": StaticWorkload(hot=False),
    "static-hot": StaticWorkload(hot=True),
    "drift-exp": DriftExperiment(),
}


# -- output check ------------------------------------------------------------


class Outcome:
    """What one run of a unit produced, and which of its rounds failed a check."""

    def __init__(self, rounds, methods):
        self.rounds = rounds
        self.methods = methods
        self.rows = {}
        self.configs = None
        self.digests = {}
        self.failed = {}  # method -> set of failed round indexes

    def crashed(self, *methods):
        traceback.print_exc()
        for method in methods:
            self.failed[method] = set(range(self.rounds))

    def check_rounds(self):
        """Per-round invariants: budget respected, times positive, finite."""
        for method, rows in self.rows.items():
            bad = self.failed.setdefault(method, set())
            if len(rows) != self.rounds:
                bad.update(range(self.rounds))
            for t, row in enumerate(rows):
                if not (
                    row["exec_time_s"] > 0
                    and row["noindex_time_s"] > 0
                    and math.isfinite(row["improvement"])
                ):
                    bad.add(t)
        for t, config in enumerate(self.configs or ()):
            per_table = Counter(table for table, _ in config)
            if len(config) > PARAMS.max_indexes or any(
                n > PARAMS.per_table_cap for n in per_table.values()
            ):
                self.failed.setdefault("tuner", set()).add(t)

    def check_digests(self, expected, what):
        """A digest mismatch fails every round of the unit."""
        if self.digests == expected:
            return
        expected = expected or {}
        diff = sorted(k for k in set(expected) | set(self.digests) if expected.get(k) != self.digests.get(k))
        print(f"perfbench: output check failed: {what} differ in {', '.join(diff)}", file=sys.stderr)
        for method in self.methods:
            self.failed[method] = set(range(self.rounds))

    @property
    def attempted(self):
        return self.rounds * len(self.methods)

    @property
    def failed_rounds(self):
        return sum(len(rounds) for rounds in self.failed.values())


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden(path, workload, seed, rounds):
    with open(path) as f:
        entry = json.load(f).get(workload)
    if entry and entry["seed"] == seed and entry["rounds"] == rounds:
        return entry["digests"]
    return None


# -- measurement --------------------------------------------------------------


class Sample:
    """One run of one unit, with the spans recorded around it.

    Times in seconds leave out the reference runs. On an untraced run the
    ``*_time`` attributes hold the same times in refs.
    """

    def __init__(self, unit, outcome, tracer, seconds):
        self.unit = unit
        self.outcome = outcome
        self.tracer = tracer
        unit_refs = tracer.reference_seconds()
        self.seconds = seconds - sum(unit_refs)
        self.method_s = Counter()
        self.method_time = Counter()
        self.round_s, self.round_time = [], []
        for run in tracer.method_runs():
            rounds, refs = run["rounds"], run["refs"]
            self.method_s[run["method"]] += run["seconds"]
            self.round_s += rounds
            if refs:
                # A tuner round in the mean of the three references nearest
                # to it (the one timed at its start, the one before and the
                # one after): the host's speed changes within a run, and a
                # median over rounds feels that more than a sum does.
                # Baseline rounds have no span; they take the run's mean.
                round_time = [
                    t / statistics.fmean(refs[max(i - 1, 0) : i + 2]) for i, t in enumerate(rounds)
                ]
                rest_s = run["seconds"] - sum(rounds)
                self.method_time[run["method"]] += sum(round_time) + rest_s / statistics.fmean(refs)
                self.round_time += round_time
        # Each method in its own refs (their mean differs between the tuner
        # and the baselines), the rest of the unit in the unit's mean ref.
        self.time = None
        if unit_refs:
            rest_s = self.seconds - sum(self.method_s.values())
            self.time = sum(self.method_time.values()) + rest_s / statistics.fmean(unit_refs)


class Measurement:
    """Runs units of one workload and checks every output against the golden
    digests and against the unit's first run."""

    def __init__(self, workload, env, seed, workdir, golden):
        self.workload = workload
        self.env = env
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.samples = []
        self.passes = []  # wall seconds of each untraced pass over all units
        self.first_digests = {}
        self.slowest_s = {}
        self.peak_rss_mb = None

    def run(self, unit, layers):
        tracer = Tracer(layers=layers, reference=None if layers else reference_work)
        t0 = time.perf_counter()
        with tracer:
            outcome = self.workload.run_unit(unit, self.env, self.seed, self.workdir)
        sample = Sample(unit, outcome, tracer, time.perf_counter() - t0)
        outcome.check_rounds()
        if self.golden is not None:
            outcome.check_digests(self.golden.get(unit), "golden digests")
        if unit in self.first_digests:
            outcome.check_digests(self.first_digests[unit], "digests of the unit's first run")
        else:
            self.first_digests[unit] = outcome.digests
        self.samples.append(sample)
        self.slowest_s[unit] = max(self.slowest_s.get(unit, 0.0), sample.seconds)
        return sample

    def run_pass(self, layers):
        t0 = time.perf_counter()
        for unit in self.workload.units:
            self.run(unit, layers)
        if not layers:
            self.passes.append(time.perf_counter() - t0)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fill(self, deadline):
        """Spend the time left on further runs of the units that set the
        bounded metrics."""
        progressed = True
        while progressed:
            progressed = False
            for unit in self.workload.fill_units:
                if time.perf_counter() + self.slowest_s[unit] <= deadline:
                    self.run(unit, layers=False)
                    progressed = True

    def untraced(self):
        return [s for s in self.samples if not s.tracer.layers]

    def traced(self):
        return [s for s in self.samples if s.tracer.layers]

    def improvements(self):
        out = {}
        for sample in self.samples:
            for method, rows in sample.outcome.rows.items():
                out.setdefault(method, overall_improvement(rows))
        return out


def environment():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "commit": None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return info
    lines = git.stdout.split()
    if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        info["commit"] = lines[1]
    return info


def import_seconds():
    """Wall time of a fresh interpreter that imports what a run imports."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import idxlab.experiment, idxlab.tuner"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


def end_to_end_metrics(measurement, setup_s):
    """The bounded metrics in refs, and the same times in seconds beside them."""
    samples = measurement.untraced()
    units = measurement.workload.units

    def unit_median(unit, attr):
        return statistics.median([getattr(s, attr) for s in samples if s.unit == unit])

    def method_median(method, attr):
        return statistics.median([getattr(s, attr)[method] for s in samples if method in s.method_s])

    rounds_time = [t for s in samples for t in s.round_time]
    values = {
        "setup_s": setup_s,
        "run_time": sum(unit_median(unit, "time") for unit in units),
        "tuner_time": method_median("tuner", "method_time"),
        "tuner_round_time.p50": statistics.median(rounds_time),
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    rounds_s = [t for s in samples for t in s.round_s]
    refs = [t for s in samples for t in s.tracer.reference_seconds()]
    extra = {
        "reference_s.p50": statistics.median(refs),
        "run_s": sum(unit_median(unit, "seconds") for unit in units),
        "tuner_s": method_median("tuner", "method_s"),
        "tuner_round_s.p50": statistics.median(rounds_s),
    }
    for method in METHODS[1:]:
        extra[f"{method}_s"] = method_median(method, "method_s")
        extra[f"{method}_time"] = method_median(method, "method_time")
    extra["samples.rounds"] = len(rounds_s)
    extra["samples.references"] = len(refs)
    for method in METHODS:
        extra[f"samples.{method}_time"] = [s.method_time[method] for s in samples if method in s.method_s]
    if len(rounds_s) >= 100:
        extra["tuner_round_s.p90"] = statistics.quantiles(rounds_s, n=10)[-1]
        extra["tuner_round_time.p90"] = statistics.quantiles(rounds_time, n=10)[-1]
    return values, extra


def layer_metrics(measurement):
    """Per-layer numbers from the traced pass over every unit."""
    traced = measurement.traced()
    calls, self_s, counts = Counter(), Counter(), Counter()
    for sample in traced:
        sample_calls, sample_self_s = sample.tracer.self_times()
        calls.update(sample_calls)
        self_s.update(sample_self_s)
        counts.update(sample.tracer.counts)
        useful, repeated = sample.tracer.plan_counts()
        counts.update({"simulator.whatif_plan.useful": useful, "simulator.whatif_plan.repeats": repeated})
    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            values[name] = float(self_s[name[: -len(".self_s")]])
    n_plans = max(calls["simulator.whatif_plan"], 1)
    values["simulator.whatif_plan.useful_ratio"] = counts["simulator.whatif_plan.useful"] / n_plans
    values["simulator.whatif_plan.repeat_ratio"] = counts["simulator.whatif_plan.repeats"] / n_plans
    for prefix in (
        "correction.correct_plan.leaves_scored",
        "correction.correct_plan.leaves_corrected",
        "costmodel.update.labels",
    ):
        for kind in LEAF_KINDS:
            values[f"{prefix}.{kind}"] = counts[f"{prefix}.{kind}"]
        values[prefix] = sum(n for key, n in counts.items() if key.startswith(prefix + "."))
    scored = values["correction.correct_plan.leaves_scored"]
    values["correction.uncertainty_cache.hit_ratio"] = (
        1.0 - calls["costmodel.combined_uncertainty.gate"] / scored if scored else 0.0
    )
    values["costmodel.update.steps"] = counts["costmodel.update.steps"]
    values["correction.telemetry_to_labels.labels"] = counts["correction.telemetry_to_labels.labels"]

    untraced_s = Counter()
    for sample in measurement.untraced():
        untraced_s.update(sample.method_s)
    for method in METHODS[1:]:
        values[f"{method}_s"] = untraced_s[method]
    tuner_sample = next(s for s in traced if "tuner" in s.method_s)
    traced_tuner = tuner_sample.method_s["tuner"]
    values["trace.tuner_s"] = traced_tuner
    values["trace.overhead_s"] = traced_tuner - untraced_s["tuner"]
    # Planner self time plus the corrector's whole time, which holds the gate
    # and the corrector's own encode_operator calls. Only the tuner corrects.
    _, inside = tuner_sample.tracer.self_times(within="method.tuner")
    corrector_s = sum(tuner_sample.tracer.durations("correction.correct_plan"))
    values["trace.valuation_share_of_tuner"] = (inside["simulator.whatif_plan"] + corrector_s) / traced_tuner
    for method, value in measurement.improvements().items():
        values[f"improvement.{method}"] = value
    rankings = {"all methods": self_s, "inside the tuner run": inside}
    return {name: values[name] for name, _, _ in PER_LAYER}, rankings


def _write_round_table(path, samples):
    """Spans folded to (unit, name, round): calls and self seconds, one JSON line each."""
    with open(path, "w") as f:
        for sample in samples:
            calls, self_s = sample.tracer.self_times(by_round=True)
            for (name, round_id), n in sorted(calls.items()):
                row = {
                    "unit": sample.unit,
                    "name": name,
                    "round": round_id,
                    "calls": n,
                    "self_s": self_s[name, round_id],
                }
                f.write(json.dumps(row) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="defaults to the workload's own seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="truncate the workload (self-tests)")
    parser.add_argument("--golden", default=str(GOLDEN_PATH))
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.base_seed if args.seed is None else args.seed
    rounds = args.rounds or workload.rounds
    workdir = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}-pid{os.getpid()}"

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        env = workload.build(seed, rounds, workdir)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    golden = _golden(args.golden, args.workload, seed, rounds)
    measurement = Measurement(workload, env, seed, workdir, golden)
    deadline = time.perf_counter() + args.seconds
    measurement.run_pass(layers=False)
    if args.trace:
        measurement.run_pass(layers=True)
    else:
        while (
            len(measurement.passes) < MIN_PASSES
            or time.perf_counter() + max(measurement.passes) <= deadline
        ):
            measurement.run_pass(layers=False)
        measurement.fill(deadline)
    shutil.rmtree(workdir, ignore_errors=True)

    samples = measurement.samples
    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed_rounds for s in samples)
    correct = failed == 0
    info = environment()
    extra = {"failed_ratio": failed / attempted}
    metrics, units, rankings = {}, {}, {}
    if correct:
        if args.trace:
            metrics, rankings = layer_metrics(measurement)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, sampled = end_to_end_metrics(measurement, setup_s)
            units = {name: unit for name, unit, _ in END_TO_END}
            for method, value in measurement.improvements().items():
                extra[f"improvement.{method}"] = value
            extra.update(sampled)
    extra["digests"] = measurement.first_digests

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        _write_round_table(f"{stem}-rounds.jsonl", measurement.traced())
    with open(f"{stem}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": seed, "env": info, "metrics": metrics, "extra": extra}, f, indent=1)

    print(f"# workload {args.workload} seed {seed} rounds {rounds} trace {args.trace}")
    print(f"# env {json.dumps(info, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in extra.items():
        if name != "digests":
            print(f"{name} {value!r}")
    for title, self_s in rankings.items():
        print(f"# self time by span, traced pass, {title}:")
        for name, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
            print(f"#   {name:<40} {seconds:9.4f} s")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
