"""Experiment harness: config files, replications, artifacts, and replay.

A config is a single JSON (or TOML) file; every field has a default, so a
minimal config is a handful of lines. One experiment runs the tuner and the
requested baselines once per replication seed, each seed and baseline kind
listed once. A replication's methods share its no-index calibration, and its
baselines read each round's raw ranking from the tuner's valuation, so each
query is calibrated once and each (query, candidate) pair planned once;
every method's results are those it gets alone. The experiment writes
per-replication metrics CSVs, tuner round reports as JSON lines, per-method
plot TSVs, a summary table, and a manifest (config hash, seeds, the sha256
of each artifact's bytes) from which the whole run can be replayed
byte-identically. The manifest also records what the artifacts depend on
beyond the config: the numpy version, its BLAS build, and the sha256 of a
schedule file, so a replay that diverges can say why.
"""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import statistics

import numpy as np

from . import __version__
from .catalog import CatalogSpec, generate_catalog
from .errors import (
    FIELDS,
    ConfigurationError,
    ReplayMismatchError,
    read_json_object,
    read_text,
    require_integer,
)
from .seeding import subseed
from .simulator import make_ground_truth
from .tuner import (
    BASELINE_KINDS,
    METRIC_FIELDS,
    Calibration,
    OnlineTuner,
    TunerParams,
    overall_improvement,
    run_baseline,
)
from .workload import DriftSchedule, build_schedule, generate_templates, load_schedule

MANIFEST_FORMAT = 1
SUMMARY_FIELDS = ("method", "mean_improvement", "stdev_improvement", "n_replications")


def _default_config() -> dict:
    """Every field of the table at its default, nested by section, and the
    baselines list: both baseline kinds."""
    config = {}
    for path, row in FIELDS.items():
        section, _, key = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = row.default
    config["baselines"] = list(BASELINE_KINDS)
    return config


DEFAULT_CONFIG = _default_config()


def _deep_merge(base: dict, override: dict, path="") -> dict:
    """``override`` over ``base``, copying each nested table, so that editing
    the result never edits ``base``."""
    for key in override:
        if key not in base:
            where = f"{path}.{key}" if path else key
            raise ConfigurationError(f"unknown config key {where!r}")
    out = {}
    for key, default in base.items():
        value = override.get(key, default)
        if isinstance(default, dict):
            where = f"{path}.{key}" if path else key
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {where!r} must be a table")
            value = _deep_merge(default, value, where)
        out[key] = value
    return out


def load_config_file(path) -> dict:
    """Parse a JSON or TOML config file into a raw dict."""
    if not str(path).endswith(".toml"):
        return read_json_object(path, "config file")
    text = read_text(path, "config file")
    try:
        import tomllib as toml
    except ImportError:
        try:
            import tomli as toml
        except ImportError:
            raise ConfigurationError(
                "TOML support needs Python >= 3.11 or the tomli package"
            ) from None
    try:
        return toml.loads(text)
    except toml.TOMLDecodeError as exc:
        raise ConfigurationError(f"config file {path}: {exc}") from None


def resolve_config(user_config: dict) -> dict:
    """Apply defaults and validate; returns the fully resolved config dict."""
    cfg = _deep_merge(DEFAULT_CONFIG, user_config)
    for path, row in FIELDS.items():
        section, _, key = path.rpartition(".")
        row.check((cfg[section] if section else cfg)[key])
    baselines = cfg["baselines"]
    if not isinstance(baselines, (list, tuple)):
        raise ConfigurationError(
            f"baselines must be a list of method kinds, got {baselines!r}"
        )
    for kind in baselines:
        if kind not in BASELINE_KINDS:
            raise ConfigurationError(f"baselines: unknown kind {kind!r}")
    # a repeated method or seed would run twice and count as two results
    for path in ("baselines", "replications"):
        items = cfg[path]
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ConfigurationError(f"{path}: {item!r} is listed twice")
    budget = cfg["budget"]
    if budget["mode"] == "storage" and budget["storage_bytes"] is None:
        raise ConfigurationError(
            "budget.storage_bytes must be an integer >= 1 in storage mode, got None"
        )
    return cfg


def _section(cls, section: dict):
    """``cls`` built from the fields of a config section it names."""
    return cls(**{name: section[name] for name in cls.__dataclass_fields__})


def _tuner_params(cfg) -> TunerParams:
    budget = cfg["budget"]
    return TunerParams(
        **cfg["tuner"],
        max_indexes=budget["max_indexes"],
        storage_budget_bytes=(
            budget["storage_bytes"] if budget["mode"] == "storage" else None
        ),
    )


def _environment(cfg, replication_seed):
    """Catalog, schedule, and ground truth for one replication."""
    cat_seed = cfg["catalog"]["seed"]
    if cat_seed is None:
        cat_seed = subseed(replication_seed, "catalog")
    catalog = generate_catalog(_section(CatalogSpec, cfg["catalog"]), cat_seed)

    if cfg["workload"]["schedule_file"] is not None:
        schedule = load_schedule(cfg["workload"]["schedule_file"], catalog)
    else:
        wl_seed = cfg["workload"]["seed"]
        if wl_seed is None:
            wl_seed = subseed(replication_seed, "workload")
        templates = generate_templates(
            catalog, cfg["workload"]["n_templates"], wl_seed
        )
        sched = _section(DriftSchedule, cfg["workload"])
        schedule = build_schedule(templates, sched, wl_seed)

    gt_seed = cfg["environment"]["ground_truth_seed"]
    if gt_seed is None:
        gt_seed = subseed(replication_seed, "ground-truth")
    ground_truth = make_ground_truth(
        catalog, gt_seed, cfg["environment"]["noise_sigma"]
    )
    return catalog, schedule, ground_truth


def run_replication(cfg: dict, replication_seed: int) -> dict:
    """All methods for one replication seed; returns their metrics logs.

    The methods share one `Calibration`, so each query is calibrated once,
    and the baselines read each round's raw what-if ranking that the tuner's
    valuation recorded in it, pricing nothing; the results equal those of
    each method run alone.
    """
    catalog, schedule, ground_truth = _environment(cfg, replication_seed)
    params = _tuner_params(cfg)
    calibration = Calibration(ground_truth, replication_seed)
    tuner = OnlineTuner(catalog, ground_truth, params, replication_seed, calibration)
    tuner.run(schedule)
    out = {
        "seed": replication_seed,
        "methods": {"tuner": tuner.metrics},
        "reports": [r.to_dict() for r in tuner.reports],
    }
    for kind in cfg["baselines"]:
        out["methods"][kind] = run_baseline(
            kind, catalog, ground_truth, schedule, params, replication_seed,
            calibration,
        )
    return out


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_atomic(path, data: bytes) -> None:
    """Make ``path`` hold ``data`` through a rename, unless it holds them
    already: a rename over an existing file can take tens of milliseconds,
    and a re-run into the same directory rewrites every artifact."""
    try:
        with open(path, "rb") as f:
            if f.read() == data:
                return
    except FileNotFoundError:
        pass
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _csv_bytes(fields, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_value(row[k]) for k in fields])
    return buf.getvalue().encode("utf-8")


def _summary_rows(results) -> list:
    methods = sorted({m for r in results for m in r["methods"]})
    rows = []
    for method in methods:
        improvements = [
            overall_improvement(r["methods"][method]) for r in results
        ]
        mean = statistics.fmean(improvements)
        stdev = statistics.stdev(improvements) if len(improvements) > 1 else 0.0
        rows.append(
            {
                "method": method,
                "mean_improvement": mean,
                "stdev_improvement": stdev,
                "n_replications": len(improvements),
            }
        )
    return rows


def _plot_bytes(series) -> bytes:
    """A gnuplot-ready TSV of one method's (round, improvement) rows."""
    if not series:
        raise ConfigurationError("plot series must be nonempty")
    rows = "".join(f"{r}\t{_format_value(v)}\n" for r, v in enumerate(series))
    return rows.encode("utf-8")


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _runtime() -> dict:
    """The numeric stack the artifact bytes depend on: numpy and its BLAS."""
    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def run_experiment(config: dict, out_dir=None, jobs: int = 1) -> dict:
    """Run a full experiment from a config dict, which `resolve_config`
    checks; returns the manifest."""
    cfg = resolve_config(config)
    require_integer(jobs, "jobs")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    out_dir = out_dir or cfg["output_dir"]
    seeds = list(cfg["replications"])
    schedule_file = cfg["workload"]["schedule_file"]
    schedule_sha256 = None if schedule_file is None else _sha256_file(schedule_file)

    # a pool starts all its workers at once, so never more than there is
    # work, nor more than there are CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(seeds), cpus)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_replication, [cfg] * len(seeds), seeds))
    else:
        results = [run_replication(cfg, s) for s in seeds]

    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}  # file name -> sha256 of its bytes

    def write(name, data: bytes) -> None:
        _write_atomic(os.path.join(out_dir, name), data)
        artifacts[name] = hashlib.sha256(data).hexdigest()

    for res in results:
        for method, rows in sorted(res["methods"].items()):
            name = f"metrics_{method}_seed{res['seed']}.csv"
            write(name, _csv_bytes(METRIC_FIELDS, rows))
        payload = "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in res["reports"]
        )
        write(f"reports_tuner_seed{res['seed']}.jsonl", payload.encode("utf-8"))

    summary = _summary_rows(results)
    write("summary.csv", _csv_bytes(SUMMARY_FIELDS, summary))

    # every replication runs the same methods over the same number of rounds
    for method in sorted(results[0]["methods"]):
        per_round = [
            statistics.fmean(row["improvement"] for row in rows)
            for rows in zip(*(r["methods"][method] for r in results))
        ]
        write(f"plot_{method}.tsv", _plot_bytes(per_round))

    manifest = {
        "format": MANIFEST_FORMAT,
        "package_version": __version__,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "seeds": seeds,
        "artifacts": artifacts,
        "summary": summary,
        "runtime": _runtime(),
    }
    if schedule_sha256 is not None:
        manifest["schedule_sha256"] = schedule_sha256
    _write_atomic(
        os.path.join(out_dir, "manifest.json"),
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    return manifest


def replay(manifest_path, out_dir=None, jobs: int = 1) -> dict:
    """Re-run an experiment from its manifest and check that every artifact
    is byte-identical; raises `ReplayMismatchError` naming those that are not."""
    manifest = read_json_object(manifest_path, "manifest")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigurationError(
            f"manifest {manifest_path}: unsupported format "
            f"{manifest.get('format')!r}, expected {MANIFEST_FORMAT}"
        )
    missing = [
        key
        for key in ("config", "config_sha256", "seeds", "artifacts")
        if key not in manifest
    ]
    if missing:
        raise ConfigurationError(
            f"manifest {manifest_path}: missing key(s) {', '.join(missing)}"
        )
    for key in ("config", "artifacts"):
        if not isinstance(manifest[key], dict):
            raise ConfigurationError(
                f"manifest {manifest_path}: {key} must be an object"
            )
    cfg = manifest["config"]
    if _config_hash(cfg) != manifest["config_sha256"]:
        raise ConfigurationError(f"manifest {manifest_path}: config hash mismatch")
    out_dir = out_dir or f"{os.path.dirname(os.path.abspath(manifest_path))}_replay"
    cfg = dict(cfg)
    cfg["replications"] = manifest["seeds"]
    replayed = run_experiment(cfg, out_dir=out_dir, jobs=jobs)
    recorded, produced = manifest["artifacts"], replayed["artifacts"]
    divergent = sorted(
        name
        for name in set(recorded) | set(produced)
        if recorded.get(name) != produced.get(name)
    )
    if divergent:
        raise ReplayMismatchError(
            "; ".join(
                _input_changes(manifest, replayed)
                + ["artifacts differ from the manifest: " + " ".join(divergent)]
            )
        )
    return replayed


def _input_changes(recorded: dict, replayed: dict) -> list:
    """What the replay ran with that differs from what the manifest records:
    the numpy version, the BLAS build, or the schedule file's bytes."""
    changes = []
    runtime = recorded.get("runtime")
    if isinstance(runtime, dict):
        for key, now in replayed["runtime"].items():
            if key in runtime and runtime[key] != now:
                changes.append(f"{key} was {runtime[key]}, is {now}")
    then = recorded.get("schedule_sha256")
    if then is not None and then != replayed.get("schedule_sha256"):
        path = replayed["config"]["workload"]["schedule_file"]
        changes.append(f"schedule file {path} changed since the run")
    return changes


def compare(dirs) -> list:
    """Merge summary.csv rows from several experiment directories; a file
    that is not UTF-8 CSV with every summary column is a ConfigurationError."""
    rows = []
    for d in dirs:
        path = os.path.join(d, "summary.csv")
        with open(path, encoding="utf-8") as f:
            try:
                reader = csv.DictReader(f)
                header = reader.fieldnames or ()
                missing = [c for c in SUMMARY_FIELDS if c not in header]
                if missing:
                    raise ConfigurationError(
                        f"{path}: not a summary file, no column {missing[0]!r}"
                    )
                for row in reader:
                    row["directory"] = d
                    rows.append(row)
            except UnicodeDecodeError:
                raise ConfigurationError(f"{path}: not UTF-8 text") from None
            except csv.Error as exc:
                raise ConfigurationError(f"{path}: {exc}") from None
    return rows
