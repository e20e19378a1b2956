"""Experiment harness: config files, replications, artifacts, and replay.

A config is a single JSON (or TOML) file; every field has a default, so a
minimal config is a handful of lines. One experiment runs the tuner and the
requested baselines once per replication seed, writes per-replication metrics
CSVs, tuner round reports as JSON lines, per-method plot TSVs, a summary
table, and a manifest (config hash, seeds, artifact checksums) from which the
whole run can be replayed byte-identically. The manifest also records what
the artifacts depend on beyond the config: the numpy version, its BLAS build,
and the sha256 of a schedule file, so a replay that diverges can say why.
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
    CatalogLookupError,
    ConfigurationError,
    ReplayMismatchError,
    require_finite,
    require_integer,
)
from .seeding import subseed
from .simulator import make_ground_truth
from .tuner import (
    BASELINE_KINDS,
    METRIC_FIELDS,
    OnlineTuner,
    TunerParams,
    overall_improvement,
    run_baseline,
)
from .workload import DriftSchedule, build_schedule, generate_templates, load_schedule

MANIFEST_FORMAT = 1
SUMMARY_FIELDS = ("method", "mean_improvement", "stdev_improvement", "n_replications")
# execution noise factors are exp(sigma * z) with z standard normal; at a
# sigma far above this one they overflow, and observed benefits with them
MAX_NOISE_SIGMA = 10.0

DEFAULT_CONFIG = {
    "catalog": {
        "n_tables": 4,
        "rows_range": [1000, 50000],
        "cols_per_table_range": [3, 6],
        "string_column_fraction": 0.25,
        "seed": None,
    },
    "workload": {
        "n_templates": 12,
        "kind": "static",
        "total_rounds": 10,
        "templates_per_round": 8,
        "change_fraction": 0.2,
        "period": 4,
        "cycle_length": 15,
        "queries_per_template": 3,
        "seed": None,
        "schedule_file": None,
    },
    "environment": {"noise_sigma": 0.05, "ground_truth_seed": None},
    "tuner": {
        "uncertainty_threshold": 0.1,
        "uncertainty_mix": 0.5,
        "explore_init": 0.5,
        "explore_decay": 0.9,
        "mcd_passes": 20,
        "epsilon": 0.1,
        "per_table_cap": 3,
    },
    "budget": {"mode": "count", "max_indexes": 8, "storage_bytes": None},
    "baselines": ["whatif_greedy", "plain_epsilon_greedy"],
    "output_dir": "out",
    "replications": [1],
}


# Scalars type-checked at resolve time (numbers must be finite); one whose
# default is null may stay null. The gate parameters are checked by TunerParams.
_INTEGER_FIELDS = """catalog.n_tables catalog.seed workload.n_templates
    workload.total_rounds workload.templates_per_round workload.period
    workload.cycle_length workload.queries_per_template workload.seed
    environment.ground_truth_seed tuner.per_table_cap budget.max_indexes""".split()
_NUMBER_FIELDS = """catalog.string_column_fraction workload.change_fraction
    environment.noise_sigma tuner.explore_init tuner.explore_decay tuner.epsilon
    budget.storage_bytes""".split()


def _deep_merge(base: dict, override: dict, path="") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {where!r} must be a table")
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config_file(path) -> dict:
    """Parse a JSON or TOML config file into a raw dict."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not UTF-8 text") from None
    if str(path).endswith(".toml"):
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
            raise ConfigurationError(f"{path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"{path}: not a JSON object")
    return config


def resolve_config(user_config: dict) -> dict:
    """Apply defaults and validate; returns the fully resolved config dict."""
    cfg = _deep_merge(DEFAULT_CONFIG, user_config)
    for fields, check in (
        (_INTEGER_FIELDS, require_integer),
        (_NUMBER_FIELDS, require_finite),
    ):
        for name in fields:
            section, key = name.split(".")
            value = cfg[section][key]
            if value is not None or DEFAULT_CONFIG[section][key] is not None:
                check(value, name)
    sigma = cfg["environment"]["noise_sigma"]
    if not 0 <= sigma <= MAX_NOISE_SIGMA:
        raise ConfigurationError(
            f"environment.noise_sigma must lie in [0, {MAX_NOISE_SIGMA}], "
            f"got {sigma!r}"
        )
    seeds = cfg["replications"]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigurationError(
            f"replications must be a nonempty list of integers, got {seeds!r}"
        )
    for seed in seeds:
        require_integer(seed, "replications")
    # numpy seeds a catalog from this value directly, and rejects negatives
    if cfg["catalog"]["seed"] is not None and cfg["catalog"]["seed"] < 0:
        raise ConfigurationError(
            f"catalog.seed must be >= 0, got {cfg['catalog']['seed']!r}"
        )
    baselines = cfg["baselines"]
    if not isinstance(baselines, (list, tuple)):
        raise ConfigurationError(
            f"baselines must be a list of method kinds, got {baselines!r}"
        )
    for kind in baselines:
        if kind not in BASELINE_KINDS:
            raise ConfigurationError(f"baselines: unknown kind {kind!r}")
    mode = cfg["budget"]["mode"]
    if mode not in ("count", "storage"):
        raise ConfigurationError("budget.mode must be 'count' or 'storage'")
    if mode == "storage" and not cfg["budget"]["storage_bytes"]:
        raise ConfigurationError("budget.storage_bytes required in storage mode")
    if cfg["workload"]["kind"] not in ("static", "continuous", "periodic", "cyclic"):
        raise ConfigurationError("workload.kind must be a drift kind")
    # instantiating the dataclasses surfaces the remaining range errors early
    _catalog_spec(cfg)
    _tuner_params(cfg)
    if cfg["workload"]["schedule_file"] is None:
        _drift_schedule(cfg)
    return cfg


def _catalog_spec(cfg) -> CatalogSpec:
    c = cfg["catalog"]
    for name in ("rows_range", "cols_per_table_range"):
        pair = c[name]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigurationError(f"catalog.{name} must be a [low, high] pair")
        for value in pair:
            require_integer(value, f"catalog.{name}")
    return CatalogSpec(
        n_tables=c["n_tables"],
        rows_range=tuple(c["rows_range"]),
        cols_per_table_range=tuple(c["cols_per_table_range"]),
        string_column_fraction=c["string_column_fraction"],
    )


def _drift_schedule(cfg) -> DriftSchedule:
    w = cfg["workload"]
    return DriftSchedule(
        kind=w["kind"],
        total_rounds=w["total_rounds"],
        templates_per_round=w["templates_per_round"],
        change_fraction=w["change_fraction"],
        period=w["period"],
        cycle_length=w["cycle_length"],
        queries_per_template=w["queries_per_template"],
    )


def _tuner_params(cfg) -> TunerParams:
    t = cfg["tuner"]
    storage = None
    if cfg["budget"]["mode"] == "storage":
        storage = int(cfg["budget"]["storage_bytes"])
    return TunerParams(
        uncertainty_threshold=t["uncertainty_threshold"],
        uncertainty_mix=t["uncertainty_mix"],
        explore_init=t["explore_init"],
        explore_decay=t["explore_decay"],
        mcd_passes=t["mcd_passes"],
        max_indexes=cfg["budget"]["max_indexes"],
        storage_budget_bytes=storage,
        per_table_cap=t["per_table_cap"],
        epsilon=t["epsilon"],
    )


def _load_schedule(path, catalog) -> list:
    """A schedule file of at least one round whose every template and query
    resolves against ``catalog``."""
    schedule = load_schedule(path)
    if not schedule:
        raise ConfigurationError(f"schedule file {path}: no rounds")
    valid_templates = set()
    for w in schedule:
        for q in w.queries:
            try:
                if q.template_id not in valid_templates:
                    q.template.validate(catalog)
                    valid_templates.add(q.template_id)
                q.validate(catalog)
            except (CatalogLookupError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"schedule file {path}: round {w.round}: "
                    f"template {q.template_id!r}: {exc.args[0]}"
                ) from None
    return schedule


def _environment(cfg, replication_seed):
    """Catalog, schedule, and ground truth for one replication."""
    cat_seed = cfg["catalog"]["seed"]
    if cat_seed is None:
        cat_seed = subseed(replication_seed, "catalog")
    catalog = generate_catalog(_catalog_spec(cfg), cat_seed)

    if cfg["workload"]["schedule_file"]:
        schedule = _load_schedule(cfg["workload"]["schedule_file"], catalog)
    else:
        wl_seed = cfg["workload"]["seed"]
        if wl_seed is None:
            wl_seed = subseed(replication_seed, "workload")
        templates = generate_templates(
            catalog, cfg["workload"]["n_templates"], wl_seed
        )
        schedule = build_schedule(templates, _drift_schedule(cfg), wl_seed)

    gt_seed = cfg["environment"]["ground_truth_seed"]
    if gt_seed is None:
        gt_seed = subseed(replication_seed, "ground-truth")
    ground_truth = make_ground_truth(
        catalog, gt_seed, cfg["environment"]["noise_sigma"]
    )
    return catalog, schedule, ground_truth


def run_replication(cfg: dict, replication_seed: int) -> dict:
    """All methods for one replication seed; returns their metrics logs."""
    catalog, schedule, ground_truth = _environment(cfg, replication_seed)
    params = _tuner_params(cfg)
    tuner = OnlineTuner(catalog, ground_truth, params, seed=replication_seed)
    tuner.run(schedule)
    out = {
        "seed": replication_seed,
        "methods": {"tuner": tuner.metrics},
        "reports": [r.to_dict() for r in tuner.reports],
    }
    for kind in cfg["baselines"]:
        out["methods"][kind] = run_baseline(
            kind, catalog, ground_truth, schedule, params, seed=replication_seed
        )
    return out


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_atomic(path, data: bytes) -> None:
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


def emit_plot_data(per_round_improvements: dict, out_dir) -> list:
    """One gnuplot-ready TSV per method with (round, improvement) rows."""
    paths = []
    for method, series in sorted(per_round_improvements.items()):
        if not series:
            raise ConfigurationError("plot series must be nonempty")
        lines = [f"{r}\t{_format_value(v)}" for r, v in enumerate(series)]
        path = os.path.join(out_dir, f"plot_{method}.tsv")
        _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
        paths.append(path)
    return paths


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


def run_experiment(config, out_dir=None, jobs: int = 1) -> dict:
    """Run a full experiment from a config path or dict; returns the manifest."""
    if isinstance(config, (str, os.PathLike)):
        cfg = resolve_config(load_config_file(config))
    else:
        cfg = resolve_config(config)
    require_integer(jobs, "jobs")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    out_dir = out_dir or cfg["output_dir"]
    seeds = list(cfg["replications"])
    schedule_file = cfg["workload"]["schedule_file"]
    schedule_sha256 = _sha256_file(schedule_file) if schedule_file else None

    # a pool starts all its workers at once, so never more than there is work
    workers = min(jobs, len(seeds))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_replication, [cfg] * len(seeds), seeds))
    else:
        results = [run_replication(cfg, s) for s in seeds]

    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}
    for res in results:
        for method, rows in sorted(res["methods"].items()):
            name = f"metrics_{method}_seed{res['seed']}.csv"
            _write_atomic(os.path.join(out_dir, name), _csv_bytes(METRIC_FIELDS, rows))
            artifacts[name] = None
        name = f"reports_tuner_seed{res['seed']}.jsonl"
        payload = "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in res["reports"]
        )
        _write_atomic(os.path.join(out_dir, name), payload.encode("utf-8"))
        artifacts[name] = None

    summary = _summary_rows(results)
    _write_atomic(
        os.path.join(out_dir, "summary.csv"), _csv_bytes(SUMMARY_FIELDS, summary)
    )
    artifacts["summary.csv"] = None

    per_round = {}
    for method in sorted({m for r in results for m in r["methods"]}):
        n_rounds = max(len(r["methods"][method]) for r in results)
        series = []
        for t in range(n_rounds):
            vals = [
                r["methods"][method][t]["improvement"]
                for r in results
                if t < len(r["methods"][method])
            ]
            series.append(statistics.fmean(vals))
        per_round[method] = series
    for path in emit_plot_data(per_round, out_dir):
        artifacts[os.path.basename(path)] = None

    for name in artifacts:
        artifacts[name] = _sha256_file(os.path.join(out_dir, name))
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
    with open(manifest_path, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except UnicodeDecodeError:
            raise ConfigurationError(
                f"manifest {manifest_path}: not UTF-8 text"
            ) from None
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"manifest {manifest_path}: not a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigurationError("unsupported manifest format")
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
        raise ConfigurationError("manifest config hash mismatch")
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
