import concurrent.futures
import csv
import hashlib
import importlib.util
import json
import os
import pkgutil
import re
import statistics

import numpy as np
import pytest

import idxlab
from idxlab.cli import EXIT_REPLAY, main
from idxlab.errors import FIELDS, MAX_EXPLORE_INIT, ConfigurationError
from idxlab.experiment import (
    _plot_bytes,
    load_config_file,
    replay,
    resolve_config,
    run_experiment,
)
from idxlab.tuner import TunerParams

NAN, INF = float("nan"), float("inf")

SMALL_CONFIG = {
    "catalog": {"n_tables": 2, "rows_range": [1000, 5000]},
    "workload": {
        "n_templates": 6,
        "total_rounds": 3,
        "templates_per_round": 4,
        "queries_per_template": 2,
    },
    "tuner": {"mcd_passes": 5},
    "replications": [1],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_minimal_run_produces_artifacts(tmp_path):
    out = tmp_path / "out"
    manifest = run_experiment(SMALL_CONFIG, out_dir=str(out))
    names = set(os.listdir(out))
    assert "manifest.json" in names
    assert "summary.csv" in names
    assert "metrics_tuner_seed1.csv" in names
    assert "metrics_whatif_greedy_seed1.csv" in names
    assert "metrics_plain_epsilon_greedy_seed1.csv" in names
    assert "reports_tuner_seed1.jsonl" in names
    assert "plot_tuner.tsv" in names
    assert set(manifest["artifacts"]) <= names
    with open(out / "metrics_tuner_seed1.csv") as f:
        header = f.readline().strip().split(",")
    assert header == [
        "round",
        "exec_time_s",
        "noindex_time_s",
        "improvement",
        "n_new_indexes",
        "creation_s",
        "mean_uncertainty",
    ]
    with open(out / "reports_tuner_seed1.jsonl") as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == 3
    assert {"round", "configuration", "per_query_benefits"} <= set(lines[0])


def test_identical_config_identical_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(SMALL_CONFIG, out_dir=str(a))
    run_experiment(SMALL_CONFIG, out_dir=str(b))
    for name in os.listdir(a):
        if name == "manifest.json":
            continue  # embeds the output-independent config only; compare too
        assert read_bytes(a / name) == read_bytes(b / name), name


def test_a_rerun_into_the_same_directory_renames_nothing(tmp_path, monkeypatch):
    renamed = []
    rename = os.replace

    def counted(src, dst):
        renamed.append(os.path.basename(dst))
        return rename(src, dst)

    monkeypatch.setattr("idxlab.experiment.os.replace", counted)
    out = tmp_path / "out"
    run_experiment(SMALL_CONFIG, out_dir=str(out))
    names = sorted(os.listdir(out))
    assert sorted(renamed) == names  # a fresh directory: one rename per file
    before = {name: read_bytes(out / name) for name in names}

    renamed.clear()
    run_experiment(SMALL_CONFIG, out_dir=str(out))
    assert renamed == []
    assert {name: read_bytes(out / name) for name in os.listdir(out)} == before

    # a file that differs from what the run makes is still replaced
    (out / "summary.csv").write_bytes(b"stale")
    run_experiment(SMALL_CONFIG, out_dir=str(out))
    assert renamed == ["summary.csv"]
    assert read_bytes(out / "summary.csv") == before["summary.csv"]


def test_replay_reproduces_every_csv_byte(tmp_path):
    out = tmp_path / "out"
    run_experiment(SMALL_CONFIG, out_dir=str(out))
    replay_dir = tmp_path / "replayed"
    replay(str(out / "manifest.json"), out_dir=str(replay_dir))
    for name in os.listdir(out):
        if name.endswith(".csv") or name.endswith(".tsv") or name.endswith(".jsonl"):
            assert read_bytes(out / name) == read_bytes(replay_dir / name), name


@pytest.fixture(scope="module")
def two_replications(tmp_path_factory):
    """An experiment over replications 1 and 2: (out dir, manifest)."""
    out = tmp_path_factory.mktemp("two") / "out"
    manifest = run_experiment({**SMALL_CONFIG, "replications": [1, 2]}, str(out))
    return out, manifest


def test_manifest_checksums_match_the_files_on_disk(two_replications):
    out, manifest = two_replications
    written = set(os.listdir(out)) - {"manifest.json"}
    assert set(manifest["artifacts"]) == written
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256(read_bytes(out / name)).hexdigest() == digest, name


def test_plot_rows_are_the_mean_over_replications(two_replications):
    out, manifest = two_replications
    methods = ("tuner", *manifest["config"]["baselines"])
    for method in methods:
        columns = []
        for seed in (1, 2):
            with open(out / f"metrics_{method}_seed{seed}.csv") as f:
                columns.append([float(r["improvement"]) for r in csv.DictReader(f)])
        want = [
            f"{t}\t{statistics.fmean(pair)!r}" for t, pair in enumerate(zip(*columns))
        ]
        assert len(want) == SMALL_CONFIG["workload"]["total_rounds"]
        rows = read_bytes(out / f"plot_{method}.tsv").decode().splitlines()
        assert rows == want, method


def test_unknown_config_key_is_rejected():
    with pytest.raises(ConfigurationError, match="workload.totall_rounds"):
        resolve_config({"workload": {"totall_rounds": 3}})


def test_editing_a_resolved_config_leaves_the_defaults_alone():
    # `idxlab run --schedule` sets the drift kind on the resolved config
    cfg = resolve_config({})
    cfg["workload"]["kind"] = "cyclic"
    assert resolve_config({})["workload"]["kind"] == "static"


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"catalog": {,}}')
    with pytest.raises(ConfigurationError, match="line"):
        load_config_file(str(path))


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "cli_out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    printed = capsys.readouterr().out
    assert "tuner" in printed and "improvement" in printed


def test_cli_malformed_config_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def assert_config_file_rejected(tmp_path, capsys, name, content: bytes, words):
    """`idxlab run` exits 2 with one line naming the config file, and writes
    nothing."""
    path = tmp_path / name
    path.write_bytes(content)
    out = tmp_path / "never"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err and all(word in err for word in words)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["config.json", "config.toml"])
def test_cli_config_not_utf8_exits_2(tmp_path, capsys, name):
    assert_config_file_rejected(
        tmp_path, capsys, name, b'replications = [1]\n# caf\xe9\n', ["UTF-8"]
    )


def test_cli_malformed_toml_config_exits_2(tmp_path, capsys):
    try:
        import tomllib as toml
    except ImportError:
        toml = pytest.importorskip("tomli")
    content = "replications = [1\n"
    with pytest.raises(toml.TOMLDecodeError) as error:
        toml.loads(content)
    assert_config_file_rejected(
        tmp_path, capsys, "config.toml", content.encode(), [str(error.value)]
    )


@pytest.mark.parametrize("content", [b"[1, 2]", b'"config"', b"3"])
def test_cli_config_that_is_not_an_object_exits_2(tmp_path, capsys, content):
    assert_config_file_rejected(
        tmp_path, capsys, "config.json", content, ["JSON object"]
    )


def test_cli_semantic_config_error_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, {"budget": {"mode": "storage"}, "replications": [1]}
    )
    assert main(["run", cfg]) == 2


def assert_rejected_before_run(tmp_path, capsys, override, field):
    """The CLI exits 2 with a one-line message naming the field, and writes
    nothing."""
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **override})
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert field in err and "Traceback" not in err


def test_cli_rejects_single_dropout_pass(tmp_path, capsys):
    assert_rejected_before_run(
        tmp_path, capsys, {"tuner": {"mcd_passes": 1}}, "tuner.mcd_passes"
    )


def test_cli_rejects_nan_uncertainty_threshold(tmp_path, capsys):
    # json.dumps writes NaN, which json.loads accepts
    assert_rejected_before_run(
        tmp_path,
        capsys,
        {"tuner": {"mcd_passes": 5, "uncertainty_threshold": float("nan")}},
        "tuner.uncertainty_threshold",
    )


def test_cli_rejects_zero_uncertainty_mix(tmp_path, capsys):
    assert_rejected_before_run(
        tmp_path,
        capsys,
        {"tuner": {"mcd_passes": 5, "uncertainty_mix": 0.0}},
        "tuner.uncertainty_mix",
    )


@pytest.mark.parametrize(
    "catalog, field",
    [
        ({"n_tables": "x"}, "catalog.n_tables"),
        ({"n_tables": 2.5}, "catalog.n_tables"),
        ({"rows_range": [1000, "y"]}, "catalog.rows_range"),
        ({"cols_per_table_range": 3}, "catalog.cols_per_table_range"),
        ({"string_column_fraction": "x"}, "catalog.string_column_fraction"),
    ],
)
def test_cli_rejects_mistyped_catalog_field(tmp_path, capsys, catalog, field):
    assert_rejected_before_run(tmp_path, capsys, {"catalog": catalog}, field)


@pytest.mark.parametrize("rows_range", [[1, 1], [1, 3]])
def test_cli_runs_on_one_row_tables(tmp_path, rows_range):
    catalog = {"n_tables": 2, "rows_range": rows_range}
    cfg = write_config(tmp_path, {**SMALL_CONFIG, "catalog": catalog})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "override, field",
    [
        ({"workload": {"n_templates": "x"}}, "workload.n_templates"),
        ({"workload": {"change_fraction": "x"}}, "workload.change_fraction"),
        ({"budget": {"max_indexes": "x"}}, "budget.max_indexes"),
        ({"budget": {"mode": "storage", "storage_bytes": "x"}}, "budget.storage_bytes"),
        ({"tuner": {"epsilon": "x"}}, "tuner.epsilon"),
        ({"tuner": {"per_table_cap": 1.5}}, "tuner.per_table_cap"),
        ({"catalog": {"seed": "x"}}, "catalog.seed"),
        ({"environment": {"noise_sigma": "x"}}, "environment.noise_sigma"),
        ({"replications": "ab"}, "replications"),
        ({"replications": ["a"]}, "replications"),
        ({"replications": [1, True]}, "replications"),
        # json.dumps writes NaN and Infinity, which json.loads accepts
        ({"budget": {"mode": "storage", "storage_bytes": NAN}}, "budget.storage_bytes"),
        ({"budget": {"mode": "storage", "storage_bytes": INF}}, "budget.storage_bytes"),
        ({"tuner": {"explore_init": NAN}}, "tuner.explore_init"),
        ({"tuner": {"explore_decay": -INF}}, "tuner.explore_decay"),
        ({"tuner": {"epsilon": NAN}}, "tuner.epsilon"),
        ({"environment": {"noise_sigma": NAN}}, "environment.noise_sigma"),
        ({"environment": {"noise_sigma": INF}}, "environment.noise_sigma"),
        ({"workload": {"change_fraction": NAN}}, "workload.change_fraction"),
        (
            {"catalog": {"string_column_fraction": INF}},
            "catalog.string_column_fraction",
        ),
        ({"baselines": 5}, "baselines must be a list"),
        ({"baselines": None}, "baselines must be a list"),
        ({"baselines": "whatif_greedy"}, "baselines must be a list"),
        ({"catalog": {"seed": -1}}, "catalog.seed"),
        ({"tuner": {"epsilon": 5}}, "tuner.epsilon"),
        ({"tuner": {"epsilon": -0.5}}, "tuner.epsilon"),
        ({"output_dir": None}, "output_dir"),
        ({"output_dir": 5}, "output_dir"),
        ({"workload": {"schedule_file": True}}, "workload.schedule_file"),
        ({"workload": {"schedule_file": 7}}, "workload.schedule_file"),
        ({"workload": {"schedule_file": 0}}, "workload.schedule_file"),
        ({"tuner": {"per_table_cap": 0}}, "tuner.per_table_cap"),
        ({"budget": {"max_indexes": 0}}, "budget.max_indexes"),
        ({"budget": {"mode": "storage", "storage_bytes": -5}}, "budget.storage_bytes"),
        ({"budget": {"mode": "storage", "storage_bytes": 0}}, "budget.storage_bytes"),
        ({"budget": {"mode": "storage", "storage_bytes": 0.5}}, "budget.storage_bytes"),
        ({"budget": {"mode": "storage", "storage_bytes": 1.5}}, "budget.storage_bytes"),
        ({"replications": [-1]}, "replications"),
        ({"replications": [2**64]}, "replications"),
        ({"replications": []}, "replications"),
        ({"workload": {"seed": -1}}, "workload.seed"),
        ({"workload": {"seed": 2**64}}, "workload.seed"),
        ({"environment": {"ground_truth_seed": -1}}, "environment.ground_truth_seed"),
        ({"catalog": {"seed": 2**64}}, "catalog.seed"),
        ({"workload": {"n_templates": 0}}, "workload.n_templates"),
        ({"workload": {"total_rounds": 0}}, "workload.total_rounds"),
        ({"workload": {"period": 0}}, "workload.period"),
        ({"workload": {"change_fraction": 2}}, "workload.change_fraction"),
        ({"workload": {"queries_per_template": 0}}, "workload.queries_per_template"),
        ({"workload": {"kind": "weekly"}}, "workload.kind"),
        ({"catalog": {"rows_range": [5, 1]}}, "catalog.rows_range"),
        ({"catalog": {"n_tables": 0}}, "catalog.n_tables"),
        ({"catalog": {"string_column_fraction": 2}}, "catalog.string_column_fraction"),
        ({"budget": {"mode": "bytes"}}, "budget.mode"),
        (
            {"workload": {"n_templates": 4, "templates_per_round": 5}},
            "workload.templates_per_round",
        ),
        (
            {"workload": {"kind": "cyclic", "n_templates": 4, "templates_per_round": 4}},
            "workload.change_fraction",
        ),
        # a repeated seed or kind would run twice and count as two results
        ({"replications": [5, 5]}, "replications: 5"),
        ({"replications": [1, 2, 1]}, "replications: 1"),
        (
            {"baselines": ["whatif_greedy", "whatif_greedy"]},
            "baselines: 'whatif_greedy'",
        ),
        # sizes that loop or allocate stop at an upper bound
        ({"workload": {"total_rounds": 1001}}, "workload.total_rounds"),
        ({"workload": {"queries_per_template": 101}}, "workload.queries_per_template"),
        ({"catalog": {"n_tables": 65}}, "catalog.n_tables"),
        (
            {"catalog": {"cols_per_table_range": [3, 33]}},
            "catalog.cols_per_table_range",
        ),
        ({"catalog": {"rows_range": [1000, 10**19]}}, "catalog.rows_range"),
    ],
)
def test_cli_rejects_mistyped_field(tmp_path, capsys, override, field):
    assert_rejected_before_run(tmp_path, capsys, override, field)


@pytest.mark.parametrize("sigma", [1000, 10.5, -0.5])
def test_cli_rejects_noise_sigma_out_of_range(tmp_path, capsys, sigma):
    override = {"environment": {"noise_sigma": sigma}}
    assert_rejected_before_run(tmp_path, capsys, override, "environment.noise_sigma")


def test_seeds_take_every_64_bit_value():
    # drift experiments pass seeding.subseed values, which fill 64 bits
    top = 2**64 - 1
    cfg = resolve_config(
        {
            "catalog": {"seed": top},
            "workload": {"seed": 0},
            "environment": {"ground_truth_seed": top},
            "replications": [0, top],
        }
    )
    assert cfg["catalog"]["seed"] == top and cfg["replications"] == [0, top]


def test_readme_lists_every_config_field():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        lines = f.read().splitlines()
    for path, row in FIELDS.items():
        listed = [line for line in lines if line.startswith(f"| `{path}` |")]
        assert len(listed) == 1, path
        assert row.range in listed[0], path


def test_readme_names_resolve():
    # a backticked module.NAME that is not a config field must exist
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        text = f.read()
    modules = {m.name for m in pkgutil.iter_modules(idxlab.__path__)}
    checked = 0
    for name in re.findall(r"`([a-z_]+(?:\.\w+)+)`", text):
        module, *attrs = name.split(".")
        if module == "idxlab":
            module, *attrs = attrs
        elif name in FIELDS or module not in modules:
            continue  # a config field, or a file name such as summary.csv
        obj = importlib.import_module(f"idxlab.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("path", ["tuner.mcd_passes", "workload.n_templates"])
def test_passes_and_templates_are_bounded_above(path):
    # checked only: neither a tuner nor a template search runs here
    section, key = path.split(".")
    assert resolve_config({section: {key: 1000}})[section][key] == 1000
    for value in (1001, 10**20):
        with pytest.raises(ConfigurationError, match=rf"{path} .*in \[\d, 1000\]"):
            resolve_config({section: {key: value}})
    if path == "tuner.mcd_passes":
        assert TunerParams(mcd_passes=1000).mcd_passes == 1000
        for value in (1001, 10**20):
            with pytest.raises(ConfigurationError, match=path):
                TunerParams(mcd_passes=value)


def test_noise_sigma_bounds_are_inclusive():
    for sigma in (0, 10):
        cfg = resolve_config({"environment": {"noise_sigma": sigma}})
        assert cfg["environment"]["noise_sigma"] == sigma


@pytest.mark.parametrize(
    "tuner",
    [
        {"explore_init": 1e308},
        {"explore_init": 0},
        {"explore_init": -1},
        {"explore_decay": 1.5},
    ],
)
def test_cli_rejects_exploration_out_of_range(tmp_path, capsys, tuner):
    override = {"tuner": {"mcd_passes": 5, **tuner}}
    assert_rejected_before_run(tmp_path, capsys, override, f"tuner.{next(iter(tuner))}")


def test_explore_init_bound_is_inclusive(tmp_path):
    cfg = resolve_config({"tuner": {"explore_init": MAX_EXPLORE_INIT}})
    assert cfg["tuner"]["explore_init"] == MAX_EXPLORE_INIT
    # and a run at the bound prices and samples without overflowing
    override = {"tuner": {"mcd_passes": 5, "explore_init": MAX_EXPLORE_INIT}}
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **override})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def test_cli_malformed_schedule_file_exits_2(tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        json.dumps({"rounds": [{"round": 0, "queries": [{"nope": 1}]}]})
    )
    cfg = write_config(
        tmp_path,
        {**SMALL_CONFIG, "workload": {"schedule_file": str(schedule)}},
    )
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and "'templates'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, named",
    [
        ({"templates": [["T0"]], "rounds": []}, "templates[0] is not a JSON object"),
        ({"templates": [], "rounds": {"a": 1}}, "rounds is not a list"),
        ({"templates": [], "rounds": ["r0"]}, "rounds[0] is not a JSON object"),
        (
            {"templates": [], "rounds": [{"round": 0, "queries": [7]}]},
            "round 0: queries[0] is not a JSON object",
        ),
    ],
    ids=["template-list", "rounds-object", "round-string", "query-number"],
)
def test_cli_schedule_entry_that_is_not_an_object_exits_2(tmp_path, capsys, data, named):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(data))
    cfg = write_config(
        tmp_path,
        {**SMALL_CONFIG, "workload": {"schedule_file": str(schedule)}},
    )
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"schedule file {schedule}: {named}" in err
    assert "Traceback" not in err and "indices" not in err


@pytest.mark.parametrize(
    "field, value",
    [("high", ["t9", "c0"]), ("distinct", {}), ("kind", ["x"])],
    ids=["high-list", "distinct-object", "kind-list"],
)
def test_cli_schedule_sampler_field_that_does_not_fit_exits_2(
    tmp_path, capsys, field, value
):
    # each once passed the reader and failed mid-run, unhashable
    schedule, cfg = write_one_table_schedule(
        tmp_path, [{"round": 0, "queries": [{"template": "tpl_t0", "literals": [0.5, "v0"]}]}]
    )
    data = json.loads(schedule.read_text())
    data["templates"][0]["filter_specs"][0]["sampler"][field] = value
    schedule.write_text(json.dumps(data))
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"schedule file {schedule}: round 0: template 'tpl_t0': " in err
    assert f"{field} must be" in err and repr(value) in err
    assert "Traceback" not in err


def test_cli_schedule_template_off_the_catalog_exits_2(tmp_path, capsys):
    # the default catalog has tables t0..t3
    template = {
        "id": "tpl_t9",
        "tables": ["t9"],
        "join_predicates": [],
        "filter_specs": [
            {
                "column": ["t9", "c0"],
                "op": "=",
                "sampler": {"kind": "numeric", "low": 0.0, "high": 1.0, "distinct": 1},
            }
        ],
        "order_by": [],
        "group_by": [],
        "payload_columns": [],
    }
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        json.dumps(
            {
                "templates": [template],
                "rounds": [
                    {"round": 0, "queries": [{"template": "tpl_t9", "literals": [0.5]}]}
                ],
            }
        )
    )
    cfg = write_config(
        tmp_path,
        {
            **SMALL_CONFIG,
            "catalog": {"n_tables": 4},
            "workload": {"schedule_file": str(schedule)},
        },
    )
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and "tpl_t9" in err and "t9" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"tables": ["t0", "t1"]}, "left-deep template needs |tables|-1 joins"),
        (
            {
                "tables": ["t0", "t1"],
                "join_predicates": [{"left": ["t1", "c0"], "right": ["t0", "c0"]}],
            },
            "join 0 of tpl_x does not connect adjacent tables",
        ),
        ({"payload_columns": [["t1", "c0"]]}, "tpl_x: column t1.c0 off-template"),
    ],
    ids=["join-count", "non-adjacent-join", "off-template-column"],
)
def test_cli_schedule_template_that_does_not_fit_its_tables_exits_2(
    tmp_path, capsys, fields, named
):
    # every column exists in the two-table catalog; only the shape is wrong
    template = {
        "id": "tpl_x",
        "tables": ["t0"],
        "join_predicates": [],
        "filter_specs": [_filter_spec("c0", "numeric", "=")],
        "order_by": [],
        "group_by": [],
        "payload_columns": [],
        **fields,
    }
    query = {"template": "tpl_x", "literals": [0.5]}
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        json.dumps({"templates": [template], "rounds": [{"round": 0, "queries": [query]}]})
    )
    cfg = write_config(
        tmp_path, {**SMALL_CONFIG, "workload": {"schedule_file": str(schedule)}}
    )
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"schedule file {schedule}: round 0: template 'tpl_x': {named}" in err
    assert "Traceback" not in err


def _filter_spec(column, kind, op):
    return {
        "column": ["t0", column],
        "op": op,
        "sampler": {"kind": kind, "low": 0.0, "high": 1.0, "distinct": 2},
    }


def write_one_table_schedule(tmp_path, rounds, ops=("=", "=")):
    """A config over one table t0, whose c0 is numeric and c1 a string
    column, and a schedule file of ``rounds`` over one template filtering
    both with ``ops``; returns (schedule path, config path)."""
    template = {
        "id": "tpl_t0",
        "tables": ["t0"],
        "join_predicates": [],
        "filter_specs": [
            _filter_spec("c0", "numeric", ops[0]),
            _filter_spec("c1", "string", ops[1]),
        ],
        "order_by": [],
        "group_by": [],
        "payload_columns": [],
    }
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"templates": [template], "rounds": rounds}))
    catalog = {
        "n_tables": 1,
        "cols_per_table_range": [2, 2],
        "string_column_fraction": 1.0,
    }
    cfg = write_config(
        tmp_path,
        {**SMALL_CONFIG, "catalog": catalog, "workload": {"schedule_file": str(schedule)}},
    )
    return schedule, cfg


def test_cli_schedule_query_that_fits_runs(tmp_path):
    query = {"template": "tpl_t0", "literals": [0.5, "v1"], "frequency_weight": 2}
    _, cfg = write_one_table_schedule(tmp_path, [{"round": 0, "queries": [query]}])
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def test_cli_schedule_template_defined_twice_exits_2(tmp_path, capsys):
    # a later definition must not silently replace the first one
    schedule, cfg = write_one_table_schedule(
        tmp_path, [{"round": 0, "queries": [{"template": "tpl_t0", "literals": [0.5, "v0"]}]}]
    )
    data = json.loads(schedule.read_text())
    second = dict(data["templates"][0], filter_specs=[_filter_spec("c0", "numeric", "<")])
    data["templates"].append(second)
    schedule.write_text(json.dumps(data))
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and "'tpl_t0'" in err and "twice" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reference", [7, "7"])
def test_cli_schedule_template_with_an_integer_id_exits_2(tmp_path, capsys, reference):
    query = {"template": reference, "literals": [0.5, "v0"]}
    schedule, cfg = write_one_table_schedule(tmp_path, [{"round": 0, "queries": [query]}])
    data = json.loads(schedule.read_text())
    data["templates"][0]["id"] = 7
    schedule.write_text(json.dumps(data))
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and "template id 7 must be a string" in err
    assert "Traceback" not in err and "missing key" not in err


AT_ROUND_0 = "round 0: template 'tpl_t0': "
FITTING_QUERY = {"template": "tpl_t0", "literals": [0.5, "v0"]}


@pytest.mark.parametrize(
    "query, rounds, named",
    [
        ({"literals": ["abc", "v0"]}, None, [AT_ROUND_0, "t0.c0", "'abc'"]),
        ({"literals": [NAN, "v0"]}, None, [AT_ROUND_0, "t0.c0", "nan"]),
        ({"literals": [INF, "v0"]}, None, [AT_ROUND_0, "t0.c0", "inf"]),
        ({"literals": [-INF, "v0"]}, None, [AT_ROUND_0, "t0.c0", "-inf"]),
        ({"literals": [True, "v0"]}, None, [AT_ROUND_0, "t0.c0", "True"]),
        ({"literals": [0.5, 3]}, None, [AT_ROUND_0, "t0.c1", "3.0"]),
        ({"literals": [0.5, "w1"]}, None, [AT_ROUND_0, "t0.c1", "'w1'"]),
        ({"literals": [0.5, "v-1"]}, None, [AT_ROUND_0, "t0.c1", "'v-1'"]),
        ({"frequency_weight": 2.5}, None, [AT_ROUND_0, "frequency_weight", "2.5"]),
        ({"frequency_weight": True}, None, [AT_ROUND_0, "frequency_weight", "True"]),
        ({}, [], ["no rounds"]),
        ({"frequency_weight": "x"}, None, [AT_ROUND_0, "frequency_weight", "'x'"]),
        ({"literals": [{"a": 1}, "v0"]}, None, [AT_ROUND_0, "'dict'"]),
        ({"literals": [10**400, "v0"]}, None, [AT_ROUND_0, "too large"]),
        ({}, [{"round": "x", "queries": [FITTING_QUERY]}], ["position 0", "'x'"]),
        ({}, [{"round": None, "queries": [FITTING_QUERY]}], ["position 0", "None"]),
        (
            {},
            [
                {"round": 0, "queries": [FITTING_QUERY]},
                {"round": -5, "queries": [FITTING_QUERY]},
            ],
            ["position 1", "-5"],
        ),
        ({"frequency_weight": 10**308}, None, [AT_ROUND_0, "frequency_weight"]),
        ({"frequency_weight": 10**320}, None, [AT_ROUND_0, "frequency_weight"]),
        ({"template": "T999"}, None, ["round 0: template 'T999' is not defined"]),
        ({"template": ["tpl_t0"]}, None, ["round 0: template ['tpl_t0'] is not defined"]),
        ({}, [{"round": 0, "queries": []}], ["round 0: no queries"]),
    ],
)
def test_cli_schedule_query_that_does_not_fit_exits_2(
    tmp_path, capsys, query, rounds, named
):
    query = {"template": "tpl_t0", "literals": [0.5, "v0"], **query}
    if rounds is None:
        rounds = [{"round": 0, "queries": [query]}]
    schedule, cfg = write_one_table_schedule(tmp_path, rounds)
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and "Traceback" not in err
    for part in named:
        assert part in err


@pytest.mark.parametrize(
    "ops, named",
    [
        (("~", "="), ["t0.c0", "'~'"]),
        ((">", ">"), ["string column t0.c1", "'>'"]),
        (("=", "<="), ["string column t0.c1", "'<='"]),
        ((None, "="), ["t0.c0", "None"]),
    ],
)
def test_cli_schedule_filter_op_that_does_not_fit_exits_2(tmp_path, capsys, ops, named):
    schedule, cfg = write_one_table_schedule(
        tmp_path, [{"round": 0, "queries": [FITTING_QUERY]}], ops
    )
    out = tmp_path / "never"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(schedule) in err and AT_ROUND_0 in err and "Traceback" not in err
    for part in named:
        assert part in err


def test_cli_io_error_exits_3(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["run", cfg, "--out", str(blocker / "sub")]) == 3


def test_cli_seed_and_schedule_overrides(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "o2"
    assert (
        main(["run", cfg, "--out", str(out), "--seed", "9", "--schedule", "static"])
        == 0
    )
    assert (out / "metrics_tuner_seed9.csv").exists()


def test_cli_replay_and_compare(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "orig"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    assert main(["replay", str(out / "manifest.json"), "--out", str(rep)]) == 0
    assert read_bytes(out / "summary.csv") == read_bytes(rep / "summary.csv")
    capsys.readouterr()
    assert main(["compare", str(out), str(rep)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("tuner") == 2


def assert_compare_rejects(tmp_path, capsys, summary: bytes):
    """`idxlab compare` exits 2 with one line naming the summary file."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "summary.csv").write_bytes(summary)
    assert main(["compare", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(run_dir / "summary.csv") in err and "Traceback" not in err


def test_cli_compare_summary_without_its_columns_exits_2(tmp_path, capsys):
    assert_compare_rejects(tmp_path, capsys, b"round,improvement\n0,0.5\n")


def test_cli_compare_summary_not_utf8_exits_2(tmp_path, capsys):
    assert_compare_rejects(
        tmp_path, capsys, b"method,mean_improvement\n\xff\xfe tuner,0.1\n"
    )


def test_cli_compare_summary_with_an_oversized_field_exits_2(tmp_path, capsys):
    # longer than the csv module's default field size limit
    row = b"tuner," + b"9" * 200_000 + b",0.0,1\n"
    header = b"method,mean_improvement,stdev_improvement,n_replications\n"
    assert_compare_rejects(tmp_path, capsys, header + row)


def test_cli_replay_of_tampered_manifest_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "orig"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    tampered = ["metrics_tuner_seed1.csv", "summary.csv"]
    for name in tampered:
        manifest["artifacts"][name] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["replay", str(manifest_path), "--out", str(rep)]) == EXIT_REPLAY
    captured = capsys.readouterr()
    assert "replayed" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(": ")[-1].split() == tampered


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"format": 1, "config": {}}, ["config_sha256", "seeds", "artifacts"]),
        ({"format": 1, "config_sha256": "0" * 64}, ["config", "seeds", "artifacts"]),
        ([1, 2], ["JSON object"]),
        (
            {
                "format": 1,
                "config": {},
                "config_sha256": hashlib.sha256(b"{}").hexdigest(),
                "seeds": [1],
                "artifacts": [],
            },
            ["artifacts", "object"],
        ),
        ("manifest", ["JSON object"]),
    ],
)
def test_cli_replay_of_malformed_manifest_exits_2(tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "never"
    assert main(["replay", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err and all(word in err for word in named)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"format": 2}, "unsupported format 2, expected 1"),
        (
            {
                "format": 1,
                "config": {},
                "config_sha256": "0" * 64,
                "seeds": [1],
                "artifacts": {},
            },
            "config hash mismatch",
        ),
    ],
    ids=["format", "hash"],
)
def test_cli_replay_names_the_manifest_it_refuses(tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "never"
    assert main(["replay", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"manifest {path}: {named}" in err
    assert "Traceback" not in err


def test_cli_replay_of_manifest_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"format": 1, "config": "caf\xe9"}')
    out = tmp_path / "never"
    assert main(["replay", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("what", ["config file", "manifest", "schedule file"])
@pytest.mark.parametrize(
    "content, named",
    [
        (b'{"format": 1, ', ["line 1, column 15: Expecting property name"]),
        (b'{"format": "caf\xe9"}', ["not UTF-8 text"]),
        (b"[1, 2]", ["not a JSON object"]),
    ],
    ids=["truncated", "not-utf8", "not-an-object"],
)
def test_cli_json_file_that_does_not_read_exits_2(tmp_path, capsys, what, content, named):
    """Config, manifest and schedule files share one reader, whose one-line
    message names the file: ``<what> <path>: ...``."""
    path = tmp_path / "file.json"
    path.write_bytes(content)
    out = tmp_path / "never"
    if what == "manifest":
        argv = ["replay", str(path), "--out", str(out)]
    elif what == "config file":
        argv = ["run", str(path), "--out", str(out)]
    else:
        config = {**SMALL_CONFIG, "workload": {"schedule_file": str(path)}}
        argv = ["run", write_config(tmp_path, config), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{what} {path}: " in err and all(word in err for word in named)
    assert "Traceback" not in err


def test_emit_plot_data_preserves_values():
    assert _plot_bytes([0.0, -0.25, 0.5]) == b"0\t0.0\n1\t-0.25\n2\t0.5\n"
    assert _plot_bytes([0.0, 0.0]) == b"0\t0.0\n1\t0.0\n"
    with pytest.raises(ConfigurationError, match="nonempty"):
        _plot_bytes([])


def test_toml_config_accepted(tmp_path):
    if importlib.util.find_spec("tomllib") is None:
        pytest.importorskip("tomli")
    path = tmp_path / "config.toml"
    path.write_text(
        "\n".join(
            [
                "replications = [1]",
                "[workload]",
                "n_templates = 6",
                "total_rounds = 2",
                "templates_per_round = 4",
            ]
        )
    )
    cfg = resolve_config(load_config_file(str(path)))
    assert cfg["workload"]["total_rounds"] == 2
    assert cfg["replications"] == [1]


@pytest.mark.parametrize("command", ["run", "replay"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, command, jobs):
    if command == "run":
        target = write_config(tmp_path, SMALL_CONFIG)
    else:
        target = tmp_path / "manifest.json"
        target.write_text(
            json.dumps(
                {
                    "format": 1,
                    "config": {},
                    "config_sha256": hashlib.sha256(b"{}").hexdigest(),
                    "seeds": [1],
                    "artifacts": {},
                }
            )
        )
    out = tmp_path / "never"
    assert main([command, str(target), "--out", str(out), "--jobs", jobs]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "jobs" in err and jobs in err and "Traceback" not in err


@pytest.fixture
def requested_pools(monkeypatch):
    """The ``max_workers`` of each process pool asked for, in order; a pool
    starts every worker it is allowed, so record the request instead of
    starting processes."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return requested


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the CPUs this process may run on: ``usable_cpus(n)`` gives it an
    affinity mask of ``n`` CPUs on a 64-CPU host, and ``usable_cpus(n,
    mask=False)`` a host of ``n`` CPUs (None: unknown) with no mask."""

    def set_cpus(n, mask=True):
        if mask:
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
            )
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: n)

    return set_cpus


def test_jobs_are_capped_at_the_replication_count(
    tmp_path, requested_pools, usable_cpus
):
    usable_cpus(64)
    cfg = {**SMALL_CONFIG, "baselines": [], "replications": [1, 2]}
    run_experiment(cfg, out_dir=str(tmp_path / "capped"), jobs=5000)
    assert requested_pools == [2]
    run_experiment(cfg, out_dir=str(tmp_path / "sequential"), jobs=1)
    assert requested_pools == [2]


@pytest.mark.parametrize(
    "cpus, mask, want",
    [(3, True, [3]), (1, True, []), (3, False, [3]), (1, False, []), (None, False, [])],
)
def test_jobs_are_capped_at_the_usable_cpus(
    tmp_path, requested_pools, usable_cpus, cpus, mask, want
):
    usable_cpus(cpus, mask)
    cfg = {**SMALL_CONFIG, "baselines": [], "replications": [1, 2, 3, 4]}
    run_experiment(cfg, out_dir=str(tmp_path / "capped"), jobs=5000)
    assert requested_pools == want


def test_manifest_records_runtime_and_schedule_hash(tmp_path):
    schedule, cfg = write_one_table_schedule(
        tmp_path, [{"round": 0, "queries": [FITTING_QUERY]}]
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runtime"]["numpy"] == np.__version__
    assert "blas" in manifest["runtime"]
    digest = hashlib.sha256(read_bytes(schedule)).hexdigest()
    assert manifest["schedule_sha256"] == digest
    plain = run_experiment(SMALL_CONFIG, out_dir=str(tmp_path / "plain"))
    assert "schedule_sha256" not in plain


def test_cli_replay_names_a_changed_numpy_and_schedule_file(tmp_path, capsys):
    schedule, cfg = write_one_table_schedule(
        tmp_path, [{"round": 0, "queries": [FITTING_QUERY]}]
    )
    out = tmp_path / "orig"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["runtime"]["numpy"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))
    literals = [0.25, "v1"]
    schedule.write_text(
        schedule.read_text().replace(
            json.dumps(FITTING_QUERY["literals"]), json.dumps(literals)
        )
    )
    capsys.readouterr()
    assert main(["replay", str(manifest_path), "--out", str(tmp_path / "rep")]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert f"numpy was 0.0.1, is {np.__version__}" in lines[0]
    assert f"schedule file {schedule} changed" in lines[0]
    assert "blas" not in lines[0]
    assert "reports_tuner_seed1.jsonl" in lines[0].split(": ")[-1].split()


def test_parallel_jobs_match_sequential(tmp_path, usable_cpus):
    usable_cpus(2)  # a pool of two workers on any host
    cfg = dict(SMALL_CONFIG)
    cfg["replications"] = [1, 2]
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    run_experiment(cfg, out_dir=str(seq), jobs=1)
    run_experiment(cfg, out_dir=str(par), jobs=2)
    for name in os.listdir(seq):
        assert read_bytes(seq / name) == read_bytes(par / name), name
