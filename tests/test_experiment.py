import json
import os

import pytest

from idxlab.cli import main
from idxlab.errors import ConfigurationError
from idxlab.experiment import (
    emit_plot_data,
    load_config_file,
    replay,
    resolve_config,
    run_experiment,
)

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


def test_replay_reproduces_every_csv_byte(tmp_path):
    out = tmp_path / "out"
    run_experiment(SMALL_CONFIG, out_dir=str(out))
    replay_dir = tmp_path / "replayed"
    replay(str(out / "manifest.json"), out_dir=str(replay_dir))
    for name in os.listdir(out):
        if name.endswith(".csv") or name.endswith(".tsv") or name.endswith(".jsonl"):
            assert read_bytes(out / name) == read_bytes(replay_dir / name), name


def test_unknown_config_key_is_rejected():
    with pytest.raises(ConfigurationError, match="workload.totall_rounds"):
        resolve_config({"workload": {"totall_rounds": 3}})


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


def test_emit_plot_data_preserves_values(tmp_path):
    paths = emit_plot_data(
        {"tuner": [0.0, -0.25, 0.5], "whatif_greedy": [0.0, 0.0]}, str(tmp_path)
    )
    assert sorted(os.path.basename(p) for p in paths) == [
        "plot_tuner.tsv",
        "plot_whatif_greedy.tsv",
    ]
    rows = read_bytes(tmp_path / "plot_tuner.tsv").decode().splitlines()
    assert rows == ["0\t0.0", "1\t-0.25", "2\t0.5"]
    zeros = read_bytes(tmp_path / "plot_whatif_greedy.tsv").decode().splitlines()
    assert zeros == ["0\t0.0", "1\t0.0"]


def test_toml_config_accepted(tmp_path):
    try:
        import tomllib  # noqa: F401
    except ImportError:
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


def test_parallel_jobs_match_sequential(tmp_path):
    cfg = dict(SMALL_CONFIG)
    cfg["replications"] = [1, 2]
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    run_experiment(cfg, out_dir=str(seq), jobs=1)
    run_experiment(cfg, out_dir=str(par), jobs=2)
    for name in os.listdir(seq):
        assert read_bytes(seq / name) == read_bytes(par / name), name
