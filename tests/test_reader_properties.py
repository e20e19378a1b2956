"""A config or schedule file one field away from a valid one is read, or
refused with one `ConfigurationError`: never any other exception. A manifest
one field away from a tiny experiment's is replayed by the command line, or
refused with an exit code and one line on stderr: never a traceback.

Each mutant changes one field of a valid document, at any depth: it deletes
the key (or list item), gives the value another JSON type, or sets an
extreme value. A config mutant is resolved with `resolve_config`; one that
passes and touches the catalog section also builds its catalog with
`generate_catalog`, so that a range the config check lets through is one
the catalog can be built from. A schedule mutant is written to a file and
read with `load_schedule`. Each config path is its own case, so every one
of them is mutated in every run. A manifest mutant keeps its
``config_sha256`` the hash of its config, unless it mutates that field, so
that the replay reaches the config check and the run.

Whole valid config files, JSON or TOML, over every drift kind and both
budget modes, with and without a schedule file, run through `idxlab run`
and replay through `idxlab replay`.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_REPLAY, main
from idxlab.errors import DRIFT_KINDS, FIELDS, ConfigurationError
from idxlab.experiment import (
    _config_hash,
    _environment,
    resolve_config,
    run_experiment,
)
from idxlab.tuner import BASELINE_KINDS
from idxlab.workload import (
    DriftSchedule,
    build_schedule,
    generate_templates,
    load_schedule,
    save_schedule,
    schedule_to_dict,
)

EXTREMES = (
    0,
    -1,
    1,
    0.5,
    2**31,
    2**32,
    2**63 - 1,
    2**63,
    2**64,
    10**19,
    -(10**19),
    10**400,
    1e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
)
OTHER_TYPES = (None, True, "x", "", [], {}, [1, 2], {"a": 1})


def field_paths(document, prefix=()) -> list:
    """The path of every key and list item of ``document``, at any depth."""
    out = []
    items = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in items:
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            out += field_paths(value, prefix + (key,))
    return out


def mutated(document, path, value, delete: bool):
    """A copy of ``document`` with the field at ``path`` deleted or set to
    ``value``."""
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutations(document, path):
    """(value, delete) strategies for the field at ``path``: an extreme
    number, another type, or, for a list, the list with one item extreme."""
    values = st.sampled_from(EXTREMES + OTHER_TYPES)
    original = document
    for key in path:
        original = original[key]
    if isinstance(original, list) and original:
        values |= st.builds(
            lambda i, v: original[:i] + [v] + original[i + 1 :],
            st.integers(0, len(original) - 1),
            st.sampled_from(EXTREMES),
        )
    return st.tuples(values, st.booleans())


def config_document() -> dict:
    """A valid config that names every field, each at its default."""
    out = {}
    for path, row in FIELDS.items():
        section, _, key = path.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = copy.deepcopy(
            row.default
        )
    out["baselines"] = ["whatif_greedy"]
    return out


CONFIG = config_document()
CONFIG_PATHS = field_paths(CONFIG)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: ".".join(map(str, p)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_field_config_mutants_are_read_or_refused(path, data):
    value, delete = data.draw(mutations(CONFIG, path))
    try:
        cfg = resolve_config(mutated(CONFIG, path, value, delete))
    except ConfigurationError:
        return
    if path[0] == "catalog":
        section = dict(cfg["catalog"])
        seed = section.pop("seed")
        try:
            generate_catalog(CatalogSpec(**section), 0 if seed is None else seed)
        except ConfigurationError:
            pass


SCHEDULE_CATALOG = generate_catalog(CatalogSpec(n_tables=3), seed=0)


def schedule_document() -> dict:
    """One round of two queries on two templates: one on a single table
    with three filters and an order, one with a join and a group-by."""
    templates = generate_templates(SCHEDULE_CATALOG, 3, seed=0)
    sched = DriftSchedule(
        "static", total_rounds=1, templates_per_round=2, queries_per_template=1
    )
    return schedule_to_dict(build_schedule(templates, sched, seed=0))


SCHEDULE = schedule_document()
SCHEDULE_PATHS = field_paths(SCHEDULE)


def test_the_unmutated_documents_are_read(tmp_path):
    resolve_config(CONFIG)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(SCHEDULE))
    assert len(load_schedule(path, SCHEDULE_CATALOG)) == 1


@pytest.fixture(scope="module")
def schedule_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "schedule.json"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_field_schedule_mutants_are_read_or_refused(schedule_file, data):
    path = data.draw(st.sampled_from(SCHEDULE_PATHS))
    value, delete = data.draw(mutations(SCHEDULE, path))
    schedule_file.write_text(json.dumps(mutated(SCHEDULE, path, value, delete)))
    try:
        load_schedule(schedule_file, SCHEDULE_CATALOG)
    except ConfigurationError:
        pass


# two rounds of two one-query templates on two tables, one baseline
TINY_EXPERIMENT = {
    "catalog": {"n_tables": 2, "rows_range": [1000, 5000]},
    "workload": {
        "n_templates": 3,
        "total_rounds": 2,
        "templates_per_round": 2,
        "queries_per_template": 1,
    },
    "tuner": {"mcd_passes": 2},
    "baselines": ["whatif_greedy"],
    "replications": [1],
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """A tiny experiment's manifest and a directory for its mutants."""
    out = tmp_path_factory.mktemp("experiment")
    run_experiment(TINY_EXPERIMENT, out_dir=str(out))
    return json.loads((out / "manifest.json").read_text()), out


def replay_exit(path, out_dir):
    """``idxlab replay``'s exit code and stderr; an exception escapes."""
    err = io.StringIO()
    argv = ["replay", str(path), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_the_unmutated_manifest_replays(manifest):
    document, out = manifest
    path = out / "unmutated.json"
    path.write_text(json.dumps(document))
    assert replay_exit(path, out / "replay") == (EXIT_OK, "")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_field_manifest_mutants_replay_or_exit_with_one_line(manifest, data):
    document, out = manifest
    path = data.draw(st.sampled_from(field_paths(document)))
    value, delete = data.draw(mutations(document, path))
    mutant = mutated(document, path, value, delete)
    if path != ("config_sha256",) and "config" in mutant:
        mutant["config_sha256"] = _config_hash(mutant["config"])
    # new files only: a rename over an existing file can wait on a flush
    here = pathlib.Path(tempfile.mkdtemp(dir=out))
    (here / "manifest.json").write_text(json.dumps(mutant))
    code, err = replay_exit(here / "manifest.json", here / "replay")
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_REPLAY), (code, err)
    assert err.count("\n") == (code != EXIT_OK), err
    # a refused manifest writes nothing; a divergent replay keeps its files
    assert code in (EXIT_OK, EXIT_REPLAY) or not (here / "replay").exists()


def toml_text(config: dict) -> str:
    """``config``, whose values are numbers, strings, lists and tables of
    them, as a TOML document; JSON's spelling of each value is TOML's."""

    def lines(table):
        pairs = [(k, v) for k, v in table.items() if not isinstance(v, dict)]
        return "".join(f"{k} = {json.dumps(v)}\n" for k, v in pairs)

    tables = [f"[{k}]\n{lines(v)}" for k, v in config.items() if isinstance(v, dict)]
    return lines(config) + "\n" + "\n".join(tables)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(DRIFT_KINDS),
    storage_bytes=st.one_of(st.none(), st.integers(1, 2_000_000)),
    rounds=st.integers(1, 3),
    baselines=st.lists(st.sampled_from(BASELINE_KINDS), unique=True),
    toml=st.booleans(),
    with_schedule_file=st.booleans(),
)
def test_config_files_run_and_replay_through_the_command_line(
    seed, kind, storage_bytes, rounds, baselines, toml, with_schedule_file
):
    budget = {"max_indexes": 2}
    if storage_bytes is not None:
        budget = {"mode": "storage", "storage_bytes": storage_bytes}
    config = {
        "catalog": {"n_tables": 2, "rows_range": [1000, 5000], "seed": seed},
        "workload": {
            "kind": kind,
            "n_templates": 4,
            "total_rounds": rounds,
            "templates_per_round": 2,
            "queries_per_template": 1,
            "change_fraction": 0.5,
            "period": 1,
            "cycle_length": 2,
        },
        "tuner": {"mcd_passes": 2},
        "budget": budget,
        "baselines": baselines,
        "replications": [seed],
    }
    with tempfile.TemporaryDirectory() as tmp:
        here = pathlib.Path(tmp)
        if with_schedule_file:
            _, schedule, _ = _environment(resolve_config(config), seed)
            save_schedule(schedule, here / "schedule.json")
            config["workload"]["schedule_file"] = str(here / "schedule.json")
        path = here / ("config.toml" if toml else "config.json")
        path.write_text(toml_text(config) if toml else json.dumps(config))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["run", str(path), "--out", str(here / "out")])
        assert code == EXIT_OK
        # one summary line per method
        lines = printed.getvalue().splitlines()
        assert sorted(line.split(":")[0] for line in lines) == sorted(
            ["tuner", *baselines]
        )
        manifest = here / "out" / "manifest.json"
        assert replay_exit(manifest, here / "replay") == (EXIT_OK, "")
