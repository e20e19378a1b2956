"""A config or schedule file one field away from a valid one is read, or
refused with one `ConfigurationError`: never any other exception.

Each mutant changes one field of a valid document, at any depth: it deletes
the key (or list item), gives the value another JSON type, or sets an
extreme value. A config mutant is resolved with `resolve_config`; one that
passes and touches the catalog section also builds its catalog with
`generate_catalog`, so that a range the config check lets through is one
the catalog can be built from. A schedule mutant is written to a file and
read with `load_schedule`. Each config path is its own case, so every one
of them is mutated in every run.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.errors import FIELDS, ConfigurationError
from idxlab.experiment import resolve_config
from idxlab.workload import (
    DriftSchedule,
    build_schedule,
    generate_templates,
    load_schedule,
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
