import hashlib
import json
import math

import pytest

from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.errors import ConfigurationError
from idxlab.workload import (
    DriftSchedule,
    MiniWorkload,
    build_schedule,
    generate_templates,
    load_schedule,
    save_schedule,
    schedule_to_dict,
    unseen_fraction,
)


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(CatalogSpec(n_tables=3), seed=42)


@pytest.fixture(scope="module")
def templates(catalog):
    return generate_templates(catalog, 25, seed=1)


def template_sets(workloads):
    return [{t.id for t in w.templates} for w in workloads]


def test_template_generation_deterministic(catalog):
    a = generate_templates(catalog, 10, seed=1)
    b = generate_templates(catalog, 10, seed=1)
    assert a == b
    assert len({t.id for t in a}) == 10


def test_template_count_validation(catalog):
    with pytest.raises(ConfigurationError):
        generate_templates(catalog, 0, seed=1)


def test_template_capacity_error():
    # one table, one column: the distinct-template space tops out at a few
    # hundred signatures, so asking for 700 must fail
    tiny = generate_catalog(
        CatalogSpec(n_tables=1, rows_range=(100, 100), cols_per_table_range=(1, 1)),
        seed=0,
    )
    with pytest.raises(ConfigurationError):
        generate_templates(tiny, 700, seed=1)


def test_joins_connect_adjacent_tables(catalog):
    for seed in range(100):
        for t in generate_templates(catalog, 5, seed=seed):
            t.validate(catalog)
            for i, j in enumerate(t.join_predicates):
                assert j.left.table == t.tables[i]
                assert j.right.table == t.tables[i + 1]


def test_static_schedule_is_constant(templates):
    sched = DriftSchedule("static", total_rounds=20, templates_per_round=6)
    ws = build_schedule(templates, sched, seed=3)
    sets = template_sets(ws)
    assert len(ws) == 20
    assert all(s == sets[0] for s in sets)


def test_periodic_schedule_swaps_on_period(templates):
    sched = DriftSchedule(
        "periodic", total_rounds=12, templates_per_round=5, change_fraction=0.2, period=4
    )
    ws = build_schedule(templates, sched, seed=3)
    sets = template_sets(ws)
    k = math.ceil(0.2 * 5)
    assert sets[0] == sets[1] == sets[2] == sets[3]
    assert len(sets[3] - sets[4]) == k
    assert len(sets[4] - sets[3]) == k
    assert sets[4] == sets[5] == sets[6] == sets[7]


def test_continuous_drift_conservation(templates):
    sched = DriftSchedule(
        "continuous", total_rounds=10, templates_per_round=6, change_fraction=0.34
    )
    ws = build_schedule(templates, sched, seed=5)
    k = math.ceil(0.34 * 6)
    sets = template_sets(ws)
    for a, b in zip(sets, sets[1:]):
        assert len(a & b) == 6 - k


def test_cyclic_schedule_repeats(templates):
    sched = DriftSchedule(
        "cyclic",
        total_rounds=32,
        templates_per_round=5,
        change_fraction=0.2,
        cycle_length=15,
    )
    ws = build_schedule(templates, sched, seed=7)
    sets = template_sets(ws)
    for r in range(32):
        assert sets[r] == sets[r % 15]
    assert sets[0] == sets[15] == sets[30]


# sha256 of each schedule's canonical JSON: any change to the templates,
# literals or drift draws of a kind's rounds changes its digest
SCHEDULE_DIGESTS = [
    (
        dict(kind="static", total_rounds=5, templates_per_round=6),
        "174d588e83adb57c689d9cc1320d7d784d31cc08b0e4d049dc50fc8794cc61c7",
    ),
    (
        dict(kind="continuous", total_rounds=10, templates_per_round=6,
             change_fraction=0.34),
        "258d34f9514d112be729e9d3e11cd52288ab3d07c4cb557839552eca75218741",
    ),
    (
        dict(kind="continuous", total_rounds=4, templates_per_round=5,
             change_fraction=0.0),
        "02073db700ad0e3a3e17a9de509ad04523ee4da591a1455cad4ece2fcb519bfe",
    ),
    (
        dict(kind="periodic", total_rounds=9, templates_per_round=5, period=3),
        "7714bf0955cdaf90734da20774f9245c97caac81d3aa8c97f30e0d3522718922",
    ),
    (
        dict(kind="periodic", total_rounds=6, templates_per_round=4, period=1,
             change_fraction=0.5),
        "750740efdae6f5ae305ef822bd2d99bd5e967d1e261001186b564b91492ad105",
    ),
    (
        dict(kind="cyclic", total_rounds=4, templates_per_round=5, cycle_length=15),
        "4f377f3ae0b5bcfbc04f814be65c4c89b578351dbe6aba467134b6f24e7c35ce",
    ),
    (
        dict(kind="cyclic", total_rounds=12, templates_per_round=5, cycle_length=5,
             change_fraction=0.4, queries_per_template=2),
        "2d7037904d7bbc2ba0258d77e554b62917be4c87642eaf697408b0162d5ef1bf",
    ),
]


@pytest.mark.parametrize(
    "fields, digest",
    SCHEDULE_DIGESTS,
    ids=[
        "static",
        "continuous",
        "continuous-no-change",
        "periodic",
        "periodic-every-round",
        "cyclic-short",
        "cyclic-replayed",
    ],
)
def test_schedule_bytes_are_pinned(templates, fields, digest):
    ws = build_schedule(templates, DriftSchedule(**fields), seed=23)
    text = json.dumps(schedule_to_dict(ws), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_schedule_is_pure(templates):
    sched = DriftSchedule("continuous", total_rounds=6, templates_per_round=4)
    assert build_schedule(templates, sched, seed=11) == build_schedule(
        templates, sched, seed=11
    )


def test_insufficient_templates_rejected(templates):
    sched = DriftSchedule(
        "continuous", total_rounds=4, templates_per_round=24, change_fraction=0.5
    )
    with pytest.raises(ConfigurationError):
        build_schedule(templates, sched, seed=1)
    with pytest.raises(ConfigurationError):
        build_schedule(
            templates,
            DriftSchedule("static", total_rounds=2, templates_per_round=26),
            seed=1,
        )


def test_literals_fresh_per_round_and_query(templates):
    sched = DriftSchedule(
        "static", total_rounds=2, templates_per_round=3, queries_per_template=2
    )
    ws = build_schedule(templates, sched, seed=13)
    first = [q.bound_literals for q in ws[0].queries]
    second = [q.bound_literals for q in ws[1].queries]
    assert first != second
    assert ws[0].queries[0].bound_literals != ws[0].queries[1].bound_literals


def test_unseen_fraction(templates):
    sched = DriftSchedule("static", total_rounds=1, templates_per_round=10)
    w = build_schedule(templates, sched, seed=3)[0]
    ids = [t.id for t in w.templates]
    assert unseen_fraction(w, set(ids)) == 0.0
    assert unseen_fraction(w, set()) == 1.0
    assert unseen_fraction(w, set(ids[2:])) == pytest.approx(0.2)


def first_use_ids(workload):
    """A round's distinct template ids in order of first use, by the
    earlier per-query loop, kept as an oracle."""
    seen, out = set(), []
    for q in workload.queries:
        if q.template.id not in seen:
            seen.add(q.template.id)
            out.append(q.template.id)
    return out


@pytest.mark.parametrize("kind", ["static", "continuous", "periodic", "cyclic"])
def test_round_templates_equal_the_per_query_loop(templates, kind):
    # templates repeat within a round (3 queries each) and across rounds
    sched = DriftSchedule(
        kind, total_rounds=6, templates_per_round=6, change_fraction=0.5,
        period=2, cycle_length=3, queries_per_template=3,
    )
    workloads = build_schedule(templates, sched, seed=4)
    mixed = workloads[0].queries
    workloads.append(MiniWorkload(6, mixed[::2] + mixed[1::2] + mixed[:4]))
    for w in workloads:
        assert [t.id for t in w.templates] == first_use_ids(w)
        by_id = {q.template.id: q.template for q in w.queries}
        assert all(t is by_id[t.id] for t in w.templates)
        assert w.templates is w.templates


def test_empty_workload_rejected():
    with pytest.raises(ConfigurationError):
        MiniWorkload(round=0, queries=())


def test_schedule_json_roundtrip(catalog, templates, tmp_path):
    sched = DriftSchedule("periodic", total_rounds=6, templates_per_round=4, period=2)
    ws = build_schedule(templates, sched, seed=17)
    path = tmp_path / "schedule.json"
    save_schedule(ws, path)
    assert load_schedule(path, catalog) == ws


def test_schedule_file_format_is_fixed(catalog, templates, tmp_path):
    sched = DriftSchedule("continuous", total_rounds=4, templates_per_round=5)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_schedule(build_schedule(templates, sched, seed=19), first)
    save_schedule(load_schedule(first, catalog), second)
    assert first.read_bytes() == second.read_bytes()

    def is_column(ref):
        return isinstance(ref, list) and len(ref) == 2

    written = json.loads(first.read_text())["templates"]
    assert any(t["join_predicates"] for t in written)
    for t in written:
        assert set(t) == {
            "id",
            "tables",
            "join_predicates",
            "filter_specs",
            "order_by",
            "group_by",
            "payload_columns",
        }
        for j in t["join_predicates"]:
            assert set(j) == {"left", "right"}
            assert is_column(j["left"]) and is_column(j["right"])
        for f in t["filter_specs"]:
            assert set(f) == {"column", "op", "sampler"} and is_column(f["column"])
            assert set(f["sampler"]) == {"kind", "low", "high", "distinct"}
        for key in ("order_by", "group_by", "payload_columns"):
            assert all(is_column(ref) for ref in t[key])
