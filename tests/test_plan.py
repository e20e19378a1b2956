import numpy as np
import pytest

from idxlab.catalog import (
    CatalogSpec,
    ColumnRef,
    IndexCandidate,
    generate_catalog,
)
from idxlab.errors import CatalogLookupError, ConfigurationError
from idxlab.plan import (
    COMPARISON_OPS,
    PLAN_KINDS,
    PlanNode,
    Predicate,
    encode_operator,
    encoding_length,
    leaves,
    path_to_root,
)
from idxlab.selection import generate_candidates
from idxlab.simulator import whatif_plan
from idxlab.workload import DriftSchedule, build_schedule, generate_templates

from conftest import nlj_example_plan

N_KINDS = len(PLAN_KINDS)


def blocks(vec, catalog):
    """Split an encoding into its documented blocks."""
    n = len(catalog.column_refs)
    i = 0
    kind = vec[i : i + N_KINDS]
    i += N_KINDS
    keys = [vec[i + s * n : i + (s + 1) * n] for s in range(3)]
    i += 3 * n
    pred_col = vec[i : i + n]
    i += n
    op = vec[i : i + len(COMPARISON_OPS)]
    i += len(COMPARISON_OPS)
    return kind, keys, pred_col, op, vec[i], vec[i + 1]


def test_index_scan_key_block_zero_padding(small_catalog):
    node = PlanNode(
        "IndexScan",
        table="t",
        index=IndexCandidate("t", ("a",)),
        predicates=[Predicate(ColumnRef("t", "a"), "=", 5.0)],
    )
    vec = encode_operator(node, small_catalog)
    kind, keys, pred_col, op, value, rank = blocks(vec, small_catalog)
    assert kind.sum() == 1.0 and kind[PLAN_KINDS.index("IndexScan")] == 1.0
    assert keys[0].sum() == 1.0
    assert keys[1].sum() == 0.0 and keys[2].sum() == 0.0


def test_numeric_literal_at_domain_max_encodes_to_one(small_catalog):
    node = PlanNode(
        "SeqScan",
        table="t",
        predicates=[Predicate(ColumnRef("t", "a"), "<", 1000.0)],
    )
    *_, value, rank = blocks(encode_operator(node, small_catalog), small_catalog)
    assert value == 1.0
    assert rank == 0.0


def test_seqscan_without_predicates_is_zero_beyond_kind(small_catalog):
    node = PlanNode("SeqScan", table="t")
    vec = encode_operator(node, small_catalog)
    kind, keys, pred_col, op, value, rank = blocks(vec, small_catalog)
    assert kind[PLAN_KINDS.index("SeqScan")] == 1.0
    assert sum(k.sum() for k in keys) == 0.0
    assert pred_col.sum() == 0.0 and op.sum() == 0.0
    assert value == 0.0 and rank == 0.0


def test_string_literal_uses_rank_slot(small_catalog):
    node = PlanNode(
        "SeqScan",
        table="t",
        predicates=[Predicate(ColumnRef("t", "s"), "=", "v19")],
    )
    *_, value, rank = blocks(encode_operator(node, small_catalog), small_catalog)
    assert value == 0.0
    assert rank == pytest.approx(20 / 40)


def test_most_selective_predicate_wins(small_catalog):
    # equality on a (1/100) beats equality on b (1/50)
    node = PlanNode(
        "SeqScan",
        table="t",
        predicates=[
            Predicate(ColumnRef("t", "b"), "=", 5.0),
            Predicate(ColumnRef("t", "a"), "=", 5.0),
        ],
    )
    _, _, pred_col, *_ = blocks(encode_operator(node, small_catalog), small_catalog)
    assert pred_col[small_catalog.column_position(ColumnRef("t", "a"))] == 1.0


def test_join_node_encodes_too(small_catalog):
    node = PlanNode("HashJoin", children=[PlanNode("SeqScan", table="t")])
    vec = encode_operator(node, small_catalog)
    assert vec[PLAN_KINDS.index("HashJoin")] == 1.0
    assert vec.sum() == 1.0


def test_unknown_predicate_column_raises(small_catalog):
    node = PlanNode(
        "SeqScan",
        table="t",
        predicates=[Predicate(ColumnRef("t", "zz"), "=", 1.0)],
    )
    with pytest.raises(CatalogLookupError):
        encode_operator(node, small_catalog)


def random_plans(n_plans=100):
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=5)
    templates = generate_templates(catalog, 12, seed=5)
    sched = DriftSchedule("static", total_rounds=1, templates_per_round=12)
    workload = build_schedule(templates, sched, seed=5)[0]
    candidates = generate_candidates(workload, catalog)
    rng = np.random.default_rng(5)
    plans = []
    for _ in range(n_plans):
        q = workload.queries[int(rng.integers(0, len(workload.queries)))]
        k = int(rng.integers(0, min(4, len(candidates)) + 1))
        config = [candidates[i] for i in rng.choice(len(candidates), k, replace=False)]
        plan, _ = whatif_plan(q, config, catalog)
        plans.append(plan)
    return catalog, plans


def test_encoding_length_invariance_and_bounds():
    catalog, plans = random_plans(100)
    expected = encoding_length(catalog)
    for plan in plans:
        for node in plan.walk():
            vec = encode_operator(node, catalog)
            assert len(vec) == expected
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


def test_one_hot_blocks_sum_to_zero_or_one():
    catalog, plans = random_plans(40)
    for plan in plans:
        for node in plan.walk():
            vec = encode_operator(node, catalog)
            kind, keys, pred_col, op, _, _ = blocks(vec, catalog)
            assert kind.sum() == 1.0
            for k in keys:
                assert k.sum() in (0.0, 1.0)
            assert pred_col.sum() in (0.0, 1.0)
            assert op.sum() in (0.0, 1.0)


def test_encoding_is_pure(small_catalog):
    node = PlanNode(
        "IndexScan",
        table="t",
        index=IndexCandidate("t", ("a", "b")),
        predicates=[Predicate(ColumnRef("t", "a"), ">=", 123.0)],
    )
    a = encode_operator(node, small_catalog)
    b = encode_operator(node, small_catalog)
    assert np.array_equal(a, b)


def test_leaves_single_node():
    node = PlanNode("SeqScan", table="t")
    assert leaves(node) == [node]


def test_leaves_dfs_outer_first():
    root, outer, inner = nlj_example_plan()
    assert leaves(root) == [outer, inner]


def test_leaves_of_three_level_left_deep():
    s1 = PlanNode("SeqScan", table="a")
    s2 = PlanNode("SeqScan", table="b")
    s3 = PlanNode("SeqScan", table="c")
    j1 = PlanNode("NestedLoopJoin", children=[s1, s2])
    j2 = PlanNode("HashJoin", children=[j1, PlanNode("Hash", children=[s3])])
    assert leaves(j2) == [s1, s2, s3]


def test_path_to_root():
    root, outer, inner = nlj_example_plan()
    assert path_to_root(root, root) == [root]
    assert path_to_root(root, inner) == [inner, root]
    with pytest.raises(CatalogLookupError):
        path_to_root(root, PlanNode("SeqScan", table="x"))


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        PlanNode("SeqScan").validate()  # no table
    with pytest.raises(ConfigurationError):
        PlanNode("IndexScan", table="t").validate()  # no index
    with pytest.raises(ConfigurationError):
        PlanNode("HashJoin").validate()  # no children
    root, _, _ = nlj_example_plan()
    root.validate()


def test_clone_is_deep():
    root, _, inner = nlj_example_plan()
    copy = root.clone()
    copy.children[1].exec_cost = 99.0
    assert inner.exec_cost == 1.35
