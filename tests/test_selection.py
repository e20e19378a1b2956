import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxlab.catalog import (
    CatalogSpec,
    ColumnRef,
    IndexCandidate,
    generate_catalog,
    sized_candidate,
)
from idxlab.correction import scored_leaves
from idxlab.costmodel import CostMultiplierModel, combined_uncertainty
from idxlab.errors import ConfigurationError, ContractError
from idxlab.plan import encoding_length
from idxlab.seeding import rng_for
from idxlab.selection import (
    Configuration,
    Gate,
    _pruned,
    applicability,
    candidate_valuation,
    enumerate_configuration,
    epsilon_greedy,
    exploration_weight,
    generate_candidates,
    round_context,
    selection_probabilities,
    total_value,
)
from idxlab.simulator import whatif_plan
from idxlab.plan import leaves
from idxlab.workload import (
    DriftSchedule,
    FilterSpec,
    JoinSpec,
    LiteralSampler,
    MiniWorkload,
    Query,
    QueryTemplate,
    build_schedule,
    generate_templates,
)

from conftest import (
    applicable_pairs,
    assert_score_states_current,
    cached_scores,
    total_size_bytes,
)


@pytest.fixture(scope="module")
def env():
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=42)
    templates = generate_templates(catalog, 12, seed=1)
    sched = DriftSchedule("static", total_rounds=1, templates_per_round=12)
    workload = build_schedule(templates, sched, seed=2)[0]
    return catalog, workload


def untrained_gate(catalog):
    dim = encoding_length(catalog)
    models = {
        kind: CostMultiplierModel(input_dim=dim, seed=i)
        for i, kind in enumerate(("SeqScan", "IndexScan", "IndexOnlyScan"))
    }
    return Gate(catalog, models, threshold=0.1, mix_weight=0.5, passes=20)


def untrained_context(catalog, workload, gate=None, candidates=None):
    """The round context of ``workload`` under untrained models, which
    prices each query's no-index term from a fresh no-index plan, and
    ``candidates``, by default the workload's own."""
    if candidates is None:
        candidates = generate_candidates(workload, catalog)
    return round_context(
        workload,
        candidates,
        untrained_gate(catalog) if gate is None else gate,
        [whatif_plan(q, (), catalog)[0] for q in workload.queries],
    )


def test_candidates_cover_filter_join_composite(env):
    catalog, _ = env
    # one template with a filter and a join key on the same table
    t0, t1 = catalog.tables[0].name, catalog.tables[1].name
    t0_cols = [c.name for c in catalog.tables[0].columns]
    tpl = QueryTemplate(
        id="X",
        tables=(t0, t1),
        join_predicates=(
            JoinSpec(ColumnRef(t0, t0_cols[0]), ColumnRef(t1, "c0")),
        ),
        filter_specs=(
            FilterSpec(
                ColumnRef(t0, t0_cols[1]), "=", LiteralSampler("numeric", 0.0, 1.0)
            ),
        ),
    )
    w = MiniWorkload(0, (Query(tpl, (0.5,)),))
    cands = generate_candidates(w, catalog)
    keys = {(c.table, c.key_columns) for c in cands}
    assert (t0, (t0_cols[1],)) in keys  # filter column
    assert (t0, (t0_cols[0],)) in keys  # join key
    assert (t1, ("c0",)) in keys  # other join side
    assert (t0, (t0_cols[1], t0_cols[0])) in keys  # composite
    assert len(cands) >= 3


def test_no_indexable_features_no_candidates(env):
    catalog, _ = env
    t0 = catalog.tables[0].name
    tpl = QueryTemplate(
        id="P",
        tables=(t0,),
        join_predicates=(),
        filter_specs=(),
        payload_columns=(ColumnRef(t0, "c0"),),
    )
    w = MiniWorkload(0, (Query(tpl, ()),))
    assert generate_candidates(w, catalog) == []


def test_candidates_unique_across_workloads():
    catalog = generate_catalog(CatalogSpec(n_tables=3), seed=7)
    templates = generate_templates(catalog, 10, seed=7)
    for seed in range(100):
        sched = DriftSchedule("static", total_rounds=1, templates_per_round=6)
        w = build_schedule(templates, sched, seed=seed)[0]
        cands = generate_candidates(w, catalog)
        keys = [(c.table, c.key_columns) for c in cands]
        assert len(keys) == len(set(keys))
        for c in cands:
            assert c.estimated_size_bytes > 0


def test_round_context_rejects_a_nonpositive_noindex_total(env):
    catalog, workload = env
    free = SimpleNamespace(total_cost=0.0)
    with pytest.raises(ContractError, match="nonpositive"):
        plans = [free] * len(workload.queries)
        round_context(workload, (), Gate(catalog, {}, 0.1, 0.5, 20), plans)


def test_round_context_reads_current_scores_and_drops_the_pairs_of_departed_queries(
    env,
):
    catalog, workload = env
    gate = untrained_gate(catalog)
    ctx = untrained_context(catalog, workload, gate)
    for candidate in generate_candidates(workload, catalog):
        candidate_valuation(candidate, ctx, 0.5)
    assert_score_states_current(gate)
    # an update replaces the IndexScan model's state; half the queries leave
    gate.models["IndexScan"].update([(np.ones(encoding_length(catalog)), 19)])
    stayed = MiniWorkload(1, workload.queries[: len(workload.queries) // 2])
    kept = {q.key() for q in stayed.queries}
    scores, pairs = cached_scores(gate), dict(gate.plan_memo)
    departed = {key for key in pairs if key[0] not in kept}
    assert scores["IndexScan"] and departed and len(pairs) > len(departed)

    untrained_context(catalog, stayed, gate)
    assert_score_states_current(gate)
    # the updated kind serves no score of its old state, even for an
    # encoding it scored before; every other kind keeps its score objects
    old = scores.pop("IndexScan")
    assert gate.score_cache["IndexScan"][1]
    again = gate.score([("IndexScan", np.frombuffer(key)) for key in old])
    served = gate.score_cache["IndexScan"][1].values()
    assert {id(s) for s in old.values()}.isdisjoint(map(id, [*again, *served]))
    for kind, kept_scores in scores.items():
        for key, score in kept_scores.items():
            assert gate.score_cache[kind][1][key] is score
    # the memo holds the stayed round's pairs, each read from the round before
    assert set(gate.plan_memo) == applicable_pairs(stayed, catalog)
    assert departed.isdisjoint(gate.plan_memo)
    for key, priced in gate.plan_memo.items():
        assert priced is pairs[key]


def test_a_score_cache_shared_by_two_mix_weights_serves_each_its_own(env):
    catalog, workload = env
    gate = untrained_gate(catalog)
    # the same models, score cache and memo under another mix weight
    other = dataclasses.replace(gate, mix_weight=0.25)
    assert other.score_cache is gate.score_cache
    ctx = untrained_context(catalog, workload, gate)
    pairs = [
        pair
        for i, q in enumerate(workload.queries)
        for pair in scored_leaves(ctx.leaf_encodings(i, whatif_plan(q, (), catalog)[0]))
    ]
    served = {gate.mix_weight: [], other.mix_weight: []}
    for g in (gate, other, gate, other):
        scores = g.score(pairs)
        served[g.mix_weight] += scores
        for (kind, enc), score in zip(pairs, scores):
            assert score == combined_uncertainty(
                g.models[kind], enc, g.mix_weight, g.passes
            )
    mine, theirs = served.values()
    assert {id(s) for s in mine}.isdisjoint(map(id, theirs))


def test_round_context_stores_the_pairs_of_queries_of_both_rounds(env):
    catalog, workload = env
    queries = workload.queries
    n = len(queries)
    first = MiniWorkload(0, queries[: 2 * n // 3])
    second = MiniWorkload(1, queries[n // 3 :])
    both = {q.key() for q in queries[n // 3 : 2 * n // 3]}
    assert both and len(both) < len({q.key() for q in second.queries})
    gate = untrained_gate(catalog)
    untrained_context(catalog, first, gate)
    earlier = dict(gate.plan_memo)
    assert set(earlier) == applicable_pairs(first, catalog)
    untrained_context(catalog, second, gate)
    assert set(gate.plan_memo) == applicable_pairs(second, catalog)
    # a pair the first round priced is read, not planned again
    read = set(earlier) & set(gate.plan_memo)
    assert read and {key for key, _ in read} <= both
    for key, priced in gate.plan_memo.items():
        assert (key in read) == (priced is earlier.get(key))


def test_valuation_of_a_candidate_the_round_did_not_price_is_refused(env):
    catalog, workload = env
    x = generate_candidates(workload, catalog)[0]
    ctx = untrained_context(catalog, workload, candidates=[])
    with pytest.raises(ContractError, match="not priced"):
        candidate_valuation(x, ctx, 0.5)


def test_execution_benefit_zero_for_untouched_candidate(env):
    catalog, workload = env
    # untrained models keep the gate closed, so costs equal raw what-if costs;
    # an index on a table no query reads leaves every cost unchanged
    table = catalog.tables[0]
    queries = tuple(
        q for q in workload.queries if table.name not in q.template.tables
    )
    assert queries
    untouched = MiniWorkload(workload.round, queries)
    unused = sized_candidate(table.name, (table.columns[0].name,), catalog)
    ctx = untrained_context(catalog, untouched, candidates=[unused])
    val = candidate_valuation(unused, ctx, 0.0)
    assert val.execution_benefit == 0.0


def test_execution_benefit_matches_whatif_when_gate_closed(env):
    catalog, workload = env
    ctx = untrained_context(catalog, workload)
    cands = generate_candidates(workload, catalog)
    x = cands[0]
    num = sum(
        q.frequency_weight * whatif_plan(q, (x,), catalog)[1]
        for q in workload.queries
    )
    den = sum(
        q.frequency_weight * whatif_plan(q, (), catalog)[1]
        for q in workload.queries
    )
    val = candidate_valuation(x, ctx, 0.0)
    assert val.execution_benefit == pytest.approx(1 - num / den)


def test_benefit_formula_arithmetic():
    # two queries at no-index cost 100 with corrected costs 60 and 80
    assert 1 - (60.0 + 80.0) / (100.0 + 100.0) == pytest.approx(0.3)
    # all corrected costs doubled
    assert 1 - 400.0 / 200.0 == pytest.approx(-1.0)


def test_exploratory_value_sums_accessing_operators(env):
    catalog, workload = env
    ctx = untrained_context(catalog, workload)
    cands = generate_candidates(workload, catalog)
    used = None
    for x in cands:
        hits = sum(
            1
            for q in workload.queries
            for leaf in leaves(whatif_plan(q, (x,), catalog)[0])
            if leaf.index == x
        )
        if hits:
            used = (x, hits)
            break
    assert used is not None
    x, hits = used
    val = candidate_valuation(x, ctx, explore_weight=0.5)
    # untrained models: every score is exactly (1-mix) * ln 37
    per_op = 0.5 * np.log(37)
    assert val.exploratory_value == pytest.approx(hits * per_op, rel=1e-9)
    assert val.value == pytest.approx(
        val.execution_benefit * (1 + 0.5 * val.exploratory_value), rel=1e-12
    )


def test_exploratory_value_zero_when_unused(env):
    catalog, workload = env
    unused = sized_candidate(
        catalog.tables[0].name, (catalog.tables[0].columns[0].name,), catalog
    )
    ctx = untrained_context(catalog, workload, candidates=[unused])
    plans_use_it = any(
        leaf.index == unused
        for q in workload.queries
        for leaf in leaves(whatif_plan(q, (unused,), catalog)[0])
    )
    if not plans_use_it:
        val = candidate_valuation(unused, ctx, 0.0)
        assert val.exploratory_value == 0.0


def test_total_value_examples():
    assert total_value(0.3, 0.4, 0.5) == pytest.approx(0.36)
    assert total_value(0.7, 5.0, 0.0) == 0.7
    assert total_value(0.0, 100.0, 0.9) == 0.0
    with pytest.raises(ConfigurationError):
        total_value(0.5, 0.5, -0.1)


def test_exploration_weight_examples():
    assert exploration_weight(2, 1.0, 0.5, 0.9) == pytest.approx(0.405)
    assert exploration_weight(10, 0.0, 0.5, 0.9) == 0.5
    assert exploration_weight(10, 0.8, 0.5, 0.9) == pytest.approx(
        0.5 * 0.9**8, rel=1e-12
    )
    for bad in (
        dict(decay=0.0),
        dict(decay=1.0),
        dict(init_weight=0.0),
        dict(seen_fraction=1.2),
        dict(round_index=-1),
    ):
        kw = dict(round_index=1, seen_fraction=0.5, init_weight=0.5, decay=0.9)
        kw.update(bad)
        with pytest.raises(ConfigurationError):
            exploration_weight(**kw)


def test_selection_probabilities():
    p = selection_probabilities([0.36, 0.04])
    assert p == pytest.approx([0.9, 0.1], abs=1e-4)
    assert selection_probabilities([0.2, 0.2, 0.2]) == pytest.approx([1 / 3] * 3)
    p = selection_probabilities([-5.0, 1.0])
    assert p[0] > 0.0 and p[0] < 1e-5
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        selection_probabilities([])


def test_probability_scale_invariance():
    values = [0.4, 1.3, 0.05, 2.0]
    base = selection_probabilities(values)
    # scaling all positive values leaves proportions essentially unchanged
    scaled = selection_probabilities([v * 3.0 for v in values])
    manual = np.array(values) / np.sum(values)
    manual_scaled = np.array([v * 3 for v in values]) / np.sum(
        [v * 3 for v in values]
    )
    assert np.allclose(manual, manual_scaled, atol=1e-12)
    assert np.allclose(base, scaled, atol=1e-6)


def _candidates():
    a = IndexCandidate("t", ("a",), 100)
    ab = IndexCandidate("t", ("a", "b"), 200)
    b = IndexCandidate("t", ("b",), 100)
    u = IndexCandidate("u", ("x",), 400)
    return a, ab, b, u


@pytest.mark.parametrize("k", [1, 3, 4, 9])
def test_epsilon_greedy_at_zero_takes_the_first_k_of_the_order(k):
    candidates = _candidates()
    order = [2, 0, 3, 1]
    config = epsilon_greedy(candidates, order, k, 0.0, np.random.default_rng(5))
    assert config.indexes == tuple(candidates[i] for i in order[:k])
    assert order == [2, 0, 3, 1]


def test_epsilon_greedy_at_one_draws_every_pick():
    candidates = _candidates()
    order = [2, 0, 3, 1]
    config = epsilon_greedy(candidates, order, 3, 1.0, np.random.default_rng(5))
    rng, pool, want = np.random.default_rng(5), list(order), []
    for _ in range(3):
        rng.random()  # below 1: the pick is random
        want.append(candidates[pool.pop(int(rng.integers(0, len(pool))))])
    assert config.indexes == tuple(want)
    assert order == [2, 0, 3, 1]


def test_enumerate_k1_returns_single(env):
    a, ab, b, u = _candidates()
    config = enumerate_configuration([a, b], [0.5, 0.5], seed=1, max_indexes=1)
    assert len(config) == 1
    assert config.indexes[0] in (a, b)


def test_enumerate_covering_prune():
    a, ab, b, u = _candidates()
    # ab is near-certain to be drawn first; a must then be pruned as covered
    config = enumerate_configuration(
        [ab, a], [0.999999, 0.000001], seed=3, max_indexes=2
    )
    assert config.indexes == (ab,)


def test_enumerate_prefix_prune():
    a, ab, b, u = _candidates()
    config = enumerate_configuration(
        [ab, a, b], [0.99999, 0.000005, 0.000005], seed=5, max_indexes=3
    )
    # a shares ab's full leading prefix and is covered; b is covered as a set
    assert config.indexes == (ab,)


def test_enumerate_per_table_cap():
    a, ab, b, u = _candidates()
    c = IndexCandidate("t", ("c",), 100)
    config = enumerate_configuration(
        [a, b, c, u], [0.25] * 4, seed=7, max_indexes=4, per_table_cap=2
    )
    on_t = [ix for ix in config.indexes if ix.table == "t"]
    assert len(on_t) <= 2


def test_enumerate_storage_budget():
    a, ab, b, u = _candidates()
    config = enumerate_configuration(
        [a, ab, b, u], [0.25] * 4, seed=9, storage_budget_bytes=250
    )
    assert total_size_bytes(config) <= 250
    assert len(config) >= 1


def test_enumerate_validation():
    a, ab, b, u = _candidates()
    with pytest.raises(ConfigurationError):
        enumerate_configuration([a], [1.0], seed=1)
    with pytest.raises(ConfigurationError):
        enumerate_configuration([a], [1.0], seed=1, max_indexes=1,
                                storage_budget_bytes=10)
    with pytest.raises(ConfigurationError):
        enumerate_configuration([a], [1.0, 0.5], seed=1, max_indexes=1)


def test_enumerate_deterministic():
    a, ab, b, u = _candidates()
    kw = dict(seed=11, max_indexes=2)
    assert (
        enumerate_configuration([a, b, u], [0.5, 0.3, 0.2], **kw).indexes
        == enumerate_configuration([a, b, u], [0.5, 0.3, 0.2], **kw).indexes
    )


def test_enumeration_sampling_frequency():
    a, ab, b, u = _candidates()
    hits = 0
    n = 2000
    for seed in range(n):
        config = enumerate_configuration(
            [a, u], [0.9, 0.1], seed=seed, max_indexes=1
        )
        hits += config.indexes[0] == a
    assert abs(hits / n - 0.9) <= 0.02


def check_configuration(config, candidates, max_indexes, per_table_cap):
    assert len(config) <= max_indexes
    per_table = {}
    for i, ix in enumerate(config.indexes):
        per_table[ix.table] = per_table.get(ix.table, 0) + 1
        for other in config.indexes[:i]:
            if other.table != ix.table:
                continue
            assert not set(other.key_columns) >= set(ix.key_columns)
            assert other.key_columns[: len(ix.key_columns)] != ix.key_columns
    assert all(v <= per_table_cap for v in per_table.values())


def test_enumeration_structural_postconditions():
    rng = np.random.default_rng(0)
    tables = ["t", "u", "v"]
    cols = ["a", "b", "c", "d"]
    for seed in range(300):
        pool = []
        seen = set()
        for _ in range(10):
            t = tables[int(rng.integers(0, 3))]
            w = int(rng.integers(1, 3))
            key = tuple(
                cols[i] for i in rng.choice(len(cols), size=w, replace=False)
            )
            if (t, key) in seen:
                continue
            seen.add((t, key))
            pool.append(IndexCandidate(t, key, int(rng.integers(50, 500))))
        probs = selection_probabilities(list(rng.random(len(pool))))
        config = enumerate_configuration(
            pool, probs, seed=seed, max_indexes=4, per_table_cap=2
        )
        check_configuration(config, pool, 4, 2)


_candidate_pools = st.lists(
    st.builds(
        IndexCandidate,
        st.sampled_from(("t", "u", "v")),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True).map(
            tuple
        ),
        st.integers(1, 1000),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda c: (c.table, c.key_columns),
)


@settings(max_examples=200, deadline=None)
@given(
    pool=_candidate_pools,
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    per_table_cap=st.integers(1, 3),
)
def test_enumeration_never_exceeds_its_budget(pool, data, seed, per_table_cap):
    values = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=len(pool), max_size=len(pool))
    )
    probs = selection_probabilities(values)
    total = sum(c.estimated_size_bytes for c in pool)
    budget = data.draw(st.integers(1, total + 100))
    config = enumerate_configuration(
        pool, probs, seed, storage_budget_bytes=budget, per_table_cap=per_table_cap
    )
    assert total_size_bytes(config) <= budget
    assert set(config.indexes) <= set(pool)
    check_configuration(config, pool, len(pool), per_table_cap)
    max_indexes = data.draw(st.integers(1, len(pool) + 2))
    config = enumerate_configuration(
        pool, probs, seed, max_indexes=max_indexes, per_table_cap=per_table_cap
    )
    check_configuration(config, pool, max_indexes, per_table_cap)


def two_mode_enumeration(
    candidates,
    probabilities,
    seed: int,
    max_indexes: int = None,
    storage_budget_bytes: int = None,
    per_table_cap: int = 3,
) -> Configuration:
    """The oracle for `enumerate_configuration`'s one draw loop: the loop it
    replaced, which ran each budget mode through its own branches, copied
    verbatim."""
    if (max_indexes is None) == (storage_budget_bytes is None):
        raise ConfigurationError(
            "exactly one of max_indexes / storage_budget_bytes must be set"
        )

    pool = list(candidates)
    weights = list(np.asarray(probabilities, dtype=float))
    if len(pool) != len(weights):
        raise ConfigurationError("probabilities must align with candidates")
    rng = rng_for(seed, "enumeration")
    selected = []
    remaining = storage_budget_bytes
    draws_left = max_indexes if max_indexes is not None else len(pool)
    while pool and draws_left > 0:
        p = np.asarray(weights, dtype=float)
        p = p / p.sum()
        pick = int(rng.choice(len(pool), p=p))
        candidate = pool.pop(pick)
        weights.pop(pick)
        if max_indexes is not None:
            draws_left -= 1
        if remaining is not None and candidate.estimated_size_bytes > remaining:
            continue
        if _pruned(candidate, selected, per_table_cap):
            continue
        selected.append(candidate)
        if remaining is not None:
            remaining -= candidate.estimated_size_bytes
    return Configuration(indexes=tuple(selected))


def _sized(config) -> list:
    return [(ix, ix.estimated_size_bytes) for ix in config.indexes]


@settings(max_examples=200, deadline=None)
@given(
    pool=_candidate_pools,
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    per_table_cap=st.integers(1, 4),
)
def test_one_draw_loop_draws_as_the_two_mode_loop_did(pool, data, seed, per_table_cap):
    weights = data.draw(
        st.lists(st.floats(1e-6, 1.0), min_size=len(pool), max_size=len(pool))
    )
    k = data.draw(st.integers(1, 8))
    sizes = sorted(c.estimated_size_bytes for c in pool)
    # from below the smallest candidate, where none fits, to the whole pool
    budget = data.draw(st.integers(sizes[0] - 1, sum(sizes)))
    for budget_kw in ({"max_indexes": k}, {"storage_budget_bytes": budget}):
        args = (pool, weights, seed)
        kw = dict(budget_kw, per_table_cap=per_table_cap)
        assert _sized(enumerate_configuration(*args, **kw)) == _sized(
            two_mode_enumeration(*args, **kw)
        )
