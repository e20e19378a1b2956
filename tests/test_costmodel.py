import copy
import math
import pickle
import zlib

import numpy as np
import pytest

from idxlab.costmodel import (
    BATCH_SIZE,
    EPOCHS,
    LEARNING_RATE,
    MULTIPLIER_GRID,
    N_CLASSES,
    SCORE_CHUNK,
    CostMultiplierModel,
    combined_uncertainties,
    combined_uncertainty,
    entropy,
    mc_dropout,
    nearest_bucket_index,
)
from idxlab.errors import ConfigurationError, ContractError
from idxlab.seeding import rng_for


def test_multiplier_grid_structure():
    assert len(MULTIPLIER_GRID) == 37
    assert 1.0 in MULTIPLIER_GRID.tolist()
    assert np.all(np.diff(MULTIPLIER_GRID) > 0)
    assert MULTIPLIER_GRID[0] == 0.01 and MULTIPLIER_GRID[-1] == 100.0


def test_nearest_bucket_is_log_space():
    assert MULTIPLIER_GRID[nearest_bucket_index(2.0)] == 2.0
    # sqrt(6) ~ 2.449 is the log midpoint of (2, 3)
    assert MULTIPLIER_GRID[nearest_bucket_index(2.44)] == 2.0
    assert MULTIPLIER_GRID[nearest_bucket_index(2.46)] == 3.0
    with pytest.raises(ConfigurationError):
        nearest_bucket_index(0.0)


def test_entropy_extremes():
    one_hot = np.zeros(N_CLASSES)
    one_hot[5] = 1.0
    assert entropy(one_hot) == 0.0
    uniform = np.full(N_CLASSES, 1 / N_CLASSES)
    assert entropy(uniform) == pytest.approx(math.log(37), abs=1e-9)
    half = np.zeros(N_CLASSES)
    half[0] = half[1] = 0.5
    assert entropy(half) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_contract():
    with pytest.raises(ContractError):
        entropy(np.full(N_CLASSES, 0.5))
    with pytest.raises(ContractError):
        bad = np.full(N_CLASSES, 1 / N_CLASSES)
        bad[0] = -0.01
        bad[1] += 0.01
        entropy(bad)


def test_entropy_bounds_on_random_simplices():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.dirichlet(np.full(N_CLASSES, 0.3))
        assert 0.0 <= entropy(p) <= math.log(37) + 1e-12


def make_model(dim=12, seed=0, **kw):
    return CostMultiplierModel(input_dim=dim, seed=seed, **kw)


def random_encoding(dim=12, seed=0):
    return rng_for(seed, "enc").random(dim)


def test_untrained_model_is_uniform():
    m = make_model()
    p = m.predict(random_encoding())
    assert np.allclose(p, 1 / N_CLASSES)
    assert abs(p.sum() - 1.0) < 1e-6 and np.all(p >= 0)


def test_dropout_off_prediction_is_pure():
    m = make_model()
    m.update([(random_encoding(seed=s), s % N_CLASSES) for s in range(8)])
    e = random_encoding(seed=99)
    assert np.array_equal(m.predict(e), m.predict(e))


def test_dimension_mismatch_raises():
    m = make_model(dim=12)
    with pytest.raises(ValueError):
        m.predict(np.zeros(13))
    with pytest.raises(ValueError):
        m.update([(np.zeros(11), 0)])


def test_update_validations():
    m = make_model()
    with pytest.raises(ValueError):
        m.update([])
    with pytest.raises(ValueError):
        m.update([(np.zeros(12), 37)])
    with pytest.raises(ValueError):
        m.update([(np.zeros(12), -1)])


def test_replay_buffer_evicts_oldest():
    m = make_model()
    first = [(np.full(12, i / 600), 0) for i in range(512)]
    m.update(first)
    assert len(m.buffer) == 512
    newer = [(np.full(12, 0.9), 1) for _ in range(10)]
    m.update(newer)
    assert len(m.buffer) == 512
    # the 10 oldest encodings are gone; the head is now the 11th original
    assert m.buffer[0][0][0] == pytest.approx(first[10][0][0])
    assert all(idx == 1 for _, idx in list(m.buffer)[-10:])


def test_single_class_update_reduces_loss():
    m = make_model(seed=4)
    labels = [(random_encoding(seed=s), 7) for s in range(16)]
    X = np.stack([e for e, _ in labels])
    y = np.array([i for _, i in labels])
    before = m.loss_and_gradients(X, y)[0]
    m.update(labels)
    after = m.loss_and_gradients(X, y)[0]
    assert after < before


def test_overfit_500_steps_single_label():
    m = make_model(seed=5)
    enc = random_encoding(seed=5)
    while m.step_count < 500:
        m.update([(enc, 22)] * 8)
    assert int(np.argmax(m.predict(enc))) == 22


def test_gradient_check_small():
    # acceptance runs the full 20-seed sweep; keep a quick 3-seed version here
    for seed in range(3):
        assert_gradients_match(seed)


def assert_gradients_match(seed, dim=12, n=5, h=1e-5, tol=1e-4):
    # relative error with an absolute floor of 1e-5: below that scale the
    # central difference itself is dominated by float cancellation noise
    # (~ eps * loss / h ~ 4e-11), not by the analytic gradient
    m = make_model(dim=dim, seed=seed)
    # move off the zero-head symmetric point before checking
    rng = rng_for(seed, "grad")
    m.update([(rng.random(dim), int(rng.integers(0, N_CLASSES))) for _ in range(8)])
    X = rng.random((n, dim))
    y = rng.integers(0, N_CLASSES, size=n)
    _, grads = m.loss_and_gradients(X, y)
    for name, param in m.params.items():
        flat = param.ravel()
        g = grads[name].ravel()
        idx = rng.choice(flat.size, size=min(60, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up, _ = m.loss_and_gradients(X, y)
            flat[i] = keep - h
            down, _ = m.loss_and_gradients(X, y)
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(g[i]), 1e-5)
            assert abs(numeric - g[i]) / denom <= tol, (name, i)


def test_mcd_zero_when_dropout_disabled():
    m = make_model(dropout_rate=0.0)
    m.update([(random_encoding(seed=s), 3) for s in range(8)])
    assert mc_dropout(m, random_encoding(seed=1), passes=20) == 0.0


def test_mcd_requires_two_passes():
    m = make_model()
    with pytest.raises(ValueError):
        mc_dropout(m, random_encoding(), passes=1)


def test_mcd_matches_max_class_variance():
    m = make_model(seed=8)
    m.update([(random_encoding(seed=s), s % 5) for s in range(32)])
    enc = random_encoding(seed=123)
    passes = 16
    value = mc_dropout(m, enc, passes)
    # recompute white-box with the same derived mask stream
    X = np.repeat(np.atleast_2d(enc), passes, axis=0)
    digest = zlib.crc32(np.ascontiguousarray(np.atleast_2d(enc)).tobytes())
    rng = rng_for(m.seed, m.step_count, digest, passes)
    probs = m._forward(X, drop_rng=rng)["probs"]
    assert value == pytest.approx(float(probs.var(axis=0).max()), abs=0.0)
    # 1/m variance arithmetic: two passes at 0.2 and 0.4 have variance 0.01
    assert float(np.var([0.2, 0.4])) == pytest.approx(0.01)
    # pure function of (model state, input): repeated calls agree
    assert mc_dropout(m, enc, passes) == value


@pytest.mark.parametrize("dropout_rate", [0.1, 0.0])
@pytest.mark.parametrize("trained", [False, True])
# the encoding widths of the benchmark's static-c8 (8 tables) and drift-exp
# (4 tables) catalogs
@pytest.mark.parametrize("dim", [175, 87])
def test_batched_scores_equal_one_at_a_time(dim, trained, dropout_rate):
    model = make_model(dim=dim, seed=31, dropout_rate=dropout_rate)
    rng = rng_for(31, "encodings")
    if trained:
        model.update(
            [(rng.random(dim), int(rng.integers(0, N_CLASSES))) for _ in range(64)]
        )
    encodings = [rng.random(dim) for _ in range(3 * SCORE_CHUNK + 1)]
    # sparse rows like the planner's, and repeats within and across chunks
    encodings[1] = (encodings[1] > 0.8).astype(float)
    encodings[4] = encodings[0]
    encodings[SCORE_CHUNK + 2] = encodings[1]
    encodings[-1] = encodings[SCORE_CHUNK]
    want = [combined_uncertainty(model, e, 0.5, 20) for e in encodings]
    for n in range(1, len(encodings) + 1):
        got = combined_uncertainties(model, encodings[:n], 0.5, 20)
        # all four fields, exactly: a stacked forward pass must compute each
        # row as the encoding's own pass does, or every score (and with them
        # the tuner's outputs) would shift with the batch it is scored in
        assert got == want[:n], f"stacking {n} encodings changed a score"
    assert combined_uncertainties(model, [], 0.5, 20) == []


def test_batched_scores_check_their_arguments():
    m = make_model()
    with pytest.raises(ConfigurationError):
        combined_uncertainties(m, [random_encoding()], 1.0, 10)
    with pytest.raises(ValueError):
        combined_uncertainties(m, [random_encoding()], 0.5, 1)
    with pytest.raises(ValueError):
        combined_uncertainties(m, [random_encoding(dim=5)], 0.5, 10)


def test_combined_uncertainty_weighting():
    m = make_model(seed=9)
    enc = random_encoding(seed=77)
    score = combined_uncertainty(m, enc, mix_weight=0.5, passes=10)
    assert score.combined == pytest.approx(
        0.5 * score.mcd + 0.5 * score.entropy, abs=0.0
    )
    assert 0.0 <= score.entropy <= math.log(37) + 1e-12
    assert 0.0 <= score.mcd <= 0.25
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            combined_uncertainty(m, enc, mix_weight=bad, passes=10)


def test_weighted_sum_example():
    # mix 0.5 of mcd 0.01 with entropy 0.5 gives 0.255
    assert 0.5 * 0.01 + 0.5 * 0.5 == pytest.approx(0.255)


def test_saturated_model_has_zero_uncertainty():
    m = make_model(dropout_rate=0.0)
    # a head pinned hard enough that softmax underflows to an exact one-hot
    m.params["b3"][:] = 0.0
    m.params["b3"][4] = 800.0
    enc = random_encoding(seed=5)
    assert np.array_equal(
        m.predict(enc), np.eye(N_CLASSES)[4]
    )
    for mix in (0.1, 0.5, 0.9):
        assert combined_uncertainty(m, enc, mix, passes=5).combined == 0.0


def test_uncertainty_shrinks_with_more_data():
    probes = [random_encoding(seed=100 + i) for i in range(10)]

    def mean_u(n_labels):
        m = make_model(seed=11)
        labels = [(random_encoding(seed=i), 9) for i in range(n_labels)]
        m.update(labels)
        return np.mean(
            [combined_uncertainty(m, e, 0.5, 20).combined for e in probes]
        )

    assert mean_u(50) < mean_u(5)


def test_convergence_on_single_multiplier_labels():
    m = make_model(seed=12)
    encodings = [random_encoding(seed=i) for i in range(30)]
    target = nearest_bucket_index(2.0)
    for _ in range(20):
        m.update([(e, target) for e in encodings])
    hits = sum(int(np.argmax(m.predict(e))) == target for e in encodings)
    assert hits >= 0.9 * len(encodings)


def reference_update(model, labels):
    """The allocating training loop `update` replaced: one `np.stack` per
    minibatch, fresh arrays for every activation, gradient and Adam moment.
    `update` must leave the model in exactly the state this one does."""

    def forward(X, drop_rng):
        p, P = model.dropout_rate, model.params
        z1 = X @ P["W1"] + P["b1"]
        h1 = np.maximum(z1, 0.0)
        m1 = (drop_rng.random(h1.shape) >= p) / (1.0 - p) if p > 0.0 else None
        a1 = h1 if m1 is None else h1 * m1
        z2 = a1 @ P["W2"] + P["b2"]
        h2 = np.maximum(z2, 0.0)
        m2 = (drop_rng.random(h2.shape) >= p) / (1.0 - p) if p > 0.0 else None
        a2 = h2 if m2 is None else h2 * m2
        logits = a2 @ P["W3"] + P["b3"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return dict(z1=z1, m1=m1, a1=a1, z2=z2, m2=m2, a2=a2, probs=probs)

    def gradients(X, y, drop_rng):
        cache = forward(X, drop_rng)
        n = X.shape[0]
        dlogits = cache["probs"].copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads = {}
        grads["W3"] = cache["a2"].T @ dlogits
        grads["b3"] = dlogits.sum(axis=0)
        da2 = dlogits @ model.params["W3"].T
        if cache["m2"] is not None:
            da2 = da2 * cache["m2"]
        dz2 = da2 * (cache["z2"] > 0)
        grads["W2"] = cache["a1"].T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ model.params["W2"].T
        if cache["m1"] is not None:
            da1 = da1 * cache["m1"]
        dz1 = da1 * (cache["z1"] > 0)
        grads["W1"] = X.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads

    def adam_step(grads, beta1=0.9, beta2=0.999, eps=1e-8):
        model._adam_t += 1
        for k, g in grads.items():
            model._adam_m[k] = beta1 * model._adam_m[k] + (1 - beta1) * g
            model._adam_v[k] = beta2 * model._adam_v[k] + (1 - beta2) * g * g
            mhat = model._adam_m[k] / (1 - beta1**model._adam_t)
            vhat = model._adam_v[k] / (1 - beta2**model._adam_t)
            model.params[k] -= LEARNING_RATE * mhat / (np.sqrt(vhat) + eps)

    for enc, idx in labels:
        model.buffer.append((np.asarray(enc, dtype=float), int(idx)))
    data = list(model.buffer)
    for _ in range(EPOCHS):
        order = model.rng.permutation(len(data))
        for start in range(0, len(data), BATCH_SIZE):
            batch = [data[i] for i in order[start : start + BATCH_SIZE]]
            X = np.stack([b[0] for b in batch])
            y = np.array([b[1] for b in batch])
            adam_step(gradients(X, y, model.rng))
            model.step_count += 1


def assert_same_model_state(a, b):
    assert a.step_count == b.step_count and a._adam_t == b._adam_t
    for state in ("params", "_adam_m", "_adam_v"):
        for k, value in getattr(a, state).items():
            assert np.array_equal(value, getattr(b, state)[k]), (state, k)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("dropout_rate", [0.1, 0.0])
def test_update_equals_allocating_reference(dropout_rate):
    # buffer sizes 1, 8, 41, 241 and then 512 (evicting) give tail batches of
    # 1, 8, 9, 17 and none, so every step size reuses the one workspace
    dim = 17
    model = make_model(dim=dim, seed=21, dropout_rate=dropout_rate)
    reference = make_model(dim=dim, seed=21, dropout_rate=dropout_rate)
    rng = rng_for(21, "labels")
    for count in (1, 7, 33, 200, 600):
        labels = [
            (rng.random(dim), int(rng.integers(0, N_CLASSES))) for _ in range(count)
        ]
        model.update(labels)
        reference_update(reference, labels)
        assert_same_model_state(model, reference)
    assert len(model.buffer) == 512
    # the public gradients stay fresh arrays, not views of the workspace
    X, y = rng.random((5, dim)), rng.integers(0, N_CLASSES, size=5)
    _, first = model.loss_and_gradients(X, y)
    _, second = model.loss_and_gradients(X + 1.0, y)
    assert all(first[k] is not second[k] for k in first)
    assert not any(np.shares_memory(first[k], second[k]) for k in first)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copied_model_views_its_own_flat_state(how):
    dim = 17
    model = make_model(dim=dim, seed=23)
    rng = rng_for(23, "labels")

    def labels(count):
        return [
            (rng.random(dim), int(rng.integers(0, N_CLASSES))) for _ in range(count)
        ]

    model.update(labels(40))
    if how == "deepcopy":
        twin = copy.deepcopy(model)
    else:
        twin = pickle.loads(pickle.dumps(model))
    flat = {
        "params": (twin.params, twin._vectors[0]),
        "_adam_m": (twin._adam_m, twin._vectors[1]),
        "_adam_v": (twin._adam_v, twin._vectors[2]),
        "grads": (twin._workspace.grads, twin._workspace.grad_vector),
    }
    originals = model._vectors + (model._workspace.grad_vector,)
    for state, (views, vector) in flat.items():
        assert list(views) == ["W1", "b1", "W2", "b2", "W3", "b3"], state
        for name, view in views.items():
            assert view.base is vector, (state, name)
        assert not any(np.shares_memory(vector, o) for o in originals), state
    assert_same_model_state(twin, model)

    before = copy.deepcopy(model)
    batch = labels(50)
    twin.update(batch)
    assert_same_model_state(model, before)
    model.update(batch)
    assert_same_model_state(twin, model)
