"""Per-operator-kind cost multiplier classifiers and their uncertainty scores.

Each model is a small fully connected network (two ReLU hidden layers of
HIDDEN_UNITS = 64 units, inverted dropout p=0.1 after each) ending in an
N_CLASSES = 37-way softmax over the multiplier grid

    {0.01..0.09 step .01} u {0.1..0.9 step .1} u {1..9 step 1} u {10..100 step 10},

a non-uniform quantization that is dense near 1x and coarse at the extremes.
The output head starts at zero so an untrained model is exactly uniform.
Training is online: labels enter a REPLAY_CAPACITY = 512-slot FIFO replay
buffer and every update runs EPOCHS = 5 epochs of minibatch (BATCH_SIZE = 32)
cross-entropy with Adam at LEARNING_RATE = 1e-3. Every model shares this one
architecture; only the dropout rate is a constructor argument, so a model
without dropout can exercise the zero-variance paths.

Training allocates nothing per step: the buffer is stacked once per update,
and the forward pass, backward pass and Adam step write into one fixed
per-model workspace (a short last batch uses its leading rows). Every
operation and its order is that of the plain array expressions, e.g.
`(LEARNING_RATE * mhat) / (sqrt(vhat) + eps)`, so the parameters are
bit-identical to those of an allocating loop.

Uncertainty combines the softmax entropy of a dropout-off prediction with the
maximum per-class variance across repeated dropout-on passes:

    U = mix_weight * mcd + (1 - mix_weight) * entropy.

The dropout masks used for the variance estimate derive from (model seed,
training step, encoding digest), so the score is a pure function of model
state and input.
"""

import math
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .seeding import rng_for

N_CLASSES = 37
HIDDEN_UNITS = 64
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
EPOCHS = 5
REPLAY_CAPACITY = 512


def _build_grid() -> np.ndarray:
    values = [i / 100 for i in range(1, 10)]
    values += [i / 10 for i in range(1, 10)]
    values += [float(i) for i in range(1, 10)]
    values += [float(10 * i) for i in range(1, 11)]
    grid = np.array(values)
    grid.setflags(write=False)
    return grid


MULTIPLIER_GRID = _build_grid()
_LOG_GRID = np.log(MULTIPLIER_GRID)


def nearest_bucket_index(value: float) -> int:
    """Grid index whose multiplier is nearest in log space."""
    if value <= 0:
        raise ConfigurationError("multiplier must be positive")
    return int(np.argmin(np.abs(_LOG_GRID - math.log(value))))


class CostMultiplierModel:
    """MLP classifier over the multiplier grid for one operator kind."""

    def __init__(self, input_dim: int, seed: int, dropout_rate: float = 0.1):
        self.input_dim = input_dim
        self.seed = seed
        self.dropout_rate = dropout_rate
        self.rng = rng_for(seed, "model")
        h = HIDDEN_UNITS
        self.params = {
            "W1": self.rng.normal(0.0, math.sqrt(2.0 / input_dim), (input_dim, h)),
            "b1": np.zeros(h),
            "W2": self.rng.normal(0.0, math.sqrt(2.0 / h), (h, h)),
            "b2": np.zeros(h),
            # zero head: pre-training softmax is exactly uniform
            "W3": np.zeros((h, N_CLASSES)),
            "b3": np.zeros(N_CLASSES),
        }
        self._adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_t = 0
        self.step_count = 0
        self.buffer = deque(maxlen=REPLAY_CAPACITY)
        self._workspace = _Workspace(self.params)

    def _check_input(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"encoding length {X.shape[1]} does not match model "
                f"input dim {self.input_dim}"
            )
        return X

    def _forward(self, X, drop_rng=None, out=None):
        """Forward pass; the returned cache holds what `_backward` needs.

        ``out`` maps buffer names to arrays of the right shape to write into
        (a training workspace); a name it lacks gets a fresh array.
        """
        o = {} if out is None else out
        drop = drop_rng is not None and self.dropout_rate > 0.0
        cache = {"X": X}
        a = X
        for layer in ("1", "2"):
            z = np.matmul(a, self.params["W" + layer], out=o.get("z" + layer))
            np.add(z, self.params["b" + layer], out=z)
            a = np.maximum(z, 0.0, out=o.get("a" + layer))
            m = None
            if drop:
                m = self._dropout_mask(drop_rng, a.shape, o.get("m" + layer))
                np.multiply(a, m, out=a)
            cache.update({"z" + layer: z, "m" + layer: m, "a" + layer: a})
        probs = np.matmul(a, self.params["W3"], out=o.get("probs"))
        np.add(probs, self.params["b3"], out=probs)
        norm = np.max(probs, axis=1, keepdims=True, out=o.get("norm"))
        np.subtract(probs, norm, out=probs)
        np.exp(probs, out=probs)
        np.sum(probs, axis=1, keepdims=True, out=norm)
        np.divide(probs, norm, out=probs)
        cache["probs"] = probs
        return cache

    def _dropout_mask(self, drop_rng, shape, out):
        # draws the same stream as drop_rng.random(shape); kept units are
        # 1.0 / (1 - p), exactly as the bool mask divided by (1 - p)
        mask = drop_rng.random(shape, out=out)
        np.greater_equal(mask, self.dropout_rate, out=mask)
        np.divide(mask, 1.0 - self.dropout_rate, out=mask)
        return mask

    def _backward(self, cache, y, out=None, grads_out=None):
        """Gradients of the mean cross-entropy; overwrites the cache's
        ``probs`` and ``z`` arrays. ``out`` and ``grads_out`` work as in
        `_forward`, for the row buffers and the parameter-shaped gradients."""
        o = {} if out is None else out
        g = {} if grads_out is None else grads_out
        dz = cache["probs"]
        n = dz.shape[0]
        dz[np.arange(n), y] -= 1.0
        dz /= n
        grads = {}
        for layer, below in (("3", "2"), ("2", "1"), ("1", None)):
            a = cache["X"] if below is None else cache["a" + below]
            grads["W" + layer] = np.matmul(a.T, dz, out=g.get("W" + layer))
            grads["b" + layer] = np.sum(dz, axis=0, out=g.get("b" + layer))
            if below is None:
                break
            # dz of the layer below: (dz @ W.T) * mask * (z > 0)
            da = np.matmul(dz, self.params["W" + layer].T, out=o.get("da" + below))
            if cache["m" + below] is not None:
                np.multiply(da, cache["m" + below], out=da)
            z = cache["z" + below]
            np.greater(z, 0.0, out=z)
            dz = np.multiply(da, z, out=da)
        return grads

    def predict(self, encoding) -> np.ndarray:
        """Dropout-off softmax over the multiplier grid; a pure function."""
        X = self._check_input(encoding)
        return self._forward(X)["probs"][0]

    def predict_multiplier(self, encoding) -> float:
        """Argmax multiplier of a dropout-off prediction."""
        return float(MULTIPLIER_GRID[int(np.argmax(self.predict(encoding)))])

    def loss_and_gradients(self, X, y, drop_rng=None):
        """Mean cross-entropy and its analytic gradients for a labeled batch.

        Every call returns fresh gradient arrays."""
        X = self._check_input(X)
        y = np.asarray(y, dtype=int)
        cache = self._forward(X, drop_rng=drop_rng)
        n = X.shape[0]
        loss = float(-np.mean(np.log(cache["probs"][np.arange(n), y] + 1e-300)))
        return loss, self._backward(cache, y)

    def _adam_step(self, grads, beta1=0.9, beta2=0.999, eps=1e-8):
        self._adam_t += 1
        bias1 = 1 - beta1**self._adam_t
        bias2 = 1 - beta2**self._adam_t
        s, r = self._workspace.scratch
        for k, g in grads.items():
            m, v, step, denom = self._adam_m[k], self._adam_v[k], s[k], r[k]
            # m = beta1*m + (1-beta1)*g
            np.multiply(beta1, m, out=m)
            np.multiply(1 - beta1, g, out=step)
            np.add(m, step, out=m)
            # v = beta2*v + ((1-beta2)*g)*g
            np.multiply(1 - beta2, g, out=step)
            np.multiply(step, g, out=step)
            np.multiply(beta2, v, out=v)
            np.add(v, step, out=v)
            # params -= (LEARNING_RATE * m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(m, bias1, out=step)
            np.multiply(LEARNING_RATE, step, out=step)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, eps, out=denom)
            np.divide(step, denom, out=step)
            np.subtract(self.params[k], step, out=self.params[k])

    def update(self, labels):
        """Absorb (encoding, class index) pairs and retrain over the buffer."""
        labels = list(labels)
        if not labels:
            raise ValueError("labels must be nonempty")
        for enc, idx in labels:
            idx = int(idx)
            if not 0 <= idx < N_CLASSES:
                raise ValueError(f"label index {idx} outside [0, {N_CLASSES})")
            enc = np.asarray(enc, dtype=float)
            self._check_input(enc)
            self.buffer.append((enc, idx))
        X_all = np.stack([enc for enc, _ in self.buffer])
        y_all = np.array([idx for _, idx in self.buffer])
        ws = self._workspace
        for _ in range(EPOCHS):
            order = self.rng.permutation(len(y_all))
            for start in range(0, len(y_all), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                rows = ws.rows(len(batch))
                cache = self._forward(X_all[batch], self.rng, rows)
                self._adam_step(self._backward(cache, y_all[batch], rows, ws.grads))
                self.step_count += 1
        return self


class _Workspace:
    """One model's training buffers, allocated once: activations and their
    gradients for BATCH_SIZE rows (a shorter batch writes into the leading
    rows), the parameter gradients, and Adam's scratch pair."""

    def __init__(self, params: dict):
        hidden = ("z1", "a1", "m1", "da1", "z2", "a2", "m2", "da2")
        widths = dict.fromkeys(hidden, HIDDEN_UNITS)
        widths.update(probs=N_CLASSES, norm=1)
        self.full = {k: np.empty((BATCH_SIZE, w)) for k, w in widths.items()}
        self.grads = {k: np.empty_like(v) for k, v in params.items()}
        self.scratch = tuple(
            {k: np.empty_like(v) for k, v in params.items()} for _ in range(2)
        )

    def rows(self, n: int) -> dict:
        if n == BATCH_SIZE:
            return self.full
        return {k: v[:n] for k, v in self.full.items()}


def entropy(probabilities) -> float:
    """Shannon entropy (natural log) of a softmax vector; 0*ln0 counts as 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise ContractError("probability vector must be one-dimensional")
    if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ContractError("input is not a probability vector")
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def mc_dropout(model: CostMultiplierModel, encoding, passes: int) -> float:
    """Max per-class variance across dropout-on passes (biased 1/m estimator)."""
    if passes < 2:
        raise ValueError("passes must be >= 2")
    enc = model._check_input(encoding)
    if model.dropout_rate == 0.0:
        return 0.0  # all passes are identical by construction
    X = np.repeat(enc, passes, axis=0)
    digest = zlib.crc32(np.ascontiguousarray(enc).tobytes())
    rng = rng_for(model.seed, model.step_count, digest, passes)
    probs = model._forward(X, drop_rng=rng)["probs"]
    return float(probs.var(axis=0).max())


@dataclass(frozen=True)
class UncertaintyScore:
    entropy: float
    mcd: float
    combined: float
    mix_weight: float


def combined_uncertainty(
    model: CostMultiplierModel, encoding, mix_weight: float, passes: int
) -> UncertaintyScore:
    """U = mix_weight * mcd + (1 - mix_weight) * entropy(dropout-off softmax)."""
    if not 0.0 < mix_weight < 1.0:
        raise ConfigurationError("mix_weight must lie strictly between 0 and 1")
    mcd_value = mc_dropout(model, encoding, passes)
    ent = entropy(model.predict(encoding))
    combined = mix_weight * mcd_value + (1.0 - mix_weight) * ent
    return UncertaintyScore(ent, mcd_value, combined, mix_weight)
