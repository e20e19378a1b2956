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

    def _check_input(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"encoding length {X.shape[1]} does not match model "
                f"input dim {self.input_dim}"
            )
        return X

    def _forward(self, X, drop_rng=None):
        p = self.dropout_rate
        cache = {"X": X}
        z1 = X @ self.params["W1"] + self.params["b1"]
        h1 = np.maximum(z1, 0.0)
        if drop_rng is not None and p > 0.0:
            m1 = (drop_rng.random(h1.shape) >= p) / (1.0 - p)
        else:
            m1 = None
        a1 = h1 if m1 is None else h1 * m1
        z2 = a1 @ self.params["W2"] + self.params["b2"]
        h2 = np.maximum(z2, 0.0)
        if drop_rng is not None and p > 0.0:
            m2 = (drop_rng.random(h2.shape) >= p) / (1.0 - p)
        else:
            m2 = None
        a2 = h2 if m2 is None else h2 * m2
        logits = a2 @ self.params["W3"] + self.params["b3"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        cache.update(z1=z1, m1=m1, a1=a1, z2=z2, m2=m2, a2=a2, probs=probs)
        return cache

    def predict(self, encoding) -> np.ndarray:
        """Dropout-off softmax over the multiplier grid; a pure function."""
        X = self._check_input(encoding)
        return self._forward(X)["probs"][0]

    def predict_multiplier(self, encoding) -> float:
        """Argmax multiplier of a dropout-off prediction."""
        return float(MULTIPLIER_GRID[int(np.argmax(self.predict(encoding)))])

    def loss_and_gradients(self, X, y, drop_rng=None):
        """Mean cross-entropy and its analytic gradients for a labeled batch."""
        X = self._check_input(X)
        y = np.asarray(y, dtype=int)
        cache = self._forward(X, drop_rng=drop_rng)
        probs = cache["probs"]
        n = X.shape[0]
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads = {}
        grads["W3"] = cache["a2"].T @ dlogits
        grads["b3"] = dlogits.sum(axis=0)
        da2 = dlogits @ self.params["W3"].T
        if cache["m2"] is not None:
            da2 = da2 * cache["m2"]
        dz2 = da2 * (cache["z2"] > 0)
        grads["W2"] = cache["a1"].T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ self.params["W2"].T
        if cache["m1"] is not None:
            da1 = da1 * cache["m1"]
        dz1 = da1 * (cache["z1"] > 0)
        grads["W1"] = X.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return loss, grads

    def _adam_step(self, grads, beta1=0.9, beta2=0.999, eps=1e-8):
        self._adam_t += 1
        for k, g in grads.items():
            self._adam_m[k] = beta1 * self._adam_m[k] + (1 - beta1) * g
            self._adam_v[k] = beta2 * self._adam_v[k] + (1 - beta2) * g * g
            mhat = self._adam_m[k] / (1 - beta1**self._adam_t)
            vhat = self._adam_v[k] / (1 - beta2**self._adam_t)
            self.params[k] -= LEARNING_RATE * mhat / (np.sqrt(vhat) + eps)

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
        data = list(self.buffer)
        for _ in range(EPOCHS):
            order = self.rng.permutation(len(data))
            for start in range(0, len(data), BATCH_SIZE):
                batch = [data[i] for i in order[start : start + BATCH_SIZE]]
                X = np.stack([b[0] for b in batch])
                y = np.array([b[1] for b in batch])
                _, grads = self.loss_and_gradients(X, y, drop_rng=self.rng)
                self._adam_step(grads)
                self.step_count += 1
        return self


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
