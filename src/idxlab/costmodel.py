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
per-model workspace (a short last batch uses its leading rows). The six
parameter arrays, Adam's two moments and the gradients are each views into
one flat vector, so an Adam step is 14 whole-vector operations; copies and
pickles rebuild the views. Every operation and its order is that of the
plain array expressions, e.g. `(LEARNING_RATE * mhat) / (sqrt(vhat) + eps)`,
so the parameters are bit-identical to those of an allocating loop.

An operator encoding has at most about 7 nonzeros, so most encoding columns
never occur in a model's labels. Each model keeps one column mask: the
columns nonzero in any label it has absorbed, including labels since evicted
from the buffer, whose W1 rows still carry nonzero moments. Once per update
the W1 rows of the masked columns and the rest of the parameter and moment
vectors are gathered into compact vectors, trained on the buffer's masked
columns with the gradients in the workspace's leading stretch, and scattered
back. The rows left out are exact no-ops: a column that was always zero
gives its W1 row a zero gradient, zero moments and an Adam step of
0 / (0 + eps) = 0. Layer 1's products of two or more rows over the masked
columns equal the full-width ones bit for bit (OpenBLAS sums each output in
k order, so dropping zero terms changes nothing; tests/test_costmodel.py
checks it). A one-row batch runs BLAS's gemv, which is not exact when
compacted, so its forward pass runs at full width. Scoring is never
compacted: it sees columns the model has not trained on.

Uncertainty combines the softmax entropy of a dropout-off prediction with the
maximum per-class variance across repeated dropout-on passes:

    U = mix_weight * mcd + (1 - mix_weight) * entropy.

The dropout masks used for the variance estimate derive from (model seed,
training step, encoding digest), so the score is a pure function of model
state and input. `combined_uncertainties` scores a list of encodings with
the same results. It stacks the dropout passes of SCORE_CHUNK = 8 encodings
into one forward pass (Gal & Ghahramani's passes are independent), whose
layer-1 product runs once per encoding, not once per pass, and whose masks
are thresholded and scaled once. The dropout-off predictions of the whole
list run as one (K, 1, d) stack, so each still runs the one-row product
`predict` runs, and their entropies are one expression.
"""

import copy
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
# encodings whose dropout passes `combined_uncertainties` stacks into one
# forward pass; larger stacks fall out of cache and cost more per score
SCORE_CHUNK = 8


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
        shapes = _param_shapes(input_dim)
        size = sum(math.prod(shape) for shape in shapes.values())
        # the parameters and Adam's two moments, each one flat vector that
        # the name -> array dicts view
        self._vectors = tuple(np.zeros(size) for _ in range(3))
        self._bind_views()
        h = HIDDEN_UNITS
        self.params["W1"][...] = self.rng.normal(
            0.0, math.sqrt(2.0 / input_dim), (input_dim, h)
        )
        self.params["W2"][...] = self.rng.normal(0.0, math.sqrt(2.0 / h), (h, h))
        # the biases and the head stay zero: pre-training softmax is uniform
        self._adam_t = 0
        self.step_count = 0
        self.buffer = deque(maxlen=REPLAY_CAPACITY)
        # encoding columns nonzero in any label absorbed so far, evicted or
        # not: every other W1 row has had only zero gradients and moments
        self._seen_columns = np.zeros(input_dim, dtype=bool)

    def _bind_views(self, workspace=None):
        """Name -> array views of the flat vectors, and a workspace: a new
        one, or ``workspace`` narrowed to this model's smaller vectors."""
        shapes = _param_shapes(self.input_dim)
        self.params, self._adam_m, self._adam_v = (
            _views(vector, shapes) for vector in self._vectors
        )
        size = self._vectors[0].size
        if workspace is None:
            self._workspace = _Workspace(shapes, size)
        else:
            self._workspace = workspace.narrowed(shapes, size)

    def __getstate__(self):
        # a copied view would no longer alias its vector, so copies and
        # pickles carry the vectors alone and rebuild the views
        state = dict(self.__dict__)
        for name in ("params", "_adam_m", "_adam_v", "_workspace"):
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_views()

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
        (a training workspace); a name it lacks gets a fresh array. The
        dropout masks of layers 1 and 2 are drawn from ``drop_rng``; without
        it, or at rate 0, no unit is dropped. ``X`` may be a stack of row
        blocks: each layer works on the last axis.
        """
        o = {} if out is None else out
        masks = (None, None)
        if drop_rng is not None and self.dropout_rate > 0.0:
            draws = self._mask_draws(drop_rng, len(X), (o.get("m1"), o.get("m2")))
            masks = [self._scale_mask(u) for u in draws]
        cache = {"X": X}
        a = X
        for layer, m in zip(("1", "2"), masks):
            z, a = self._hidden(a, layer, m, o)
            cache.update({"z" + layer: z, "m" + layer: m, "a" + layer: a})
        cache["probs"] = self._softmax(a, o)
        return cache

    def _hidden(self, a, layer, mask=None, out=None):
        """Hidden ``layer``'s pre-activation z and its ReLU times ``mask``
        (if any), written into ``out``'s buffers as in `_forward`."""
        o = {} if out is None else out
        z = np.matmul(a, self.params["W" + layer], out=o.get("z" + layer))
        np.add(z, self.params["b" + layer], out=z)
        a = np.maximum(z, 0.0, out=o.get("a" + layer))
        if mask is not None:
            np.multiply(a, mask, out=a)
        return z, a

    def _softmax(self, a, out=None):
        """The output layer: softmax over the grid of ``a @ W3 + b3``."""
        o = {} if out is None else out
        probs = np.matmul(a, self.params["W3"], out=o.get("probs"))
        np.add(probs, self.params["b3"], out=probs)
        norm = np.maximum.reduce(probs, axis=-1, keepdims=True, out=o.get("norm"))
        np.subtract(probs, norm, out=probs)
        np.exp(probs, out=probs)
        np.add.reduce(probs, axis=-1, keepdims=True, out=norm)
        np.divide(probs, norm, out=probs)
        return probs

    def _mask_draws(self, drop_rng, n, out=(None, None)):
        """Layer 1's and then layer 2's uniform draws for the dropout masks
        of ``n`` rows, written into ``out`` where given."""
        return [drop_rng.random((n, HIDDEN_UNITS), out=buf) for buf in out]

    def _scale_mask(self, uniforms):
        """Uniform draws -> inverted-dropout mask, in place: kept units are
        1.0 / (1 - p), exactly as the bool mask divided by (1 - p)."""
        np.greater_equal(uniforms, self.dropout_rate, out=uniforms)
        np.divide(uniforms, 1.0 - self.dropout_rate, out=uniforms)
        return uniforms

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
            grads["b" + layer] = np.add.reduce(dz, axis=0, out=g.get("b" + layer))
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

    def _adam_step(self, beta1=0.9, beta2=0.999, eps=1e-8):
        """One Adam step from the workspace's gradients, each operation over
        the whole flat state at once."""
        self._adam_t += 1
        bias1 = 1 - beta1**self._adam_t
        bias2 = 1 - beta2**self._adam_t
        params, m, v = self._vectors
        g = self._workspace.grad_vector
        step, denom = self._workspace.scratch
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
        np.subtract(params, step, out=params)

    def update(self, labels):
        """Absorb (encoding, class index) pairs and retrain over the buffer.

        Training runs on `_compact`'s copy, whose W1 holds only the rows of
        the columns seen so far, and writes it back once at the end.
        """
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
            self._seen_columns |= enc != 0.0
        X_all = np.stack([enc for enc, _ in self.buffer])
        y_all = np.array([idx for _, idx in self.buffer])
        cols = np.flatnonzero(self._seen_columns)
        compact, flat = self._compact(cols)
        X_seen = X_all[:, cols]
        ws = self._workspace
        for _ in range(EPOCHS):
            order = self.rng.permutation(len(y_all))
            for start in range(0, len(y_all), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                rows = ws.rows(len(batch))
                if len(batch) > 1:
                    cache = compact._forward(X_seen[batch], self.rng, rows)
                else:
                    # a one-row product runs BLAS's gemv, whose sums change
                    # when zero terms are dropped: this step's forward pass
                    # runs on the full model, brought up to date
                    self._vectors[0][flat] = compact._vectors[0]
                    cache = self._forward(X_all[batch], self.rng, rows)
                    cache["X"] = X_seen[batch]
                compact._backward(cache, y_all[batch], rows, compact._workspace.grads)
                compact._adam_step()
                self.step_count += 1
        for vector, part in zip(self._vectors, compact._vectors):
            vector[flat] = part
        self._adam_t = compact._adam_t
        return self

    def _compact(self, cols):
        """A copy of the model for training whose W1 keeps only rows
        ``cols``, and the positions of its flat vectors in this model's.

        The copy's parameters and moments are gathered from this model's
        vectors; its workspace is this model's, narrowed. The module
        docstring says why training the copy is exact.
        """
        h, size = HIDDEN_UNITS, self._vectors[0].size
        w1 = (cols[:, None] * h + np.arange(h)).ravel()
        flat = np.concatenate((w1, np.arange(self.input_dim * h, size)))
        compact = object.__new__(type(self))
        compact.input_dim, compact.dropout_rate = len(cols), self.dropout_rate
        compact._adam_t = self._adam_t
        compact._vectors = tuple(vector[flat] for vector in self._vectors)
        compact._bind_views(self._workspace)
        return compact, flat


def _param_shapes(input_dim: int) -> dict:
    h = HIDDEN_UNITS
    return {
        "W1": (input_dim, h),
        "b1": (h,),
        "W2": (h, h),
        "b2": (h,),
        "W3": (h, N_CLASSES),
        "b3": (N_CLASSES,),
    }


def _views(vector: np.ndarray, shapes: dict) -> dict:
    """Name -> a view of ``vector``'s next stretch, reshaped, in order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        end = start + math.prod(shape)
        views[name] = vector[start:end].reshape(shape)
        start = end
    return views


class _Workspace:
    """One model's training buffers, allocated once: activations and their
    gradients for BATCH_SIZE rows (a shorter batch writes into the leading
    rows), the parameter gradients as views of one flat vector, and Adam's
    two flat scratch vectors. Every step overwrites them before reading."""

    def __init__(self, shapes: dict, size: int):
        hidden = ("z1", "a1", "m1", "da1", "z2", "a2", "m2", "da2")
        widths = dict.fromkeys(hidden, HIDDEN_UNITS)
        widths.update(probs=N_CLASSES, norm=1)
        self.full = {k: np.empty((BATCH_SIZE, w)) for k, w in widths.items()}
        self.grad_vector = np.empty(size)
        self.grads = _views(self.grad_vector, shapes)
        self.scratch = (np.empty(size), np.empty(size))

    def rows(self, n: int) -> dict:
        if n == BATCH_SIZE:
            return self.full
        return {k: v[:n] for k, v in self.full.items()}

    def narrowed(self, shapes: dict, size: int) -> "_Workspace":
        """This workspace for a smaller flat vector of ``size`` laid out by
        ``shapes``: the same row buffers and the leading stretch of each
        flat vector."""
        narrow = copy.copy(self)
        narrow.grad_vector = self.grad_vector[:size]
        narrow.grads = _views(narrow.grad_vector, shapes)
        narrow.scratch = tuple(vector[:size] for vector in self.scratch)
        return narrow


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


def combined_uncertainties(
    model: CostMultiplierModel, encodings, mix_weight: float, passes: int
) -> list:
    """``[combined_uncertainty(model, e, mix_weight, passes) for e in
    encodings]``, with the dropout passes of up to SCORE_CHUNK encodings
    stacked into one forward pass and the dropout-off predictions of all of
    them into another.

    Each encoding draws its layer-1 and then its layer-2 masks from its own
    `mc_dropout` stream. Every row of a stacked product equals that row of
    the encoding's own product, a BLAS property that tests/test_costmodel.py
    checks: the dropout-off predictions are stacked as a (K, 1, d) array, so
    that each slice runs the one-row kernel `predict` runs.
    """
    if not 0.0 < mix_weight < 1.0:
        raise ConfigurationError("mix_weight must lie strictly between 0 and 1")
    if passes < 2:
        raise ValueError("passes must be >= 2")
    rows = [model._check_input(e) for e in encodings]
    if not rows:
        return []
    X = np.concatenate(rows)
    mcd = [0.0] * len(X)
    if model.dropout_rate > 0.0:
        for start in range(0, len(X), SCORE_CHUNK):
            chunk = X[start : start + SCORE_CHUNK]
            mcd[start : start + len(chunk)] = _stacked_mcd(model, chunk, passes)
    probs = model._forward(X.reshape(len(X), 1, -1))["probs"][:, 0]
    scores = []
    for ent, mcd_value in zip(_entropies(probs), mcd):
        combined = mix_weight * mcd_value + (1.0 - mix_weight) * ent
        scores.append(UncertaintyScore(ent, mcd_value, combined, mix_weight))
    return scores


def _entropies(probs) -> list:
    """`entropy` of each row of ``probs``: one expression over the rows that
    are strictly positive probability vectors. Any other row goes through
    `entropy`, which drops its zeros from the sum or raises."""
    ok = np.logical_and.reduce(probs > 0.0, axis=-1)
    ok &= np.abs(np.add.reduce(probs, axis=-1) - 1.0) <= 1e-6
    good = probs if ok.all() else probs[ok]
    values = iter((-np.add.reduce(good * np.log(good), axis=-1)).tolist())
    return [next(values) if fine else entropy(p) for fine, p in zip(ok, probs)]


def _stacked_mcd(model: CostMultiplierModel, X, passes: int) -> list:
    """`mc_dropout` of each row of ``X``, from one stacked forward pass.

    Layer 1's product runs once per row, and its ReLU output is repeated
    ``passes`` times before the masks apply, which is elementwise what the
    repeated rows' own product gives. A lone row is padded to two: a
    one-row product runs a different BLAS kernel.
    """
    k = len(X)
    masks = np.empty((2, k * passes, HIDDEN_UNITS))
    for i, row in enumerate(X):
        rng = rng_for(model.seed, model.step_count, zlib.crc32(row.tobytes()), passes)
        block = slice(i * passes, (i + 1) * passes)
        model._mask_draws(rng, passes, (masks[0, block], masks[1, block]))
    model._scale_mask(masks)
    _, a1 = model._hidden(X if k > 1 else np.repeat(X, 2, axis=0), "1")
    a = np.repeat(a1[:k], passes, axis=0)
    np.multiply(a, masks[0], out=a)
    _, a = model._hidden(a, "2", masks[1])
    probs = model._softmax(a)
    return probs.reshape(k, passes, N_CLASSES).var(axis=1).max(axis=1).tolist()
