"""MSE objective, Adam optimizer, and the mini-batch training loop."""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .data import windows_to_arrays
from .errors import DivergenceError, UsageError
from .tensor import Tape, Tensor, resolve_dtype


# The types each config annotation (a string here) admits, matched
# exactly, so that a bool is no int.
FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built: a bad value raises UsageError."""
    lr: float = 1e-3
    weight_decay: float = 5e-5
    epochs: int = 200
    batch_size: int = 64
    patience: int = 10          # epochs without val improvement before stopping
    seed: int = 0
    precision: str = "standard"

    def __post_init__(self):
        for f in fields(self):
            value, types = getattr(self, f.name), FIELD_TYPES[f.type]
            if type(value) not in types:
                raise UsageError(f"train config: {f.name} must be "
                                 f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        # Written so that NaN fails both tests.
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise UsageError("lr must be finite and positive, weight_decay finite and nonnegative")
        if min(self.epochs, self.batch_size, self.patience) <= 0 or self.seed < 0:
            raise UsageError("epochs, batch_size and patience must be positive, seed nonnegative")
        if self.patience > self.epochs:
            raise UsageError(f"patience {self.patience} exceeds epochs {self.epochs}")
        resolve_dtype(self.precision)


def mse_loss(pred, target):
    """Mean over all elements of the squared difference."""
    d = T.sub(pred, target)
    return T.mean_all(T.hadamard(d, d))


# Elements per in-place pass of Adam: every operand of one chunk stays in
# the L2 cache across the update's dozen passes.
ADAM_CHUNK = 32768


def arena_views(arena, shapes):
    """Slices of a flat ``arena`` of the given shapes, end to end in order."""
    views, lo = [], 0
    for shape in shapes:
        views.append(arena[lo:lo + math.prod(shape)].reshape(shape))
        lo += math.prod(shape)
    return views


class Adam:
    """Adam with bias correction and weight decay as an L2 term on the gradient.

    The moment decays are 0.9 and 0.999 and eps is 1e-8.  Only tensors handed
    in are updated, so frozen tensors are excluded by construction.  They
    must share one precision.  Adam copies them, in order, into one flat data
    arena and rebinds each ``data`` to its slice.  ``arenas`` is (data, grad,
    m, v), all of that layout; ``grads``, ``m`` and ``v`` list the
    per-parameter views.  Each parameter's ``grad_slice`` is its gradient
    view, which the backward pass writes, until ``close``.  A step is one
    chunked loop over the four arenas, in place, through two scratch
    buffers; each operation is the one of the textbook formula, in the same
    order, so the result is bit for bit the same.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        if not self.params:
            raise UsageError("adam: no parameters to update")
        dtype = self.params[0].data.dtype
        if any(p.data.dtype != dtype for p in self.params):
            raise UsageError("adam: parameters of mixed precisions")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        shapes = [p.data.shape for p in self.params]
        size = sum(math.prod(s) for s in shapes)
        self.arenas = (np.empty(size, dtype), *(np.zeros(size, dtype) for _ in range(3)))
        data, self.grads, self.m, self.v = (arena_views(a, shapes) for a in self.arenas)
        for p, view, g in zip(self.params, data, self.grads):
            view[...] = p.data
            p.data, p.grad_slice = view, g
        self._scratch = (np.empty(ADAM_CHUNK, dtype), np.empty(ADAM_CHUNK, dtype))

    def step(self):
        for p, g in zip(self.params, self.grads):
            if p.grad is None:
                raise UsageError("adam step: a trainable parameter has no gradient")
            if p.grad is not g:
                np.copyto(g, p.grad)    # set by hand, or written for another optimizer
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        s1, s2 = self._scratch
        size = self.arenas[0].size
        for lo in range(0, size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, size)
            self._update(*(a[lo:hi] for a in self.arenas), s1[:hi - lo], s2[:hi - lo], bc1, bc2)

    def _update(self, p, g, m, v, a, b, bc1, bc2):
        if self.weight_decay:
            np.multiply(p, self.weight_decay, out=a)
            g = np.add(g, a, out=a)                     # g + wd * p
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=b)    # m += (1 - b1) * g
        v *= self.beta2
        np.multiply(g, g, out=b)
        v += np.multiply(b, 1.0 - self.beta2, out=b)    # v += (1 - b2) * (g * g)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += self.eps                                   # sqrt(v / bc2) + eps
        np.divide(m, bc1, out=b)
        np.divide(b, a, out=b)                          # update = (m / bc1) / a
        p -= np.multiply(b, self.lr, out=b)             # p -= lr * update

    def zero_grad(self):
        """Mark every gradient unwritten; the gradient arena stays for the next step."""
        for p in self.params:
            p.grad = None

    def close(self):
        """Take back every gradient and ``grad_slice``, so that the gradient
        and moment arenas go with this optimizer; the data arena stays."""
        for p in self.params:
            p.grad = p.grad_slice = None


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    val_mae: list = field(default_factory=list)
    best_epoch: int = -1       # 0-based index into the lists
    epochs_run: int = 0


def predict_windows(model, windows, batch_size=256):
    """Eval-mode predictions for ``windows`` (a ``data.Windows``), as float64 counts."""
    inputs, hours, _ = windows_to_arrays(windows)
    inputs = inputs.astype(model.dtype)
    preds = []
    for lo in range(0, len(windows), batch_size):
        x = Tensor(inputs[lo:lo + batch_size])
        out = model.forward_batch(x, hours[lo:lo + batch_size], mode="eval")
        preds.append(out.data.astype(np.float64))
    return np.concatenate(preds, axis=0)


@dataclass
class MetricPair:
    rmse: float
    mae: float
    z: int


def compute_metrics(preds, targets):
    """Pooled RMSE and MAE over every predicted value."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.size == 0:
        raise UsageError("compute_metrics: empty predictions")
    if preds.shape != targets.shape:
        raise UsageError(f"compute_metrics: shapes {preds.shape} vs {targets.shape}")
    err = preds - targets
    return MetricPair(
        rmse=float(np.sqrt(np.mean(err ** 2))),
        mae=float(np.mean(np.abs(err))),
        z=int(preds.size),
    )


def fit(model, train_windows, val_windows, config, log_path=None):
    """Train with shuffled mini-batches and validation-based early stopping.

    Per epoch: seeded shuffle, train-mode forward, MSE backward, Adam step;
    a check that every parameter is finite; then validation RMSE/MAE in eval
    mode on raw counts.  Stops when the validation RMSE has not improved for
    ``patience`` epochs and restores the best epoch's parameters.  Batches
    that would reach batchnorm with a single sample are dropped, and a
    configuration in which every batch would be dropped is refused.  Each
    epoch's log record also carries ``step_s``, the median training step
    time, and ``samples_per_s``, the windows in batches that stepped per
    second of the epoch's training.
    """
    if not train_windows or not val_windows:
        raise UsageError("fit needs non-empty train and validation windows")
    if min(config.batch_size, len(train_windows)) < 2:
        raise UsageError(
            f"fit would train nothing: batches of {config.batch_size} over "
            f"{len(train_windows)} training windows never hold the 2 samples a step needs"
        )
    dtype = resolve_dtype(config.precision)
    if model.dtype != dtype:
        raise UsageError(f"model dtype {model.dtype} does not match config precision {config.precision}")

    inputs, hours, targets = windows_to_arrays(train_windows)
    inputs = inputs.astype(dtype)
    targets = targets.astype(dtype)
    _, _, val_targets = windows_to_arrays(val_windows)

    adam = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_snapshot = None
    best_rmse = math.inf
    since_best = 0
    log = open(log_path, "w", encoding="utf-8") if log_path else contextlib.nullcontext()

    # The tape and the optimizer are fit's alone: every exit closes both, so
    # neither the graph nor the gradient arena outlives fit.
    with Tape() as tape, log as log_fh, contextlib.closing(adam):
        for epoch in range(config.epochs):
            perm = rng.permutation(len(train_windows))
            losses = []
            step_times = []
            stepped = 0
            epoch_start = time.perf_counter()
            for bi, lo in enumerate(range(0, len(perm), config.batch_size)):
                idx = perm[lo:lo + config.batch_size]
                if len(idx) < 2:
                    continue  # batchnorm cannot take a single-sample batch
                step_start = time.perf_counter()
                x = Tensor(inputs[idx])
                y = Tensor(targets[idx])
                loss = mse_loss(model.forward_batch(x, hours[idx], mode="train"), y)
                value = loss.item()
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"non-finite training loss at epoch {epoch + 1}, batch {bi + 1}"
                    )
                tape.backward(loss)
                adam.step()
                adam.zero_grad()
                losses.append(value)
                stepped += len(idx)
                step_times.append(time.perf_counter() - step_start)
            train_s = time.perf_counter() - epoch_start
            # The loss alone can miss NaN weights: a ReLU maps NaN to zero.
            if not np.isfinite(adam.arenas[0]).all():
                raise DivergenceError(f"non-finite parameter after epoch {epoch + 1}")

            with tape.paused():
                val = compute_metrics(predict_windows(model, val_windows), val_targets)
            rmse, mae = val.rmse, val.mae
            history.train_loss.append(float(np.mean(losses)))
            history.val_rmse.append(rmse)
            history.val_mae.append(mae)
            history.epochs_run = epoch + 1
            if log_fh:
                log_fh.write(json.dumps({
                    "epoch": epoch + 1,
                    "train_loss": history.train_loss[-1],
                    "val_rmse": rmse,
                    "val_mae": mae,
                    "step_s": float(np.median(step_times)),
                    "samples_per_s": stepped / train_s,
                    "time": time.time(),
                }) + "\n")
                log_fh.flush()

            if rmse < best_rmse:
                best_rmse = rmse
                best_snapshot = model.snapshot()
                history.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return model, history
