"""MSE objective, Adam optimizer, and the mini-batch training loop."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import windows_to_arrays
from .errors import DivergenceError, UsageError
from .tensor import Tape, Tensor, resolve_dtype


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
        # Written so that NaN fails both tests.
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise UsageError("lr must be finite and positive, weight_decay finite and nonnegative")
        if min(self.epochs, self.batch_size, self.patience) <= 0 or self.seed < 0:
            raise UsageError("epochs, batch_size and patience must be positive, seed nonnegative")
        if self.patience > self.epochs:
            raise UsageError(f"patience {self.patience} exceeds epochs {self.epochs}")


def mse_loss(pred, target):
    """Mean over all elements of the squared difference."""
    d = T.sub(pred, target)
    return T.mean_all(T.hadamard(d, d))


# Elements per in-place pass of Adam: every operand of one chunk stays in
# the L2 cache across the update's dozen passes.
ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction and weight decay as an L2 term on the gradient.

    The moment decays are 0.9 and 0.999 and eps is 1e-8.  Only tensors handed
    in are updated, so frozen tensors are excluded by construction.  Moments
    and parameters are updated in place, chunk by chunk through two scratch
    buffers per dtype; each operation is the one of the textbook formula, in
    the same order, so the result is bit for bit the same.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        for p in self.params:
            if not p.data.flags.c_contiguous:
                raise UsageError("adam: parameters must be C-contiguous to be updated in place")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = {dt: (np.empty(ADAM_CHUNK, dtype=dt), np.empty(ADAM_CHUNK, dtype=dt))
                         for dt in {p.data.dtype for p in self.params}}

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise UsageError("adam step: a trainable parameter has no gradient")
            flat = [arr.reshape(-1) for arr in (p.data, p.grad, m, v)]
            s1, s2 = self._scratch[p.data.dtype]
            for lo in range(0, p.data.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, p.data.size)
                self._update(*(arr[lo:hi] for arr in flat), s1[:hi - lo], s2[:hi - lo], bc1, bc2)

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
        for p in self.params:
            p.grad = None


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
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    # The tape is fit's alone: every exit detaches it and frees what it holds.
    tape = Tape()
    model.attach_tape(tape)
    try:
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
                tape.reset()
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
            tape.reset()
            # The loss alone can miss NaN weights: a ReLU maps NaN to zero.
            if not all(np.isfinite(p.data).all() for p in adam.params):
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
    finally:
        model.attach_tape(None)
        tape.reset()
        if log_fh:
            log_fh.close()

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return model, history
