"""Finite-difference verification suite over ops, layers, and full models.

Each component defines a scalar-valued function of one checked tensor; the
suite runs finite_diff_check across seeds in float64 and compares the max
relative error against the component's threshold: 1e-5 for single ops,
1e-4 for composed networks.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .layers import LSTM_GATES, ConvBlock, LstmParams, ResUnit, lstm_sequence_batch
from .model import TOY_DIMS, build_model
from .tensor import BnState, Tape, Tensor, finite_diff_check

OP_THRESHOLD = 1e-5
COMPOSED_THRESHOLD = 1e-4

F64 = np.float64


def _t(rng, shape, tape, requires_grad=True, offset=0.0):
    return Tensor(rng.normal(size=shape) + offset, dtype=F64,
                  requires_grad=requires_grad, tape=tape)


def _weighted_sum(out, w):
    return T.sum_all(T.hadamard(out, w))


def _check_op(name, rng, tape):
    """Single-op cases; returns the max relative error for the op."""
    if name in ("add", "hadamard", "sub"):
        x = _t(rng, (3, 4), tape)
        y = _t(rng, (3, 4), tape, requires_grad=False)
        w = _t(rng, (3, 4), tape, requires_grad=False)
        op = getattr(T, name)
        return finite_diff_check(lambda v: _weighted_sum(op(x, y), w), x)
    if name in ("relu", "leaky_relu", "sigmoid", "tanh"):
        x = _t(rng, (3, 4), tape, offset=0.1)  # keep clear of the relu kink
        w = _t(rng, (3, 4), tape, requires_grad=False)
        return finite_diff_check(lambda v: _weighted_sum(getattr(T, name)(x), w), x)
    if name == "matmul":
        x = _t(rng, (3, 4), tape)
        y = _t(rng, (4, 2), tape, requires_grad=False)
        return finite_diff_check(lambda v: T.sum_all(T.matmul(x, y)), x)
    if name == "affine":
        x = _t(rng, (5, 4), tape)
        wt = _t(rng, (3, 4), tape)
        b = _t(rng, (3,), tape)
        w = _t(rng, (5, 3), tape, requires_grad=False)
        err = finite_diff_check(lambda v: _weighted_sum(T.affine(x, wt, b), w), x)
        tape.reset()
        return max(err, finite_diff_check(lambda v: _weighted_sum(T.affine(x, wt, b), w), wt))
    if name == "conv2d":
        # A batch of 2 on a non-square map, so that a swapped H/W or channel
        # axis in the channel-last backward fails it.
        x = _t(rng, (2, 2, 3, 5), tape)
        k = _t(rng, (3, 2, 3, 3), tape)
        b = _t(rng, (3,), tape)
        w = _t(rng, (2, 3, 3, 5), tape, requires_grad=False)

        def f(v):
            return _weighted_sum(T.conv2d(x, k, b), w)

        err = 0.0
        for target in (x, k, b):
            tape.reset()
            err = max(err, finite_diff_check(f, target))
        return err
    if name == "batchnorm":
        x = _t(rng, (4, 2, 3, 3), tape)
        gamma = _t(rng, (2,), tape, offset=1.0)
        beta = _t(rng, (2,), tape)
        state = BnState(2, dtype=F64)
        w = _t(rng, (4, 2, 3, 3), tape, requires_grad=False)

        def f(v):
            return _weighted_sum(T.batchnorm(x, gamma, beta, state, "train"), w)

        err = finite_diff_check(f, x)
        tape.reset()
        return max(err, finite_diff_check(f, gamma))
    if name in _SHAPE_OPS:
        in_shape, out_shape, op = _SHAPE_OPS[name]
        x = _t(rng, in_shape, tape)
        w = _t(rng, out_shape, tape, requires_grad=False)
        return finite_diff_check(lambda v: _weighted_sum(op(x), w), x)
    if name == "hconcat":
        # Parts of distinct values, each differenced in turn, so that a
        # gradient routed to the wrong part fails it.
        parts = [_t(rng, (3, width), tape) for width in (1, 2, 3)]
        w = _t(rng, (3, 6), tape, requires_grad=False)
        err = 0.0
        for target in parts:
            tape.reset()
            err = max(err, finite_diff_check(
                lambda v: _weighted_sum(T.hconcat(parts), w), target))
        return err
    if name == "mean":
        x = _t(rng, (3, 4), tape)
        w = _t(rng, (3, 4), tape, requires_grad=False)
        return finite_diff_check(lambda v: T.mean_all(T.hadamard(x, w)), x)
    raise ValueError(f"unknown op case {name}")


# One-input cases: input shape, output shape and the op; a repeated row index
# makes take_rows accumulate.
_SHAPE_OPS = {
    "reshape": ((2, 6), (3, 4), lambda x: T.reshape(x, (3, 4))),
    "transpose": ((3, 4), (4, 3), T.transpose),
    "take": ((2, 3, 4), (2, 4), lambda x: T.take(x, 1, axis=1)),
    "take_rows": ((5, 3), (4, 3), lambda x: T.take_rows(x, [4, 0, 4, 2])),
}

OPS = ("add", "sub", "hadamard", "relu", "leaky_relu", "sigmoid", "tanh",
       "matmul", "affine", "conv2d", "batchnorm", "reshape", "transpose",
       "hconcat", "take", "take_rows", "mean")


def _check_composed(name, rng, tape, dims):
    if name == "res_unit":
        unit = ResUnit(2, rng, dtype=F64)
        unit.attach_tape(tape)
        x = _t(rng, (1, 2, 3, 3), tape)
        w = _t(rng, (1, 2, 3, 3), tape, requires_grad=False)
        err = finite_diff_check(lambda v: _weighted_sum(unit.forward(x, "eval"), w), x)
        tape.reset()
        return max(err, finite_diff_check(
            lambda v: _weighted_sum(unit.forward(x, "eval"), w), unit.conv1.kernels))
    if name == "conv_block":
        block = ConvBlock(3, rng, dtype=F64)
        block.attach_tape(tape)
        x = _t(rng, (1, 2, 3, 3), tape)
        w = _t(rng, (1, 3, 3, 3), tape, requires_grad=False)
        return finite_diff_check(lambda v: _weighted_sum(block.forward(x, "eval"), w), x)
    if name == "lstm":
        # A batch of 2 through the fused sequence op, its 3 steps drawn
        # time-major and side by side in a (2, 9) matrix, differenced against
        # the input and one parameter of each of the four kinds, the kinds
        # spread over the four gates.
        p = LstmParams(3, 4, rng, dtype=F64)
        p.attach_tape(tape)
        for _, t in p.params():
            t.data[...] = rng.normal(size=t.data.shape)
        x = Tensor(rng.normal(size=(3, 2, 3)).swapaxes(0, 1).reshape(2, 9), dtype=F64,
                   requires_grad=True, tape=tape)
        w = _t(rng, (2, 4), tape, requires_grad=False)

        def f(v):
            return _weighted_sum(lstm_sequence_batch(p, x), w)

        err = finite_diff_check(f, x)
        for kind, gate in zip((p.w_ix, p.w_hx, p.b_ix, p.b_hx), LSTM_GATES):
            tape.reset()
            err = max(err, finite_diff_check(f, kind[gate]))
        return err
    if name == "interval_net":
        model = build_model("STDI", dims, seed=int(rng.integers(1 << 30)), dtype=F64)
        model.attach_tape(tape)
        net = model.interval
        beta = _t(rng, (dims.lstm_hidden,), tape)

        def f(v):
            w_fc, b_fc = net.generate(7)
            return T.sum_all(T.affine(beta, w_fc, b_fc))

        err = finite_diff_check(f, net.o_mat)
        tape.reset()
        err = max(err, finite_diff_check(f, net.lin_w.weight))
        tape.reset()
        return max(err, finite_diff_check(f, beta))
    if name == "model_eval":
        model = build_model("STDI", dims, seed=int(rng.integers(1 << 30)), dtype=F64)
        model.attach_tape(tape)
        seq = Tensor(rng.integers(0, 4, size=(1, dims.seq_len, 2, dims.rows, dims.cols)).astype(F64),
                     requires_grad=True, tape=tape)
        target = Tensor(rng.random((1, 2, dims.rows, dims.cols)), dtype=F64)

        def f(v):
            d = T.sub(model.forward_batch(seq, [11], mode="eval"), target)
            return T.mean_all(T.hadamard(d, d))

        err = finite_diff_check(f, seq)
        tape.reset()
        return max(err, finite_diff_check(f, model.interval.o_prime))
    if name == "model_train_batch":
        model = build_model("STDI", dims, seed=int(rng.integers(1 << 30)), dtype=F64)
        model.attach_tape(tape)
        seqs = Tensor(rng.random((2, dims.seq_len, 2, dims.rows, dims.cols)), dtype=F64,
                      requires_grad=True, tape=tape)
        hours = np.array([4, 19])
        target = Tensor(rng.random((2, 2, dims.rows, dims.cols)), dtype=F64)

        def f(v):
            d = T.sub(model.forward_batch(seqs, hours, mode="train"), target)
            return T.mean_all(T.hadamard(d, d))

        return finite_diff_check(f, seqs)
    raise ValueError(f"unknown composed case {name}")


COMPOSED = ("res_unit", "conv_block", "lstm", "interval_net", "model_eval",
            "model_train_batch")


def _seed(name, s):
    # crc32, unlike hash(), is the same in every process.
    return 1000 * s + zlib.crc32(name.encode()) % 997


def run_suite(dims=TOY_DIMS, n_seeds=20):
    """Max relative error per component over seeds.

    Returns (results, ok) where results maps component name to
    (max_error, threshold).
    """
    results = {}
    for name in OPS:
        worst = 0.0
        for s in range(n_seeds):
            rng = np.random.default_rng(_seed(name, s))
            tape = Tape()
            worst = max(worst, _check_op(name, rng, tape))
        results[name] = (worst, OP_THRESHOLD)
    for name in COMPOSED:
        worst = 0.0
        for s in range(n_seeds):
            rng = np.random.default_rng(_seed(name, s))
            tape = Tape()
            worst = max(worst, _check_composed(name, rng, tape, dims))
        results[name] = (worst, COMPOSED_THRESHOLD)
    ok = all(err < threshold for err, threshold in results.values())
    return results, ok
