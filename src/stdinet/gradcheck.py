"""Finite-difference verification suite over ops, layers, and full models.

``CASES`` names each checked component once.  Its case draws the tensors
from a seeded rng and returns a scalar-valued function and the tensors to
difference; the suite runs finite_diff_check on each target across seeds in
float64 and compares the max relative error against the component's
threshold: 1e-5 for single ops, 1e-4 for composed networks.  A case looks
up each ``T.<op>`` when it runs, so a patched op is the one checked.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .layers import ConvBlock, LstmParams, ResUnit, lstm_sequence_batch
from .model import TOY_DIMS, build_model
from .tensor import BnState, Tensor, finite_diff_check
from .training import mse_loss

OP_THRESHOLD = 1e-5
COMPOSED_THRESHOLD = 1e-4

F64 = np.float64


def _t(rng, shape, requires_grad=True, offset=0.0):
    return Tensor(rng.normal(size=shape) + offset, dtype=F64, requires_grad=requires_grad)


def _weighted_sum(out, w):
    return T.sum_all(T.hadamard(out, w))


def _weighted(op, *shapes, out, targets=1, offsets=None):
    """The case sum(op(*inputs) * w): the inputs are drawn in the given
    shapes, each shifted by its offset, then the weights w of shape ``out``;
    the first ``targets`` inputs are differenced."""
    def case(rng, dims):
        xs = [_t(rng, shape, offset=offset)
              for shape, offset in zip(shapes, offsets or [0.0] * len(shapes))]
        w = _t(rng, out, requires_grad=False)
        return (lambda v: _weighted_sum(op(*xs), w)), xs[:targets]
    return case


def _mean(rng, dims):
    x = _t(rng, (3, 4))
    w = _t(rng, (3, 4), requires_grad=False)
    return (lambda v: T.mean_all(T.hadamard(x, w))), [x]


def _channel_last_batchnorm(mode):
    """The batchnorm case on a channel-last input, as every conv output is:
    a (B, C, H, W) view of (B, H, W, C) memory, so the forward runs on the
    flat view.  A conv after it, as in a ResUnit, hands back a channel-last
    gradient, which the backward takes with broadcast channel vectors.
    Eval mode normalizes by drawn running statistics."""
    def case(rng, dims):
        x = Tensor(rng.normal(size=(4, 3, 5, 2)).transpose(0, 3, 1, 2), dtype=F64,
                   requires_grad=True)
        gamma, beta = _t(rng, (2,), offset=1.0), _t(rng, (2,))
        state = BnState(2, dtype=F64)
        state.running_mean[:] = rng.normal(size=2)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=2)
        k = _t(rng, (2, 2, 3, 3), requires_grad=False)
        kb = _t(rng, (2,), requires_grad=False)
        w = _t(rng, (4, 2, 3, 5), requires_grad=False)

        def f(v):
            return _weighted_sum(T.conv2d(T.batchnorm(x, gamma, beta, state, mode), k, kb), w)

        return f, [x, gamma, beta]
    return case


def _residual(rng, dims):
    unit = ResUnit(2, rng, dtype=F64)
    x = _t(rng, (1, 2, 3, 3))
    w = _t(rng, (1, 2, 3, 3), requires_grad=False)
    return (lambda v: _weighted_sum(unit.forward(x, "eval"), w)), [x, unit.conv1.kernels]


def _block(rng, dims):
    block = ConvBlock(3, rng, dtype=F64)
    x = _t(rng, (1, 2, 3, 3))
    w = _t(rng, (1, 3, 3, 3), requires_grad=False)
    return (lambda v: _weighted_sum(block.forward(x, "eval"), w)), [x]


def _recurrence(rng, dims):
    # A batch of 2 through the fused sequence op, its 3 steps drawn
    # time-major and side by side in a (2, 9) matrix, differenced against
    # the input and the four stacked parameters.
    p = LstmParams(3, 4, rng, dtype=F64)
    params = [t for _, t in p.params()]
    for t in params:
        t.data[...] = rng.normal(size=t.data.shape)
    x = Tensor(rng.normal(size=(3, 2, 3)).swapaxes(0, 1).reshape(2, 9), dtype=F64,
               requires_grad=True)
    w = _t(rng, (2, 4), requires_grad=False)
    return (lambda v: _weighted_sum(lstm_sequence_batch(p, x), w)), [x] + params


def _stdi(rng, dims):
    return build_model("STDI", dims, seed=int(rng.integers(1 << 30)), dtype=F64)


def _hour_head(rng, dims):
    net = _stdi(rng, dims).head
    beta = _t(rng, (dims.lstm_hidden,))

    def f(v):
        w_fc, b_fc = net.generate(7)
        return T.sum_all(T.affine(beta, w_fc, b_fc))

    return f, [net.o_mat, net.lin_w.weight, beta]


def _eval_forward(rng, dims):
    model = _stdi(rng, dims)
    seq = Tensor(rng.integers(0, 4, size=(1, dims.seq_len, 2, dims.rows, dims.cols)).astype(F64),
                 requires_grad=True)
    target = Tensor(rng.random((1, 2, dims.rows, dims.cols)), dtype=F64)

    def f(v):
        return mse_loss(model.forward_batch(seq, [11], mode="eval"), target)

    return f, [seq, model.head.o_prime]


def _train_forward(rng, dims):
    model = _stdi(rng, dims)
    seqs = Tensor(rng.random((2, dims.seq_len, 2, dims.rows, dims.cols)), dtype=F64,
                  requires_grad=True)
    target = Tensor(rng.random((2, 2, dims.rows, dims.cols)), dtype=F64)
    return (lambda v: mse_loss(model.forward_batch(seqs, [4, 19], mode="train"), target)), [seqs]


# Component name -> (case, threshold), in report order.  A case maps
# (rng, dims) to the scalar function and the tensors to difference;
# each lambda looks its op up in T when it is called.
CASES = {
    "add": (_weighted(lambda x, y: T.add(x, y), (3, 4), (3, 4), out=(3, 4)), OP_THRESHOLD),
    "sub": (_weighted(lambda x, y: T.sub(x, y), (3, 4), (3, 4), out=(3, 4)), OP_THRESHOLD),
    "hadamard": (_weighted(lambda x, y: T.hadamard(x, y), (3, 4), (3, 4), out=(3, 4)),
                 OP_THRESHOLD),
    # The offset keeps the inputs clear of the relu kink.
    "relu": (_weighted(lambda x: T.relu(x), (3, 4), out=(3, 4), offsets=[0.1]), OP_THRESHOLD),
    "leaky_relu": (_weighted(lambda x: T.leaky_relu(x), (3, 4), out=(3, 4), offsets=[0.1]),
                   OP_THRESHOLD),
    "sigmoid": (_weighted(lambda x: T.sigmoid(x), (3, 4), out=(3, 4), offsets=[0.1]),
                OP_THRESHOLD),
    "tanh": (_weighted(lambda x: T.tanh(x), (3, 4), out=(3, 4), offsets=[0.1]), OP_THRESHOLD),
    "affine": (_weighted(lambda x, wt, b: T.affine(x, wt, b), (5, 4), (3, 4), (3,), out=(5, 3),
                         targets=2), OP_THRESHOLD),
    "affine_no_bias": (_weighted(lambda x, wt: T.affine(x, wt), (5, 4), (3, 4), out=(5, 3),
                                 targets=2), OP_THRESHOLD),
    # A batch of 2 on a non-square map, so that a swapped H/W or channel
    # axis in the channel-last backward fails it.
    "conv2d": (_weighted(lambda x, k, b: T.conv2d(x, k, b), (2, 2, 3, 5), (3, 2, 3, 3), (3,),
                         out=(2, 3, 3, 5), targets=3), OP_THRESHOLD),
    # Train mode normalizes by the batch statistics, so a fresh state serves.
    "batchnorm": (_weighted(lambda x, g, b: T.batchnorm(x, g, b, BnState(2, dtype=F64), "train"),
                            (4, 2, 3, 3), (2,), (2,), out=(4, 2, 3, 3), targets=2,
                            offsets=[0.0, 1.0, 0.0]), OP_THRESHOLD),
    "batchnorm_channel_last": (_channel_last_batchnorm("train"), OP_THRESHOLD),
    "batchnorm_channel_last_eval": (_channel_last_batchnorm("eval"), OP_THRESHOLD),
    "reshape": (_weighted(lambda x: T.reshape(x, (3, 4)), (2, 6), out=(3, 4)), OP_THRESHOLD),
    # Parts of distinct values, each differenced in turn, so that a gradient
    # routed to the wrong part fails it; the last part is flattened to its 4
    # columns.
    "hconcat": (_weighted(lambda *parts: T.hconcat(parts), (3, 1), (3, 2), (3, 3), (3, 2, 2),
                          out=(3, 10), targets=4), OP_THRESHOLD),
    "take": (_weighted(lambda x: T.take(x, 1, axis=1), (2, 3, 4), out=(2, 4)), OP_THRESHOLD),
    # Rows gathered by an index array; the repeated one makes take accumulate.
    "take_rows": (_weighted(lambda x: T.take(x, [4, 0, 4, 2]), (5, 3), out=(4, 3)),
                  OP_THRESHOLD),
    "mean": (_mean, OP_THRESHOLD),
    "res_unit": (_residual, COMPOSED_THRESHOLD),
    "conv_block": (_block, COMPOSED_THRESHOLD),
    "lstm": (_recurrence, COMPOSED_THRESHOLD),
    "interval_net": (_hour_head, COMPOSED_THRESHOLD),
    "model_eval": (_eval_forward, COMPOSED_THRESHOLD),
    "model_train_batch": (_train_forward, COMPOSED_THRESHOLD),
}


def _seed(name, s):
    # crc32, unlike hash(), is the same in every process.
    return 1000 * s + zlib.crc32(name.encode()) % 997


def run_suite(dims=TOY_DIMS, n_seeds=20):
    """Max relative error per component over seeds and targets.

    Returns (results, ok) where results maps component name to
    (max_error, threshold); a NaN error anywhere makes the max NaN, a
    failure.
    """
    results = {}
    for name, (case, threshold) in CASES.items():
        errors = []
        for s in range(n_seeds):
            f, targets = case(np.random.default_rng(_seed(name, s)), dims)
            for target in targets:
                errors.append(finite_diff_check(f, target))
        results[name] = (float(np.max(errors)), threshold)
    ok = all(err < threshold for err, threshold in results.values())
    return results, ok
