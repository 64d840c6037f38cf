"""Parameterized layers built from tensor ops.

Initialization conventions, pinned for reproducibility: convolution kernels
are He-normal with std sqrt(2/fan_in); linear and LSTM weights are uniform
in +-1/sqrt(fan_in); all biases start at zero; batchnorm starts at gamma=1,
beta=0.  Passing ``rng=None`` draws nothing: every weight is left as an
``np.empty`` array, a skeleton whose values a checkpoint load reads in.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import BnState, Tensor

LSTM_GATES = ("i", "f", "g", "o")


def drawn_param(rng, shape, dtype, draw):
    """A trainable tensor of ``draw()`` cast to dtype, or undrawn when rng is None."""
    data = np.empty(shape, dtype=dtype) if rng is None else draw().astype(dtype)
    return Tensor(data, requires_grad=True)


def he_normal(rng, shape, fan_in, dtype):
    return drawn_param(rng, shape, dtype,
                       lambda: rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(rng, shape, fan_in, dtype):
    return drawn_param(rng, shape, dtype, lambda: _uniform(rng, shape, fan_in))


def zeros_param(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


class Layer:
    """A node of the parameter tree.

    A subclass defines ``parts()``: its (name, part) pairs in checkpoint
    order, where a part is a parameter Tensor, a BnState or another Layer.
    A layer whose checkpoint entries are views of its parts also overrides
    ``named_parts()``.  Every other view of the tree is a walk of one of
    the two, names joined with dots (an empty name adds nothing).
    """

    def parts(self):
        raise NotImplementedError

    def named_parts(self):
        return self.parts()

    def _leaves(self, prefix="", named=False):
        for name, part in self.named_parts() if named else self.parts():
            path = ".".join(filter(None, (prefix, name)))
            if isinstance(part, Layer):
                yield from part._leaves(path, named)
            else:
                yield path, part

    def params(self):
        """Every parameter tensor as (name, tensor), frozen ones included."""
        return [(n, p) for n, p in self._leaves() if isinstance(p, Tensor)]

    def states(self):
        """Every batchnorm's running statistics as (name, BnState)."""
        return [(n, s) for n, s in self._leaves() if isinstance(s, BnState)]


class LinearLayer(Layer):
    """weight (out, in) and bias (out,); forward is weight @ x + bias."""

    def __init__(self, in_dim, out_dim, rng, dtype=T.STANDARD):
        self.weight = uniform_fan_in(rng, (out_dim, in_dim), in_dim, dtype)
        self.bias = zeros_param(out_dim, dtype)

    def forward(self, x):
        return T.affine(x, self.weight, self.bias)

    def parts(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm(Layer):
    """Per-channel batchnorm parameters plus running statistics."""

    def __init__(self, channels, dtype=T.STANDARD):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = zeros_param(channels, dtype)
        self.state = BnState(channels, dtype=dtype)

    def forward(self, x, mode):
        return T.batchnorm(x, self.gamma, self.beta, self.state, mode)

    def parts(self):
        return [("gamma", self.gamma), ("beta", self.beta), ("", self.state)]


class Conv3x3(Layer):
    """One 3x3 convolution layer with bias."""

    def __init__(self, in_channels, out_channels, rng, dtype=T.STANDARD):
        fan_in = in_channels * 9
        self.kernels = he_normal(rng, (out_channels, in_channels, 3, 3), fan_in, dtype)
        self.bias = zeros_param(out_channels, dtype)

    def forward(self, x):
        return T.conv2d(x, self.kernels, self.bias)

    def parts(self):
        return [("kernels", self.kernels), ("bias", self.bias)]


class ResUnit(Layer):
    """Two conv+BN layers whose outputs are summed and passed through ReLU.

    The residual sum is X1 + X2 where X1 is the first conv's (normalized)
    output and X2 the second's, i.e. the skip taps the first conv output,
    not the unit input.
    """

    def __init__(self, channels, rng, dtype=T.STANDARD):
        self.conv1 = Conv3x3(channels, channels, rng, dtype)
        self.bn1 = BatchNorm(channels, dtype)
        self.conv2 = Conv3x3(channels, channels, rng, dtype)
        self.bn2 = BatchNorm(channels, dtype)

    def forward(self, x, mode):
        x1 = self.bn1.forward(self.conv1.forward(x), mode)
        x2 = self.bn2.forward(self.conv2.forward(x1), mode)
        return T.relu(T.add(x1, x2))

    def parts(self):
        return [("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2), ("bn2", self.bn2)]


class ConvBlock(Layer):
    """Entry conv (2 -> c channels, ReLU, no BN) followed by two ResUnits."""

    def __init__(self, channels, rng, dtype=T.STANDARD):
        self.entry = Conv3x3(2, channels, rng, dtype)
        self.resunits = [ResUnit(channels, rng, dtype) for _ in range(2)]

    def forward(self, m, mode):
        h = T.relu(self.entry.forward(m))
        for unit in self.resunits:
            h = unit.forward(h, mode)
        return h

    def parts(self):
        return [("entry", self.entry), *((f"res{i}", u) for i, u in enumerate(self.resunits))]


class LstmParams(Layer):
    """LSTM parameters, each kind stacked over the gates in order i, f, g, o.

    The four parameters are the Tensors ``w_in`` (4d, in), ``b_in`` (4d,),
    ``w_rec`` (4d, d) and ``b_rec`` (4d,); they are what the tape, the
    optimizer and gradcheck see.  The per-gate Tensors ``w_ix[g]``,
    ``b_ix[g]``, ``w_hx[g]`` and ``b_hx[g]`` are their row blocks, made on
    each read from the stacked Tensors' current arrays, so they follow
    ``training.Adam``'s rebind into its arena.  They serve only as
    checkpoint names: ``named_parts()`` lists them, so a checkpoint holds
    one entry per kind and gate.
    """

    w_ix = property(lambda self: self._gates(self.w_in))
    b_ix = property(lambda self: self._gates(self.b_in))
    w_hx = property(lambda self: self._gates(self.w_rec))
    b_hx = property(lambda self: self._gates(self.b_rec))

    def __init__(self, input_dim, hidden_dim, rng, dtype=T.STANDARD):
        d = hidden_dim
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_in = Tensor(np.empty((4 * d, input_dim), dtype=dtype), requires_grad=True)
        self.b_in = zeros_param(4 * d, dtype)
        self.w_rec = Tensor(np.empty((4 * d, d), dtype=dtype), requires_grad=True)
        self.b_rec = zeros_param(4 * d, dtype)
        for g in LSTM_GATES if rng is not None else ():
            # Assignment casts the float64 draws as astype(dtype) would.
            self.w_ix[g].data[...] = _uniform(rng, (d, input_dim), input_dim)
            self.w_hx[g].data[...] = _uniform(rng, (d, d), d)

    def _gates(self, stacked):
        d = self.hidden_dim
        return {g: Tensor(stacked.data[k * d:(k + 1) * d], requires_grad=True)
                for k, g in enumerate(LSTM_GATES)}

    def parts(self):
        return [(n, getattr(self, n)) for n in ("w_in", "b_in", "w_rec", "b_rec")]

    def named_parts(self):
        return [(f"{kind}{gate}", views[gate]) for gate in LSTM_GATES
                for kind, views in (("w_i", self.w_ix), ("b_i", self.b_ix),
                                    ("w_h", self.w_hx), ("b_h", self.b_hx))]


def lstm_step(p, x_t, h_prev, c_prev):
    """One LSTM cell update; returns (h_t, c_t).

    x_t is (input_dim,) or (batch, input_dim); h_prev/c_prev match with the
    hidden dim.  The gates are the column blocks i, f, g, o of one affine
    pair of the stacked parameters: i, f, o through sigmoid and the
    candidate g through tanh; c_t = f*c_prev + i*g and h_t = o*tanh(c_t).
    """
    if x_t.data.shape[-1] != p.input_dim:
        raise ShapeError(f"lstm_step: input dim {x_t.data.shape} vs expected {p.input_dim}")
    if h_prev.data.shape != c_prev.data.shape or h_prev.data.shape[-1] != p.hidden_dim:
        raise ShapeError(f"lstm_step: state shapes {h_prev.data.shape}/{c_prev.data.shape}")

    pre = T.add(T.affine(x_t, p.w_in, p.b_in), T.affine(h_prev, p.w_rec, p.b_rec))
    d = p.hidden_dim

    def gate(k, activation):
        return activation(T.take(pre, np.arange(k * d, (k + 1) * d), axis=pre.data.ndim - 1))

    i_t = gate(0, T.sigmoid)
    f_t = gate(1, T.sigmoid)
    g_t = gate(2, T.tanh)
    o_t = gate(3, T.sigmoid)
    c_t = T.add(T.hadamard(f_t, c_prev), T.hadamard(i_t, g_t))
    h_t = T.hadamard(o_t, T.tanh(c_t))
    return h_t, c_t


def lstm_sequence_batch(p, x):
    """h_L of an LSTM run from zero state over the L steps of a (batch, L*input_dim)
    tensor, step l in columns l*input_dim to (l+1)*input_dim."""
    return T.lstm(x, p.w_in, p.b_in, p.w_rec, p.b_rec)
