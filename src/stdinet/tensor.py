"""Reverse-mode automatic differentiation over numpy arrays.

Every differentiable operation records a node on the :class:`Tape` that is
open, ``with Tape() as tape:``, in the running thread; outside such a block
nothing is recorded, and each tape holds its own graph.  Two precisions are
supported: ``STANDARD`` (float32) for training and ``VERIFICATION`` (float64)
for gradient checking, where forward results are also required to be
bit-reproducible against naive reference loops.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError, UsageError

STANDARD = np.float32
VERIFICATION = np.float64

PRECISIONS = {"standard": STANDARD, "verification": VERIFICATION}

# Only configuration the convolution supports: 3x3 kernels, stride 1,
# zero padding 1, so spatial dims are preserved.
CONV_KSIZE = 3
CONV_PAD = 1
# Padded rows per batch tile of the float32 convolution: one tile's column
# buffer (rows, 3*C_in) and its product stay in the L2 cache.  At the paper's
# 8x16 map and 32 channels that is 16 images of (8+2)*16 rows.
CONV_TILE_ROWS = 2560
# leaky_relu's slope below zero, the one the hour-conditioned heads use.
LEAKY_SLOPE = 0.01


def resolve_dtype(precision):
    """Map a precision name to the numpy dtype used for tensors."""
    if precision not in PRECISIONS:
        raise UsageError(f"unknown precision {precision!r}; expected one of {sorted(PRECISIONS)}")
    return PRECISIONS[precision]


class Tensor:
    """An n-dimensional float array, optionally tracked for gradients.

    A Tensor has no arithmetic operators: every op is a function of this
    module (``add``, ``affine``, ``conv2d``, ...) that records itself on the
    open tape when some input requires grad.  ``grad`` (same shape as
    ``data``) is populated on leaves, the tensors no recorded op produced,
    once a backward pass has run through them; an op's output keeps none.
    ``training.Adam`` rebinds each parameter's ``data`` to its slice of
    Adam's data arena and sets ``grad_slice`` to the same slice of its
    gradient arena; ``fit`` clears ``grad_slice`` when it ends.  A leaf with
    a ``grad_slice`` has it as its grad, which the backward pass writes and
    adds into in place.  Any other leaf's grad is the array the backward
    rule returned, not a copy, so such grads may share memory with one
    another (the LSTM's two bias grads are one array).  No grad shares
    memory with any tensor's ``data``.
    """

    grad_slice = None

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            raise UsageError("wrap raw array data, not another Tensor")
        if dtype is None:
            arr = np.asarray(data)
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else STANDARD
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


@dataclass
class TapeNode:
    """One recorded op: kind, operand refs, output ref and its backward rule.

    ``backward`` maps the output gradient to one gradient per input (``None``
    for inputs that need no gradient).
    """

    op: str
    inputs: tuple
    output: Tensor
    backward: Callable[[np.ndarray], tuple]


_OPEN_TAPE = contextvars.ContextVar("stdinet_open_tape", default=None)


class Tape:
    """Ordered record of the ops run while it is open.

    ``with Tape() as tape:`` opens the tape for the block, in the running
    thread only; a tape opened inside it is the one that records until its
    own block ends, and the outer one is open again after.  Nodes are
    appended in execution order, which is already a topological order, so
    the backward pass is a single reverse sweep.  backward() empties the
    tape as it goes; closing the tape drops a graph abandoned without one.
    """

    def __init__(self):
        self.nodes = []
        self.recording = True
        self._token = None

    def __enter__(self):
        if self._token is not None:
            raise UsageError("tape is already open")
        self._token = _OPEN_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _OPEN_TAPE.reset(self._token)
        self._token = None
        self.reset()

    @contextlib.contextmanager
    def paused(self):
        """Temporarily stop recording (evaluation, finite differencing)."""
        prev = self.recording
        self.recording = False
        try:
            yield self
        finally:
            self.recording = prev

    def reset(self):
        """Forget every recorded node and free the graph it held.

        Each output points at its node and the node back at the output, so
        the link is cut here; reference counting then frees the step's
        activations and backward closures at once instead of leaving them to
        the cycle collector.
        """
        for node in self.nodes:
            node.output._node = None
        self.nodes.clear()

    def backward(self, loss):
        """Populate ``grad`` on every leaf that influenced a scalar loss.

        Each node is popped as its rule runs and goes with the closure and
        activations it held, so the sweep empties the tape.  A leaf with a
        ``grad_slice`` gets its first gradient written into that slice (a
        rule may have written it there already) and adds later ones in
        place.  Any other leaf stores its first gradient as given, without a
        copy, and adds later ones out of place, so no such grad is written.
        """
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        node = loss._node
        if node is None or not any(n is node for n in reversed(self.nodes)):
            raise UsageError("loss is not recorded on this tape (or already consumed by backward())")
        loss.grad = np.ones_like(loss.data)
        while self.nodes:
            node = self.nodes.pop()
            node.output._node = None
            gout, node.output.grad = node.output.grad, None
            if gout is None:
                continue
            grads = node.backward(gout)
            for tensor, g in zip(node.inputs, grads):
                if g is None or not tensor.requires_grad:
                    continue
                if g.shape != tensor.data.shape:
                    raise ShapeError(
                        f"backward rule for {node.op} produced gradient shape "
                        f"{g.shape} for input shape {tensor.data.shape}"
                    )
                buf = tensor.grad_slice
                if tensor.grad is None and buf is not None:
                    if g is not buf:
                        np.copyto(buf, g)
                    tensor.grad = buf
                elif tensor.grad is None:
                    tensor.grad = g
                elif tensor.grad is buf:
                    np.add(buf, g, out=buf)
                else:
                    tensor.grad = tensor.grad + g


def _grad_out(t, inputs):
    """Where the backward rule of a node with ``inputs`` may write the
    gradient of ``t``, one of them: its arena slice while it holds no
    gradient yet and is no other input, else None (a new array)."""
    alone = sum(u is t for u in inputs) == 1
    return t.grad_slice if t.grad is None and alone else None


def _common_dtype(tensors, op):
    dtype = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dtype:
            raise UsageError(f"{op}: mixed precisions {dtype} and {t.data.dtype}")
    return dtype


def _record(op, inputs, out_data, backward):
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    tape = _OPEN_TAPE.get()
    if requires and tape is not None and tape.recording:
        node = TapeNode(op, tuple(inputs), out, backward)
        tape.nodes.append(node)
        out._node = node
    return out


def _check_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    _check_same_shape("add", a, b)
    _common_dtype((a, b), "add")
    return _record("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a, b):
    _check_same_shape("sub", a, b)
    _common_dtype((a, b), "sub")
    return _record("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def hadamard(a, b):
    """Pointwise product of same-shape tensors."""
    _check_same_shape("hadamard", a, b)
    _common_dtype((a, b), "hadamard")
    ad, bd = a.data, b.data
    return _record("hadamard", (a, b), ad * bd, lambda g: (g * bd, g * ad))


def relu(x):
    """max(x, 0), with NaN and -0.0 mapped to 0.0 and subgradient 0 at the kink.

    ``fmax(x, 0)`` takes the 0 over a NaN, and adding 0 turns -0.0 into 0.0,
    so the output is that of ``np.where(x > 0, x, 0)`` in two unmasked
    passes.  The backward rule builds its mask ``x > 0`` only when it runs.
    """
    xd = x.data
    out = np.fmax(xd, 0)
    out += 0
    return _record("relu", (x,), out, lambda g: (g * (xd > 0),))


def leaky_relu(x):
    s = x.data.dtype.type(LEAKY_SLOPE)
    pos = x.data >= 0
    out = np.where(pos, x.data, s * x.data)
    return _record("leaky_relu", (x,), out, lambda g: (g * np.where(pos, x.data.dtype.type(1), s),))


def _sigmoid(d):
    """The logistic function, each sign by its own overflow-free formula.

    With e = exp(-|d|), which never overflows, the result below zero is
    e / (1 + e) and from zero up 1 / (1 + e): the values of splitting the
    array by sign, without masked gathers or a masked divide.  As e <= 1,
    the larger of e and ``d >= 0`` is the numerator of both formulas (1
    from zero up, e below); it is taken in place, and the quotient is
    written over 1 + e.  min(d, -d) is -|d| that keeps a NaN's sign.
    """
    e = np.exp(np.minimum(d, -d))
    t = 1.0 + e
    np.maximum(e, d >= 0, out=e)
    return np.divide(e, t, out=t)


def sigmoid(x):
    out = _sigmoid(x.data)
    return _record("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def tanh(x):
    out = np.tanh(x.data)
    return _record("tanh", (x,), out, lambda g: (g * (1.0 - out * out),))


# ---------------------------------------------------------------------------
# linear algebra


def affine(x, w, b=None):
    """``x @ w.T + b`` for a vector or a batch of row vectors.

    ``w`` is (out, in), ``b`` is (out,) or ``None``, then the node records
    only (x, w).  A 1-d ``x`` of length `in` yields a 1-d output; a 2-d ``x``
    of shape (batch, in) yields (batch, out) with the bias broadcast over rows.
    The weight gradient's GEMM writes into ``w``'s gradient slice when it
    may (``_grad_out``).
    """
    bias_shape = None if b is None else b.data.shape
    if w.data.ndim != 2 or bias_shape not in (None, w.data.shape[:1]):
        raise ShapeError(f"affine: weight {w.data.shape} and bias {bias_shape} inconsistent")
    if x.data.ndim not in (1, 2) or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"affine: input {x.data.shape} does not match weight {w.data.shape}")
    inputs = (x, w) if b is None else (x, w, b)
    _common_dtype(inputs, "affine")
    xd, wd = x.data, w.data
    out = xd @ wd.T if b is None else xd @ wd.T + b.data
    # A vector is a batch of one row; its weight gradient is a K=1 GEMM.
    x2 = xd.reshape(-1, wd.shape[1])

    def backward(g):
        g2 = g.reshape(-1, wd.shape[0])
        grads = (g @ wd, np.matmul(g2.T, x2, out=_grad_out(w, inputs)))
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _record("affine", inputs, out, backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")
    old = x.data.shape
    return _record("reshape", (x,), x.data.reshape(shape), lambda g: (g.reshape(old),))


def hconcat(parts):
    """Concatenate tensors with equal leading dims along columns, each part
    flattened to (rows, -1)."""
    parts = tuple(parts)
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim < 2 or p.data.shape[0] != rows:
            raise ShapeError(f"hconcat: parts need rank >= 2 and {rows} rows, got {p.data.shape}")
    _common_dtype(parts, "hconcat")
    flat = [p.data.reshape(rows, math.prod(p.data.shape[1:])) for p in parts]
    offsets = np.cumsum([0] + [f.shape[1] for f in flat])

    def backward(g):
        return tuple(g[:, a:b].reshape(p.data.shape)
                     for p, a, b in zip(parts, offsets, offsets[1:]))

    return _record("hconcat", parts, np.concatenate(flat, axis=1), backward)


def take(x, index, axis=0):
    """Select along an axis: an int index drops the axis, a 1-d int array
    keeps it, and repeated indices accumulate gradient."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim > 1 or ((idx < 0) | (idx >= x.data.shape[axis])).any():
        raise ShapeError(f"take: index {index!r} is not an int or a 1-d array in range "
                         f"for axis {axis} of {x.data.shape}")
    shape = x.data.shape
    sel = (slice(None),) * axis + (idx,)

    def backward(g):
        z = np.zeros(shape, dtype=g.dtype)
        np.add.at(z, sel, g)
        return (z,)

    # np.take returns a new C-contiguous array, so the output owns its data.
    return _record("take", (x,), np.take(x.data, idx, axis=axis), backward)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x):
    shape = x.data.shape
    return _record("sum", (x,), np.asarray(x.data.sum(), dtype=x.data.dtype),
                   lambda g: (np.broadcast_to(g, shape).astype(g.dtype, copy=True),))


def mean_all(x):
    shape = x.data.shape
    n = x.data.dtype.type(x.data.size)
    return _record("mean", (x,), np.asarray(x.data.mean(), dtype=x.data.dtype),
                   lambda g: (np.broadcast_to(g / n, shape).astype(g.dtype, copy=True),))


# ---------------------------------------------------------------------------
# recurrence


def lstm(x, w_in, b_in, w_rec, b_rec):
    """Final hidden state of an LSTM run from zero state over a sequence.

    ``x`` is the (B, L*in) feature matrix: step l of each row is in columns
    l*in to (l+1)*in.  The parameters have the gates stacked in order i, f,
    g, o: input weights (4d, in), input biases (4d,), recurrent weights
    (4d, d), recurrent biases (4d,).  The steps are gathered time-major into
    one (L*B, in) buffer, so the input projection of all L steps is one
    GEMM; each step adds one (B, d) @ (d, 4d) GEMM.  One node is recorded,
    whose backward pass through time returns a gradient for ``x`` and for
    each parameter, the two biases sharing one array; the two weight GEMMs
    write into the weights' gradient slices when they may (``_grad_out``).
    The cell is the one of ``layers.lstm_step``: c_t = f*c_prev + i*g and
    h_t = o*tanh(c_t).
    """
    params = (w_in, b_in, w_rec, b_rec)
    shapes = tuple(t.data.shape for t in params)
    d, n_in = w_rec.data.shape[-1], w_in.data.shape[-1]
    if shapes != ((4 * d, n_in), (4 * d,), (4 * d, d), (4 * d,)):
        raise ShapeError(f"lstm: parameter shapes {shapes} are not (4d, in), (4d,), (4d, d), (4d,)")
    w_in, b_in, w_rec, b_rec = (t.data for t in params)
    shape = x.data.shape
    if len(shape) != 2 or shape[1] == 0 or shape[1] % n_in:
        raise ShapeError(f"lstm: input {shape} is not (B, L*{n_in}) with L >= 1")
    inputs = (x,) + params
    _common_dtype(inputs, "lstm")
    batch, length = shape[0], shape[1] // n_in
    x_flat = np.array(x.data.reshape(batch, length, n_in).swapaxes(0, 1), order="C")
    x_flat = x_flat.reshape(length * batch, n_in)
    x_proj = (x_flat @ w_in.T + b_in).reshape(length, batch, 4 * d)

    h = np.zeros((batch, d), dtype=x_flat.dtype)
    c = np.zeros_like(h)
    hs, cs, tanh_cs, acts = [h], [c], [], []
    for t in range(length):
        # h is zero before the first step, so its recurrent product is too.
        rec = b_rec if t == 0 else h @ w_rec.T + b_rec
        z = x_proj[t] + rec
        a = np.empty_like(z)
        a[:, :2 * d] = _sigmoid(z[:, :2 * d])
        a[:, 2 * d:3 * d] = np.tanh(z[:, 2 * d:3 * d])
        a[:, 3 * d:] = _sigmoid(z[:, 3 * d:])
        i, f, g, o = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        acts.append(a)
        cs.append(c)
        tanh_cs.append(tanh_c)
        hs.append(h)

    def backward(gh):
        dz = np.empty_like(x_proj)
        dh = gh
        dc = np.zeros_like(gh)
        for t in reversed(range(length)):
            a, tanh_c = acts[t], tanh_cs[t]
            i, f, g, o = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dz[t, :, :d] = dc * g * i * (1.0 - i)
            dz[t, :, d:2 * d] = dc * cs[t] * f * (1.0 - f)
            dz[t, :, 2 * d:3 * d] = dc * i * (1.0 - g * g)
            dz[t, :, 3 * d:] = dh * tanh_c * o * (1.0 - o)
            if t > 0:
                dh = dz[t] @ w_rec
                dc = dc * f
        dz_flat = dz.reshape(length * batch, 4 * d)
        dw_in = np.matmul(dz_flat.T, x_flat, out=_grad_out(params[0], inputs))
        db = dz_flat.sum(axis=0)
        if length > 1:
            h_prev = np.concatenate(hs[1:length])
            dw_rec = np.matmul(dz_flat[batch:].T, h_prev, out=_grad_out(params[2], inputs))
        else:
            dw_rec = np.zeros_like(w_rec)
        dx = None
        if x.requires_grad:
            dx = (dz_flat @ w_in).reshape(length, batch, n_in).swapaxes(0, 1).reshape(shape)
        return dx, dw_in, db, dw_rec, db

    return _record("lstm", inputs, h, backward)


# ---------------------------------------------------------------------------
# convolution


def _conv_check(x, kernels, bias):
    if kernels.data.ndim != 4 or kernels.data.shape[2:] != (CONV_KSIZE, CONV_KSIZE):
        raise ShapeError(f"conv2d: kernels must be (C_out, C_in, 3, 3), got {kernels.data.shape}")
    if bias.data.ndim != 1 or bias.data.shape[0] != kernels.data.shape[0]:
        raise ShapeError(f"conv2d: bias {bias.data.shape} does not match kernels {kernels.data.shape}")
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"conv2d: input must be (C, H, W) or (B, C, H, W), got {x.data.shape}")
    cin = x.data.shape[-3]
    if cin != kernels.data.shape[1]:
        raise ShapeError(
            f"conv2d: input has {cin} channels but kernels expect {kernels.data.shape[1]} "
            f"(input {x.data.shape}, kernels {kernels.data.shape})"
        )
    if x.data.shape[-2] < 1 or x.data.shape[-1] < 1:
        raise ShapeError(f"conv2d: empty spatial dims in {x.data.shape}")


def _conv_forward_canonical(xp, k, b):
    """Accumulate products in (c, dy, dx) order, one add per term.

    ``xp`` is the zero-padded input in (B, C_in, H+2, W+2) order.  This
    reproduces the naive quintuple loop bit for bit, which is the contract
    in verification (float64) mode.
    """
    bsz, cin, hp, wp = xp.shape
    h, w = hp - 2, wp - 2
    cout = k.shape[0]
    out = np.empty((bsz, cout, h, w), dtype=xp.dtype)
    out[...] = b[None, :, None, None]
    for c in range(cin):
        for dy in range(CONV_KSIZE):
            for dx in range(CONV_KSIZE):
                patch = xp[:, c, dy:dy + h, dx:dx + w]
                out += patch[:, None] * k[None, :, c, dy, dx, None, None]
    return out


class _ColumnTiles:
    """Width-folded column buffer of a channel-last batch, one tile at a time.

    Image b of a tile owns ``(H+2)*W`` rows, one per padded row y and column
    x, and row (b, y, x) holds the three horizontal taps (dx = 0, 1, 2) of
    input row y-1 around column x, so the buffer is (rows, 3*C_in).  The
    padded rows and the out-of-map taps are zeroed once and never written.
    The window of vertical tap dy for output row (b, y, x) is then the row
    ``dy*W`` further down, so every dy is one contiguous row slice and a
    3x3 convolution is three GEMMs with K = 3*C_in.  The last two rows of
    each image's stretch mix in the next image; their results are dropped.
    """

    def __init__(self, bsz, h, w, cin, dtype):
        self.h, self.w, self.per = h, w, (h + 2 * CONV_PAD) * w
        self.images = max(1, min(bsz, CONV_TILE_ROWS // self.per))
        self.col = np.zeros((self.images, h + 2 * CONV_PAD, w, CONV_KSIZE, cin), dtype=dtype)

    def fill(self, xt):
        """Load images ``xt`` (m, H, W, C_in); return the three dy tap windows.

        Row r of each window, and of its product with a kernel slice, is
        row r of the images' padded row order, so the real output pixel
        (b, y, x) is row b*(H+2)*W + y*W + x.
        """
        m, h, w = xt.shape[0], self.h, self.w
        col = self.col[:m, CONV_PAD:CONV_PAD + h]
        col[:, :, 1:, 0] = xt[:, :, :w - 1]
        col[:, :, :, 1] = xt
        col[:, :, :w - 1, 2] = xt[:, :, 1:]
        flat = self.col[:m].reshape(m * self.per, -1)
        n = m * self.per - 2 * CONV_PAD * w
        return [flat[dy * w:dy * w + n] for dy in range(CONV_KSIZE)]


def _conv_channel_last(xt, kt, bias=None):
    """3x3 convolution of ``xt`` (B, H, W, C_in) into a new (B, H, W, C_out).

    ``kt[dy]`` is the (3*C_in, C_out) kernel slice of vertical tap dy, rows
    in (dx, c) order.  Each batch tile accumulates its three tap GEMMs in a
    product buffer of the tile's padded rows; only the real rows are copied
    out, with ``bias`` (if any) added on the way: on the tile's
    (m, H, W*C_out) rows, tiled W times once per call.
    """
    bsz, h, w, cin = xt.shape
    cout = kt.shape[2]
    bias_rows = None if bias is None else _tiled(bias, w)
    tiles = _ColumnTiles(bsz, h, w, cin, xt.dtype)
    out = np.empty((bsz, h, w, cout), dtype=xt.dtype)
    prod = np.empty((tiles.images * tiles.per, cout), dtype=xt.dtype)
    part = np.empty_like(prod)
    for b0 in range(0, bsz, tiles.images):
        b1 = min(b0 + tiles.images, bsz)
        taps = tiles.fill(xt[b0:b1])
        n = len(taps[0])
        np.matmul(taps[0], kt[0], out=prod[:n])
        for tap, k in zip(taps[1:], kt[1:]):
            prod[:n] += np.matmul(tap, k, out=part[:n])
        m = b1 - b0
        real = prod[:m * tiles.per].reshape(m, -1, w * cout)[:, :h]
        rows = out[b0:b1].reshape(m, h, w * cout)
        if bias is None:
            rows[...] = real
        else:
            np.add(real, bias_rows, out=rows)
    return out


def _tiled(v, reps):
    """A (C,) vector repeated ``reps`` times end to end, as ``np.tile`` makes it."""
    out = np.empty((reps, v.shape[0]), dtype=v.dtype)
    out[...] = v
    return out.reshape(-1)


def _tap_kernels(k):
    """(C_out, C_in, 3, 3) kernels as three (3*C_in, C_out) slices, one per dy."""
    cout, cin = k.shape[:2]
    return np.ascontiguousarray(k.transpose(2, 3, 1, 0)).reshape(CONV_KSIZE, CONV_KSIZE * cin, cout)


def conv2d(x, kernels, bias):
    """3x3 / stride-1 / pad-1 convolution; spatial dims are preserved.

    Input may be a single (C_in, H, W) map or a batch (B, C_in, H, W);
    kernels are (C_out, C_in, 3, 3) and bias (C_out,).

    The float32 forward reads the input channel-last and, one batch tile of
    about ``CONV_TILE_ROWS`` padded rows at a time, folds the three
    horizontal taps into a (rows, 3*C_in) column buffer (``_ColumnTiles``).
    Each vertical tap is a row-shifted view of it, so the convolution is
    three GEMMs against (3*C_in, C_out) kernel slices.  The output is
    written channel-last, (B, H, W, C_out), and returned through a
    transposed (B, C_out, H, W) view, so the next conv's column fill reads
    it contiguously.  The float64 forward is the canonical loop over a
    zero-padded copy of the input.

    The node keeps no buffer but its output: the backward pass of both
    precisions rebuilds the column tiles from the input.  The weight
    gradient of tap dy is ``col[dy*W:].T @ g`` over the tiles, with the
    output gradient laid out in the same padded rows; the input gradient
    is the same tiled convolution of the output gradient with the kernels
    flipped and their channel axes swapped.
    """
    _conv_check(x, kernels, bias)
    _common_dtype((x, kernels, bias), "conv2d")
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    kd, bd = kernels.data, bias.data
    bsz, cin, h, w = xd.shape
    cout = kd.shape[0]

    if xd.dtype == VERIFICATION:
        xp = np.zeros((bsz, cin, h + 2 * CONV_PAD, w + 2 * CONV_PAD), dtype=xd.dtype)
        xp[:, :, CONV_PAD:CONV_PAD + h, CONV_PAD:CONV_PAD + w] = xd
        out = _conv_forward_canonical(xp, kd, bd)
    else:
        out = _conv_channel_last(xd.transpose(0, 2, 3, 1), _tap_kernels(kd), bd).transpose(0, 3, 1, 2)

    def backward(g):
        gt = (g[None] if single else g).transpose(0, 2, 3, 1)
        tiles = _ColumnTiles(bsz, h, w, cin, xd.dtype)
        gpad = np.zeros((tiles.images, h + 2 * CONV_PAD, w, cout), dtype=g.dtype)
        dkt = np.zeros((CONV_KSIZE, CONV_KSIZE * cin, cout), dtype=g.dtype)
        xt = xd.transpose(0, 2, 3, 1)
        for b0 in range(0, bsz, tiles.images):
            b1 = min(b0 + tiles.images, bsz)
            taps = tiles.fill(xt[b0:b1])
            gpad[:b1 - b0, :h] = gt[b0:b1]
            gm = gpad[:b1 - b0].reshape(-1, cout)[:len(taps[0])]
            for dy, tap in enumerate(taps):
                dkt[dy] += tap.T @ gm
        dk = dkt.reshape(CONV_KSIZE, CONV_KSIZE, cin, cout).transpose(3, 2, 0, 1).copy()
        db = gt.sum(axis=(0, 1, 2))
        if not x.requires_grad:
            return None, dk, db
        flipped = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _conv_channel_last(gt, _tap_kernels(flipped)).transpose(0, 3, 1, 2)
        return (dx[0] if single else dx, dk, db)

    return _record("conv2d", (x, kernels, bias), out[0] if single else out, backward)


# ---------------------------------------------------------------------------
# batch normalization


class BnState:
    """Running statistics for one batchnorm layer (per-channel)."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels, dtype=STANDARD):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


class _Channels:
    """A (B, C, H, W) array in the form the forward's per-channel passes run on.

    On channel-last memory, which is every conv output, ``rows`` is the
    array's (B*H, W*C) view and ``vec`` tiles a (C,) vector W times to
    match it, so each elementwise pass runs over long contiguous rows
    instead of C-wide inner loops.  Any other layout keeps the array and
    broadcasts each vector as (1, C, 1, 1).  The operations are the same in
    both forms, so are the values.
    """

    def __init__(self, a):
        t = a.transpose(0, 2, 3, 1)
        self.flat = t.flags.c_contiguous
        self.shape = t.shape
        self.rows = t.reshape(t.shape[0] * t.shape[1], t.shape[2] * t.shape[3]) if self.flat else a

    def vec(self, v):
        return _tiled(v, self.shape[2]) if self.flat else v[None, :, None, None]

    def nchw(self, r):
        """A result in the form of ``rows`` as a (B, C, H, W) array."""
        return r.reshape(self.shape).transpose(0, 3, 1, 2) if self.flat else r


def batchnorm(x, gamma, beta, state, mode):
    """Per-channel batch normalization over a (B, C, H, W) tensor.

    Train mode normalizes by batch statistics (needs B >= 2) and updates the
    running stats with momentum; eval mode normalizes by the running stats.

    The forward's elementwise passes, ``x - mean`` then ``* inv_std`` and
    ``* gamma + beta``, run in place on one new buffer each, in the form of
    ``_Channels``: on the (B*H, W*C) view of a channel-last input with
    W-tiled channel vectors, else broadcast.  Train mode squares the
    centered rows for the batch variance, so the input is centered once.
    The backward broadcasts the channel vectors over the (B, C, H, W)
    gradient, whatever its layout.  The per-channel reductions (mean, var
    and the backward's four sums) run on (B, C, H, W) arrays, so their
    summation order is that of the broadcast formula and ``np.var``, and so
    are the bits.
    """
    if mode not in ("train", "eval"):
        raise UsageError(f"batchnorm: mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expected (B, C, H, W), got {x.data.shape}")
    bsz, ch = x.data.shape[:2]
    if gamma.data.shape != (ch,) or beta.data.shape != (ch,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({ch},), got {gamma.data.shape}/{beta.data.shape}")
    if mode == "train" and bsz < 2:
        raise UsageError(f"batchnorm: train mode needs a batch of at least 2, got {bsz}")
    _common_dtype((x, gamma, beta), "batchnorm")

    xd = x.data
    gd, bd = gamma.data, beta.data
    eps = xd.dtype.type(state.eps)
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    axes = (0, 2, 3)
    xs = _Channels(xd)

    mean = xd.mean(axis=axes) if mode == "train" else state.running_mean.astype(xd.dtype)
    xhat_rows = np.subtract(xs.rows, xs.vec(mean))
    if mode == "train":
        var = xs.nchw(np.square(xhat_rows)).sum(axis=axes) / n  # biased, used for normalization
        m = state.momentum
        unbiased = var * (n / (n - 1))
        state.running_mean[:] = (1 - m) * state.running_mean + m * mean
        state.running_var[:] = (1 - m) * state.running_var + m * unbiased
    else:
        var = state.running_var.astype(xd.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat_rows *= xs.vec(inv_std)
    out = xhat_rows * xs.vec(gd)
    out += xs.vec(bd)
    xhat = xs.nchw(xhat_rows)

    def backward(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        if mode == "eval":
            return g * (gd * inv_std)[None, :, None, None], dgamma, dbeta
        # Differentiate through the batch mean and variance.
        dxhat = g * gd[None, :, None, None]
        s1 = dxhat.sum(axis=axes)
        s2 = (dxhat * xhat).sum(axis=axes)
        dx = np.multiply(dxhat, n, out=dxhat)
        dx -= s1[None, :, None, None]
        # Not in place: when dx and xhat are laid out differently, a new
        # result takes the layout numpy picks, as the formula's did.
        dx = dx - xhat * s2[None, :, None, None]
        dx *= (inv_std / n)[None, :, None, None]
        return dx, dgamma, dbeta

    return _record("batchnorm", (x, gamma, beta), xs.nchw(out), backward)


# ---------------------------------------------------------------------------
# gradient verification

FD_STEP = 1e-5


def finite_diff_check(f, x):
    """Max relative error between tape gradients and central differences.

    ``f`` maps ``x`` to a scalar tensor and must be re-evaluable.  The
    analytic pass runs on a tape of its own and the differences with it
    paused.  Runs only in verification (float64) precision, with central
    differences of step ``FD_STEP``.  A target the backward pass gives no
    gradient, one no recorded op reads, is refused.  The error per
    coordinate is |analytic - numeric| / max(1, |numeric|); the max over
    coordinates is returned (NaN anywhere makes the result NaN, i.e. a
    failure).
    """
    if x.data.dtype != VERIFICATION:
        raise UsageError("finite_diff_check requires verification (float64) precision")
    if not x.requires_grad:
        raise UsageError("finite_diff_check target must have requires_grad=True")

    x.grad = None
    with Tape() as tape:
        tape.backward(f(x))
        if x.grad is None:
            raise UsageError("finite_diff_check target got no gradient: no recorded op reads it")
        analytic = x.grad.copy()

        numeric = np.zeros_like(x.data)
        with tape.paused():
            for idx in np.ndindex(x.data.shape):
                orig = x.data[idx]
                x.data[idx] = orig + FD_STEP
                fp = f(x).item()
                x.data[idx] = orig - FD_STEP
                fm = f(x).item()
                x.data[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * FD_STEP)

    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(np.max(err))
