"""Tensor engine tests: forward semantics, tape behavior, gradient checks.

Expected values marked by hand arithmetic were recomputed with the naive
oracles defined at the top of this file before being frozen.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from stdinet import ShapeError, UsageError
from stdinet.tensor import (
    CONV_TILE_ROWS,
    STANDARD,
    VERIFICATION,
    BnState,
    Tape,
    Tensor,
    add,
    affine,
    batchnorm,
    conv2d,
    finite_diff_check,
    hadamard,
    hconcat,
    leaky_relu,
    mean_all,
    relu,
    reshape,
    sigmoid,
    sub,
    sum_all,
    take,
    tanh,
)


def naive_conv2d(x, k, b):
    """Quintuple-loop 3x3/stride-1/pad-1 convolution, the reference oracle."""
    cin, h, w = x.shape
    cout = k.shape[0]
    out = np.zeros((cout, h, w), dtype=x.dtype)
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = b[o]
                for c in range(cin):
                    for dy in range(3):
                        for dx in range(3):
                            yy, xx2 = y + dy - 1, xx + dx - 1
                            if 0 <= yy < h and 0 <= xx2 < w:
                                acc += x[c, yy, xx2] * k[o, c, dy, dx]
                out[o, y, xx] = acc
    return out


def tensordot_conv2d_backward(x, k, g):
    """The conv2d backward rule as it was written over ``np.tensordot`` on
    the (B, C, H+2, W+2) padded input; the reference the channel-last
    tap-GEMM backward is compared against.  Returns (dx, dk, db)."""
    bsz, cin, h, w = x.shape
    xp = np.zeros((bsz, cin, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:1 + h, 1:1 + w] = x
    dk = np.zeros_like(k)
    dxp = np.zeros_like(xp)
    for dy in range(3):
        for dx in range(3):
            patch = xp[:, :, dy:dy + h, dx:dx + w]
            dk[:, :, dy, dx] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
            dxp[:, :, dy:dy + h, dx:dx + w] += np.tensordot(
                g, k[:, :, dy, dx], axes=([1], [0])
            ).transpose(0, 3, 1, 2)
    return dxp[:, :, 1:1 + h, 1:1 + w], dk, g.sum(axis=(0, 2, 3))


def two_branch_sigmoid(d):
    """The sigmoid as it was written, split by sign with masked gathers."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def broadcast_batchnorm(x, gamma, beta, running, mode, g):
    """batchnorm as it was written, every per-channel vector broadcast as
    (1, C, 1, 1); ``running`` is (mean, var), updated in place in train
    mode.  Returns the output and the gradients (dx, dgamma, dbeta) for
    the output gradient ``g``."""
    eps = x.dtype.type(1e-5)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    if mode == "train":
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        running[0][:] = 0.9 * running[0] + 0.1 * mean
        running[1][:] = 0.9 * running[1] + 0.1 * (var * (n / (n - 1)))
    else:
        mean, var = running[0].astype(x.dtype), running[1].astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dgamma, dbeta = (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))
    if mode == "eval":
        return out, (g * (gamma * inv_std)[None, :, None, None], dgamma, dbeta)
    dxhat = g * gamma[None, :, None, None]
    s1, s2 = dxhat.sum(axis=(0, 2, 3)), (dxhat * xhat).sum(axis=(0, 2, 3))
    dx = (inv_std[None, :, None, None] / n) * (
        n * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None])
    return out, (dx, dgamma, dbeta)


def same_bits(a, b):
    """Equal dtype, shape, memory layout and bytes, NaN payloads included."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestElementwise:
    def test_relu_sign_cases(self):
        out = relu(t64([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_tanh_at_zero(self):
        assert sigmoid(t64([0.0])).data[0] == 0.5
        assert tanh(t64([0.0])).data[0] == 0.0

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(t64([-1e4, 1e4])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bit_identical_to_two_branch_formula(self, dtype):
        rng = np.random.default_rng(5)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e2, -1e2, 1e-40, -1e-40,
                 88.7, -88.7, 710.0, -710.0, 746.0, -746.0]
        d = np.concatenate([rng.normal(scale=10.0, size=100_000), edges]).astype(dtype)
        with np.errstate(over="ignore"):
            want = two_branch_sigmoid(d)
        got = sigmoid(Tensor(d)).data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bit_identical_to_masked_formula(self, dtype):
        rng = np.random.default_rng(6)
        tiny = np.finfo(dtype).smallest_subnormal
        edges = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -3 * tiny]
        x = np.concatenate([rng.normal(size=100_000 - len(edges)), edges]).astype(dtype)
        # A channel-last view, as a conv output is: the output keeps its layout.
        x = rng.permutation(x).reshape(10, 20, 25, 20).transpose(0, 3, 1, 2)
        g = rng.normal(size=x.shape).astype(dtype)
        with Tape() as tape:
            out = relu(Tensor(x, requires_grad=True))
            assert same_bits(out.data, np.where(x > 0, x, dtype(0)))
            (dx,) = tape.nodes[-1].backward(g)
        assert same_bits(dx, g * (x > 0))

    def test_leaky_relu_definition(self):
        out = leaky_relu(t64([-2.0, 3.0]))
        np.testing.assert_allclose(out.data, [-0.02, 3.0], rtol=0, atol=1e-15)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(t64([1.0, 2.0]), t64([1.0]))
        with pytest.raises(ShapeError):
            hadamard(t64([[1.0]]), t64([1.0]))

    def test_mixed_precision_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(UsageError):
            add(a, b)


class TestMatmul:
    """The matrix product is ``affine`` without a bias: x @ w.T."""

    def test_identity(self):
        b = t64(np.arange(9.0).reshape(3, 3))
        out = affine(t64(np.eye(3)), b)
        np.testing.assert_array_equal(out.data, b.data.T)

    def test_hand_product(self):
        out = affine(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[1.0, 1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            affine(t64(np.ones((2, 3))), t64(np.ones((3, 2))))

    def test_grad_of_sum_is_colsum_broadcast(self):
        # d/dx sum(x @ w.T) has every row equal to the row sums of w.T,
        # and d/dw every row equal to the column sums of x.
        rng = np.random.default_rng(7)
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        w = t64(rng.normal(size=(5, 4)), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(affine(x, w)))
        np.testing.assert_allclose(x.grad, np.tile(w.data.sum(axis=0), (3, 1)), atol=1e-12)
        np.testing.assert_allclose(w.grad, np.tile(x.data.sum(axis=0), (5, 1)), atol=1e-12)

    @pytest.mark.parametrize("dtype", [STANDARD, VERIFICATION])
    def test_bias_free_is_the_plain_product(self, dtype):
        """The output is x @ w.T bit for bit, and the node records only (x, w)."""
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 37)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(53, 37)).astype(dtype), requires_grad=True)
        with Tape():
            out = affine(x, w)
            assert out.data.tobytes() == (x.data @ w.data.T).tobytes()
            assert out._node.inputs == (x, w) and len(out._node.backward(np.ones_like(out.data))) == 2


class TestConv2d:
    def test_all_ones_fixture(self):
        # One channel of ones, one all-ones kernel: each output counts the
        # in-bounds neighbors, [[4,6,4],[6,9,6],[4,6,4]].
        x = t64(np.ones((1, 3, 3)))
        k = t64(np.ones((1, 1, 3, 3)))
        b = t64([0.0])
        out = conv2d(x, k, b)
        expected = [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]
        assert out.data[0].tolist() == expected
        assert naive_conv2d(x.data, k.data, b.data)[0].tolist() == expected

    def test_zero_kernel_gives_constant_bias(self):
        rng = np.random.default_rng(0)
        x = t64(rng.normal(size=(2, 4, 5)))
        k = t64(np.zeros((3, 2, 3, 3)))
        b = t64([1.5, -2.0, 0.25])
        out = conv2d(x, k, b)
        for o, beta in enumerate([1.5, -2.0, 0.25]):
            assert np.all(out.data[o] == beta)

    def test_matches_naive_oracle_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = t64(rng.normal(size=(2, 5, 5)))
            k = t64(rng.normal(size=(4, 2, 3, 3)))
            b = t64(rng.normal(size=4))
            out = conv2d(x, k, b)
            oracle = naive_conv2d(x.data, k.data, b.data)
            np.testing.assert_array_equal(out.data, oracle)

    def test_naive_oracle_up_to_4x8x8(self):
        rng = np.random.default_rng(12)
        x = t64(rng.normal(size=(4, 8, 8)))
        k = t64(rng.normal(size=(4, 4, 3, 3)))
        b = t64(rng.normal(size=4))
        np.testing.assert_array_equal(conv2d(x, k, b).data, naive_conv2d(x.data, k.data, b.data))

    def test_batched_agrees_with_per_sample(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(3, 2, 4, 4))
        k = t64(rng.normal(size=(5, 2, 3, 3)))
        b = t64(rng.normal(size=5))
        batched = conv2d(t64(xs), k, b).data
        for i in range(3):
            np.testing.assert_array_equal(batched[i], conv2d(t64(xs[i]), k, b).data)

    def test_float32_fast_path_close_to_float64(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out32 = conv2d(
            Tensor(x.astype(np.float32)), Tensor(k.astype(np.float32)), Tensor(b.astype(np.float32))
        )
        out64 = conv2d(t64(x), t64(k), t64(b))
        assert out32.data.dtype == np.float32
        np.testing.assert_allclose(out32.data, out64.data, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(t64(np.ones((3, 4, 4))), t64(np.ones((2, 2, 3, 3))), t64(np.zeros(2)))

    # Shapes (B, C_in, C_out, H, W) for the column-tile kernel, including one-row, one-column and one-channel maps.
    TAP_SHAPES = [(1, 1, 1, 1, 1), (3, 1, 2, 1, 5), (2, 3, 4, 6, 1), (4, 2, 3, 3, 5),
                  (2, 5, 3, 7, 4), (3, 4, 1, 2, 2)]

    @pytest.mark.parametrize("bsz,cin,cout,h,w", TAP_SHAPES)
    def test_batched_float32_matches_float64_naive_loop(self, bsz, cin, cout, h, w):
        rng = np.random.default_rng(bsz * 1000 + cin * 100 + h * 10 + w)
        x = rng.normal(size=(bsz, cin, h, w))
        k = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        out = conv2d(Tensor(x.astype(np.float32)), Tensor(k.astype(np.float32)),
                     Tensor(b.astype(np.float32)))
        assert out.data.dtype == np.float32 and out.data.shape == (bsz, cout, h, w)
        for i in range(bsz):
            np.testing.assert_allclose(out.data[i], naive_conv2d(x[i], k, b), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("bsz,cin,cout,h,w", TAP_SHAPES)
    def test_batched_float64_bit_exact_against_naive_loop(self, bsz, cin, cout, h, w):
        rng = np.random.default_rng(7 + bsz + cin + h * w)
        x = rng.normal(size=(bsz, cin, h, w))
        k = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        out = conv2d(t64(x), t64(k), t64(b)).data
        for i in range(bsz):
            np.testing.assert_array_equal(out[i], naive_conv2d(x[i], k, b))

    @pytest.mark.parametrize("bsz,cin,cout,h,w", TAP_SHAPES)
    def test_float64_backward_matches_tensordot_reference(self, bsz, cin, cout, h, w):
        rng = np.random.default_rng(31 + bsz * cin * cout + h + w)
        xd = rng.normal(size=(bsz, cin, h, w))
        kd = rng.normal(size=(cout, cin, 3, 3))
        gd = rng.normal(size=(bsz, cout, h, w))
        bd = rng.normal(size=cout)
        for single in (False, True):
            x = t64(xd[0] if single else xd, requires_grad=True)
            k = t64(kd, requires_grad=True)
            b = t64(bd, requires_grad=True)
            w = t64(gd[0] if single else gd)
            with Tape() as tape:
                tape.backward(sum_all(hadamard(conv2d(x, k, b), w)))
            dx, dk, db = tensordot_conv2d_backward(xd[:1] if single else xd, kd,
                                                   gd[:1] if single else gd)
            for got, want in ((x.grad, dx[0] if single else dx), (k.grad, dk), (b.grad, db)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # (H, W, B): one-column, two-column, one-row, non-square and paper-sized
    # maps, each at a batch of exactly one tile and at a batch of several
    # tiles whose last one is partial.
    TILE_CASES = [(8, 1, 256), (8, 1, 600), (3, 2, 256), (3, 2, 520), (1, 5, 170),
                  (1, 5, 400), (5, 7, 52), (5, 7, 110), (8, 16, 16), (8, 16, 40)]

    @pytest.mark.parametrize("h,w,bsz", TILE_CASES)
    def test_float32_tiles_match_naive_loop(self, h, w, bsz):
        images = CONV_TILE_ROWS // ((h + 2) * w)
        assert bsz == images or (bsz > 2 * images and bsz % images)
        rng = np.random.default_rng(h * 100 + w * 10 + bsz)
        x = rng.normal(size=(bsz, 2, h, w))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = conv2d(Tensor(x.astype(np.float32)), Tensor(k.astype(np.float32)),
                     Tensor(b.astype(np.float32))).data
        assert out.dtype == np.float32 and out.shape == (bsz, 3, h, w)
        for i in range(bsz):
            np.testing.assert_allclose(out[i], naive_conv2d(x[i], k, b), rtol=0, atol=1e-5)

    def test_float64_backward_across_tiles_matches_tensordot_reference(self):
        bsz, cin, cout, h, w = 40, 3, 4, 8, 16
        assert bsz > 2 * (CONV_TILE_ROWS // ((h + 2) * w))
        rng = np.random.default_rng(37)
        xd = rng.normal(size=(bsz, cin, h, w))
        kd = rng.normal(size=(cout, cin, 3, 3))
        gd = rng.normal(size=(bsz, cout, h, w))
        x = t64(xd, requires_grad=True)
        k = t64(kd, requires_grad=True)
        b = t64(rng.normal(size=cout), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(hadamard(conv2d(x, k, b), t64(gd))))
        dx, dk, db = tensordot_conv2d_backward(xd, kd, gd)
        for got, want in ((x.grad, dx), (k.grad, dk), (b.grad, db)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)

    def test_recorded_node_keeps_only_its_output(self):
        """The backward rule rebuilds its columns from the input, so a
        recorded conv at paper dims holds no buffer beyond its output."""
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(64, 32, 8, 16)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            tracemalloc.start()
            try:
                out = conv2d(x, k, b)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert tape.nodes[-1].output is out
        assert held <= out.data.nbytes + 65536, f"{held} bytes held for a {out.data.nbytes}-byte output"


class TestBatchnorm:
    def test_symmetric_pair_normalizes_to_unit(self):
        x = t64(np.array([-1.0, 1.0]).reshape(2, 1, 1, 1))
        gamma, beta = t64([1.0]), t64([0.0])
        out = batchnorm(x, gamma, beta, BnState(1, dtype=np.float64), "train")
        assert abs(out.data.mean()) < 1e-12
        np.testing.assert_allclose(np.abs(out.data.ravel()), 1.0 / np.sqrt(1 + 1e-5), atol=1e-12)

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(4, 2, 3, 3)))
        out = batchnorm(x, t64([0.0, 0.0]), t64([0.7, -0.3]), BnState(2, dtype=np.float64), "train")
        np.testing.assert_allclose(out.data[:, 0], 0.7)
        np.testing.assert_allclose(out.data[:, 1], -0.3)

    def test_train_needs_batch_of_two(self):
        x = t64(np.ones((1, 2, 3, 3)))
        with pytest.raises(UsageError, match="at least 2"):
            batchnorm(x, t64([1.0, 1.0]), t64([0.0, 0.0]), BnState(2, dtype=np.float64), "train")

    def test_running_stats_updated_and_used_in_eval(self):
        rng = np.random.default_rng(4)
        state = BnState(2, dtype=np.float64)
        x = rng.normal(loc=3.0, size=(8, 2, 3, 3))
        batchnorm(t64(x), t64([1.0, 1.0]), t64([0.0, 0.0]), state, "train")
        assert np.all(state.running_mean > 0)
        out = batchnorm(t64(x), t64([1.0, 1.0]), t64([0.0, 0.0]), state, "eval")
        manual = (x - state.running_mean[None, :, None, None]) / np.sqrt(
            state.running_var[None, :, None, None] + 1e-5
        )
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_train_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.normal(size=2), requires_grad=True)
        beta = t64(rng.normal(size=2), requires_grad=True)
        state = BnState(2, dtype=np.float64)
        w = rng.normal(size=(4, 2, 3, 3))  # fixed weights make the loss non-symmetric

        def f(v):
            out = batchnorm(x, gamma, beta, state, "train")
            return sum_all(hadamard(out, Tensor(w, dtype=np.float64)))

        assert finite_diff_check(f, x) < 1e-5
        assert finite_diff_check(f, gamma) < 1e-5


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("channel_last", [True, False])
    def test_bit_identical_to_broadcast_formula(self, dtype, mode, channel_last):
        """The output, running statistics and all three gradients, on a
        channel-last view (with a channel-last gradient, whose layout dx
        keeps) and on a C-contiguous array."""
        rng = np.random.default_rng(8)

        def draw(shape):
            if not channel_last:
                return rng.normal(size=shape).astype(dtype)
            b, c, h, w = shape
            return rng.normal(size=(b, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)

        x, g = draw((6, 5, 4, 7)) * 3 + 1, draw((6, 5, 4, 7))
        gamma, beta = rng.normal(size=5).astype(dtype), rng.normal(size=5).astype(dtype)
        state = BnState(5, dtype=dtype)
        state.running_mean[:] = rng.normal(size=5)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=5)
        running = (state.running_mean.copy(), state.running_var.copy())
        want, want_grads = broadcast_batchnorm(x, gamma, beta, running, mode, g)

        params = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with Tape() as tape:
            out = batchnorm(*params, state, mode)
            assert same_bits(out.data, want)
            assert same_bits(state.running_mean, running[0])
            assert same_bits(state.running_var, running[1])
            for got, ref in zip(tape.nodes[-1].backward(g), want_grads):
                assert same_bits(got, ref)


class TestReshape:
    def test_row_major_order_preserved(self):
        x = t64(np.arange(32 * 8 * 16, dtype=np.float64).reshape(32, 8, 16))
        flat = reshape(x, (4096,))
        assert flat.data.shape == (4096,)
        np.testing.assert_array_equal(flat.data, np.arange(4096.0))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(3, 4)))
        back = reshape(reshape(x, (12,)), (3, 4))
        np.testing.assert_array_equal(back.data, x.data)

    def test_gradient_passes_through(self):
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(reshape(x, (3, 2))))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(t64(np.ones(6)), (4, 2))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        x = t64([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(hadamard(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_diamond_accumulates(self):
        x = t64([3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            with pytest.raises(UsageError, match="scalar"):
                tape.backward(add(x, x))

    def test_second_backward_without_reset_rejected(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
            tape.backward(loss)
            with pytest.raises(UsageError, match="consumed"):
                tape.backward(loss)
            tape.reset()
            loss2 = sum_all(hadamard(x, x))
            tape.backward(loss2)  # usable again after reset

    def test_paused_recording(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            with tape.paused():
                sum_all(x)
            assert tape.nodes == []

    def test_no_open_tape_records_nothing(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = sum_all(hadamard(x, x))
        assert loss.requires_grad and loss._node is None
        with Tape() as tape:
            with pytest.raises(UsageError, match="not recorded on this tape"):
                tape.backward(loss)

    @pytest.mark.parametrize("raises", [False, True], ids=["exits", "raises"])
    def test_nested_tape_restores_the_outer_one(self, raises):
        """Ops record on the innermost open tape; when its block ends, by
        falling through or by an exception, the outer tape records again."""
        x = t64([1.0], requires_grad=True)
        with Tape() as outer:
            relu(x)
            try:
                with Tape() as inner:
                    tanh(x)
                    assert [n.op for n in inner.nodes] == ["tanh"]
                    if raises:
                        raise KeyError("inner block")
            except KeyError:
                assert raises
            assert inner.nodes == []
            sigmoid(x)
            assert [n.op for n in outer.nodes] == ["relu", "sigmoid"]
        assert outer.nodes == [] and relu(x)._node is None

    def test_a_tape_records_only_in_its_own_thread(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            worker = threading.Thread(target=lambda: sum_all(x))
            worker.start()
            worker.join()
            assert tape.nodes == []

    def test_backward_refuses_a_loss_of_another_tape(self):
        """Each tape sweeps only its own graph; a refusal leaves both intact."""
        x = t64([1.0], requires_grad=True)
        with Tape() as outer:
            on_outer = sum_all(x)
            with Tape() as inner:
                on_inner = sum_all(x)
                for tape, loss in ((outer, on_inner), (inner, on_outer)):
                    with pytest.raises(UsageError, match="not recorded on this tape"):
                        tape.backward(loss)
                inner.backward(on_inner)
            outer.backward(on_outer)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_an_open_tape_cannot_be_opened_again(self):
        with Tape() as tape:
            with pytest.raises(UsageError, match="already open"):
                with tape:
                    pass
            sum_all(t64([1.0], requires_grad=True))
            assert len(tape.nodes) == 1

    def test_tape_records_in_topological_order(self):
        rng = np.random.default_rng(30)
        x = t64(rng.normal(size=(3, 3)), requires_grad=True)
        with Tape() as tape:
            y = affine(relu(x), tanh(x))
            sum_all(add(y, y))
            produced = set()
            leaves = {id(x)}
            for node in tape.nodes:
                for inp in node.inputs:
                    assert id(inp) in produced or id(inp) in leaves or not inp.requires_grad
                produced.add(id(node.output))


class TestShapeOps:
    def test_take_round_trip(self):
        x = t64(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            rows = [take(x, i) for i in range(3)]
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(row.data, x.data[i])
            # Each row gets a gradient of its own, so one routed to the wrong row fails.
            tape.backward(add(add(sum_all(rows[0]), mean_all(rows[1])),
                              sum_all(hadamard(rows[2], rows[2]))))
        np.testing.assert_array_equal(x.grad, [[1.0] * 4, [0.25] * 4, [16.0, 18.0, 20.0, 22.0]])

    def test_take_rows_repeated_indices_accumulate(self):
        table = t64(np.arange(8.0).reshape(4, 2), requires_grad=True)
        with Tape() as tape:
            out = take(table, [1, 1, 3])
            tape.backward(sum_all(out))
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("index", [[[0]], 4, -1, [0, 4]])
    def test_take_rejects_a_2d_or_out_of_range_index(self, index):
        with pytest.raises(ShapeError, match="take: index"):
            take(t64(np.zeros((4, 2))), index)

    def test_concat_splits_gradient(self):
        a = t64([[1.0, 2.0], [-1.0, 0.5]], requires_grad=True)
        b = t64([[3.0], [-4.0]], requires_grad=True)
        with Tape() as tape:
            out = hconcat([a, b])
            assert out.data.tolist() == [[1.0, 2.0, 3.0], [-1.0, 0.5, -4.0]]
            tape.backward(sum_all(hadamard(out, out)))
        np.testing.assert_array_equal(a.grad, [[2.0, 4.0], [-2.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[6.0], [-8.0]])

    def test_concat_flattens_parts_of_higher_rank(self):
        """A (B, C, H, W) part, channel-last in memory as conv outputs are,
        fills its columns in C order, and its gradient comes back in its shape."""
        a = t64([[-1.0], [-2.0]], requires_grad=True)
        maps = np.arange(16.0).reshape(2, 2, 2, 2)
        b = t64(np.ascontiguousarray(maps.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
                requires_grad=True)
        assert not b.data.flags.c_contiguous
        with Tape() as tape:
            out = hconcat([a, b])
            np.testing.assert_array_equal(out.data, np.concatenate([a.data, maps.reshape(2, 8)], 1))
            tape.backward(sum_all(hadamard(out, out)))
        np.testing.assert_array_equal(a.grad, [[-2.0], [-4.0]])
        np.testing.assert_array_equal(b.grad, 2 * maps)

    def test_concat_rejects_a_vector_part(self):
        with pytest.raises(ShapeError, match="rank >= 2"):
            hconcat([t64(np.zeros((2, 3))), t64(np.zeros(2))])

    def test_transpose_affine_smul(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        b = rng.normal(size=3)
        out = affine(t64(x), t64(w), t64(b))
        np.testing.assert_allclose(out.data, w @ x + b, atol=1e-14)
        out2 = affine(t64(np.stack([x, x])), t64(w), t64(b))
        np.testing.assert_allclose(out2.data[0], w @ x + b, atol=1e-14)

    @pytest.mark.parametrize("dtype", [STANDARD, VERIFICATION])
    def test_vector_affine_is_a_one_row_batch(self, dtype):
        """A 1-d input's output and gradients equal those of the same row as a batch, bit for bit."""
        rng = np.random.default_rng(10)
        w, x = rng.normal(size=(37, 53)).astype(dtype), rng.normal(size=53).astype(dtype)
        b, g = rng.normal(size=37).astype(dtype), rng.normal(size=37).astype(dtype)
        runs = []
        for x_in, g_out in ((x, g), (x[None], g[None])):
            leaves = [Tensor(a, requires_grad=True) for a in (x_in, w, b)]
            with Tape() as tape:
                out = affine(*leaves)
                tape.backward(sum_all(hadamard(out, Tensor(g_out))))
            runs.append([out.data.reshape(-1)] + [t.grad.reshape(-1) for t in leaves])
        for vector, row in zip(*runs):
            assert vector.dtype == dtype and vector.tobytes() == row.tobytes()


class TestFiniteDiff:
    def test_linear_function_is_exact(self):
        x = t64(np.arange(5.0), requires_grad=True)
        assert finite_diff_check(sum_all, x) < 1e-10

    def test_conv_mse_within_tolerance(self):
        rng = np.random.default_rng(20)
        x = t64(rng.normal(size=(2, 4, 4)), requires_grad=True)
        k = t64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = t64(rng.normal(size=3), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 4, 4)), dtype=np.float64)

        def f(v):
            d = sub(conv2d(x, k, b), target)
            return mean_all(hadamard(d, d))

        assert finite_diff_check(f, x) < 1e-5
        assert finite_diff_check(f, k) < 1e-5
        assert finite_diff_check(f, b) < 1e-5

    def test_requires_float64(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(UsageError, match="verification"):
            finite_diff_check(sum_all, x)

    @pytest.mark.parametrize("seed", range(20))
    def test_single_ops_over_seeds(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        y = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(2, 4)))

        cases = [
            lambda v: sum_all(hadamard(relu(v), y)),
            lambda v: sum_all(hadamard(leaky_relu(v), y)),
            lambda v: sum_all(hadamard(sigmoid(v), y)),
            lambda v: sum_all(hadamard(tanh(v), y)),
            lambda v: sum_all(affine(v, w)),
            lambda v: mean_all(hadamard(sub(v, y), sub(v, y))),
        ]
        for f in cases:
            assert finite_diff_check(f, x) < 1e-5


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        k = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        r1 = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        r2 = conv2d(Tensor(x.copy()), Tensor(k.copy()), Tensor(b.copy())).data
        np.testing.assert_array_equal(r1, r2)

    def test_no_nonfinite_from_finite_inputs(self):
        rng = np.random.default_rng(22)
        x = t64(rng.normal(size=(2, 3, 3)) * 100)
        k = t64(rng.normal(size=(2, 2, 3, 3)) * 100)
        b = t64(rng.normal(size=2))
        assert np.all(np.isfinite(conv2d(x, k, b).data))
        assert np.all(np.isfinite(sigmoid(t64([-1e6, 1e6])).data))
        assert np.all(np.isfinite(tanh(t64([-1e6, 1e6])).data))
