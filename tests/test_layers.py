"""Layer tests: residual unit, conv block, LSTM, linear, initialization."""

import numpy as np
import pytest

from stdinet import ShapeError, UsageError
from stdinet.tensor import (
    VERIFICATION,
    Tape,
    Tensor,
    add,
    batchnorm,
    conv2d,
    finite_diff_check,
    hadamard,
    hconcat,
    mean_all,
    relu,
    sub,
    sum_all,
)
from stdinet.layers import (
    BatchNorm,
    ConvBlock,
    Conv3x3,
    LinearLayer,
    LstmParams,
    ResUnit,
    lstm_sequence_batch,
    lstm_step,
)

F64 = np.float64


def t64(data, requires_grad=False, tape=None):
    return Tensor(np.asarray(data, dtype=F64), requires_grad=requires_grad, tape=tape)


def side_by_side(steps):
    """(L, B, in) steps as the (B, L*in) matrix the fused LSTM takes."""
    return steps.swapaxes(0, 1).reshape(steps.shape[1], -1)


def reference_lstm_step(weights, x, h, c):
    """Independent plain-numpy LSTM step used as an oracle."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w_ix, b_ix, w_hx, b_hx = weights
    i = sig(w_ix["i"] @ x + b_ix["i"] + w_hx["i"] @ h + b_hx["i"])
    f = sig(w_ix["f"] @ x + b_ix["f"] + w_hx["f"] @ h + b_hx["f"])
    g = np.tanh(w_ix["g"] @ x + b_ix["g"] + w_hx["g"] @ h + b_hx["g"])
    o = sig(w_ix["o"] @ x + b_ix["o"] + w_hx["o"] @ h + b_hx["o"])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def zero_out(layer_or_unit):
    for _, p in layer_or_unit.params():
        p.data[...] = 0.0


class TestResUnit:
    def test_zero_params_zero_gamma_gives_zeros(self):
        rng = np.random.default_rng(0)
        unit = ResUnit(3, rng, dtype=F64)
        zero_out(unit)
        x = t64(rng.normal(size=(1, 3, 4, 4)))
        out = unit.forward(x, "eval")
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4, 4)))

    def test_degenerate_second_branch_is_relu_of_first(self):
        rng = np.random.default_rng(1)
        unit = ResUnit(3, rng, dtype=F64)
        unit.conv2.kernels.data[...] = 0.0
        unit.conv2.bias.data[...] = 0.0
        unit.bn2.gamma.data[...] = 0.0
        unit.bn2.beta.data[...] = 0.0
        x = t64(rng.normal(size=(1, 3, 5, 5)))
        out = unit.forward(x, "eval")
        x1 = batchnorm(conv2d(x, unit.conv1.kernels, unit.conv1.bias),
                       unit.bn1.gamma, unit.bn1.beta, unit.bn1.state, "eval")
        np.testing.assert_array_equal(out.data, np.maximum(x1.data, 0.0))

    def test_matches_straight_line_composition(self):
        rng = np.random.default_rng(2)
        unit = ResUnit(4, rng, dtype=F64)
        for _, p in unit.params():
            p.data[...] = rng.normal(size=p.data.shape)
        x = t64(rng.normal(size=(2, 4, 3, 3)))
        out = unit.forward(x, "train")

        unit2 = ResUnit(4, np.random.default_rng(2), dtype=F64)
        for (_, a), (_, b) in zip(unit2.params(), unit.params()):
            a.data[...] = b.data
        x1 = batchnorm(conv2d(x, unit2.conv1.kernels, unit2.conv1.bias),
                       unit2.bn1.gamma, unit2.bn1.beta, unit2.bn1.state, "train")
        x2 = batchnorm(conv2d(x1, unit2.conv2.kernels, unit2.conv2.bias),
                       unit2.bn2.gamma, unit2.bn2.beta, unit2.bn2.state, "train")
        oracle = relu(add(x1, x2))
        np.testing.assert_array_equal(out.data, oracle.data)

    def test_channel_mismatch(self):
        unit = ResUnit(3, np.random.default_rng(3), dtype=F64)
        with pytest.raises(ShapeError):
            unit.forward(t64(np.ones((1, 2, 4, 4))), "eval")

    def test_preserves_spatial_dims(self):
        rng = np.random.default_rng(4)
        unit = ResUnit(2, rng, dtype=F64)
        for i, j in [(1, 1), (2, 5), (7, 3)]:
            assert unit.forward(t64(rng.normal(size=(1, 2, i, j))), "eval").data.shape == (1, 2, i, j)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        unit = ResUnit(2, rng, dtype=F64)
        unit.attach_tape(tape)
        x = t64(rng.normal(size=(1, 2, 3, 3)), requires_grad=True, tape=tape)
        w = t64(np.random.default_rng(55).normal(size=(1, 2, 3, 3)))

        def f(v):
            return sum_all(hadamard(unit.forward(v, "eval"), w))

        assert finite_diff_check(f, x) < 1e-4


class TestConvBlock:
    def test_zero_network_zero_output(self):
        rng = np.random.default_rng(6)
        block = ConvBlock(4, rng, dtype=F64)
        zero_out(block)
        out = block.forward(t64(np.zeros((1, 2, 3, 3))), "eval")
        np.testing.assert_array_equal(out.data, np.zeros((1, 4, 3, 3)))

    def test_single_cell_grid_uses_center_taps_only(self):
        # On a 1x1 grid the 3x3 kernel sees padding everywhere except the
        # center, so the entry conv reduces to out[o] = b[o] + sum_c x[c]*K[o,c,1,1].
        rng = np.random.default_rng(7)
        conv = Conv3x3(2, 4, rng, dtype=F64)
        conv.kernels.data[...] = rng.normal(size=conv.kernels.data.shape)
        conv.bias.data[...] = rng.normal(size=4)
        x = t64(rng.normal(size=(2, 1, 1)))
        out = conv.forward(x)
        oracle = conv.bias.data + conv.kernels.data[:, :, 1, 1] @ x.data[:, 0, 0]
        np.testing.assert_allclose(out.data[:, 0, 0], oracle, atol=1e-14)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(8)
        block = ConvBlock(5, rng, dtype=F64)
        for i, j in [(1, 1), (2, 3), (4, 4)]:
            out = block.forward(t64(rng.normal(size=(1, 2, i, j))), "eval")
            assert out.data.shape == (1, 5, i, j)

    def test_single_cell_block_equals_dense_composition(self):
        # On a 1x1 grid the whole block degenerates to a per-station MLP:
        # each conv contributes only its center tap.
        rng = np.random.default_rng(80)
        block = ConvBlock(3, rng, dtype=F64)
        for _, p in block.params():
            p.data[...] = rng.normal(size=p.data.shape) * 0.5
        for _, s in block.states():
            s.running_mean[:] = rng.normal(size=s.running_mean.shape)
            s.running_var[:] = rng.uniform(0.5, 2.0, size=s.running_var.shape)
        x = rng.normal(size=2)
        out = block.forward(t64(x.reshape(1, 2, 1, 1)), "eval")

        def dense(conv):
            return conv.kernels.data[:, :, 1, 1], conv.bias.data

        def bn(vec, layer):
            s = layer.state
            xhat = (vec - s.running_mean) / np.sqrt(s.running_var + s.eps)
            return layer.gamma.data * xhat + layer.beta.data

        w, b = dense(block.entry)
        h = np.maximum(w @ x + b, 0.0)
        for unit in block.resunits:
            w1, b1 = dense(unit.conv1)
            w2, b2 = dense(unit.conv2)
            x1 = bn(w1 @ h + b1, unit.bn1)
            x2 = bn(w2 @ x1 + b2, unit.bn2)
            h = np.maximum(x1 + x2, 0.0)
        np.testing.assert_allclose(out.data[0, :, 0, 0], h, atol=1e-12)

    def test_wrong_channel_count(self):
        block = ConvBlock(4, np.random.default_rng(9), dtype=F64)
        with pytest.raises(ShapeError):
            block.forward(t64(np.ones((1, 3, 2, 2))), "eval")


class TestLayerTree:
    def test_one_walk_names_params_states_and_tape(self):
        """Paths join with dots, a batchnorm's statistics take its own path,
        and attach_tape reaches every parameter the walk lists."""
        block = ConvBlock(2, np.random.default_rng(0), dtype=F64)
        unit = [f"{layer}.{p}" for layer, ps in (("conv1", ("kernels", "bias")),
                                                 ("bn1", ("gamma", "beta")),
                                                 ("conv2", ("kernels", "bias")),
                                                 ("bn2", ("gamma", "beta"))) for p in ps]
        assert [n for n, _ in block.params()] == (
            ["entry.kernels", "entry.bias"] + [f"res{i}.{n}" for i in (0, 1) for n in unit])
        states = block.states()
        assert [n for n, _ in states] == ["res0.bn1", "res0.bn2", "res1.bn1", "res1.bn2"]
        assert states[3][1] is block.resunits[1].bn2.state
        tape = Tape()
        block.attach_tape(tape)
        assert all(p.tape is tape for _, p in block.params())


class TestLstm:
    def make_params(self, rng, input_dim=3, hidden=4, randomize=True):
        p = LstmParams(input_dim, hidden, rng, dtype=F64)
        if randomize:
            for _, t in p.params():
                t.data[...] = rng.normal(size=t.data.shape)
        return p

    def weights_of(self, p):
        return (
            {g: p.w_ix[g].data for g in "ifgo"},
            {g: p.b_ix[g].data for g in "ifgo"},
            {g: p.w_hx[g].data for g in "ifgo"},
            {g: p.b_hx[g].data for g in "ifgo"},
        )

    def test_zero_params_zero_state(self):
        p = self.make_params(np.random.default_rng(10), randomize=False)
        for _, t in p.params():
            t.data[...] = 0.0
        h, c = lstm_step(p, t64(np.ones(3)), t64(np.zeros(4)), t64(np.zeros(4)))
        np.testing.assert_array_equal(c.data, np.zeros(4))
        np.testing.assert_array_equal(h.data, np.zeros(4))

    def test_zero_params_nonzero_cell_closed_form(self):
        # With all parameters zero each gate is 0.5 and g is 0, so
        # c_t = 0.5 * c_prev and h_t = 0.5 * tanh(0.5 * c_prev).
        p = self.make_params(np.random.default_rng(11), randomize=False)
        for _, t in p.params():
            t.data[...] = 0.0
        v = np.array([0.4, -1.0, 2.0, 0.0])
        h, c = lstm_step(p, t64(np.ones(3)), t64(np.zeros(4)), t64(v))
        np.testing.assert_allclose(c.data, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(12)
        p = self.make_params(rng)
        x = rng.normal(size=3)
        h0 = rng.normal(size=4)
        c0 = rng.normal(size=4)
        h, c = lstm_step(p, t64(x), t64(h0), t64(c0))
        rh, rc = reference_lstm_step(self.weights_of(p), x, h0, c0)
        np.testing.assert_allclose(h.data, rh, atol=1e-12)
        np.testing.assert_allclose(c.data, rc, atol=1e-12)

    def test_hidden_state_bounded_by_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = self.make_params(rng)
            h, _ = lstm_step(p, t64(rng.normal(size=3) * 10),
                             t64(rng.normal(size=4) * 10), t64(rng.normal(size=4) * 10))
            assert np.all(np.abs(h.data) <= 1.0)

    def test_sequence_length_one_equals_single_step(self):
        rng = np.random.default_rng(14)
        p = self.make_params(rng)
        x = rng.normal(size=(1, 3))
        h_seq = lstm_sequence_batch(p, t64(x))
        h_step, _ = lstm_step(p, t64(x[0]), t64(np.zeros(4)), t64(np.zeros(4)))
        np.testing.assert_array_equal(h_seq.data[0], h_step.data)

    def test_zero_params_sequence_stays_zero(self):
        p = self.make_params(np.random.default_rng(15), randomize=False)
        for _, t in p.params():
            t.data[...] = 0.0
        h = lstm_sequence_batch(p, t64(np.ones((1, 15))))
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_three_step_unrolled_oracle(self):
        rng = np.random.default_rng(16)
        p = self.make_params(rng)
        xs = rng.normal(size=(3, 3))
        h = lstm_sequence_batch(p, t64(xs.reshape(1, 9)))
        hh = np.zeros(4)
        cc = np.zeros(4)
        for l in range(3):
            hh, cc = reference_lstm_step(self.weights_of(p), xs[l], hh, cc)
        np.testing.assert_allclose(h.data[0], hh, atol=1e-12)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(17)
        p = self.make_params(rng)
        xs = rng.normal(size=(3, 2, 3))  # L=3, batch 2
        hb = lstm_sequence_batch(p, t64(side_by_side(xs)))
        for b in range(2):
            hs = lstm_sequence_batch(p, t64(side_by_side(xs[:, b:b + 1])))
            np.testing.assert_allclose(hb.data[b], hs.data[0], atol=1e-12)

    def test_empty_sequence_rejected(self):
        p = self.make_params(np.random.default_rng(18))
        with pytest.raises(ShapeError, match="L >= 1"):
            lstm_sequence_batch(p, t64(np.ones((2, 0))))

    def test_width_not_a_multiple_of_input_dim_rejected(self):
        p = self.make_params(np.random.default_rng(18))
        with pytest.raises(ShapeError, match=r"\(B, L\*3\)"):
            lstm_sequence_batch(p, t64(np.ones((2, 8))))

    def test_dim_mismatch(self):
        p = self.make_params(np.random.default_rng(19))
        with pytest.raises(ShapeError):
            lstm_step(p, t64(np.ones(5)), t64(np.zeros(4)), t64(np.zeros(4)))

    def test_gradcheck_through_sequence(self):
        rng = np.random.default_rng(20)
        tape = Tape()
        p = self.make_params(rng)
        for _, t in p.params():
            t.tape = tape
        x = t64(side_by_side(rng.normal(size=(3, 1, 3))), requires_grad=True, tape=tape)
        w = t64(rng.normal(size=(1, 4)))

        def f(_):
            return sum_all(hadamard(lstm_sequence_batch(p, x), w))

        assert finite_diff_check(f, x) < 1e-4
        tape.reset()
        assert finite_diff_check(f, p.w_ix["f"]) < 1e-4


class TestFusedSequence:
    """The fused sequence op against a fold of lstm_step, the cell reference."""

    @staticmethod
    def fold(p, xs):
        h = c = Tensor(np.zeros((xs[0].data.shape[0], p.hidden_dim), dtype=xs[0].data.dtype))
        for x_t in xs:
            h, c = lstm_step(p, x_t, h, c)
        return h

    def run(self, sequence_fn, p, x_data, w):
        tape = Tape()
        for _, t in p.params():
            t.tape = tape
            t.grad = None
        xs = [t64(x, requires_grad=True, tape=tape) for x in x_data]
        h = sequence_fn(p, xs)
        tape.backward(sum_all(hadamard(h, t64(w))))
        return h.data, [x.grad for x in xs], {n: t.grad.copy() for n, t in p.params()}

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("length", [1, 3])
    def test_output_and_every_gradient_match_the_fold(self, batch, length):
        rng = np.random.default_rng(30 + 10 * batch + length)
        p = LstmParams(5, 4, rng, dtype=F64)
        for _, t in p.params():
            t.data[...] = rng.normal(size=t.data.shape)
        x_data = rng.normal(size=(length, batch, 5))
        w = rng.normal(size=(batch, 4))
        h, dxs, dps = self.run(lambda p, xs: lstm_sequence_batch(p, hconcat(xs)), p, x_data, w)
        h_ref, dxs_ref, dps_ref = self.run(self.fold, p, x_data, w)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        for dx, dx_ref in zip(dxs, dxs_ref):
            np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
        assert list(dps) == list(dps_ref) and len(dps) == 16
        for name in dps:
            np.testing.assert_allclose(dps[name], dps_ref[name], rtol=0, atol=1e-12)

    def test_one_node_per_sequence(self):
        rng = np.random.default_rng(40)
        p = LstmParams(5, 4, rng, dtype=F64)
        tape = Tape()
        for _, t in p.params():
            t.tape = tape
        x = t64(rng.normal(size=(2, 15)), requires_grad=True, tape=tape)
        lstm_sequence_batch(p, x)
        assert [node.op for node in tape.nodes] == ["lstm"]
        gates = [views[g] for views in (p.w_ix, p.b_ix, p.w_hx, p.b_hx) for g in "ifgo"]
        assert list(map(id, tape.nodes[0].inputs)) == list(map(id, [x, *gates]))

    def test_rebound_gate_tensor_rejected(self):
        rng = np.random.default_rng(41)
        p = LstmParams(5, 4, rng, dtype=F64)
        p.w_hx["g"].data = p.w_hx["g"].data.copy()
        with pytest.raises(UsageError, match="row block"):
            lstm_sequence_batch(p, t64(rng.normal(size=(2, 5))))


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(21)
        lin = LinearLayer(3, 3, rng, dtype=F64)
        lin.weight.data[...] = np.eye(3)
        lin.bias.data[...] = 0.0
        x = rng.normal(size=3)
        np.testing.assert_array_equal(lin.forward(t64(x)).data, x)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(22)
        lin = LinearLayer(4, 2, rng, dtype=F64)
        lin.weight.data[...] = 0.0
        lin.bias.data[...] = [1.0, -2.0]
        np.testing.assert_array_equal(lin.forward(t64(rng.normal(size=4))).data, [1.0, -2.0])

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(23)
        lin = LinearLayer(4, 3, rng, dtype=F64)
        lin.weight.data[...] = rng.normal(size=(3, 4))
        lin.bias.data[...] = rng.normal(size=3)
        x = rng.normal(size=4)
        np.testing.assert_allclose(lin.forward(t64(x)).data,
                                   lin.weight.data @ x + lin.bias.data, atol=1e-14)


class TestInit:
    def test_deterministic_given_seed(self):
        a = ConvBlock(4, np.random.default_rng(42))
        b = ConvBlock(4, np.random.default_rng(42))
        for (_, pa), (_, pb) in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_he_std_within_five_percent(self):
        rng = np.random.default_rng(43)
        conv = Conv3x3(64, 200, rng, dtype=F64)  # 64*9*200 > 1e5 draws
        fan_in = 64 * 9
        assert conv.kernels.data.size >= 100_000
        std = conv.kernels.data.std()
        assert abs(std - np.sqrt(2.0 / fan_in)) / np.sqrt(2.0 / fan_in) < 0.05

    def test_uniform_bound_and_zero_biases(self):
        rng = np.random.default_rng(44)
        lin = LinearLayer(16, 8, rng)
        assert np.all(np.abs(lin.weight.data) <= 1.0 / 4.0)
        assert np.all(lin.bias.data == 0.0)
        p = LstmParams(9, 4, rng)
        assert np.all(np.abs(p.w_ix["i"].data) <= 1.0 / 3.0)
        for g in "ifgo":
            assert np.all(p.b_ix[g].data == 0.0)
            assert np.all(p.b_hx[g].data == 0.0)
        bn = BatchNorm(5)
        assert np.all(bn.gamma.data == 1.0) and np.all(bn.beta.data == 0.0)
