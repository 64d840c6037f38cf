"""Model assembly tests: spatial stacking, generated weights, variants."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rewrite_manifest

from stdinet import DataError, DomainError, ShapeError, UsageError
from stdinet.bench import MlpModel
from stdinet.layers import LSTM_GATES
from stdinet.tensor import Tape, Tensor, finite_diff_check, hadamard, mean_all, sub, sum_all
from stdinet.model import (
    MODEL_KINDS,
    DemandModel,
    IntervalNet,
    ModelDims,
    SpatialModule,
    TOY_DIMS,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

F64 = np.float64

# sha256 prefixes of every kind's named tensors (name, then raw bytes) from
# build_model(kind, TOY_DIMS, seed=5) in float32, taken before the LSTM gates
# were stacked; the stacked layout draws the same numbers in the same order.
# The MLP's were taken from MlpModel(TOY_DIMS, seed=5), which draws the same
# weights, while each model still listed its tensor names by hand.
INIT_CHECKSUMS = {
    "STDI": "1bec59b869ed17e1",
    "SpatialFC": "8accc426db9f51cd",
    "TemporalFC": "bacf848fdc3f89b7",
    "SpatialTemporalFC": "1a59f2f58f9ffe41",
    "SpatialDI": "796f0d1fa2f0067b",
    "TemporalDI": "c67299b9e396a58e",
    "STDIFusion": "39f3c8310eb033fe",
    "UnifiedSpatial": "94eed7d26f11f60b",
    "STDIEmbedding": "1bec59b869ed17e1",
    "MLP": "0a29f889763a8e21",
}

# sha256 prefixes of the whole save_checkpoint file of build_model(kind,
# TOY_DIMS, seed=5) in float32, taken before the writer walked
# named_arrays(): the manifest, the entry order and every stored byte.  The
# MLP's was taken as its INIT_CHECKSUMS entry was.
CKPT_CHECKSUMS = {
    "STDI": "b21a4efccfc0bfc4",
    "SpatialFC": "3837bba5081b53c0",
    "TemporalFC": "591d275c591894b0",
    "SpatialTemporalFC": "1c9fa4dc11da29c2",
    "SpatialDI": "fdba7a384929d4ba",
    "TemporalDI": "0a5655cc4bbb7d6d",
    "STDIFusion": "56ca2a3c8a12b6ce",
    "UnifiedSpatial": "d689ecb10857a20a",
    "STDIEmbedding": "fce922642c5d0d45",
    "MLP": "ed289538b1e3ce0e",
}

# sha256 prefixes of forward_batch's float32 output for build_model(kind,
# TOY_DIMS, seed=5) of all ten kinds on pinned_batch() (the MLP's taken from
# MlpModel(TOY_DIMS, seed=5), which draws the same weights):
# a train-mode call, then an eval-mode call, which reads the running
# statistics the train call left.  Taken while the model still branched on
# its head.
FORWARD_CHECKSUMS = {
    "STDI": ("d40d8be3bb854aa4", "9460abbe2d2f032d"),
    "SpatialFC": ("2ade760d08fa3bfc", "547be8e2b0099bc8"),
    "TemporalFC": ("b73e56cab6b6c7ee", "b73e56cab6b6c7ee"),
    "SpatialTemporalFC": ("87f1bc0e559a725f", "0ff9a963c9697556"),
    "SpatialDI": ("683b0d1aed3cb772", "1151f91342227f0f"),
    "TemporalDI": ("c62a85c7156b2e75", "c62a85c7156b2e75"),
    "STDIFusion": ("c60bb42e0edc652c", "f4fe666bb5a0a201"),
    "UnifiedSpatial": ("cd9c8994d7440917", "ba0db0c29bcdfbf0"),
    "STDIEmbedding": ("d40d8be3bb854aa4", "9460abbe2d2f032d"),
    "MLP": ("7c4f7bb10def03fd", "7c4f7bb10def03fd"),
}


def pinned_batch():
    """Four float32 windows of seeded counts and their hours, two the same."""
    d = TOY_DIMS
    rng = np.random.default_rng(31)
    seqs = rng.uniform(0.0, 6.0, size=(4, d.seq_len, 2, d.rows, d.cols)).astype(np.float32)
    return seqs, np.array([0, 7, 7, 23])


def tensors_digest(model):
    """sha256 prefix of every named tensor: the name, then its raw bytes."""
    h = hashlib.sha256()
    for name, p in model.named_tensors():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


def assert_lstm_views(model):
    """Every per-gate LSTM tensor is still a row block of its stacked array."""
    p = model.lstm
    d = p.hidden_dim
    for views, stacked in ((p.w_ix, p.w_in), (p.b_ix, p.b_in),
                           (p.w_hx, p.w_rec), (p.b_hx, p.b_rec)):
        for k, gate in enumerate(LSTM_GATES):
            assert np.shares_memory(views[gate].data, stacked.data)
            np.testing.assert_array_equal(views[gate].data, stacked.data[k * d:(k + 1) * d])


def triple_loop_weights(o_prime, w, o):
    """Independent oracle: sum_r O'[:, r] * w[r] * O[r, :]."""
    k, a = o_prime.shape
    out = np.zeros((k, o.shape[1]), dtype=o.dtype)
    for r in range(a):
        out += np.outer(o_prime[:, r], o[r, :]) * w[r]
    return out


def toy_model(kind="STDI", seed=0, dtype=F64):
    return build_model(kind, TOY_DIMS, seed=seed, dtype=dtype)


def randomized_model(kind, dtype, seed):
    """A toy model whose every parameter and batchnorm statistic is seeded noise.

    Zero biases and unit variances would match an array a load left unfilled
    only by luck; noise matches nothing but the bytes that were saved.
    """
    rng = np.random.default_rng(seed)
    model = build_model(kind, TOY_DIMS, seed=seed, dtype=dtype)
    for _, p in model.named_tensors():
        p.data[...] = rng.normal(size=p.data.shape)
    for _, s in model.named_states():
        s.running_mean[:] = rng.normal(size=s.running_mean.shape)
        s.running_var[:] = rng.uniform(0.5, 2.0, size=s.running_var.shape)
    return model


def stored_arrays(model):
    """Every array a checkpoint holds, by name, plus the stacked LSTM arrays."""
    arrays = {n: p.data for n, p in model.named_tensors()}
    for n, s in model.named_states():
        arrays[f"{n}.running_mean"] = s.running_mean
        arrays[f"{n}.running_var"] = s.running_var
    if getattr(model, "lstm", None) is not None:
        for attr in ("w_in", "b_in", "w_rec", "b_rec"):
            arrays[f"lstm.{attr}"] = getattr(model.lstm, attr).data
    return arrays


def toy_window(rng, dims=TOY_DIMS, batch=None):
    shape = (dims.seq_len, 2, dims.rows, dims.cols)
    if batch is not None:
        shape = (batch,) + shape
    return rng.integers(0, 5, size=shape).astype(F64)


class TestSpatialModule:
    def test_paper_scale_output_shape(self):
        # 32 channels on an 8x16 grid give 4096 features per index.
        dims = ModelDims(rows=8, cols=16, seq_len=3, channels=32, lstm_hidden=8,
                         rank=4, embed_dim=6)
        sm = SpatialModule(dims, np.random.default_rng(0), dtype=np.float32)
        seq = Tensor(np.random.default_rng(1).random((1, 3, 2, 8, 16), dtype=np.float32))
        out = sm.forward(seq, "eval")
        assert [f.data.shape for f in out] == [(1, 32, 8, 16)] * 3

    def test_zero_input_zero_features(self):
        sm = SpatialModule(TOY_DIMS, np.random.default_rng(2), dtype=F64)
        for block in sm.blocks:
            block.entry.bias.data[...] = 0.0
            for unit in block.resunits:
                unit.conv1.bias.data[...] = 0.0
                unit.conv2.bias.data[...] = 0.0
                unit.bn1.beta.data[...] = 0.0
                unit.bn2.beta.data[...] = 0.0
        seq = Tensor(np.zeros((1, 3, 2, 2, 2)), dtype=F64)
        for f in sm.forward(seq, "eval"):
            np.testing.assert_array_equal(f.data, np.zeros((1, TOY_DIMS.channels, 2, 2)))

    def test_blocks_are_independent(self):
        rng = np.random.default_rng(3)
        sm = SpatialModule(TOY_DIMS, rng, dtype=F64)
        seq = toy_window(rng, batch=1)
        base = [f.data for f in sm.forward(Tensor(seq, dtype=F64), "eval")]
        perturbed = seq.copy()
        perturbed[:, 0] += 1.0
        out = [f.data for f in sm.forward(Tensor(perturbed, dtype=F64), "eval")]
        assert not np.allclose(out[0], base[0])
        np.testing.assert_array_equal(out[1], base[1])
        np.testing.assert_array_equal(out[2], base[2])

    def test_block_gradient_independence(self):
        rng = np.random.default_rng(4)
        sm = SpatialModule(TOY_DIMS, rng, dtype=F64)
        seq = Tensor(toy_window(rng, batch=1), dtype=F64)
        with Tape() as tape:
            s_t = sm.forward(seq, "eval")
            tape.backward(sum_all(s_t[1]))
        grads_by_block = []
        for i, block in enumerate(sm.blocks):
            norms = [0.0 if p.grad is None else float(np.abs(p.grad).sum())
                     for _, p in block.params()]
            grads_by_block.append(sum(norms))
        assert grads_by_block[1] > 0
        assert grads_by_block[0] == 0.0
        assert grads_by_block[2] == 0.0

    def test_length_mismatch(self):
        sm = SpatialModule(TOY_DIMS, np.random.default_rng(5), dtype=F64)
        with pytest.raises(ShapeError):
            sm.forward(Tensor(np.zeros((1, 4, 2, 2, 2)), dtype=F64), "eval")
        with pytest.raises(ShapeError):
            sm.forward(Tensor(np.zeros((3, 2, 2, 2)), dtype=F64), "eval")


class TestIntervalNet:
    def test_identity_factorization(self):
        dims = ModelDims(rows=1, cols=1, seq_len=2, channels=2, lstm_hidden=2,
                         rank=2, embed_dim=3)
        net = IntervalNet(2, dims, np.random.default_rng(6),
                          np.random.default_rng(7).standard_normal((24, 3)), dtype=F64)
        net.o_mat.data[...] = np.eye(2)
        net.o_prime.data[...] = np.eye(2)
        net.lin_w.weight.data[...] = 0.0
        net.lin_w.bias.data[...] = 1.0  # w(V) = leaky_relu(1) = 1
        w_fc, _ = net.generate(5)
        np.testing.assert_allclose(w_fc.data, np.eye(2), atol=1e-15)

    def test_rank_bounded_by_factorization(self):
        dims = ModelDims(rows=2, cols=4, seq_len=2, channels=2, lstm_hidden=32,
                         rank=4, embed_dim=6)  # k = 16, d = 32, a = 4
        rng = np.random.default_rng(8)
        net = IntervalNet(32, dims, rng, rng.standard_normal((24, 6)), dtype=F64)
        for hour in range(0, 24, 5):
            w_fc, _ = net.generate(hour)
            assert w_fc.data.shape == (16, 32)
            assert np.linalg.matrix_rank(w_fc.data) <= 4

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        dims = ModelDims(rows=2, cols=2, seq_len=2, channels=2, lstm_hidden=8,
                         rank=3, embed_dim=5)
        for trial in range(20):
            net = IntervalNet(8, dims, np.random.default_rng(trial),
                              rng.standard_normal((24, 5)), dtype=F64)
            hour = int(rng.integers(0, 24))
            w_fc, _ = net.generate(hour)
            v = net.embedding.data[hour]
            w_vec = net.lin_w.weight.data @ v + net.lin_w.bias.data
            w_vec = np.where(w_vec >= 0, w_vec, 0.01 * w_vec)
            oracle = triple_loop_weights(net.o_prime.data, w_vec, net.o_mat.data)
            np.testing.assert_allclose(w_fc.data, oracle, atol=1e-12)

    def test_batched_head_matches_triple_loop_oracle(self):
        """Row b of the head that trains is W(h_b) f_b + b(V_{h_b}), W by the oracle."""
        rng = np.random.default_rng(22)
        dims = ModelDims(rows=2, cols=2, seq_len=2, channels=2, lstm_hidden=8,
                         rank=3, embed_dim=5)
        net = IntervalNet(8, dims, rng, rng.standard_normal((24, 5)), dtype=F64)
        hours = np.array([0, 5, 5, 23, 11, 17])
        feats = rng.standard_normal((len(hours), 8))
        out = net.apply_batch(Tensor(feats, dtype=F64), hours).data
        for b, hour in enumerate(hours):
            v = net.embedding.data[hour]
            w_vec = net.lin_w.weight.data @ v + net.lin_w.bias.data
            b_vec = net.lin_b.weight.data @ v + net.lin_b.bias.data
            w_vec, b_vec = (np.where(x >= 0, x, 0.01 * x) for x in (w_vec, b_vec))
            oracle = triple_loop_weights(net.o_prime.data, w_vec, net.o_mat.data)
            np.testing.assert_allclose(out[b], oracle @ feats[b] + b_vec, rtol=0, atol=1e-12)

    def test_pure_function_of_hour(self):
        net = toy_model().head
        a1, b1 = net.generate(7)
        a2, b2 = net.generate(7)
        np.testing.assert_array_equal(a1.data, a2.data)
        np.testing.assert_array_equal(b1.data, b2.data)

    def test_hour_out_of_range(self):
        net = toy_model().head
        with pytest.raises(DomainError):
            net.generate(24)
        with pytest.raises(DomainError):
            net.generate(-1)

    def test_gradients_reach_generator_params(self):
        rng = np.random.default_rng(10)
        model = toy_model(seed=3)
        seqs = Tensor(toy_window(rng, batch=4), dtype=F64)
        hours = np.array([1, 5, 5, 20])
        target = Tensor(rng.random((4, 2, 2, 2)), dtype=F64)
        with Tape() as tape:
            pred = model.forward_batch(seqs, hours, mode="eval")
            d = sub(pred, target)
            tape.backward(mean_all(hadamard(d, d)))
        net = model.head
        for t in (net.lin_w.weight, net.lin_b.weight, net.o_mat, net.o_prime):
            assert t.grad is not None and np.linalg.norm(t.grad) > 1e-12
        assert net.embedding.grad is None  # frozen table

    def test_head_records_two_affines(self):
        """No kind's train-mode forward records matmul or transpose; the head
        (a trainable hour table's, so its take records too) is the two hour
        maps, then the two projections, then the bias."""
        rng = np.random.default_rng(11)
        ops = {}
        for kind in MODEL_KINDS:
            model = toy_model(kind, seed=3)
            with Tape() as tape:
                model.forward_batch(Tensor(toy_window(rng, batch=2), dtype=F64), [3, 20], mode="train")
                ops[kind] = [node.op for node in tape.nodes]
            assert not {"matmul", "transpose"} & set(ops[kind]), kind
        assert ops["STDIEmbedding"][-11:] == [
            "take", "affine", "leaky_relu", "affine", "leaky_relu",
            "affine", "hadamard", "affine", "add", "relu", "reshape"]


class TestForward:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_shape_and_nonnegativity(self, kind):
        rng = np.random.default_rng(11)
        model = toy_model(kind)
        seq = Tensor(toy_window(rng, batch=1), dtype=F64)
        out = model.forward_batch(seq, [13], mode="eval")
        assert out.data.shape == (1, 2, 2, 2)
        assert out.data.min() >= 0.0

    @pytest.mark.parametrize("kind", MODEL_KINDS + ("MLP",))
    def test_forward_bytes_are_pinned(self, kind):
        model = build_model(kind, TOY_DIMS, seed=5)
        seqs, hours = pinned_batch()
        digests = []
        for mode in ("train", "eval"):
            pred = model.forward_batch(Tensor(seqs), hours, mode=mode).data
            assert pred.dtype == np.float32 and pred.shape == (4, 2, 2, 2)
            digests.append(hashlib.sha256(pred.tobytes()).hexdigest()[:16])
        assert tuple(digests) == FORWARD_CHECKSUMS[kind]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batch_matches_single(self, kind, data):
        """B windows in one call equal B batch-of-one calls."""
        batch = data.draw(st.integers(1, 4), label="batch")
        hours = data.draw(st.lists(st.integers(0, 23), min_size=batch, max_size=batch), label="hours")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        model = toy_model(kind, seed=int(rng.integers(1 << 30)))
        seqs = toy_window(rng, batch=batch)
        batched = model.forward_batch(Tensor(seqs, dtype=F64), hours, mode="eval").data
        for b in range(batch):
            single = model.forward_batch(Tensor(seqs[b:b + 1], dtype=F64), hours[b:b + 1], mode="eval").data
            np.testing.assert_allclose(batched[b], single[0], rtol=0, atol=1e-10)

    def test_hour_changes_prediction_unless_rows_equal(self):
        rng = np.random.default_rng(13)
        model = toy_model(seed=6)
        seq = Tensor(toy_window(rng, batch=1), dtype=F64)
        out_a = model.forward_batch(seq, [3], mode="eval").data
        out_b = model.forward_batch(seq, [17], mode="eval").data
        assert not np.allclose(out_a, out_b)
        model.head.embedding.data[...] = model.head.embedding.data[0]
        out_a2 = model.forward_batch(seq, [3], mode="eval").data
        out_b2 = model.forward_batch(seq, [17], mode="eval").data
        np.testing.assert_array_equal(out_a2, out_b2)

    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(14)
        model = toy_model(seed=7)
        seq = Tensor(toy_window(rng, batch=1), dtype=F64, requires_grad=True)
        target = Tensor(rng.random((1, 2, 2, 2)), dtype=F64)

        def f(_):
            d = sub(model.forward_batch(seq, [9], mode="eval"), target)
            return mean_all(hadamard(d, d))

        assert finite_diff_check(f, seq) < 1e-4
        assert finite_diff_check(f, model.head.o_mat) < 1e-4

    @pytest.mark.parametrize("kind", ["STDI", "SpatialDI", "TemporalDI", "STDIFusion",
                                      "STDIEmbedding"])
    def test_every_hour_head_checks_its_hours(self, kind):
        model = toy_model(kind)
        seqs = Tensor(np.zeros((1, 3, 2, 2, 2)), dtype=F64)
        for hours in ([24], [-1]):
            with pytest.raises(DomainError, match=str(hours[0])):
                model.forward_batch(seqs, hours, mode="eval")
        with pytest.raises(UsageError, match="hour"):
            model.forward_batch(seqs, None, mode="eval")

    def test_missing_hour_rejected(self):
        model = toy_model()
        with pytest.raises(UsageError, match="hour"):
            model.forward_batch(Tensor(np.zeros((1, 3, 2, 2, 2)), dtype=F64), mode="eval")


class TestBuildModel:
    def test_unknown_kind_lists_valid_names(self):
        with pytest.raises(UsageError, match="STDIFusion"):
            build_model("Bogus", TOY_DIMS)

    def test_paper_dims_parameter_census(self):
        dims = ModelDims()  # defaults: 8x16 grid, 32 channels, d=1024, a=64, h=50
        model = build_model("STDI", dims, seed=0)
        conv_block = (32 * 2 * 9 + 32) + 2 * (2 * (32 * 32 * 9 + 32) + 2 * (32 + 32))
        lstm = 4 * ((1024 * 4096 + 1024) + (1024 * 1024 + 1024))
        interval = (64 * 50 + 64) + (256 * 50 + 256) + 64 * 1024 + 256 * 64
        assert model.parameter_count() == 3 * conv_block + lstm + interval
        assert model.lstm.input_dim == 4096 and model.lstm.hidden_dim == 1024
        assert model.head.o_mat.data.shape == (64, 1024)
        assert model.head.o_prime.data.shape == (256, 64)
        assert len(model.spatial.blocks) == 3

    def test_too_large_to_allocate_is_a_usage_error(self, monkeypatch):
        # The constructor fails as an oversized model would, with no large
        # allocation made.
        import stdinet.model

        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(stdinet.model, "DemandModel", no_memory)
        with pytest.raises(UsageError, match=r"STDIFusion model of ModelDims\(.*fusion_dim=8"):
            build_model("STDIFusion", TOY_DIMS)

    def test_unified_spatial_shares_conv_parameters(self):
        shared = build_model("UnifiedSpatial", TOY_DIMS, seed=0)
        per_index = build_model("SpatialFC", TOY_DIMS, seed=0)

        def conv_params(m):
            return sum(p.data.size for n, p in m.named_tensors() if n.startswith("spatial."))

        assert conv_params(shared) * 3 == conv_params(per_index)
        assert per_index.parameter_count() - shared.parameter_count() == conv_params(shared) * 2

    def test_trainable_embedding_adds_table_size(self):
        frozen = build_model("STDI", TOY_DIMS, seed=0)
        learned = build_model("STDIEmbedding", TOY_DIMS, seed=0)
        assert learned.parameter_count() - frozen.parameter_count() == 24 * TOY_DIMS.embed_dim
        assert learned.head.embedding.requires_grad
        assert not frozen.head.embedding.requires_grad

    def test_same_seed_same_parameters(self):
        a = build_model("STDI", TOY_DIMS, seed=9)
        b = build_model("STDI", TOY_DIMS, seed=9)
        for (na, pa), (nb, pb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


class TestStackedLstm:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("MLP",))
    def test_initialization_matches_per_gate_draws(self, kind):
        assert tensors_digest(build_model(kind, TOY_DIMS, seed=5)) == INIT_CHECKSUMS[kind]

    def test_registry_holds_the_four_stacked_tensors(self):
        model = build_model("STDI", TOY_DIMS, seed=6)
        lstm = model.lstm
        stacked = [lstm.w_in, lstm.b_in, lstm.w_rec, lstm.b_rec]
        assert len(model.parameters()) == 64
        assert [p for n, p in model.params() if n.startswith("lstm.")] == stacked
        named = [n for n, _ in model.named_tensors() if n.startswith("lstm.")]
        assert named == [f"lstm.{kind}{g}" for g in LSTM_GATES
                         for kind in ("w_i", "b_i", "w_h", "b_h")]
        assert sum(p.requires_grad for _, p in model.named_tensors()) == 76

    def test_views_survive_restore(self):
        model = build_model("STDI", TOY_DIMS, seed=6, dtype=np.float32)
        snap = model.snapshot()
        model.lstm.w_in.data[...] = 0.0
        model.restore(snap)
        assert_lstm_views(model)
        np.testing.assert_array_equal(model.lstm.w_ix["o"].data, snap["lstm.w_io"])
        assert np.any(model.lstm.w_in.data != 0.0)

    def test_views_survive_load_checkpoint(self, tmp_path):
        model = build_model("TemporalDI", TOY_DIMS, seed=7, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert_lstm_views(loaded)
        np.testing.assert_array_equal(loaded.lstm.w_rec.data, model.lstm.w_rec.data)

    def test_views_survive_adam_step(self):
        from helpers import copy_task_windows, manual_steps

        model = build_model("STDI", TOY_DIMS, seed=8, dtype=np.float32)
        before = model.lstm.w_in.data.copy()
        manual_steps(model, copy_task_windows(), steps=2, lr=1e-2)
        assert_lstm_views(model)
        assert np.all(model.lstm.w_in.data != before)


class TestSnapshot:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("MLP",))
    def test_restore_rewrites_every_array_bit_for_bit(self, kind):
        if kind == "MLP":
            model = MlpModel(TOY_DIMS, seed=22)
        else:
            model = randomized_model(kind, np.float32, seed=22)
        want = {name: arr.copy() for name, arr in stored_arrays(model).items()}
        snap = model.snapshot()
        rng = np.random.default_rng(23)
        for arr in stored_arrays(model).values():
            arr[...] = rng.normal(size=arr.shape)
        for name, arr in stored_arrays(model).items():
            assert arr.tobytes() != want[name].tobytes(), name
        model.restore(snap)
        got = stored_arrays(model)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name
        if getattr(model, "lstm", None) is not None:
            assert_lstm_views(model)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("MLP",))
    def test_checkpoint_bytes_are_pinned(self, kind, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model(kind, TOY_DIMS, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == CKPT_CHECKSUMS[kind]

    @pytest.mark.parametrize("kind", MODEL_KINDS + ("MLP",))
    def test_round_trip_preserves_predictions(self, kind, tmp_path):
        rng = np.random.default_rng(15)
        model = build_model(kind, TOY_DIMS, seed=11, dtype=np.float32)
        # Make running stats nontrivial so state persistence matters.
        for _, s in model.named_states():
            s.running_mean[:] = rng.normal(size=s.running_mean.shape)
            s.running_var[:] = rng.uniform(0.5, 2.0, size=s.running_var.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"note": "test"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "test"}
        assert loaded.kind == kind
        seq = Tensor(rng.random((1, 3, 2, 2, 2)).astype(np.float32))
        np.testing.assert_array_equal(
            model.forward_batch(seq, [4], mode="eval").data,
            loaded.forward_batch(seq, [4], mode="eval").data,
        )

    def test_frozen_embedding_travels_in_checkpoint(self, tmp_path):
        model = build_model("STDI", TOY_DIMS, seed=12, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.head.embedding.data,
                                      model.head.embedding.data)
        assert not loaded.head.embedding.requires_grad

    def test_float64_model_reloads_as_float64(self, tmp_path):
        rng = np.random.default_rng(16)
        model = build_model("STDI", TOY_DIMS, seed=13, dtype=F64)
        for _, s in model.named_states():
            s.running_var[:] = rng.uniform(0.5, 2.0, size=s.running_var.shape)
        path = tmp_path / "m64.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.dtype == F64
        for (name, p), (_, q) in zip(model.named_tensors(), loaded.named_tensors()):
            assert q.data.dtype == F64, name
            np.testing.assert_array_equal(q.data, p.data)
        for (_, s), (_, r) in zip(model.named_states(), loaded.named_states()):
            assert r.running_var.dtype == F64
            np.testing.assert_array_equal(r.running_var, s.running_var)
        seq = Tensor(rng.random((1, 3, 2, 2, 2)))
        np.testing.assert_array_equal(model.forward_batch(seq, [5], mode="eval").data,
                                      loaded.forward_batch(seq, [5], mode="eval").data)

    def test_manifest_without_precision_loads_as_float32(self, tmp_path):
        model = build_model("SpatialFC", TOY_DIMS, seed=14, dtype=np.float32)
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, model)
        rewrite_manifest(path, lambda manifest: manifest.pop("dtype"))
        loaded, _ = load_checkpoint(path)
        assert loaded.dtype == np.float32
        for (_, p), (_, q) in zip(model.named_tensors(), loaded.named_tensors()):
            np.testing.assert_array_equal(q.data, p.data)

    def test_float64_entries_without_precision_are_refused(self, tmp_path):
        """``<f8`` entries in a manifest that records no precision, so a float32
        model: no writer makes such a file, and the entries are refused, not cast."""
        model = randomized_model("STDI", F64, seed=18)
        path = tmp_path / "old64.ckpt"
        save_checkpoint(path, model)
        rewrite_manifest(path, lambda manifest: manifest.pop("dtype"))
        with pytest.raises(DataError, match=r"spatial\.block0\.entry\.kernels.*<f8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, F64], ids=["float32", "float64"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_kind_round_trips_byte_identical(self, kind, dtype, tmp_path):
        model = randomized_model(kind, dtype, seed=19)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert (loaded.kind, loaded.dims, loaded.dtype) == (kind, TOY_DIMS, dtype)
        want, got = stored_arrays(model), stored_arrays(loaded)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name
        if loaded.lstm is not None:
            assert_lstm_views(loaded)
        seqs = Tensor(toy_window(np.random.default_rng(20), batch=3).astype(dtype))
        hours = [0, 9, 23]
        assert (loaded.forward_batch(seqs, hours, mode="eval").data.tobytes()
                == model.forward_batch(seqs, hours, mode="eval").data.tobytes())

    def test_load_peak_memory_is_near_the_weights(self, tmp_path):
        """A load holds one copy of the weights: no blob, no random draws, no casts."""
        dims = ModelDims(rows=4, cols=8, channels=8, lstm_hidden=256, rank=16, embed_dim=10)
        model = build_model("STDI", dims, seed=21, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        weights = (sum(p.data.nbytes for _, p in model.named_tensors())
                   + sum(s.running_mean.nbytes + s.running_var.nbytes
                         for _, s in model.named_states()))
        del model
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights > 2_000_000
        assert peak <= 1.5 * weights, f"peak {peak} bytes for {weights} bytes of weights"

    def test_save_peak_memory_is_a_fraction_of_the_weights(self, tmp_path):
        """A save writes each array as it is: no second copy of the weights."""
        dims = ModelDims(rows=4, cols=8, channels=8, lstm_hidden=256, rank=16, embed_dim=10)
        model = build_model("STDI", dims, seed=21, dtype=np.float32)
        weights = sum(a.nbytes for _, a in model.named_arrays())
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "m.ckpt", model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights > 2_000_000
        assert peak <= 0.25 * weights, f"peak {peak} bytes for {weights} bytes of weights"


class TestGradcheckCoverage:
    def test_every_recorded_op_has_a_gradcheck_case(self):
        """A train-mode step of every model records only ops gradcheck differences."""
        from stdinet.bench import MlpModel
        from stdinet.gradcheck import CASES
        from stdinet.training import mse_loss

        rng = np.random.default_rng(17)
        d = TOY_DIMS
        models = [build_model(kind, d, seed=3) for kind in MODEL_KINDS] + [MlpModel(d, seed=3)]
        recorded = set()
        for model in models:
            # An input that needs a gradient also records the frame selection.
            x = Tensor(rng.random((2, d.seq_len, 2, d.rows, d.cols)).astype(np.float32),
                       requires_grad=True)
            y = Tensor(rng.random((2, 2, d.rows, d.cols)).astype(np.float32))
            with Tape() as tape:
                mse_loss(model.forward_batch(x, [3, 20], mode="train"), y)
                recorded |= {node.op for node in tape.nodes}
        assert {"conv2d", "batchnorm", "lstm", "take", "hconcat"} <= recorded
        assert recorded - set(CASES) == set()
