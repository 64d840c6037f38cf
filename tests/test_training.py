"""Training loop tests: loss, optimizer, early stopping, determinism."""

import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from stdinet import DivergenceError, ShapeError, UsageError, training
from stdinet import tensor as T
from stdinet.data import make_windows, random_demand_series, split_dataset, windows_to_arrays
from stdinet.model import TOY_DIMS, build_model
from stdinet.tensor import Tape, Tensor, finite_diff_check, hadamard, sum_all, tanh
from stdinet.training import ADAM_CHUNK, Adam, TrainConfig, fit, mse_loss, predict_windows

F64 = np.float64


from helpers import copy_task_windows, manual_steps


class TestMseLoss:
    def test_zero_when_equal(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), dtype=F64)
        assert mse_loss(x, x).item() == 0.0

    def test_hand_value(self):
        pred = Tensor(np.array([0.0, 0.0]), dtype=F64)
        target = Tensor(np.array([3.0, 4.0]), dtype=F64)
        assert mse_loss(pred, target).item() == pytest.approx(12.5)

    def test_gradient_formula_and_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(2, 3)), dtype=F64, requires_grad=True)
        target = Tensor(rng.normal(size=(2, 3)), dtype=F64)
        with Tape() as tape:
            tape.backward(mse_loss(pred, target))
        expected = 2.0 * (pred.data - target.data) / pred.data.size
        np.testing.assert_allclose(pred.grad, expected, atol=1e-12)
        assert finite_diff_check(lambda v: mse_loss(v, target), pred) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        p.grad = np.array([4.0])
        adam = Adam([p], lr=1e-3, weight_decay=0.0)
        adam.step()
        # First bias-corrected step is lr * g / (|g| + eps) = almost exactly lr.
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        p.grad = np.zeros(2, dtype=p.data.dtype)
        adam = Adam([p], lr=1e-2, weight_decay=0.0)
        for _ in range(5):
            adam.step()
        np.testing.assert_array_equal(p.data, np.array([1.5, -2.0], dtype=p.data.dtype))

    def test_weight_decay_shrinks_positive_params(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1, dtype=p.data.dtype)
        adam = Adam([p], lr=1e-2, weight_decay=0.1)
        adam.step()
        assert p.data[0] < 2.0

    def test_missing_gradient_fatal(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        adam = Adam([p], lr=1e-3)
        with pytest.raises(UsageError, match="no gradient"):
            adam.step()

    def test_gradient_missing_on_a_later_step_fatal(self):
        """After zero_grad, a parameter the tape gave nothing has no gradient,
        though its arena slice still holds the last step's: the step is
        refused before any parameter moves."""
        a, b = (Tensor(np.linspace(0.5, 1.5, 3), requires_grad=True) for _ in range(2))
        adam = Adam([a, b], lr=1e-3)
        with Tape() as tape:
            tape.backward(sum_all(hadamard(a, b)))
            adam.step()
            adam.zero_grad()
            tape.backward(sum_all(tanh(a)))
        assert b.grad is None and np.any(b.grad_slice != 0)
        before = [a.data.copy(), b.data.copy()]
        with pytest.raises(UsageError, match="a trainable parameter has no gradient"):
            adam.step()
        assert adam.step_count == 1
        for p, was in zip((a, b), before):
            np.testing.assert_array_equal(p.data, was)

    @staticmethod
    def reference_step(adam, params, ms, vs, step_count):
        """The allocating Adam update, one temporary per operation."""
        b1, b2 = adam.beta1, adam.beta2
        bc1 = 1.0 - b1 ** step_count
        bc2 = 1.0 - b2 ** step_count
        for p, m, v in zip(params, ms, vs):
            g = p.grad
            if adam.weight_decay:
                g = g + adam.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + adam.eps)
            p.data -= (adam.lr * update).astype(p.data.dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_bit_identical_to_reference(self, dtype):
        rng = np.random.default_rng(9)
        # One parameter spans several chunks and ends in a partial one.
        shapes = [(3, 4), (2 * ADAM_CHUNK + 5,), (7,), ()]
        ours = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
        refs = [Tensor(t.data.copy(), requires_grad=True) for t in ours]
        adam = Adam(ours, lr=3e-3, weight_decay=0.01)
        ms = [np.zeros_like(t.data) for t in refs]
        vs = [np.zeros_like(t.data) for t in refs]
        for step in range(1, 6):
            for a, b in zip(ours, refs):
                a.grad = (rng.normal(size=a.data.shape) * 10).astype(dtype)
                b.grad = a.grad.copy()
            adam.step()
            self.reference_step(adam, refs, ms, vs, step)
            for a, b, m, v, am, av in zip(ours, refs, ms, vs, adam.m, adam.v):
                assert a.data.dtype == dtype
                np.testing.assert_array_equal(a.data, b.data)
                np.testing.assert_array_equal(am, m)
                np.testing.assert_array_equal(av, v)

    def test_transposed_parameter_is_packed_and_stepped_like_the_reference(self):
        """A non-contiguous parameter is copied into its arena slice and
        updated bit for bit as the allocating reference updates it."""
        rng = np.random.default_rng(10)
        p = Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)
        ref = Tensor(p.data.copy(), requires_grad=True)
        assert not p.data.flags.c_contiguous
        adam = Adam([p], lr=3e-3, weight_decay=0.01)
        assert p.data.flags.c_contiguous and p.data.base is adam.arenas[0]
        np.testing.assert_array_equal(p.data, ref.data)
        m, v = np.zeros_like(ref.data), np.zeros_like(ref.data)
        for step in range(1, 4):
            p.grad = rng.normal(size=(4, 3)).T
            ref.grad = p.grad.copy()
            adam.step()
            self.reference_step(adam, [ref], [m], [v], step)
            assert p.data.tobytes() == ref.data.tobytes()

    def test_no_parameters_refused(self):
        with pytest.raises(UsageError, match="no parameters"):
            Adam([])

    def test_mixed_precisions_refused(self):
        params = [Tensor(np.zeros(2, dtype=dt), requires_grad=True) for dt in (np.float32, F64)]
        with pytest.raises(UsageError, match="mixed precisions"):
            Adam(params)

    def test_no_nan_after_steps(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
        adam = Adam([p], lr=1e-3, weight_decay=5e-5)
        for _ in range(50):
            p.grad = rng.normal(size=8).astype(np.float32) * 100
            adam.step()
        assert np.all(np.isfinite(p.data))


class TestFit:
    @staticmethod
    def small_dataset(seed=0):
        series = random_demand_series(250, seed=seed)
        windows = make_windows(series, seq_len=3)
        return split_dataset(windows, test_days=2, val_frac=0.1)

    def test_loss_strictly_decreases_first_five_steps(self):
        model = build_model("STDI", TOY_DIMS, seed=1, dtype=np.float32)
        losses = manual_steps(model, copy_task_windows(), steps=6, lr=1e-3)
        for a, b in zip(losses, losses[1:]):
            assert b < a

    def test_copy_task_overfits_quickly(self):
        model = build_model("STDI", TOY_DIMS, seed=2, dtype=np.float32)
        losses = manual_steps(model, copy_task_windows(), steps=400, lr=1e-2)
        assert losses[-1] < losses[0] * 0.1

    def test_patience_one_stops_after_two_epochs(self):
        # lr=0 freezes the model, so epoch 2 cannot improve on epoch 1.
        train, val, _ = self.small_dataset()
        model = build_model("TemporalFC", TOY_DIMS, seed=3, dtype=np.float32)
        config = TrainConfig(lr=1e-30, epochs=10, batch_size=32, patience=1, seed=0)
        _, history = fit(model, train, val, config)
        assert history.epochs_run == 2

    def test_same_seed_identical_history(self):
        train, val, _ = self.small_dataset()
        histories = []
        for _ in range(2):
            model = build_model("STDI", TOY_DIMS, seed=4, dtype=np.float32)
            config = TrainConfig(lr=1e-3, epochs=3, batch_size=32, patience=3, seed=7)
            _, history = fit(model, train, val, config)
            histories.append(history)
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_rmse == histories[1].val_rmse
        assert histories[0].best_epoch == histories[1].best_epoch

    def test_returned_model_is_argmin_of_history(self):
        train, val, _ = self.small_dataset(seed=5)
        model = build_model("TemporalFC", TOY_DIMS, seed=5, dtype=np.float32)
        config = TrainConfig(lr=3e-3, epochs=6, batch_size=32, patience=6, seed=1)
        model, history = fit(model, train, val, config)
        preds = predict_windows(model, val)
        _, _, val_targets = windows_to_arrays(val)
        rmse = float(np.sqrt(np.mean((preds - val_targets) ** 2)))
        assert rmse == pytest.approx(min(history.val_rmse), abs=1e-12)
        assert history.val_rmse[history.best_epoch] == min(history.val_rmse)

    def test_frozen_embedding_unchanged_by_fit(self):
        train, val, _ = self.small_dataset(seed=6)
        model = build_model("STDI", TOY_DIMS, seed=6, dtype=np.float32)
        before = model.head.embedding.data.copy()
        config = TrainConfig(lr=1e-3, epochs=2, batch_size=32, patience=2, seed=2)
        model, _ = fit(model, train, val, config)
        np.testing.assert_array_equal(model.head.embedding.data, before)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_reports_epoch_and_batch(self):
        train, val, _ = self.small_dataset(seed=7)
        model = build_model("TemporalFC", TOY_DIMS, seed=7, dtype=np.float32)
        config = TrainConfig(lr=1e30, epochs=5, batch_size=32, patience=5, seed=3)
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            fit(model, train, val, config)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lr", [1e-3, 1e30], ids=["returns", "diverges"])
    def test_fit_leaves_no_tape_on_the_model(self, monkeypatch, lr):
        """Whether fit returns or raises, it closes its one tape: no tape is
        open after it, and a later forward records nothing."""
        tapes = []
        monkeypatch.setattr(training, "Tape", lambda: tapes.append(Tape()) or tapes[-1])
        train, val, _ = self.small_dataset(seed=7)
        model = build_model("TemporalFC", TOY_DIMS, seed=7, dtype=np.float32)
        config = TrainConfig(lr=lr, epochs=2, batch_size=32, patience=2, seed=3)
        if lr > 1:
            with pytest.raises(DivergenceError):
                fit(model, train, val, config)
        else:
            fit(model, train, val, config)
        assert len(tapes) == 1
        assert T._OPEN_TAPE.get() is None
        inputs, hours, _ = windows_to_arrays(val)
        out = model.forward_batch(Tensor(inputs.astype(np.float32)), hours, mode="eval")
        assert out.requires_grad and out._node is None
        assert tapes[0].nodes == []

    @pytest.mark.parametrize("n_train,batch_size", [(40, 1), (1, 32)])
    def test_configuration_that_trains_nothing_is_refused(self, n_train, batch_size):
        # Batch size 1 drops every batch; one training window makes one
        # batch of one.  Either way no step could run.
        train, val, _ = self.small_dataset(seed=9)
        model = build_model("STDI", TOY_DIMS, seed=9, dtype=np.float32)
        before = model.snapshot()
        config = TrainConfig(epochs=2, batch_size=batch_size, patience=2, seed=0)
        with pytest.raises(UsageError, match="train nothing"):
            fit(model, train[:n_train], val, config)
        for name, p in model.named_tensors():
            np.testing.assert_array_equal(p.data, before[name])

    def test_epoch_log_reports_step_time_and_throughput(self, tmp_path):
        train, val, _ = self.small_dataset(seed=10)
        model = build_model("TemporalFC", TOY_DIMS, seed=10, dtype=np.float32)
        config = TrainConfig(epochs=2, batch_size=32, patience=2, seed=0)
        log = tmp_path / "train.jsonl"
        fit(model, train, val, config, log_path=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 2
        sizes = [min(32, len(train) - lo) for lo in range(0, len(train), 32)]
        steps = [n for n in sizes if n >= 2]
        for rec in records:
            assert rec["step_s"] > 0
            # At least half the steps took the median time or longer, and the
            # epoch's training time covers them all.
            slowest_half = -(-len(steps) // 2) * rec["step_s"]
            assert 0 < rec["samples_per_s"] <= sum(steps) / slowest_half

    def test_config_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(patience=100, epochs=10)

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("lr", -1e-3), ("lr", math.inf), ("lr", math.nan),
        ("weight_decay", -0.5), ("weight_decay", math.inf), ("weight_decay", math.nan),
        ("seed", -1)])
    def test_rates_and_seed_must_be_in_range(self, field, value):
        with pytest.raises(UsageError, match="finite" if field != "seed" else "seed"):
            TrainConfig(**{field: value})
        TrainConfig(weight_decay=0.0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", "3"), ("epochs", 3.0), ("batch_size", True), ("patience", np.int64(2)),
        ("seed", 1.5), ("seed", None), ("lr", "0.1"), ("lr", True), ("weight_decay", None),
        ("precision", ["standard"]), ("precision", None)])
    def test_wrongly_typed_field_is_a_usage_error(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_integer_rates_are_accepted(self):
        assert TrainConfig(lr=1, weight_decay=0).lr == 1

    @pytest.mark.parametrize("precision", ["bogus", "float32", ""])
    def test_unknown_precision_is_refused_when_built(self, precision):
        with pytest.raises(UsageError, match="unknown precision"):
            TrainConfig(precision=precision)

    def test_nan_parameter_is_a_divergence(self, monkeypatch):
        # The NaN entry kernel reaches the head only through batchnorm and
        # ReLU, which maps NaN to zero, so every training loss stays finite.
        train, val, _ = self.small_dataset(seed=11)
        model = build_model("STDI", TOY_DIMS, seed=11, dtype=np.float32)
        dict(model.named_tensors())["spatial.block0.entry.kernels"].data.flat[0] = np.nan
        losses = []

        def recorded(pred, target):
            losses.append(mse_loss(pred, target))
            return losses[-1]
        monkeypatch.setattr(training, "mse_loss", recorded)
        with pytest.raises(DivergenceError, match="non-finite parameter after epoch 1"):
            fit(model, train, val, TrainConfig(epochs=2, batch_size=32, patience=2, seed=0))
        assert len(losses) == 6 and all(math.isfinite(loss.item()) for loss in losses)


class TestGraphRelease:
    def test_reset_frees_intermediates_without_the_cycle_collector(self):
        """Closing a tape resets it: a graph abandoned without a backward
        goes as the block ends."""
        x = Tensor(np.ones((4, 4)), dtype=F64, requires_grad=True)
        gc.disable()
        try:
            with Tape():
                mid = tanh(hadamard(x, x))
                probe = weakref.ref(mid)
                sum_all(mid)
                del mid
                assert probe() is not None
            assert probe() is None
        finally:
            gc.enable()
        assert x.grad is None

    def test_backward_frees_intermediates_as_it_sweeps(self):
        """No reset and no cycle collector: the sweep itself drops each node,
        its closure and the activations the closure saved."""
        x = Tensor(np.ones((4, 4)), dtype=F64, requires_grad=True)
        with Tape() as tape:
            mid = tanh(hadamard(x, x))
            probe = weakref.ref(mid)
            loss = sum_all(mid)
            del mid
            gc.disable()
            try:
                tape.backward(loss)
                assert probe() is None
            finally:
                gc.enable()
            assert tape.nodes == []
        assert loss.grad is None and loss._node is None
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(1.0) ** 2))


class TestGradientHandOff:
    """``Tape.backward`` stores each first gradient without copying it."""

    @staticmethod
    def stdi_loss(seed=0):
        """Forward of one STDI training step at toy dims, recorded on the open tape."""
        model = build_model("STDI", TOY_DIMS, seed=seed)
        inputs, hours, targets = copy_task_windows(n=6, seed=seed)
        loss = mse_loss(model.forward_batch(Tensor(inputs), hours, mode="train"),
                        Tensor(targets))
        return model, loss

    @classmethod
    def stdi_step(cls, seed=0):
        """Forward and backward of one STDI training step at toy dims."""
        with Tape() as tape:
            model, loss = cls.stdi_loss(seed)
            tape.backward(loss)
        return model

    def test_no_grad_shares_memory_with_any_data(self):
        with Tape() as tape:
            model, loss = self.stdi_loss()
            params = {id(p): p for p in model.parameters()}
            tensors = dict(params)
            outputs = []
            for node in tape.nodes:
                for t in node.inputs:
                    tensors[id(t)] = t
                outputs.append(node.output)
            tape.backward(loss)
            # The sweep consumes the tape, and only leaves keep a gradient.
            assert tape.nodes == []
        assert all(t.grad is None and t._node is None for t in outputs)
        grads = [t.grad for t in tensors.values() if t.grad is not None]
        assert len(grads) == len(params)
        for g in grads:
            for t in tensors.values():
                assert not np.shares_memory(g, t.data)
            for t in outputs:
                assert not np.shares_memory(g, t.data)
        # Grads may share memory with one another: both LSTM bias grads are
        # the one bias gradient of the fused op.
        assert model.lstm.b_in.grad is model.lstm.b_rec.grad

    def test_adam_step_bit_identical_to_copied_gradients(self):
        ours = self.stdi_step(seed=4)
        copied = self.stdi_step(seed=4)
        for p in copied.parameters():
            p.grad = p.grad.copy()
        for model in (ours, copied):
            Adam(model.parameters(), lr=1e-2, weight_decay=1e-3).step()
        for (name, a), (_, b) in zip(ours.named_tensors(), copied.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name


class TestGradientArena:
    """Adam's gradient arena: the backward pass writes each parameter's slice."""

    def test_fit_after_restore_repeats_the_first_fit(self):
        """Each fit packs the model into a new arena: restoring the initial
        weights and fitting again gives the first fit's bytes."""
        train, val, _ = TestFit.small_dataset(seed=12)
        model = build_model("STDI", TOY_DIMS, seed=12)
        initial = model.snapshot()
        config = TrainConfig(epochs=2, batch_size=32, patience=2, seed=1)
        fitted = []
        for _ in range(2):
            model.restore(initial)
            _, history = fit(model, train, val, config)
            fitted.append((history.val_rmse, [a.tobytes() for _, a in model.named_arrays()]))
        assert fitted[0] == fitted[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lr", [1e-3, 1e30], ids=["returns", "diverges"])
    def test_fit_hands_back_the_gradient_arena(self, monkeypatch, lr):
        """Whether fit returns or raises, no parameter keeps a gradient or a
        grad_slice, so the gradient arena goes with fit's optimizer."""
        arenas = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                arenas.append(weakref.ref(self.grads[0].base))
        monkeypatch.setattr(training, "Adam", Recorded)
        train, val, _ = TestFit.small_dataset(seed=7)
        model = build_model("TemporalFC", TOY_DIMS, seed=7)
        config = TrainConfig(lr=lr, epochs=2, batch_size=32, patience=2, seed=3)
        if lr > 1:
            with pytest.raises(DivergenceError):
                fit(model, train, val, config)
        else:
            fit(model, train, val, config)
        assert all(p.grad is None and p.grad_slice is None for p in model.parameters())
        gc.collect()
        assert len(arenas) == 1 and arenas[0]() is None

    def test_grads_are_arena_slices_reused_across_steps(self):
        model = build_model("STDI", TOY_DIMS, seed=12)
        inputs, hours, targets = copy_task_windows(n=6, seed=12)
        adam = Adam(model.parameters(), lr=1e-3)
        _, grad_arena, _, _ = adam.arenas
        w_in_grads = []
        with Tape() as tape:
            for _ in range(2):
                tape.backward(mse_loss(model.forward_batch(Tensor(inputs), hours, mode="train"),
                                       Tensor(targets)))
                for p in model.parameters():
                    assert p.grad is p.grad_slice and p.grad.base is grad_arena
                w_in_grads.append(model.lstm.w_in.grad)
                adam.step()
                adam.zero_grad()
        assert w_in_grads[0] is w_in_grads[1]

    def test_parameter_read_twice_by_one_op_gets_both_gradients(self):
        """affine(p, p): the rule may not write p's weight gradient into the
        slice that p's input gradient is then copied over."""
        rng = np.random.default_rng(14)
        p = Tensor(rng.normal(size=(3, 3)), dtype=F64, requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)), dtype=F64)     # so the two gradients differ
        grads = []
        for optimizer in (None, Adam):
            if optimizer:
                optimizer([p])
            p.grad = None
            with Tape() as tape:
                tape.backward(sum_all(hadamard(T.affine(p, p), c)))
            grads.append(p.grad)
        assert grads[1] is p.grad_slice
        assert grads[1].tobytes() == grads[0].tobytes()

    def test_shared_block_accumulates_as_out_of_place_sum(self):
        """UnifiedSpatial's one conv block reads every frame, so each of its
        parameters gets one gradient per frame; the in-place sum in its slice
        is bit for bit the out-of-place sum of those contributions."""
        dims = replace(TOY_DIMS, seq_len=2)
        model = build_model("UnifiedSpatial", dims, seed=13)
        inputs, hours, targets = copy_task_windows(n=6, dims=dims, seed=13)
        Adam(model.parameters(), lr=1e-3)
        kernels = model.spatial.blocks[0].entry.kernels
        parts = []

        def recording(rule, i):
            def backward(g):
                grads = rule(g)
                parts.append(grads[i].copy())
                return grads
            return backward

        with Tape() as tape:
            loss = mse_loss(model.forward_batch(Tensor(inputs), hours, mode="train"),
                            Tensor(targets))
            for node in tape.nodes:
                for i, t in enumerate(node.inputs):
                    if t is kernels:
                        node.backward = recording(node.backward, i)
            tape.backward(loss)
        assert len(parts) == 2
        assert kernels.grad is kernels.grad_slice
        assert kernels.grad.tobytes() == (parts[0] + parts[1]).tobytes()
