"""Benchmark tests: metrics, baselines, and the report runner."""

import numpy as np
import pytest

from helpers import copy_task_windows, manual_steps, memorize_windows

from stdinet import DataError, UsageError
from stdinet.data import (DemandSeries, Windows, make_windows, random_demand_series, split_dataset,
                          windows_to_arrays)
from stdinet.model import ModelDims, TOY_DIMS
from stdinet.training import TrainConfig
from stdinet.bench import (
    LAMBDA_GRID,
    BenchConfig,
    MlpModel,
    REFERENCE_RESULTS,
    SUITES,
    baseline_ha,
    baseline_linear,
    compute_metrics,
    lasso_coordinate_descent,
    per_channel_metrics,
    render_table,
    report_json,
    ridge_closed_form,
    run_benchmark,
    write_csv,
)


def ridge_cd_oracle(x, y, lam, sweeps=5000, tol=1e-12):
    """Coordinate descent for ||y - Xb||^2 + lam*||b||^2 on centered data."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    gram = xc.T @ xc
    cty = xc.T @ yc
    beta = np.zeros(x.shape[1])
    for _ in range(sweeps):
        moved = 0.0
        for j in range(x.shape[1]):
            rho = cty[j] - gram[j] @ beta + gram[j, j] * beta[j]
            new = rho / (gram[j, j] + lam)
            moved = max(moved, abs(new - beta[j]))
            beta[j] = new
        if moved < tol:
            break
    return beta


class TestMetrics:
    def test_hand_values(self):
        m = compute_metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert m.rmse == pytest.approx(np.sqrt(12.5))
        assert m.mae == pytest.approx(3.5)
        assert m.z == 2

    def test_zero_when_equal(self):
        x = np.arange(12.0).reshape(3, 4)
        m = compute_metrics(x, x.copy())
        assert (m.rmse, m.mae) == (0.0, 0.0)

    def test_constant_error_makes_them_equal(self):
        y = np.zeros((5, 2))
        m = compute_metrics(y + 1.7, y)
        assert m.rmse == pytest.approx(1.7)
        assert m.mae == pytest.approx(1.7)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=40)
        targets = rng.normal(size=40)
        perm = rng.permutation(40)
        a = compute_metrics(preds, targets)
        b = compute_metrics(preds[perm], targets[perm])
        assert a.rmse == pytest.approx(b.rmse) and a.mae == pytest.approx(b.mae)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            compute_metrics(np.zeros(0), np.zeros(0))

    def test_per_channel_breakdown(self):
        rng = np.random.default_rng(1)
        preds = rng.normal(size=(6, 2, 2, 2))
        targets = rng.normal(size=(6, 2, 2, 2))
        out = per_channel_metrics(preds, targets)
        assert set(out) == {"rental", "return"}
        assert out["rental"].z == 24


def reference_ha(series, test_windows, boundary_epoch):
    """The per-interval loop that ``baseline_ha`` replaced, kept as its reference."""
    sums, counts = {}, {}
    for t in range(series.length):
        epoch = series.start_epoch + t * series.interval_seconds
        if epoch < boundary_epoch:
            hour = epoch // 3600 % 24
            sums.setdefault(hour, np.zeros_like(series.values[0], dtype=np.float64))
            sums[hour] += series.values[t]
            counts[hour] = counts.get(hour, 0) + 1
    zero = np.zeros_like(series.values[0], dtype=np.float64)
    return np.stack([sums[h] / counts[h] if h in counts else zero
                     for h in (w.target_epoch // 3600 % 24 for w in test_windows)])


class TestHistoricalAverage:
    # At a day and a minute, each interval starts a minute later in the day than
    # the one before, so the last test targets (t >= 390) start in hour 7, in
    # which no training interval (t < 340) starts; that hour predicts zero.
    @pytest.mark.parametrize("interval", [3600, 7200, 86460])
    def test_matches_per_interval_loop_bitwise(self, interval):
        rng = np.random.default_rng(9)
        values = rng.gamma(2.0, 1.7, size=(400, 2, 2, 3)).astype(np.float32)
        series = DemandSeries(start_epoch=1396310400 + 1800, interval_seconds=interval,
                              values=values)
        windows = make_windows(series, seq_len=3)
        test = windows[-60:]
        boundary = series.epoch_of(int(test.index[0]))
        preds = baseline_ha(series, test, boundary)
        assert preds.dtype == np.float64
        assert preds.tobytes() == reference_ha(series, test, boundary).tobytes()
        trained = series.hour_of(np.arange(test.index[0]))
        unseen = ~np.isin(series.hour_of(test.index), trained)
        assert unseen.sum() == (10 if interval == 86460 else 0)
        assert not preds[unseen].any() and preds[~unseen].all()

    def series_with_profile(self, profile, days=30):
        values = np.zeros((days * 24, 2, 2, 2), dtype=np.float32)
        for t in range(days * 24):
            values[t] = profile[t % 24]
        return DemandSeries(start_epoch=0, interval_seconds=3600, values=values)

    def test_mean_of_two_values(self):
        values = np.zeros((2 * 168, 2, 2, 2), dtype=np.float32)
        # hour 8 of day 0 -> 2, hour 8 of day 1.. -> 4 at one station
        for day in range(14):
            values[day * 24 + 8, 0, 0, 0] = 2.0 if day % 2 == 0 else 4.0
        series = DemandSeries(start_epoch=0, interval_seconds=3600, values=values)
        windows = make_windows(series, seq_len=3)
        test = windows[series.hour_of(windows.index) == 8][-2:]
        boundary = min(w.target_epoch for w in test)
        preds = baseline_ha(series, test, boundary)
        # training saw equal numbers of 2s and 4s at hour 8
        assert preds[0][0, 0, 0] == pytest.approx(3.0, abs=0.5)

    def test_zero_training_channel_predicts_zero(self):
        series = self.series_with_profile(np.zeros((24, 2, 2, 2)))
        windows = make_windows(series, seq_len=3)
        test = windows[-24:]
        preds = baseline_ha(series, test, min(w.target_epoch for w in test))
        np.testing.assert_array_equal(preds, np.zeros_like(preds))

    def test_recovers_hourly_profile_exactly(self):
        rng = np.random.default_rng(2)
        profile = rng.integers(0, 9, size=(24, 2, 2, 2)).astype(np.float32)
        series = self.series_with_profile(profile)
        windows = make_windows(series, seq_len=3)
        boundary = series.end_epoch - 5 * 86400
        test = windows[series.epoch_of(windows.index) >= boundary]
        preds = baseline_ha(series, test, boundary)
        _, _, targets = windows_to_arrays(test)
        np.testing.assert_allclose(preds, targets, atol=1e-6)

    def test_same_hour_same_prediction(self):
        series = self.series_with_profile(np.random.default_rng(3).integers(
            0, 5, size=(24, 2, 2, 2)).astype(np.float32))
        windows = make_windows(series, seq_len=3)
        boundary = series.end_epoch - 3 * 86400
        test = windows[series.epoch_of(windows.index) >= boundary]
        preds = baseline_ha(series, test, boundary)
        by_hour = {}
        for w, p in zip(test, preds):
            if w.hour in by_hour:
                np.testing.assert_array_equal(by_hour[w.hour], p)
            by_hour[w.hour] = p

    def test_needs_a_week(self):
        series = self.series_with_profile(np.ones((24, 2, 2, 2)), days=7)
        windows = make_windows(series, seq_len=3)
        test = windows[-24:]
        with pytest.raises(DataError, match="week"):
            baseline_ha(series, test, series.start_epoch + 100 * 3600)


class TestLinearBaselines:
    def test_ridge_closed_form_matches_cd_oracle(self):
        rng = np.random.default_rng(4)
        for lam in (0.1, 1.0, 10.0):
            x = rng.normal(size=(30, 6))
            y = rng.normal(size=30)
            w, _ = ridge_closed_form(x, y[:, None], lam)
            oracle = ridge_cd_oracle(x, y, lam)
            np.testing.assert_allclose(w[:, 0], oracle, atol=1e-6)

    def test_identity_task_near_zero_rmse(self):
        # Copy-task window i laid out as a block of four intervals of one series:
        # its three input frames, then its target at index 4i + 3.
        inputs, _, targets = copy_task_windows(n=60, seed=5)
        blocks = np.concatenate([inputs, targets[:, None]], axis=1)
        series = DemandSeries(start_epoch=0, interval_seconds=3600,
                              values=blocks.reshape(-1, *blocks.shape[2:]))
        windows = Windows(series, 3, 4 * np.arange(60) + 3)
        np.testing.assert_array_equal(windows_to_arrays(windows)[0], inputs)
        model = baseline_linear(windows[:40], windows[40:], "ridge")
        preds = model.predict(windows[40:])
        rmse = float(np.sqrt(np.mean((preds - targets[40:]) ** 2)))
        assert rmse < 0.05

    def test_huge_penalty_predicts_intercept(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5))
        y = rng.normal(loc=3.0, size=(40, 2))
        w, b = ridge_closed_form(x, y, 1e12)
        assert np.abs(w).max() < 1e-6
        np.testing.assert_allclose(b, y.mean(axis=0), atol=1e-6)

    def test_lasso_recovers_sparse_support(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 5))
        y = 3.0 * x[:, 1] - 2.0 * x[:, 3] + rng.normal(scale=0.01, size=80)
        beta, _ = lasso_coordinate_descent(x, y, alpha=0.05)
        assert abs(beta[1]) > 1.0 and abs(beta[3]) > 1.0
        for j in (0, 2, 4):
            assert abs(beta[j]) < 0.05

    def test_lasso_limit_kills_coefficients(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        beta, b0 = lasso_coordinate_descent(x, y, alpha=1e6)
        np.testing.assert_array_equal(beta, np.zeros(4))
        assert b0 == pytest.approx(y.mean())


def lasso_scalar_reference(x, y, alpha, tol=1e-6, max_sweeps=1000):
    """One output at a time, one scalar coordinate step at a time.

    The per-column solve that ``lasso_coordinate_descent`` ran before it
    took every output in one sweep; kept as the bitwise reference.
    """
    n, f = x.shape
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    gram = xc.T @ xc
    cty = xc.T @ (y - y_mean)
    diag = np.diag(gram).copy()
    beta = np.zeros(f)
    q = np.zeros(f)
    thresh = n * alpha
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(f):
            if diag[j] == 0.0:
                continue
            rho = cty[j] - q[j] + diag[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - thresh, 0.0) / diag[j]
            delta = new - beta[j]
            if delta != 0.0:
                q += gram[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return beta, y_mean - x_mean @ beta


def lasso_per_column(x, y, alpha, **kwargs):
    fits = [lasso_scalar_reference(x, y[:, k], alpha, **kwargs) for k in range(y.shape[1])]
    return np.stack([b for b, _ in fits], axis=1), np.array([b0 for _, b0 in fits])


def assert_same_bits(got, want):
    # tobytes also tells -0.0 from 0.0, which array_equal does not.
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def demand_design(length, seed):
    inputs, _, targets = windows_to_arrays(
        make_windows(random_demand_series(length, rows=4, cols=4, seed=seed), 3))
    n = len(inputs)
    return inputs.reshape(n, -1).astype(np.float64), targets.reshape(n, -1).astype(np.float64)


class TestLassoAllOutputs:
    """The 2-d solve is bit-equal to solving each output column alone."""

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_demand_design_matches_per_column(self, alpha):
        x, y = demand_design(160, seed=12)
        assert x.shape == (157, 96) and y.shape == (157, 32)
        assert_same_bits(lasso_coordinate_descent(x, y, alpha), lasso_per_column(x, y, alpha))

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_zero_variance_feature_is_skipped(self, alpha):
        x, y = demand_design(240, seed=13)
        x[:, 7] = 2.0
        fit = lasso_coordinate_descent(x, y, alpha)
        assert not fit[0][7].any()
        assert_same_bits(fit, lasso_per_column(x, y, alpha))

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_outputs_stop_at_their_own_sweep(self, alpha):
        # Correlated features make the large second output take 300-400
        # sweeps and the noise output about 200 (at 0.01); the all-zero first
        # output is done after one.
        rng = np.random.default_rng(14)
        x = rng.normal(size=(90, 1)) + 0.3 * rng.normal(size=(90, 6))
        y = np.zeros((90, 3))
        y[:, 1] = 1000.0 * (x @ np.array([3.0, -2.0, 1.0, 0.0, 0.5, -1.0]))
        y[:, 1] += rng.normal(scale=0.1, size=90)
        y[:, 2] = rng.normal(size=90)
        cut = lasso_per_column(x, y, alpha, max_sweeps=50)
        full = lasso_per_column(x, y, alpha)
        assert not np.array_equal(cut[0][:, 1], full[0][:, 1])
        assert not full[0][:, 0].any()
        assert_same_bits(lasso_coordinate_descent(x, y, alpha), full)
        # Cut off before the slow outputs converge: each keeps its last sweep.
        assert_same_bits(lasso_coordinate_descent(x, y, alpha, max_sweeps=50), cut)

    def test_one_output_returns_vector_and_scalar(self):
        x, y = demand_design(120, seed=15)
        beta, b0 = lasso_coordinate_descent(x, y[:, 3], 0.1)
        ref_beta, ref_b0 = lasso_scalar_reference(x, y[:, 3], 0.1)
        assert beta.shape == (96,) and np.ndim(b0) == 0
        assert beta.tobytes() == ref_beta.tobytes() and b0 == ref_b0

    def test_baseline_linear_matches_per_column(self):
        series = random_demand_series(200, rows=4, cols=4, seed=16)
        train, val, _ = split_dataset(make_windows(series, 3), test_days=2, val_frac=0.2)
        model = baseline_linear(train, val, "lasso")
        inputs, _, targets = windows_to_arrays(train)
        x = inputs.reshape(len(train), -1).astype(np.float64)
        y = targets.reshape(len(train), -1).astype(np.float64)
        assert_same_bits((model.weights, model.intercept), lasso_per_column(x, y, model.lam))


class TestMlpBaseline:
    def test_parameter_census(self):
        dims = ModelDims()  # input 3*2*8*16 = 768, output 256
        model = MlpModel(dims, seed=0)
        expected = ((768 * 256 + 256) + (256 * 256 + 256) + (256 * 128 + 128)
                    + (128 * 128 + 128) + (128 * 256 + 256))
        assert model.parameter_count() == expected

    def test_overfits_ten_windows(self):
        # 1e-2 punches through the small-signal init regime of the deep stack.
        model = MlpModel(TOY_DIMS, seed=1)
        losses = manual_steps(model, memorize_windows(10, seed=21), steps=2000,
                              lr=1e-2, stop_below=0.01)
        assert losses[-1] < 0.01

    def test_output_nonnegative(self):
        rng = np.random.default_rng(11)
        model = MlpModel(TOY_DIMS, seed=2)
        from stdinet.tensor import Tensor
        x = Tensor(rng.normal(size=(4, 3, 2, 2, 2)).astype(np.float32))
        out = model.forward_batch(x)
        assert out.data.min() >= 0.0
        assert out.data.shape == (4, 2, 2, 2)


class TestRunBenchmark:
    def config(self, epochs=1):
        return BenchConfig(
            dims=TOY_DIMS,
            train=TrainConfig(lr=1e-3, epochs=epochs, batch_size=32, patience=epochs, seed=0),
            test_days=2,
        )

    def test_unknown_method_listed(self):
        series = random_demand_series(250, seed=12)
        with pytest.raises(UsageError, match="valid methods"):
            run_benchmark(series, ["Bogus"], self.config())

    def test_empty_test_set_fatal_before_training(self):
        series = random_demand_series(30, seed=13)
        with pytest.raises(DataError):
            run_benchmark(series, ["MLP"], self.config())

    def test_suites_shapes(self):
        assert len(SUITES["table2"]) == 6
        assert "STDIFusion" in SUITES["table3"]
        assert set(SUITES["table1"]) <= set(SUITES["all"])

    def test_report_contents_and_reference_numbers(self, tmp_path):
        series = random_demand_series(250, seed=14)
        report = run_benchmark(series, ["HA", "Ridge", "STDI"], self.config())
        assert [r.method for r in report.rows] == ["HA", "Ridge", "STDI"]
        stdi = report.rows[-1]
        assert stdi.reference == REFERENCE_RESULTS["STDI"] == (4.6339, 2.1946)
        text = render_table(report)
        assert "4.6339" in text and "ref_rmse" in text
        payload = report_json(report)
        assert payload["rows"][0]["reference_rmse"] == 10.7308
        csv_path = tmp_path / "rows.csv"
        write_csv(report, csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "method,rmse,mae,z,seed,config_digest,runtime_s"

    def test_rows_reproducible(self, tmp_path):
        series = random_demand_series(250, seed=15)
        outputs = []
        for run in range(2):
            report = run_benchmark(series, ["HA", "Ridge", "TemporalFC"], self.config(epochs=2))
            path = tmp_path / f"run{run}.csv"
            write_csv(report, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_z_matches_test_size(self):
        series = random_demand_series(250, seed=16)
        report = run_benchmark(series, ["HA"], self.config())
        assert report.rows[0].metrics.z == report.n_test * 2 * 2 * 2

    def test_duplicate_methods_rejected(self):
        series = random_demand_series(250, seed=17)
        with pytest.raises(UsageError, match="at most once"):
            run_benchmark(series, ["HA", "HA"], self.config())
