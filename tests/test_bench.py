"""Benchmark tests: metrics, baselines, and the report runner."""

import logging
import re

import numpy as np
import pytest

from helpers import copy_task_windows, manual_steps, memorize_windows

from stdinet import DataError, UsageError
from stdinet.data import (DemandSeries, Windows, make_windows, random_demand_series,
                          regime_demand_series, split_dataset, windows_to_arrays)
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

    Cyclic coordinate descent from zero, one output column alone: the
    reference the batched, warm-started solve must agree with.
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


def kkt_violations(x, y, weights, intercept, alpha, tol=1e-6):
    """Coefficients that break the lasso's KKT conditions, and a bad intercept.

    The solver stops once coordinate j's KKT residual is at most
    diag(G)_j tol, in units of G; the gradient here is scaled by 1 / n, so
    the slack is diag(G)_j tol / n, plus room for rounding.
    """
    n = x.shape[0]
    y = y.reshape(n, -1)
    weights = weights.reshape(x.shape[1], -1)
    xm, ym = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xm, y - ym
    gram = xc.T @ xc
    slack = (np.diag(gram) * tol / n + 1e-9 * (1.0 + alpha))[:, None]
    grad = xc.T @ (yc - xc @ weights) / n
    active = weights != 0
    bad = np.where(active, np.abs(grad - alpha * np.sign(weights)) > slack,
                   np.abs(grad) > alpha + slack)
    intercept_ok = np.allclose(intercept, ym - xm @ weights, rtol=0.0,
                               atol=1e-9 * max(1.0, np.abs(ym).max()))
    return int(bad.sum()), intercept_ok


def agreement_bound(x, tol=1e-6):
    """How far apart two coefficient columns within the KKT slack may be.

    The objective is strongly convex with modulus mu = lambda_min(G) / n, so
    a point whose subgradient residual has 2-norm r lies within r / mu of
    the optimum.  A ``tol`` sweep of the reference leaves coordinate j a
    residual of at most sum_k |G_jk| tol / n, which also bounds the
    solver's diag(G)_j tol / n; each of two solves is within it, so their
    columns differ by at most twice that in the 2-norm.
    """
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    gram = xc.T @ xc
    slack = np.abs(gram).sum(axis=1) * tol / n
    return 2.0 * np.linalg.norm(slack) * n / np.linalg.eigvalsh(gram)[0]


def assert_agree(got, want, bound):
    (w_got, b_got), (w_want, b_want) = got, want
    assert w_got.shape == w_want.shape and np.shape(b_got) == np.shape(b_want)
    gap = np.linalg.norm(np.reshape(w_got - w_want, (len(w_got), -1)), axis=0)
    assert gap.max() <= bound


def demand_design(length, seed):
    """The lagged design and targets of a 4x4 regime series: at every
    penalty of the grid some coefficients are nonzero."""
    series = regime_demand_series(length, rows=4, cols=4, seed=seed, noise=4.0)
    return design_of(make_windows(series, 3))


def design_of(windows):
    inputs, _, targets = windows_to_arrays(windows)
    n = len(windows)
    return inputs.reshape(n, -1).astype(np.float64), targets.reshape(n, -1).astype(np.float64)


def correlated_design():
    """Correlated features and three outputs: all zero, large, and noise."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(90, 1)) + 0.3 * rng.normal(size=(90, 6))
    y = np.zeros((90, 3))
    y[:, 1] = 1000.0 * (x @ np.array([3.0, -2.0, 1.0, 0.0, 0.5, -1.0]))
    y[:, 1] += rng.normal(scale=0.1, size=90)
    y[:, 2] = rng.normal(size=90)
    return x, y


class TestLassoAllOutputs:
    """The batched FISTA solve keeps the lasso's contract: KKT within its own
    stop, and agreement with the zero-start per-column reference within the
    bound the two stops imply."""

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_demand_design_matches_per_column(self, alpha):
        x, y = demand_design(160, seed=12)
        assert x.shape == (157, 96) and y.shape == (157, 32)
        fit = lasso_coordinate_descent(x, y, alpha)
        assert kkt_violations(x, y, *fit, alpha) == (0, True)
        assert_agree(fit, lasso_per_column(x, y, alpha), agreement_bound(x))

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_zero_variance_feature_is_skipped(self, alpha):
        # An all-zero output stays exactly zero too.
        x, y = demand_design(240, seed=13)
        x[:, 7] = 2.0
        y[:, 0] = 0.0
        weights, intercept = lasso_coordinate_descent(x, y, alpha)
        # tobytes also tells -0.0 from 0.0, which array_equal does not.
        assert weights[7].tobytes() == np.zeros(32).tobytes()
        assert weights[:, 0].tobytes() == np.zeros(96).tobytes()
        assert intercept[0] == 0.0
        assert kkt_violations(x, y, weights, intercept, alpha) == (0, True)

    def test_all_zero_variance_design(self):
        x = np.full((30, 4), 3.0)
        y = np.random.default_rng(18).normal(size=(30, 2))
        weights, intercept = lasso_coordinate_descent(x, y, 0.1)
        assert weights.tobytes() == np.zeros((4, 2)).tobytes()
        np.testing.assert_array_equal(intercept, y.mean(axis=0))

    @pytest.mark.parametrize("alpha", LAMBDA_GRID)
    def test_outputs_stop_at_their_own_sweep(self, alpha):
        # Correlated features make the large second output take 300-400
        # sweeps of the reference and the noise output about 200 (at 0.01);
        # the all-zero first output retires at once.  Each output stops at
        # its own step, so each output of the joint solve agrees with that
        # output solved alone.
        x, y = correlated_design()
        weights, intercept = lasso_coordinate_descent(x, y, alpha)
        assert weights[:, 0].tobytes() == np.zeros(6).tobytes() and intercept[0] == 0.0
        assert kkt_violations(x, y, weights, intercept, alpha) == (0, True)
        bound = agreement_bound(x)
        for k in (1, 2):
            alone = lasso_coordinate_descent(x, y[:, k], alpha)
            assert_agree((weights[:, k], intercept[k]), alone, bound)
            assert_agree(alone, lasso_scalar_reference(x, y[:, k], alpha), bound)

    def test_per_column_penalties_match_each_penalty_alone(self):
        x, y = demand_design(160, seed=17)
        m = y.shape[1]
        weights, intercept = lasso_coordinate_descent(
            x, np.tile(y, len(LAMBDA_GRID)), np.repeat(LAMBDA_GRID, m))
        assert weights.shape == (96, m * len(LAMBDA_GRID))
        bound = agreement_bound(x)
        for i, alpha in enumerate(LAMBDA_GRID):
            part = (weights[:, i * m:(i + 1) * m], intercept[i * m:(i + 1) * m])
            assert kkt_violations(x, y, *part, alpha) == (0, True)
            assert_agree(part, lasso_coordinate_descent(x, y, alpha), bound)

    def test_one_output_returns_vector_and_scalar(self):
        x, y = demand_design(120, seed=15)
        beta, b0 = lasso_coordinate_descent(x, y[:, 3], 0.1)
        ref_beta, ref_b0 = lasso_scalar_reference(x, y[:, 3], 0.1)
        assert beta.shape == (96,) and np.ndim(b0) == 0
        assert np.linalg.norm(beta - ref_beta) <= agreement_bound(x)
        assert kkt_violations(x, y[:, 3], beta, b0, 0.1) == (0, True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_windows_than_features(self, seed, caplog):
        # 56 windows and 96 features: G is singular, so no strong convexity
        # speeds the solve, and no column may stop short of KKT.
        series = regime_demand_series(120, rows=4, cols=4, seed=seed, noise=4.0)
        train, _, _ = split_dataset(make_windows(series, 3), test_days=2, val_frac=0.2)
        x, y = design_of(train)
        assert x.shape == (56, 96)
        m = y.shape[1]
        with caplog.at_level(logging.WARNING, logger="stdinet.bench"):
            weights, intercept = lasso_coordinate_descent(
                x, np.tile(y, len(LAMBDA_GRID)), np.repeat(LAMBDA_GRID, m))
        assert not caplog.records
        for i, alpha in enumerate(LAMBDA_GRID):
            part = (weights[:, i * m:(i + 1) * m], intercept[i * m:(i + 1) * m])
            assert kkt_violations(x, y, *part, alpha) == (0, True)

    def test_warns_when_columns_reach_the_cap(self, monkeypatch, caplog):
        # At 0.01 the all-zero output retires at once, and the other two
        # take about 200 and 110 steps.
        x, y = correlated_design()
        monkeypatch.setattr("stdinet.bench.LASSO_MAX_STEPS", 5)
        with caplog.at_level(logging.WARNING, logger="stdinet.bench"):
            weights, _ = lasso_coordinate_descent(x, y, 0.01)
        assert [r.getMessage() for r in caplog.records] == [
            "lasso: 2 of 3 columns reached the 5-step cap short of KKT"]
        assert weights[:, 0].tobytes() == np.zeros(6).tobytes()

    def test_baseline_linear_matches_per_column(self):
        series = regime_demand_series(300, rows=4, cols=4, seed=16, noise=4.0)
        train, val, _ = split_dataset(make_windows(series, 3), test_days=2, val_frac=0.2)
        model = baseline_linear(train, val, "lasso")
        (x, y), (x_val, y_val) = design_of(train), design_of(val)
        rmse = {}
        for alpha in LAMBDA_GRID:
            weights, intercept = lasso_per_column(x, y, alpha)
            rmse[alpha] = float(np.sqrt(np.mean((x_val @ weights + intercept - y_val) ** 2)))
        assert model.lam == min(LAMBDA_GRID, key=rmse.get)
        assert kkt_violations(x, y, model.weights, model.intercept, model.lam) == (0, True)
        bound = agreement_bound(x)
        assert_agree((model.weights, model.intercept), lasso_per_column(x, y, model.lam), bound)
        # A prediction is ybar + (x - xbar) W, so the validation RMSE moves by
        # at most the RMS of (X_val - xbar) times the gap in W.
        got = float(np.sqrt(np.mean((model.predict(val).reshape(len(val), -1) - y_val) ** 2)))
        spread = np.linalg.norm(x_val - x.mean(axis=0), 2) / np.sqrt(len(x_val))
        assert abs(got - rmse[model.lam]) <= spread * bound


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

    def test_logs_each_method_as_it_starts_and_ends(self, caplog):
        series = random_demand_series(250, seed=18)
        with caplog.at_level(logging.INFO, logger="stdinet.bench"):
            report = run_benchmark(series, ["HA", "MLP"], self.config())
        lines = [r.getMessage() for r in caplog.records if r.name == "stdinet.bench"]
        assert len(lines) == 4
        assert lines[0] == "bench HA: started" and lines[2] == "bench MLP: started"
        assert re.fullmatch(r"bench HA: done runtime_s=\d+\.\d{3}", lines[1])
        assert re.fullmatch(r"bench MLP: done runtime_s=\d+\.\d{3} epochs_run=1", lines[3])
        assert report.rows[1].detail == {"epochs_run": 1}

    def test_duplicate_methods_rejected(self):
        series = random_demand_series(250, seed=17)
        with pytest.raises(UsageError, match="at most once"):
            run_benchmark(series, ["HA", "HA"], self.config())


class TestBenchConfig:
    @pytest.mark.parametrize("field,value", [
        ("test_days", 0), ("test_days", -3), ("test_days", 2.0), ("test_days", True),
        ("test_days", "2"), ("val_frac", "0.1"), ("val_frac", True), ("val_frac", None),
        ("embeddings", 57), ("embeddings", None),
        ("dims", None), ("dims", {}), ("train", None), ("train", {}),
    ])
    def test_bad_field_is_a_usage_error(self, field, value):
        with pytest.raises(UsageError, match=field):
            BenchConfig(**{field: value})

    def test_integer_val_frac_and_a_table_path_are_accepted(self):
        # val_frac's range is split_dataset's check, not the config's.
        config = BenchConfig(test_days=1, val_frac=0, embeddings="hours.txt")
        assert (config.test_days, config.val_frac, config.embeddings) == (1, 0, "hours.txt")
