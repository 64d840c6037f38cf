"""Tests of the benchmark's own checks and runner, on tiny inputs.

    python3 -m pytest perfbench -q

Each check must pass on the program's real output and reject a corrupted
copy of it; the runner must count the operations it attempted and those
that failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import inputs
import workloads
from tracing import COUNTS, SECONDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
stdinet = inputs.import_stdinet()


def make(name, tmp_path, seed=3):
    path = tmp_path / name
    inputs.generate(name, seed, path, tiny=True)
    return workloads.WORKLOADS[name](stdinet, path, seed, inputs.sizes_for(name, tiny=True))


def run_once(workload):
    """One set-up pass and a single round; the checks' hooks stay installed."""
    workload.setup()
    workload.start()
    values = workload.round()
    assert workload.check_round(first=True) == []
    return values


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runner_counts_rounds_and_passes_checks(name, tmp_path):
    wl = make(name, tmp_path)
    _, rounds, attempted, failed, errors, layers = workloads.run(wl, seconds=0)
    assert errors == []
    assert len(rounds) == 1 and failed == 0 and layers is None
    assert attempted == wl.ops_per_round >= 1


@pytest.mark.parametrize("name, module, function", [
    ("ingest", "data", "parse_trip_files"),
    ("train_paper", "training", "fit"),
    ("predict_paper", "training", "predict_windows"),
    ("baselines", "bench", "baseline_ha"),
])
def test_runner_counts_failed_operations(name, module, function, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")
    monkeypatch.setattr(getattr(stdinet, module), function, broken)
    wl = make(name, tmp_path)
    _, rounds, attempted, failed, errors, _ = workloads.run(wl, seconds=0)
    assert rounds == [] and errors == []
    assert attempted == failed == wl.ops_per_round


def test_calibration_samples_between_rounds_and_scales_times(tmp_path, monkeypatch):
    wl = make("ingest", tmp_path)
    assert [n for n, w in sorted(workloads.WORKLOADS.items()) if w.calibrated] == \
        ["baselines", "ingest"]
    calibration = calibrate.Calibration()
    _, rounds, *_ = workloads.run(wl, seconds=0, calibration=calibration)
    assert len(rounds) == 1 and len(calibration.times) == calibrate.REPS

    monkeypatch.setattr(calibration, "times", [2 * calibrate.REFERENCE_S])
    assert calibration.slowdown() == pytest.approx(2.0)
    metrics = {"setup_s": {"value": 0.5, "unit": "s"},
               "wall_s": {"value": 4.0, "unit": "s"},
               "trips_per_s": {"value": 10.0, "unit": "trips/s"},
               "peak_rss_mb": {"value": 80.0, "unit": "MB"},
               "data.rows": {"value": 7.0, "unit": "count"}}
    calibrate.at_reference_speed(metrics, calibration.slowdown())
    assert {k: v["value"] for k, v in metrics.items()} == {
        "setup_s": 0.5, "wall_s": 2.0, "trips_per_s": 20.0, "peak_rss_mb": 80.0, "data.rows": 7.0}


# Per-layer metrics each workload must move, and some it must leave at zero.
TRACED = {
    "ingest": (["data.parse_s", "data.rows", "data.skipped", "data.select_s", "data.coords_s",
                "data.series_s", "data.write_s"], ["tensor.conv2d.fwd_s", "bench.lasso_s"]),
    "train_paper": (["training.forward_s", "training.backward_s", "training.adam_s",
                     "training.validate_s", "training.steps", "training.samples",
                     "training.step_s", "tensor.conv2d.bwd_s", "tensor.nodes", "model.build_s",
                     "layers.lstm_s", "model.head_s"], ["data.parse_s", "bench.ha_s"]),
    "predict_paper": (["model.load_ckpt_s", "layers.conv_block_s", "tensor.conv2d.fwd_s",
                       "tensor.affine.calls"], ["tensor.conv2d.bwd_s", "training.adam_s",
                                                "training.validate_s"]),
    "baselines": (["bench.ha_s", "bench.ridge_s", "bench.lasso_s", "bench.lasso_calls",
                   "bench.mlp_s", "bench.stdi_s"], ["data.parse_s", "model.load_ckpt_s"]),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_run_reports_its_layers(name, tmp_path):
    wl = make(name, tmp_path)
    tracer = Tracer()
    tracer.install(stdinet)
    try:
        _, rounds, _, failed, errors, layers = workloads.run(wl, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert errors == [] and failed == 0 and len(rounds) == 1
    assert set(layers) == set(SECONDS) | set(COUNTS)
    moved, flat = TRACED[name]
    assert all(layers[m]["value"] > 0 for m in moved), {m: layers[m] for m in moved}
    assert all(layers[m]["value"] == 0 for m in flat), {m: layers[m] for m in flat}


def test_ingest_check_rejects_moved_count_and_skips(tmp_path):
    wl = make("ingest", tmp_path)
    try:
        run_once(wl)
    finally:
        wl.stop()
    blob = bytearray(wl.out.read_bytes())
    header = checks.STDM_HEADER.size
    values = np.frombuffer(bytes(blob[header:]), dtype="<f4").copy()
    frames = values.reshape(-1, 2, *wl.grid)
    t, r, c = np.argwhere(frames[:, 0] > 0)[0]
    frames[t, 0, r, c] -= 1                       # one rental moves to the next cell
    frames[t, 0, r, (c + 1) % wl.grid[1]] += 1
    wl.out.write_bytes(bytes(blob[:header]) + frames.astype("<f4").tobytes())
    assert any("differ from the generator" in e for e in wl.check_round(first=False))

    wl2 = make("ingest", tmp_path / "again")
    try:
        run_once(wl2)
    finally:
        wl2.stop()
    wl2.audit.skipped["unparsable"] -= 1
    wl2.audit.skipped["out_of_bounds"] += 1
    assert any("skip counts" in e for e in wl2.check_round(first=False))


def test_ingest_check_rejects_grid_out_of_geographic_order(tmp_path):
    wl = make("ingest", tmp_path)
    try:
        run_once(wl)
    finally:
        wl.stop()
    # Swap the north-west and south-east stations in the map and in the
    # series alike: every count still matches, only the bands are wrong.
    station_map = json.loads(wl.map_path.read_text())
    rows, cols = wl.grid
    nw = next(s for s, v in station_map.items() if v[:2] == [0, 0])
    se = next(s for s, v in station_map.items() if v[:2] == [rows - 1, cols - 1])
    station_map[nw][:2], station_map[se][:2] = station_map[se][:2], station_map[nw][:2]
    wl.map_path.write_text(json.dumps(station_map))
    blob = wl.out.read_bytes()
    header = checks.STDM_HEADER.size
    frames = np.frombuffer(blob[header:], dtype="<f4").reshape(-1, 2, rows, cols).copy()
    frames[:, :, 0, 0], frames[:, :, -1, -1] = frames[:, :, -1, -1].copy(), frames[:, :, 0, 0].copy()
    wl.out.write_bytes(blob[:header] + frames.astype("<f4").tobytes())
    errors = wl.check_round(first=False)
    assert errors and all("grid band" in e for e in errors)


def test_training_check_rejects_corruptions(tmp_path):
    wl = make("train_paper", tmp_path)
    try:
        run_once(wl)
    finally:
        wl.stop()
    pred, target, loss = wl.first
    h = wl.history
    params = [(n, p.data) for n, p in wl.model.named_tensors()]
    good = dict(first_pred=pred, first_target=target, first_loss=loss,
                train_loss=h.train_loss, params=params, val_preds=wl.val_preds,
                val_targets=wl.val_targets, val_rmse=h.val_rmse[h.best_epoch])
    assert checks.check_training(**good) == []
    bad_param = [(n, v.copy()) for n, v in params]
    bad_param[0][1].flat[0] = np.nan
    for change in (dict(first_loss=loss * 1.01),
                   dict(train_loss=h.train_loss[::-1]),
                   dict(params=bad_param),
                   dict(val_rmse=good["val_rmse"] + 0.01)):
        assert checks.check_training(**{**good, **change}) != [], change


def test_prediction_check_rejects_corruptions(tmp_path):
    wl = make("predict_paper", tmp_path)
    try:
        run_once(wl)
    finally:
        wl.stop()
    params = wl.reference_params()
    reference = wl.windows[:2]
    assert checks.check_prediction(wl.preds, wl.preds_small, params, reference) == []

    negative = wl.preds.copy()
    negative[-1, 0, 0, 0] = -1.0
    assert any("negative" in e for e in
               checks.check_prediction(negative, wl.preds_small, params, []))
    shifted = wl.preds_small.copy()
    shifted[0] += 0.5
    assert any("batch size" in e for e in
               checks.check_prediction(wl.preds, shifted, params, []))
    wrong = dict(params)
    wrong["interval.lin_b.bias"] = params["interval.lin_b.bias"] + 1.0
    assert any("numpy forward" in e for e in
               checks.check_prediction(wl.preds, wl.preds_small, wrong, reference))


def test_baseline_checks_reject_corruptions(tmp_path):
    wl = make("baselines", tmp_path)
    try:
        run_once(wl)
    finally:
        wl.stop()
    series = wl.series[0]
    seq_len = wl.config.dims.seq_len
    tol = 1e-6
    (_, test, boundary), ha = wl.calls["ha"][0]
    epochs = [w.target_epoch for w in test]
    assert checks.check_ha(ha, series.values, series.start_epoch, boundary, epochs) == []
    assert checks.check_ha(ha + 1e-3, series.values, series.start_epoch, boundary, epochs) != []

    for (train, _, kind, *_), fitted in wl.calls["linear"][:2]:
        x, y = checks.design(series.values, [w.target_index for w in train], seq_len)
        check = checks.check_ridge if kind == "ridge" else \
            lambda *a: checks.check_lasso(*a, tol)
        assert check(x, y, fitted.weights, fitted.intercept, fitted.lam) == []
        moved = fitted.weights.copy()
        moved[np.unravel_index(np.argmax(np.abs(moved)), moved.shape)] *= 1.05
        assert check(x, y, moved, fitted.intercept, fitted.lam) != [], kind

    report = wl.reports[0]
    rows = [(r.method, r.metrics.z) for r in report.rows]
    grid = (series.rows, series.cols)
    assert checks.check_report_sizes(rows, report.n_test, report.n_test, grid) == []
    rows[0] = (rows[0][0], rows[0][1] - 1)
    assert checks.check_report_sizes(rows, report.n_test, report.n_test, grid) != []


def _run_py(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "predict_paper", "--seed", "3",
           "--seconds", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_py(ROOT, "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    done = _run_py(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
