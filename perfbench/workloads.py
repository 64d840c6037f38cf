"""The benchmark's four workloads and the closed loop that drives them.

Each workload makes its set-up (what a user pays on every run of the
matching CLI command), then runs whole rounds of the same operations, one
after another, until the run's seconds are used.  A round's outputs are
checked after the round, outside its timing.  Every metric is the median
of its per-round values.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import inputs

SETUPS = 3          # set-ups per run; setup_s reports their median
N_REFERENCE = 3     # windows checked against the numpy forward


def _patch(patches, owner, name, make):
    original = getattr(owner, name)
    patches.append((owner, name, original))
    setattr(owner, name, make(original))


def _unpatch(patches):
    while patches:
        owner, name, original = patches.pop()
        setattr(owner, name, original)


def _trips(windows):
    """Trips in the target frames of a window list (starts plus stops)."""
    return float(sum(w.target.sum() for w in windows))


def _stepped(n, batch_size):
    """Windows in the batches fit steps on: a trailing batch of one is dropped."""
    return n - 1 if n > 1 and n % batch_size == 1 else n


class Workload:
    """Set-up, one round, and the checks of one round's outputs."""

    ops_per_round = 1
    calibrated = False      # reported at the reference speed of calibrate.py

    def __init__(self, stdinet, data_dir, seed, size):
        self.st = stdinet
        self.data_dir = data_dir
        self.seed = seed
        self.size = size
        self._patches = []

    def setup(self):
        raise NotImplementedError

    def start(self):
        """Install the hooks the checks need; called once before the rounds."""

    def stop(self):
        _unpatch(self._patches)

    def round(self):
        raise NotImplementedError

    def check_round(self, first):
        return []


class Ingest(Workload):
    """Trip CSVs -> station grid -> .stdm and station map, as ``stdinet ingest``.

    Each round then reads the written series back and cuts its windows, the
    first step of every later command.
    """

    calibrated = True

    def setup(self):
        meta = json.loads((self.data_dir / "meta.json").read_text())
        self.paths = [self.data_dir / name for name in meta["files"]]
        self.grid = tuple(meta["grid"])
        self.stations = meta["stations"]
        self.out = self.data_dir / "run.stdm"
        self.map_path = self.data_dir / "run.stdm.stations.json"

    def start(self):
        self.expected = dict(np.load(self.data_dir / "expected.npz"))

    def round(self):
        D = self.st.data
        started = time.perf_counter()
        records, audit = D.parse_trip_files(self.paths)
        stations = D.select_stations(records, n=self.stations)
        coords = D.station_coordinates(records)
        grid = D.assign_grid([(sid, *coords[sid]) for sid in stations], *self.grid)
        t0, t1 = D.derive_time_range(records, 3600)
        series, _ = D.build_demand_series(records, grid, t0, t1, 3600)
        D.write_demand_series(self.out, series)
        D.write_station_map(self.map_path, grid)
        ingested = time.perf_counter()
        windows = D.make_windows(D.read_demand_series(self.out), 3)
        done = time.perf_counter()
        self.audit = audit
        last_hour = np.stack([w.inputs[-1] for w in windows]).astype(np.float64)
        targets = np.stack([w.target for w in windows]).astype(np.float64)
        return {
            "trips_per_s": audit.rows / (ingested - started),
            "samples_per_s": audit.accepted / (ingested - started),
            # Windows ready per second of the whole round: reading them
            # back alone takes about a millisecond, too short to time.
            "windows_per_s": len(windows) / (done - started),
            # RMSE of last-hour persistence on the ingested series.
            "val_rmse": float(np.sqrt(np.mean((targets - last_hour) ** 2))),
        }

    def check_round(self, first):
        return checks.check_ingest(self.expected, self.audit.rows, self.audit.skipped,
                                   self.out, self.map_path, self.grid)


def _series_windows(stdinet, data_dir, seq_len):
    series = stdinet.data.read_demand_series(data_dir / "series.stdm")
    return series, stdinet.data.make_windows(series, seq_len)


class TrainPaper(Workload):
    """``fit`` of STDI at paper dims for a fixed number of epochs, then eval."""

    def setup(self):
        st, size = self.st, self.size
        self.model = None       # the previous set-up's model is freed first
        self.dims = inputs.model_dims(st, size)
        self.series, windows = _series_windows(st, self.data_dir, self.dims.seq_len)
        self.train, self.val, _ = st.data.split_dataset(
            windows, test_days=size["test_days"], val_frac=size["val_frac"])
        self.config = st.TrainConfig(epochs=size["epochs"], patience=size["epochs"],
                                     batch_size=size["batch_size"], seed=self.seed)
        self.model = st.build_model("STDI", self.dims, seed=self.seed)

    def start(self):
        self.initial = self.model.snapshot()
        self.val_targets = np.stack([self.series.values[w.target_index] for w in self.val])
        self.train_trips = _trips(self.train)
        self.first = None

        def capture(original):
            def mse_loss(pred, target):
                loss = original(pred, target)
                if self.first is None:
                    self.first = (pred.data.copy(), target.data.copy(), loss.item())
                return loss
            return mse_loss
        _patch(self._patches, self.st.training, "mse_loss", capture)

    def round(self):
        self.first = None
        self.model.restore(self.initial)
        started = time.perf_counter()
        self.model, self.history = self.st.training.fit(
            self.model, self.train, self.val, self.config)
        fitted = time.perf_counter()
        # Eval of the fitted model on every window it saw; validation first.
        preds = self.st.training.predict_windows(self.model, self.val + self.train)
        done = time.perf_counter()
        self.val_preds = preds[:len(self.val)]
        epochs = self.history.epochs_run
        stepped = _stepped(len(self.train), self.config.batch_size) * epochs
        return {
            "samples_per_s": stepped / (fitted - started),
            "trips_per_s": self.train_trips * epochs / (fitted - started),
            "windows_per_s": len(preds) / (done - fitted),
            "val_rmse": self.history.val_rmse[self.history.best_epoch],
        }

    def check_round(self, first):
        h = self.history
        return checks.check_training(
            *self.first, h.train_loss,
            [(n, p.data) for n, p in self.model.named_tensors()],
            self.val_preds, self.val_targets, h.val_rmse[h.best_epoch])


class PredictPaper(Workload):
    """``predict_windows`` in eval mode with a checkpoint loaded at set-up."""

    def setup(self):
        self.model = None       # the previous set-up's model is freed first
        self.model, _ = self.st.load_checkpoint(self.data_dir / "model.ckpt")
        self.series, self.windows = _series_windows(self.st, self.data_dir, self.model.dims.seq_len)

    def start(self):
        self.targets = np.stack([self.series.values[w.target_index] for w in self.windows])
        self.trips = _trips(self.windows)
        self.subset = self.windows[:4 * self.size["train_batch"]]

    def round(self):
        predict = self.st.training.predict_windows
        started = time.perf_counter()
        self.preds = predict(self.model, self.windows, batch_size=self.size["batch_size"])
        predicted = time.perf_counter()
        self.preds_small = predict(self.model, self.subset, batch_size=self.size["train_batch"])
        done = time.perf_counter()
        return {
            "windows_per_s": len(self.windows) / (predicted - started),
            "trips_per_s": self.trips / (predicted - started),
            # Windows per second at the training batch size.
            "samples_per_s": len(self.subset) / (done - predicted),
            "val_rmse": float(np.sqrt(np.mean((self.preds - self.targets) ** 2))),
        }

    def reference_params(self):
        """The loaded model's arrays by checkpoint name; views, not copies."""
        params = {n: p.data for n, p in self.model.named_tensors()}
        for n, s in self.model.named_states():
            params[f"{n}.running_mean"] = s.running_mean
            params[f"{n}.running_var"] = s.running_var
        return params

    def check_round(self, first):
        reference = self.windows[:N_REFERENCE] if first else []
        return checks.check_prediction(self.preds, self.preds_small,
                                       self.reference_params(), reference)


class Baselines(Workload):
    """``run_benchmark`` with suite table1 (HA, Lasso, Ridge, MLP, STDI).

    A round runs the table on each of a few seeded series.  Lasso's
    coordinate descent sweeps until it converges, so its work depends on
    the data; summing over several series keeps a round's work close to
    the same from one seed to the next.
    """

    calibrated = True

    def setup(self):
        st, size = self.st, self.size
        self.series = [st.data.read_demand_series(self.data_dir / f"series-{i}.stdm")
                       for i in range(size["series"])]
        self.config = st.BenchConfig(
            dims=inputs.model_dims(st, size),
            train=st.TrainConfig(epochs=size["epochs"], patience=size["epochs"],
                                 batch_size=size["batch_size"], seed=self.seed))
        self.methods = list(st.SUITES["table1"])
        self.ops_per_round = len(self.methods) * len(self.series)

    def start(self):
        bench = self.st.bench

        def keep(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    out = original(*args, **kwargs)
                    self.calls[name].append((args, out))
                    return out
                return wrapper
            return make

        def timed(name):
            def make(original):
                def wrapper(model, windows, *args, **kwargs):
                    started = time.perf_counter()
                    out = original(model, windows, *args, **kwargs)
                    self.calls[name].append((len(windows), time.perf_counter() - started, out))
                    return out
                return wrapper
            return make

        _patch(self._patches, bench, "baseline_ha", keep("ha"))
        _patch(self._patches, bench, "baseline_linear", keep("linear"))
        _patch(self._patches, bench, "fit", timed("fit"))
        _patch(self._patches, bench, "predict_windows", timed("predict"))

    def round(self):
        self.calls = {"ha": [], "linear": [], "fit": [], "predict": []}
        started = time.perf_counter()
        self.reports = [self.st.bench.run_benchmark(series, self.methods, self.config)
                        for series in self.series]
        wall = time.perf_counter() - started
        bs = self.config.train.batch_size
        fits, predicted = self.calls["fit"], self.calls["predict"]
        stepped = sum(_stepped(n, bs) * out[1].epochs_run for n, _, out in fits)
        test_trips = sum(_trips(args[1]) for args, _ in self.calls["ha"])
        stdi = [r.metrics.rmse for report in self.reports for r in report.rows
                if r.method == "STDI"]
        return {
            "samples_per_s": stepped / sum(t for _, t, _ in fits),
            "windows_per_s": sum(n for n, _, _ in predicted) / sum(t for _, t, _ in predicted),
            # Test-target trips scored per second, over every method.
            "trips_per_s": test_trips * len(self.methods) / wall,
            "val_rmse": float(np.mean(stdi)),
        }

    def check_round(self, first):
        errors = []
        tol = inspect.signature(self.st.bench.lasso_coordinate_descent).parameters["tol"].default
        seq_len = self.config.dims.seq_len
        linear = iter(self.calls["linear"])
        for series, report, ((_, test, boundary), ha_preds) in zip(
                self.series, self.reports, self.calls["ha"]):
            values = series.values
            errors += checks.check_ha(ha_preds, values, series.start_epoch, boundary,
                                      [w.target_epoch for w in test])
            for _ in range(2):      # Lasso and Ridge, in table order
                (train, _val, kind, *_), fitted = next(linear)
                x, y = checks.design(values, [w.target_index for w in train], seq_len)
                if kind == "ridge":
                    errors += checks.check_ridge(x, y, fitted.weights, fitted.intercept,
                                                 fitted.lam)
                else:
                    errors += checks.check_lasso(x, y, fitted.weights, fitted.intercept,
                                                 fitted.lam, tol)
            # The last test_days of target hours are the test set.
            end = series.start_epoch + 3600 * series.length
            n_test = sum(1 for t in range(seq_len, series.length)
                         if series.start_epoch + 3600 * t >= end - self.config.test_days * 86400)
            errors += checks.check_report_sizes(
                [(r.method, r.metrics.z) for r in report.rows], report.n_test, n_test,
                (series.rows, series.cols))
        return errors


WORKLOADS = {
    "ingest": Ingest,
    "train_paper": TrainPaper,
    "predict_paper": PredictPaper,
    "baselines": Baselines,
}


def run(workload, seconds, tracer=None, calibration=None):
    """Set up SETUPS times, then run whole rounds for ``seconds``.

    ``calibration``, if given, is sampled after each round, outside its
    timing.  Returns (setup seconds, per-round values, attempted, failed,
    errors, per-layer metrics or None).
    """
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_spans = tracer.split() if tracer else None

    workload.start()
    rounds, errors = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    try:
        while attempted == 0 or time.perf_counter() - begin < seconds:
            attempted += workload.ops_per_round
            started = time.perf_counter()
            try:
                values = workload.round()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += workload.ops_per_round
                continue
            values["wall_s"] = time.perf_counter() - started
            rounds.append(values)
            print(f"round {len(rounds)}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
                  file=sys.stderr)
            errors += workload.check_round(first=len(rounds) == 1)
            if calibration:
                calibration.sample()
    finally:
        workload.stop()

    layers = None
    if tracer:
        round_spans = tracer.split()
        wall = statistics.median(r["wall_s"] for r in rounds) if rounds else 0.0
        layers = tracer.metrics(setup_spans, SETUPS, round_spans, max(len(rounds), 1), wall)
    return statistics.median(setups), rounds, attempted, failed, errors, layers
