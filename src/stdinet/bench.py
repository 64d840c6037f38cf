"""Reference baselines and the benchmark runner.

RMSE and MAE (``compute_metrics``, shared with the training loop's
validation) pool every predicted value: all stations, both channels, all
test intervals share one denominator z.  Per-channel numbers are reported
additionally but are not the headline.

The runner can evaluate the published method set on any ingested series and
prints the RMSE/MAE figures reported for STDI-Net's NYC 2014 evaluation next
to the reproduced ones.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .data import TEST_DAYS, VAL_FRAC, hour_table, make_windows, split_dataset, windows_to_arrays
from .errors import DataError, UsageError
from .model import MODEL_KINDS, ModelDims, build_model
from .tensor import resolve_dtype
from .training import FIELD_TYPES, MetricPair, TrainConfig, compute_metrics, fit, predict_windows

# RMSE/MAE reported for each method on the 2014 NYC Citi Bike benchmark,
# shown beside reproduced numbers.  The exact station selection and grid
# layout behind these figures are not recoverable, so they are context, not
# a tolerance target.
REFERENCE_RESULTS = {
    "HA": (10.7308, 5.8374),
    "Lasso": (8.4947, 3.6799),
    "Ridge": (8.4699, 3.6984),
    "MLP": (7.1888, 3.3388),
    "SpatialFC": (5.6558, 2.6218),
    "TemporalFC": (5.2614, 2.3914),
    "SpatialTemporalFC": (5.0832, 2.3476),
    "SpatialDI": (4.9077, 2.3457),
    "TemporalDI": (4.7788, 2.2582),
    "UnifiedSpatial": (6.1493, 2.9533),
    "STDIFusion": (4.8149, 2.2995),
    "STDIEmbedding": (4.6154, 2.1783),
    "STDI": (4.6339, 2.1946),
}

BASELINES = ("HA", "Lasso", "Ridge", "MLP")
ALL_METHODS = BASELINES + MODEL_KINDS

SUITES = {
    "table1": ["HA", "Lasso", "Ridge", "MLP", "STDI"],
    "table2": ["SpatialFC", "TemporalFC", "SpatialTemporalFC",
               "SpatialDI", "TemporalDI", "STDI"],
    "table3": ["UnifiedSpatial", "SpatialFC", "STDIFusion", "STDIEmbedding", "STDI"],
}
SUITES["all"] = list(dict.fromkeys(SUITES["table1"] + SUITES["table2"] + SUITES["table3"]))


# ---------------------------------------------------------------------------
# metrics


def per_channel_metrics(preds, targets):
    """Supplementary rental/return breakdown of the pooled metrics."""
    out = {}
    for idx, name in ((0, "rental"), (1, "return")):
        out[name] = compute_metrics(preds[:, idx], targets[:, idx])
    return out


# ---------------------------------------------------------------------------
# historical average


def baseline_ha(series, test_windows, boundary_epoch):
    """Predict each (station, channel) by its training mean at that hour.

    Training intervals are those starting before ``boundary_epoch``; at
    least one full week of them is required.  Hours never seen in training
    predict zero.
    """
    index = np.arange(series.length)
    train = series.epoch_of(index) < boundary_epoch
    hours = series.hour_of(index)[train]
    if len(hours) < 168:
        raise DataError(f"historical average needs a training week, got {len(hours)} intervals")
    # np.add.at sums in index order, the order a running per-hour sum takes.
    sums = np.zeros((24, *series.values.shape[1:]))
    np.add.at(sums, hours, series.values[train])
    counts = np.bincount(hours, minlength=24).reshape(24, 1, 1, 1)
    means = sums / np.maximum(counts, 1)
    return means[series.hour_of(test_windows.index)]


# ---------------------------------------------------------------------------
# linear baselines


def _design(windows):
    inputs, _, targets = windows_to_arrays(windows)
    n = inputs.shape[0]
    return inputs.reshape(n, -1).astype(np.float64), targets.reshape(n, -1).astype(np.float64)


def ridge_closed_form(x, y, lam):
    """(X^T X + lam I)^-1 X^T y with an unpenalized intercept via centering."""
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, xc.T @ yc)
    intercept = y_mean - x_mean @ weights
    return weights, intercept


def lasso_coordinate_descent(x, y, alpha, tol=1e-6, max_sweeps=1000):
    """Cyclic coordinate descent for (1/2n)||y - Xb||^2 + alpha*||b||_1.

    ``y`` is one output (n,) or m outputs (n, m) of the same design; the
    result is ``beta`` (f,) and a scalar intercept, or (f, m) and (m,).
    Every output is solved as if alone, but in the covariance-update form
    (Friedman, Hastie & Tibshirani, J. Stat. Softw. 33(1), 2010): the Gram
    matrix is shared, so one coordinate step moves all outputs at once.  The
    intercept is unpenalized (handled by centering).  An output stops when
    none of its coefficients moved more than ``tol`` in a sweep.
    """
    n, f = x.shape
    ys = y.reshape(n, -1)
    m = ys.shape[1]
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    gram = xc.T @ xc
    # One mean and one GEMV per output: a single (f, n) @ (n, m) GEMM rounds
    # differently from the per-output solve.
    y_mean = [ys[:, k].mean() for k in range(m)]
    cty = np.stack([xc.T @ (ys[:, k] - y_mean[k]) for k in range(m)], axis=1)
    diag = np.diag(gram)
    steps = [(j, diag[j], gram[:, j, None].copy()) for j in range(f) if diag[j] != 0.0]
    thresh = n * alpha
    beta = np.zeros((f, m))
    # The outputs still moving, and their beta, q = gram @ beta and cty.
    live = np.arange(m)
    b, q, c = beta.copy(), np.zeros((f, m)), cty
    for _ in range(max_sweeps):
        moved = np.zeros(len(live))
        for j, d, g in steps:
            rho = c[j] - q[j] + d * b[j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - thresh, 0.0) / d
            delta = new - b[j]
            q += g * delta
            # A nil step keeps the old coefficient, as the one-output solve
            # did; writing ``new`` would flip the sign of some zeros.
            np.copyto(b[j], new, where=delta != 0.0)
            np.maximum(moved, np.abs(delta), out=moved)
        done = moved < tol
        if done.any():
            beta[:, live[done]] = b[:, done]
            keep = ~done
            live, b, q, c = live[keep], b[:, keep], q[:, keep], c[:, keep]
            if not len(live):
                break
    beta[:, live] = b
    intercept = np.array([y_mean[k] - x_mean @ np.ascontiguousarray(beta[:, k])
                          for k in range(m)])
    if y.ndim == 1:
        return beta[:, 0], intercept[0]
    return beta, intercept


@dataclass
class LinearBaseline:
    kind: str
    lam: float
    weights: np.ndarray
    intercept: np.ndarray

    def predict(self, windows):
        x, _ = _design(windows)
        return (x @ self.weights + self.intercept).reshape((-1, *windows.series.values.shape[1:]))


# The penalties the linear baselines choose from on validation RMSE.
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)


def baseline_linear(train_windows, val_windows, kind):
    """Per-output ridge or lasso with the penalty chosen on validation RMSE."""
    if kind not in ("ridge", "lasso"):
        raise UsageError(f"linear baseline kind must be ridge or lasso, got {kind!r}")
    x_train, y_train = _design(train_windows)
    x_val, y_val = _design(val_windows)

    best = None
    for lam in LAMBDA_GRID:
        if kind == "ridge":
            weights, intercept = ridge_closed_form(x_train, y_train, lam)
        else:
            weights, intercept = lasso_coordinate_descent(x_train, y_train, lam)
        val_pred = x_val @ weights + intercept
        rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
        if best is None or rmse < best[0]:
            best = (rmse, lam, weights, intercept)
    _, lam, weights, intercept = best
    return LinearBaseline(kind=kind, lam=lam, weights=weights, intercept=intercept)


# ---------------------------------------------------------------------------
# MLP baseline


def MlpModel(dims, seed, dtype=T.STANDARD):
    """The MLP baseline: the model kind "MLP", which ignores the hour label."""
    return build_model("MLP", dims, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# benchmark runner


# TrainConfig's type table with the two nested configs beside it.
_FIELD_TYPES = {**FIELD_TYPES, "ModelDims": (ModelDims,), "TrainConfig": (TrainConfig,)}


@dataclass
class BenchConfig:
    """Benchmark settings, checked when built (dims and train check their
    own fields): a bad field raises UsageError."""
    dims: ModelDims = field(default_factory=ModelDims)
    train: TrainConfig = field(default_factory=TrainConfig)
    test_days: int = TEST_DAYS
    val_frac: float = VAL_FRAC
    embeddings: str = "generate"    # or the path of an hour table file

    def __post_init__(self):
        for f in fields(self):
            value, types = getattr(self, f.name), _FIELD_TYPES[f.type]
            if type(value) not in types:
                raise UsageError(f"bench config: {f.name} must be "
                                 f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        # val_frac's range is split_dataset's check.
        if self.test_days < 1:
            raise UsageError(f"bench config: test_days must be positive, got {self.test_days}")

    def digest(self):
        raw = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()[:12]


@dataclass
class BenchRow:
    method: str
    metrics: MetricPair
    per_channel: dict
    reference: tuple | None
    config_digest: str
    seed: int
    runtime_s: float
    detail: dict = field(default_factory=dict)


@dataclass
class BenchReport:
    rows: list
    seed: int
    config_digest: str
    n_test: int


def _method_predictions(method, series, splits, config, table):
    train, val, test = splits
    seed = config.train.seed
    detail = {}
    if method == "HA":
        boundary = series.epoch_of(int(test.index.min()))
        preds = baseline_ha(series, test, boundary)
    elif method in ("Ridge", "Lasso"):
        model = baseline_linear(train, val, method.lower())
        preds = model.predict(test)
        detail["lambda"] = model.lam
    else:
        # run_benchmark has checked the method: the MLP or a model kind.
        model = build_model(method, config.dims, seed=seed, embedding=table,
                            dtype=resolve_dtype(config.train.precision))
        model, history = fit(model, train, val, config.train)
        preds = predict_windows(model, test)
        detail["epochs_run"] = history.epochs_run
    return preds, detail


def run_benchmark(series, methods, config=None):
    """Train and evaluate each method on one shared chronological split."""
    config = config or BenchConfig()
    if len(set(methods)) != len(methods):
        raise UsageError("each method may be requested at most once")
    for method in methods:
        if method not in ALL_METHODS:
            raise UsageError(
                f"unknown method {method!r}; valid methods: {', '.join(ALL_METHODS)}"
            )
    splits = split_dataset(make_windows(series, config.dims.seq_len),
                           test_days=config.test_days, val_frac=config.val_frac)
    test = splits[2]
    test_targets = windows_to_arrays(test)[2].astype(np.float64)
    table = None
    if any(method in MODEL_KINDS for method in methods):
        table = hour_table(config.embeddings, config.dims.embed_dim, config.train.seed)

    digest = config.digest()
    rows = []
    for method in methods:
        started = time.perf_counter()
        preds, detail = _method_predictions(method, series, splits, config, table)
        runtime = time.perf_counter() - started
        metrics = compute_metrics(preds, test_targets)
        rows.append(BenchRow(
            method=method,
            metrics=metrics,
            per_channel={k: asdict(v) for k, v in per_channel_metrics(preds, test_targets).items()},
            reference=REFERENCE_RESULTS.get(method),
            config_digest=digest,
            seed=config.train.seed,
            runtime_s=runtime,
            detail=detail,
        ))
    return BenchReport(rows=rows, seed=config.train.seed, config_digest=digest,
                       n_test=len(test))


# ---------------------------------------------------------------------------
# report output


def render_table(report):
    """Aligned text table with the published reference numbers beside ours."""
    header = f"{'method':<18} {'rmse':>10} {'mae':>10} {'ref_rmse':>10} {'ref_mae':>10} {'runtime_s':>10}"
    lines = [header, "-" * len(header)]
    for row in report.rows:
        ref_rmse = f"{row.reference[0]:.4f}" if row.reference else "-"
        ref_mae = f"{row.reference[1]:.4f}" if row.reference else "-"
        lines.append(
            f"{row.method:<18} {row.metrics.rmse:>10.4f} {row.metrics.mae:>10.4f} "
            f"{ref_rmse:>10} {ref_mae:>10} {row.runtime_s:>10.1f}"
        )
    lines.append(f"test windows: {report.n_test}  seed: {report.seed}  config: {report.config_digest}")
    return "\n".join(lines)


def write_csv(report, path):
    """Deterministic results CSV; wall-clock runtime stays in the manifest."""
    lines = ["method,rmse,mae,z,seed,config_digest,runtime_s"]
    for row in report.rows:
        lines.append(
            f"{row.method},{row.metrics.rmse:.6f},{row.metrics.mae:.6f},"
            f"{row.metrics.z},{row.seed},{row.config_digest},"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def report_json(report):
    return {
        "seed": report.seed,
        "config_digest": report.config_digest,
        "n_test": report.n_test,
        "rows": [
            {
                "method": row.method,
                "rmse": row.metrics.rmse,
                "mae": row.metrics.mae,
                "z": row.metrics.z,
                "per_channel": row.per_channel,
                "reference_rmse": row.reference[0] if row.reference else None,
                "reference_mae": row.reference[1] if row.reference else None,
                "detail": row.detail,
            }
            for row in report.rows
        ],
    }
