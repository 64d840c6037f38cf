"""Command-line surface: ingest, train, eval, gradcheck, bench.

Exit codes: 0 success, 1 verification/benchmark failure, 2 usage error,
3 data/schema error.  Logs go to stderr; results go to stdout and files.
Every command writes one run manifest next to its outputs; manifests are
the only artifacts allowed to differ (timestamps, wall clock) between
identical runs.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as D
from .bench import (BenchConfig, SUITES, compute_metrics, per_channel_metrics, render_table,
                    report_json, run_benchmark, write_csv)
from .errors import DataError, DivergenceError, DomainError, UsageError
from .gradcheck import COMPOSED_THRESHOLD, OP_THRESHOLD, run_suite
from .model import MODEL_KINDS, ModelDims, TOY_DIMS, build_model, load_checkpoint, save_checkpoint
from .tensor import resolve_dtype
from .training import TrainConfig, fit, predict_windows

log = logging.getLogger("stdinet")

DATA_DIR_ENV = "STDI_DATA_DIR"

# The grid comes from the data, so every other dim is a --config key.
DIM_FIELDS = tuple(f.name for f in dataclasses.fields(ModelDims) if f.name not in ("rows", "cols"))
SPLIT_FIELDS = ("test_days", "val_frac")


def resolve_path(path):
    """Relative paths fall back to $STDI_DATA_DIR when not found locally."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and (Path(root) / p).exists():
        return Path(root) / p
    return p


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# OpenBLAS queries by symbol: numpy 2 wheels bundle scipy-openblas, older
# wheels an OpenBLAS with 64-bit ints, and both suffix their symbols 64_.
BLAS_QUERIES = {
    "core": (ctypes.c_char_p, ("scipy_openblas_get_corename64_", "openblas_get_corename64_")),
    "threads": (ctypes.c_int, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")),
}


def _numpy_blas():
    """A handle on numpy's linear-algebra extension, through which its BLAS's
    symbols resolve, or None."""
    from numpy.linalg import _umath_linalg
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


def blas_info(lib=None):
    """The OpenBLAS core name and thread count of numpy's BLAS.

    Float32 results after a GEMM are byte-identical only under one BLAS
    kernel, so a run's manifest names it.  Each value is ``"unknown"``
    when ``lib`` (by default numpy's own) exports none of its functions.
    """
    lib = _numpy_blas() if lib is None else lib
    info = {}
    for key, (restype, names) in BLAS_QUERIES.items():
        query = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if query is None:
            info[key] = "unknown"
            continue
        query.restype = restype
        value = query()
        info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def write_manifest(path, command, config, seed, inputs, artifacts, started):
    D.write_json_artifact(path, {
        "command": command,
        "config": config,
        "seed": seed,
        "blas": blas_info(),
        "input_digests": {str(p): _sha256(p) for p in inputs if Path(p).is_file()},
        "artifacts": [str(a) for a in artifacts],
        "wall_clock_s": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def parse_overrides(text):
    """Parse "key=value,key=value" into a dict with typed values."""
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"bad config override {chunk!r}; expected key=value")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _typed(key, value, like):
    try:
        return type(like)(value)
    except ValueError:
        raise UsageError(f"config {key}={value!r}: expected {type(like).__name__}") from None


def apply_overrides(overrides, config):
    """A copy of ``config`` with key=value overrides on its train config, dims and split."""
    train = dataclasses.asdict(config.train)
    dims = dataclasses.asdict(config.dims)
    split = {key: getattr(config, key) for key in SPLIT_FIELDS}
    for key, value in overrides.items():
        target = train if key in train else dims if key in DIM_FIELDS else split
        if key not in target:
            raise UsageError(f"unknown config key {key!r}")
        target[key] = _typed(key, value, target[key])
    return dataclasses.replace(config, train=TrainConfig(**train), dims=ModelDims(**dims), **split)


def run_config(args, series):
    """The settings of a train or bench run on ``series``: defaults, then --config."""
    config = BenchConfig(dims=ModelDims(rows=series.rows, cols=series.cols),
                         train=TrainConfig(seed=args.seed), embeddings=args.embeddings)
    return apply_overrides(parse_overrides(args.config), config)


def parse_grid(text):
    """Parse "ROWSxCOLS" (e.g. 8x16) into two positive ints."""
    try:
        rows, cols = (int(p) for p in text.lower().split("x"))
    except ValueError:
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise UsageError(f"bad --grid {text!r}; expected ROWSxCOLS with positive integers, e.g. 8x16")
    return rows, cols


def embeddings_spec(text):
    """--embeddings: "generate", or a path resolved like every data path."""
    return text if text == "generate" else str(resolve_path(text))


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args):
    started = time.time()
    rows, cols = parse_grid(args.grid)
    if not 1 <= args.interval <= D.MAX_INTERVAL:
        raise UsageError(f"bad --interval {args.interval}; expected 1 to {D.MAX_INTERVAL} seconds, "
                         "the range of the series header's interval field")
    if args.stations not in (None, rows * cols):
        raise UsageError(f"bad --stations {args.stations}; grid {args.grid} needs {rows * cols}")
    trip_paths = [resolve_path(p) for p in args.trips]
    parse_started = time.perf_counter()
    trips, audit = D.parse_trip_files(trip_paths)
    parse_s = time.perf_counter() - parse_started
    log.info("parsed %d rows, accepted %d, skipped %d",
             audit.rows, audit.accepted, audit.total_skipped())
    stations = D.select_stations(trips, n=rows * cols)
    coords = D.station_coordinates(trips)
    grid = D.assign_grid([(sid, *coords[sid]) for sid in stations], rows, cols)
    t0, t1 = D.derive_time_range(trips, args.interval)
    series, counts = D.build_demand_series(trips, grid, t0, t1, args.interval)

    out = Path(args.out)
    D.write_demand_series(out, series)
    map_path = out.with_name(out.name + ".stations.json")
    D.write_station_map(map_path, grid)
    manifest_path = out.with_name(out.name + ".manifest.json")
    write_manifest(manifest_path, "ingest",
                   {"stations": rows * cols, "grid": args.grid,
                    "interval": args.interval, "rows": audit.rows, "accepted": audit.accepted,
                    "skipped": dict(audit.skipped), "csv_rows": audit.csv_rows,
                    "parse_s": round(parse_s, 6),
                    "trips_per_s": round(audit.rows / parse_s, 1), "counters": dict(counts)},
                   None, trip_paths, [out, map_path], started)
    print(f"series: {out}  intervals={series.length}  grid={rows}x{cols}")
    print(f"events: starts={int(series.values[:, 0].sum())} stops={int(series.values[:, 1].sum())}")
    return 0


def cmd_train(args):
    started = time.time()
    data_path = resolve_path(args.data)
    series = D.read_demand_series(data_path)
    config = run_config(args, series)
    dims, seed = config.dims, config.train.seed

    if args.model not in MODEL_KINDS:
        raise UsageError(f"unknown model kind {args.model!r}; valid kinds: {', '.join(MODEL_KINDS)}")
    # The series must fill the windows before a model of their length is built.
    windows = D.make_windows(series, dims.seq_len)
    train_w, val_w, _ = D.split_dataset(windows, config.test_days, config.val_frac)
    embedding = D.hour_table(config.embeddings, dims.embed_dim, seed)
    model = build_model(args.model, dims, seed=seed, embedding=embedding,
                        dtype=resolve_dtype(config.train.precision))
    log.info("training %s on %d windows (%d validation)", args.model, len(train_w), len(val_w))
    out = Path(args.out)
    log_path = out.with_name(out.name + ".log.jsonl")
    model, history = fit(model, train_w, val_w, config.train, log_path=log_path)

    extra = {
        "seq_len": dims.seq_len,
        "test_days": config.test_days,
        "val_frac": config.val_frac,
        "best_val_rmse": min(history.val_rmse),
        "seed": seed,
    }
    save_checkpoint(out, model, extra=extra)
    manifest_path = out.with_name(out.name + ".manifest.json")
    write_manifest(manifest_path, "train",
                   {"model": args.model, **dataclasses.asdict(config)},
                   seed, [data_path], [out, log_path], started)
    print(f"checkpoint: {out}")
    print(f"epochs_run: {history.epochs_run}  best_val_rmse: {min(history.val_rmse):.6f}")
    return 0


def _extra(extra, key, default, kind, bounds=None):
    """A checkpoint's ``extra`` value: an int, or for ``float`` any real number,
    inside the open interval ``bounds`` when one is given."""
    value = extra.get(key, default)
    allowed = (int, float) if kind is float else (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise DataError(f"checkpoint extra {key}={value!r}: expected {kind.__name__}")
    if bounds and not bounds[0] < value < bounds[1]:
        raise DataError(f"checkpoint extra {key}={value!r}: expected a value in "
                        f"({bounds[0]}, {bounds[1]})")
    return value


def cmd_eval(args):
    started = time.time()
    ckpt_path = resolve_path(args.ckpt)
    data_path = resolve_path(args.data)
    model, extra = load_checkpoint(ckpt_path)
    series = D.read_demand_series(data_path)
    if (series.rows, series.cols) != (model.dims.rows, model.dims.cols):
        raise DataError(
            f"series grid {series.rows}x{series.cols} does not match "
            f"checkpoint grid {model.dims.rows}x{model.dims.cols}"
        )
    # A model fit to counts divided by ``scale`` predicts on that scale, not in counts.
    if _extra(extra, "scale", 1, float) != 1:
        raise DataError(f"checkpoint extra scale={extra['scale']!r}: the model was fit to "
                        "scaled counts, which eval does not score")
    windows = D.make_windows(series, model.dims.seq_len)
    _, _, test = D.split_dataset(windows, test_days=_extra(extra, "test_days", D.TEST_DAYS, int),
                                 val_frac=_extra(extra, "val_frac", D.VAL_FRAC, float, (0, 1)))
    preds = predict_windows(model, test)
    targets = D.windows_to_arrays(test)[2].astype(np.float64)
    metrics = compute_metrics(preds, targets)
    per_channel = {k: dataclasses.asdict(v) for k, v in per_channel_metrics(preds, targets).items()}
    payload = {
        "rmse": metrics.rmse, "mae": metrics.mae, "z": metrics.z,
        "n_test": len(test), "per_channel": per_channel, "kind": model.kind,
    }
    print(f"{model.kind}: rmse={metrics.rmse:.6f} mae={metrics.mae:.6f} z={metrics.z}")
    print(json.dumps(payload, sort_keys=True))
    artifacts = []
    if args.json_out:
        D.write_json_artifact(args.json_out, payload)
        artifacts.append(args.json_out)
        manifest_path = Path(args.json_out).with_suffix(".manifest.json")
    else:
        manifest_path = ckpt_path.with_name(ckpt_path.name + ".eval.manifest.json")
    write_manifest(manifest_path, "eval", {"ckpt": str(ckpt_path)}, extra.get("seed"),
                   [ckpt_path, data_path], artifacts, started)
    return 0


def cmd_gradcheck(args):
    started = time.time()
    if args.dims != "toy":
        raise UsageError("only the 'toy' dims preset is supported")
    if args.seeds < 1:
        raise UsageError(f"bad --seeds {args.seeds}; gradcheck needs at least one seed")
    results, ok = run_suite(TOY_DIMS, n_seeds=args.seeds)
    for name, (err, threshold) in results.items():
        status = "pass" if err < threshold else "FAIL"
        print(f"{status}  {name:<18} max_rel_err={err:.3e}  threshold={threshold:g}")
    print(f"gradcheck: {'pass' if ok else 'FAIL'} "
          f"({len(results)} components, {args.seeds} seeds, "
          f"op<{OP_THRESHOLD:g}, composed<{COMPOSED_THRESHOLD:g})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "gradcheck.json"
    D.write_json_artifact(report_path, {name: {"max_rel_err": err, "threshold": threshold}
                                        for name, (err, threshold) in results.items()})
    write_manifest(out_dir / "gradcheck.manifest.json", "gradcheck",
                   {"dims": args.dims, "seeds": args.seeds, "passed": ok},
                   None, [], [report_path], started)
    return 0 if ok else 1


def cmd_bench(args):
    started = time.time()
    data_path = resolve_path(args.data)
    series = D.read_demand_series(data_path)
    config = run_config(args, series)
    methods = SUITES[args.suite]
    report = run_benchmark(series, methods, config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"bench_{args.suite}.csv"
    json_path = out_dir / f"bench_{args.suite}.json"
    write_csv(report, csv_path)
    D.write_json_artifact(json_path, report_json(report))
    manifest_path = out_dir / f"bench_{args.suite}.manifest.json"
    write_manifest(manifest_path, "bench",
                   {"suite": args.suite, "methods": methods,
                    "config": dataclasses.asdict(config),
                    "runtimes_s": {r.method: round(r.runtime_s, 3) for r in report.rows}},
                   config.train.seed, [data_path], [csv_path, json_path], started)
    print(render_table(report))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stdinet",
        description="Grid demand forecasting: ingestion, training, evaluation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="turn trip CSVs into a demand series file")
    p.add_argument("--trips", nargs="+", required=True, help="trip CSV paths")
    p.add_argument("--out", required=True, help="output series file")
    p.add_argument("--stations", type=int, help="stations to keep; default: the grid's cells")
    p.add_argument("--grid", default="8x16", help="rows x cols, e.g. 8x16")
    p.add_argument("--interval", type=int, default=3600, help="interval length in seconds")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model on a series file")
    p.add_argument("--data", required=True, help="demand series file")
    p.add_argument("--model", required=True, help=f"one of: {', '.join(MODEL_KINDS)}")
    p.add_argument("--embeddings", default="generate", type=embeddings_spec,
                   help="hour embedding text file, or 'generate' for the seeded table")
    p.add_argument("--config", default="", help="comma-separated key=value overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a series' test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json-out", default="", help="also write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--dims", default="toy", help="dims preset (toy)")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", default=".", help="directory for the report and manifest")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="run a benchmark suite on a series file")
    p.add_argument("--data", required=True)
    p.add_argument("--suite", choices=sorted(SUITES), default="table1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default="", help="comma-separated key=value overrides")
    p.add_argument("--embeddings", default="generate", type=embeddings_spec,
                   help="hour embedding text file, or 'generate' for the seeded table")
    p.add_argument("--out", default=".", help="directory for CSV/JSON/manifest outputs")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        log.error("%s", exc)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        log.error("%s", exc)
        return 3
    except DivergenceError as exc:
        log.error("%s", exc)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
