"""Seeded inputs for the stdinet benchmark, made once per seed and cached.

Each workload's inputs live in ``perfbench/.cache/<workload>/seed-<n>/``.
They are written by a separate process, so the generator's time and memory
never show in a measured run's ``setup_s`` or ``peak_rss_mb``.  Only the
newest seed of each workload is kept, which bounds the cache's disk use.

Regenerate by hand (from the root of a checkout):

    python3 perfbench/inputs.py --workload ingest --seed 0
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / ".cache"
# Bump when a generator changes, so stale caches are rebuilt.
VERSION = 4

# 2014-04-01 00:00:00 UTC, the first day of the NYC evaluation period.
EPOCH_2014_04_01 = 1396310400

TRIP_COLUMNS = (
    "tripduration", "starttime", "stoptime", "start station id",
    "start station name", "start station latitude", "start station longitude",
    "end station id", "end station name", "end station latitude",
    "end station longitude", "bikeid", "usertype", "birth year", "gender",
)
ISO_LAYOUT = "%Y-%m-%d %H:%M:%S"      # April to August 2014 files
SKIP_REASONS = ("unparsable", "stop_before_start", "out_of_bounds")

# Model dims beyond the grid: the paper's (the ModelDims defaults: 32
# channels, LSTM 1024, rank 64, embed 50), a small set for the baselines
# table, and a tiny one for tests.
PAPER_DIMS = {}
SMALL_DIMS = dict(channels=8, lstm_hidden=32, rank=8, embed_dim=10, fusion_dim=8)
TINY_DIMS = dict(channels=4, lstm_hidden=8, rank=4, embed_dim=6, fusion_dim=8)

# Sizes of every workload.  ``tiny`` variants keep the benchmark's own tests
# fast; the measured runs use the full ones.
SIZES = {
    "ingest": dict(
        trips=40_000, stations=160, selected=128, rows=8, cols=16, days=12,
        files=6, strptime_files=1,
        skips={"unparsable": 160, "stop_before_start": 120, "out_of_bounds": 80},
    ),
    "train_paper": dict(rows=8, cols=16, length=283, noise=0.5, dims=PAPER_DIMS,
                        test_days=1, val_frac=0.25, epochs=2, batch_size=64),
    "predict_paper": dict(rows=8, cols=16, length=515, noise=0.5, dims=PAPER_DIMS,
                          train_batch=64, batch_size=256),
    "baselines": dict(rows=4, cols=4, length=504, noise=4.0, dims=SMALL_DIMS,
                      epochs=2, batch_size=32, series=2),
}
TINY = {
    "ingest": dict(
        trips=3_000, stations=24, selected=16, rows=4, cols=4, days=3,
        files=3, strptime_files=1,
        skips={"unparsable": 12, "stop_before_start": 9, "out_of_bounds": 6},
    ),
    "train_paper": dict(rows=2, cols=2, length=91, noise=0.5, dims=TINY_DIMS,
                        test_days=1, val_frac=0.25, epochs=2, batch_size=16),
    "predict_paper": dict(rows=2, cols=2, length=67, noise=0.5, dims=TINY_DIMS,
                          train_batch=16, batch_size=16),
    "baselines": dict(rows=2, cols=2, length=408, noise=4.0, dims=TINY_DIMS,
                      epochs=1, batch_size=32, series=2),
}


def sizes_for(workload, tiny=False):
    return (TINY if tiny else SIZES)[workload]


def model_dims(stdinet, size):
    return stdinet.ModelDims(rows=size["rows"], cols=size["cols"], **size["dims"])


def import_stdinet():
    """Import the checkout's own ``src/stdinet``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "stdinet" / "__init__.py").is_file():
        raise SystemExit(f"no stdinet sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stdinet
    if Path(stdinet.__file__).resolve().parent != (src / "stdinet").resolve():
        raise SystemExit(f"imported stdinet from {stdinet.__file__}, not from {src}")
    return stdinet


# ---------------------------------------------------------------------------
# trip CSVs with their own expected counts


def _format_time(epoch, layout):
    if layout == ISO_LAYOUT:
        return time.strftime(ISO_LAYOUT, time.gmtime(epoch))
    # The September 2014 file writes "9/1/2014 00:00:25": month and day are
    # not zero-padded, which only the strptime path of the parser reads.
    t = time.gmtime(epoch)
    return f"{t.tm_mon}/{t.tm_mday}/{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"


def make_trips(out_dir, seed, size):
    """Write trip CSVs in the 2014 Citi Bike schema plus ``expected.npz``.

    The expected start and stop counts per (hour, station), the station
    ranking and the skip counts come from the generator's own arrays, not
    from the program's parser.
    """
    rng = np.random.default_rng([seed, 1])
    n, k = size["trips"], size["stations"]
    ids = rng.choice(np.arange(72, 3600), size=k, replace=False)
    # Distinct latitudes and longitudes, so the grid bands have no ties.
    lat = np.round(40.68 + rng.permutation(k) * 0.00075 + rng.uniform(0, 0.0005, k), 8)
    lon = np.round(-74.02 + rng.permutation(k) * 0.00056 + rng.uniform(0, 0.0003, k), 8)
    weight = np.where(np.arange(k) < size["selected"],
                      rng.uniform(1.0, 3.0, k), rng.uniform(0.02, 0.1, k))
    weight = weight / weight.sum()

    # Hours follow a two-peak daily profile; seconds are uniform inside them.
    profile = 1.0 + 2.0 * np.exp(-0.5 * ((np.arange(24) - 8.5) / 1.5) ** 2) \
        + 2.5 * np.exp(-0.5 * ((np.arange(24) - 17.5) / 2.0) ** 2)
    hours = size["days"] * 24
    hour_p = np.tile(profile, size["days"])
    hour_p = hour_p / hour_p.sum()
    start = EPOCH_2014_04_01 + rng.choice(hours, size=n, p=hour_p) * 3600 \
        + rng.integers(0, 3600, n)
    start.sort()
    duration = np.clip(rng.lognormal(np.log(800.0), 0.6, n), 60, 7200).astype(np.int64)
    stop = start + duration
    src = rng.choice(k, size=n, p=weight)
    dst = rng.choice(k, size=n, p=weight)

    # Disjoint rows for each skip reason.
    picks = rng.permutation(n)
    bad = {}
    lo = 0
    for reason in SKIP_REASONS:
        count = size["skips"][reason]
        bad[reason] = np.sort(picks[lo:lo + count])
        lo += count
    valid = np.ones(n, dtype=bool)
    for rows in bad.values():
        valid[rows] = False
    reason_of = {}
    for reason, rows in bad.items():
        for i in rows.tolist():
            reason_of[i] = reason

    # Expected outputs, from the generator's arrays alone.
    events = np.bincount(src[valid], minlength=k) + np.bincount(dst[valid], minlength=k)
    if np.count_nonzero(events) < size["selected"]:
        raise SystemExit("trip generator left fewer stations than the grid needs")
    ranking = np.lexsort((ids, -events))          # busiest first, ties by lower id
    selected = ranking[:size["selected"]]
    slot = np.full(k, -1)
    slot[selected] = np.arange(size["selected"])
    t0 = (start[valid].min() // 3600) * 3600
    t1 = (start[valid].max() // 3600) * 3600 + 3600
    length = int((t1 - t0) // 3600)
    counts = np.zeros((length, 2, size["selected"]), dtype=np.int64)
    for channel, epoch, station in ((0, start, src), (1, stop, dst)):
        keep = valid & (slot[station] >= 0) & (epoch >= t0) & (epoch < t1)
        np.add.at(counts, ((epoch[keep] - t0) // 3600, channel, slot[station[keep]]), 1)

    # One file per stretch of days, like the monthly 2014 files; the last
    # ``strptime_files`` files use the September timestamp layout.
    bounds = np.linspace(0, n, size["files"] + 1).astype(int)
    user = ("Subscriber", "Customer")
    paths = []
    for f in range(size["files"]):
        layout = ISO_LAYOUT if f < size["files"] - size["strptime_files"] else "us"
        path = out_dir / f"trips-{f:02d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(TRIP_COLUMNS)
            for i in range(bounds[f], bounds[f + 1]):
                s, d = int(src[i]), int(dst[i])
                t_start, t_stop = int(start[i]), int(stop[i])
                end_id = str(ids[d])
                end_lat, end_lon = f"{lat[d]:.8f}", f"{lon[d]:.8f}"
                stop_text = _format_time(t_stop, layout)
                why = reason_of.get(i)
                if why == "unparsable":
                    if i % 2:
                        end_id = ""
                    else:
                        stop_text = "N/A"
                elif why == "stop_before_start":
                    stop_text = _format_time(t_start - (t_stop - t_start), layout)
                elif why == "out_of_bounds":
                    end_lat = end_lon = "0.0"
                writer.writerow((
                    t_stop - t_start, _format_time(t_start, layout), stop_text,
                    ids[s], f"Station {ids[s]} & {s % 13} Ave", f"{lat[s]:.8f}", f"{lon[s]:.8f}",
                    end_id, f"Station {ids[d]} & {d % 13} Ave", end_lat, end_lon,
                    14529 + (i * 7919) % 6000, user[i % 7 == 0],
                    1950 + (i * 31) % 50, 1 + i % 2,
                ))
        paths.append(path.name)

    np.savez(
        out_dir / "expected.npz",
        ids=ids[selected], lat=lat[selected], lon=lon[selected],
        counts=counts, t0=np.int64(t0), rows=np.int64(n),
        skipped=np.array([size["skips"][r] for r in SKIP_REASONS], dtype=np.int64),
    )
    return {"files": paths, "grid": [size["rows"], size["cols"]],
            "stations": size["selected"]}


# ---------------------------------------------------------------------------
# demand series and the checkpoint, written by the program itself


def make_series(path, seed, size, stdinet):
    series = stdinet.data.regime_demand_series(
        size["length"], rows=size["rows"], cols=size["cols"], seed=seed,
        noise=size["noise"], start_epoch=EPOCH_2014_04_01,
    )
    stdinet.data.write_demand_series(path, series)
    return series


def make_checkpoint(out_dir, seed, size, series, stdinet):
    """A paper-dims STDI model whose batchnorm statistics saw one batch."""
    from stdinet.tensor import Tensor
    dims = model_dims(stdinet, size)
    model = stdinet.build_model("STDI", dims, seed=seed)
    windows = stdinet.make_windows(series, dims.seq_len)[:size["train_batch"]]
    inputs, hours, _ = stdinet.data.windows_to_arrays(windows)
    model.forward_batch(Tensor(inputs), hours, mode="train")
    stdinet.save_checkpoint(out_dir / "model.ckpt", model, extra={"scale": 1.0})


def generate(workload, seed, out_dir, tiny=False):
    size = sizes_for(workload, tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        meta = make_trips(out_dir, seed, size)
    else:
        stdinet = import_stdinet()
        if workload == "baselines":
            for i in range(size["series"]):
                make_series(out_dir / f"series-{i}.stdm", 1000 * seed + i, size, stdinet)
        else:
            series = make_series(out_dir / "series.stdm", seed, size, stdinet)
        if workload == "predict_paper":
            make_checkpoint(out_dir, seed, size, series, stdinet)
        meta = {}
    meta.update({"workload": workload, "seed": seed, "version": VERSION, "tiny": tiny})
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return meta


def cached_dir(workload, seed, tiny=False):
    return CACHE / (f"{workload}-tiny" if tiny else workload) / f"seed-{seed}"


def is_ready(path):
    """Whether ``path`` holds complete inputs from this generator version."""
    try:
        return json.loads((path / "meta.json").read_text()).get("version") == VERSION
    except (OSError, ValueError):
        return False


def ensure(workload, seed, tiny=False):
    """Make the inputs for (workload, seed) unless a current copy is cached."""
    final = cached_dir(workload, seed, tiny)
    if is_ready(final):
        return final
    parent = final.parent
    if parent.is_dir():
        for old in parent.iterdir():
            shutil.rmtree(old, ignore_errors=True)
    partial = parent / (final.name + ".partial")
    generate(workload, seed, partial, tiny)
    partial.rename(final)
    return final


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the test-sized inputs")
    args = parser.parse_args(argv)
    print(ensure(args.workload, args.seed, args.tiny))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
