"""Trip ingestion and dataset construction.

Raw trip CSVs (2014 Citi Bike schema) become a gridded demand series: one
2 x i x j count matrix per hour, channel 0 counting trip starts (rentals)
and channel 1 trip stops (returns).  Windows of L consecutive matrices plus
the target hour label form the supervised samples.

Timestamps are naive local times interpreted as UTC; all binning and
hour-of-day labels derive from that fixed epoch, so results are independent
of the host timezone.
"""

from __future__ import annotations

import calendar
import csv
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import compress
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import DataError, SchemaError, UsageError

REQUIRED_COLUMNS = (
    "starttime",
    "stoptime",
    "start station id",
    "end station id",
    "start station latitude",
    "start station longitude",
    "end station latitude",
    "end station longitude",
)

# Generous NYC bounding box; coordinates outside it mark a malformed row.
LAT_RANGE = (40.0, 41.5)
LON_RANGE = (-75.0, -73.0)

TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M")


# One accepted trip per element, fields in the order of REQUIRED_COLUMNS;
# times are UTC epoch seconds.
TRIP_DTYPE = np.dtype(
    [(name, np.int64) for name in ("start", "stop", "start_station", "end_station")]
    + [(name, np.float64) for name in ("start_lat", "start_lon", "end_lat", "end_lon")])

# Rows are converted column by column this many at a time, which bounds the
# memory their field strings take.
_CHUNK_ROWS = 16384
_INT64 = range(-(1 << 63), 1 << 63)
# Stands in for a row too short to hold the required fields; it fails every column.
_SHORT_ROW = ("",) * len(REQUIRED_COLUMNS)

# The strict timestamp layouts the column pass converts, as templates: every
# letter is one ASCII digit of that field, anything else a literal separator.
# The first is the April-August 2014 layout, the others the September one
# with a 1- or 2-digit month and day.
_COLUMN_LAYOUTS = ("YYYY-mm-dd HH:MM:SS",) + tuple(
    f"{'m' * m}/{'d' * d}/YYYY HH:MM:SS" for m in (1, 2) for d in (1, 2))


@dataclass
class ParseAudit:
    rows: int = 0
    accepted: int = 0
    skipped: Counter = field(default_factory=Counter)

    def total_skipped(self):
        return sum(self.skipped.values())


def _parse_time(text):
    """Epoch seconds of one timestamp: ``strptime`` over ``TIME_FORMATS`` after
    stripping whitespace, so an impossible time raises ValueError."""
    text = text.strip()
    for fmt in TIME_FORMATS:
        try:
            return calendar.timegm(datetime.strptime(text, fmt).timetuple())
        except ValueError:
            continue
    raise ValueError(f"unparsable timestamp {text!r}")


def _parse_row(fields):
    """One row's required fields converted one by one, as a TRIP_DTYPE tuple;
    raises ValueError when any of them does not parse."""
    start, stop, sid, eid, slat, slon, elat, elon = fields
    sid, eid = int(sid), int(eid)
    if sid not in _INT64 or eid not in _INT64:
        raise ValueError(f"station id {sid} or {eid} does not fit int64")
    return (_parse_time(start), _parse_time(stop), sid, eid,
            float(slat), float(slon), float(elat), float(elon))


def _layout_epochs(buf, layout):
    """The rows of ``buf`` (uint8, one timestamp per row) that match ``layout``
    and name a real time, and their epoch seconds."""
    is_digit = np.array([c.isalpha() for c in layout])
    digits = buf - np.uint8(ord("0"))          # wraps below "0", so one test suffices
    rows = np.flatnonzero(
        np.where(is_digit, digits <= 9, buf == np.frombuffer(layout.encode(), np.uint8)).all(1))
    digits = digits[rows]
    part = {}
    for letter in "YmdHMS":
        number = np.zeros(len(rows), np.int64)
        for pos in (i for i, c in enumerate(layout) if c == letter):
            number = number * 10 + digits[:, pos]
        part[letter] = number
    year, month, day = part["Y"], part["m"], part["d"]
    months = (year - 1970) * 12 + month - 1
    first = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    length = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) - first
    real = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)
            & (part["H"] < 24) & (part["M"] < 60) & (part["S"] < 60))
    epochs = (first + day - 1) * 86400 + part["H"] * 3600 + part["M"] * 60 + part["S"]
    return rows[real], epochs[real]


def _time_column(texts):
    """Epoch seconds of a column of timestamps, and the mask of those converted.

    Timestamps of one length are checked together against each layout of that
    length in ``_COLUMN_LAYOUTS``; every other shape is left to the per-row path.
    """
    n = len(texts)
    epochs, ok = np.zeros(n, np.int64), np.zeros(n, bool)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    for size in sorted({len(layout) for layout in _COLUMN_LAYOUTS}):
        in_group = lengths == size
        if not in_group.any():
            continue
        # A character outside ASCII becomes one "?", which no layout accepts.
        joined = "".join(compress(texts, in_group.tolist())).encode("ascii", "replace")
        buf = np.frombuffer(joined, np.uint8).reshape(-1, size)
        group = np.flatnonzero(in_group)
        for layout in (layout for layout in _COLUMN_LAYOUTS if len(layout) == size):
            rows, values = _layout_epochs(buf, layout)
            epochs[group[rows]] = values
            ok[group[rows]] = True
    return epochs, ok


def _number_column(texts, kind, dtype):
    """``kind`` (int or float) of each text as ``dtype``, and the mask of those
    converted; an int beyond ``dtype`` fails like an unparsable one."""
    n = len(texts)
    try:
        return np.fromiter(map(kind, texts), dtype, n), np.ones(n, bool)
    except (ValueError, OverflowError):
        pass
    values, ok = np.zeros(n, dtype), np.ones(n, bool)
    for i, text in enumerate(texts):
        try:
            values[i] = kind(text)
        except (ValueError, OverflowError):
            ok[i] = False
    return values, ok


def _convert(rows, audit):
    """The screened TRIP_DTYPE array of one chunk of required-field tuples.

    Each column is converted at once; a row that fails any column goes through
    ``_parse_row`` and, if it parses there, keeps its place in the chunk.
    """
    audit.rows += len(rows)
    chunk = np.empty(len(rows), dtype=TRIP_DTYPE)
    ok = np.ones(len(rows), bool)
    for name, texts in zip(TRIP_DTYPE.names, zip(*rows)):
        if name in ("start", "stop"):
            chunk[name], column_ok = _time_column(texts)
        else:
            kind = int if TRIP_DTYPE[name] == np.int64 else float
            chunk[name], column_ok = _number_column(texts, kind, TRIP_DTYPE[name])
        ok &= column_ok
    for i in np.flatnonzero(~ok).tolist():
        try:
            chunk[i] = _parse_row(rows[i])
        except ValueError:
            continue
        ok[i] = True
    unparsable = len(rows) - int(np.count_nonzero(ok))
    if unparsable:
        audit.skipped["unparsable"] += unparsable
    trips = _screen(chunk[ok], audit.skipped)
    audit.accepted += len(trips)
    return trips


def _screen(chunk, skipped):
    """The trips of ``chunk`` that stop no earlier than they start, inside the NYC box;
    stop-before-start takes precedence, and a NaN coordinate is out of bounds."""
    backwards = chunk["stop"] < chunk["start"]
    keep = ~backwards
    for name, (lo, hi) in (("start_lat", LAT_RANGE), ("end_lat", LAT_RANGE),
                           ("start_lon", LON_RANGE), ("end_lon", LON_RANGE)):
        keep &= (chunk[name] >= lo) & (chunk[name] <= hi)
    # Counter's += drops zero counts, which the ingest manifest must not list.
    skipped += Counter(stop_before_start=int(np.count_nonzero(backwards)),
                       out_of_bounds=len(chunk) - int(np.count_nonzero(backwards | keep)))
    return chunk[keep]


def _trip_chunks(stream, audit):
    """Screened TRIP_DTYPE chunks of one CSV stream, in file order; the header
    is checked before the first chunk."""
    reader = csv.reader(stream)
    # Tolerate stray whitespace in header cells; of repeated names the last wins.
    index = {name.strip(): i for i, name in enumerate(next(reader, []))}
    for col in REQUIRED_COLUMNS:
        if col not in index:
            raise SchemaError(f"trip CSV is missing required column {col!r}")
    positions = [index[col] for col in REQUIRED_COLUMNS]
    fields, width = itemgetter(*positions), max(positions) + 1

    rows = []
    for row in reader:
        if not row:
            continue
        rows.append(fields(row) if len(row) >= width else _SHORT_ROW)
        if len(rows) == _CHUNK_ROWS:
            yield _convert(rows, audit)
            rows = []
    if rows:
        yield _convert(rows, audit)


def parse_trips(stream):
    """Parse one CSV stream into a TRIP_DTYPE array; bad rows are counted, not fatal.

    A missing required column is fatal and names the column.  Rows are skipped (with a
    reason counter) when a field is missing or fails to parse, the stop precedes the
    start, or coordinates fall outside the NYC bounding box; blank lines are not rows.

    Rows are read in chunks of ``_CHUNK_ROWS`` and converted a column at a time:
    timestamps in the strict layouts of ``_COLUMN_LAYOUTS`` by array arithmetic,
    station ids by ``int`` and coordinates by ``float``.  A row that any column
    rejects is converted again on its own (``_parse_row``: ``strptime`` over
    ``TIME_FORMATS``, ``int``, ``float``), so the accepted rows and the audit are
    those of the per-row conversion.
    """
    audit = ParseAudit()
    chunks = list(_trip_chunks(stream, audit))
    return np.concatenate([np.empty(0, dtype=TRIP_DTYPE)] + chunks), audit


def _row_bound(path):
    """An upper bound on the CSV rows of a file: its line breaks (LF, CR or
    CRLF) plus one; a pair split across two reads counts twice."""
    breaks = 1
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            returns = block.count(b"\r")
            breaks += block.count(b"\n") + returns - (returns and block.count(b"\r\n"))
    return breaks


def parse_trip_files(paths):
    """Parse several CSV files into one TRIP_DTYPE array with a merged audit.

    The array is allocated once, sized by the files' line breaks, filled chunk
    by chunk and shrunk to the accepted trips, so no second copy of it is made.
    """
    audit = ParseAudit()
    trips = np.empty(sum(_row_bound(path) for path in paths), dtype=TRIP_DTYPE)
    n = 0
    for path in paths:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for chunk in _trip_chunks(fh, audit):
                trips[n:n + len(chunk)] = chunk
                n += len(chunk)
    trips.resize(n, refcheck=False)
    return trips, audit


# ---------------------------------------------------------------------------
# station selection and grid layout


def select_stations(trips, n=128):
    """The n busiest stations by start+stop events; ties go to the lower id."""
    events = np.concatenate([trips["start_station"], trips["end_station"]])
    ids, counts = np.unique(events, return_counts=True)
    if len(ids) < n:
        raise DataError(f"need at least {n} distinct stations, found {len(ids)}")
    return ids[np.lexsort((ids, -counts))[:n]].tolist()


def station_coordinates(trips):
    """Modal (lat, lon) per station across all sightings; ties go to the lower (lat, lon)."""
    sid, lat, lon = (np.concatenate([trips["start_" + f], trips["end_" + f]])
                     for f in ("station", "lat", "lon"))
    # One column at a time, then the permutation freed: fewer temporaries at once.
    order = np.lexsort((lon, lat, sid))
    sid = sid[order]
    lat = lat[order]
    lon = lon[order]
    del order
    # One run per distinct (station, lat, lon), in that sort order.
    first = np.ones(len(sid), dtype=bool)
    first[1:] = (sid[1:] != sid[:-1]) | (lat[1:] != lat[:-1]) | (lon[1:] != lon[:-1])
    runs = np.flatnonzero(first)
    sightings = np.diff(np.append(runs, len(sid)))
    sid, lat, lon = sid[runs], lat[runs], lon[runs]
    # Per station the longest run comes first; lexsort is stable, so of tied
    # runs the lower (lat, lon) does.
    best = np.lexsort((-sightings, sid))
    best = best[np.unique(sid[best], return_index=True)[1]]
    return dict(zip(sid[best].tolist(), zip(lat[best].tolist(), lon[best].tolist())))


@dataclass
class StationGrid:
    rows: int
    cols: int
    order: list          # station ids in row-major cell order
    position: dict       # station id -> (row, col)
    coords: dict         # station id -> (lat, lon)


def assign_grid(stations, rows, cols):
    """Place stations on a rows x cols grid by geography.

    Stations are sorted north to south, split into ``rows`` bands of ``cols``
    stations, and each band is ordered west to east.  Ties fall back to the
    station id, so the layout is a deterministic bijection.
    """
    stations = list(stations)
    if len(stations) != rows * cols:
        raise DataError(f"grid {rows}x{cols} needs {rows * cols} stations, got {len(stations)}")
    by_lat = sorted(stations, key=lambda s: (-s[1], s[0]))
    order = []
    position = {}
    coords = {}
    for r in range(rows):
        band = by_lat[r * cols:(r + 1) * cols]
        band.sort(key=lambda s: (s[2], s[0]))
        for c, (sid, lat, lon) in enumerate(band):
            order.append(sid)
            position[sid] = (r, c)
            coords[sid] = (lat, lon)
    return StationGrid(rows=rows, cols=cols, order=order, position=position, coords=coords)


# ---------------------------------------------------------------------------
# demand series


@dataclass
class DemandSeries:
    """T hourly demand matrices: values[t, 0] rentals, values[t, 1] returns."""

    start_epoch: int
    interval_seconds: int
    values: np.ndarray     # (T, 2, rows, cols) float32, nonnegative integers

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def rows(self):
        return self.values.shape[2]

    @property
    def cols(self):
        return self.values.shape[3]

    @property
    def end_epoch(self):
        return self.epoch_of(self.length)

    def epoch_of(self, index):
        """Epoch seconds at which interval ``index`` starts."""
        return self.start_epoch + index * self.interval_seconds

    def hour_of(self, index):
        """Hour of day (0..23) at which interval ``index`` starts."""
        return self.epoch_of(index) // 3600 % 24


def derive_time_range(trips, interval=3600):
    """[t0, t1) covering every trip start, aligned to interval boundaries."""
    if len(trips) == 0:
        raise DataError("no records to derive a time range from")
    t0 = int(trips["start"].min()) // interval * interval
    t1 = int(trips["start"].max()) // interval * interval + interval
    return t0, t1


def build_demand_series(trips, grid, t0, t1, interval=3600):
    """Count starts and stops per (interval, station) into a DemandSeries.

    A trip's start and stop are binned independently by their own timestamps;
    events outside [t0, t1) or at unselected stations are excluded and show
    up in the audit counters.
    """
    if t0 % interval or t1 % interval or t0 >= t1:
        raise UsageError(f"[{t0}, {t1}) must be aligned to the {interval}s interval")
    length = (t1 - t0) // interval
    cells = grid.rows * grid.cols
    audit = Counter()
    order = np.asarray(grid.order, dtype=np.int64)
    by_id = np.argsort(order)
    counts = []
    for kind, epoch, sid in (("starts", trips["start"], trips["start_station"]),
                             ("stops", trips["stop"], trips["end_station"])):
        in_range = (epoch >= t0) & (epoch < t1)
        cell = by_id[np.minimum(np.searchsorted(order, sid, sorter=by_id), cells - 1)]
        counted = in_range & (order[cell] == sid)
        n_range, n_counted = int(np.count_nonzero(in_range)), int(np.count_nonzero(counted))
        # Counter's += drops zero counts, which the ingest manifest must not list.
        audit += Counter({f"out_of_range_{kind}": len(epoch) - n_range,
                          f"unselected_station_{kind}": n_range - n_counted,
                          f"accepted_{kind}": n_counted})
        slot = (epoch[counted] - t0) // interval * cells + cell[counted]
        counts.append(np.bincount(slot, minlength=length * cells).reshape(length, cells))
    values = np.stack(counts, axis=1).reshape(length, 2, grid.rows, grid.cols).astype(np.float32)
    return DemandSeries(start_epoch=t0, interval_seconds=interval, values=values), audit


# ---------------------------------------------------------------------------
# windows and splits


@dataclass(frozen=True, eq=False)
class Windows:
    """Samples of one series: for each target interval t in ``index``, the ``seq_len``
    intervals before t.  ``len``, slicing, ``+`` and iteration (yielding ``inputs``,
    ``target``, ``hour``, ``target_index`` and ``target_epoch``) work as on a list."""

    series: DemandSeries
    seq_len: int
    index: np.ndarray     # int64 target indices

    def __len__(self):
        return len(self.index)

    def __getitem__(self, key):
        return Windows(self.series, self.seq_len, self.index[key])

    def __add__(self, other):
        if other.series is not self.series or other.seq_len != self.seq_len:
            raise UsageError("only windows of one series and length can be joined")
        return Windows(self.series, self.seq_len, np.concatenate([self.index, other.index]))

    def __iter__(self):
        s, seq_len = self.series, self.seq_len
        return (SimpleNamespace(inputs=s.values[t - seq_len:t], target=s.values[t],
                                hour=s.hour_of(t), target_index=t, target_epoch=s.epoch_of(t))
                for t in self.index.tolist())


def make_windows(series, seq_len=3):
    """The windows of every target index t in [L, T)."""
    if series.length <= seq_len:
        raise DataError(f"series of {series.length} intervals cannot fill windows of length {seq_len}")
    return Windows(series, seq_len, np.arange(seq_len, series.length, dtype=np.int64))


# The default split: the last 10 days test, the latest tenth of the rest validates.
TEST_DAYS, VAL_FRAC = 10, 0.1


def split_dataset(windows, test_days=TEST_DAYS, val_frac=VAL_FRAC):
    """Chronological split: last ``test_days`` of targets are the test set,
    the latest ``val_frac`` of the remainder is validation, the rest trains.

    Test windows may consume input intervals from before the boundary; only
    the target's timestamp decides membership.
    """
    if not 0 < val_frac < 1:
        raise UsageError(f"val_frac must lie in (0, 1), got {val_frac!r}")
    if not len(windows):
        raise DataError("no windows to split")
    ordered = windows[np.argsort(windows.index)]
    epochs = windows.series.epoch_of(ordered.index)
    boundary = int(epochs[-1]) + windows.series.interval_seconds - test_days * 86400
    n_rest = int(np.searchsorted(epochs, boundary))
    n_train = n_rest - int(n_rest * val_frac)
    train, val, test = ordered[:n_train], ordered[n_train:n_rest], ordered[n_rest:]
    if not len(train) or not len(val) or not len(test):
        raise DataError(f"empty split: train={len(train)}, val={len(val)}, test={len(test)}")
    return train, val, test


def windows_to_arrays(windows):
    """(inputs, hours, targets) numpy batches of windows, gathered from the series."""
    values, index = windows.series.values.astype(np.float32, copy=False), windows.index
    inputs = values[index[:, None] + np.arange(-windows.seq_len, 0)]
    return inputs, windows.series.hour_of(index), values[index]


# ---------------------------------------------------------------------------
# hour embeddings


def load_hour_embeddings(path, dim):
    """Read a 24 x dim table from a text embedding file.

    Each line is a token followed by ``dim`` floats; the tokens "0".."23"
    must all be present (other tokens are ignored).
    """
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            token = parts[0]
            if token.isdigit() and 0 <= int(token) <= 23:
                vec = [float(x) for x in parts[1:]]
                if len(vec) != dim:
                    raise DataError(
                        f"{path}: token {token!r} has {len(vec)} values, expected {dim}"
                    )
                table[int(token)] = vec
    missing = sorted(set(range(24)) - set(table))
    if missing:
        raise DataError(f"{path}: missing hour tokens: {', '.join(str(m) for m in missing)}")
    return np.array([table[h] for h in range(24)], dtype=np.float64)


def generate_hour_embeddings(dim, seed=0):
    """Deterministic fallback table: 24 seeded unit-variance gaussian rows."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(24,)))
    return rng.standard_normal((24, dim))


def hour_table(spec, dim, seed=0):
    """The hour table a run names: ``"generate"`` for the seeded table, else a file path."""
    if spec == "generate":
        return generate_hour_embeddings(dim, seed)
    return load_hour_embeddings(spec, dim)


# ---------------------------------------------------------------------------
# series file format


SERIES_MAGIC = b"STDM"
SERIES_VERSION = 1
_HEADER = struct.Struct("<4sIIIIqI")


def write_demand_series(path, series):
    """Binary layout: magic, version, i, j, T, start epoch, interval, floats."""
    values = np.ascontiguousarray(series.values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            SERIES_MAGIC, SERIES_VERSION, series.rows, series.cols,
            series.length, series.start_epoch, series.interval_seconds,
        ))
        fh.write(values.tobytes())


def read_demand_series(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataError(f"{path}: truncated series file")
        magic, version, rows, cols, length, start_epoch, interval = _HEADER.unpack(header)
        if magic != SERIES_MAGIC:
            raise DataError(f"{path}: not a demand series file (magic {magic!r})")
        if version != SERIES_VERSION:
            raise DataError(f"{path}: unsupported series version {version}")
        blob = fh.read()
    expected = length * 2 * rows * cols * 4
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} data bytes, found {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4").reshape(length, 2, rows, cols).copy()
    return DemandSeries(start_epoch=start_epoch, interval_seconds=interval, values=values)


def write_station_map(path, grid):
    payload = {
        str(sid): [grid.position[sid][0], grid.position[sid][1],
                   grid.coords[sid][0], grid.coords[sid][1]]
        for sid in grid.order
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic data


def random_demand_series(length, rows=2, cols=2, seed=0, start_epoch=0):
    """Uniform random integer counts in 0..4; handy for smoke tests."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 5, size=(length, 2, rows, cols)).astype(np.float32)
    return DemandSeries(start_epoch=start_epoch, interval_seconds=3600, values=values)


def regime_demand_series(length, rows=2, cols=2, seed=0, noise=0.5, start_epoch=0):
    """A series whose hour-to-hour map switches among 4 hour-indexed regimes.

    Frame t is a regime-specific linear map of frame t-1: the regime
    (hour mod 4) picks a scaled permutation and a bias, plus gaussian noise,
    rounded to nonnegative integer counts.  A predictor that knows the hour
    can pick the right map; an hour-blind predictor has to average regimes.
    """
    rng = np.random.default_rng(seed)
    k = 2 * rows * cols
    maps = []
    biases = []
    scales = (0.9, 0.6, 0.8, 0.7)
    for r in range(4):
        perm = rng.permutation(k)
        mat = np.zeros((k, k))
        mat[np.arange(k), perm] = scales[r]
        maps.append(mat)
        biases.append(rng.uniform(1.0, 4.0, size=k))
    values = np.zeros((length, k))
    values[0] = rng.integers(0, 10, size=k)
    start_hour = (start_epoch // 3600) % 24
    for t in range(1, length):
        hour = (start_hour + t) % 24
        r = hour % 4
        nxt = maps[r] @ values[t - 1] + biases[r] + rng.normal(0.0, noise, size=k)
        values[t] = np.maximum(np.round(nxt), 0.0)
    shaped = values.reshape(length, 2, rows, cols).astype(np.float32)
    return DemandSeries(start_epoch=start_epoch, interval_seconds=3600, values=shaped)
