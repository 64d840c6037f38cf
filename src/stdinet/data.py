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
import io
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
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

# Files are read in blocks of whole lines of about this many bytes, which bounds
# the memory a block, its quote offsets and its columns take.
_BLOCK_BYTES = 1 << 18
# Rows read by csv.reader are converted this many at a time, which bounds the
# memory their field strings take.
_CHUNK_ROWS = 16384
_INT64 = range(-(1 << 63), 1 << 63)
# Stands in for a row too short to hold the required fields; it fails every column.
_SHORT_ROW = ("",) * len(REQUIRED_COLUMNS)
_BOM = "\ufeff".encode()
# 10**17 .. 10**0; every power of ten an int64 can scale a digit by.
_POW10 = 10 ** np.arange(17, -1, -1, dtype=np.int64)
_QUOTE, _COMMA, _CR, _LF, _MINUS, _POINT, _ZERO = b'",\r\n-.0'

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
    csv_rows: int = 0      # the rows csv.reader read, where the block tokenizer could not

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


# ---------------------------------------------------------------------------
# the block tokenizer


def _tokenize(block, n_fields=0):
    """The quote offsets of ``block`` as an int32 (rows, 2 * n_fields) array, with
    the block as a uint8 array, or None unless the block can be proven to be
    rows that csv.reader reads field for field from those offsets.

    That holds when the block is UTF-8 with no NUL, and each row is
    ``"f1","f2",...,"fN"`` with no quote inside a field, ended by LF or CRLF and
    followed straight by the next row.  Field k of row r is then the bytes
    [q[r, 2k] + 1, q[r, 2k + 1]).  With ``n_fields`` 0 the block is one row, the
    header, whose quotes give its width.
    """
    if not block.endswith(b"\n") or b"\0" in block or not _is_utf8(block):
        return None
    buf = np.frombuffer(block, np.uint8)
    quotes = np.flatnonzero(buf == _QUOTE).astype(np.int32)
    width = 2 * n_fields or len(quotes)
    if not len(quotes) or width % 2 or len(quotes) % width:
        return None
    quotes = quotes.reshape(-1, width)
    opens, closes = quotes[:, 0::2], quotes[:, 1::2]
    # The block ends in LF, so the byte after a row's last quote, and the one
    # after that if the first is CR, lie inside it.
    after = buf[closes[:, -1] + 1]
    crlf = after == _CR
    ends = closes[:, -1] + 1 + crlf
    proven = (((after == _LF) | (crlf & (buf[ends] == _LF))).all()
              and opens[0, 0] == 0 and ends[-1] == len(buf) - 1
              and (opens[1:, 0] == ends[:-1] + 1).all()
              and (opens[:, 1:] == closes[:, :-1] + 2).all()
              and (buf[closes[:, :-1] + 1] == _COMMA).all()
              # csv.reader raises on a field longer than its limit.
              and (closes - opens).max() - 1 <= csv.field_size_limit())
    return (buf, quotes) if proven else None


def _is_utf8(block):
    if block.isascii():
        return True
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# ---------------------------------------------------------------------------
# byte-level column conversion


def _length_groups(buf, starts, ends, sizes):
    """For each length in ``sizes`` that some span [starts, ends) of ``buf`` has:
    the spans of that length, and their bytes as a (length, spans) uint8 array,
    one row per position, so that each position is one contiguous vector."""
    lengths = ends - starts
    present = np.bincount(np.minimum(lengths, sizes.stop), minlength=sizes.stop + 1)
    for size in sizes:
        if present[size]:
            rows = np.flatnonzero(lengths == size)
            windows = np.lib.stride_tricks.as_strided(buf, (len(buf) - size + 1, size), (1, 1))
            yield rows, np.ascontiguousarray(windows[starts[rows]].T)


def _number(digits, positions):
    """The int64 number that the digit values at ``positions`` (rows of ``digits``) spell."""
    number = np.zeros(digits.shape[1], np.int64)
    for position in positions:
        number = number * 10 + digits[position]
    return number


def _time_column(buf, starts, ends):
    """Epoch seconds of a column of timestamp spans, and the mask of those converted.

    Spans of one length are checked together against each layout of that length
    in ``_COLUMN_LAYOUTS``; every other shape is left to the per-row path.
    """
    epochs, ok = np.zeros(len(starts), np.int64), np.zeros(len(starts), bool)
    for rows, stamps in _length_groups(buf, starts, ends, range(17, 20)):
        for table in _LAYOUT_TABLES[len(stamps)]:
            matched, values, rest = _layout_epochs(stamps, *table)
            epochs[rows[matched]] = values
            ok[rows[matched]] = True
            rows, stamps = rows[rest], stamps[:, rest]
            if not len(rows):
                break
    return epochs, ok


def _layout_table(layout):
    """``lowest``, ``span`` and ``letters`` of one layout for ``_layout_epochs``."""
    lowest = np.frombuffer(bytes(_ZERO if c.isalpha() else ord(c) for c in layout), np.uint8)
    span = np.array([9 if c.isalpha() else 0 for c in layout], np.uint8)
    letters = [[i for i, c in enumerate(layout) if c == letter] for letter in "YmdHMS"]
    return lowest[:, None], span[:, None], letters


# The tables of _COLUMN_LAYOUTS by timestamp length.
_LAYOUT_TABLES = {size: [_layout_table(layout) for layout in _COLUMN_LAYOUTS if len(layout) == size]
                  for size in range(17, 20)}


def _layout_epochs(stamps, lowest, span, letters):
    """The timestamps of ``stamps`` ((length, n) uint8, one column per timestamp)
    that match a layout and name a real time, their epoch seconds, and the
    timestamps that do not match the layout.

    A byte matches where it lies in [lowest, lowest + span] of its position:
    an ASCII digit, or the separator itself.  Less ``lowest`` it wraps below
    it, so one comparison checks that.  ``letters`` holds the positions of
    each of "YmdHMS".
    """
    matches = (stamps - lowest <= span).all(0)
    rows = np.flatnonzero(matches)
    digits = stamps[:, rows] - lowest
    year, month, day, hour, minute, second = (_number(digits, positions) for positions in letters)
    months = (year - 1970) * 12 + month - 1
    first = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    length = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) - first
    real = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)
            & (hour < 24) & (minute < 60) & (second < 60))
    epochs = (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return rows[real], epochs[real], np.flatnonzero(~matches)


def _id_column(buf, starts, ends):
    """Station ids of 1 to 18 plain ASCII digits as int64, and the mask of those converted."""
    values, ok = np.zeros(len(starts), np.int64), np.zeros(len(starts), bool)
    for rows, spans in _length_groups(buf, starts, ends, range(1, 19)):
        digits = spans - np.uint8(_ZERO)       # wraps below "0", so one test suffices
        ok[rows] = (digits <= 9).all(0)
        values[rows] = _number(digits, range(len(digits)))
    return values, ok


def _decimal_column(buf, starts, ends):
    """Decimals ``[-]digits[.digits]`` of 1 to 15 digits as float64, and the mask
    of those converted.

    The integer M of the digits and 10**k, for k digits after the point, are
    exact doubles, so M / 10**k is one correctly rounded division: the double
    nearest the decimal, which is what ``float`` returns (Clinger 1990).
    """
    values, ok = np.zeros(len(starts), np.float64), np.zeros(len(starts), bool)
    for rows, spans in _length_groups(buf, starts, ends, range(1, 18)):
        size = len(spans)
        negative = spans[0] == _MINUS
        point = spans == _POINT
        points = point.sum(0)
        n_digits = size - negative - points
        # A leading minus and the point read as 0 digits; the one the point
        # adds is then taken out of the number they spell.
        digits = spans - np.uint8(_ZERO)
        digits[0, negative] = 0
        digits[point] = 0
        ok[rows] = (digits <= 9).all(0) & (points <= 1) & (n_digits >= 1) & (n_digits <= 15)
        has_point = points > 0
        spread = _number(digits, range(size))
        scale = _POW10[17 - np.where(has_point, size - 1 - point.argmax(0), 0)]
        tail = spread % scale
        mantissa = np.where(has_point, (spread - tail) // 10 + tail, spread)
        quotient = mantissa / scale.astype(np.float64)
        values[rows] = np.where(negative, -quotient, quotient)
    return values, ok


# The converter of each run of TRIP_DTYPE fields; the fields of a run are
# converted as one column.
_CONVERTERS = ((slice(0, 2), _time_column), (slice(2, 4), _id_column),
               (slice(4, 8), _decimal_column))


def _convert(buf, starts, ends, audit):
    """The screened TRIP_DTYPE array of one block of rows, given the byte spans
    [starts, ends) of each row's required fields in ``buf`` ((rows, 8) arrays).

    Each column is converted at once; a row that fails any column goes through
    ``_parse_row`` on its decoded fields and, if it parses there, keeps its place.
    """
    audit.rows += len(starts)
    chunk = np.empty(len(starts), dtype=TRIP_DTYPE)
    ok = np.ones(len(starts), bool)
    for fields, convert in _CONVERTERS:
        values, column_ok = convert(buf, starts[:, fields].ravel(), ends[:, fields].ravel())
        values = values.reshape(len(starts), -1)
        for j, name in enumerate(TRIP_DTYPE.names[fields]):
            chunk[name] = values[:, j]
        ok &= column_ok.reshape(len(starts), -1).all(1)
    for i in np.flatnonzero(~ok).tolist():
        texts = [buf[s:e].tobytes().decode("utf-8", "surrogatepass")
                 for s, e in zip(starts[i].tolist(), ends[i].tolist())]
        try:
            chunk[i] = _parse_row(texts)
        except ValueError:
            continue
        ok[i] = True
    unparsable = len(starts) - int(np.count_nonzero(ok))
    if unparsable:
        audit.skipped["unparsable"] += unparsable
    trips = _screen(chunk[ok], audit.skipped)
    audit.accepted += len(trips)
    return trips


def _convert_texts(rows, audit):
    """``_convert`` of csv rows of required-field strings, joined into one UTF-8 buffer."""
    audit.csv_rows += len(rows)
    encoded = [text.encode("utf-8", "surrogatepass") for row in rows for text in row]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded)).reshape(len(rows), -1)
    ends = lengths.cumsum().reshape(lengths.shape)
    return _convert(np.frombuffer(b"".join(encoded), np.uint8), ends - lengths, ends, audit)


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


def _required_positions(header):
    """The header index of each of REQUIRED_COLUMNS; a missing one is fatal."""
    # Tolerate stray whitespace in header cells; of repeated names the last wins.
    index = {name.strip(): i for i, name in enumerate(header)}
    for col in REQUIRED_COLUMNS:
        if col not in index:
            raise SchemaError(f"trip CSV is missing required column {col!r}")
    return np.array([index[col] for col in REQUIRED_COLUMNS])


def _trip_chunks(fh, audit):
    """Screened TRIP_DTYPE chunks of a trip file opened in binary, in file order,
    read as ``parse_trip_files`` describes; the header is checked before the
    first chunk.  A last line without a line break is given one, which changes
    no field csv reads from it."""
    if fh.read(len(_BOM)) != _BOM:
        fh.seek(0)
    start = fh.tell()
    lines = 0   # the lines before ``start``; a tokenized block has no blank line
    header = _tokenize(fh.readline(_BLOCK_BYTES))
    if header is not None:
        buf, quotes = header
        names = [buf[s + 1:e].tobytes().decode() for s, e in quotes.reshape(-1, 2).tolist()]
        positions = _required_positions(names)
        start, lines = fh.tell(), 1
        while block := fh.read(_BLOCK_BYTES):
            block += fh.readline()
            tokens = _tokenize(block if block.endswith(b"\n") else block + b"\n", len(names))
            if tokens is None:
                break
            buf, quotes = tokens
            yield _convert(buf, quotes[:, 2 * positions] + 1, quotes[:, 2 * positions + 1], audit)
            start += len(block)
            lines += len(quotes)
        else:
            return
    fh.seek(start)
    reader = csv.reader(io.TextIOWrapper(fh, encoding="utf-8", newline=""))
    try:
        if header is None:
            positions = _required_positions(next(reader, []))

        fields, width = itemgetter(*positions.tolist()), int(positions.max()) + 1
        rows = []
        for row in reader:
            if not row:
                continue
            rows.append(fields(row) if len(row) >= width else _SHORT_ROW)
            if len(rows) == _CHUNK_ROWS:
                yield _convert_texts(rows, audit)
                rows = []
    except csv.Error as exc:
        raise DataError(f"{fh.name}: line {lines + reader.line_num}: {exc}") from None
    if rows:
        yield _convert_texts(rows, audit)


def _row_bound(path):
    """An upper bound on the CSV rows of a file: its line breaks (LF, CR or
    CRLF) plus one; a pair split across two reads counts twice."""
    breaks = 1
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
            returns = block.count(b"\r")
            breaks += block.count(b"\n") + returns - (returns and block.count(b"\r\n"))
    return breaks


def parse_trip_files(paths):
    """Parse several trip CSV files into one TRIP_DTYPE array with a merged
    audit; bad rows are counted, not fatal.

    A missing required column is fatal and names the column, and so is a line
    csv.reader rejects (a field longer than ``csv.field_size_limit()``), as a
    DataError naming the file and line.  Rows are skipped
    (with a reason counter) when a field is missing or fails to parse
    (``unparsable``), the stop precedes the start (``stop_before_start``, which
    wins), or coordinates fall outside the NYC bounding box (``out_of_bounds``);
    blank lines are not rows.

    Each file is read from its bytes in blocks of whole lines of about
    ``_BLOCK_BYTES``, after a leading BOM is dropped.  A block in which every
    field is quoted (``"f1",...,"fN"`` rows with LF or CRLF ends, no quote
    inside a field, UTF-8 without NUL; ``_tokenize``) is split at its quote
    offsets.  From the first block that is not, the header included,
    ``csv.reader`` reads the rest of the file as UTF-8 text, as
    ``open(path, newline="", encoding="utf-8-sig")`` would give it, and its
    fields are joined into the same kind of byte buffer; ``audit.csv_rows``
    counts those rows.  Either way each column is then converted from bytes at
    once: timestamps in the strict layouts of ``_COLUMN_LAYOUTS``, station ids
    of up to 18 ASCII digits, and decimal coordinates of up to 15 digits,
    exactly as ``float``.  A row that any column rejects is converted again on
    its own (``_parse_row``: ``strptime`` over ``TIME_FORMATS``, ``int``,
    ``float``), so the accepted rows and the audit are those of the per-row
    conversion.

    Only the trip table grows with the files.  It is allocated once, sized by
    the files' line breaks, filled chunk by chunk and shrunk to the accepted
    trips, so no second copy of it is made.
    """
    audit = ParseAudit()
    trips = np.empty(sum(_row_bound(path) for path in paths), dtype=TRIP_DTYPE)
    n = 0
    for path in paths:
        with open(path, "rb") as fh:
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

    Each line is a token followed by ``dim`` finite floats; the tokens "0".."23"
    must all be present (other tokens are ignored).
    """
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            token = parts[0]
            if token.isdecimal() and 0 <= int(token) <= 23:
                try:
                    vec = [float(x) for x in parts[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}: token {token!r}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise DataError(f"{path}: token {token!r} has a non-finite value")
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
        if rows < 1 or cols < 1:
            raise DataError(f"{path}: the series grid is {rows}x{cols}, which has no cells")
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
