"""Data pipeline tests: parsing, grids, series, windows, splits, embeddings."""

import calendar
import csv
import gc
import io
import re
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter, namedtuple
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stdinet import DataError, SchemaError, UsageError, data
from stdinet.data import (
    LAT_RANGE,
    LON_RANGE,
    REQUIRED_COLUMNS,
    TIME_FORMATS,
    TRIP_DTYPE,
    DemandSeries,
    Windows,
    assign_grid,
    build_demand_series,
    derive_time_range,
    generate_hour_embeddings,
    load_hour_embeddings,
    make_windows,
    parse_trip_files,
    random_demand_series,
    read_demand_series,
    regime_demand_series,
    select_stations,
    split_dataset,
    station_coordinates,
    windows_to_arrays,
    write_demand_series,
    write_station_map,
)

FIXTURE = Path(__file__).parent / "data" / "trips_small.csv"
APRIL_1_2014 = 1396310400  # 2014-04-01 00:00:00 UTC
# The counts a series file may hold: float32 values that are finite and >= 0,
# -0.0 and subnormals among them.
COUNTS = st.floats(min_value=-0.0, max_value=float(np.finfo(np.float32).max), width=32)


def trip(start_epoch, stop_epoch, s=1, e=2, lat=40.7, lon=-74.0):
    return (start_epoch, stop_epoch, s, e, lat, lon, lat, lon)


def table(trips):
    """A TRIP_DTYPE array of ``trip`` tuples."""
    return np.array(trips, dtype=TRIP_DTYPE)


@contextmanager
def trips_file(text):
    """A temporary trip file holding ``text`` as UTF-8."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trips.csv"
        path.write_bytes(text.encode("utf-8"))
        yield path


def parse_text(text):
    """``parse_trip_files`` of ``text`` written to a file."""
    with trips_file(text) as path:
        return parse_trip_files([path])


class TestParseTrips:
    def test_fixture_yields_two_valid_records_in_order(self):
        records, audit = parse_trip_files([FIXTURE])
        assert records.dtype == TRIP_DTYPE
        assert len(records) == 2
        assert audit.rows == 3
        assert audit.skipped["stop_before_start"] == 1
        # First record starts 2014-04-01 00:12:00, hour of day 0.
        assert (records["start"][0] // 3600) % 24 == 0
        assert records["start_station"][0] == 72
        assert records["start_station"][1] == 72

    def test_missing_column_is_fatal_and_named(self):
        with pytest.raises(SchemaError, match="end station id"):
            parse_text("starttime,stoptime,start station id\n")

    def test_malformed_rows_counted_not_fatal(self):
        header = ",".join(f'"{c}"' for c in (
            "starttime", "stoptime", "start station id", "end station id",
            "start station latitude", "start station longitude",
            "end station latitude", "end station longitude"))
        rows = [
            '"2014-04-01 10:00:00","2014-04-01 10:10:00","1","2","40.7","-74.0","40.7","-74.0"',
            '"not a time","2014-04-01 10:10:00","1","2","40.7","-74.0","40.7","-74.0"',
            '"2014-04-01 10:00:00","2014-04-01 10:10:00","1","2","0.0","0.0","40.7","-74.0"',
        ]
        records, audit = parse_text("\n".join([header] + rows))
        assert len(records) == 1
        assert audit.skipped["unparsable"] == 1
        assert audit.skipped["out_of_bounds"] == 1

    def test_slash_format_timestamps_accepted(self):
        header = ",".join((
            "starttime", "stoptime", "start station id", "end station id",
            "start station latitude", "start station longitude",
            "end station latitude", "end station longitude"))
        row = '9/1/2014 00:00:25,9/1/2014 00:10:25,1,2,40.7,-74.0,40.7,-74.0'
        records, audit = parse_text(header + "\n" + row)
        assert len(records) == 1 and audit.accepted == 1

    @pytest.mark.parametrize("bad", ["100", "100,2014-04-01 00:00:00",
                                     "100,2014-04-01 10:00:00,2014-04-01 10:10:00,72"])
    def test_short_row_is_unparsable(self, bad):
        with open(FIXTURE) as fh:
            header, first = fh.readline(), fh.readline()
        records, audit = parse_text(header + bad + "\n" + first)
        assert len(records) == 1
        assert (audit.rows, audit.accepted) == (2, 1)
        assert dict(audit.skipped) == {"unparsable": 1}

    @pytest.mark.parametrize("station", ["99999999999999999999", "-9223372036854775809"])
    def test_station_id_beyond_int64_is_unparsable(self, station):
        header = ",".join(REQUIRED_COLUMNS)
        good = "2014-04-01 10:00:00,2014-04-01 10:10:00,1,9223372036854775807,40.7,-74.0,40.7,-74.0"
        bad = f"2014-04-01 10:00:00,2014-04-01 10:10:00,{station},2,40.7,-74.0,40.7,-74.0"
        records, audit = parse_text("\n".join([header, good, bad]))
        assert records["end_station"].tolist() == [2 ** 63 - 1]
        assert dict(audit.skipped) == {"unparsable": 1}

    def test_blank_lines_are_not_rows(self):
        with open(FIXTURE) as fh:
            lines = fh.read().splitlines()
        records, audit = parse_text("\n\n".join(lines) + "\n\n")
        assert (len(records), audit.rows) == (2, 3)

    def test_stop_before_start_wins_and_nan_is_out_of_bounds(self):
        header = ",".join(REQUIRED_COLUMNS)
        rows = ["2014-04-01 10:00:00,2014-04-01 09:00:00,1,2,0.0,0.0,40.7,-74.0",
                "2014-04-01 10:00:00,2014-04-01 10:10:00,1,2,nan,-74.0,40.7,-74.0",
                "2014-04-01 10:00:00,2014-04-01 10:10:00,1,2,40.7,-74.0,40.7,-inf"]
        records, audit = parse_text("\n".join([header] + rows))
        assert len(records) == 0
        assert dict(audit.skipped) == {"stop_before_start": 1, "out_of_bounds": 2}

    @pytest.mark.parametrize("when", ["2014-04-31 00:00:00", "2014-02-29 12:00:00",
                                      "2014-04-01 25:61:61", "2014-04-00 00:00:00",
                                      "2014-04-01 00:00:60", "4/31/2014 00:00:00",
                                      "2/29/2014 12:00:00", "4/1/2014 25:61:61",
                                      "4/0/2014 00:00:00", "4/1/2014 00:00:60",
                                      "2014-04-01 24:00:00", "4/1/2014 24:00:00"])
    @pytest.mark.parametrize("column", ["starttime", "stoptime"])
    def test_impossible_time_is_unparsable(self, when, column):
        header = ",".join(REQUIRED_COLUMNS)
        fields = dict(starttime="2014-01-01 00:00:00", stoptime="2014-12-31 00:00:00")
        fields[column] = when
        row = f"{fields['starttime']},{fields['stoptime']},1,2,40.7,-74.0,40.7,-74.0"
        records, audit = parse_text(header + "\n" + row)
        assert len(records) == 0
        assert dict(audit.skipped) == {"unparsable": 1}


# Well-formed values of each column; the second stop comes before the start
# and the second latitude lies outside the NYC box.
WELL_FORMED = {
    "starttime": ["2014-04-01 10:00:00"], "stoptime": ["4/1/2014 10:10", "2014-04-01 09:59:59"],
    "start station id": ["72"], "end station id": ["79"],
    "start station latitude": ["40.7"], "start station longitude": ["-74.0"],
    "end station latitude": ["40.75", "41.6"], "end station longitude": ["-73.99"],
}
# Timestamp-shaped strings in either column layout, in range or not, with 1-
# or 2-digit fields; some carry a stray space or a non-ASCII digit.
TIMESTAMPS = st.builds(
    lambda y, mo, d, h, mi, sec, us, pad, junk: junk(
        f"{mo:0{pad}d}/{d:0{pad}d}/{y:04d} {h:02d}:{mi:02d}:{sec:02d}" if us
        else f"{y:04d}-{mo:0{pad}d}-{d:0{pad}d} {h:02d}:{mi:02d}:{sec:02d}"),
    st.sampled_from([0, 1, 1970, 2014, 2016, 9999]), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 24), st.integers(0, 60), st.sampled_from([0, 59, 60, 61]), st.booleans(),
    st.sampled_from([1, 2]),
    st.sampled_from([str, " {}".format, "{} ".format, lambda t: t.replace("1", "\u0661", 1),
                     lambda t: t.replace(" ", "  "), lambda t: t[:-3]]),
)
GARBAGE = st.one_of(
    st.sampled_from(["", " ", "N/A", "nan", "-inf", "1e999", "72.0", "1_0", "99999999999999999999",
                     "2014-02-30 00:00:00", "2014-04-01 09:00:00", "13/1/2014 00:00", "0.0"]),
    st.text(alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
            max_size=6),
    TIMESTAMPS,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parse_counts_every_garbage_row_and_never_raises(data):
    """Random fields, row lengths and blank lines: each row is accepted or skipped."""
    columns = data.draw(st.permutations(REQUIRED_COLUMNS + ("tripduration",)))
    missing = data.draw(st.sampled_from(REQUIRED_COLUMNS)) if data.draw(st.integers(0, 4)) == 0 \
        else None
    columns = [c for c in columns if c != missing]
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(columns)
    written = 0
    for _ in range(data.draw(st.integers(0, 12))):
        row = [data.draw(st.sampled_from(WELL_FORMED.get(c, ["540"]))) for c in columns]
        if data.draw(st.booleans()):
            row = row[:data.draw(st.integers(0, len(row)))] + data.draw(st.lists(GARBAGE, max_size=2))
            for _ in range(data.draw(st.integers(0, 3))):
                if row:
                    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(GARBAGE)
        writer.writerow(row)
        written += bool(row)
    with trips_file(out.getvalue()) as path:
        if missing is not None:
            with pytest.raises(SchemaError, match=missing):
                parse_trip_files([path])
            return
        trips, audit = parse_trip_files([path])
        assert_same_parse((trips, audit), reference_parse_file(path))
    assert audit.accepted + audit.total_skipped() == audit.rows == written
    assert len(trips) == audit.accepted
    assert all(type(count) is int and count > 0 for count in audit.skipped.values())


# The per-row parse that the column pass replaced, kept as the reference: every
# timestamp through strptime over TIME_FORMATS, ids through int, coordinates
# through float, then the same skip rules row by row.
def reference_time(text):
    text = text.strip()
    for fmt in TIME_FORMATS:
        try:
            return calendar.timegm(datetime.strptime(text, fmt).timetuple())
        except ValueError:
            continue
    raise ValueError(text)


def reference_parse_trips(stream):
    """(trips, rows, skipped) of the row-at-a-time parse."""
    reader = csv.reader(stream)
    index = {name.strip(): i for i, name in enumerate(next(reader))}
    columns = [index[c] for c in REQUIRED_COLUMNS]
    rows, parsed, skipped = 0, [], Counter()
    for row in reader:
        if not row:
            continue
        rows += 1
        try:
            start, stop, sid, eid, slat, slon, elat, elon = [row[i] for i in columns]
            sid, eid = int(sid), int(eid)
            if not (-2 ** 63 <= sid < 2 ** 63 and -2 ** 63 <= eid < 2 ** 63):
                raise ValueError(sid, eid)
            trip = (reference_time(start), reference_time(stop), sid, eid,
                    float(slat), float(slon), float(elat), float(elon))
        except (ValueError, IndexError):
            skipped["unparsable"] += 1
            continue
        if trip[1] < trip[0]:
            skipped["stop_before_start"] += 1
        elif not all(LAT_RANGE[0] <= lat <= LAT_RANGE[1] for lat in trip[4::2]) or \
                not all(LON_RANGE[0] <= lon <= LON_RANGE[1] for lon in trip[5::2]):
            skipped["out_of_bounds"] += 1
        else:
            parsed.append(trip)
    return np.array(parsed, dtype=TRIP_DTYPE), rows, skipped


def assert_same_parse(got, reference):
    (trips, audit), (ref_trips, ref_rows, ref_skipped) = got, reference
    assert trips.dtype == TRIP_DTYPE
    assert trips.tobytes() == ref_trips.tobytes()
    assert (audit.rows, audit.accepted) == (ref_rows, len(ref_trips))
    assert dict(audit.skipped) == dict(ref_skipped)


TIME_CASES = [
    "2014-04-01 00:12:00", "2014-12-31 23:59:59", "2016-02-29 12:00:00", "9/1/2014 00:00:25",
    "12/31/2014 23:59:59", "9/30/2014 08:05:00", "10/1/2014 08:05:00", "09/01/2014 00:00:25",
    "4/1/2014 10:10", "2014-4-1 10:00:00", " 2014-04-01 10:00:00", "2014-04-01 10:00:00\t",
    "2014-04-01  10:00:00", "4/ 1/2014 10:00:00", "\u0662\u0660\u0661\u0664-04-01 10:00:00",
    "2014-04-31 00:00:00", "2014-02-29 12:00:00", "2014-04-01 25:61:61", "2014-04-00 00:00:00",
    "2014-04-01 00:00:60", "4/31/2014 00:00:00", "13/1/2014 00:00:00", "0/1/2014 00:00:00",
    "0000-01-01 00:00:00", "2014-04-01T10:00:00", "N/A", "", "2014/04/01 10:00:00",
    "2014-04-01 24:00:00", "4/1/2014 24:00:00", "2014-04-01 10:0::00", "2014-0a-01 10:00:00",
    "0001-01-01 00:00:00", "2/29/2016 12:00:00", "4/01/2014 00:00:00", "04/1/2014 00:00:00",
]
ID_CASES = ["72", "3002", " 12", "+5", "1_0", "\u0661\u0662", "nan", "", "7.0",
            "99999999999999999999", "-9223372036854775809", "9223372036854775807"]
LAT_CASES = ["40.7", "40.75", " 40.8 ", "+40.7", "4.07e1", "40_7.0", "nan", "inf", "0.0", "", "N/A"]
LON_CASES = ["-74.0", "-73.99", "-73.950001", "-1e999", "nan", "", "-74_0"]


def junk_trips_csv(seed, n, quoting=csv.QUOTE_MINIMAL, ragged=True):
    """A trip CSV of ``n`` rows, most of them valid in either layout, the rest
    carrying every case above; ``ragged`` adds short rows and blank lines."""
    rng = np.random.default_rng(seed)
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator="\n")
    columns = ["tripduration", *REQUIRED_COLUMNS, "bikeid"]
    writer.writerow(columns)
    for _ in range(n):
        start = APRIL_1_2014 + int(rng.integers(0, 180 * 86400))
        stop = start + int(rng.integers(-600, 3600))
        row = {"tripduration": "540", "bikeid": "1"}
        for col, epoch in (("starttime", start), ("stoptime", stop)):
            t = time.gmtime(epoch)
            if rng.random() < 0.1:
                row[col] = str(rng.choice(TIME_CASES))
            elif rng.random() < 0.5:
                row[col] = time.strftime("%Y-%m-%d %H:%M:%S", t)
            else:
                row[col] = f"{t.tm_mon}/{t.tm_mday}/{t.tm_year} {time.strftime('%H:%M:%S', t)}"
        for col, cases, good in (("start station id", ID_CASES, str(rng.integers(1, 40))),
                                 ("end station id", ID_CASES, str(rng.integers(1, 40))),
                                 ("start station latitude", LAT_CASES, f"{rng.uniform(40.6, 40.9):.6f}"),
                                 ("start station longitude", LON_CASES, f"{rng.uniform(-74.1, -73.9):.6f}"),
                                 ("end station latitude", LAT_CASES, f"{rng.uniform(40.6, 40.9):.6f}"),
                                 ("end station longitude", LON_CASES, f"{rng.uniform(-74.1, -73.9):.6f}")):
            row[col] = str(rng.choice(cases)) if rng.random() < 0.03 else good
        fields = [row[c] for c in columns]
        if rng.random() < 0.02 and ragged:
            fields = fields[:int(rng.integers(0, len(fields)))]
        writer.writerow(fields)
        if rng.random() < 0.02 and ragged:
            out.write("\n")
    return out.getvalue()


class TestColumnParseMatchesRowParse:
    @pytest.mark.parametrize("chunk_rows, quoting, ragged", [
        pytest.param(None, csv.QUOTE_MINIMAL, True, id="None"),
        pytest.param(7, csv.QUOTE_MINIMAL, True, id="7"),
        pytest.param(1, csv.QUOTE_MINIMAL, True, id="1"),
        pytest.param(None, csv.QUOTE_ALL, False, id="quoted"),
        pytest.param(7, csv.QUOTE_ALL, True, id="quoted-ragged-7"),
    ])
    def test_junk_csv(self, monkeypatch, chunk_rows, quoting, ragged):
        """Every junk field through the byte converters: quoted files go through
        the block tokenizer (up to a short row or blank line), the others
        through csv.reader."""
        if chunk_rows:
            monkeypatch.setattr("stdinet.data._CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr("stdinet.data._BLOCK_BYTES", 1024)
        with trips_file(junk_trips_csv(0, 600, quoting, ragged)) as path:
            trips, audit = parse_trip_files([path])
            assert_same_parse((trips, audit), reference_parse_file(path))
        assert len(trips) > 300
        assert set(audit.skipped) == {"unparsable", "stop_before_start", "out_of_bounds"}
        if quoting == csv.QUOTE_MINIMAL:
            assert audit.csv_rows == audit.rows
        elif ragged:
            assert 0 < audit.csv_rows < audit.rows
        else:
            assert audit.csv_rows == 0

    @pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r", "mixed"])
    def test_files_with_any_line_break(self, tmp_path, monkeypatch, line_break):
        """parse_trip_files sizes its table by line breaks: LF, CRLF, CR-only, a
        mix of lone CR and LF, and no final break must all fit, quoted or not."""
        monkeypatch.setattr("stdinet.data._CHUNK_ROWS", 50)
        monkeypatch.setattr("stdinet.data._BLOCK_BYTES", 4096)
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            texts = [junk_trips_csv(seed, n, quoting, ragged=quoting == csv.QUOTE_MINIMAL)
                     for seed, n in ((1, 200), (2, 3), (3, 120))]
            if line_break == "mixed":
                files = ["".join(line + "\n\r"[k % 2] for k, line in enumerate(text.splitlines()))
                         for text in texts]
            else:
                files = [text.replace("\n", line_break) for text in texts]
            paths = []
            for k, text in enumerate(files):
                path = tmp_path / f"trips-{quoting}-{k}.csv"
                path.write_bytes(text.rstrip("\r\n").encode("utf-8"))
                paths.append(path)
            trips, audit = parse_trip_files(paths)
            ref = [reference_parse_trips(io.StringIO(text, newline="")) for text in texts]
            assert_same_parse((trips, audit), (np.concatenate([r[0] for r in ref]),
                                               sum(r[1] for r in ref), sum((r[2] for r in ref), Counter())))
            tokenized = quoting == csv.QUOTE_ALL and line_break in ("\n", "\r\n")
            assert (audit.csv_rows == 0) == tokenized


def quoted_trips_text(copies=40):
    """The fixture's header and ``copies`` copies of its three rows: every field quoted."""
    header, *rows = FIXTURE.read_text().splitlines(keepends=True)
    return header + "".join(rows) * copies


def assert_same_outcome(parse, reference):
    """``parse()`` returns what ``reference()`` does, or raises the same exception
    type; the parse's result, or None if it raised."""
    try:
        expected = reference()
    except Exception as exc:
        with pytest.raises(type(exc)):
            parse()
        return None
    got = parse()
    assert_same_parse(got, expected)
    return got


def reference_parse_file(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return reference_parse_trips(fh)


def replace_nth(text, old, new, n=50):
    """``text`` with only the ``n``-th occurrence of ``old`` replaced by ``new``."""
    at = -1
    for _ in range(n):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old):]


# Edits of the quoted fixture text, each at one place in the middle, and
# whether the block tokenizer still reads the whole file (else csv.reader reads
# on from the block the edit lies in).
NAME, ID = '"Broadway & W 49 St"', '"173"'
FALLBACK_CASES = {
    "doubled quote": (lambda t: replace_nth(t, NAME, '"Broadway & ""W"" 49 St"'), False),
    "quoted comma": (lambda t: replace_nth(t, NAME, '"Broadway, W 49 St"'), True),
    "quoted newline": (lambda t: replace_nth(t, NAME, '"Broadway\nW 49 St"'), True),
    "quoted CRLF": (lambda t: replace_nth(t, NAME, '"Broadway\r\nW 49 St"'), True),
    "blank line": (lambda t: replace_nth(t, "\n", "\n\n"), False),
    "whitespace line": (lambda t: replace_nth(t, "\n", "\n  \n"), False),
    "lone CR": (lambda t: replace_nth(t, "\n", "\r"), False),
    "lone CR and a space": (lambda t: replace_nth(t, "\n", "\r "), False),
    "semicolon between fields": (lambda t: replace_nth(t, '","173","', '";"173","'), False),
    "space after a comma": (lambda t: replace_nth(t, ',"173",', ', "173",'), False),
    "CRLF": (lambda t: t.replace("\n", "\r\n"), True),
    "BOM": (lambda t: "\ufeff" + t, True),
    "no final line break": (lambda t: t.rstrip("\n"), True),
    "unquoted field": (lambda t: replace_nth(t, ID, "173"), False),
    "NUL in a name": (lambda t: replace_nth(t, NAME, '"Broadway\x00W 49 St"'), False),
    "NUL in an id": (lambda t: replace_nth(t, ID, '"17\x003"'), False),
    "field longer than csv's limit": (lambda t: replace_nth(t, NAME, f'"{"x" * 140000}"'), False),
}


class TestBlockTokenizer:
    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_same_rows_and_audit_as_the_row_parse(self, monkeypatch, case):
        """Blocks of a few rows, so that rows meet block boundaries: the same
        trips and audit as csv.reader and the row parse."""
        monkeypatch.setattr("stdinet.data._BLOCK_BYTES", 700)
        edit, tokenized = FALLBACK_CASES[case]
        text = edit(quoted_trips_text())
        with trips_file(text) as path:
            if case == "field longer than csv's limit":
                # csv.reader raises csv.Error; the parse names the file and line.
                line = text[:text.index("x" * 1000)].count("\n") + 1
                with pytest.raises(csv.Error):
                    reference_parse_file(path)
                with pytest.raises(DataError, match=rf"trips\.csv: line {line}: field larger"):
                    parse_trip_files([path])
                return
            got = assert_same_outcome(lambda: parse_trip_files([path]),
                                      lambda: reference_parse_file(path))
        if got is not None:
            audit = got[1]
            assert (audit.csv_rows == 0) == tokenized
            assert audit.csv_rows < audit.rows

    def test_record_across_a_block_boundary(self, monkeypatch):
        """A quoted line break lets a record run on past the line a block ends
        with: csv.reader then reads from that block on, to the same rows."""
        split = set()
        with trips_file(replace_nth(quoted_trips_text(copies=10), NAME, '"Broadway\nW 49 St"',
                                    n=10)) as path:
            expected = reference_parse_file(path)
            for block_bytes in range(50, 800, 25):
                monkeypatch.setattr("stdinet.data._BLOCK_BYTES", block_bytes)
                got = parse_trip_files([path])
                assert_same_parse(got, expected)
                split.add(got[1].csv_rows > 0)
        assert split == {False, True}

    def test_invalid_utf8_raises_as_the_text_reader_does(self, tmp_path, monkeypatch):
        monkeypatch.setattr("stdinet.data._BLOCK_BYTES", 700)
        path = tmp_path / "trips.csv"
        path.write_bytes(replace_nth(quoted_trips_text(), "Broadway", "Broad\udcffway").encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(UnicodeDecodeError):
            reference_parse_file(path)
        with pytest.raises(UnicodeDecodeError):
            parse_trip_files([path])

    def test_text_reader_hands_the_handle_back(self):
        """The csv.reader fallback reads through a text wrapper of the
        caller's handle and detaches it when done: no ResourceWarning, and
        the handle stays open and usable until the caller closes it."""
        edit, tokenized = FALLBACK_CASES["unquoted field"]
        assert not tokenized
        with trips_file(edit(quoted_trips_text())) as path:
            with warnings.catch_warnings(record=True) as caught, open(path, "rb") as fh:
                warnings.simplefilter("always")
                audit = data.ParseAudit()
                chunks = list(data._trip_chunks(fh, audit))
                gc.collect()
                assert not fh.closed
                fh.seek(0)
            assert audit.csv_rows > 0 and sum(map(len, chunks)) > 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_clean_file_never_reaches_csv_reader(self, monkeypatch):
        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called on a clean file")

        monkeypatch.setattr("stdinet.data._BLOCK_BYTES", 700)
        with trips_file(quoted_trips_text()) as path:
            expected = reference_parse_file(path)
            monkeypatch.setattr("stdinet.data.csv.reader", no_reader)
            got = parse_trip_files([path])
        assert_same_parse(got, expected)
        assert got[1].csv_rows == 0

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        """A clean file of 8 blocks peaks at most twice as high as one of 1 block:
        only the trip table grows with the file."""
        header, *rows = FIXTURE.read_text().splitlines(keepends=True)
        peaks = []
        for blocks in (1, 8):
            path = tmp_path / f"trips-{blocks}.csv"
            copies = blocks * data._BLOCK_BYTES // len("".join(rows)) + 1
            path.write_text(header + "".join(rows) * copies)
            tracemalloc.start()
            try:
                trips, audit = parse_trip_files([path])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert audit.rows == 3 * copies and audit.csv_rows == 0
        assert peaks[1] <= 2 * peaks[0]


def spans_of(texts):
    """``texts`` joined into one UTF-8 buffer, and each text's [start, end) in it."""
    encoded = [text.encode() for text in texts]
    lengths = np.array([len(e) for e in encoded], np.int64)
    ends = np.cumsum(lengths)
    return np.frombuffer(b"".join(encoded), np.uint8), ends - lengths, ends


class TestByteConverters:
    def test_decimals_are_float_bit_for_bit(self):
        """Plain decimals of up to 15 digits convert, to the double ``float``
        gives; every other text is left to ``float`` on its own."""
        rng = np.random.default_rng(5)
        texts = ["-0", "0.", ".5", "-.5", ".", "-", "", "+1", " 1", "1..2", "--1", "1e3", "nan",
                 "\u0661.5", "9007199254740993", "0.9007199254740993", "-73.99392888"]
        for _ in range(4000):
            digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 18))))
            point = int(rng.integers(0, len(digits) + 1))
            text = digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits
            texts.append("-" * int(rng.integers(0, 2)) + text)
        values, ok = data._decimal_column(*spans_of(texts))
        for text, value, converted in zip(texts, values.tolist(), ok.tolist()):
            plain = re.fullmatch(r"-?(\d+\.?\d*|\.\d+)", text, re.ASCII)
            assert converted == (plain is not None and sum(map(str.isdigit, text)) <= 15), text
            if converted:
                assert np.float64(value).tobytes() == np.float64(float(text)).tobytes(), text

    def test_ids_are_int(self):
        """Ids of 1 to 18 ASCII digits convert, as ``int``; the rest are left to ``int``."""
        rng = np.random.default_rng(6)
        texts = ["0", "007", "", "-5", "+5", "1_0", "\u0661", " 1", "1 ", "9" * 18, "9" * 19,
                 "9223372036854775808", "18446744073709551617"]
        texts += [str(v) for v in rng.integers(0, 10 ** 18, 500) // 10 ** rng.integers(0, 18, 500)]
        values, ok = data._id_column(*spans_of(texts))
        for text, value, converted in zip(texts, values.tolist(), ok.tolist()):
            assert converted == (re.fullmatch(r"\d{1,18}", text, re.ASCII) is not None), text
            if converted:
                assert value == int(text), text


class TestSelectStations:
    def test_top_two_by_volume(self):
        records = []
        for sid, count in ((10, 10), (20, 5), (30, 1)):
            records += [trip(0, 0, s=sid, e=sid)] * count  # 2 events per trip
        assert select_stations(table(records), n=2) == [10, 20]

    def test_tie_goes_to_lower_id(self):
        records = table([trip(0, 0, s=5, e=5), trip(0, 0, s=3, e=3), trip(0, 0, s=9, e=9)])
        assert select_stations(records, n=2) == [3, 5]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        records = []
        for sid in range(200):
            for _ in range(int(rng.integers(1, 30))):
                records.append(trip(0, 0, s=sid, e=int(rng.integers(0, 200))))
        got = select_stations(table(records), n=128)
        counts = {}
        for _, _, s, e, *_ in records:
            counts[s] = counts.get(s, 0) + 1
            counts[e] = counts.get(e, 0) + 1
        oracle = [sid for sid, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:128]
        assert got == oracle

    def test_too_few_stations_fatal(self):
        with pytest.raises(DataError, match="2"):
            select_stations(table([trip(0, 0, s=1, e=2)]), n=5)


class TestAssignGrid:
    def test_square_corners(self):
        # NW, NE on the top row; SW, SE on the bottom row.
        stations = [
            (1, 41.0, -74.2),  # NW
            (2, 41.0, -73.8),  # NE
            (3, 40.5, -74.2),  # SW
            (4, 40.5, -73.8),  # SE
        ]
        grid = assign_grid(stations, 2, 2)
        assert grid.position[1] == (0, 0)
        assert grid.position[2] == (0, 1)
        assert grid.position[3] == (1, 0)
        assert grid.position[4] == (1, 1)

    def test_collinear_stations_still_bijective(self):
        stations = [(sid, 40.7, -74.0) for sid in (4, 2, 9, 1)]
        grid = assign_grid(stations, 2, 2)
        assert sorted(grid.position.values()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(set(grid.order)) == 4

    def test_random_points_bijective_and_rows_lon_sorted(self):
        rng = np.random.default_rng(1)
        stations = [(sid, float(rng.uniform(40.4, 41.0)), float(rng.uniform(-74.2, -73.6)))
                    for sid in range(128)]
        grid = assign_grid(stations, 8, 16)
        assert len(set(grid.order)) == 128
        assert sorted(grid.position.values()) == [(r, c) for r in range(8) for c in range(16)]
        for r in range(8):
            lons = [grid.coords[grid.order[r * 16 + c]][1] for c in range(16)]
            assert lons == sorted(lons)

    def test_wrong_count_fatal(self):
        with pytest.raises(DataError):
            assign_grid([(1, 40.7, -74.0)], 2, 2)

    def test_modal_coordinates(self):
        records = [trip(0, 0, s=1, e=1, lat=40.7, lon=-74.0)] * 3
        records.append(trip(0, 0, s=1, e=1, lat=40.8, lon=-73.9))
        coords = station_coordinates(table(records))
        assert coords == {1: (40.7, -74.0)}


class TestBuildSeries:
    def grid2(self):
        return assign_grid([(1, 41.0, -74.2), (2, 41.0, -73.8),
                            (3, 40.5, -74.2), (4, 40.5, -73.8)], 2, 2)

    def test_counts_three_starts_in_one_hour(self):
        t0 = APRIL_1_2014
        records = [trip(t0 + 7 * 3600 + k * 60, t0 + 8 * 3600, s=1, e=2) for k in range(3)]
        series, audit = build_demand_series(table(records), self.grid2(), t0, t0 + 24 * 3600)
        assert series.values[7, 0, 0, 0] == 3.0
        assert audit["accepted_starts"] == 3

    def test_start_and_stop_binned_independently(self):
        t0 = APRIL_1_2014
        rec = trip(t0 + 9 * 3600 + 59 * 60, t0 + 10 * 3600 + 60, s=1, e=1)
        series, _ = build_demand_series(table([rec]), self.grid2(), t0, t0 + 24 * 3600)
        assert series.values[9, 0, 0, 0] == 1.0   # start in hour 9
        assert series.values[10, 1, 0, 0] == 1.0  # stop in hour 10

    def test_out_of_range_and_unknown_station_audited(self):
        t0 = APRIL_1_2014
        records = [
            trip(t0 - 10, t0 + 30, s=1, e=1),          # start before range
            trip(t0 + 30, t0 + 60, s=999, e=1),        # unknown start station
        ]
        series, audit = build_demand_series(table(records), self.grid2(), t0, t0 + 3600)
        assert audit["out_of_range_starts"] == 1
        assert audit["unselected_station_starts"] == 1
        assert audit["accepted_stops"] == 2
        assert series.values[:, 0].sum() == audit["accepted_starts"] == 0

    def test_conservation_channel_sums(self):
        rng = np.random.default_rng(2)
        t0 = APRIL_1_2014
        grid = self.grid2()
        records = []
        for _ in range(500):
            start = t0 + int(rng.integers(0, 48 * 3600))
            records.append(trip(start, start + int(rng.integers(0, 7200)),
                                s=int(rng.choice([1, 2, 3, 4])),
                                e=int(rng.choice([1, 2, 3, 4]))))
        series, audit = build_demand_series(table(records), grid, t0, t0 + 48 * 3600)
        assert series.values[:, 0].sum() == audit["accepted_starts"]
        assert series.values[:, 1].sum() == audit["accepted_stops"]
        assert audit["accepted_starts"] == 500  # all starts inside the range

    def test_unaligned_range_rejected(self):
        with pytest.raises(UsageError):
            build_demand_series(table([]), self.grid2(), 10, 7210)

    def test_derive_time_range_covers_starts(self):
        records = [trip(APRIL_1_2014 + 100, APRIL_1_2014 + 200),
                   trip(APRIL_1_2014 + 5 * 3600, APRIL_1_2014 + 6 * 3600)]
        t0, t1 = derive_time_range(table(records))
        assert t0 == APRIL_1_2014
        assert t1 == APRIL_1_2014 + 6 * 3600


# The per-record passes that the columnar ones replaced, kept as references.
Record = namedtuple("Record", "start_epoch stop_epoch start_station end_station "
                              "start_lat start_lon end_lat end_lon")


def reference_select_stations(records, n):
    counts = Counter()
    for rec in records:
        counts[rec.start_station] += 1
        counts[rec.end_station] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [sid for sid, _ in ranked[:n]]


def reference_station_coordinates(records):
    seen = {}
    for rec in records:
        seen.setdefault(rec.start_station, Counter())[(rec.start_lat, rec.start_lon)] += 1
        seen.setdefault(rec.end_station, Counter())[(rec.end_lat, rec.end_lon)] += 1
    return {sid: min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for sid, counter in seen.items()}


def reference_build_demand_series(records, grid, t0, t1, interval):
    length = (t1 - t0) // interval
    values = np.zeros((length, 2, grid.rows, grid.cols), dtype=np.float32)
    audit = Counter()
    for rec in records:
        for channel, epoch, sid in ((0, rec.start_epoch, rec.start_station),
                                    (1, rec.stop_epoch, rec.end_station)):
            kind = "starts" if channel == 0 else "stops"
            if not t0 <= epoch < t1:
                audit[f"out_of_range_{kind}"] += 1
                continue
            pos = grid.position.get(sid)
            if pos is None:
                audit[f"unselected_station_{kind}"] += 1
                continue
            values[(epoch - t0) // interval, channel, pos[0], pos[1]] += 1.0
            audit[f"accepted_{kind}"] += 1
    return values, audit


def random_trips(seed, n):
    """Trips over 40 stations with few distinct counts and coordinates, so that
    ties are common; some stops run past the series end or before its start."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, 500), size=40, replace=False)
    lats = rng.choice([40.70, 40.71, 40.72], size=(40, 3))
    lons = rng.choice([-74.0, -73.99], size=(40, 3))
    s, e = rng.integers(0, 40, size=(2, n))
    ks, ke = rng.integers(0, 3, size=(2, n))
    start = APRIL_1_2014 + rng.integers(0, 30 * 3600, n)
    stop = start + rng.integers(-7200, 6 * 3600, n)
    return table(list(zip(start.tolist(), stop.tolist(), ids[s].tolist(), ids[e].tolist(),
                          lats[s, ks].tolist(), lons[s, ks].tolist(),
                          lats[e, ke].tolist(), lons[e, ke].tolist())))


class TestColumnarPassesMatchReferences:
    @pytest.mark.parametrize("seed,n", [(0, 30), (1, 200), (2, 3000)])
    def test_selection_coordinates_and_series(self, seed, n):
        trips = random_trips(seed, n)
        records = [Record(*t) for t in trips.tolist()]
        assert select_stations(trips, n=16) == reference_select_stations(records, 16)
        coords = station_coordinates(trips)
        assert coords == reference_station_coordinates(records)
        assert all(type(k) is int and type(lat) is float and type(lon) is float
                   for k, (lat, lon) in coords.items())
        grid = assign_grid([(sid, *coords[sid]) for sid in select_stations(trips, n=16)], 4, 4)
        for interval in (3600, 1800):
            t0, t1 = derive_time_range(trips, interval)
            t1 -= 4 * interval          # leaves some starts out of range too
            series, audit = build_demand_series(trips, grid, t0, t1, interval)
            values, ref_audit = reference_build_demand_series(records, grid, t0, t1, interval)
            assert dict(audit) == dict(ref_audit)
            assert all(type(count) is int for count in audit.values())
            assert series.values.dtype == values.dtype
            assert series.values.tobytes() == values.tobytes()


def stacked_arrays(windows):
    """The per-window stack that ``windows_to_arrays`` replaced, kept as its reference."""
    inputs = np.stack([w.inputs for w in windows]).astype(np.float32)
    hours = np.array([w.hour for w in windows], dtype=np.int64)
    targets = np.stack([w.target for w in windows]).astype(np.float32)
    return inputs, hours, targets


def reference_split(windows, test_days, val_frac):
    """The sorted and filtered lists that ``split_dataset`` replaced, as target indices."""
    samples = list(windows)
    end_epoch = max(w.target_epoch for w in samples) + windows.series.interval_seconds
    boundary = end_epoch - test_days * 86400
    ordered = sorted(samples, key=lambda w: w.target_epoch)
    test = [w.target_index for w in ordered if w.target_epoch >= boundary]
    rest = [w.target_index for w in ordered if w.target_epoch < boundary]
    n_val = int(len(rest) * val_frac)
    return rest[:len(rest) - n_val], rest[len(rest) - n_val:], test


class TestWindows:
    def test_count_and_target_indices(self):
        series = random_demand_series(5, seed=3)
        windows = make_windows(series, seq_len=3)
        assert len(windows) == 2
        assert [w.target_index for w in windows] == [3, 4]
        first, _ = windows
        np.testing.assert_array_equal(first.inputs, series.values[0:3])
        np.testing.assert_array_equal(first.target, series.values[3])
        assert first.target_epoch == series.start_epoch + 3 * 3600

    def test_hour_label_midnight_start(self):
        series = random_demand_series(30, seed=4, start_epoch=0)
        windows = make_windows(series, seq_len=3)
        by_index = {w.target_index: w for w in windows}
        assert by_index[27].hour == 3

    def test_matches_slicing_oracle(self):
        series = random_demand_series(12, seed=5)
        windows = make_windows(series, seq_len=3)
        for w in windows:
            t = w.target_index
            np.testing.assert_array_equal(w.inputs, series.values[t - 3:t])
            np.testing.assert_array_equal(w.target, series.values[t])
            assert w.hour == ((series.start_epoch + t * 3600) // 3600) % 24

    def test_too_short_series_fatal(self):
        with pytest.raises(DataError):
            make_windows(random_demand_series(3, seed=6), seq_len=3)

    def test_slices_and_sums_are_windows_of_the_series(self):
        series = random_demand_series(20, seed=6)
        windows = make_windows(series, seq_len=4)
        for part in (windows[2:5], windows[-3:] + windows[:2], windows[windows.index % 2 == 0]):
            assert isinstance(part, Windows)
            assert part.series is series and part.seq_len == 4
        assert (windows[-3:] + windows[:2]).index.tolist() == [17, 18, 19, 4, 5]
        assert len(windows[5:5]) == 0 and not windows[5:5]

    @pytest.mark.parametrize("other", [
        make_windows(random_demand_series(20, seed=6), seq_len=4),
        make_windows(random_demand_series(20, seed=7), seq_len=3)])
    def test_windows_of_another_series_or_length_do_not_join(self, other):
        windows = make_windows(random_demand_series(20, seed=7), seq_len=4)
        with pytest.raises(UsageError, match="one series"):
            windows + other


class TestSplit:
    def test_full_scale_test_count_matches_timestamp_oracle(self):
        series = random_demand_series(4392, seed=7, start_epoch=APRIL_1_2014)
        windows = make_windows(series, seq_len=3)
        train, val, test = split_dataset(windows, test_days=10, val_frac=0.1)
        boundary = series.end_epoch - 10 * 86400
        oracle = sum(1 for w in windows if w.target_epoch >= boundary)
        assert len(test) == oracle == 240
        assert len(train) + len(val) + len(test) == len(windows) == 4389

    def test_partition_disjoint_by_target_index(self):
        series = random_demand_series(400, seed=8)
        windows = make_windows(series, seq_len=3)
        train, val, test = split_dataset(windows, test_days=2, val_frac=0.1)
        ids = [w.target_index for w in train + val + test]
        assert len(ids) == len(set(ids)) == len(windows)

    def test_val_is_latest_slice_of_non_test(self):
        series = random_demand_series(400, seed=9)
        windows = make_windows(series, seq_len=3)
        train, val, test = split_dataset(windows, test_days=2, val_frac=0.1)
        assert max(w.target_epoch for w in train) < min(w.target_epoch for w in val)
        assert max(w.target_epoch for w in val) < min(w.target_epoch for w in test)

    def test_empty_split_fatal(self):
        series = random_demand_series(30, seed=10)
        windows = make_windows(series, seq_len=3)
        with pytest.raises(DataError, match="empty split"):
            split_dataset(windows, test_days=10, val_frac=0.1)

    @pytest.mark.parametrize("val_frac", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_val_frac_outside_unit_interval_rejected(self, val_frac):
        windows = make_windows(random_demand_series(400, seed=8), seq_len=3)
        with pytest.raises(UsageError, match="val_frac"):
            split_dataset(windows, test_days=2, val_frac=val_frac)

    def test_windows_to_arrays_shapes(self):
        series = random_demand_series(30, seed=11)
        windows = make_windows(series, seq_len=3)
        inputs, hours, targets = windows_to_arrays(windows)
        assert inputs.shape == (27, 3, 2, 2, 2)
        assert hours.shape == (27,)
        assert targets.shape == (27, 2, 2, 2)

    @pytest.mark.parametrize("seq_len", [1, 3, 5])
    def test_windows_to_arrays_matches_per_window_stack(self, seq_len):
        series = random_demand_series(400, rows=2, cols=3, seed=12, start_epoch=APRIL_1_2014 + 1800)
        windows = make_windows(series, seq_len)
        train, val, test = split_dataset(windows, test_days=2, val_frac=0.1)
        for part in (windows, train, val, test, val + train):
            for got, want in zip(windows_to_arrays(part), stacked_arrays(part)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("test_days,val_frac", [(2, 0.1), (3, 0.5), (1, 0.01), (15, 0.2)])
    @pytest.mark.parametrize("interval", [3600, 1800, 5400])
    def test_matches_sorted_list_split(self, test_days, val_frac, interval):
        series = random_demand_series(800, seed=13, start_epoch=APRIL_1_2014 + 900)
        series.interval_seconds = interval
        windows = make_windows(series, seq_len=3)
        shuffled = windows[np.random.default_rng(14).permutation(len(windows))]
        want = reference_split(shuffled, test_days, val_frac)
        for source in (windows, shuffled):
            got = split_dataset(source, test_days=test_days, val_frac=val_frac)
            assert [part.index.tolist() for part in got] == [list(part) for part in want]


class TestEmbeddings:
    def write_table(self, path, hours=range(24), dim=4, shuffle=False):
        rng = np.random.default_rng(12)
        lines = [f"{h} " + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) for h in hours]
        if shuffle:
            lines = lines[::-1]
        path.write_text("\n".join(lines) + "\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=4, shuffle=True)
        table = load_hour_embeddings(path, dim=4)
        assert table.shape == (24, 4)
        first_line = path.read_text().splitlines()[0].split()
        np.testing.assert_allclose(table[int(first_line[0])],
                                   [float(x) for x in first_line[1:]])

    def test_missing_hour_is_named(self, tmp_path):
        path = tmp_path / "emb.txt"
        self.write_table(path, hours=[h for h in range(24) if h != 17])
        with pytest.raises(DataError, match="17"):
            load_hour_embeddings(path, dim=4)

    def test_dimension_mismatch_fatal(self, tmp_path):
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=4)
        with pytest.raises(DataError, match="expected 6"):
            load_hour_embeddings(path, dim=6)

    @pytest.mark.parametrize("value", ["abc", "1,5", "nan", "-inf", "1e999"])
    def test_value_not_a_finite_number_is_fatal_and_named(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=3)
        lines = path.read_text().splitlines()
        lines[3] = f"3 0.1 {value} 0.2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: token '3'")):
            load_hour_embeddings(path, dim=3)

    def test_extra_tokens_ignored(self, tmp_path):
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=3)
        with open(path, "a") as fh:
            fh.write("the 0.1 0.2 0.3\n48 1.0 2.0\n")  # words and non-hours skipped
        table = load_hour_embeddings(path, dim=3)
        assert table.shape == (24, 3)

    def test_digit_token_that_is_not_an_int_is_ignored(self, tmp_path):
        """'²' passes str.isdigit but int() refuses it: it is one of the other tokens."""
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=3)
        table = load_hour_embeddings(path, dim=3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\u00b2 0.1 0.2 0.3\n1\u00b2 0.4 0.5 0.6\n")
        np.testing.assert_array_equal(load_hour_embeddings(path, dim=3), table)

    def test_hour_tokens_match_exactly(self, tmp_path):
        """Only the strings "0".."23" name hours: "07", "000" and an Arabic-Indic
        three are other tokens, though int() reads them as 7, 0 and 3."""
        path = tmp_path / "emb.txt"
        self.write_table(path, dim=3)
        table = load_hour_embeddings(path, dim=3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("07 99 99 99\n000 -5 -5 -5\n\u0663 42 42 42\n")
        np.testing.assert_array_equal(load_hour_embeddings(path, dim=3), table)

    def test_generated_table_deterministic_and_unit_variance(self):
        a = generate_hour_embeddings(50, seed=13)
        b = generate_hour_embeddings(50, seed=13)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (24, 50)
        assert abs(a.std() - 1.0) < 0.1
        assert not np.array_equal(a, generate_hour_embeddings(50, seed=14))


class TestSeriesFile:
    def test_round_trip_and_header(self, tmp_path):
        series = random_demand_series(10, rows=2, cols=3, seed=15, start_epoch=APRIL_1_2014)
        path = tmp_path / "demand.stdm"
        write_demand_series(path, series)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"STDM"
        loaded = read_demand_series(path)
        assert loaded.start_epoch == APRIL_1_2014
        assert loaded.interval_seconds == 3600
        np.testing.assert_array_equal(loaded.values, series.values)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_series_round_trips(self, data):
        """Every header field and every count comes back as written: any float32
        bit pattern of a finite value >= 0, -0.0 and subnormals included."""
        rows = data.draw(st.integers(1, 5), label="rows")
        cols = data.draw(st.integers(1, 5), label="cols")
        length = data.draw(st.integers(0, 40), label="length")
        series = DemandSeries(
            start_epoch=data.draw(st.integers(-2**63, 2**63 - 1), label="start_epoch"),
            interval_seconds=data.draw(st.integers(1, 2**32 - 1), label="interval"),
            values=data.draw(arrays(np.float32, (length, 2, rows, cols), elements=COUNTS),
                             label="values"),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "demand.stdm"
            write_demand_series(path, series)
            loaded = read_demand_series(path)
        assert (loaded.start_epoch, loaded.interval_seconds, loaded.length, loaded.rows,
                loaded.cols) == (series.start_epoch, series.interval_seconds, length, rows, cols)
        assert loaded.values.dtype == np.float32
        assert loaded.values.tobytes() == series.values.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, -1e-45])
    def test_negative_or_non_finite_count_is_a_data_error(self, tmp_path, value):
        series = random_demand_series(10, seed=16)
        series.values[7, 1, 0, 1] = value
        path = tmp_path / "demand.stdm"
        write_demand_series(path, series)
        with pytest.raises(DataError, match="negative or non-finite"):
            read_demand_series(path)

    def test_negative_zero_and_subnormal_counts_load(self, tmp_path):
        series = random_demand_series(10, seed=16)
        series.values[3, 0, 1, 0] = -0.0
        series.values[4, 1, 1, 1] = np.float32(1e-45)
        path = tmp_path / "demand.stdm"
        write_demand_series(path, series)
        assert read_demand_series(path).values.tobytes() == series.values.tobytes()

    def test_byte_identical_rewrites(self, tmp_path):
        series = random_demand_series(6, seed=16)
        p1, p2 = tmp_path / "a.stdm", tmp_path / "b.stdm"
        write_demand_series(p1, series)
        write_demand_series(p2, series)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cut", [4, -4], ids=["short", "long"])
    def test_data_size_disagreeing_with_header_is_a_data_error(self, tmp_path, cut):
        path = tmp_path / "demand.stdm"
        write_demand_series(path, random_demand_series(10, seed=16))
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut] if cut > 0 else raw + b"\0" * -cut)
        with pytest.raises(DataError, match="expected 320 data bytes"):
            read_demand_series(path)

    def test_short_read_is_a_data_error(self, tmp_path, monkeypatch):
        """A file that ends early, though its size matched the header when checked."""
        path = tmp_path / "demand.stdm"
        write_demand_series(path, random_demand_series(10, seed=16))
        path.write_bytes(path.read_bytes()[:-8])
        fstat = data.os.fstat
        monkeypatch.setattr(data, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8)))
        with pytest.raises(DataError, match="after 78 of 80 values"):
            read_demand_series(path)

    def test_read_peak_memory_is_near_the_counts(self, tmp_path):
        """A read holds one copy of the counts: no blob of the file's bytes."""
        path = tmp_path / "demand.stdm"
        write_demand_series(path, random_demand_series(2500, rows=8, cols=16, seed=17))
        counts = 2500 * 2 * 8 * 16 * 4
        tracemalloc.start()
        try:
            read_demand_series(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts > 2_000_000
        assert peak <= 1.5 * counts, f"peak {peak} bytes for {counts} bytes of counts"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.stdm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            read_demand_series(path)

    def test_station_map_sidecar(self, tmp_path):
        grid = assign_grid([(1, 41.0, -74.2), (2, 41.0, -73.8),
                            (3, 40.5, -74.2), (4, 40.5, -73.8)], 2, 2)
        path = tmp_path / "map.json"
        write_station_map(path, grid)
        import json
        payload = json.loads(path.read_text())
        assert payload["1"] == [0, 0, 41.0, -74.2]
        assert len(payload) == 4


class TestSynthetic:
    def test_regime_series_is_integral_and_nonnegative(self):
        series = regime_demand_series(200, seed=17)
        assert series.values.min() >= 0
        np.testing.assert_array_equal(series.values, np.round(series.values))

    def test_regime_series_follows_declared_maps(self):
        series = regime_demand_series(400, seed=18, noise=0.0)
        # The regimes as the generator draws them before the first frame: for
        # each of the 4, a permutation matrix times the regime's scale, then a bias.
        rng = np.random.default_rng(18)
        maps, biases = [], []
        for scale in (0.9, 0.6, 0.8, 0.7):
            mat = np.zeros((8, 8))
            mat[np.arange(8), rng.permutation(8)] = scale
            maps.append(mat)
            biases.append(rng.uniform(1.0, 4.0, size=8))
        flat = series.values.reshape(400, -1).astype(np.float64)
        for t in range(1, 400):
            r = (t % 24) % 4
            expected = np.maximum(np.round(maps[r] @ flat[t - 1] + biases[r]), 0.0)
            np.testing.assert_array_equal(flat[t], expected)
