"""Mutation tests of the file readers: every damaged file loads or is refused.

A fixed-seed loop makes 500 mutants each of a toy STDI checkpoint, a
50-interval demand series, a 24-line hour table and the trip fixture
``tests/data/trips_small.csv``: byte flips, inserted digits (both in the
first 600 bytes, with the checkpoint header's manifest length, bytes 8-11,
among the flipped bytes) and truncations.  A binary reader refuses a mutant
with a DataError, a text reader with a DataError or a UnicodeDecodeError;
the CLI maps each to exit code 3.  All of them run in one child process
under a 2 GiB address-space limit, so a reader that sizes an allocation
from a damaged field fails the test with a MemoryError instead of taking
the machine's memory.  ``PYTHONPATH=src python tests/test_fuzz.py`` prints
the child's report.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import stdinet
from stdinet import DataError
from stdinet.data import (
    generate_hour_embeddings,
    load_hour_embeddings,
    parse_trip_files,
    random_demand_series,
    read_demand_series,
    write_demand_series,
)
from stdinet.model import TOY_DIMS, build_model, load_checkpoint, save_checkpoint

MUTANTS = 500
ADDRESS_SPACE = 2 << 30
TRIPS = Path(__file__).parent / "data" / "trips_small.csv"
TEXT_ERRORS = (DataError, UnicodeDecodeError)


def mutants(raw, rng, manifest_length_at=None):
    """(description, bytes) of MUTANTS mutants of ``raw``, in turn a flip, an
    inserted digit and a truncation.

    One flip in four lands in bytes 8-11.  A digit inserted into a
    checkpoint's manifest (``manifest_length_at`` is the offset of its u32
    length) also grows that length by one, so the manifest still parses.
    """
    for i in range(MUTANTS):
        out = bytearray(raw)
        if i % 3 == 0:
            pos = rng.randrange(8, 12) if i % 4 == 0 else rng.randrange(600)
            out[pos] ^= rng.randrange(1, 256)
            yield f"flip byte {pos} to {out[pos]}", bytes(out)
        elif i % 3 == 1:
            pos, digit = rng.randrange(600), rng.choice(b"0123456789")
            out.insert(pos, digit)
            at = manifest_length_at
            if at is not None and pos >= at + 4:
                out[at:at + 4] = (int.from_bytes(raw[at:at + 4], "little") + 1).to_bytes(4, "little")
            yield f"insert {chr(digit)} at byte {pos}", bytes(out)
        else:
            cut = rng.randrange(len(raw))
            yield f"truncate to {cut} bytes", raw[:cut]


def fuzz(reader, raw, path, rng, refused=DataError, **kwargs):
    """How ``reader`` met each mutant: counts of loads and of the ``refused``
    errors, the slowest mutant's seconds, and every other outcome as
    (mutant, error)."""
    report = {"loaded": 0, "refused": 0, "slowest_s": 0.0, "failures": []}
    for what, mutant in mutants(raw, rng, **kwargs):
        path.write_bytes(mutant)
        start = time.perf_counter()
        try:
            reader(path)
            report["loaded"] += 1
        except refused:
            report["refused"] += 1
        except BaseException as exc:  # anything else, MemoryError included, is a finding
            report["failures"].append([what, f"{type(exc).__name__}: {exc}"[:300]])
        report["slowest_s"] = max(report["slowest_s"], time.perf_counter() - start)
    return report


def child():
    """Fuzz the four readers under the address-space limit; print a JSON report."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, series, mutant = (Path(tmp) / name for name in ("stdi.ckpt", "toy.stdm", "mutant"))
        save_checkpoint(ckpt, build_model("STDI", TOY_DIMS, seed=0), extra={"test_days": 2})
        write_demand_series(series, random_demand_series(50, seed=8, start_epoch=1396310400))
        hours = "".join(f"{h} {' '.join(map(repr, row))}\n"
                        for h, row in enumerate(generate_hour_embeddings(4).tolist()))
        report = {
            "checkpoint": fuzz(load_checkpoint, ckpt.read_bytes(), mutant, random.Random(26),
                               manifest_length_at=8),
            "series": fuzz(read_demand_series, series.read_bytes(), mutant, random.Random(27)),
            "hour_table": fuzz(lambda p: load_hour_embeddings(p, 4), hours.encode(), mutant,
                               random.Random(28), refused=TEXT_ERRORS),
            "trips": fuzz(lambda p: parse_trip_files([p]), TRIPS.read_bytes(), mutant,
                          random.Random(29), refused=TEXT_ERRORS),
        }
    print(json.dumps(report))


@pytest.fixture(scope="module")
def report():
    src = str(Path(stdinet.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    return {**json.loads(run.stdout), "wall_s": time.perf_counter() - start}


@pytest.mark.parametrize("reader", ["checkpoint", "series", "hour_table", "trips"])
def test_every_mutant_loads_or_is_a_data_error(report, reader):
    got = report[reader]
    assert got["loaded"] + got["refused"] + len(got["failures"]) == MUTANTS
    assert not got["failures"], got["failures"][:5]
    assert got["refused"] > 0


def test_mutants_run_in_under_ten_seconds(report):
    assert report["wall_s"] < 10, report


if __name__ == "__main__":
    child()
