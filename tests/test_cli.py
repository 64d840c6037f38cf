"""End-to-end CLI tests driving main() in process."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import rewrite_manifest

import stdinet
import stdinet.cli
from stdinet.cli import main, parse_overrides, resolve_path
from stdinet.model import build_model
from stdinet.data import random_demand_series, read_demand_series, write_demand_series

HEADER = ",".join(f'"{c}"' for c in (
    "tripduration", "starttime", "stoptime",
    "start station id", "start station name",
    "start station latitude", "start station longitude",
    "end station id", "end station name",
    "end station latitude", "end station longitude",
    "bikeid", "usertype", "birth year", "gender"))


def synth_trips_csv(path, n_stations=128, days=3, per_hour=40, seed=0):
    """Deterministic citywide trip file covering n_stations."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(40.65, 40.85, size=n_stations)
    lons = rng.uniform(-74.05, -73.90, size=n_stations)
    rows = []
    for day in range(days):
        for hour in range(24):
            for k in range(per_hour):
                s = int(rng.integers(0, n_stations))
                e = int(rng.integers(0, n_stations))
                minute = int(rng.integers(0, 50))
                start = f"2014-04-{day + 1:02d} {hour:02d}:{minute:02d}:00"
                stop = f"2014-04-{day + 1:02d} {hour:02d}:{minute + 9:02d}:00"
                rows.append(
                    f'"540","{start}","{stop}","{s + 100}","s{s}","{lats[s]:.6f}","{lons[s]:.6f}",'
                    f'"{e + 100}","s{e}","{lats[e]:.6f}","{lons[e]:.6f}","1","Subscriber","1980","1"'
                )
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return len(rows)


@pytest.fixture()
def toy_series_path(tmp_path):
    series = random_demand_series(250, seed=0, start_epoch=1396310400)
    path = tmp_path / "toy.stdm"
    write_demand_series(path, series)
    return path


FAST = "epochs=2,patience=2,batch_size=32,test_days=2"


class TestIngest:
    def test_round_trip_header(self, tmp_path):
        trips = tmp_path / "trips.csv"
        synth_trips_csv(trips)
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out),
                     "--stations", "128", "--grid", "8x16", "--interval", "3600"]) == 0
        series = read_demand_series(out)
        assert (series.rows, series.cols) == (8, 16)
        assert series.interval_seconds == 3600
        assert (tmp_path / "series.stdm.stations.json").exists()
        assert (tmp_path / "series.stdm.manifest.json").exists()

    def test_two_runs_byte_identical(self, tmp_path):
        trips = tmp_path / "trips.csv"
        synth_trips_csv(trips)
        outs = []
        for name in ("a.stdm", "b.stdm"):
            out = tmp_path / name
            assert main(["ingest", "--trips", str(trips), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_conservation_against_row_count(self, tmp_path):
        trips = tmp_path / "trips.csv"
        n_rows = synth_trips_csv(trips, per_hour=10)
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out)]) == 0
        series = read_demand_series(out)
        # every synthetic trip starts and stops inside the range at selected stations
        assert int(series.values[:, 0].sum()) == n_rows
        assert int(series.values[:, 1].sum()) == n_rows

    def test_short_rows_are_counted_not_fatal(self, tmp_path):
        trips = tmp_path / "trips.csv"
        n_rows = synth_trips_csv(trips, per_hour=10)
        with open(trips, "a", encoding="utf-8") as fh:
            fh.write('"100"\n"100","2014-04-01 00:00:00"\n')
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out)]) == 0
        config = json.loads((tmp_path / "series.stdm.manifest.json").read_text())["config"]
        assert config["skipped"] == {"unparsable": 2}
        assert config["counters"]["accepted_starts"] == n_rows
        assert config["rows"] == config["accepted"] + sum(config["skipped"].values()) == n_rows + 2
        assert config["parse_s"] > 0
        assert config["trips_per_s"] == pytest.approx(config["rows"] / config["parse_s"], rel=1e-3)

    def test_manifest_counts_rows_read_by_csv_reader(self, tmp_path):
        """The fixture is all quoted fields, so no row reaches csv.reader; a
        doubled quote sends the rest of the file there."""
        fixture = Path(__file__).parent / "data" / "trips_small.csv"
        doubled = tmp_path / "doubled.csv"
        doubled.write_bytes(fixture.read_bytes().replace(
            b'"Broadway & W 49 St"', b'"Broadway & ""W"" 49 St"', 1))
        csv_rows = []
        for trips in (fixture, doubled):
            out = tmp_path / f"{trips.stem}.stdm"
            assert main(["ingest", "--trips", str(trips), "--out", str(out),
                         "--stations", "2", "--grid", "1x2"]) == 0
            config = json.loads(out.with_name(out.name + ".manifest.json").read_text())["config"]
            assert (config["rows"], config["accepted"], config["skipped"]) == \
                (3, 2, {"stop_before_start": 1})
            csv_rows.append(config["csv_rows"])
        assert csv_rows[0] == 0 and csv_rows[1] > 0

    def test_schema_error_exit_code(self, tmp_path):
        trips = tmp_path / "bad.csv"
        trips.write_text("starttime,stoptime\n")
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out)]) == 3

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys, caplog):
        """csv.reader refuses a field longer than its limit; ingest exits 3 naming
        the file and line, with no traceback and no series written."""
        fixture = Path(__file__).parent / "data" / "trips_small.csv"
        trips = tmp_path / "long.csv"
        trips.write_bytes(fixture.read_bytes().replace(
            b'"Broadway & W 49 St"', b'"' + b"x" * (csv.field_size_limit() + 1) + b'"', 1))
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out),
                     "--stations", "2", "--grid", "1x2"]) == 3
        assert "long.csv: line 2: field larger than field limit" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["8by16", "8x", "0x16", "8x16x2"])
    def test_bad_grid_is_a_usage_error(self, tmp_path, grid, caplog):
        trips = tmp_path / "trips.csv"
        synth_trips_csv(trips, days=1)
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out), "--grid", grid]) == 2
        assert "--grid" in caplog.text
        assert not out.exists()

    def test_grid_alone_sets_the_stations(self, tmp_path):
        """--stations defaults to the grid's cell count, its only valid value."""
        fixture = str(Path(__file__).parent / "data" / "trips_small.csv")
        outs = []
        for name, stations in (("default.stdm", []), ("explicit.stdm", ["--stations", "2"])):
            out = tmp_path / name
            assert main(["ingest", "--trips", fixture, "--out", str(out), "--grid", "1x2",
                         *stations]) == 0
            config = json.loads(out.with_name(out.name + ".manifest.json").read_text())["config"]
            assert config["stations"] == 2
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("stations, grid", [("-1", "1x1"), ("0", "1x1"), ("3", "1x2")])
    def test_stations_that_do_not_fill_the_grid_are_a_usage_error(self, tmp_path, monkeypatch,
                                                                   caplog, stations, grid):
        """--stations must equal the grid's cells; that is checked before any trip is read."""
        def no_parse(paths):
            raise AssertionError("trip files parsed before --stations was checked")

        monkeypatch.setattr(stdinet.cli.D, "parse_trip_files", no_parse)
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(Path(__file__).parent / "data" / "trips_small.csv"),
                     "--out", str(out), "--stations", stations, "--grid", grid]) == 2
        assert "--stations" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["0", "-3600"])
    def test_nonpositive_interval_is_a_usage_error(self, tmp_path, interval, caplog):
        trips = tmp_path / "trips.csv"
        synth_trips_csv(trips, days=1)
        out = tmp_path / "series.stdm"
        assert main(["ingest", "--trips", str(trips), "--out", str(out),
                     "--interval", interval]) == 2
        assert "--interval" in caplog.text
        assert not out.exists()


class TestTrain:
    def test_checkpoint_round_trip_eval(self, toy_series_path, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST, "--seed", "1", "--out", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.log.jsonl").exists()
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(toy_series_path)]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(toy_series_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "rmse=" in first

    def test_config_seed_seeds_the_whole_run(self, toy_series_path, tmp_path):
        """--config seed=N seeds the model, the hour table and the shuffle alike,
        whatever --seed says."""
        ckpts = []
        for flag in ("0", "5"):
            ckpt = tmp_path / f"seed-{flag}.ckpt"
            assert main(["train", "--data", str(toy_series_path), "--model", "STDI",
                         "--config", FAST + ",seed=5,channels=4,lstm_hidden=8,rank=4,embed_dim=6",
                         "--seed", flag, "--out", str(ckpt)]) == 0
            manifest = json.loads((tmp_path / f"seed-{flag}.ckpt.manifest.json").read_text())
            assert manifest["seed"] == 5
            ckpts.append(ckpt.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_unified_spatial_kind_accepted(self, toy_series_path, tmp_path):
        ckpt = tmp_path / "us.ckpt"
        rc = main(["train", "--data", str(toy_series_path), "--model", "UnifiedSpatial",
                   "--config", FAST + ",channels=4,lstm_hidden=8,rank=4,embed_dim=6",
                   "--seed", "0", "--out", str(ckpt)])
        assert rc == 0

    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_embedding_value_not_a_finite_number_is_a_data_error(self, toy_series_path, tmp_path,
                                                                 capsys, caplog, value):
        table = tmp_path / "hours.txt"
        table.write_text("".join(f"{h} {value if h == 3 else 0.1} 0.2 0.3 0.4 0.5 0.6\n"
                                 for h in range(24)))
        ckpt = tmp_path / "x.ckpt"
        rc = main(["train", "--data", str(toy_series_path), "--model", "STDI",
                   "--config", FAST + ",channels=4,lstm_hidden=8,rank=4,embed_dim=6",
                   "--embeddings", str(table), "--out", str(ckpt)])
        assert rc == 3
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert f"{table}: token '3'" in caplog.text
        assert not ckpt.exists()

    def test_unknown_kind_rejected_with_list(self, toy_series_path, tmp_path, caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "NotAModel",
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "UnifiedSpatial" in caplog.text

    def test_batch_size_one_is_a_usage_error(self, toy_series_path, tmp_path, caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST + ",batch_size=1,channels=4,lstm_hidden=8,rank=4,embed_dim=6",
                   "--seed", "0", "--out", str(tmp_path / "b1.ckpt")])
        assert rc == 2
        assert "train nothing" in caplog.text
        assert not (tmp_path / "b1.ckpt").exists()

    @pytest.mark.parametrize("override", ["lr=abc", "epochs=2.5", "channels=four", "val_frac=x",
                                          "patience=x"])
    def test_untyped_config_value_is_a_usage_error(self, toy_series_path, tmp_path, override,
                                                   caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST + "," + override, "--out", str(tmp_path / "c.ckpt")])
        assert rc == 2
        assert override.split("=")[0] in caplog.text

    @pytest.mark.parametrize("override", ["bogus=1", "rows=4", "validate=1"])
    def test_unknown_config_key_is_a_usage_error(self, toy_series_path, tmp_path, override,
                                                 caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST + "," + override, "--out", str(tmp_path / "k.ckpt")])
        assert rc == 2
        assert "unknown config key" in caplog.text

    @pytest.mark.parametrize("override", ["channels=0", "rank=-1", "lstm_hidden=0", "seq_len=0"])
    def test_dims_below_one_are_a_usage_error(self, toy_series_path, tmp_path, override, caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "STDIFusion",
                   "--config", FAST + "," + override, "--out", str(tmp_path / "c.ckpt")])
        assert rc == 2
        assert override.split("=")[0] in caplog.text
        assert not (tmp_path / "c.ckpt").exists()

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.1"])
    def test_val_frac_outside_unit_interval_is_a_usage_error(self, toy_series_path, tmp_path,
                                                             value, caplog):
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST + ",val_frac=" + value, "--out", str(tmp_path / "v.ckpt")])
        assert rc == 2
        assert "val_frac" in caplog.text
        assert not (tmp_path / "v.ckpt").exists()

    @pytest.mark.parametrize("override", ["lr=inf", "lr=nan", "weight_decay=nan",
                                          "weight_decay=-0.5", "weight_decay=inf"])
    def test_rate_outside_its_range_is_a_usage_error(self, toy_series_path, tmp_path, override,
                                                     caplog):
        ckpt = tmp_path / "r.ckpt"
        rc = main(["train", "--data", str(toy_series_path), "--model", "STDI",
                   "--config", FAST + ",channels=4,lstm_hidden=8,rank=4,embed_dim=6," + override,
                   "--out", str(ckpt)])
        assert rc == 2
        assert "weight_decay finite and nonnegative" in caplog.text
        assert not ckpt.exists()

    @pytest.mark.parametrize("command,args", [
        ("train", ["--model", "STDI", "--seed", "-1", "--out", "s.ckpt"]),
        ("train", ["--model", "STDI", "--config", "seed=-1", "--out", "s.ckpt"]),
        ("bench", ["--seed", "-2"])])
    def test_negative_seed_is_a_usage_error(self, toy_series_path, tmp_path, monkeypatch,
                                            command, args, caplog):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--data", str(toy_series_path), *args]) == 2
        assert "seed nonnegative" in caplog.text
        assert not list(tmp_path.glob("s.ckpt*")) and not list(tmp_path.glob("bench_*"))

    def test_nan_parameter_exit_code(self, toy_series_path, tmp_path, monkeypatch, caplog):
        def poisoned(*args, **kwargs):
            model = build_model(*args, **kwargs)
            dict(model.named_tensors())["spatial.block0.entry.kernels"].data.flat[0] = np.nan
            return model
        monkeypatch.setattr(stdinet.cli, "build_model", poisoned)
        ckpt = tmp_path / "n.ckpt"
        rc = main(["train", "--data", str(toy_series_path), "--model", "STDI",
                   "--config", FAST + ",channels=4,lstm_hidden=8,rank=4,embed_dim=6",
                   "--out", str(ckpt)])
        assert rc == 1
        assert "non-finite parameter after epoch 1" in caplog.text
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_exit_code(self, toy_series_path, tmp_path):
        rc = main(["train", "--data", str(toy_series_path), "--model", "TemporalFC",
                   "--config", FAST + ",lr=1e30", "--seed", "0",
                   "--out", str(tmp_path / "d.ckpt")])
        assert rc == 1


class TestEval:
    def test_zero_model_rmse_equals_target_rms(self, toy_series_path, tmp_path, capsys):
        from stdinet.model import TOY_DIMS, build_model, save_checkpoint
        from stdinet.data import make_windows, read_demand_series, split_dataset, windows_to_arrays

        model = build_model("SpatialTemporalFC", TOY_DIMS, seed=0, dtype=np.float32)
        for _, p in model.named_tensors():
            p.data[...] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, model, extra={"test_days": 2})
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(toy_series_path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        series = read_demand_series(toy_series_path)
        _, _, test = split_dataset(make_windows(series, 3), test_days=2, val_frac=0.1)
        _, _, targets = windows_to_arrays(test)
        assert payload["rmse"] == pytest.approx(float(np.sqrt(np.mean(targets ** 2))), rel=1e-6)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("field", [8, 12], ids=["rows", "cols"])
    def test_series_with_an_empty_grid_is_a_data_error(self, toy_series_path, tmp_path, caplog,
                                                      capsys, command, field):
        """A header with 0 rows or cols (and so no data) is the series file's fault."""
        from stdinet.model import TOY_DIMS, build_model, save_checkpoint

        header = bytearray(toy_series_path.read_bytes()[:32])
        header[field:field + 4] = bytes(4)
        data = tmp_path / "empty.stdm"
        data.write_bytes(bytes(header))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model("STDI", TOY_DIMS, seed=0), extra={"test_days": 2})
        argv = {"train": ["train", "--model", "STDI", "--out", str(tmp_path / "t.ckpt"),
                          "--config", FAST + ",channels=4,lstm_hidden=8,rank=4,embed_dim=6"],
                "eval": ["eval", "--ckpt", str(ckpt)]}[command]
        assert main(argv + ["--data", str(data)]) == 3
        assert "empty.stdm: the series grid is" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_dim_mismatch_diagnostic(self, tmp_path, caplog):
        from stdinet.model import TOY_DIMS, build_model, save_checkpoint

        model = build_model("TemporalFC", TOY_DIMS, seed=0, dtype=np.float32)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, model)
        series = random_demand_series(250, rows=4, cols=4, seed=1)
        data = tmp_path / "wide.stdm"
        write_demand_series(data, series)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 3
        assert "4x4" in caplog.text and "2x2" in caplog.text


# Manifest fields the checkpoint loader reads, as (where, key); those it
# cannot do without; and values of a type no such field may take.
READ_FIELDS = ([("top", k) for k in ("kind", "dims", "dtype", "entries", "extra")]
               + [("entry", k) for k in ("name", "shape", "dtype", "offset", "nbytes")]
               + [("dims", k) for k in ("rows", "cols", "seq_len", "channels",
                                        "lstm_hidden", "rank", "embed_dim", "fusion_dim")])
NEEDED_FIELDS = {("top", "kind"), ("top", "dims"), ("top", "entries")} | {
    f for f in READ_FIELDS if f[0] == "entry"}
WRONG_TYPES = (None, "x", 1.5, -1, [1], {"k": 1})


class TestCheckpointFaults:
    """A damaged checkpoint is a data error (exit 3), never a traceback."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        from stdinet.model import TOY_DIMS, build_model, save_checkpoint

        path = tmp_path / "stdi.ckpt"
        save_checkpoint(path, build_model("STDI", TOY_DIMS, seed=0), extra={"test_days": 2})
        return path

    def eval_rc(self, ckpt, toy_series_path):
        return main(["eval", "--ckpt", str(ckpt), "--data", str(toy_series_path)])

    def test_intact_checkpoint_evaluates(self, ckpt, toy_series_path):
        assert self.eval_rc(ckpt, toy_series_path) == 0

    def test_truncated_data_is_a_data_error(self, ckpt, toy_series_path, caplog):
        ckpt.write_bytes(ckpt.read_bytes()[:-40])
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "truncated" in caplog.text

    def test_truncated_header_is_a_data_error(self, ckpt, toy_series_path, caplog):
        ckpt.write_bytes(ckpt.read_bytes()[:7])
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "truncated" in caplog.text

    def test_garbled_manifest_is_a_data_error(self, ckpt, toy_series_path, caplog):
        raw = bytearray(ckpt.read_bytes())
        raw[12] = ord("#")
        ckpt.write_bytes(bytes(raw))
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "manifest" in caplog.text

    def test_missing_batchnorm_statistic_is_a_data_error(self, ckpt, toy_series_path, caplog):
        name = "spatial.block1.res0.bn2.running_var"

        def drop(manifest):
            manifest["entries"] = [e for e in manifest["entries"] if e["name"] != name]

        rewrite_manifest(ckpt, drop)
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert name in caplog.text

    def test_entry_size_disagreeing_with_shape_is_a_data_error(self, ckpt, toy_series_path,
                                                              caplog):
        grown = []

        def grow(manifest):
            entry = manifest["entries"][0]
            entry["shape"][0] += 1
            grown.append(entry["name"])

        rewrite_manifest(ckpt, grow)
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert grown[0] in caplog.text


    def test_entry_size_overflowing_int64_is_a_data_error(self, ckpt, toy_series_path,
                                                          caplog):
        """A shape whose element count wraps to 0 in int64 does not excuse 0 bytes."""
        def add(manifest):
            end = max(e["offset"] + e["nbytes"] for e in manifest["entries"])
            manifest["entries"].append({"name": "huge", "shape": [2**32, 2**32], "dtype": "<f4",
                                        "offset": end, "nbytes": 0, "trainable": False})

        rewrite_manifest(ckpt, add)
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "entry huge has 0 bytes" in caplog.text

    @pytest.mark.parametrize("shift,tail", [(4, b""), (-4, b""), (0, b"\0" * 4)],
                             ids=["moved-later", "moved-earlier", "tail"])
    def test_entries_not_tiling_the_data_are_a_data_error(self, ckpt, toy_series_path, caplog,
                                                          shift, tail):
        def move(manifest):
            manifest["entries"][1]["offset"] += shift

        rewrite_manifest(ckpt, move)
        ckpt.write_bytes(ckpt.read_bytes() + tail)
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "byte" in caplog.text

    @pytest.mark.parametrize("extra,key", [
        ({"test_days": 2, "scale": "x"}, "scale"),
        ({"test_days": "2"}, "test_days"),
        ({"val_frac": None}, "val_frac"),
    ], ids=["string-scale", "string-test-days", "null-val-frac"])
    def test_bad_extra_value_is_a_data_error(self, ckpt, toy_series_path, caplog, extra, key):
        rewrite_manifest(ckpt, lambda manifest: manifest.update(extra=extra))
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert f"extra {key}=" in caplog.text

    @pytest.mark.parametrize("extra,key", [
        ({"test_days": 2, "scale": 0.0}, "scale"),
        ({"test_days": 2, "scale": -2.0}, "scale"),
        ({"test_days": 2, "scale": float("nan")}, "scale"),
        ({"test_days": 2, "scale": float("inf")}, "scale"),
        ({"test_days": 2, "val_frac": 1.5}, "val_frac"),
        ({"test_days": 2, "val_frac": 0}, "val_frac"),
        ({"test_days": 2, "scale": 2.0}, "scale"),
    ], ids=["zero-scale", "negative-scale", "nan-scale", "infinite-scale", "val-frac-above-one",
            "zero-val-frac", "scaled-counts"])
    def test_out_of_range_extra_value_is_a_data_error(self, ckpt, toy_series_path, caplog,
                                                      extra, key):
        rewrite_manifest(ckpt, lambda manifest: manifest.update(extra=extra))
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert f"extra {key}=" in caplog.text

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest["dims"].update(channels=0),
        lambda manifest: manifest["dims"].update(depth=3),
        lambda manifest: manifest["dims"].update(rank="four"),
        lambda manifest: manifest.pop("dims"),
    ], ids=["zero", "unknown", "string", "missing"])
    def test_bad_dims_are_a_data_error(self, ckpt, toy_series_path, caplog, edit):
        rewrite_manifest(ckpt, edit)
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert "dims" in caplog.text

    def test_dims_too_large_to_allocate_are_a_data_error(self, ckpt, toy_series_path, caplog,
                                                         capsys):
        """The skeleton of a 10^6-wide LSTM would need terabytes; the load is refused."""
        rewrite_manifest(ckpt, lambda manifest: manifest["dims"].update(lstm_hidden=1000000))
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert str(ckpt) in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.update(kind="Bogus"),
        lambda manifest: manifest.pop("kind"),
        lambda manifest: manifest.pop("entries"),
        lambda manifest: manifest["entries"][0].pop("offset"),
        lambda manifest: manifest.update(dtype=[1]),
        lambda manifest: manifest.update(standard_skip=True),
    ], ids=["unknown-kind", "no-kind", "no-entries", "no-offset", "list-dtype",
            "identity-skip"])
    def test_damaged_manifest_is_a_data_error(self, ckpt, toy_series_path, edit):
        rewrite_manifest(ckpt, edit)
        assert self.eval_rc(ckpt, toy_series_path) == 3

    def test_short_read_is_a_data_error(self, ckpt, toy_series_path, caplog, capsys,
                                        monkeypatch):
        """A file that ends inside an entry, though the size check saw it whole."""
        raw = ckpt.read_bytes()
        mlen = int.from_bytes(raw[8:12], "little")
        entries = json.loads(raw[12:12 + mlen])["entries"]
        kept = len(raw) - 12 - mlen - 40
        cut = min((e for e in entries if e["offset"] + e["nbytes"] > kept),
                  key=lambda e: e["offset"])["name"]
        ckpt.write_bytes(raw[:-40])
        fstat = os.fstat
        monkeypatch.setattr(stdinet.model, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 40)))
        assert self.eval_rc(ckpt, toy_series_path) == 3
        assert f"entry {cut} ends after" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_unit_scale_scores_as_no_scale(self, ckpt, toy_series_path, capsys):
        assert self.eval_rc(ckpt, toy_series_path) == 0
        unscaled = capsys.readouterr().out
        rewrite_manifest(ckpt, lambda manifest: manifest["extra"].update(scale=1.0))
        assert self.eval_rc(ckpt, toy_series_path) == 0
        assert capsys.readouterr().out == unscaled

    def test_manifest_without_identity_skip_loads(self, ckpt, toy_series_path):
        rewrite_manifest(ckpt, lambda manifest: manifest.update(standard_skip=False))
        assert self.eval_rc(ckpt, toy_series_path) == 0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_deleted_or_retyped_field_is_a_data_error(self, ckpt, toy_series_path, data):
        """Delete a field the loader needs, or give any field it reads a wrong type."""
        intact = ckpt.read_bytes()
        where, key = data.draw(st.sampled_from(READ_FIELDS))
        delete = (where, key) in NEEDED_FIELDS and data.draw(st.booleans())
        value = data.draw(st.sampled_from(
            [v for v in WRONG_TYPES if key != "extra" or not isinstance(v, dict)]))
        index = data.draw(st.integers(0, 60))

        def edit(manifest):
            owner = {"top": manifest, "dims": manifest["dims"],
                     "entry": manifest["entries"][index % len(manifest["entries"])]}[where]
            if delete:
                del owner[key]
            else:
                owner[key] = value

        rewrite_manifest(ckpt, edit)
        try:
            assert self.eval_rc(ckpt, toy_series_path) == 3
        finally:
            ckpt.write_bytes(intact)


class TestGradcheck:
    def test_fast_pass_under_budget(self, capsys, tmp_path):
        import time
        started = time.time()
        assert main(["gradcheck", "--dims", "toy", "--seeds", "1",
                     "--out", str(tmp_path)]) == 0
        assert time.time() - started < 30
        out = capsys.readouterr().out
        assert "gradcheck: pass" in out
        assert "conv2d" in out
        assert (tmp_path / "gradcheck.json").exists()
        assert (tmp_path / "gradcheck.manifest.json").exists()

    @pytest.mark.parametrize("module", ["stdinet", "stdinet.cli"])
    def test_runs_as_a_module(self, tmp_path, module):
        src = str(Path(stdinet.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", module, "gradcheck", "--seeds", "1",
                               "--out", str(tmp_path)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "gradcheck.json").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_a_usage_error(self, tmp_path, seeds, caplog):
        assert main(["gradcheck", "--seeds", seeds, "--out", str(tmp_path)]) == 2
        assert "--seeds" in caplog.text
        assert not (tmp_path / "gradcheck.json").exists()

    def test_suite_results_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        import stdinet

        code = ("import json; from stdinet.gradcheck import run_suite; "
                "from stdinet.model import TOY_DIMS; "
                "print(json.dumps(run_suite(TOY_DIMS, n_seeds=1)[0]))")
        src = str(Path(stdinet.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  stdout=subprocess.PIPE, text=True, timeout=120)
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        assert "lstm" in outputs[0]

    def test_corrupted_backward_detected(self, capsys, monkeypatch, tmp_path):
        import stdinet.tensor as T

        original = T.tanh

        def broken_tanh(x):
            out = np.tanh(x.data)
            # wrong derivative: drops the 1 - tanh^2 factor
            return T._record("tanh", (x,), out, lambda g: (g,))

        monkeypatch.setattr(T, "tanh", broken_tanh)
        import stdinet.gradcheck
        import stdinet.layers
        monkeypatch.setattr(stdinet.layers.T, "tanh", broken_tanh)
        assert main(["gradcheck", "--dims", "toy", "--seeds", "1",
                     "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        monkeypatch.setattr(T, "tanh", original)


class TestBench:
    def test_table2_has_six_rows(self, toy_series_path, tmp_path, capsys):
        rc = main(["bench", "--data", str(toy_series_path), "--suite", "table2",
                   "--seed", "0", "--out", str(tmp_path),
                   "--config", FAST + ",epochs=1,patience=1"])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "bench_table2.csv").open()))
        assert len(rows) == 6
        assert {r["method"] for r in rows} == {
            "SpatialFC", "TemporalFC", "SpatialTemporalFC", "SpatialDI", "TemporalDI", "STDI"}

    def test_table3_includes_fusion_variant(self, toy_series_path, tmp_path):
        rc = main(["bench", "--data", str(toy_series_path), "--suite", "table3",
                   "--seed", "0", "--out", str(tmp_path),
                   "--config", FAST + ",epochs=1,patience=1"])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "bench_table3.csv").open()))
        assert "STDIFusion" in {r["method"] for r in rows}

    def test_val_frac_outside_unit_interval_is_a_usage_error(self, toy_series_path, tmp_path,
                                                             caplog):
        rc = main(["bench", "--data", str(toy_series_path), "--suite", "table1",
                   "--seed", "0", "--out", str(tmp_path / "out"),
                   "--config", FAST + ",epochs=1,patience=1,val_frac=1.5"])
        assert rc == 2
        assert "val_frac" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_same_seed_identical_csv(self, toy_series_path, tmp_path):
        """--seed 7, or any --seed with --config seed=7, is one run, recorded as seed 7."""
        blobs = []
        for sub, flag, override in (("r1", "7", ""), ("r2", "0", ",seed=7")):
            out = tmp_path / sub
            rc = main(["bench", "--data", str(toy_series_path), "--suite", "table1",
                       "--seed", flag, "--out", str(out),
                       "--config", FAST + ",epochs=1,patience=1" + override])
            assert rc == 0
            blobs.append((out / "bench_table1.csv").read_bytes())
            assert json.loads((out / "bench_table1.manifest.json").read_text())["seed"] == 7
        assert blobs[0] == blobs[1]


class TestPlumbing:
    def test_parse_overrides(self):
        assert parse_overrides("lr=0.01, epochs=5") == {"lr": "0.01", "epochs": "5"}
        from stdinet.errors import UsageError
        with pytest.raises(UsageError):
            parse_overrides("nonsense")

    def test_env_data_dir_resolution(self, tmp_path, monkeypatch):
        (tmp_path / "inner").mkdir()
        target = tmp_path / "inner" / "f.stdm"
        target.write_bytes(b"x")
        monkeypatch.setenv("STDI_DATA_DIR", str(tmp_path))
        assert resolve_path("inner/f.stdm") == target
        monkeypatch.delenv("STDI_DATA_DIR")
        assert resolve_path("inner/f.stdm") == Path("inner/f.stdm")

    def test_usage_error_exit_code(self):
        assert main(["bench", "--data", "/nonexistent.stdm", "--suite", "table1"]) == 3


# Toy model dims and one short epoch: no drawn --config value trains beyond these.
TOY_RUN = {"channels": "2", "lstm_hidden": "4", "rank": "2", "embed_dim": "4", "fusion_dim": "4",
           "epochs": "1", "patience": "1", "batch_size": "32", "test_days": "1"}
# Each key's drawn values stay as small as the toy run or are invalid.
CONFIG_VALUES = {
    "epochs": st.integers(-1, 2).map(str), "patience": st.integers(-1, 2).map(str),
    "batch_size": st.integers(-1, 40).map(str), "seed": st.integers(-1, 3).map(str),
    "lr": st.sampled_from(["1e-3", "0", "-1", "inf", "nan", "1e30", "x"]),
    "weight_decay": st.sampled_from(["0", "5e-5", "-0.5", "nan", "inf"]),
    "precision": st.sampled_from(["standard", "verification", "float16", ""]),
    "seq_len": st.integers(-1, 4).map(str), "channels": st.integers(-1, 3).map(str),
    "lstm_hidden": st.integers(-1, 6).map(str), "rank": st.integers(-1, 3).map(str),
    "embed_dim": st.integers(-1, 5).map(str), "fusion_dim": st.integers(-1, 5).map(str),
    "test_days": st.integers(-1, 3).map(str),
    "val_frac": st.sampled_from(["0.1", "0.5", "0", "1", "-0.1", "nan", "0.999"]),
    "bogus": st.just("1"), "rows": st.just("4"),
}


@st.composite
def config_text(draw):
    """The toy run with up to two drawn values and maybe one malformed chunk."""
    run = dict(TOY_RUN)
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=2, unique=True)):
        run[key] = draw(CONFIG_VALUES[key])
    chunks = [f"{key}={value}" for key, value in run.items()]
    chunks.insert(draw(st.integers(0, len(chunks))),
                  draw(st.sampled_from(["", "", "nonsense", "=1", "lr==1", " epochs = 1 "])))
    return ",".join(chunks)


class TestFuzz:
    """Mutated command lines exit 0, 1, 2 or 3 and never print a traceback."""

    @pytest.fixture()
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # a dropped --out writes to the working directory
        series = tmp_path / "toy.stdm"
        write_demand_series(series, random_demand_series(220, seed=0, start_epoch=1396310400))
        other = tmp_path / "other.stdm"
        write_demand_series(other, random_demand_series(220, rows=3, cols=3, seed=1))
        trips = tmp_path / "trips.csv"
        synth_trips_csv(trips, n_stations=8, days=2, per_hour=4)
        ckpt = tmp_path / "stdi.ckpt"
        assert main(["train", "--data", str(series), "--model", "STDI", "--out", str(ckpt),
                     "--config", ",".join(f"{k}={v}" for k, v in TOY_RUN.items())]) == 0
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes(ckpt.read_bytes()[:-7])
        table = tmp_path / "hours.txt"
        table.write_text("".join(f"{h} 0.5 -1 2\n" for h in range(23)))
        (tmp_path / "out").mkdir()
        paths = {"series": series, "other": other, "trips": trips, "ckpt": ckpt,
                 "truncated": truncated, "table": table, "dir": tmp_path / "out",
                 "missing": tmp_path / "missing" / "x", "under_file": series / "x"}
        return {name: str(path) for name, path in paths.items()}

    @staticmethod
    def commands(files, tmp_path):
        """Per command and option: (flag, a valid value, strategy of other values, droppable)."""
        def paths(*names, new=()):
            return st.sampled_from([files[n] for n in names] + [str(tmp_path / n) for n in new])
        seed = st.integers(-1, 3).map(str) | st.just("x")
        embeddings = paths("table", "missing", "dir", "series")
        toy_run = ",".join(f"{k}={v}" for k, v in TOY_RUN.items())
        return {
            "ingest": [("--trips", files["trips"], paths("series", "missing", "dir", "ckpt"), False),
                       ("--out", str(tmp_path / "i.stdm"), paths("dir", "missing", "under_file"),
                        False),
                       ("--stations", "8", st.integers(-9, 10).map(str), True),
                       ("--grid", "2x4", st.sampled_from(["1x8", "2x2", "0x4", "8x16", "x", ""]),
                        True),
                       ("--interval", "3600", st.sampled_from(["1800", "86400", "0", "-5", "y"]),
                        True)],
            "train": [("--data", files["series"], paths("other", "ckpt", "trips", "missing", "dir"),
                       False),
                      ("--model", "STDI",
                       st.sampled_from(list(stdinet.MODEL_KINDS) + ["MLP", "stdi", ""]), False),
                      ("--config", toy_run, config_text(), False),
                      ("--seed", "0", seed, True),
                      ("--embeddings", "generate", embeddings, True),
                      ("--out", str(tmp_path / "t.ckpt"), paths("dir", "missing", "under_file"),
                       False)],
            "eval": [("--ckpt", files["ckpt"], paths("truncated", "series", "missing", "dir"), False),
                     ("--data", files["series"], paths("other", "ckpt", "missing", "under_file"),
                      False),
                     ("--json-out", str(tmp_path / "e.json"), paths("dir", "missing", "under_file"),
                      True)],
            # --seeds stays below one, so the suite itself never runs here.
            "gradcheck": [("--dims", "toy", st.sampled_from(["paper", ""]), True),
                          ("--seeds", "0", st.sampled_from(["-2", "z", ""]), False),
                          ("--out", str(tmp_path / "gc"), paths("dir", "missing"), True)],
            "bench": [("--data", files["series"], paths("other", "ckpt", "missing"), False),
                      ("--suite", "table2", st.sampled_from(["table1", "table3", "table9"]), True),
                      ("--seed", "0", seed, True),
                      ("--config", toy_run,
                       config_text().map(lambda c: c.replace("epochs=2", "epochs=1")), False),
                      ("--embeddings", "generate", embeddings, True),
                      ("--out", str(tmp_path / "b"), paths("dir", "missing", "under_file"), True)],
        }

    def run_mutated(self, command, files, tmp_path, capsys, caplog, data):
        options = self.commands(files, tmp_path)[command]
        mutated = data.draw(st.lists(st.sampled_from(range(len(options))), max_size=2,
                                     unique=True))
        argv = [command]
        for i, (flag, valid, other, droppable) in enumerate(options):
            if i not in mutated:
                argv += [flag, valid]
            elif not (droppable and data.draw(st.booleans())):
                argv += [flag, data.draw(other)]
        extra = data.draw(st.sampled_from([[], [], [], ["--bogus"], ["stray"], ["--help"]]))
        argv[data.draw(st.integers(1, len(argv))):0] = extra
        caplog.clear()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err + caplog.text, argv

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["ingest", "train", "eval", "gradcheck"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_argv_exits_with_a_documented_code(self, files, tmp_path, capsys, caplog,
                                                       command, data):
        self.run_mutated(command, files, tmp_path, capsys, caplog, data)

    # A bench run trains six toy models, so it gets fewer examples.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=8, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_bench_argv_exits_with_a_documented_code(self, files, tmp_path, capsys,
                                                             caplog, data):
        self.run_mutated("bench", files, tmp_path, capsys, caplog, data)
