#!/bin/sh
# End-to-end checks of the stdinet commands, run from the repository root:
#   sh .github/cli_checks.sh stdinet
#   sh .github/cli_checks.sh python -m stdinet
# The arguments are the command that runs stdinet.  Outputs go to
# $RUNNER_TEMP, or to a new temporary directory.
set -eu
tmp=${RUNNER_TEMP:-$(mktemp -d)}
fixture=tests/data/trips_small.csv

# Ingest: the fixture is all quoted fields, so LF and CRLF copies give the
# same audit and the block tokenizer reads every row (csv_rows 0).  An
# unquoted copy goes through the csv.reader fallback to the same audit and
# series.  The LF run leaves --stations to its default, the grid's 2 cells.
audits() {
    python -c 'import json, os, sys
t, a, b, rows = sys.argv[1:]
x, y = (json.load(open(os.path.join(t, n + ".stdm.manifest.json")))["config"] for n in (a, b))
same = all(x[k] == y[k] for k in ("rows", "accepted", "skipped"))
csv_rows = y["csv_rows"] == (y["rows"] if rows == "all" else 0)
sys.exit(0 if same and x["csv_rows"] == 0 and csv_rows else 1)' "$tmp" "$@"
}
sed 's/$/\r/' "$fixture" > "$tmp/trips_crlf.csv"
sed 's/"//g' "$fixture" > "$tmp/trips_unquoted.csv"
"$@" ingest --trips "$fixture" --out "$tmp/lf.stdm" --grid 1x2
"$@" ingest --trips "$tmp/trips_crlf.csv" --out "$tmp/crlf.stdm" --stations 2 --grid 1x2
"$@" ingest --trips "$tmp/trips_unquoted.csv" --out "$tmp/unquoted.stdm" --stations 2 --grid 1x2
audits lf crlf none \
    || { echo "ingest: the LF and CRLF audits differ, or csv.reader read a row"; exit 1; }
audits lf unquoted all \
    || { echo "ingest: the unquoted copy's audit differs, or the block tokenizer read a row of it"; exit 1; }
cmp "$tmp/lf.stdm" "$tmp/unquoted.stdm" || { echo "ingest: the unquoted copy gives another series"; exit 1; }

# Checkpoint round trip of each head `train` fits: the hour-generated head
# (STDI), the hour feature head (STDIFusion) and the static head, here on the
# shared conv block (UnifiedSpatial).  `train` saves a checkpoint and `eval`
# loads it back.  Each kind is trained twice with the same seed, and the two
# checkpoints must be the same bytes.
python -c 'import sys; from stdinet.data import random_demand_series, write_demand_series; write_demand_series(sys.argv[1], random_demand_series(250, seed=8, start_epoch=1396310400))' "$tmp/toy.stdm"
for kind in STDI STDIFusion UnifiedSpatial; do
    for run in 1 2; do
        "$@" train --model "$kind" --data "$tmp/toy.stdm" --out "$tmp/$kind.$run.ckpt" --seed 5 \
            --config "channels=4,lstm_hidden=8,rank=4,embed_dim=6,epochs=1,patience=1,batch_size=32,test_days=2"
    done
    cmp "$tmp/$kind.1.ckpt" "$tmp/$kind.2.ckpt" \
        || { echo "train: two $kind runs with the same seed wrote different checkpoints"; exit 1; }
    "$@" eval --ckpt "$tmp/$kind.1.ckpt" --data "$tmp/toy.stdm"
done

# The same round trip in float64 (precision=verification): Adam copies the
# float64 parameters into its one data arena, and its gradient and moment
# arenas are float64 too.
for run in 1 2; do
    "$@" train --model STDI --data "$tmp/toy.stdm" --out "$tmp/STDI-f64.$run.ckpt" --seed 5 \
        --config "channels=4,lstm_hidden=8,rank=4,embed_dim=6,epochs=1,patience=1,batch_size=32,test_days=2,precision=verification"
done
cmp "$tmp/STDI-f64.1.ckpt" "$tmp/STDI-f64.2.ckpt" \
    || { echo "train: two float64 STDI runs with the same seed wrote different checkpoints"; exit 1; }
"$@" eval --ckpt "$tmp/STDI-f64.1.ckpt" --data "$tmp/toy.stdm"

# Damaged checkpoints fail fast with exit code 3: data cut short by 40 bytes,
# a header whose manifest length (0xF0000000) runs past the file, and a
# manifest whose seq_len (1000000) asks for a million conv blocks.
python -c 'import json, sys
src, tmp = sys.argv[1:]
raw = open(src, "rb").read()
mlen = int.from_bytes(raw[8:12], "little")
manifest = json.loads(raw[12:12 + mlen])
manifest["dims"]["seq_len"] = 1000000
payload = json.dumps(manifest).encode()
damaged = {"short": raw[:-40],
           "mlen": raw[:8] + (0xF0000000).to_bytes(4, "little") + raw[12:],
           "seq_len": raw[:8] + len(payload).to_bytes(4, "little") + payload + raw[12 + mlen:]}
for name, data in damaged.items():
    open(f"{tmp}/{name}.ckpt", "wb").write(data)' "$tmp/STDI.1.ckpt" "$tmp"
for bad in short mlen seq_len; do
    rc=0
    timeout 60 "$@" eval --ckpt "$tmp/$bad.ckpt" --data "$tmp/toy.stdm" || rc=$?
    [ "$rc" -eq 3 ] || { echo "eval: the $bad checkpoint exited $rc, not 3"; exit 1; }
done

# A series whose counts hold a NaN is refused when it is read: eval exits 3.
python -c 'import sys
raw = bytearray(open(sys.argv[1], "rb").read())
raw[-4:] = (0x7FC00000).to_bytes(4, "little")
open(sys.argv[2], "wb").write(raw)' "$tmp/toy.stdm" "$tmp/nan.stdm"
rc=0
"$@" eval --ckpt "$tmp/STDI.1.ckpt" --data "$tmp/nan.stdm" || rc=$?
[ "$rc" -eq 3 ] || { echo "eval: a series with a NaN count exited $rc, not 3"; exit 1; }

# Every benchmark method is deterministic: two `bench --suite all` runs on
# the toy series with the same seed write the same CSV and JSON bytes.
for run in 1 2; do
    "$@" bench --data "$tmp/toy.stdm" --suite all --seed 3 --out "$tmp/all.$run" \
        --config "epochs=1,patience=1,batch_size=32,test_days=2"
done
for ext in csv json; do
    cmp "$tmp/all.1/bench_all.$ext" "$tmp/all.2/bench_all.$ext" \
        || { echo "bench: two same-seed --suite all runs wrote different bench_all.$ext"; exit 1; }
done

# gradcheck.json is deterministic: two runs under different hash seeds write
# the same bytes.
for hash_seed in 1 2; do
    PYTHONHASHSEED=$hash_seed "$@" gradcheck --seeds 1 --out "$tmp/gc.$hash_seed"
done
cmp "$tmp/gc.1/gradcheck.json" "$tmp/gc.2/gradcheck.json" \
    || { echo "gradcheck: two runs under different hash seeds wrote different gradcheck.json"; exit 1; }
