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

# Checkpoint round trip of the hour-generated head (STDI) and the hour
# feature head (STDIFusion): `train` saves a checkpoint and `eval` loads it
# back.  Each kind is trained twice with the same seed, and the two
# checkpoints must be the same bytes.
python -c 'import sys; from stdinet.data import random_demand_series, write_demand_series; write_demand_series(sys.argv[1], random_demand_series(250, seed=8, start_epoch=1396310400))' "$tmp/toy.stdm"
for kind in STDI STDIFusion; do
    for run in 1 2; do
        "$@" train --model "$kind" --data "$tmp/toy.stdm" --out "$tmp/$kind.$run.ckpt" --seed 5 \
            --config "channels=4,lstm_hidden=8,rank=4,embed_dim=6,epochs=1,patience=1,batch_size=32,test_days=2"
    done
    cmp "$tmp/$kind.1.ckpt" "$tmp/$kind.2.ckpt" \
        || { echo "train: two $kind runs with the same seed wrote different checkpoints"; exit 1; }
    "$@" eval --ckpt "$tmp/$kind.1.ckpt" --data "$tmp/toy.stdm"
done
