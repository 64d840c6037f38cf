#!/bin/sh
# A 1-s run of every perfbench workload, run from the repository root:
#   sh .github/perfbench_smoke.sh
# run.py exits 0 even when a round's outputs fail its checks, so the result
# line itself is checked: every output correct, no failed operation.
# Outputs go to $RUNNER_TEMP, or to a new temporary directory.
set -eu
tmp=${RUNNER_TEMP:-$(mktemp -d)}
for w in ingest train_paper predict_paper baselines; do
    python3 perfbench/run.py --workload "$w" --seed 0 --seconds 1 --trace 0 > "$tmp/$w.out"
    tail -n 1 "$tmp/$w.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
        || { echo "perfbench $w: checks failed"; tail -n 1 "$tmp/$w.out"; exit 1; }
done
