#!/bin/sh
# A 1-s run of every perfbench workload, run from the repository root:
#   sh .github/perfbench_smoke.sh
# run.py exits 0 even when a round's outputs fail its checks, so the result
# line itself is checked: every output correct, no failed operation.
# Outputs go to $RUNNER_TEMP, or to a new temporary directory.
set -eu
tmp=${RUNNER_TEMP:-$(mktemp -d)}
# train_paper and baselines run once more with --trace 1: the tracer wraps
# Adam.step, zero_grad and DemandModel.snapshot/restore, and its rounds must
# pass the same checks.
for run in ingest:0 train_paper:0 predict_paper:0 baselines:0 train_paper:1 baselines:1; do
    w=${run%:*} trace=${run#*:}
    python3 perfbench/run.py --workload "$w" --seed 0 --seconds 1 --trace "$trace" > "$tmp/$w.$trace.out"
    tail -n 1 "$tmp/$w.$trace.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
        || { echo "perfbench $w (trace $trace): checks failed"; tail -n 1 "$tmp/$w.$trace.out"; exit 1; }
done
