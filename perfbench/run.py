"""Run one workload of the stdinet benchmark and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``src/stdinet`` of
that checkout and nothing else.  The inputs for (workload, seed) are made
by a child process and cached under ``perfbench/.cache``.  The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, which are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  On the interpreter-bound workloads,
time-based metrics but ``setup_s`` are reported at the reference machine
speed of ``calibrate.py``.  Pin the BLAS thread count in the environment, as
BENCHMARK.json's command does.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ingest", "train_paper", "predict_paper", "baselines")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "trips_per_s", "samples_per_s",
              "windows_per_s", "val_rmse")
IMPORTS = 6        # fresh interpreters timed importing stdinet before the rounds and as many
                   # after them, so the median spans the run's changes of machine speed
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "trips_per_s": "trips/s",
         "samples_per_s": "samples/s", "windows_per_s": "windows/s", "val_rmse": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one stdinet benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs (for the benchmark's own tests)")
    return parser.parse_args(argv)


def make_inputs(workload, seed, tiny):
    """Generate or reuse the cached inputs in a child process; return their path."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"input generation failed with exit code {done.returncode}")
    return Path(done.stdout.strip().splitlines()[-1])


def import_seconds():
    """Times from starting a fresh interpreter until it has imported stdinet.

    The child reads the system-wide monotonic clock once the import is done,
    because the parent's wait for a child under a timeout polls in steps of
    up to 50 ms, which would show in the time.
    """
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import stdinet; "
           "import time; print(time.monotonic())"]
    times = []
    for _ in range(IMPORTS):
        started = time.monotonic()
        done = subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout) - started)
    return times


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stdinet" / "__init__.py").is_file():
        print(f"no stdinet sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import inputs
    import workloads
    from calibrate import Calibration, at_reference_speed
    from tracing import Tracer
    stdinet = inputs.import_stdinet()
    inputs_dir = make_inputs(args.workload, args.seed, args.tiny)
    size = inputs.sizes_for(args.workload, args.tiny)
    workload = workloads.WORKLOADS[args.workload](stdinet, inputs_dir, args.seed, size)
    calibration = Calibration() if workload.calibrated else None
    # Starting Python and importing stdinet is part of every user's set-up;
    # generating inputs is not.
    imports = import_seconds() if not args.trace else []

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(stdinet)
    try:
        setup_s, rounds, attempted, failed, errors, layers = workloads.run(
            workload, args.seconds, tracer, calibration)
    finally:
        if tracer:
            tracer.uninstall()
    if not args.trace:
        imports += import_seconds()

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if layers is not None:
        metrics = layers
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(imports) + setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        for name in END_TO_END:
            if rounds and name not in metrics:
                value = statistics.median(r[name] for r in rounds)
                metrics[name] = {"value": value, "unit": UNITS[name]}
    if calibration:
        slowdown = calibration.slowdown()
        print(f"measured, at a slowdown of {slowdown:.4f}: " + json.dumps(metrics, sort_keys=True),
              file=sys.stderr)
        at_reference_speed(metrics, slowdown)
    result = {
        "correct": bool(rounds) and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
