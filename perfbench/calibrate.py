"""Machine-speed calibration for the interpreter-bound workloads.

The measuring machine is a few vCPUs of a shared host.  Its speed for
pure-Python work moves by up to 1.8 times over tens of seconds with the
host's load.  A run of ``ingest`` or ``baselines`` therefore times a fixed
kernel, made of the benchmark's own code and never of stdinet's, after each
round, outside the round's timing.  The kernel builds rows of strings and
turns them into numbers and counts, as trip parsing does.  The median
kernel time over the run, divided by the kernel's reference time, is the
run's slowdown, and every time-based metric of the run but ``setup_s`` is
reported divided by it: as it would read with the machine at the speed
where the kernel takes its reference time.  ``setup_s`` is left as
measured: it is mostly starting Python and importing numpy, which the
kernel does not track.  The measured values and the slowdown go to
standard error.
"""

from __future__ import annotations

import statistics
import time

REPS = 2        # kernel timings after each round
ROWS = 50_000

# Median kernel time on the measuring machine (perfbench/README.md).
REFERENCE_S = 0.085


def _kernel():
    rows = [{"id": str(i), "value": f"{i * 0.25:.4f}", "key": i % 211} for i in range(ROWS)]
    counts = {}
    for row in rows:
        counts[row["key"]] = counts.get(row["key"], 0) + int(row["id"]) + float(row["value"])
    return counts


class Calibration:
    """Kernel timings over one run."""

    def __init__(self):
        self.times = []

    def sample(self):
        for _ in range(REPS):
            started = time.perf_counter()
            _kernel()
            self.times.append(time.perf_counter() - started)

    def slowdown(self):
        """Median kernel time over the reference time: above 1 in a slow spell.

        1 when no round completed, so nothing was timed.
        """
        if not self.times:
            return 1.0
        return statistics.median(self.times) / REFERENCE_S


def at_reference_speed(metrics, slowdown):
    """Scale time-based metrics in place: seconds down, rates per second up."""
    for name, metric in metrics.items():
        if name == "setup_s":
            continue
        if metric["unit"] == "s":
            metric["value"] /= slowdown
        elif metric["unit"].endswith("/s"):
            metric["value"] *= slowdown
    return metrics
