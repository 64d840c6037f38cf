"""Per-layer timers, installed around stdinet's public functions.

Nothing inside ``src/`` changes: the tracer replaces module attributes and
class methods with timed wrappers while a traced run is measured and puts
the originals back afterwards.  Forward time of a tensor op is charged to
its kind only at the outermost op call, so an op built from other ops
(``flatten`` calls ``reshape``) is counted once.  Backward time per op kind
comes from wrapping the ``backward`` of each tape node the op recorded.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# Tensor op kinds and the stdinet.tensor functions (forward) and tape node
# names (backward) in each.
OP_KINDS = {
    "conv2d": ("conv2d",),
    "batchnorm": ("batchnorm",),
    "affine": ("affine",),
    "matmul": ("matmul", "scale_rows"),
    "elementwise": ("add", "sub", "hadamard", "smul", "relu", "leaky_relu", "sigmoid", "tanh"),
    "shape": ("reshape", "flatten", "concat", "hconcat", "stack", "take", "take_rows", "transpose"),
    "reduce": ("sum_all", "mean_all", "sum", "mean"),
}
KIND_OF = {name: kind for kind, names in OP_KINDS.items() for name in names}

SECONDS = (
    ["data.parse_s", "data.select_s", "data.coords_s", "data.series_s", "data.write_s",
     "data.read_series_s", "data.windows_s", "data.to_arrays_s"]
    + [f"tensor.{k}.fwd_s" for k in OP_KINDS] + [f"tensor.{k}.bwd_s" for k in OP_KINDS]
    + ["tensor.backward_s", "layers.conv_block_s", "layers.lstm_s", "model.head_s",
       "model.build_s", "model.load_ckpt_s",
       "training.step_s", "training.forward_s", "training.backward_s", "training.adam_s",
       "training.validate_s", "training.snapshot_s",
       "bench.ha_s", "bench.ridge_s", "bench.lasso_s", "bench.mlp_s", "bench.stdi_s",
       "trace.wall_s"]
)
COUNTS = (
    ["data.rows", "data.skipped"] + [f"tensor.{k}.calls" for k in OP_KINDS]
    + ["tensor.nodes", "training.steps", "training.samples", "bench.lasso_calls"]
)


def _patch(patches, owner, name, make):
    original = getattr(owner, name, None)
    if original is None:
        return
    patches.append((owner, name, original))
    setattr(owner, name, functools.wraps(original)(make(original)))


class Tracer:
    """Accumulates seconds and counts per layer while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.step_times = []
        self._patches = []
        self._op_depth = 0
        self._in_fit = 0
        self._in_validate = 0
        self._in_bench = 0
        self._step_start = None

    # -- helpers ---------------------------------------------------------

    def timed(self, key, original):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - started
        return wrapper

    def _op(self, kind, original):
        def wrapper(*args, **kwargs):
            outer = self._op_depth == 0
            self._op_depth += 1
            started = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                self._op_depth -= 1
            if outer:
                self.seconds[f"tensor.{kind}.fwd_s"] += time.perf_counter() - started
                self.counts[f"tensor.{kind}.calls"] += 1
            node = getattr(out, "_node", None)
            if node is not None and not getattr(node.backward, "_perfbench", False):
                node.backward = self._node_backward(node.op, node.backward)
            return out
        return wrapper

    def _node_backward(self, op, original):
        key = f"tensor.{KIND_OF.get(op, 'elementwise')}.bwd_s"

        def backward(g):
            started = time.perf_counter()
            try:
                return original(g)
            finally:
                self.seconds[key] += time.perf_counter() - started
        backward._perfbench = True
        return backward

    # -- install / uninstall ---------------------------------------------

    def install(self, stdinet):
        from stdinet import bench, data, layers, model, tensor, training
        p = self._patches
        for name, kind in KIND_OF.items():
            _patch(p, tensor, name, lambda f, kind=kind: self._op(kind, f))

        def tape_backward(f):
            def wrapper(tape, loss):
                self.counts["tensor.nodes"] += len(tape.nodes)
                started = time.perf_counter()
                try:
                    return f(tape, loss)
                finally:
                    spent = time.perf_counter() - started
                    self.seconds["tensor.backward_s"] += spent
                    if self._in_fit:
                        self.seconds["training.backward_s"] += spent
            return wrapper
        _patch(p, tensor.Tape, "backward", tape_backward)

        _patch(p, data, "parse_trip_files", self._parse)
        _patch(p, data, "select_stations", lambda f: self.timed("data.select_s", f))
        _patch(p, data, "station_coordinates", lambda f: self.timed("data.coords_s", f))
        _patch(p, data, "assign_grid", lambda f: self.timed("data.coords_s", f))
        _patch(p, data, "derive_time_range", lambda f: self.timed("data.series_s", f))
        _patch(p, data, "build_demand_series", lambda f: self.timed("data.series_s", f))
        _patch(p, data, "write_demand_series", lambda f: self.timed("data.write_s", f))
        _patch(p, data, "write_station_map", lambda f: self.timed("data.write_s", f))
        _patch(p, data, "read_demand_series", lambda f: self.timed("data.read_series_s", f))
        for owner in (data, bench):
            _patch(p, owner, "make_windows", lambda f: self.timed("data.windows_s", f))
        for owner in (data, training, bench):
            _patch(p, owner, "windows_to_arrays", lambda f: self.timed("data.to_arrays_s", f))

        _patch(p, layers.ConvBlock, "forward", lambda f: self.timed("layers.conv_block_s", f))
        for owner in (layers, model):
            _patch(p, owner, "lstm_sequence_batch", lambda f: self.timed("layers.lstm_s", f))
        _patch(p, model.IntervalNet, "apply_batch", lambda f: self.timed("model.head_s", f))
        for owner in (stdinet, model):
            _patch(p, owner, "build_model", lambda f: self.timed("model.build_s", f))
            _patch(p, owner, "load_checkpoint", lambda f: self.timed("model.load_ckpt_s", f))

        for cls in (model.DemandModel, bench.MlpModel):
            _patch(p, cls, "forward_batch", self._forward)
            _patch(p, cls, "snapshot", self._snapshot)
            _patch(p, cls, "restore", self._snapshot)
        _patch(p, training, "mse_loss", self._forward)
        _patch(p, training.Adam, "step", self._adam)
        _patch(p, training.Adam, "zero_grad", self._adam)
        _patch(p, training, "predict_windows", self._validate)
        _patch(p, training, "fit", self._fit)

        _patch(p, bench, "run_benchmark", self._run_benchmark)
        _patch(p, bench, "baseline_ha", lambda f: self.timed("bench.ha_s", f))
        _patch(p, bench, "baseline_linear", self._linear)
        _patch(p, bench, "lasso_coordinate_descent", self._lasso)
        _patch(p, bench, "fit", self._bench_model)
        _patch(p, bench, "predict_windows", self._bench_model)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- training and bench wrappers --------------------------------------

    def _forward(self, f):
        def wrapper(*args, **kwargs):
            if not self._in_fit or self._in_validate:
                return f(*args, **kwargs)
            started = time.perf_counter()
            if self._step_start is None:
                self._step_start = started
                self.counts["training.samples"] += len(args[1].data)
            try:
                return f(*args, **kwargs)
            finally:
                self.seconds["training.forward_s"] += time.perf_counter() - started
        return wrapper

    def _adam(self, f):
        def wrapper(opt):
            started = time.perf_counter()
            try:
                return f(opt)
            finally:
                now = time.perf_counter()
                self.seconds["training.adam_s"] += now - started
                if f.__name__ == "step":
                    self.counts["training.steps"] += 1
                elif self._step_start is not None:
                    self.step_times.append(now - self._step_start)
                    self._step_start = None
        return wrapper

    def _snapshot(self, f):
        def wrapper(*args, **kwargs):
            if not self._in_fit:
                return f(*args, **kwargs)
            started = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self.seconds["training.snapshot_s"] += time.perf_counter() - started
        return wrapper

    def _validate(self, f):
        def wrapper(*args, **kwargs):
            if not self._in_fit:
                return f(*args, **kwargs)
            self._in_validate += 1
            started = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self._in_validate -= 1
                self.seconds["training.validate_s"] += time.perf_counter() - started
        return wrapper

    def _fit(self, f):
        def wrapper(*args, **kwargs):
            self._in_fit += 1
            try:
                return f(*args, **kwargs)
            finally:
                self._in_fit -= 1
                self._step_start = None
        return wrapper

    def _run_benchmark(self, f):
        def wrapper(*args, **kwargs):
            self._in_bench += 1
            try:
                return f(*args, **kwargs)
            finally:
                self._in_bench -= 1
        return wrapper

    def _linear(self, f):
        def wrapper(train, val, kind, *args, **kwargs):
            started = time.perf_counter()
            try:
                return f(train, val, kind, *args, **kwargs)
            finally:
                self.seconds[f"bench.{kind}_s"] += time.perf_counter() - started
        return wrapper

    def _parse(self, f):
        timed = self.timed("data.parse_s", f)

        def wrapper(*args, **kwargs):
            records, audit = timed(*args, **kwargs)
            self.counts["data.rows"] += audit.rows
            self.counts["data.skipped"] += audit.total_skipped()
            return records, audit
        return wrapper

    def _lasso(self, f):
        def wrapper(*args, **kwargs):
            self.counts["bench.lasso_calls"] += 1
            return f(*args, **kwargs)
        return wrapper

    def _bench_model(self, f):
        """bench.fit and bench.predict_windows, charged to MLP or STDI."""
        fit_like = f.__name__ == "fit"
        inner = self._fit(f) if fit_like else f

        def wrapper(model, *args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(model, *args, **kwargs)
            finally:
                key = {"MLP": "bench.mlp_s", "STDI": "bench.stdi_s"}.get(model.kind)
                if key and self._in_bench:
                    self.seconds[key] += time.perf_counter() - started
        return wrapper

    # -- report ----------------------------------------------------------

    def split(self):
        """Copy and clear the totals, so set-up and rounds are kept apart."""
        out = (dict(self.seconds), dict(self.counts), list(self.step_times))
        self.seconds.clear()
        self.counts.clear()
        self.step_times.clear()
        return out

    @staticmethod
    def metrics(setup, setups, rounds, n_rounds, round_wall):
        """Every per-layer metric: what one set-up plus one round spent."""
        s_sec, s_cnt, _ = setup
        r_sec, r_cnt, steps = rounds
        out = {}
        for name in SECONDS:
            if name == "training.step_s":
                value = statistics.median(steps) if steps else 0.0
            elif name == "trace.wall_s":
                value = round_wall
            else:
                value = s_sec.get(name, 0.0) / setups + r_sec.get(name, 0.0) / n_rounds
            out[name] = {"value": value, "unit": "s"}
        for name in COUNTS:
            value = s_cnt.get(name, 0) / setups + r_cnt.get(name, 0) / n_rounds
            out[name] = {"value": value, "unit": "count"}
        return out

