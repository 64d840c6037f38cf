"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a computation made here,
from the generator's own records or from a property of the method, never
with a stored copy of an earlier output.  Each returns a list of failure
messages; an empty list means the output passed.  Nothing in this module
imports stdinet.
"""

from __future__ import annotations

import json
import struct

import numpy as np

STDM_HEADER = struct.Struct("<4sIIIIqI")
BN_EPS = 1e-5          # BnState's default, which the checkpoint does not store
LEAKY_SLOPE = 0.01     # the hour generator's leaky ReLU slope
LSTM_GATES = ("i", "f", "g", "o")


# ---------------------------------------------------------------------------
# file formats, read from their documented layout


def read_stdm(path):
    """(start_epoch, interval_seconds, values[T, 2, rows, cols]) of a .stdm file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _version, rows, cols, length, start, interval = STDM_HEADER.unpack_from(blob)
    if magic != b"STDM":
        raise ValueError(f"{path}: bad magic {magic!r}")
    values = np.frombuffer(blob, dtype="<f4", offset=STDM_HEADER.size)
    return start, interval, values.reshape(length, 2, rows, cols)


# ---------------------------------------------------------------------------
# ingest


def check_ingest(expected, audit_rows, audit_skipped, stdm_path, map_path, grid):
    """The written series and station map against the generator's counts."""
    errors = []
    if audit_rows != int(expected["rows"]):
        errors.append(f"parsed {audit_rows} rows, generator wrote {int(expected['rows'])}")
    want_skips = dict(zip(("unparsable", "stop_before_start", "out_of_bounds"),
                          expected["skipped"].tolist()))
    got_skips = {k: int(v) for k, v in audit_skipped.items() if v}
    if got_skips != want_skips:
        errors.append(f"skip counts {got_skips}, generator made {want_skips}")

    start, interval, values = read_stdm(stdm_path)
    counts = expected["counts"]
    if interval != 3600 or start != int(expected["t0"]) or values.shape[0] != counts.shape[0]:
        errors.append(f"series starts {start} with {values.shape[0]} intervals of {interval}s; "
                      f"expected {int(expected['t0'])} with {counts.shape[0]} of 3600s")
        return errors
    rows, cols = grid
    if values.shape[2:] != (rows, cols):
        errors.append(f"series grid {values.shape[2:]}, expected {(rows, cols)}")
        return errors

    with open(map_path, encoding="utf-8") as fh:
        station_map = {int(k): v for k, v in json.load(fh).items()}
    ids = expected["ids"].tolist()
    if sorted(station_map) != sorted(ids):
        errors.append("station map does not hold the generator's busiest stations")
        return errors
    cells = {(r, c) for r, c, _, _ in station_map.values()}
    if len(cells) != rows * cols or not all(0 <= r < rows and 0 <= c < cols for r, c in cells):
        errors.append("station map is not a bijection onto the grid")
        return errors
    for k, sid in enumerate(ids):
        r, c, lat, lon = station_map[sid]
        if (lat, lon) != (float(expected["lat"][k]), float(expected["lon"][k])):
            errors.append(f"station {sid} at {(lat, lon)}, generator placed it at "
                          f"{(float(expected['lat'][k]), float(expected['lon'][k]))}")
        for channel, what in ((0, "starts"), (1, "stops")):
            if not np.array_equal(values[:, channel, r, c], counts[:, channel, k]):
                moved = int(np.abs(values[:, channel, r, c] - counts[:, channel, k]).sum())
                errors.append(f"station {sid} {what} differ from the generator by {moved}")
    if errors:
        return errors

    lat = np.full((rows, cols), np.nan)
    lon = np.full((rows, cols), np.nan)
    for r, c, la, lo in station_map.values():
        lat[r, c], lon[r, c] = la, lo
    for r in range(rows):
        if not np.all(np.diff(lon[r]) > 0):
            errors.append(f"grid band {r} does not run west to east")
        if r + 1 < rows and not lat[r].min() > lat[r + 1].max():
            errors.append(f"grid band {r} is not north of band {r + 1}")
    return errors


# ---------------------------------------------------------------------------
# training


def check_training(first_pred, first_target, first_loss, train_loss, params,
                   val_preds, val_targets, val_rmse):
    errors = []
    mse = float(np.mean((np.asarray(first_pred, np.float64) - np.asarray(first_target, np.float64)) ** 2))
    if not np.isclose(first_loss, mse, rtol=1e-5, atol=0.0):
        errors.append(f"first-batch loss {first_loss} is not the MSE {mse} of the model's output")
    if not train_loss[-1] < train_loss[0]:
        errors.append(f"training loss did not fall: {train_loss}")
    for name, value in params:
        if not np.all(np.isfinite(value)):
            errors.append(f"parameter {name} is not finite after training")
    rmse = float(np.sqrt(np.mean((np.asarray(val_preds, np.float64) - val_targets) ** 2)))
    if not np.isclose(val_rmse, rmse, rtol=1e-9, atol=0.0):
        errors.append(f"fit reported val_rmse {val_rmse}, predictions give {rmse}")
    return errors


# ---------------------------------------------------------------------------
# prediction, against a plain-numpy eval forward of the STDI model


def conv3x3(x, kernels, bias):
    """Direct 3x3 / stride-1 / zero-pad-1 convolution of one (C, H, W) map."""
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.repeat(bias[:, None, None], h, axis=1).repeat(w, axis=2)
    for dy in range(3):
        for dx in range(3):
            out = out + np.einsum("oc,chw->ohw", kernels[:, :, dy, dx], xp[:, dy:dy + h, dx:dx + w])
    return out


def _bn_eval(x, p, name):
    scale = p[f"{name}.gamma"] / np.sqrt(p[f"{name}.running_var"] + BN_EPS)
    return (x - p[f"{name}.running_mean"][:, None, None]) * scale[:, None, None] \
        + p[f"{name}.beta"][:, None, None]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _leaky(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def reference_stdi(p, window, hour):
    """Eval-mode STDI forward of one (L, 2, i, j) window, in float64.

    ``p`` maps the checkpoint's tensor names to arrays.  Per interval: entry conv
    and ReLU, then two residual units relu(bn1(conv1 h) + bn2(conv2 bn1(..))).
    The flattened maps feed an LSTM from a zero state; the head is the
    factored hour-generated layer relu(O' (w(V) * (O f)) + b(V)).
    """
    seq_len = window.shape[0]
    f = None
    h = c = None
    for l in range(seq_len):
        blk = f"spatial.block{l}"
        x = np.maximum(conv3x3(window[l], p[f"{blk}.entry.kernels"], p[f"{blk}.entry.bias"]), 0.0)
        r = 0
        while f"{blk}.res{r}.conv1.kernels" in p:
            u = f"{blk}.res{r}"
            x1 = _bn_eval(conv3x3(x, p[f"{u}.conv1.kernels"], p[f"{u}.conv1.bias"]), p, f"{u}.bn1")
            x2 = _bn_eval(conv3x3(x1, p[f"{u}.conv2.kernels"], p[f"{u}.conv2.bias"]), p, f"{u}.bn2")
            x = np.maximum(x1 + x2, 0.0)
            r += 1
        s = x.reshape(-1)
        if h is None:
            hidden = p["lstm.w_ii"].shape[0]
            h = np.zeros(hidden)
            c = np.zeros(hidden)
        pre = {g: p[f"lstm.w_i{g}"] @ s + p[f"lstm.b_i{g}"] + p[f"lstm.w_h{g}"] @ h + p[f"lstm.b_h{g}"]
               for g in LSTM_GATES}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
        f = h
    v = p["interval.embedding"][hour]
    w = _leaky(p["interval.lin_w.weight"] @ v + p["interval.lin_w.bias"])
    b = _leaky(p["interval.lin_b.weight"] @ v + p["interval.lin_b.bias"])
    out = np.maximum(p["interval.o_prime"] @ (w * (p["interval.o"] @ f)) + b, 0.0)
    return out.reshape(window.shape[1:])


def check_prediction(preds, preds_other_batch, params, reference_windows):
    """Finite, nonnegative, batch-size independent, equal to the reference."""
    errors = []
    if not np.all(np.isfinite(preds)):
        errors.append("predictions are not finite")
    if np.any(preds < 0):
        errors.append(f"{int(np.sum(preds < 0))} predictions are negative")
    n = preds_other_batch.shape[0]
    scale = max(1.0, float(np.abs(preds).max()))
    if not np.allclose(preds[:n], preds_other_batch, rtol=0.0, atol=1e-5 * scale):
        gap = float(np.abs(preds[:n] - preds_other_batch).max())
        errors.append(f"predictions depend on the batch size (max gap {gap:.3g})")
    for i, w in enumerate(reference_windows):
        ref = reference_stdi(params, w.inputs.astype(np.float64), int(w.hour))
        ref_scale = max(1.0, float(np.abs(ref).max()))
        gap = float(np.abs(preds[i] - ref).max())
        if gap > 1e-4 * ref_scale:
            errors.append(f"window {i}: prediction differs from the numpy forward by {gap:.3g}")
    return errors


# ---------------------------------------------------------------------------
# baselines


def ha_reference(values, start_epoch, boundary, target_epochs):
    """Per-hour training mean, predicted at each target's hour of day."""
    epochs = start_epoch + 3600 * np.arange(values.shape[0])
    train = epochs < boundary
    hours = (epochs // 3600) % 24
    out = []
    for e in target_epochs:
        hour = (e // 3600) % 24
        sel = train & (hours == hour)
        out.append(values[sel].astype(np.float64).mean(axis=0) if sel.any()
                   else np.zeros(values.shape[1:]))
    return np.stack(out)


def check_ha(preds, values, start_epoch, boundary, target_epochs):
    ref = ha_reference(values, start_epoch, boundary, target_epochs)
    if not np.allclose(preds, ref, rtol=1e-12, atol=1e-12):
        return ["HA predictions are not the per-hour training means"]
    return []


def design(values, target_index, seq_len):
    """Lagged design matrix and targets built straight from the series."""
    x = np.stack([values[t - seq_len:t].reshape(-1) for t in target_index]).astype(np.float64)
    y = np.stack([values[t].reshape(-1) for t in target_index]).astype(np.float64)
    return x, y


def check_ridge(x, y, weights, intercept, lam):
    """(Xc'Xc + lam I) W = Xc'Yc, with the intercept from the means."""
    xm, ym = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xm, y - ym
    lhs = (xc.T @ xc + lam * np.eye(x.shape[1])) @ weights
    rhs = xc.T @ yc
    errors = []
    gap = float(np.abs(lhs - rhs).max())
    if gap > 1e-8 * max(1.0, float(np.abs(rhs).max())):
        errors.append(f"ridge weights miss the normal equations by {gap:.3g}")
    if not np.allclose(intercept, ym - xm @ weights, rtol=0.0, atol=1e-9 * max(1.0, np.abs(ym).max())):
        errors.append("ridge intercept is not ybar - xbar W")
    return errors


def check_lasso(x, y, weights, intercept, alpha, tol):
    """KKT conditions of (1/2n)||y - Xb||^2 + alpha ||b||_1, per output.

    Coordinate descent stops once no coefficient moved more than ``tol`` in
    a sweep; the later moves of the other coordinates shift coordinate j's
    gradient by at most sum_k |G_jk| tol / n, which is the slack allowed.
    """
    n = x.shape[0]
    xm, ym = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xm, y - ym
    gram = xc.T @ xc
    slack = np.abs(gram).sum(axis=1) * tol / n + 1e-9 * (1.0 + alpha)
    grad = xc.T @ (yc - xc @ weights) / n
    errors = []
    active = weights != 0
    bad_active = active & (np.abs(grad - alpha * np.sign(weights)) > slack[:, None])
    bad_zero = ~active & (np.abs(grad) > alpha + slack[:, None])
    if bad_active.any() or bad_zero.any():
        errors.append(f"lasso breaks its KKT conditions at {int(bad_active.sum())} active and "
                      f"{int(bad_zero.sum())} zero coefficients")
    if not np.allclose(intercept, ym - xm @ weights, rtol=0.0, atol=1e-9 * max(1.0, np.abs(ym).max())):
        errors.append("lasso intercept is not ybar - xbar b")
    return errors


def check_report_sizes(rows, n_test, want_test, grid):
    errors = []
    if n_test != want_test:
        errors.append(f"report has {n_test} test windows, the split gives {want_test}")
    z = want_test * 2 * grid[0] * grid[1]
    for method, got in rows:
        if got != z:
            errors.append(f"{method}: z = {got}, expected n_test * 2 * rows * cols = {z}")
    return errors
