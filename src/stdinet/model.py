"""Model assembly: spatial blocks, temporal encoder, prediction heads.

Nine model kinds share three feature paths and three heads:

==================  =========================  =======================
kind                feature path               prediction head
==================  =========================  =======================
STDI                per-index conv -> LSTM     hour-generated weights
SpatialFC           per-index conv -> concat   static linear
TemporalFC          raw frames -> LSTM         static linear
SpatialTemporalFC   per-index conv -> LSTM     static linear
SpatialDI           per-index conv -> concat   hour-generated weights
TemporalDI          raw frames -> LSTM         hour-generated weights
STDIFusion          per-index conv -> LSTM     hour feature concat + FC
UnifiedSpatial      shared conv -> concat      static linear
STDIEmbedding       per-index conv -> LSTM     hour-generated weights,
                                               trainable hour table
==================  =========================  =======================

The hour-generated head builds its weight matrix as
``W = O' @ diag(w(V)) @ O`` from the hour embedding V, so the per-hour
parameters stay low-rank, and the generated bias is a second small linear
map of V.  Every head finishes with ReLU, so predictions are nonnegative.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .data import generate_hour_embeddings
from .errors import DataError, DomainError, ShapeError, UsageError
from .layers import ConvBlock, LinearLayer, LstmParams, drawn_param, lstm_sequence_batch
from .tensor import Tensor

HOURS = 24
LEAKY_SLOPE = 0.01

# kind -> (feature path, prediction head); the order is MODEL_KINDS's.
_KINDS = {
    "STDI": ("spatial_lstm", "hyper"),
    "SpatialFC": ("spatial_concat", "static"),
    "TemporalFC": ("raw_lstm", "static"),
    "SpatialTemporalFC": ("spatial_lstm", "static"),
    "SpatialDI": ("spatial_concat", "hyper"),
    "TemporalDI": ("raw_lstm", "hyper"),
    "STDIFusion": ("spatial_lstm", "fusion"),
    "UnifiedSpatial": ("shared_concat", "static"),
    "STDIEmbedding": ("spatial_lstm", "hyper"),
}
MODEL_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class ModelDims:
    """Shape configuration shared by all model kinds."""

    rows: int = 8
    cols: int = 16
    seq_len: int = 3
    channels: int = 32        # conv block output channels
    lstm_hidden: int = 1024
    rank: int = 64            # factorization rank of the generated weights
    embed_dim: int = 50       # hour embedding width
    fusion_dim: int = 128     # hour feature width for the fusion variant

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise UsageError(f"model dims: {f.name} must be an integer of at least 1, "
                                 f"got {value!r}")

    @property
    def output_dim(self):
        return 2 * self.rows * self.cols

    @property
    def frame_dim(self):
        return 2 * self.rows * self.cols

    @property
    def spatial_dim(self):
        return self.channels * self.rows * self.cols


TOY_DIMS = ModelDims(rows=2, cols=2, seq_len=3, channels=4, lstm_hidden=8,
                     rank=4, embed_dim=6, fusion_dim=8)


class SpatialModule:
    """L convolutional blocks, one per sequence index (or one shared)."""

    def __init__(self, dims, rng, dtype=T.STANDARD, shared=False):
        self.dims = dims
        self.shared = shared
        count = 1 if shared else dims.seq_len
        self.blocks = [ConvBlock(dims.channels, rng, dtype) for _ in range(count)]

    def block_for(self, index):
        return self.blocks[0] if self.shared else self.blocks[index]

    def forward(self, seqs, mode):
        """(B, L, 2, i, j) -> list of L tensors (B, channels*i*j), block l on frame l."""
        if seqs.data.ndim != 5 or seqs.data.shape[1] != self.dims.seq_len:
            raise ShapeError(
                f"spatial module expects (B, {self.dims.seq_len}, 2, i, j), got {seqs.data.shape}"
            )
        batch = seqs.data.shape[0]
        feats = []
        for l in range(self.dims.seq_len):
            conv = self.block_for(l).forward(T.take(seqs, l, axis=1), mode)
            feats.append(T.reshape(conv, (batch, self.dims.spatial_dim)))
        return feats

    def params(self):
        out = []
        for i, block in enumerate(self.blocks):
            tag = "shared" if self.shared else f"block{i}"
            out.extend((f"{tag}.{n}", p) for n, p in block.params())
        return out

    def states(self):
        out = []
        for i, block in enumerate(self.blocks):
            tag = "shared" if self.shared else f"block{i}"
            out.extend((f"{tag}.{n}", s) for n, s in block.states())
        return out


class IntervalNet:
    """Generates the prediction layer's weights and biases from the hour.

    The 24 x h hour table is frozen unless ``trainable_embedding`` is set;
    the two small linear maps (h -> rank and h -> output) and the projection
    matrices O (rank x feature) and O' (output x rank) are always trainable.
    """

    def __init__(self, feat_dim, dims, rng, embedding, trainable_embedding=False,
                 dtype=T.STANDARD):
        if embedding.shape != (HOURS, dims.embed_dim):
            raise ShapeError(
                f"hour table must be ({HOURS}, {dims.embed_dim}), got {embedding.shape}"
            )
        self.feat_dim = feat_dim
        self.dims = dims
        self.embedding = Tensor(np.asarray(embedding, dtype=dtype).copy(),
                                requires_grad=trainable_embedding)
        self.lin_w = LinearLayer(dims.embed_dim, dims.rank, rng, dtype)
        self.lin_b = LinearLayer(dims.embed_dim, dims.output_dim, rng, dtype)
        self.o_mat = drawn_param(
            rng, (dims.rank, feat_dim), dtype,
            lambda: rng.uniform(-1, 1, size=(dims.rank, feat_dim)) / np.sqrt(feat_dim))
        self.o_prime = drawn_param(
            rng, (dims.output_dim, dims.rank), dtype,
            lambda: rng.uniform(-1, 1, size=(dims.output_dim, dims.rank)) / np.sqrt(dims.rank))

    def generate(self, hour):
        """Weights (k, feat) and bias (k,) for one hour, kept on the tape."""
        hour = int(hour)
        if not 0 <= hour < HOURS:
            raise DomainError(f"hour must be in 0..{HOURS - 1}, got {hour}")
        v = T.take(self.embedding, hour)
        w = T.leaky_relu(self.lin_w.forward(v), LEAKY_SLOPE)
        w_fc = T.matmul(self.o_prime, T.scale_rows(self.o_mat, w))
        b_fc = T.leaky_relu(self.lin_b.forward(v), LEAKY_SLOPE)
        return w_fc, b_fc

    def apply_batch(self, feats, hours):
        """Per-sample generated prediction without materializing each W.

        Uses (O' diag(w) O) f == O' @ (w * (O @ f)) to batch over samples
        with different hours.
        """
        hours = np.asarray(hours, dtype=np.int64)
        if (hours < 0).any() or (hours >= HOURS).any():
            raise DomainError("hours must be in 0..23")
        v = T.take_rows(self.embedding, hours)
        w = T.leaky_relu(self.lin_w.forward(v), LEAKY_SLOPE)
        b_fc = T.leaky_relu(self.lin_b.forward(v), LEAKY_SLOPE)
        u = T.matmul(feats, T.transpose(self.o_mat))
        return T.add(T.matmul(T.hadamard(u, w), T.transpose(self.o_prime)), b_fc)

    def params(self):
        out = [("embedding", self.embedding)]
        out.extend((f"lin_w.{n}", p) for n, p in self.lin_w.params())
        out.extend((f"lin_b.{n}", p) for n, p in self.lin_b.params())
        out.append(("o", self.o_mat))
        out.append(("o_prime", self.o_prime))
        return out


class ModelBase:
    """The model protocol that fit(), predict_windows and checkpoints drive.

    A subclass defines ``forward_batch`` and ``named_tensors()``, every
    parameter as (name, tensor) with frozen ones included, plus
    ``named_states()`` if it holds batchnorm statistics; the rest of the
    protocol is derived from those.
    """

    def named_states(self):
        return []

    def parameters(self):
        """Trainable tensors only (frozen hour tables are excluded)."""
        return [p for _, p in self.named_tensors() if p.requires_grad]

    def attach_tape(self, tape):
        for _, p in self.named_tensors():
            p.tape = tape

    def parameter_count(self):
        return sum(p.data.size for p in self.parameters())

    def snapshot(self):
        params = {n: p.data.copy() for n, p in self.named_tensors()}
        states = {n: s.copy() for n, s in self.named_states()}
        return params, states

    def restore(self, snap):
        params, states = snap
        for n, p in self.named_tensors():
            p.data[...] = params[n]
        for n, s in self.named_states():
            s.running_mean[:] = states[n].running_mean
            s.running_var[:] = states[n].running_var


class DemandModel(ModelBase):
    """One built model: feature path plus head, with checkpoint support.

    The weights are drawn from ``rng`` in a fixed order.  With ``rng=None``
    nothing is drawn and the weights and hour table are ``np.empty``: the
    skeleton that load_checkpoint reads a checkpoint into.
    """

    def __init__(self, kind, dims, rng, embedding=None, dtype=T.STANDARD):
        if kind not in _KINDS:
            raise UsageError(f"unknown model kind {kind!r}; valid kinds: {', '.join(MODEL_KINDS)}")
        self.kind = kind
        self.dims = dims
        self.dtype = dtype
        self.feature_path, self.head = _KINDS[kind]

        self.spatial = None
        self.lstm = None
        self.head_linear = None
        self.interval = None
        self.fusion_embedding = None
        self.fusion_linear = None

        if self.feature_path in ("spatial_lstm", "spatial_concat"):
            self.spatial = SpatialModule(dims, rng, dtype)
        elif self.feature_path == "shared_concat":
            self.spatial = SpatialModule(dims, rng, dtype, shared=True)

        if self.feature_path in ("spatial_lstm", "raw_lstm"):
            lstm_in = dims.spatial_dim if self.feature_path == "spatial_lstm" else dims.frame_dim
            self.lstm = LstmParams(lstm_in, dims.lstm_hidden, rng, dtype)
            feat_dim = dims.lstm_hidden
        else:
            feat_dim = dims.seq_len * dims.spatial_dim
        self.feat_dim = feat_dim

        if self.head != "static" and embedding is None:
            embedding = np.empty((HOURS, dims.embed_dim), dtype=dtype)
        if self.head == "hyper":
            self.interval = IntervalNet(
                feat_dim, dims, rng, embedding,
                trainable_embedding=(kind == "STDIEmbedding"), dtype=dtype,
            )
        elif self.head == "fusion":
            self.fusion_embedding = Tensor(np.asarray(embedding, dtype=dtype).copy(),
                                           requires_grad=False)
            self.fusion_linear = LinearLayer(dims.embed_dim, dims.fusion_dim, rng, dtype)
            self.head_linear = LinearLayer(feat_dim + dims.fusion_dim, dims.output_dim, rng, dtype)
        else:
            self.head_linear = LinearLayer(feat_dim, dims.output_dim, rng, dtype)

    # -- forward ---------------------------------------------------------

    def _features(self, seqs, mode):
        batch = seqs.data.shape[0]
        if self.feature_path in ("spatial_lstm", "spatial_concat", "shared_concat"):
            feats = self.spatial.forward(seqs, mode)
            if self.feature_path == "spatial_lstm":
                return lstm_sequence_batch(self.lstm, feats)
            return T.hconcat(feats)
        frames = [
            T.reshape(T.take(seqs, l, axis=1), (batch, self.dims.frame_dim))
            for l in range(self.dims.seq_len)
        ]
        return lstm_sequence_batch(self.lstm, frames)

    def forward_batch(self, seqs, hours=None, mode="train"):
        """Predict (B, 2, i, j) from windows (B, L, 2, i, j) and hour labels."""
        d = self.dims
        batch = seqs.data.shape[0]
        feat = self._features(seqs, mode)
        if self.head == "hyper":
            out = T.relu(self.interval.apply_batch(feat, self._need_hour(hours)))
        elif self.head == "fusion":
            v = T.take_rows(self.fusion_embedding, np.asarray(self._need_hour(hours), dtype=np.int64))
            e = T.leaky_relu(self.fusion_linear.forward(v), LEAKY_SLOPE)
            out = T.relu(self.head_linear.forward(T.hconcat([feat, e])))
        else:
            out = T.relu(self.head_linear.forward(feat))
        return T.reshape(out, (batch, 2, d.rows, d.cols))

    def _need_hour(self, hour):
        if hour is None:
            raise UsageError(f"model kind {self.kind} needs the target hour")
        return hour

    # -- parameter registry ----------------------------------------------

    def named_tensors(self):
        """All parameter tensors as (name, tensor); frozen ones included."""
        out = []
        if self.spatial is not None:
            out.extend((f"spatial.{n}", p) for n, p in self.spatial.params())
        if self.lstm is not None:
            out.extend((f"lstm.{n}", p) for n, p in self.lstm.params())
        if self.interval is not None:
            out.extend((f"interval.{n}", p) for n, p in self.interval.params())
        if self.fusion_embedding is not None:
            out.append(("fusion.embedding", self.fusion_embedding))
            out.extend((f"fusion.lin.{n}", p) for n, p in self.fusion_linear.params())
        if self.head_linear is not None:
            out.extend((f"head.{n}", p) for n, p in self.head_linear.params())
        return out

    def named_states(self):
        if self.spatial is None:
            return []
        return [(f"spatial.{n}", s) for n, s in self.spatial.states()]


def build_model(kind, dims=None, seed=0, embedding=None, dtype=T.STANDARD):
    """Construct any model kind; see the module table for the mapping."""
    dims = dims or ModelDims()
    if embedding is None:
        embedding = generate_hour_embeddings(dims.embed_dim, seed)
    return DemandModel(kind, dims, np.random.default_rng(seed), embedding=embedding, dtype=dtype)


# ---------------------------------------------------------------------------
# checkpoints

CKPT_MAGIC = b"STDC"
CKPT_VERSION = 1


_CKPT_DTYPES = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(path, model, extra=None):
    """Write a manifest plus raw little-endian parameter data.

    The manifest records every tensor's name, shape, dtype and byte offset,
    the model kind, dims and precision, plus batchnorm running statistics so
    that a reloaded model evaluates identically.  Data is stored at the
    model's precision: float32 (``<f4``) or float64 (``<f8``).
    """
    dtype_name = np.dtype(model.dtype).name
    stored = _CKPT_DTYPES[dtype_name]
    entries = []
    blobs = []
    offset = 0
    items = [(n, p.data, p.requires_grad) for n, p in model.named_tensors()]
    for name, state in model.named_states():
        items.append((f"{name}.running_mean", state.running_mean, False))
        items.append((f"{name}.running_var", state.running_var, False))
    for name, arr, trainable in items:
        raw = np.ascontiguousarray(arr, dtype=stored).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": stored,
            "offset": offset,
            "nbytes": len(raw),
            "trainable": bool(trainable),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "kind": model.kind,
        "dims": asdict(model.dims),
        "dtype": dtype_name,
        "entries": entries,
        "extra": extra or {},
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(payload)))
        fh.write(payload)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, extra).

    The model gets the precision the manifest records; a manifest written
    before the precision was recorded loads as float32.  No weight is drawn:
    the model's arrays are allocated empty and each entry's bytes are read
    straight into its parameter's array (or batchnorm statistic).  The whole
    manifest is checked against the model and the data size first, so a
    damaged file raises DataError before any tensor byte is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint (magic {magic!r})")
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated checkpoint header")
        version, mlen = struct.unpack("<II", header)
        if version != CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except ValueError as exc:
            raise DataError(f"{path}: unreadable checkpoint manifest ({exc})") from None
        data_start = fh.tell()
        data_size = os.fstat(fh.fileno()).st_size - data_start
        model, extra, targets = _checked_skeleton(path, manifest, data_size)
        for start, nbytes, dtype, name, arr in sorted(targets, key=lambda t: t[0]):
            fh.seek(data_start + start)
            # An entry stored at another precision is read whole, then cast.
            into = arr if dtype == arr.dtype else np.empty(arr.shape, dtype=dtype)
            got = fh.readinto(into)
            if got != nbytes:
                raise DataError(f"{path}: entry {name} ends after {got} of its {nbytes} bytes; "
                                "the file is truncated")
            if into is not arr:
                arr[...] = into
    return model, extra


def _checked_skeleton(path, manifest, data_size):
    """(model skeleton, extra, read targets) for a manifest that passes every check.

    A read target is (offset, nbytes, dtype, name, array) for each of the
    model's parameter arrays and batchnorm statistics.
    """
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: the checkpoint manifest is not a JSON object")
    if manifest.get("standard_skip", False) is not False:
        raise DataError(f"{path}: the checkpoint is of an identity-skip residual model, "
                        "which this version does not build")
    kind = manifest.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DataError(f"{path}: unknown model kind {kind!r} in the checkpoint manifest")
    try:
        dims = ModelDims(**manifest["dims"])
    except (KeyError, TypeError, UsageError) as exc:
        raise DataError(f"{path}: bad model dims in the checkpoint manifest ({exc})") from None
    dtype_name = manifest.get("dtype", "float32")
    if not isinstance(dtype_name, str) or dtype_name not in _CKPT_DTYPES:
        raise DataError(f"{path}: unsupported model precision {dtype_name!r}")
    entries, extra = manifest.get("entries"), manifest.get("extra", {})
    if not isinstance(entries, list) or not isinstance(extra, dict):
        raise DataError(f"{path}: the checkpoint manifest needs an entries list and an extra object")
    index = {}
    spans = []
    for i, e in enumerate(entries):
        name, shape, dtype, start, nbytes = _manifest_entry(path, i, e)
        spans.append((start, nbytes, name))
        if start + nbytes > data_size:
            raise DataError(f"{path}: entry {name} needs bytes {start}..{start + nbytes} "
                            f"but the data is {data_size} bytes; the file is truncated")
        if nbytes != math.prod(shape) * np.dtype(dtype).itemsize:
            raise DataError(f"{path}: entry {name} has {nbytes} bytes "
                            f"for shape {shape} of {dtype}")
        index[name] = (start, nbytes, np.dtype(dtype), tuple(shape))

    model = DemandModel(kind, dims, None, dtype=np.dtype(dtype_name).type)
    arrays = [(name, p.data) for name, p in model.named_tensors()]
    for name, s in model.named_states():
        arrays.append((f"{name}.running_mean", s.running_mean))
        arrays.append((f"{name}.running_var", s.running_var))
    targets = []
    for name, arr in arrays:
        if name not in index:
            raise DataError(f"{path}: checkpoint is missing {name}")
        start, nbytes, dtype, shape = index[name]
        if shape != arr.shape:
            raise DataError(f"{path}: shape mismatch for {name}: file {shape}, model {arr.shape}")
        targets.append((start, nbytes, dtype, name, arr))
    # The entries, in offset order, must tile the data with no overlap, gap or
    # tail.  This comes after the lookups by name, so that a dropped entry is
    # reported by its name.
    end = 0
    for start, nbytes, name in sorted(spans):
        if start != end:
            raise DataError(f"{path}: checkpoint entries overlap or leave a gap: "
                            f"{name} starts at byte {start}, not {end}")
        end = start + nbytes
    if end != data_size:
        raise DataError(f"{path}: the entries end at byte {end} of {data_size} data bytes")
    return model, extra, targets


def _manifest_entry(path, index, entry):
    """(name, shape, dtype, offset, nbytes) of one manifest entry, checked."""
    try:
        name, shape, dtype, offset, nbytes = (
            entry[k] for k in ("name", "shape", "dtype", "offset", "nbytes"))
    except (KeyError, TypeError):
        raise DataError(f"{path}: manifest entry {index} lacks a name, shape, dtype, "
                        "offset or nbytes field") from None
    counts = [offset, nbytes, *shape] if isinstance(shape, list) else [None]
    if not isinstance(name, str) or any(type(v) is not int or v < 0 for v in counts):
        raise DataError(f"{path}: manifest entry {index} needs a string name and "
                        "nonnegative integer shape, offset and nbytes")
    if not isinstance(dtype, str) or dtype not in _CKPT_DTYPES.values():
        raise DataError(f"{path}: unsupported dtype {dtype!r} for {name}")
    return name, shape, dtype, offset, nbytes
