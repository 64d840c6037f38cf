"""Model assembly: spatial blocks, temporal encoder, prediction heads.

Nine model kinds differ only in their layers.  In every kind the L steps
of a window reach the temporal stage as one (B, L*w) matrix, step l in
columns l*w to (l+1)*w: the L conv block outputs side by side, or the frames.

==================  =========================  =======================
kind                layers                     prediction head
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
from .layers import ConvBlock, Layer, LinearLayer, LstmParams, drawn_param, lstm_sequence_batch
from .tensor import Tensor

HOURS = 24

# kind -> (conv blocks: "index" one per sequence index, "shared" or None;
# LSTM or not; prediction head).  The order is MODEL_KINDS's.
_KINDS = {
    "STDI": ("index", True, "hyper"),
    "SpatialFC": ("index", False, "static"),
    "TemporalFC": (None, True, "static"),
    "SpatialTemporalFC": ("index", True, "static"),
    "SpatialDI": ("index", False, "hyper"),
    "TemporalDI": (None, True, "hyper"),
    "STDIFusion": ("index", True, "fusion"),
    "UnifiedSpatial": ("shared", False, "static"),
    "STDIEmbedding": ("index", True, "hyper"),
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


def hour_index(hours):
    """The hour labels as int64 row indices into a 24-row hour table."""
    if hours is None:
        raise UsageError("this model kind needs the target hour of each window")
    idx = np.asarray(hours, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= HOURS)]
    if bad.size:
        raise DomainError(f"hour must be in 0..{HOURS - 1}, got {bad[0]}")
    return idx


class SpatialModule(Layer):
    """L convolutional blocks, one per sequence index (or one shared)."""

    def __init__(self, dims, rng, dtype=T.STANDARD, shared=False):
        self.dims = dims
        self.shared = shared
        count = 1 if shared else dims.seq_len
        self.blocks = [ConvBlock(dims.channels, rng, dtype) for _ in range(count)]

    def forward(self, seqs, mode):
        """(B, L, 2, i, j) -> list of L tensors (B, channels*i*j), block l on frame l."""
        if seqs.data.ndim != 5 or seqs.data.shape[1] != self.dims.seq_len:
            raise ShapeError(
                f"spatial module expects (B, {self.dims.seq_len}, 2, i, j), got {seqs.data.shape}"
            )
        shape = (seqs.data.shape[0], self.dims.spatial_dim)
        blocks = self.blocks * self.dims.seq_len if self.shared else self.blocks
        return [T.reshape(block.forward(T.take(seqs, l, axis=1), mode), shape)
                for l, block in enumerate(blocks)]

    def parts(self):
        if self.shared:
            return [("shared", self.blocks[0])]
        return [(f"block{i}", block) for i, block in enumerate(self.blocks)]


class IntervalNet(Layer):
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

    def _hour_terms(self, hours):
        """w(V) (B, rank) and b(V) (B, output) for each row's hour label."""
        v = T.take_rows(self.embedding, hour_index(hours))
        return T.leaky_relu(self.lin_w.forward(v)), T.leaky_relu(self.lin_b.forward(v))

    def _weigh(self, feats, w):
        """Row b of (B, feat) feats through W_b = O' diag(w_b) O, as
        O' @ (w_b * (O @ f_b)), so no per-sample W is materialized."""
        u = T.matmul(feats, T.transpose(self.o_mat))
        return T.matmul(T.hadamard(u, w), T.transpose(self.o_prime))

    def apply_batch(self, feats, hours):
        """W_h f + b(V_h) for each row of feats and its hour h."""
        w, b_fc = self._hour_terms(hours)
        return T.add(self._weigh(feats, w), b_fc)

    def generate(self, hour):
        """Weights (k, feat) and bias (k,) for one hour, kept on the tape:
        the batched head applied to the identity, one row per feature."""
        w, b_rows = self._hour_terms(np.full(self.feat_dim, hour))
        eye = Tensor(np.eye(self.feat_dim, dtype=self.o_mat.data.dtype))
        return T.transpose(self._weigh(eye, w)), T.take(b_rows, 0)

    def parts(self):
        return [("embedding", self.embedding), ("lin_w", self.lin_w), ("lin_b", self.lin_b),
                ("o", self.o_mat), ("o_prime", self.o_prime)]


class ModelBase(Layer):
    """The model protocol that fit(), predict_windows and checkpoints drive.

    A subclass defines ``forward_batch`` and ``parts()``, its layers and
    tensors as (name, part) pairs in checkpoint order; the rest of the
    protocol comes from one walk of that tree.  ``named_tensors()`` (every
    parameter, frozen ones included) and ``named_states()`` (every batchnorm
    statistic) are the model's names for ``params()`` and ``states()``.
    """

    def named_tensors(self):
        return self.params()

    def named_states(self):
        return self.states()

    def named_arrays(self):
        """Every array a checkpoint holds, by checkpoint name: the parameters,
        then each batchnorm's running mean and variance."""
        out = [(n, p.data) for n, p in self.named_tensors()]
        for n, s in self.named_states():
            out += [(f"{n}.running_mean", s.running_mean), (f"{n}.running_var", s.running_var)]
        return out

    def parameters(self):
        """Trainable tensors only (frozen hour tables are excluded)."""
        return [p for _, p in self.named_tensors() if p.requires_grad]

    def parameter_count(self):
        return sum(p.data.size for p in self.parameters())

    def snapshot(self):
        return {n: a.copy() for n, a in self.named_arrays()}

    def restore(self, snap):
        for n, a in self.named_arrays():
            a[...] = snap[n]


class DemandModel(ModelBase):
    """One built model: the layers its kind names, with checkpoint support.

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
        convs, has_lstm, self.head = _KINDS[kind]

        self.head_linear = None
        self.interval = None
        self.fusion_embedding = None
        self.fusion_linear = None

        self.spatial = SpatialModule(dims, rng, dtype, shared=convs == "shared") if convs else None
        step_dim = dims.spatial_dim if convs else dims.frame_dim
        self.lstm = LstmParams(step_dim, dims.lstm_hidden, rng, dtype) if has_lstm else None
        feat_dim = dims.lstm_hidden if has_lstm else dims.seq_len * step_dim
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
        """The (B, L*w) step matrix of the windows, through the LSTM if the kind has one."""
        if self.spatial is None:
            x = T.reshape(seqs, (seqs.data.shape[0], self.dims.seq_len * self.dims.frame_dim))
        else:
            x = T.hconcat(self.spatial.forward(seqs, mode))
        return x if self.lstm is None else lstm_sequence_batch(self.lstm, x)

    def forward_batch(self, seqs, hours=None, mode="train"):
        """Predict (B, 2, i, j) from windows (B, L, 2, i, j) and hour labels."""
        d = self.dims
        batch = seqs.data.shape[0]
        feat = self._features(seqs, mode)
        if self.head == "hyper":
            out = T.relu(self.interval.apply_batch(feat, hours))
        elif self.head == "fusion":
            v = T.take_rows(self.fusion_embedding, hour_index(hours))
            e = T.leaky_relu(self.fusion_linear.forward(v))
            out = T.relu(self.head_linear.forward(T.hconcat([feat, e])))
        else:
            out = T.relu(self.head_linear.forward(feat))
        return T.reshape(out, (batch, 2, d.rows, d.cols))

    def parts(self):
        named = (("spatial", self.spatial), ("lstm", self.lstm), ("interval", self.interval),
                 ("fusion.embedding", self.fusion_embedding), ("fusion.lin", self.fusion_linear),
                 ("head", self.head_linear))
        return [(n, part) for n, part in named if part is not None]


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
    # The arrays already are contiguous at the stored precision, so each
    # "as stored" array is a view and nothing is copied before the writes.
    views = []
    offset = 0
    trainable = {n for n, p in model.named_tensors() if p.requires_grad}
    for name, arr in model.named_arrays():
        view = np.ascontiguousarray(arr, dtype=stored)
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": stored,
            "offset": offset,
            "nbytes": view.nbytes,
            "trainable": name in trainable,
        })
        views.append(view)
        offset += view.nbytes
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
        for view in views:
            fh.write(view)


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

    try:
        model = DemandModel(kind, dims, None, dtype=np.dtype(dtype_name).type)
    except MemoryError:
        raise DataError(f"{path}: the checkpoint's model dims are too large to allocate") from None
    targets = []
    for name, arr in model.named_arrays():
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
