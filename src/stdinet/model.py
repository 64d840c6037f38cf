"""Model assembly: spatial blocks, temporal encoder, prediction heads.

Ten model kinds, the nine STDI-Net kinds and the MLP baseline, differ only
in their layers.  In every kind the L steps of a window reach the temporal
stage as one (B, L*w) matrix, step l in columns l*w to (l+1)*w: the L conv
block outputs side by side, or the frames.

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
MLP                 raw frames -> concat       four ReLU hidden layers
                                               + linear
==================  =========================  =======================

Each head is a layer built as ``head(feat_dim, dims, rng, embedding,
dtype=...)``; its ``apply_batch(feats, hours)`` maps (B, feat_dim) features
and B hour labels to (B, output_dim), and its ``name`` is its place in the
model's parameter tree ("" puts its parts at the top level).  The
hour-generated head builds its weight matrix as ``W = O' @ diag(w(V)) @ O``
from the hour embedding V, so the per-hour parameters stay low-rank, and
the generated bias is a second small linear map of V.  Every model finishes
with ReLU, so predictions are nonnegative.
"""

from __future__ import annotations

import functools
import json
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
MLP_HIDDEN = (256, 256, 128, 128)


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


def _hour_table(embedding, dims, dtype, trainable=False):
    """A copy of the 24 x embed_dim hour table as a tensor; ``np.empty`` for a skeleton."""
    shape = (HOURS, dims.embed_dim)
    if embedding is not None and embedding.shape != shape:
        raise ShapeError(f"hour table must be {shape}, got {embedding.shape}")
    table = np.empty(shape, dtype) if embedding is None else np.array(embedding, dtype, order="C")
    return Tensor(table, requires_grad=trainable)


class SpatialModule(Layer):
    """L convolutional blocks, one per sequence index (or one shared)."""

    def __init__(self, dims, rng, dtype=T.STANDARD, shared=False):
        self.dims = dims
        self.shared = shared
        count = 1 if shared else dims.seq_len
        self.blocks = [ConvBlock(dims.channels, rng, dtype) for _ in range(count)]

    def forward(self, seqs, mode):
        """(B, L, 2, i, j) -> list of L tensors (B, channels, i, j), block l on frame l."""
        if seqs.data.ndim != 5 or seqs.data.shape[1] != self.dims.seq_len:
            raise ShapeError(
                f"spatial module expects (B, {self.dims.seq_len}, 2, i, j), got {seqs.data.shape}"
            )
        blocks = self.blocks * self.dims.seq_len if self.shared else self.blocks
        return [block.forward(T.take(seqs, l, axis=1), mode) for l, block in enumerate(blocks)]

    def parts(self):
        if self.shared:
            return [("shared", self.blocks[0])]
        return [(f"block{i}", block) for i, block in enumerate(self.blocks)]


class LinearHead(LinearLayer):
    """The static head: one linear map of the features; the hour is unused."""

    name = "head"

    def __init__(self, feat_dim, dims, rng, embedding=None, dtype=T.STANDARD):
        super().__init__(feat_dim, dims.output_dim, rng, dtype)

    def apply_batch(self, feats, hours=None):
        return self.forward(feats)


class IntervalNet(Layer):
    """Generates the prediction layer's weights and biases from the hour.

    The 24 x h hour table is frozen unless ``trainable_embedding`` is set;
    the two small linear maps (h -> rank and h -> output) and the projection
    matrices O (rank x feature) and O' (output x rank) are always trainable.
    """

    name = "interval"

    def __init__(self, feat_dim, dims, rng, embedding, trainable_embedding=False,
                 dtype=T.STANDARD):
        self.feat_dim = feat_dim
        self.embedding = _hour_table(embedding, dims, dtype, trainable_embedding)
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
        v = T.take(self.embedding, hour_index(hours))
        return T.leaky_relu(self.lin_w.forward(v)), T.leaky_relu(self.lin_b.forward(v))

    def _scaled(self, feats, w):
        """w_b * (O @ f_b) per row, so no per-sample W_b = O' diag(w_b) O is formed."""
        return T.hadamard(T.affine(feats, self.o_mat), w)

    def apply_batch(self, feats, hours):
        """W_h f + b(V_h) for each row of feats and its hour h."""
        w, b_fc = self._hour_terms(hours)
        return T.add(T.affine(self._scaled(feats, w), self.o_prime), b_fc)

    def generate(self, hour):
        """Weights (k, feat) and bias (k,) for one hour, kept on the tape: the
        head's two projections of the identity, the last with operands swapped."""
        w, b_rows = self._hour_terms(np.full(self.feat_dim, hour))
        eye = Tensor(np.eye(self.feat_dim, dtype=self.o_mat.data.dtype))
        return T.affine(self.o_prime, self._scaled(eye, w)), T.take(b_rows, 0)

    def parts(self):
        return [("embedding", self.embedding), ("lin_w", self.lin_w), ("lin_b", self.lin_b),
                ("o", self.o_mat), ("o_prime", self.o_prime)]


class FusionHead(Layer):
    """The hour feature head: one linear map of the features beside leaky_relu(lin(V_h))."""

    name = ""

    def __init__(self, feat_dim, dims, rng, embedding, dtype=T.STANDARD):
        self.embedding = _hour_table(embedding, dims, dtype)
        self.lin = LinearLayer(dims.embed_dim, dims.fusion_dim, rng, dtype)
        self.out = LinearLayer(feat_dim + dims.fusion_dim, dims.output_dim, rng, dtype)

    def apply_batch(self, feats, hours):
        e = T.leaky_relu(self.lin.forward(T.take(self.embedding, hour_index(hours))))
        return self.out.forward(T.hconcat([feats, e]))

    def parts(self):
        return [("fusion.embedding", self.embedding), ("fusion.lin", self.lin),
                ("head", self.out)]


class MlpHead(Layer):
    """The MLP baseline's head: four ReLU hidden layers, then a linear output."""

    name = ""

    def __init__(self, feat_dim, dims, rng, embedding=None, dtype=T.STANDARD):
        widths = [feat_dim, *MLP_HIDDEN, dims.output_dim]
        self.layers = [LinearLayer(a, b, rng, dtype) for a, b in zip(widths, widths[1:])]

    def apply_batch(self, feats, hours=None):
        for layer in self.layers[:-1]:
            feats = T.relu(layer.forward(feats))
        return self.layers[-1].forward(feats)

    def parts(self):
        return [(f"mlp{i}", layer) for i, layer in enumerate(self.layers)]


# kind -> (conv blocks: "index" one per sequence index, "shared" or None;
# LSTM or not; prediction head).  The STDI-Net kinds come first, in
# MODEL_KINDS's order; the MLP baseline is the last row.
_KINDS = {
    "STDI": ("index", True, IntervalNet),
    "SpatialFC": ("index", False, LinearHead),
    "TemporalFC": (None, True, LinearHead),
    "SpatialTemporalFC": ("index", True, LinearHead),
    "SpatialDI": ("index", False, IntervalNet),
    "TemporalDI": (None, True, IntervalNet),
    "STDIFusion": ("index", True, FusionHead),
    "UnifiedSpatial": ("shared", False, LinearHead),
    "STDIEmbedding": ("index", True, functools.partial(IntervalNet, trainable_embedding=True)),
    "MLP": (None, False, MlpHead),
}
MODEL_KINDS = tuple(_KINDS)[:-1]


class DemandModel(Layer):
    """One built model: the layers its kind names, driven by fit(),
    predict_windows and checkpoints.

    The weights are drawn from ``rng`` in a fixed order: spatial blocks,
    LSTM, head.  With ``rng=None`` nothing is drawn and the weights and hour
    table are ``np.empty``: the skeleton that load_checkpoint reads a
    checkpoint into.  ``named_tensors()`` walks ``named_parts()``, so it
    lists the LSTM's per-gate views where ``params()`` lists its 4 tensors.
    """

    def __init__(self, kind, dims, rng, embedding=None, dtype=T.STANDARD):
        if kind not in _KINDS:
            raise UsageError(f"unknown model kind {kind!r}; valid kinds: {', '.join(_KINDS)}")
        self.kind, self.dims, self.dtype = kind, dims, dtype
        convs, has_lstm, head = _KINDS[kind]
        self.spatial = SpatialModule(dims, rng, dtype, shared=convs == "shared") if convs else None
        step_dim = dims.spatial_dim if convs else dims.frame_dim
        self.lstm = LstmParams(step_dim, dims.lstm_hidden, rng, dtype) if has_lstm else None
        feat_dim = dims.lstm_hidden if has_lstm else dims.seq_len * step_dim
        self.head = head(feat_dim, dims, rng, embedding, dtype=dtype)

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
        out = T.relu(self.head.apply_batch(self._features(seqs, mode), hours))
        return T.reshape(out, (seqs.data.shape[0], 2, d.rows, d.cols))

    def parts(self):
        named = (("spatial", self.spatial), ("lstm", self.lstm), (self.head.name, self.head))
        return [(n, part) for n, part in named if part is not None]

    def named_tensors(self):
        return [(n, p) for n, p in self._leaves(named=True) if isinstance(p, Tensor)]

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
        return [p for _, p in self.params() if p.requires_grad]

    def parameter_count(self):
        return sum(p.data.size for p in self.parameters())

    def snapshot(self):
        return {n: a.copy() for n, a in self.named_arrays()}

    def restore(self, snap):
        for n, a in self.named_arrays():
            a[...] = snap[n]


def build_model(kind, dims=None, seed=0, embedding=None, dtype=T.STANDARD):
    """Construct any of the ten model kinds; see the module table for the mapping."""
    dims = dims or ModelDims()
    try:
        if embedding is None:
            embedding = generate_hour_embeddings(dims.embed_dim, seed)
        return DemandModel(kind, dims, np.random.default_rng(seed), embedding=embedding, dtype=dtype)
    except MemoryError:
        raise UsageError(f"the {kind} model of {dims} is too large to allocate") from None


# ---------------------------------------------------------------------------
# checkpoints

CKPT_MAGIC = b"STDC"
CKPT_VERSION = 1
_CKPT_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _layout(model):
    """The checkpoint layout: (entry, array) for each of ``named_arrays()``, in order.

    An entry is the array's name, shape, stored dtype (``<f4`` or ``<f8``,
    the model's precision), byte offset into the data and byte count; the
    arrays lie end to end from offset 0.  The writer stores these entries,
    and the reader accepts a manifest only if it lists exactly them.
    """
    stored = _CKPT_DTYPES[np.dtype(model.dtype).name]
    offset = 0
    for name, arr in model.named_arrays():
        yield {"name": name, "shape": list(arr.shape), "dtype": stored,
               "offset": offset, "nbytes": arr.nbytes}, arr
        offset += arr.nbytes


def save_checkpoint(path, model, extra=None):
    """Write a manifest plus raw little-endian parameter data.

    The manifest records the model kind, dims and precision, and the
    ``_layout`` entries, each marked ``trainable`` or not; the data holds
    every parameter and batchnorm running statistic, so that a reloaded
    model evaluates identically.  Data is stored at the model's precision:
    float32 (``<f4``) or float64 (``<f8``).
    """
    trainable = {n for n, p in model.named_tensors() if p.requires_grad}
    layout = list(_layout(model))
    manifest = {
        "kind": model.kind,
        "dims": asdict(model.dims),
        "dtype": np.dtype(model.dtype).name,
        "entries": [{**entry, "trainable": entry["name"] in trainable} for entry, _ in layout],
        "extra": extra or {},
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(payload)))
        fh.write(payload)
        for entry, arr in layout:
            # A view on a little-endian host: nothing is copied before the write.
            fh.write(np.ascontiguousarray(arr, dtype=entry["dtype"]))


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, extra).

    The model gets the precision the manifest records; a manifest written
    before the precision was recorded loads as float32.  No weight is drawn:
    the model's arrays are allocated empty and read in ``_layout`` order,
    each straight into its parameter's array (or batchnorm statistic).  The
    manifest must list the ``_layout`` entries of its kind, dims and
    precision, and the data must end where they do, so a damaged file
    raises DataError before any tensor byte is read.
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
        data_size = os.fstat(fh.fileno()).st_size - fh.tell() - mlen
        if data_size < 0:
            raise DataError(f"{path}: the header gives a {mlen}-byte manifest, "
                            "longer than the rest of the file; the file is truncated")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except ValueError as exc:
            raise DataError(f"{path}: unreadable checkpoint manifest ({exc})") from None
        model, extra, layout = _checked_skeleton(path, manifest, data_size)
        for entry, arr in layout:
            # Only a host whose byte order is not the file's reads through a buffer.
            into = arr if arr.dtype == entry["dtype"] else np.empty(arr.shape, entry["dtype"])
            got = fh.readinto(into)
            if got != entry["nbytes"]:
                raise DataError(f"{path}: entry {entry['name']} ends after {got} of its "
                                f"{entry['nbytes']} bytes; the file is truncated")
            if into is not arr:
                arr[...] = into
    return model, extra


def _checked_skeleton(path, manifest, data_size):
    """(model skeleton, extra, layout) for a manifest that passes every check.

    The skeleton is the model of the manifest's kind, dims and precision, and
    the manifest's entries must be its ``_layout`` entries, compared as JSON
    so that ``1.0`` or ``true`` does not pass for ``1``.
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
    # Each per-index conv block stores arrays of its own, so more blocks than
    # entries cannot match; refusing them here spares building them.
    if _KINDS[kind][0] == "index" and dims.seq_len > len(entries):
        raise DataError(f"{path}: seq_len {dims.seq_len} needs more conv blocks than "
                        f"the manifest's {len(entries)} entries hold")

    try:
        model = DemandModel(kind, dims, None, dtype=np.dtype(dtype_name).type)
    except MemoryError:
        raise DataError(f"{path}: the checkpoint's model dims are too large to allocate") from None
    layout = list(_layout(model))
    for i, (want, _) in enumerate(layout):
        got = entries[i] if i < len(entries) else None
        if not (isinstance(got, dict)
                and json.dumps({k: got.get(k) for k in want}) == json.dumps(want)):
            found = f"{got!r:.200}" if i < len(entries) else "missing"
            raise DataError(f"{path}: manifest entry {i} should be the model's {want['name']}, "
                            f"{want['shape']} of {want['dtype']} at data bytes {want['offset']}.."
                            f"{want['offset'] + want['nbytes']}; it is {found}")
    if len(entries) != len(layout):
        raise DataError(f"{path}: the manifest has {len(entries)} entries where the model has "
                        f"{len(layout)}; the first extra one is {entries[len(layout)]!r:.200}")
    end = want["offset"] + want["nbytes"]
    if end != data_size:
        raise DataError(f"{path}: the entries end at byte {end} of {data_size} data bytes"
                        + ("; the file is truncated" if data_size < end else ""))
    return model, extra, layout
