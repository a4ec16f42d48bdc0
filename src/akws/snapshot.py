"""Binary snapshot of a trained classifier and the frozen layers before it.

Layout, version 2 (all little-endian):

    magic   4 bytes  b"AKWS"
    u32     format version (2)
    u32     E   expansion size
    u32     C   registered class count
    u32     d   pre-expansion feature dimension
    u64     expansion seed
    u8      activation (0 = identity, 1 = relu)
    f64     gamma
    u32     tasks seen
    u32     extractor input width (0 without an extractor)
    u32     extractor hidden width (0 without an extractor, else d)
    u32     registry entry count, then per entry: u32 class id, u32 column
    f64[]   weights, E*C values row-major
    f64[]   autocorrelation matrix in RFP storage, E(E+1)/2 values as
            ``AnalyticClassifier.afam`` holds them (LAPACK TRANSR=N, UPLO=L)
    f64[]   extractor ``w1``, input width x hidden width values row-major
    f64[]   extractor ``b1``, hidden width values
    u32     CRC32 of every byte before it

Version 1 files still load. Version 1 has no extractor fields, stores the
autocorrelation matrix as E*E values row-major, both triangles, and ends
without a CRC; its matrix is packed into RFP storage on load.
"""

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .classifier import AnalyticClassifier
from .errors import ShapeError, SnapshotFormatError, StateError

MAGIC = b"AKWS"
FORMAT_VERSION = 2
# Fixed header after the magic, per version: version, E, C, d, seed,
# activation, gamma, tasks seen, [extractor input and hidden width,]
# registry entry count.
_HEADERS = {1: struct.Struct("<IIIIQBdII"), 2: struct.Struct("<IIIIQBdIIII")}
_CRC = struct.Struct("<I")

_ACTIVATION_CODE = {"identity": 0, "relu": 1}
_ACTIVATION_NAME = {v: k for k, v in _ACTIVATION_CODE.items()}


@dataclass(frozen=True)
class SnapshotMeta:
    """What maps raw features to the expanded space the classifier was fit in.

    ``w1`` (d_in x d) and ``b1`` (d) are the frozen extractor layer that
    ``extract`` applies, or both None for a run without an extractor.
    ``==`` compares the expansion fields only; compare the arrays with
    ``np.array_equal``.
    """

    dim: int
    seed: int
    activation: str
    w1: np.ndarray | None = field(default=None, compare=False)
    b1: np.ndarray | None = field(default=None, compare=False)


def _extractor_widths(meta: SnapshotMeta) -> tuple[int, int]:
    """Input and hidden width of ``meta``'s extractor layer, (0, 0) without one."""
    if meta.w1 is None and meta.b1 is None:
        return 0, 0
    w1, b1 = np.asarray(meta.w1), np.asarray(meta.b1)
    if w1.ndim != 2 or w1.shape[0] < 1 or b1.shape != (meta.dim,) or w1.shape[1] != meta.dim:
        raise SnapshotFormatError(
            f"extractor layer w1 {w1.shape} and b1 {b1.shape} must be d_in x {meta.dim} and {meta.dim}"
        )
    return w1.shape


def _snapshot_parts(c: AnalyticClassifier, meta: SnapshotMeta) -> list:
    """The snapshot's byte runs in file order, CRC last; only matrices that are not C-ordered are copied.

    ``update`` leaves the weights as the leading columns of a wider
    Fortran-ordered array; they are written row-major, as E x C.
    """
    if c.afam is None:
        raise StateError(
            "cannot snapshot a classifier without its autocorrelation state: it was consumed by an "
            "earlier update, or solved for its weights only"
        )
    x_in, x_hidden = _extractor_widths(meta)
    for name, value in [
        ("dim", meta.dim),
        ("tasks_seen", c.tasks_seen),
        ("extractor input width", x_in),
        *(("class id", cid) for cid in c.class_ids),
    ]:
        if not 0 <= value < 2**32:
            raise SnapshotFormatError(f"{name} {value} does not fit the snapshot's 32 unsigned bits")
    if meta.activation not in _ACTIVATION_CODE:
        raise SnapshotFormatError(
            f"activation {meta.activation!r} has no snapshot code; expected one of {sorted(_ACTIVATION_CODE)}"
        )
    e, n_classes = c.weights.shape
    if np.shape(c.afam) != (e * (e + 1) // 2,):
        raise ShapeError(f"autocorrelation state of shape {np.shape(c.afam)} is not the RFP array of order {e}")
    header = MAGIC + _HEADERS[FORMAT_VERSION].pack(
        FORMAT_VERSION,
        e,
        n_classes,
        meta.dim,
        meta.seed & 0xFFFFFFFFFFFFFFFF,
        _ACTIVATION_CODE[meta.activation],
        c.gamma,
        c.tasks_seen,
        x_in,
        x_hidden,
        len(c.class_ids),
    )
    registry = b"".join(struct.pack("<II", cid, col) for col, cid in enumerate(c.class_ids))
    parts = [header, registry, c.weights, c.afam]
    if x_in:
        parts += [meta.w1, meta.b1]
    parts = [p if isinstance(p, bytes) else np.ascontiguousarray(p, dtype="<f8") for p in parts]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return parts + [_CRC.pack(crc)]


def dump_snapshot(c: AnalyticClassifier, meta: SnapshotMeta) -> bytes:
    return b"".join(_snapshot_parts(c, meta))


def load_snapshot(blob: bytes) -> tuple[AnalyticClassifier, SnapshotMeta]:
    """Classifier and meta of a version 2 or version 1 snapshot."""
    if blob[:4] != MAGIC:
        raise SnapshotFormatError("bad magic; not a classifier snapshot")
    try:
        (version,) = struct.unpack_from("<I", blob, len(MAGIC))
        if version not in _HEADERS:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        fields = _HEADERS[version].unpack_from(blob, len(MAGIC))
        _, e, n_classes, dim, seed, act_code, gamma, tasks_seen, *x_widths, reg_count = fields
        if reg_count != n_classes:
            raise SnapshotFormatError(f"{reg_count} registry entries for {n_classes} classes")
        off = len(MAGIC) + _HEADERS[version].size
        entries = struct.unpack_from(f"<{2 * reg_count}I", blob, off)
    except struct.error as exc:
        raise SnapshotFormatError(f"truncated header: {exc}") from None
    off += 8 * reg_count
    x_in, x_hidden = x_widths or (0, 0)
    state = e * (e + 1) // 2 if version == 2 else e * e
    need = 8 * (e * n_classes + state + x_in * x_hidden + x_hidden) + (_CRC.size if version == 2 else 0)
    if len(blob) - off != need:
        raise SnapshotFormatError(f"payload size mismatch: expected {need} bytes, got {len(blob) - off}")
    if version == 2:
        (crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
        if zlib.crc32(memoryview(blob)[: len(blob) - _CRC.size]) != crc:
            raise SnapshotFormatError("CRC32 mismatch: the snapshot is corrupt")
    if act_code not in _ACTIVATION_NAME:
        raise SnapshotFormatError(f"unknown activation code {act_code}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise SnapshotFormatError(f"ridge parameter must be finite and > 0, got {gamma}")
    if (x_in == 0) != (x_hidden == 0) or x_hidden not in (0, dim):
        raise SnapshotFormatError(f"extractor widths {x_in} x {x_hidden} do not feed a {dim}-wide expansion")
    ids, cols = entries[0::2], entries[1::2]
    if sorted(cols) != list(range(n_classes)) or len(set(ids)) != n_classes:
        raise SnapshotFormatError(
            f"registry must map {n_classes} distinct class ids onto columns 0..{n_classes - 1}"
        )
    blocks = {}
    for name, shape in [
        ("weights", (e, n_classes)),
        ("autocorrelation matrix", (state,) if version == 2 else (e, e)),
        ("extractor w1", (x_in, x_hidden)),
        ("extractor b1", (x_hidden,)),
    ]:
        count = math.prod(shape)
        block = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).astype(np.float64)
        if not np.isfinite(block).all():
            raise SnapshotFormatError(f"{name} block holds a non-finite number")
        blocks[name] = block
        off += 8 * count
    afam = blocks["autocorrelation matrix"]
    if version == 1:
        afam = lapack.trttf(afam.T)  # its upper triangle, read as the lower one of the Fortran transpose
    class_ids = tuple(cid for _, cid in sorted(zip(cols, ids)))
    clf = AnalyticClassifier(
        weights=blocks["weights"], afam=afam, gamma=gamma, class_ids=class_ids, tasks_seen=tasks_seen
    )
    extractor = (blocks["extractor w1"], blocks["extractor b1"]) if x_in else (None, None)
    return clf, SnapshotMeta(dim, seed, _ACTIVATION_NAME[act_code], *extractor)


def save_snapshot(path, c: AnalyticClassifier, meta: SnapshotMeta) -> None:
    """Write the snapshot to ``path`` without building it in memory first.

    A classifier or header field that cannot be stored raises before
    ``path`` is opened.
    """
    parts = _snapshot_parts(c, meta)
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)


def read_snapshot(path) -> tuple[AnalyticClassifier, SnapshotMeta]:
    with open(path, "rb") as fh:
        return load_snapshot(fh.read())
