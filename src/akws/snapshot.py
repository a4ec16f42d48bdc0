"""Binary snapshot of a trained classifier.

Layout (all little-endian):

    magic   4 bytes  b"AKWS"
    u32     format version (currently 1)
    u32     E   expansion size
    u32     C   registered class count
    u32     d   pre-expansion feature dimension
    u64     expansion seed
    u8      activation (0 = identity, 1 = relu)
    f64     gamma
    u32     tasks seen
    u32     registry entry count, then per entry: u32 class id, u32 column
    f64[]   weights, E*C values row-major
    f64[]   autocorrelation matrix, E*E values row-major
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .classifier import AnalyticClassifier
from .errors import SnapshotFormatError, StateError

MAGIC = b"AKWS"
FORMAT_VERSION = 1
# Fixed header after the magic: version, E, C, d, seed, activation, gamma,
# tasks seen, registry entry count.
_HEADER = struct.Struct("<IIIIQBdII")

_ACTIVATION_CODE = {"identity": 0, "relu": 1}
_ACTIVATION_NAME = {v: k for k, v in _ACTIVATION_CODE.items()}


@dataclass(frozen=True)
class SnapshotMeta:
    """Expansion provenance stored alongside the classifier."""

    dim: int
    seed: int
    activation: str


def _snapshot_parts(c: AnalyticClassifier, meta: SnapshotMeta) -> list:
    """The snapshot's byte runs in file order; the two matrices are not copied."""
    if c.afam is None:
        raise StateError(
            "cannot snapshot a classifier without its autocorrelation state: it was consumed by an "
            "earlier update, or solved for its weights only"
        )
    for name, value in [("dim", meta.dim), ("tasks_seen", c.tasks_seen), *(("class id", cid) for cid in c.class_ids)]:
        if not 0 <= value < 2**32:
            raise SnapshotFormatError(f"{name} {value} does not fit the snapshot's 32 unsigned bits")
    if meta.activation not in _ACTIVATION_CODE:
        raise SnapshotFormatError(
            f"activation {meta.activation!r} has no snapshot code; expected one of {sorted(_ACTIVATION_CODE)}"
        )
    e, n_classes = c.weights.shape
    header = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        e,
        n_classes,
        meta.dim,
        meta.seed & 0xFFFFFFFFFFFFFFFF,
        _ACTIVATION_CODE[meta.activation],
        c.gamma,
        c.tasks_seen,
        len(c.class_ids),
    )
    registry = b"".join(struct.pack("<II", cid, col) for col, cid in enumerate(c.class_ids))
    return [
        header,
        registry,
        np.ascontiguousarray(c.weights, dtype="<f8"),
        np.ascontiguousarray(c.afam, dtype="<f8"),
    ]


def dump_snapshot(c: AnalyticClassifier, meta: SnapshotMeta) -> bytes:
    return b"".join(_snapshot_parts(c, meta))


def load_snapshot(blob: bytes) -> tuple[AnalyticClassifier, SnapshotMeta]:
    if blob[:4] != MAGIC:
        raise SnapshotFormatError("bad magic; not a classifier snapshot")
    off = len(MAGIC) + _HEADER.size
    try:
        version, e, n_classes, dim, seed, act_code, gamma, tasks_seen, reg_count = (
            _HEADER.unpack_from(blob, len(MAGIC))
        )
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        if reg_count != n_classes:
            raise SnapshotFormatError(f"{reg_count} registry entries for {n_classes} classes")
        entries = struct.unpack_from(f"<{2 * reg_count}I", blob, off)
    except struct.error as exc:
        raise SnapshotFormatError(f"truncated header: {exc}") from None
    off += 8 * reg_count
    if act_code not in _ACTIVATION_NAME:
        raise SnapshotFormatError(f"unknown activation code {act_code}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise SnapshotFormatError(f"ridge parameter must be finite and > 0, got {gamma}")
    ids, cols = entries[0::2], entries[1::2]
    if sorted(cols) != list(range(n_classes)) or len(set(ids)) != n_classes:
        raise SnapshotFormatError(
            f"registry must map {n_classes} distinct class ids onto columns 0..{n_classes - 1}"
        )
    need = 8 * (e * n_classes + e * e)
    if len(blob) - off != need:
        raise SnapshotFormatError(
            f"payload size mismatch: expected {need} matrix bytes, got {len(blob) - off}"
        )
    weights = np.frombuffer(blob, dtype="<f8", count=e * n_classes, offset=off).reshape(e, n_classes).copy()
    off += 8 * e * n_classes
    afam = np.frombuffer(blob, dtype="<f8", count=e * e, offset=off).reshape(e, e).copy()
    for name, block in (("weights", weights), ("autocorrelation matrix", afam)):
        if not np.isfinite(block).all():
            raise SnapshotFormatError(f"{name} block holds a non-finite number")
    class_ids = tuple(cid for _, cid in sorted(zip(cols, ids)))
    clf = AnalyticClassifier(weights=weights, afam=afam, gamma=gamma, class_ids=class_ids, tasks_seen=tasks_seen)
    return clf, SnapshotMeta(dim=dim, seed=seed, activation=_ACTIVATION_NAME[act_code])


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
