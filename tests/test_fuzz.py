"""Fuzz tests of the input readers: every input loads or raises an AkwsError.

Each reader gets raw bytes and near-valid text built from the tokens its
format uses, plus values just outside what it accepts.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akws import LabelMatrix, dump_snapshot, load_features, load_manifest, load_snapshot, read_grid_csv, recalibrate
from akws.errors import AkwsError, SnapshotFormatError
from akws.snapshot import SnapshotMeta

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def loads_or_typed_error(reader, arg):
    try:
        reader(arg)
    except AkwsError:
        pass


def check_file(reader, path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    loads_or_typed_error(reader, path)


@FUZZ
@pytest.mark.parametrize("reader", [load_features, read_grid_csv, load_manifest, load_snapshot])
@given(data=st.binary(max_size=200))
def test_raw_bytes_load_or_raise_typed_error(scratch, reader, data):
    if reader is load_snapshot:
        loads_or_typed_error(reader, data)
    else:
        check_file(reader, scratch, data)


# cells that break a CSV reader's rules: junk, blanks, non-finite and
# out-of-range numbers, integers beyond int64, non-ASCII digits, stray
# whitespace and negative counts
ODD_CELLS = st.sampled_from(
    ["x", "", " ", "1e999", "nan", "-inf", "1_0", "0x1", "1.5\r", "é", "١", "-1", "4294967296", "9" * 30,
     "-" + "9" * 30]
)
# class ids and test sizes: small, negative, at the edge of u32, beyond int64
COUNTS = st.sampled_from([0, 1, 2, 5, -1, 2**32 - 1, 2**32, 2**63, 10**30])


@st.composite
def near_valid_csv(draw, valid_rows):
    """Well-formed rows with a few cells replaced, a cell added or removed, under one line ending."""
    rows = draw(valid_rows)
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    edit = draw(st.sampled_from(["none", "none", "add", "drop"]))
    if edit == "add":
        row.append(draw(ODD_CELLS))
    elif edit == "drop" and len(row) > 1:
        row.pop()
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(",".join(r) for r in rows)


@st.composite
def feature_rows(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    rows = [["label", *(f"f{i}" for i in range(d))]]
    return rows + [[str(draw(COUNTS)), *(repr(draw(st.floats(-9, 9))) for _ in range(d))] for _ in range(n)]


@FUZZ
@given(data=near_valid_csv(feature_rows()))
def test_load_features_loads_or_raises_typed_error(scratch, data):
    check_file(load_features, scratch, data)


@st.composite
def grid_rows(draw):
    n = draw(st.integers(1, 3))
    rows = [["# test_sizes", *(str(draw(COUNTS)) for _ in range(n))], ["step", *(f"task_{j}" for j in range(n))]]
    return rows + [[str(t), *(repr(draw(st.floats(0, 1))) if j <= t else "" for j in range(n))] for t in range(n)]


@FUZZ
@given(data=near_valid_csv(grid_rows()))
def test_read_grid_csv_loads_or_raises_typed_error(scratch, data):
    check_file(read_grid_csv, scratch, data)


JSON_LEAVES = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
TASK_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "id": st.integers(-3, 3) | JSON_VALUES,
        "classes": st.lists(st.integers(-1, 2**33), max_size=3) | JSON_VALUES,
        "train": st.sampled_from(["a.csv", "", "\x00"]) | JSON_VALUES,
        "test": st.sampled_from(["b.csv", "/abs/b.csv"]) | JSON_VALUES,
    },
)
MANIFESTS = st.fixed_dictionaries({"tasks": st.lists(TASK_ENTRIES | JSON_VALUES, max_size=3)}) | JSON_VALUES


@FUZZ
@given(data=MANIFESTS.map(json.dumps) | st.sampled_from(["[" * 5000, "1" * 5000]))
def test_load_manifest_loads_or_raises_typed_error(scratch, data):
    check_file(load_manifest, scratch, data)


def valid_snapshot():
    clf = recalibrate([(np.eye(3), LabelMatrix(np.eye(3), (3, 9, 4)))], 1.0)
    return dump_snapshot(clf, SnapshotMeta(dim=2, seed=42, activation="relu"))


VALID_SNAPSHOT = valid_snapshot()
U32 = st.integers(0, 4) | st.integers(0, 2**32 - 1)


@st.composite
def mutated_snapshots(draw):
    """A valid snapshot with bytes overwritten, cut off or appended."""
    blob = bytearray(VALID_SNAPSHOT)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    blob = blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob
    return bytes(blob) + draw(st.binary(max_size=16))


@st.composite
def crafted_snapshots(draw):
    """A well-formed header with arbitrary fields and registry; the payload is often of the declared size."""
    e, c = draw(U32), draw(U32)
    count = c if draw(st.booleans()) else draw(U32)
    gamma = draw(st.floats() | st.just(1.0))
    header = struct.pack(
        "<IIIIQBdII", draw(st.integers(0, 2)), e, c, draw(U32), draw(st.integers(0, 2**64 - 1)),
        draw(st.integers(0, 3)), gamma, draw(U32), count,
    )
    entries = b"".join(struct.pack("<II", draw(U32), draw(U32)) for _ in range(min(count, 4)))
    size = 8 * (e * c + e * e)
    payload = bytes(size) if size <= 512 and draw(st.booleans()) else draw(st.binary(max_size=200))
    return b"AKWS" + header + entries + payload


@FUZZ
@given(blob=mutated_snapshots() | crafted_snapshots())
def test_load_snapshot_loads_or_raises_typed_error(blob):
    loads_or_typed_error(load_snapshot, blob)


# NaN (quiet, signalling, negative, with a payload) and both infinities, as little-endian f64
NON_FINITE = st.sampled_from(
    [struct.pack("<d", v) for v in (float("nan"), float("inf"), -float("inf"))]
    + [struct.pack("<Q", bits) for bits in (0x7FF0000000000001, 0xFFF8000000000000, 0x7FF8DEADBEEF0000)]
)


@st.composite
def poisoned_snapshots(draw):
    """A valid snapshot with one or more weight or state entries made non-finite."""
    blob = bytearray(VALID_SNAPSHOT)
    payload = len(blob) - 8 * (3 * 3 + 3 * 3)
    for entry in draw(st.sets(st.integers(0, 17), min_size=1, max_size=3)):
        blob[payload + 8 * entry : payload + 8 * entry + 8] = draw(NON_FINITE)
    return bytes(blob)


@FUZZ
@given(blob=poisoned_snapshots())
def test_non_finite_snapshot_entry_rejected(blob):
    with pytest.raises(SnapshotFormatError, match="block holds a non-finite number"):
        load_snapshot(blob)
