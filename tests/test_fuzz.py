"""Fuzz tests of the input readers: every input loads or raises an AkwsError.

Each reader gets raw bytes and near-valid text built from the tokens its
format uses, plus values just outside what it accepts. ``load_features``
is also checked against its own per-line parser: the two must give the
same bytes or the same error.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akws import LabelMatrix, dump_snapshot, load_features, load_manifest, load_snapshot, read_grid_csv, recalibrate
from akws.data import _feature_lines, _parse_c, read_text
from akws.errors import AkwsError, SnapshotFormatError
from akws.snapshot import SnapshotMeta

from oracles import parse_outcome, per_line_features

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
def near_valid_csv(draw, valid_rows, cells=ODD_CELLS):
    """Well-formed rows with a few cells replaced, a cell added or removed, under one line ending."""
    rows = draw(valid_rows)
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(cells)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    edit = draw(st.sampled_from(["none", "none", "add", "drop"]))
    if edit == "add":
        row.append(draw(cells))
    elif edit == "drop" and len(row) > 1:
        row.pop()
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(",".join(r) for r in rows)


@st.composite
def feature_rows(draw, labels=COUNTS):
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    rows = [["label", *(f"f{i}" for i in range(d))]]
    return rows + [[str(draw(labels)), *(repr(draw(st.floats(-9, 9))) for _ in range(d))] for _ in range(n)]


@FUZZ
@given(data=near_valid_csv(feature_rows()))
def test_load_features_loads_or_raises_typed_error(scratch, data):
    check_file(load_features, scratch, data)


def assert_parsers_agree(path, data):
    path.write_bytes(data.encode("utf-8"))
    assert parse_outcome(load_features, path) == parse_outcome(per_line_features, path)


# texts where numpy's C reader and float() or int() part ways or nearly do:
# what float() alone takes (underscores, non-ASCII digits), what the C reader
# alone strips (the ASCII separators 0x1c-0x1f), NUL, carriage returns inside
# a line, whitespace both strip, non-finite values, and labels beyond u32
# and int64
C_READER_CELLS = st.sampled_from(
    ["1_0", "١", "٣.5", "\x00", "1\x00", "\x1c1", "1\x1d", "\x1e", "1\x1f", "1\r2", "\r1", " 1 ", "\t1\x0b",
     "\xa01", "nan", "inf", "-inf", "1e999", "1e-400", "-0", "+.5", "1.", "1.0", "4294967296", "4294967295", "0x1", ""]
)
# mostly valid labels, so that a file is often valid but for its crafted cells
LABELS = st.sampled_from([*map(str, range(16)), "1_0", "٣", " 2", "1.0", str(2**32), str(2**64), "\x1c1"])


@st.composite
def csv_with_blank_line(draw, text):
    """``text`` with an empty line put in at a drawn place, or unchanged."""
    lines = draw(text).split("\n")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(data=csv_with_blank_line(near_valid_csv(feature_rows(LABELS), C_READER_CELLS)))
def test_load_features_equals_per_line_parser(scratch, data):
    assert_parsers_agree(scratch, data)


@pytest.mark.parametrize(
    "body",
    [
        "7,1_0,2",  # underscore
        "7,١,2",  # non-ASCII digit
        "7,1\x00,2",  # NUL byte
        "7,1,2\n\n8,3,4",  # blank line
        "7,nan,2",
        "7,1,2,3",  # extra column
        "7,1",  # missing column
        "1.0,1,2",  # label with a fractional part
        f"{2**32},1,2",  # label beyond u32
        f"{2**64},1,2",  # label beyond int64
        "7,1\x1c,2",  # a separator the C reader strips
        "7,1,2\r\n8,3,4\r",  # CRLF line endings
        "7,1,2\r8,3,4",  # carriage return inside a line
        "0,1,2\n4294967295,-0,1e-400",  # accepted by both
    ],
)
def test_crafted_cells_equal_per_line_parser(scratch, body):
    assert_parsers_agree(scratch, "label,f0,f1\n" + body + "\n")


def test_canonical_file_takes_the_c_reader(scratch):
    scratch.write_text("label,f0,f1\n3,1.5,-2.0\n0,0.25,3.0\n", encoding="utf-8")
    where = f"feature file {scratch}"
    ds = _parse_c(*_feature_lines(where, read_text(scratch, where)))
    assert ds is not None and parse_outcome(lambda _: ds, scratch) == parse_outcome(per_line_features, scratch)


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


def valid_snapshots():
    """Snapshots of E=3, without and with an extractor layer."""
    clf = recalibrate([(np.eye(3), LabelMatrix(np.eye(3), (3, 9, 4)))], 1.0)
    meta = SnapshotMeta(dim=2, seed=42, activation="relu")
    layer = SnapshotMeta(2, 42, "relu", np.arange(8.0).reshape(4, 2), np.ones(2))
    return dump_snapshot(clf, meta), dump_snapshot(clf, layer)


VALID_SNAPSHOT, VALID_WITH_EXTRACTOR = valid_snapshots()
U32 = st.integers(0, 4) | st.integers(0, 2**32 - 1)


def sealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@st.composite
def mutated_snapshots(draw):
    """A valid snapshot with bytes overwritten, cut off or appended."""
    blob = bytearray(draw(st.sampled_from([VALID_SNAPSHOT, VALID_WITH_EXTRACTOR])))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    blob = blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob
    blob = bytes(blob) + draw(st.binary(max_size=16))
    # resealed, the mutation reaches the checks behind the CRC
    return sealed(blob[:-4]) if draw(st.booleans()) else blob


@st.composite
def crafted_snapshots(draw):
    """A well-formed header with arbitrary fields and registry; the payload is often of the declared size.

    Blobs often end in their valid CRC.
    """
    version = draw(st.integers(0, 4))
    e, c = draw(U32), draw(U32)
    count = c if draw(st.booleans()) else draw(U32)
    gamma = draw(st.floats() | st.just(1.0))
    dim, x_in = draw(U32), draw(U32)
    x_hidden = dim if draw(st.booleans()) else draw(U32)
    fields = [version, e, c, dim, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 3)), gamma, draw(U32)]
    header = struct.pack("<IIIIQBdIIII", *fields, x_in, x_hidden, count)
    size = 8 * (e * c + e * (e + 1) // 2 + x_in * x_hidden + x_hidden)
    entries = b"".join(struct.pack("<II", draw(U32), draw(U32)) for _ in range(min(count, 4)))
    payload = bytes(size) if size <= 512 and draw(st.booleans()) else draw(st.binary(max_size=200))
    blob = b"AKWS" + header + entries + payload
    return sealed(blob) if draw(st.booleans()) else blob


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
    """A valid snapshot with one or more weight, state or extractor entries made non-finite, resealed."""
    blob = bytearray(VALID_WITH_EXTRACTOR[:-4])
    payload = len(blob) - 8 * (3 * 3 + 6 + 4 * 2 + 2)
    for entry in draw(st.sets(st.integers(0, 24), min_size=1, max_size=3)):
        blob[payload + 8 * entry : payload + 8 * entry + 8] = draw(NON_FINITE)
    return sealed(bytes(blob))


@FUZZ
@given(blob=poisoned_snapshots())
def test_non_finite_snapshot_entry_rejected(blob):
    with pytest.raises(SnapshotFormatError, match="block holds a non-finite number"):
        load_snapshot(blob)
