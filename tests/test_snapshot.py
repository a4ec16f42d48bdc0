import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from akws import LabelMatrix, recalibrate, update
from akws.classifier import AnalyticClassifier, NormalEquations
from akws.errors import SnapshotFormatError, StateError
from akws.snapshot import (
    SnapshotMeta,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
)


def tiny_classifier():
    clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (3, 9)))], 1.0)
    return clf, SnapshotMeta(dim=2, seed=42, activation="relu")


def sealed(body: bytes) -> bytes:
    """``body`` followed by its CRC32, as a snapshot ends."""
    return body + struct.pack("<I", zlib.crc32(body))


# 0.5 I of order 2 in RFP: A22, then A11, then A21
HALF_EYE_RFP = np.array([0.5, 0.5, 0.0])


def test_round_trip(tmp_path):
    clf, meta = tiny_classifier()
    clf = update(clf, np.array([[1.0, 2.0]]), LabelMatrix(np.array([[1.0]]), (11,)))
    path = tmp_path / "clf.bin"
    save_snapshot(path, clf, meta)
    back, back_meta = read_snapshot(path)
    assert np.array_equal(back.weights, clf.weights)
    assert np.array_equal(back.afam, clf.afam)
    assert back.gamma == clf.gamma
    assert back.class_ids == clf.class_ids == (3, 9, 11)
    assert back.tasks_seen == clf.tasks_seen
    assert back_meta == meta


def one_class_chain(rng, e, steps):
    """A two-class first fit at width ``e``, then ``steps`` one-class updates."""
    clf = recalibrate([(rng.standard_normal((10, e)), LabelMatrix.from_labels([0, 1] * 5))], 0.1)
    for cid in range(2, 2 + steps):
        clf = update(clf, rng.standard_normal((4, e)), LabelMatrix.from_labels([cid] * 4))
    return clf


def test_weights_in_a_wider_array_are_written_as_their_contiguous_copy():
    clf = one_class_chain(np.random.default_rng(19), 7, 1)  # 3 classes, in an array of 4 columns
    assert clf.weights.base.shape == (7, 4)
    meta = SnapshotMeta(dim=7, seed=42, activation="relu")
    contiguous = replace(clf, weights=np.ascontiguousarray(clf.weights))
    assert dump_snapshot(clf, meta) == dump_snapshot(contiguous, meta)


def test_update_of_a_loaded_snapshot_equals_the_next_update_in_memory():
    # the loaded weights are C-ordered and copied into a new array; the
    # chain's own array has room for the re-presented class, not for the new one
    rng = np.random.default_rng(20)
    clf = one_class_chain(rng, 9, 2)  # 4 classes, in an array of 4 columns
    meta = SnapshotMeta(dim=9, seed=42, activation="relu")
    loaded, _ = load_snapshot(dump_snapshot(clf, meta))
    for labels in ([3, 3, 0, 1, 2], [4, 5, 4, 5, 3]):
        batch = rng.standard_normal((5, 9)), LabelMatrix.from_labels(labels)
        loaded, clf = update(loaded, *batch), update(clf, *batch)
        assert dump_snapshot(loaded, meta) == dump_snapshot(clf, meta)


def test_classifier_without_state_is_not_written(tmp_path):
    # a weights-only solve has no afam to store
    _, meta = tiny_classifier()
    normal = NormalEquations(1.0)
    normal.add([(np.eye(2), LabelMatrix(np.eye(2), (3, 9)))])
    stateless = normal.solve(inverse=False)
    with pytest.raises(StateError, match="without its autocorrelation state"):
        dump_snapshot(stateless, meta)
    path = tmp_path / "clf.bin"
    with pytest.raises(StateError):
        save_snapshot(path, stateless, meta)
    assert not path.exists()


@pytest.mark.parametrize("cid", [-1, 2**32])
def test_class_id_outside_u32_is_not_written(tmp_path, cid):
    from akws.classifier import AnalyticClassifier

    clf = AnalyticClassifier(weights=np.eye(2), afam=HALF_EYE_RFP, gamma=1.0, class_ids=(3, cid), tasks_seen=1)
    meta = SnapshotMeta(dim=2, seed=42, activation="relu")
    path = tmp_path / "clf.bin"
    with pytest.raises(SnapshotFormatError, match=f"^class id {cid} does not fit the snapshot's 32 unsigned bits$"):
        save_snapshot(path, clf, meta)
    assert not path.exists()


@pytest.mark.parametrize(
    "meta, tasks_seen, message",
    [
        (SnapshotMeta(dim=-1, seed=42, activation="relu"), 1, "^dim -1 does not fit the snapshot's 32 unsigned bits$"),
        (SnapshotMeta(dim=2**32, seed=42, activation="relu"), 1, f"^dim {2**32} does not fit"),
        (SnapshotMeta(dim=2, seed=42, activation="relu"), 2**32, f"^tasks_seen {2**32} does not fit"),
        (SnapshotMeta(dim=2, seed=42, activation="tanh"), 1, "^activation 'tanh' has no snapshot code"),
    ],
)
def test_header_field_outside_the_format_is_not_written(tmp_path, meta, tasks_seen, message):
    from akws.classifier import AnalyticClassifier

    clf = AnalyticClassifier(
        weights=np.eye(2), afam=HALF_EYE_RFP, gamma=1.0, class_ids=(3, 9), tasks_seen=tasks_seen
    )
    with pytest.raises(SnapshotFormatError, match=message):
        dump_snapshot(clf, meta)
    path = tmp_path / "clf.bin"
    with pytest.raises(SnapshotFormatError, match=message):
        save_snapshot(path, clf, meta)
    assert not path.exists()


# version 1 of the exact classifier below: A as E x E values, no extractor, no CRC
VERSION_1_BYTES = b"".join(
    [
        b"AKWS",
        struct.pack("<IIII", 1, 2, 2, 2),  # version, E, C, d
        struct.pack("<Q", 42),
        struct.pack("<B", 1),  # relu
        struct.pack("<d", 1.0),
        struct.pack("<I", 1),  # tasks seen
        struct.pack("<I", 2),  # registry entries
        struct.pack("<II", 3, 0),
        struct.pack("<II", 9, 1),
        np.asarray(0.5 * np.eye(2)).astype("<f8").tobytes(),  # weights
        np.asarray(0.5 * np.eye(2)).astype("<f8").tobytes(),  # afam
    ]
)


def exact_classifier():
    # exact matrix values, independent of any solver rounding
    clf = AnalyticClassifier(
        weights=0.5 * np.eye(2), afam=HALF_EYE_RFP.copy(), gamma=1.0, class_ids=(3, 9), tasks_seen=1
    )
    return clf, SnapshotMeta(dim=2, seed=42, activation="relu")


def test_exact_byte_layout():
    blob = dump_snapshot(*exact_classifier())
    expected = sealed(
        b"".join(
            [
                b"AKWS",
                struct.pack("<IIII", 3, 2, 2, 2),  # version, E, C, d
                struct.pack("<Q", 42),
                struct.pack("<B", 1),  # relu
                struct.pack("<d", 1.0),
                struct.pack("<I", 1),  # tasks seen
                struct.pack("<II", 0, 0),  # no extractor
                struct.pack("<I", 2),  # registry entries
                struct.pack("<II", 3, 0),
                struct.pack("<II", 9, 1),
                np.asarray(0.5 * np.eye(2)).astype("<f8").tobytes(),  # weights
                struct.pack("<3d", 0.5, 0.5, 0.0),  # afam in RFP
            ]
        )
    )
    assert blob == expected


def test_versions_1_and_2_are_refused_naming_their_version():
    # their seed was drawn by the generator used before version 3, so it does not rebuild their expansion
    v3 = dump_snapshot(*exact_classifier())
    v2 = sealed(v3[:4] + struct.pack("<I", 2) + v3[8:-4])  # version 3's layout, as version 2 wrote it
    for version, blob in [(1, VERSION_1_BYTES), (2, v2)]:
        with pytest.raises(SnapshotFormatError, match=f"^unsupported snapshot version {version}: its seed names"):
            load_snapshot(blob)


@pytest.mark.parametrize("extractor", [True, False])
def test_round_trip_with_and_without_extractor(extractor):
    clf, _ = tiny_classifier()
    rng = np.random.default_rng(1)
    layer = (rng.standard_normal((5, 2)), rng.standard_normal(2)) if extractor else (None, None)
    meta = SnapshotMeta(2, 42, "relu", *layer)
    blob = dump_snapshot(clf, meta)
    back, back_meta = load_snapshot(blob)
    assert np.array_equal(back.afam, clf.afam)
    assert back_meta == meta
    if extractor:
        assert np.array_equal(back_meta.w1, layer[0])
        assert np.array_equal(back_meta.b1, layer[1])
        assert len(blob) == len(dump_snapshot(clf, SnapshotMeta(2, 42, "relu"))) + 8 * (5 * 2 + 2)
    else:
        assert back_meta.w1 is back_meta.b1 is None


@pytest.mark.parametrize(
    "w1, b1",
    [
        (np.ones((5, 3)), np.ones(3)),  # 3 wide, for an expansion of d=2
        (np.ones((5, 2)), np.ones(3)),
        (np.ones((0, 2)), np.ones(2)),  # no inputs
        (np.ones((5, 2)), None),
    ],
)
def test_extractor_that_does_not_feed_the_expansion_is_not_written(w1, b1):
    clf, _ = tiny_classifier()
    with pytest.raises(SnapshotFormatError, match="extractor layer"):
        dump_snapshot(clf, SnapshotMeta(2, 42, "relu", w1, b1))


def test_flipped_payload_byte_fails_the_crc():
    clf, meta = tiny_classifier()
    blob = dump_snapshot(clf, SnapshotMeta(2, 42, "relu", np.ones((3, 2)), np.zeros(2)))
    payload = len(blob) - 4 - 8 * (2 * 2 + 3 + 3 * 2 + 2)
    for at in range(payload, len(blob)):
        for bit in (0, 7):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            with pytest.raises(SnapshotFormatError, match="^CRC32 mismatch"):
                load_snapshot(bytes(flipped))


def test_extractor_widths_must_feed_the_expansion():
    clf, meta = tiny_classifier()
    blob = bytearray(dump_snapshot(clf, meta))
    widths = 4 + struct.calcsize("<IIIIQBdI")
    for x_in, x_hidden in [(0, 2), (1, 0), (1, 3)]:
        body = blob[:widths] + struct.pack("<II", x_in, x_hidden) + blob[widths + 8 : -4]
        body += bytes(8 * (x_in * x_hidden + x_hidden))
        with pytest.raises(SnapshotFormatError, match="extractor widths"):
            load_snapshot(sealed(bytes(body)))


def test_serialization_deterministic():
    clf, meta = tiny_classifier()
    assert dump_snapshot(clf, meta) == dump_snapshot(clf, meta)


def test_element_count_matches_serialized_payload():
    clf, meta = tiny_classifier()
    clf = update(clf, np.zeros((0, 2)), LabelMatrix(np.zeros((0, 1)), (4,)))
    blob = dump_snapshot(clf, meta)
    e, c = clf.weights.shape
    header = 4 + 16 + 8 + 1 + 8 + 4 + 8 + 4 + 8 * len(clf.class_ids)
    matrix_doubles = (len(blob) - header - 4) // 8  # the CRC32 ends the file
    assert matrix_doubles == e * (e + 1) // 2 + e * c
    assert clf.state_elements() == e * (e + 1) // 2 + e * c + len(clf.class_ids)


def test_bad_magic_rejected():
    clf, meta = tiny_classifier()
    blob = bytearray(dump_snapshot(clf, meta))
    blob[0] = ord("X")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(bytes(blob))


def test_bad_version_rejected():
    clf, meta = tiny_classifier()
    blob = bytearray(dump_snapshot(clf, meta))
    blob[4] = 9
    with pytest.raises(SnapshotFormatError):
        load_snapshot(bytes(blob))


def test_truncated_payload_rejected():
    clf, meta = tiny_classifier()
    blob = dump_snapshot(clf, meta)
    with pytest.raises(SnapshotFormatError):
        load_snapshot(blob[:-8])


def test_identity_activation_code(tmp_path):
    clf, _ = tiny_classifier()
    meta = SnapshotMeta(dim=2, seed=0, activation="identity")
    blob = dump_snapshot(clf, meta)
    _, back_meta = load_snapshot(blob)
    assert back_meta.activation == "identity"


def crafted_blob(registry, gamma=1.0):
    """An E=2, two-class snapshot whose registry holds ``registry``'s (id, column) entries."""
    header = struct.pack("<IIIIQBdIIII", 3, 2, 2, 2, 42, 1, gamma, 1, 0, 0, len(registry))
    entries = b"".join(struct.pack("<II", cid, col) for cid, col in registry.items())
    weights = np.asarray(0.5 * np.eye(2)).astype("<f8").tobytes()
    return sealed(b"AKWS" + header + entries + weights + HALF_EYE_RFP.astype("<f8").tobytes())


def test_registry_entries_load_in_column_order():
    back, _ = load_snapshot(crafted_blob({9: 1, 3: 0}))
    assert back.class_ids == (3, 9)


def test_truncated_header_rejected():
    blob = crafted_blob({3: 0, 9: 1})
    header = len(blob) - 4 - 8 * (2 * 2 + 3)
    for truncated in [b"AKWS\x01\x00", *(blob[:cut] for cut in range(header))]:
        with pytest.raises(SnapshotFormatError):
            load_snapshot(truncated)


def test_registry_count_must_equal_class_count():
    with pytest.raises(SnapshotFormatError, match="registry entries"):
        load_snapshot(crafted_blob({3: 0}))


@pytest.mark.parametrize("registry", [{3: 0, 9: 2}, {3: 1, 9: 1}])
def test_registry_columns_must_be_a_permutation(registry):
    with pytest.raises(SnapshotFormatError, match="registry must map"):
        load_snapshot(crafted_blob(registry))


def test_duplicate_registry_class_id_rejected():
    blob = bytearray(crafted_blob({3: 0, 9: 1})[:-4])
    entry = blob.index(struct.pack("<II", 9, 1))
    blob[entry : entry + 4] = struct.pack("<I", 3)
    with pytest.raises(SnapshotFormatError, match="registry must map"):
        load_snapshot(sealed(bytes(blob)))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
def test_gamma_must_be_finite_and_positive(gamma):
    with pytest.raises(SnapshotFormatError, match="ridge parameter"):
        load_snapshot(crafted_blob({3: 0, 9: 1}, gamma=gamma))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("block, entry", [("weights", 1), ("autocorrelation matrix", 6)], ids=["weights", "state"])
def test_non_finite_matrix_entry_rejected(block, entry, value):
    blob = bytearray(crafted_blob({3: 0, 9: 1})[:-4])
    at = len(blob) - 8 * (2 * 2 + 3) + 8 * entry  # weights are entries 0..3, the state 4..6
    blob[at : at + 8] = struct.pack("<d", value)
    with pytest.raises(SnapshotFormatError, match=f"^{block} block holds a non-finite number$"):
        load_snapshot(sealed(bytes(blob)))


def test_saved_file_equals_dump(tmp_path):
    # E=40: the 12.8 kB state matrix is larger than the file's write buffer
    rng = np.random.default_rng(3)
    clf = recalibrate([(rng.standard_normal((50, 40)), LabelMatrix.from_labels([3, 9] * 25))], 0.1)
    clf = update(clf, rng.standard_normal((5, 40)), LabelMatrix.from_labels([11, 12, 11, 12, 12]))
    meta = SnapshotMeta(dim=8, seed=7, activation="identity")
    path = tmp_path / "clf.bin"
    save_snapshot(path, clf, meta)
    assert path.read_bytes() == dump_snapshot(clf, meta)
