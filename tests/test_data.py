import json

import numpy as np
import pytest

from akws import (
    LabeledDataset,
    SynthSpec,
    gen_synth_split,
    load_features,
    load_manifest,
    rectifier_scramble,
    save_features,
    write_manifest,
)
from akws.cli import main
from akws.data import _feature_lines, _parse_c, read_text
from akws.errors import ConfigError, DataError, ParseError

from oracles import nearest_centroid_fit, nearest_centroid_predict, parse_outcome, per_line_features


class TestGenSynth:
    def test_deterministic(self):
        spec = SynthSpec(3, 10, 4, 5.0, 0.5, seed=7)
        a = gen_synth_split(spec, 1)[0]
        b = gen_synth_split(spec, 1)[0]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_noise_samples_equal_class_mean(self):
        spec = SynthSpec(3, 5, 4, 5.0, 0.0, seed=1)
        ds = gen_synth_split(spec, 1)[0]
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])
            assert np.isclose(np.linalg.norm(rows[0]), 5.0)

    def test_nearest_centroid_separates_holdout(self):
        spec = SynthSpec(2, 50, 8, 10.0, 0.1, seed=1)
        train, test = gen_synth_split(spec, 25)
        classes, centroids = nearest_centroid_fit(train.features, train.labels)
        pred = nearest_centroid_predict(classes, centroids, test.features)
        assert np.mean(pred == test.labels) >= 0.99

    def test_more_classes_than_dims_keeps_anchor_norms(self):
        spec = SynthSpec(7, 3, 2, 4.0, 0.0, seed=3)
        ds = gen_synth_split(spec, 1)[0]
        means = np.stack([ds.features[ds.labels == c][0] for c in range(7)])
        assert np.allclose(np.linalg.norm(means, axis=1), 4.0)
        # anchors must be pairwise distinct
        gaps = [np.linalg.norm(means[i] - means[j]) for i in range(7) for j in range(i + 1, 7)]
        assert min(gaps) > 1e-6

    def test_split_reuses_train_stream(self):
        spec = SynthSpec(3, 8, 4, 5.0, 1.0, seed=9)
        train, test = gen_synth_split(spec, 4)
        assert np.array_equal(train.features, gen_synth_split(spec, 1)[0].features)
        assert test.n == 12

    def test_spec_validation(self):
        cases = [
            ((1, 10, 4, 5.0, 0.5, 0), "classes: need at least 2 classes"),
            ((3, 10, 4, 0.0, 0.5, 0), "separation: must be > 0"),
            ((3, 10, 4, 5.0, -0.1, 0), "noise_sigma: must be >= 0"),
            ((3, 10, 4, float("nan"), 0.5, 0), "separation: must be finite, got nan"),
            ((3, 10, 4, 5.0, float("inf"), 0), "noise_sigma: must be finite, got inf"),
            ((3, 10, 4, 5.0, 0.5, -1), "seed: must be >= 0"),
        ]
        for args, message in cases:
            with pytest.raises(ConfigError) as exc:
                SynthSpec(*args)
            assert str(exc.value) == message
            assert exc.value.field == message.split(":")[0]

    def test_split_needs_test_rows(self):
        with pytest.raises(DataError, match="test_per_class must be >= 1"):
            gen_synth_split(SynthSpec(3, 8, 4, 5.0, 1.0, seed=9), 0)


class TestRectifierScramble:
    def test_deterministic_and_nonnegative(self):
        ds = gen_synth_split(SynthSpec(3, 10, 4, 5.0, 1.0, seed=2), 1)[0]
        a = rectifier_scramble(ds, 6, seed=11)
        b = rectifier_scramble(ds, 6, seed=11)
        assert np.array_equal(a.features, b.features)
        assert a.features.shape == (30, 6)
        assert np.all(a.features >= 0.0)
        assert np.array_equal(a.labels, ds.labels)

    def test_same_map_for_train_and_test(self):
        train, test = gen_synth_split(SynthSpec(3, 10, 4, 5.0, 1.0, seed=2), 5)
        both = LabeledDataset(
            np.vstack([train.features, test.features]),
            np.concatenate([train.labels, test.labels]),
        )
        joint = rectifier_scramble(both, 6, seed=11)
        apart = rectifier_scramble(train, 6, seed=11)
        assert np.array_equal(joint.features[: train.n], apart.features)


class TestLabeledDataset:
    def test_integral_float_labels_load(self):
        ds = LabeledDataset(np.zeros((3, 2)), [0.0, 1.0, 2.0])
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.5, 1.7, 2.0], "label 0.5 is not an integer"),
            ([1.0, np.nan], "label nan is not an integer"),
            # a cast would wrap 2**63 + 10 to -9223372036854775798
            (np.array([1, 2**63 + 10], dtype=np.uint64), f"label {2**63 + 10} is outside int64"),
            ([1.0, 1e30], "label 1e+30 is outside int64"),
        ],
        ids=["fraction", "nan", "uint64", "1e30"],
    )
    def test_label_that_is_not_an_int64_integer_is_a_data_error(self, labels, message):
        with pytest.raises(DataError) as exc:
            LabeledDataset(np.zeros((len(labels), 2)), labels)
        assert str(exc.value) == message


def c_reader(path):
    where = f"feature file {path}"
    return _parse_c(*_feature_lines(where, read_text(path, where)))


# Cells whose parse numpy's C reader and float() might disagree on.
ODD_CELLS = ["1_0", "\u0663", "1\x00", "", "nan", "-inf", "1e999", "1e-400", "-0", " 1 ", "\t1\x0b", "\xa01",
             "1\x1c", "\x1f1", "1\r2", "+.5", "1.", "0x1", "2,3", "1.0", "4294967296", "4294967295", str(2**64)]


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        ds = gen_synth_split(SynthSpec(3, 7, 5, 5.0, 1.0, seed=4), 1)[0]
        path = tmp_path / "feats.csv"
        save_features(ds, path)
        back = load_features(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_hand_fixture(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("label,f0,f1\n0,1.5,-2.0\n1,0.25,3.0\n0,-1.0,0.0\n")
        ds = load_features(path)
        assert np.array_equal(ds.features, np.array([[1.5, -2.0], [0.25, 3.0], [-1.0, 0.0]]))
        assert ds.labels.tolist() == [0, 1, 0]

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError) as exc:
            load_features(path)
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: feature file {path}: expected 3 columns, got 2"

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n0,1.0\n1,nan\n0,inf\n")
        with pytest.raises(ParseError) as exc:
            load_features(path)
        assert exc.value.line == 3

    def test_bad_label_and_header(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("label,f0\nx,1.0\n")
        with pytest.raises(ParseError) as exc:
            load_features(path)
        assert exc.value.line == 2
        path2 = tmp_path / "hdr.csv"
        path2.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError) as exc2:
            load_features(path2)
        assert exc2.value.line == 1

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("label,f0\n-1,1.0\n")
        with pytest.raises(ParseError):
            load_features(path)

    @pytest.mark.parametrize("label", [2**32, 10**30])
    def test_label_must_fit_u32(self, tmp_path, label):
        # the snapshot stores class ids as u32; 10**30 is beyond int64 too
        path = tmp_path / "big.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},1.0\n")
        with pytest.raises(ParseError, match=f"class id {label} does not fit in 32 unsigned bits") as exc:
            load_features(path)
        assert exc.value.line == 3


    def test_c_reader_parses_as_the_per_line_parser(self, tmp_path, capsys):
        # load_features takes numpy's C reader only where it gives what the
        # per-line parser gives: on every file akws gen writes, and on odd
        # cells in the label and feature columns, with either line ending
        assert main(["gen", "--out", str(tmp_path / "data")]) == 0
        generated = [t[k] for t in load_manifest(capsys.readouterr().out.strip()) for k in ("train", "test")]
        assert len(generated) == 12  # a base task and five steps
        for path in generated:
            assert c_reader(path) is not None, f"{path}: the C reader refused a generated file"
            assert parse_outcome(load_features, path) == parse_outcome(per_line_features, path), path
        odd = tmp_path / "odd.csv"
        for label in ["7", *ODD_CELLS]:
            for cell in ODD_CELLS:
                for ending in ["\n", "\r\n"]:
                    with open(odd, "w", encoding="utf-8", newline="") as fh:
                        fh.write(ending.join(["label,f0,f1", f"{label},{cell},2", "8,3,4", ""]))
                    got = parse_outcome(load_features, odd)
                    assert got == parse_outcome(per_line_features, odd), (label, cell, ending)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            {"id": 0, "classes": [0, 1], "train": "t0.csv", "test": "e0.csv"},
            {"id": 1, "classes": [2], "train": "t1.csv", "test": "e1.csv"},
        ]
        path = tmp_path / "manifest.json"
        write_manifest(path, entries)
        tasks = load_manifest(path)
        assert [t["id"] for t in tasks] == [0, 1]
        assert tasks[0]["classes"] == [0, 1]
        assert tasks[1]["train"].endswith("t1.csv")

    def test_mfcc_block_is_ignored(self, tmp_path):
        # manifests written before the block was dropped still load
        entry = {"id": 0, "classes": [0], "train": "t0.csv", "test": "e0.csv"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"mfcc": {"dim": 40, "hop": 160}, "tasks": [entry]}))
        assert [t["classes"] for t in load_manifest(path)] == [[0]]

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"tasks": [{"id": 0, "classes": [0]}]}')
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "task",
        [
            {"id": "x"},
            {"id": True},
            {"classes": ["1"]},
            {"classes": [1.5]},
            {"classes": 3},
            {"train": 7},
        ],
    )
    def test_non_integer_id_or_class_rejected(self, tmp_path, task):
        path = tmp_path / "manifest.json"
        good = {"id": 0, "classes": [0], "train": "t0.csv", "test": "e0.csv"}
        write_manifest(path, [good, {**good, **task}])
        with pytest.raises(ParseError, match="task 1 "):
            load_manifest(path)

    @pytest.mark.parametrize("cid", [2**32, -1])
    def test_class_id_must_fit_u32(self, tmp_path, cid):
        path = tmp_path / "manifest.json"
        good = {"id": 0, "classes": [0], "train": "t0.csv", "test": "e0.csv"}
        write_manifest(path, [good, {**good, "id": 1, "classes": [1, cid]}])
        with pytest.raises(ParseError, match=f"task 1 class id {cid} does not fit"):
            load_manifest(path)

    @pytest.mark.parametrize("text", ['{"tasks": {"id": 0}}', '{"tasks": [5]}'])
    def test_tasks_must_be_a_list_of_objects(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_manifest(path)
