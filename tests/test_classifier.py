import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from akws import (
    LabelMatrix,
    joint_solve,
    predict,
    recalibrate,
    relative_frobenius,
    update,
)
from akws import classifier
from akws.classifier import _materialize_inverse, _mirror_upper, _spd_factor
from akws.errors import (
    ClassCollisionError,
    DataError,
    InvalidRegularizerError,
    ShapeError,
)

from oracles import ridge_normal_equations


def random_batch(rng, n, e, class_ids):
    s = rng.standard_normal((n, e))
    labs = rng.choice(list(class_ids), size=n)
    return s, LabelMatrix.from_labels(labs, class_ids=class_ids)


class TestLabelMatrix:
    def test_from_labels_one_hot(self):
        y = LabelMatrix.from_labels([3, 5, 3], class_ids=[3, 5])
        assert y.onehot.tolist() == [[1, 0], [0, 1], [1, 0]]
        assert y.class_ids == (3, 5)

    def test_rows_must_be_one_hot(self):
        with pytest.raises(DataError):
            LabelMatrix(np.array([[1.0, 1.0]]), (0, 1))
        with pytest.raises(DataError):
            LabelMatrix(np.array([[0.0, 0.0]]), (0, 1))

    def test_zero_columns_allowed(self):
        # a class may be declared without samples (registration only)
        y = LabelMatrix.from_labels([0, 0], class_ids=[0, 1])
        assert y.onehot[:, 1].tolist() == [0.0, 0.0]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ClassCollisionError):
            LabelMatrix(np.eye(2), (4, 4))

    @staticmethod
    def loop_onehot(labels, class_ids):
        col = {c: j for j, c in enumerate(class_ids)}
        y = np.zeros((len(labels), len(class_ids)))
        for i, lab in enumerate(labels):
            y[i, col[lab]] = 1.0
        return y

    @pytest.mark.parametrize(
        "labels, class_ids",
        [
            ([9, 2, 5, 2, 9, 9], [9, 2, 5]),  # unsorted ids
            ([4, 4, 1], [7, 4, 0, 1, 3]),  # declared classes without rows
            ([], [3, 1]),  # no rows
            ([], []),
            (list(np.random.default_rng(0).integers(0, 50, 1000)), list(range(49, -1, -1))),
        ],
    )
    def test_from_labels_matches_loop_reference(self, labels, class_ids):
        y = LabelMatrix.from_labels(labels, class_ids=class_ids)
        assert y.class_ids == tuple(class_ids)
        assert np.array_equal(y.onehot, self.loop_onehot(labels, class_ids))

    def test_from_labels_default_ids_are_sorted_unique(self):
        y = LabelMatrix.from_labels([8, 3, 8, 5])
        assert y.class_ids == (3, 5, 8)
        assert np.array_equal(y.onehot, self.loop_onehot([8, 3, 8, 5], [3, 5, 8]))

    @pytest.mark.parametrize(
        "labels, class_ids, bad",
        [([1, 5, 2, 6], [1, 2], 5), ([0, 2, 7, 1], [2, 1, 0], 7), ([3], [9], 3), ([4, 4], [], 4)],
    )
    def test_undeclared_label_rejected(self, labels, class_ids, bad):
        # the error names the first undeclared label in row order
        with pytest.raises(DataError, match=f"label {bad} not among declared class ids"):
            LabelMatrix.from_labels(labels, class_ids=class_ids)


class TestRecalibrate:
    def test_identity_example(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 1.0)
        assert np.allclose(clf.weights, 0.5 * np.eye(2), atol=1e-15)
        assert np.allclose(clf.afam.matrix, 0.5 * np.eye(2), atol=1e-15)
        assert clf.tasks_seen == 1
        assert clf.class_registry == {0: 0, 1: 1}

    def test_vanishing_ridge_recovers_least_squares(self):
        s = np.diag([2.0, 1.0])
        clf = recalibrate(s, LabelMatrix(np.eye(2), (0, 1)), 1e-12)
        assert np.allclose(clf.weights, np.diag([0.5, 1.0]), atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((20, 8))
        labs = rng.integers(0, 3, 20)
        y = LabelMatrix.from_labels(labs, class_ids=range(3))
        clf = recalibrate(s, y, 0.1)
        expected = ridge_normal_equations(s, y.onehot, 0.1)
        assert relative_frobenius(clf.weights, expected) < 1e-10

    def test_invalid_gamma(self):
        with pytest.raises(InvalidRegularizerError):
            recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 0.0)
        with pytest.raises(InvalidRegularizerError):
            recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), -1.0)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            recalibrate(np.zeros((3, 2)), LabelMatrix(np.eye(2), (0, 1)), 1.0)

    def test_needs_samples(self):
        with pytest.raises(ShapeError):
            recalibrate(np.zeros((0, 2)), LabelMatrix(np.zeros((0, 2)), (0, 1)), 1.0)


class TestUpdate:
    def test_empty_batch_no_new_classes_is_noop(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 1.0)
        out = update(clf, np.zeros((0, 2)), LabelMatrix(np.zeros((0, 0)), ()))
        assert out is clf

    def test_empty_batch_with_new_classes_registers_zero_columns(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 1.0)
        out = update(clf, np.zeros((0, 2)), LabelMatrix(np.zeros((0, 2)), (7, 8)))
        assert out.class_registry == {0: 0, 1: 1, 7: 2, 8: 3}
        assert np.all(out.weights[:, 2:] == 0.0)
        assert np.array_equal(out.afam.matrix, clf.afam.matrix)

    def test_two_tasks_match_joint(self):
        rng = np.random.default_rng(3)
        b0 = random_batch(rng, 20, 8, range(3))
        b1 = random_batch(rng, 15, 8, range(3, 5))
        clf = update(recalibrate(*b0, 0.1), *b1)
        joint = joint_solve([b0, b1], 0.1)
        assert relative_frobenius(clf.weights, joint.weights) < 1e-9
        assert clf.class_registry == joint.class_registry

    def test_streamed_halves_match_one_shot(self):
        # second half's classes pre-registered via zero label columns
        rng = np.random.default_rng(8)
        s = rng.standard_normal((30, 8))
        labs = np.concatenate([rng.integers(0, 2, 15), rng.integers(2, 4, 15)])
        full = recalibrate(s, LabelMatrix.from_labels(labs, class_ids=range(4)), 0.1)
        first = recalibrate(s[:15], LabelMatrix.from_labels(labs[:15], class_ids=range(4)), 0.1)
        second = update(
            first,
            s[15:],
            LabelMatrix.from_labels(labs[15:], class_ids=range(4)),
            allow_registered=True,
        )
        assert relative_frobenius(second.weights, full.weights) < 1e-9
        assert second.class_registry == full.class_registry

    def test_registered_class_collision(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 1.0)
        with pytest.raises(ClassCollisionError):
            update(clf, np.eye(2), LabelMatrix(np.eye(2), (1, 2)))

    def test_width_mismatch(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (0, 1)), 1.0)
        with pytest.raises(ShapeError):
            update(clf, np.zeros((1, 3)), LabelMatrix(np.array([[1.0]]), (2,)))

    def test_all_zero_feature_batch_is_legal(self):
        rng = np.random.default_rng(5)
        b0 = random_batch(rng, 10, 4, range(2))
        clf = recalibrate(*b0, 0.5)
        zero_s = np.zeros((6, 4))
        y = LabelMatrix.from_labels([2] * 6, class_ids=[2])
        out = update(clf, zero_s, y)
        joint = joint_solve([b0, (zero_s, y)], 0.5)
        assert relative_frobenius(out.weights, joint.weights) < 1e-9
        assert np.all(out.weights[:, 2] == 0.0)
        # spectrum stays positive definite
        assert np.all(np.linalg.eigvalsh(out.afam.matrix) > 0.0)

    def test_does_not_mutate_input_classifier(self):
        rng = np.random.default_rng(6)
        # E=130 spans several mirror tiles, E=600 three refresh panels
        for e in (5, 130, 600):
            b0 = random_batch(rng, 12, e, range(2))
            clf = recalibrate(*b0, 0.1)
            w_before = clf.weights.copy()
            a_before = clf.afam.matrix.copy()
            update(clf, *random_batch(rng, 9, e, range(2, 4)))
            assert np.array_equal(clf.weights, w_before)
            assert np.array_equal(clf.afam.matrix, a_before)

    def test_afam_exactly_symmetric_after_chain(self):
        rng = np.random.default_rng(9)
        for e in (130, 600):
            out = recalibrate(*random_batch(rng, 40, e, range(2)), 0.1)
            for t in range(1, 6):
                out = update(out, *random_batch(rng, 7, e, range(2 * t, 2 * t + 2)))
            assert np.array_equal(out.afam.matrix, out.afam.matrix.T)

    def test_panelled_refresh_matches_full_form(self):
        # E=600 spans three row panels of the upper-triangle refresh
        rng = np.random.default_rng(13)
        clf = recalibrate(*random_batch(rng, 40, 600, range(2)), 0.1)
        s, y = random_batch(rng, 9, 600, range(2, 4))
        a = clf.afam.matrix
        sa = s @ a
        z = np.linalg.solve(np.linalg.cholesky(np.eye(9) + sa @ s.T), sa)
        full = a - z.T @ z.copy()  # the whole product, both triangles
        out = update(clf, s, y)
        assert relative_frobenius(out.afam.matrix, full) < 1e-14

    def test_kernel_not_positive_definite_is_a_data_error(self):
        rng = np.random.default_rng(11)
        clf = recalibrate(*random_batch(rng, 12, 6, range(2)), 0.1)
        broken = replace(clf, afam=replace(clf.afam, matrix=-np.eye(6)))
        with pytest.raises(DataError, match="Woodbury kernel .* not positive definite"):
            update(broken, *random_batch(rng, 5, 6, range(2, 4)))

    def test_chain_runs_without_scipy(self):
        # with scipy unimportable, a chain of updates still matches the joint solve
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from akws import LabelMatrix, joint_solve, recalibrate, relative_frobenius, update\n"
            "rng = np.random.default_rng(12)\n"
            "def batch(n, ids):\n"
            "    return rng.standard_normal((n, 40)), LabelMatrix.from_labels(rng.choice(ids, n), ids)\n"
            "batches = [batch(30, [0, 1])] + [batch(9, [2 * t, 2 * t + 1]) for t in range(1, 6)]\n"
            "out = recalibrate(*batches[0], 0.1)\n"
            "for s, y in batches[1:]:\n"
            "    out = update(out, s, y)\n"
            "joint = joint_solve(batches, 0.1)\n"
            "assert out.class_registry == joint.class_registry\n"
            "print(relative_frobenius(out.weights, joint.weights))\n"
        )
        got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert got.returncode == 0, got.stderr
        assert float(got.stdout) < 1e-9


class TestKernels:
    @pytest.mark.parametrize("e", [1, 63, 64, 65, 130, 257])
    def test_mirror_upper_bit_identical_to_whole_matrix_form(self, e):
        x = np.random.default_rng(e).standard_normal((e, e))
        assert np.array_equal(_mirror_upper(x.copy()), np.triu(x) + np.triu(x, 1).T)

    def test_materialize_inverse_symmetric_and_accurate(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((150, 130))
        gram = s.T @ s + 0.1 * np.eye(130)
        inv = _materialize_inverse(_spd_factor(gram.copy()))
        assert np.array_equal(inv, inv.T)
        assert relative_frobenius(inv, np.linalg.inv(gram)) < 1e-12

    @pytest.mark.parametrize("fit", ["recalibrate", "joint_solve"])
    def test_gram_not_positive_definite_is_a_data_error(self, fit):
        # rank-one Gram of magnitude 1e16: a ridge of 1e-10 is below its rounding
        s = np.full((2, 3), 1e8)
        y = LabelMatrix.from_labels([0, 1])
        calls = {
            "recalibrate": lambda: recalibrate(s, y, 1e-10),
            "joint_solve": lambda: joint_solve([(s, y)], 1e-10),
        }
        with pytest.raises(DataError, match="Gram matrix is not positive definite"):
            calls[fit]()

    def test_materialize_inverse_rejects_singular_factor(self):
        with pytest.raises(DataError, match="potri info=1"):
            _materialize_inverse(np.zeros((3, 3), order="F"))


class TestJointSolve:
    def test_single_batch_equals_recalibrate(self):
        rng = np.random.default_rng(1)
        b = random_batch(rng, 14, 6, range(3))
        joint = joint_solve([b], 0.2)
        direct = recalibrate(*b, 0.2)
        assert relative_frobenius(joint.weights, direct.weights) < 1e-12
        assert relative_frobenius(joint.afam.matrix, direct.afam.matrix) < 1e-12

    def test_order_permutes_columns_only(self):
        rng = np.random.default_rng(2)
        a = random_batch(rng, 10, 6, range(2))
        b = random_batch(rng, 12, 6, range(2, 5))
        ab = joint_solve([a, b], 0.3)
        ba = joint_solve([b, a], 0.3)
        cols_ab = {cid: ab.weights[:, col] for cid, col in ab.class_registry.items()}
        cols_ba = {cid: ba.weights[:, col] for cid, col in ba.class_registry.items()}
        assert set(cols_ab) == set(cols_ba)
        for cid in cols_ab:
            assert relative_frobenius(cols_ab[cid], cols_ba[cid]) < 1e-9

    def test_three_batches_match_chained_updates(self):
        rng = np.random.default_rng(4)
        batches = [
            random_batch(rng, 18, 7, range(3)),
            random_batch(rng, 11, 7, range(3, 4)),
            random_batch(rng, 16, 7, range(4, 6)),
        ]
        clf = recalibrate(*batches[0], 0.5)
        for b in batches[1:]:
            clf = update(clf, *b)
        joint = joint_solve(batches, 0.5)
        assert relative_frobenius(clf.weights, joint.weights) < 1e-9

    def test_overlapping_batches_rejected(self):
        rng = np.random.default_rng(5)
        a = random_batch(rng, 5, 4, range(2))
        b = random_batch(rng, 5, 4, range(1, 3))
        with pytest.raises(ClassCollisionError):
            joint_solve([a, b], 0.1)


class TestAfamDirect:
    """The state formed directly, (S^T S + gamma I)^-1, as joint_solve returns it."""

    def test_no_batches_is_scaled_identity(self):
        out = joint_solve([(np.zeros((0, 3)), LabelMatrix(np.zeros((0, 0)), ()))], 2.0).afam
        assert np.allclose(out.matrix, 0.5 * np.eye(3), atol=1e-15)

    def test_identity_batch(self):
        out = joint_solve([(np.eye(2), LabelMatrix.from_labels([0, 1]))], 1.0).afam
        assert np.allclose(out.matrix, 0.5 * np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_is_a_data_error(self, bad):
        s = np.ones((4, 3))
        s[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            joint_solve([(s, LabelMatrix.from_labels([0, 1, 0, 1]))], 0.1)

    def test_matches_chained_woodbury(self):
        rng = np.random.default_rng(12)
        s1 = rng.standard_normal((9, 6))
        s2 = rng.standard_normal((14, 6))
        y1 = LabelMatrix.from_labels(rng.integers(0, 2, 9), class_ids=range(2))
        y2 = LabelMatrix.from_labels(rng.integers(2, 4, 14), class_ids=range(2, 4))
        clf = update(recalibrate(s1, y1, 0.7), s2, y2)
        direct = joint_solve([(s1, y1), (s2, y2)], 0.7).afam
        assert relative_frobenius(clf.afam.matrix, direct.matrix) < 1e-10


class TestPredict:
    def test_identity_weights(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (10, 20)), 1.0)
        assert predict(clf, np.array([[1.0, 0.0]]))[0] == 10
        assert predict(clf, np.array([[0.0, 1.0]]))[0] == 20

    def test_tie_goes_to_lowest_column(self):
        clf = recalibrate(np.eye(2), LabelMatrix(np.eye(2), (10, 20)), 1.0)
        assert predict(clf, np.array([[0.5, 0.5]]))[0] == 10

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 20])
    def test_row_blocks_match_one_product(self, monkeypatch, rows):
        rng = np.random.default_rng(5)
        clf = recalibrate(*random_batch(rng, 30, 8, range(3)), 0.5)
        x = rng.standard_normal((rows, 8))
        ids = np.asarray(clf.column_classes())
        want = ids[np.argmax(x @ clf.weights, axis=1)]
        monkeypatch.setattr(classifier, "_SCORE_BLOCK", 3 * 7)  # blocks of 7 rows
        assert np.array_equal(predict(clf, x), want)

    def test_untrained_rejected(self):
        from akws.classifier import Afam, AnalyticClassifier

        empty = AnalyticClassifier(
            weights=np.zeros((3, 0)), afam=Afam(np.eye(3), 1.0), class_registry={}, tasks_seen=0
        )
        with pytest.raises(ShapeError, match="no registered classes"):
            predict(empty, np.zeros((1, 3)))

    def test_separable_clusters_high_accuracy(self):
        from akws import SynthSpec, build_expansion, expand, gen_synth_split

        for seed in range(5):
            spec = SynthSpec(
                n_classes=4,
                samples_per_class=50,
                raw_dim=6,
                cluster_separation=8.0,
                noise_sigma=1.0,
                seed=seed,
            )
            train, test = gen_synth_split(spec, 25)
            m = build_expansion(6, 32, seed)
            clf = recalibrate(
                expand(train.features, m),
                LabelMatrix.from_labels(train.labels),
                0.1,
            )
            pred = predict(clf, expand(test.features, m))
            assert np.mean(pred == test.labels) >= 0.95
