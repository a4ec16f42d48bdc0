import copy
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from akws import (
    LabelMatrix,
    SynthSpec,
    build_expansion,
    expand,
    gen_synth_split,
    joint_solve,
    predict,
    prior,
    recalibrate,
    relative_frobenius,
    update,
)
from akws import classifier, full_afam, lapack
from akws.classifier import NormalEquations, _materialize_inverse, _spd_factor
from akws.errors import DataError, ShapeError, StateError

from oracles import full_storage_update, ridge_augmented_lstsq, ridge_normal_equations


def packed(full):
    """The RFP array of symmetric ``full``."""
    return lapack.trttf(np.asfortranarray(full, dtype=np.float64))


def unpacked(ar):
    """The full symmetric matrix of the RFP array ``ar``."""
    lower = lapack.tfttr(ar)
    return lower + np.tril(lower, -1).T


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
        with pytest.raises(DataError, match="duplicate class ids within one batch"):
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


    @staticmethod
    def fault(bad: str) -> str:
        """What ``_whole`` says of ``bad``: an integral value is refused for its range."""
        return "is outside int64" if bad.lstrip("-").isdigit() else "is not an integer"

    @pytest.mark.parametrize(
        "labels, bad",
        [
            ([1.5, 0.2], "1.5"),
            ([0.0, 2.5], "2.5"),
            ([1.0, np.nan], "nan"),
            ([np.inf], "inf"),
            ([2**70], str(2**70)),
            (np.array([2**63], dtype=np.uint64), str(2**63)),
            (np.array([2**64 - 1, 2**63 - 1], dtype=np.uint64), str(2**64 - 1)),
        ],
    )
    def test_non_integral_label_rejected(self, labels, bad):
        # a cast to int64 would turn [1.5, 0.2] into classes (0, 1), and uint64 2**63 into -2**63
        with pytest.raises(DataError, match=f"^label {bad} {self.fault(bad)}$"):
            LabelMatrix.from_labels(labels)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: LabelMatrix.from_labels([1, 1], class_ids=[1.5]), "1.5"),
            (lambda: LabelMatrix.from_labels([0, 2], class_ids=[0.0, 2.0, np.nan]), "nan"),
            (lambda: LabelMatrix(np.ones((1, 1)), (2.7,)), "2.7"),
            (lambda: LabelMatrix(np.eye(2), (3, np.inf)), "inf"),
            (lambda: LabelMatrix(np.eye(1), (2**70,)), str(2**70)),
        ],
    )
    def test_non_integral_class_id_rejected(self, build, bad):
        # int64 and int() casts would turn 1.5 into class 1 and 2.7 into class 2
        with pytest.raises(DataError, match=f"^class id {bad} {self.fault(bad)}$"):
            build()

    def test_integral_float_class_ids_become_ints(self):
        y = LabelMatrix(np.eye(2), (3.0, np.int32(9)))
        assert y.class_ids == (3, 9) and all(type(c) is int for c in y.class_ids)

    def test_integral_float_labels_accepted(self):
        y = LabelMatrix.from_labels(np.array([3.0, 5.0, 3.0]))
        assert y.class_ids == (3, 5)
        # an unsigned label inside int64 keeps its value
        assert LabelMatrix.from_labels(np.array([2**63 - 1], dtype=np.uint64)).class_ids == (2**63 - 1,)
        assert np.array_equal(y.onehot, self.loop_onehot([3, 5, 3], [3, 5]))


class TestRecalibrate:
    def test_identity_example(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], 1.0)
        assert np.allclose(clf.weights, 0.5 * np.eye(2), atol=1e-15)
        assert np.allclose(full_afam(clf), 0.5 * np.eye(2), atol=1e-15)
        assert clf.gamma == 1.0
        assert clf.tasks_seen == 1
        assert clf.class_ids == (0, 1)

    def test_vanishing_ridge_recovers_least_squares(self):
        s = np.diag([2.0, 1.0])
        clf = recalibrate([(s, LabelMatrix(np.eye(2), (0, 1)))], 1e-12)
        assert np.allclose(clf.weights, np.diag([0.5, 1.0]), atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((20, 8))
        labs = rng.integers(0, 3, 20)
        y = LabelMatrix.from_labels(labs, class_ids=range(3))
        clf = recalibrate([(s, y)], 0.1)
        expected = ridge_normal_equations(s, y.onehot, 0.1)
        assert relative_frobenius(clf.weights, expected) < 1e-10

    def test_invalid_gamma(self):
        with pytest.raises(DataError, match="ridge parameter must be finite and > 0"):
            recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], 0.0)
        with pytest.raises(DataError, match="ridge parameter must be finite and > 0"):
            recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], -1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma(self, gamma):
        y = LabelMatrix(np.eye(2), (0, 1))
        with pytest.raises(DataError, match="must be finite and > 0"):
            recalibrate([(np.eye(2), y)], gamma)
        with pytest.raises(DataError, match="must be finite and > 0"):
            joint_solve([(np.eye(2), y)], gamma)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320])
    def test_gamma_without_a_finite_inverse(self, gamma):
        # the Gram route's pftri would put an infinity in A, and report no error
        with pytest.raises(DataError, match="has no finite inverse"):
            NormalEquations(gamma)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            recalibrate([(np.zeros((3, 2)), LabelMatrix(np.eye(2), (0, 1)))], 1.0)

    def test_needs_samples(self):
        with pytest.raises(ShapeError):
            recalibrate([(np.zeros((0, 2)), LabelMatrix(np.zeros((0, 2)), (0, 1)))], 1.0)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("e", [24, 160], ids=["n>E", "n<E"])
    @pytest.mark.parametrize("gamma", [0.1, 1e-3, 1e-6])
    def test_row_blocks_equal_joint_solve_of_the_whole_batch(self, activation, e, gamma):
        # 1, 2 and 3.5 blocks of 32 rows. G summed by blocks rounds unlike G
        # summed at once, and the solve amplifies that by up to cond(G): the
        # deviation stays below 10 cond(G) eps (at most 1.7 cond(G) eps was
        # measured, at 1 and 2 BLAS threads), and so below the chained tests'
        # 1e-9 wherever G is that well conditioned
        eps = np.finfo(np.float64).eps
        for blocks in (1, 2, 3.5):
            n = int(32 * blocks)
            ds, _ = gen_synth_split(SynthSpec(4, n // 4 + 1, 16, 6.0, 1.0, seed=n), 1)
            s = expand(ds.features[:n], build_expansion(16, e, n, activation))
            y = LabelMatrix.from_labels(ds.labels[:n], class_ids=range(4))
            whole = joint_solve([(s, y)], gamma)
            got = recalibrate(
                ((s[i : i + 32], LabelMatrix(y.onehot[i : i + 32], y.class_ids)) for i in range(0, n, 32)),
                gamma,
            )
            assert got.tasks_seen == 1
            assert got.class_ids == whole.class_ids
            if blocks == 1:
                assert np.array_equal(got.weights, whole.weights)
                assert np.array_equal(got.afam, whole.afam)
                continue
            spectrum = np.linalg.eigvalsh(s.T @ s + gamma * np.eye(e))
            bound = 10 * eps * spectrum[-1] / spectrum[0]
            assert relative_frobenius(got.weights, whole.weights) <= bound
            assert relative_frobenius(full_afam(got), full_afam(whole)) <= bound

    def test_holds_the_gram_matrix_and_one_block(self):
        # four fresh 256-row blocks at E=1024: G is 4.2 MB and a block 2.1 MB.
        # A block still held while the next is made would put the traced
        # peak at G + 2.15 blocks; released, it is G + 1.15 (the rest is the
        # finiteness check's mask and the small arrays)
        e, rows = 1024, 256
        rng = np.random.default_rng(8)

        def blocks():
            for _ in range(4):
                yield random_batch(rng, rows, e, range(3))

        tracemalloc.start()
        try:
            recalibrate(blocks(), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram, block = 8 * e * (e + 1) // 2, 8 * rows * e
        assert peak - gram < 1.5 * block, f"G + {(peak - gram) / block:.2f} blocks"


class TestPrior:
    @pytest.mark.parametrize("e", [1, 2, 5, 128, 129])
    def test_is_the_scaled_identity(self, e):
        clf = prior(e, 0.3)
        assert np.array_equal(full_afam(clf), np.eye(e) / 0.3)
        assert clf.weights.shape == (e, 0)
        assert clf.class_ids == ()
        assert clf.tasks_seen == 0
        assert clf.gamma == 0.3

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, 1e-320])
    def test_rejects_a_ridge_without_a_finite_inverse(self, gamma):
        with pytest.raises(DataError, match="ridge parameter"):
            prior(4, gamma)

    def test_rejects_a_width_below_one(self):
        with pytest.raises(ShapeError, match="expanded width"):
            prior(0, 0.1)

    @pytest.mark.parametrize("gamma", [0.1, 1e-4, 1e-8])
    def test_update_of_prior_matches_the_augmented_qr_reference(self, gamma):
        # 60 ReLU rows at E=256: the kernel-route first fit never forms G,
        # so its error does not grow with cond(G) as joint_solve's does.
        # Measured at 1 and 2 BLAS threads: 3.7e-14, 1.4e-12 and 6.8e-12
        # at the three gammas, against 9.6e-11, 1.0e-7 and 9.4e-4 for joint_solve
        ds, _ = gen_synth_split(SynthSpec(4, 15, 16, 6.0, 1.0, seed=5), 1)
        s = expand(ds.features, build_expansion(16, 256, 5, "relu"))
        y = LabelMatrix.from_labels(ds.labels, class_ids=range(4))
        got = update(prior(256, gamma), s, y)
        assert got.tasks_seen == 1
        assert got.class_ids == (0, 1, 2, 3)
        assert relative_frobenius(got.weights, ridge_augmented_lstsq(s, y.onehot, gamma)) <= 1e-9


class TestUpdate:
    def test_empty_batch_no_new_classes_is_noop(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], 1.0)
        before = copy.deepcopy(clf)  # update advances clf in place
        out = update(clf, np.zeros((0, 2)), LabelMatrix(np.zeros((0, 0)), ()))
        assert np.array_equal(out.weights, before.weights)
        assert np.array_equal(out.afam, before.afam)
        assert out.class_ids == before.class_ids
        assert out.tasks_seen == before.tasks_seen + 1

    def test_chain_with_empty_batches_matches_joint(self):
        # an empty batch with no new classes is one more task, as in joint_solve;
        # odd and even E pack A differently
        rng = np.random.default_rng(4)
        for e in (8, 9):
            empty = (np.zeros((0, e)), LabelMatrix(np.zeros((0, 0)), ()))
            batches = [random_batch(rng, 20, e, range(3)), empty, random_batch(rng, 15, e, range(3, 5)), empty]
            clf = recalibrate([batches[0]], 0.1)
            for b in batches[1:]:
                clf = update(clf, *b)
            joint = joint_solve(batches, 0.1)
            assert relative_frobenius(clf.weights, joint.weights) < 1e-9
            assert relative_frobenius(full_afam(clf), full_afam(joint)) < 1e-9
            assert clf.class_ids == joint.class_ids
            assert clf.tasks_seen == joint.tasks_seen == 4

    def test_empty_batch_with_new_classes_registers_zero_columns(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], 1.0)
        a_before = clf.afam.copy()  # update writes over clf's state
        out = update(clf, np.zeros((0, 2)), LabelMatrix(np.zeros((0, 2)), (7, 8)))
        assert out.class_ids == (0, 1, 7, 8)
        assert np.all(out.weights[:, 2:] == 0.0)
        assert np.array_equal(out.afam, a_before)

    def test_two_tasks_match_joint(self):
        rng = np.random.default_rng(3)
        b0 = random_batch(rng, 20, 8, range(3))
        b1 = random_batch(rng, 15, 8, range(3, 5))
        clf = update(recalibrate([b0], 0.1), *b1)
        joint = joint_solve([b0, b1], 0.1)
        assert relative_frobenius(clf.weights, joint.weights) < 1e-9
        assert clf.class_ids == joint.class_ids

    def test_streamed_halves_match_one_shot(self):
        # second half's classes pre-registered via zero label columns
        rng = np.random.default_rng(8)
        s = rng.standard_normal((30, 8))
        labs = np.concatenate([rng.integers(0, 2, 15), rng.integers(2, 4, 15)])
        full = recalibrate([(s, LabelMatrix.from_labels(labs, class_ids=range(4)))], 0.1)
        first = recalibrate([(s[:15], LabelMatrix.from_labels(labs[:15], class_ids=range(4)))], 0.1)
        second = update(first, s[15:], LabelMatrix.from_labels(labs[15:], class_ids=range(4)))
        assert relative_frobenius(second.weights, full.weights) < 1e-9
        assert second.class_ids == full.class_ids

    def test_one_class_base_chain_matches_joint(self):
        # after a one-class base, S W is an n x 1 strided view of the solve's
        # buffer, negated in place; at E=6 the first update's rows are 8 wide,
        # where numpy 2.4's np.negative(out=) miscomputes such a view
        rng = np.random.default_rng(14)
        for e in (6, 5):
            batches = [random_batch(rng, 12, e, [0])]
            batches += [random_batch(rng, 9, e, [t]) for t in range(1, 5)]
            batches += [random_batch(rng, 11, e, [5, 6])]
            clf = recalibrate([batches[0]], 0.1)
            for b in batches[1:]:
                clf = update(clf, *b)
            joint = joint_solve(batches, 0.1)
            assert clf.class_ids == joint.class_ids
            assert relative_frobenius(clf.weights, joint.weights) < 1e-9

    def test_width_mismatch(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (0, 1)))], 1.0)
        with pytest.raises(ShapeError):
            update(clf, np.zeros((1, 3)), LabelMatrix(np.array([[1.0]]), (2,)))

    def test_all_zero_feature_batch_is_legal(self):
        rng = np.random.default_rng(5)
        b0 = random_batch(rng, 10, 4, range(2))
        clf = recalibrate([b0], 0.5)
        zero_s = np.zeros((6, 4))
        y = LabelMatrix.from_labels([2] * 6, class_ids=[2])
        out = update(clf, zero_s, y)
        joint = joint_solve([b0, (zero_s, y)], 0.5)
        assert relative_frobenius(out.weights, joint.weights) < 1e-9
        assert np.all(out.weights[:, 2] == 0.0)
        # spectrum stays positive definite
        assert np.all(np.linalg.eigvalsh(full_afam(out)) > 0.0)

    def test_writes_into_the_classifier_it_is_given(self):
        # the refreshed state is written over the input's, and the new weights
        # into the array the last update grew once it has room
        rng = np.random.default_rng(6)
        # odd and even E pack A differently
        for e in (5, 129, 130, 600):
            b0 = random_batch(rng, 12, e, range(2))
            b1 = random_batch(rng, 9, e, range(2, 4))
            b2 = random_batch(rng, 7, e, range(1, 4))  # no new class: the first update's array has room
            clf = recalibrate([b0], 0.1)
            state = clf.afam
            assert update(clf, *b1) is clf
            assert clf.afam is state
            assert clf.class_ids == (0, 1, 2, 3) and clf.tasks_seen == 2
            grown = clf.weights.base
            assert grown.shape == (e, 4) and grown.flags.f_contiguous
            assert update(clf, *b2) is clf
            assert clf.weights.base is grown
            assert all(value is not None for value in vars(clf).values())
            joint = joint_solve([b0, b1, b2], 0.1)
            assert relative_frobenius(clf.weights, joint.weights) < 1e-9
            assert relative_frobenius(full_afam(clf), full_afam(joint)) < 1e-9

    def test_weights_grow_by_doubling_over_a_long_chain(self):
        # 70 one-class updates after a two-class base: the array the weights
        # view doubles when full, so it is reallocated log2(C) times, not once
        # per update
        rng = np.random.default_rng(18)
        batches = [random_batch(rng, 6, 12, range(2))]
        batches += [random_batch(rng, 3, 12, [t]) for t in range(2, 72)]
        clf = recalibrate([batches[0]], 0.1)
        arrays = []
        for b in batches[1:]:
            clf = update(clf, *b)
            if not arrays or clf.weights.base is not arrays[-1]:
                arrays.append(clf.weights.base)
        assert [a.shape[1] for a in arrays] == [4, 8, 16, 32, 64, 128]
        joint = joint_solve(batches, 0.1)
        assert clf.class_ids == joint.class_ids
        assert relative_frobenius(clf.weights, joint.weights) < 1e-9

    def test_caller_array_beyond_the_weights_view_is_untouched(self):
        # weights that are the leading columns of the caller's own wider array:
        # the update writes the new weights into an array of its own
        rng = np.random.default_rng(15)
        b0 = random_batch(rng, 12, 6, range(2))
        b1 = random_batch(rng, 5, 6, range(2, 4))
        clf = recalibrate([b0], 0.1)
        mine = np.full((6, 4), 7.0, order="F")
        mine[:, :2] = clf.weights
        before = mine.copy()
        clf.weights = mine[:, :2]
        update(clf, *b1)
        assert np.array_equal(mine, before)
        assert relative_frobenius(clf.weights, joint_solve([b0, b1], 0.1).weights) < 1e-9

    def test_update_of_a_deep_copy_matches_joint(self):
        # a deep copy holds its weights in an array of its own, so the branch
        # and the original each grow their own; odd and even E
        rng = np.random.default_rng(21)
        for e in (9, 10):
            b0 = random_batch(rng, 12, e, range(2))
            b1 = random_batch(rng, 6, e, [2])  # the array grown here has room for one more class
            clf = update(recalibrate([b0], 0.1), *b1)
            branch = copy.deepcopy(clf)
            b2 = random_batch(rng, 6, e, [3])
            b3 = random_batch(rng, 6, e, [4, 5])
            update(branch, *b2)
            update(clf, *b3)
            for got, batches in ((branch, [b0, b1, b2]), (clf, [b0, b1, b3])):
                joint = joint_solve(batches, 0.1)
                assert got.class_ids == joint.class_ids
                assert relative_frobenius(got.weights, joint.weights) < 1e-9
                assert relative_frobenius(full_afam(got), full_afam(joint)) < 1e-9

    def test_weights_only_solve_cannot_be_updated(self):
        rng = np.random.default_rng(17)
        normal = NormalEquations(0.1)
        normal.add([random_batch(rng, 12, 6, range(2))])
        with pytest.raises(StateError, match="solved for its weights only"):
            update(normal.solve(inverse=False), *random_batch(rng, 5, 6, range(2, 4)))

    @pytest.mark.parametrize("fault, error", [("width", ShapeError), ("non-finite", DataError)])
    def test_failed_update_leaves_input_intact(self, fault, error):
        rng = np.random.default_rng(16)
        b0 = random_batch(rng, 12, 6, range(2))
        b1 = random_batch(rng, 5, 6, range(2, 4))
        if fault == "width":
            s_bad = np.zeros((5, 7))
        else:
            s_bad = b1[0].copy()
            s_bad[2, 3] = np.nan
        clf = recalibrate([b0], 0.1)
        a_before = clf.afam.copy()
        with pytest.raises(error):
            update(clf, s_bad, b1[1])
        assert np.array_equal(clf.afam, a_before)
        out = update(clf, *b1)
        assert relative_frobenius(out.weights, joint_solve([b0, b1], 0.1).weights) < 1e-9

    def test_afam_exactly_symmetric_after_chain(self):
        # (130, 200): updates of more rows than columns; on two BLAS threads a
        # whole-matrix GEMM refresh is not exactly symmetric there. A holds one
        # triangle, so it is symmetric by construction, odd E as even
        rng = np.random.default_rng(9)
        for e, rows in ((130, 7), (600, 7), (130, 200), (129, 7), (129, 200)):
            out = recalibrate([random_batch(rng, 40, e, range(2))], 0.1)
            for t in range(1, 6):
                out = update(out, *random_batch(rng, rows, e, range(2 * t, 2 * t + 2)))
            assert out.afam.shape == (e * (e + 1) // 2,)
            full = full_afam(out)
            assert np.array_equal(full, full.T)

    @pytest.mark.parametrize("n", [9, 300])
    def test_refresh_matches_full_form(self, n):
        # the packed triangle refreshed in place, against the whole product
        rng = np.random.default_rng(13)
        for e in (600, 599):
            clf = recalibrate([random_batch(rng, 40, e, range(2))], 0.1)
            s, y = random_batch(rng, n, e, range(2, 4))
            a = full_afam(clf)
            sa = s @ a
            z = np.linalg.solve(np.linalg.cholesky(np.eye(n) + sa @ s.T), sa)
            full = a - z.T @ z.copy()  # the whole product, both triangles
            out = update(clf, s, y)
            assert relative_frobenius(full_afam(out), full) < 1e-14

    @pytest.mark.parametrize("e", [1, 2, 3, 129, 130, 512])
    def test_matches_full_storage_reference_over_a_chain(self, e):
        # the same arithmetic on packed and on full storage; S A is summed by
        # blocks in one and at once in the other. gamma of at least E plus the
        # chain's 168 rows keeps cond(G) below 3, so the two differ at a few
        # ulps; on an ill-conditioned chain they differ by about cond(G) eps
        rng = np.random.default_rng(e)
        batches = [random_batch(rng, 16, e, range(2))]
        batches += [random_batch(rng, 8, e, range(2 * t, 2 * t + 2)) for t in range(1, 20)]
        got = recalibrate([batches[0]], e + 168.0)
        ref = replace(got, weights=got.weights.copy(), afam=full_afam(got))  # update writes over both
        for b in batches[1:]:
            got = update(got, *b)
            ref = full_storage_update(ref, *b)
        assert got.class_ids == ref.class_ids
        assert relative_frobenius(got.weights, ref.weights) <= 1e-14
        assert relative_frobenius(full_afam(got), ref.afam) <= 1e-14

    def test_kernel_not_positive_definite_is_a_data_error(self):
        rng = np.random.default_rng(11)
        clf = recalibrate([random_batch(rng, 12, 6, range(2))], 0.1)
        broken = replace(clf, afam=packed(-np.eye(6)))
        batch = random_batch(rng, 5, 6, range(2, 4))
        with pytest.raises(DataError, match="Woodbury kernel .* not positive definite"):
            update(broken, *batch)
        # the failed update left its input as it was
        assert np.array_equal(full_afam(broken), -np.eye(6))
        with pytest.raises(DataError, match="Woodbury kernel"):
            update(broken, *batch)
        out = update(broken, np.zeros((0, 6)), LabelMatrix(np.zeros((0, 0)), ()))
        assert np.array_equal(full_afam(out), -np.eye(6))

    def test_chain_runs_without_scipy(self):
        # with scipy unimportable, a chain of updates still matches the joint solve
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from akws import LabelMatrix, joint_solve, recalibrate, relative_frobenius, update\n"
            "rng = np.random.default_rng(12)\n"
            "for e in (40, 41):\n"
            "    def batch(n, ids):\n"
            "        return rng.standard_normal((n, e)), LabelMatrix.from_labels(rng.choice(ids, n), ids)\n"
            "    batches = [batch(30, [0, 1])] + [batch(9, [2 * t, 2 * t + 1]) for t in range(1, 6)]\n"
            "    out = recalibrate([batches[0]], 0.1)\n"
            "    for s, y in batches[1:]:\n"
            "        out = update(out, s, y)\n"
            "    joint = joint_solve(batches, 0.1)\n"
            "    assert out.class_ids == joint.class_ids\n"
            "    print(relative_frobenius(out.weights, joint.weights))\n"
        )
        got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert got.returncode == 0, got.stderr
        assert all(float(dev) < 1e-9 for dev in got.stdout.split())


class TestKernels:
    def test_materialize_inverse_symmetric_and_accurate(self):
        rng = np.random.default_rng(10)
        for e in (130, 129):
            s = rng.standard_normal((150, e))
            gram = s.T @ s + 0.1 * np.eye(e)
            inv = _materialize_inverse(_spd_factor(packed(gram), "the Gram matrix"))
            assert inv.shape == (e * (e + 1) // 2,)
            assert relative_frobenius(unpacked(inv), np.linalg.inv(gram)) < 1e-12

    @pytest.mark.parametrize("fit", ["recalibrate", "joint_solve"])
    def test_gram_not_positive_definite_is_a_data_error(self, fit):
        # rank-one Gram of magnitude 1e16: a ridge of 1e-10 is below its rounding
        s = np.full((2, 3), 1e8)
        y = LabelMatrix.from_labels([0, 1])
        calls = {
            "recalibrate": lambda: recalibrate([(s, y)], 1e-10),
            "joint_solve": lambda: joint_solve([(s, y)], 1e-10),
        }
        with pytest.raises(DataError, match="Gram matrix is not positive definite"):
            calls[fit]()

    def test_materialize_inverse_rejects_singular_factor(self):
        with pytest.raises(DataError, match="pftri info=1"):
            _materialize_inverse(np.zeros(6))


class TestJointSolve:
    def test_single_batch_equals_recalibrate(self):
        rng = np.random.default_rng(1)
        b = random_batch(rng, 14, 6, range(3))
        joint = joint_solve([b], 0.2)
        direct = recalibrate([b], 0.2)
        assert relative_frobenius(joint.weights, direct.weights) < 1e-12
        assert relative_frobenius(full_afam(joint), full_afam(direct)) < 1e-12

    def test_order_permutes_columns_only(self):
        rng = np.random.default_rng(2)
        a = random_batch(rng, 10, 6, range(2))
        b = random_batch(rng, 12, 6, range(2, 5))
        ab = joint_solve([a, b], 0.3)
        ba = joint_solve([b, a], 0.3)
        cols_ab = dict(zip(ab.class_ids, ab.weights.T))
        cols_ba = dict(zip(ba.class_ids, ba.weights.T))
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
        clf = recalibrate([batches[0]], 0.5)
        for b in batches[1:]:
            clf = update(clf, *b)
        joint = joint_solve(batches, 0.5)
        assert relative_frobenius(clf.weights, joint.weights) < 1e-9

    def test_overlapping_batches_equal_one_batch_of_all_rows(self):
        # class 1 is in both batches: its label correlations sum
        rng = np.random.default_rng(5)
        s_a, s_b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        labs_a, labs_b = np.array([0, 1, 1, 0, 1]), np.array([2, 1, 2, 2, 1])
        a = (s_a, LabelMatrix.from_labels(labs_a, class_ids=range(2)))
        b = (s_b, LabelMatrix.from_labels(labs_b, class_ids=range(1, 3)))
        both = (np.vstack([s_a, s_b]), LabelMatrix.from_labels(np.concatenate([labs_a, labs_b])))
        split = joint_solve([a, b], 0.1)
        whole = joint_solve([both], 0.1)
        assert split.class_ids == whole.class_ids == (0, 1, 2)
        assert relative_frobenius(split.weights, whole.weights) < 1e-12
        assert relative_frobenius(full_afam(split), full_afam(whole)) < 1e-12

    def test_adding_and_solving_for_weights_allocate_no_gram_sized_buffer(self):
        # sfrk adds S'T S to packed G in place, and the weights-only solve
        # factors a packed copy of G (4 MB here): numpy's s.T @ s would
        # allocate E x E (8 MB)
        e = 1024
        rng = np.random.default_rng(7)
        normal = NormalEquations(0.1)
        normal.add([random_batch(rng, 64, e, range(2))])
        batch = random_batch(rng, 64, e, range(2, 4))
        for step in (lambda: normal.add([batch]), lambda: normal.solve(inverse=False)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * e * e, f"{peak / 1e6:.2f} MB"

    def test_failed_weights_only_solve_keeps_the_system(self):
        # a Gram matrix that is not positive definite: pftrf stops part way
        # through the copy of G it factors, and G stays as it was
        normal = NormalEquations(1e-10)
        normal.add([(np.full((2, 3), 1e8), LabelMatrix.from_labels([0, 1]))])
        before = normal.gram.copy()
        with pytest.raises(DataError, match="Gram matrix is not positive definite"):
            normal.solve(inverse=False)
        assert np.array_equal(normal.gram, before)

    def test_normal_equations_solved_per_prefix_equal_joint_solve(self):
        # the oracle's path: one accumulator, solved after every batch it adds
        rng = np.random.default_rng(6)
        batches = [
            random_batch(rng, 14, 6, range(2)),
            random_batch(rng, 9, 6, [1, 2]),  # class 1 presented again, class 2 new
            (np.zeros((0, 6)), LabelMatrix(np.zeros((0, 2)), (3, 0))),  # no rows: registers class 3 only
            random_batch(rng, 11, 6, [4, 5]),
        ]
        normal = NormalEquations(0.3)
        for t, batch in enumerate(batches):
            normal.add([batch])
            joint = joint_solve(batches[: t + 1], 0.3)
            weights_only = normal.solve(inverse=False)
            full = copy.deepcopy(normal).solve()
            for got in (weights_only, full):
                assert np.array_equal(got.weights, joint.weights)
                assert got.class_ids == joint.class_ids
                assert got.tasks_seen == joint.tasks_seen == t + 1
            assert weights_only.afam is None
            assert np.array_equal(full.afam, joint.afam)
        assert joint.class_ids == (0, 1, 2, 3, 4, 5)
        normal.solve()
        with pytest.raises(ShapeError, match="solved in place"):
            normal.solve()


class TestAfamDirect:
    """The state formed directly, (S^T S + gamma I)^-1, as joint_solve returns it."""

    def test_no_batches_is_scaled_identity(self):
        out = full_afam(joint_solve([(np.zeros((0, 3)), LabelMatrix(np.zeros((0, 0)), ()))], 2.0))
        assert np.allclose(out, 0.5 * np.eye(3), atol=1e-15)

    def test_identity_batch(self):
        out = full_afam(joint_solve([(np.eye(2), LabelMatrix.from_labels([0, 1]))], 1.0))
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-15)

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
        clf = update(recalibrate([(s1, y1)], 0.7), s2, y2)
        direct = full_afam(joint_solve([(s1, y1), (s2, y2)], 0.7))
        assert relative_frobenius(full_afam(clf), direct) < 1e-10


class TestPredict:
    def test_identity_weights(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (10, 20)))], 1.0)
        assert predict(clf, np.array([[1.0, 0.0]]))[0] == 10
        assert predict(clf, np.array([[0.0, 1.0]]))[0] == 20

    def test_tie_goes_to_lowest_column(self):
        clf = recalibrate([(np.eye(2), LabelMatrix(np.eye(2), (10, 20)))], 1.0)
        assert predict(clf, np.array([[0.5, 0.5]]))[0] == 10

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 20])
    def test_row_blocks_match_one_product(self, monkeypatch, rows):
        rng = np.random.default_rng(5)
        clf = recalibrate([random_batch(rng, 30, 8, range(3))], 0.5)
        x = rng.standard_normal((rows, 8))
        ids = np.asarray(clf.column_classes())
        want = ids[np.argmax(x @ clf.weights, axis=1)]
        monkeypatch.setattr(classifier, "_SCORE_BLOCK", 3 * 7)  # blocks of 7 rows
        assert np.array_equal(predict(clf, x), want)

    def test_untrained_rejected(self):
        from akws.classifier import AnalyticClassifier

        empty = AnalyticClassifier(weights=np.zeros((3, 0)), afam=np.eye(3), gamma=1.0)
        with pytest.raises(ShapeError, match="no registered classes"):
            predict(empty, np.zeros((1, 3)))

    def test_separable_clusters_high_accuracy(self):
        for seed in range(5):
            spec = SynthSpec(
                classes=4,
                per_class=50,
                dim=6,
                separation=8.0,
                noise_sigma=1.0,
                seed=seed,
            )
            train, test = gen_synth_split(spec, 25)
            m = build_expansion(6, 32, seed)
            clf = recalibrate([(expand(train.features, m), LabelMatrix.from_labels(train.labels))], 0.1)
            pred = predict(clf, expand(test.features, m))
            assert np.mean(pred == test.labels) >= 0.95
