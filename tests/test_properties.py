"""Property tests for the invariants the recursive classifier must keep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akws import (
    LabelMatrix,
    SynthSpec,
    build_expansion,
    expand,
    gen_synth,
    joint_solve,
    recalibrate,
    relative_frobenius,
    update,
)

GAMMAS = (1e-3, 0.1, 1.0, 10.0)


def make_tasks(rng, n_tasks, e, degenerate=False):
    """Random disjoint-class task sequence; optionally rank-deficient."""
    batches = []
    next_id = 0
    for _ in range(n_tasks):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 30))
        s = rng.standard_normal((n, e))
        if degenerate and n >= 2:
            s[1] = s[0]  # duplicate rows
            s[:, rng.integers(0, e)] = 0.0  # dead feature column
        labs = next_id + rng.integers(0, k, n)
        batches.append((s, LabelMatrix.from_labels(labs, class_ids=range(next_id, next_id + k))))
        next_id += k
    return batches


def run_chain(batches, gamma):
    clf = recalibrate(batches[0][0], batches[0][1], gamma)
    for s, y in batches[1:]:
        clf = update(clf, s, y)
    return clf


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tasks=st.integers(1, 6),
    e=st.integers(4, 32),
    gamma=st.sampled_from(GAMMAS),
)
def test_chained_updates_equal_joint_solution(seed, n_tasks, e, gamma):
    rng = np.random.default_rng(seed)
    batches = make_tasks(rng, n_tasks, e)
    chained = run_chain(batches, gamma)
    joint = joint_solve(batches, gamma)
    assert chained.class_registry == joint.class_registry
    assert relative_frobenius(chained.weights, joint.weights) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tasks=st.integers(1, 5),
    e=st.integers(4, 24),
    gamma=st.sampled_from(GAMMAS),
    degenerate=st.booleans(),
)
def test_afam_tracks_direct_form(seed, n_tasks, e, gamma, degenerate):
    rng = np.random.default_rng(seed)
    batches = make_tasks(rng, n_tasks, e, degenerate=degenerate)
    chained = run_chain(batches, gamma)
    direct = joint_solve(batches, gamma).afam
    assert relative_frobenius(chained.afam.matrix, direct.matrix) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tasks=st.integers(1, 5),
    e=st.integers(4, 24),
    gamma=st.sampled_from(GAMMAS),
    degenerate=st.booleans(),
)
def test_afam_stays_symmetric_positive_definite(seed, n_tasks, e, gamma, degenerate):
    rng = np.random.default_rng(seed)
    batches = make_tasks(rng, n_tasks, e, degenerate=degenerate)
    clf = recalibrate(batches[0][0], batches[0][1], gamma)
    for s, y in batches[1:]:
        clf = update(clf, s, y)
        a = clf.afam.matrix
        assert np.array_equal(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) > 0.0)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tasks=st.integers(2, 5),
    e=st.integers(4, 24),
    gamma=st.sampled_from(GAMMAS),
)
def test_task_order_only_permutes_columns(seed, n_tasks, e, gamma):
    rng = np.random.default_rng(seed)
    batches = make_tasks(rng, n_tasks, e)
    perm = np.random.default_rng(seed + 1).permutation(n_tasks)
    forward = run_chain(batches, gamma)
    shuffled = run_chain([batches[i] for i in perm], gamma)
    assert set(forward.class_registry) == set(shuffled.class_registry)
    for cid, col in forward.class_registry.items():
        other = shuffled.weights[:, shuffled.class_registry[cid]]
        assert relative_frobenius(forward.weights[:, col], other) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1, 4, 16]))
def test_state_size_independent_of_sample_count(seed, scale):
    # exemplar-free contract: persistent state is E^2 + E*C + registry,
    # regardless of how many rows each task carried
    rng = np.random.default_rng(seed)
    e = 12
    sizes = []
    for mult in (1, scale):
        clf = recalibrate(
            rng.standard_normal((8 * mult, e)),
            LabelMatrix.from_labels([0] * (4 * mult) + [1] * (4 * mult), class_ids=[0, 1]),
            0.1,
        )
        clf = update(
            clf,
            rng.standard_normal((6 * mult, e)),
            LabelMatrix.from_labels([2] * (6 * mult), class_ids=[2]),
        )
        sizes.append(clf.state_elements())
        assert clf.state_elements() == e * e + e * 3 + 3
    assert sizes[0] == sizes[1]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_update_asymmetry_before_correction_is_bounded(seed):
    # the raw Woodbury step may drift from symmetry only at rounding level
    rng = np.random.default_rng(seed)
    e = 16
    batches = make_tasks(rng, 4, e)
    clf = recalibrate(batches[0][0], batches[0][1], 0.1)
    for s, y in batches[1:]:
        a_prev = clf.afam.matrix
        n = s.shape[0]
        sa = s @ a_prev
        z = np.linalg.solve(np.linalg.cholesky(np.eye(n) + sa @ s.T), sa)
        raw = a_prev - z.T @ z.copy()  # both triangles by GEMM; update forms the upper one
        drift = np.linalg.norm(raw - raw.T) / np.linalg.norm(raw)
        assert drift <= 1e-10
        clf = update(clf, s, y)


# Median over seeds 0-3 of the final weights' relative deviation from the
# joint solution. Measured on 2 cores, OpenBLAS: at gamma=1e-3 the square-root
# update gives 2.0e-10 with Z from one trsm (2.2e-10 with inv(L) refined once)
# and the averaged (S A)^T K^-1 S A form 3.1e-10, against 2.3e-9 when that form
# is mirrored instead of averaged; at gamma=1e-6, 2.3e-7 (1.9e-7), 3.6e-7 and
# 3.8e-6.
HARD_REGIME_BOUND = {1e-3: 1e-9, 1e-6: 1.5e-6}


@pytest.mark.parametrize("gamma", sorted(HARD_REGIME_BOUND))
def test_many_small_tasks_track_joint_solution(gamma):
    # 100 one-class tasks of 8 rows after a one-class base, ReLU expansion,
    # E=128: the first steps run with n << E, where A_0 = I / gamma carries
    # 1/gamma in every direction no batch has reached yet
    devs = []
    for seed in range(4):
        ds = gen_synth(SynthSpec(101, 8, 16, cluster_separation=6.0, noise_sigma=1.0, seed=seed))
        s = expand(ds.features, build_expansion(16, 128, seed, "relu"))
        batches = [
            (s[ds.labels == c], LabelMatrix.from_labels(ds.labels[ds.labels == c], class_ids=[c]))
            for c in range(101)
        ]
        chained = run_chain(batches, gamma)
        devs.append(relative_frobenius(chained.weights, joint_solve(batches, gamma).weights))
    assert np.median(devs) < HARD_REGIME_BOUND[gamma]
