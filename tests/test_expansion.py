import numpy as np
import pytest

from akws import build_expansion, expand
from akws.errors import DataError, ShapeError

from oracles import naive_matmul


def test_same_seed_bit_identical():
    a = build_expansion(4, 8, 42)
    b = build_expansion(4, 8, 42)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_different_seeds_differ():
    a = build_expansion(4, 8, 42)
    b = build_expansion(4, 8, 43)
    assert not np.array_equal(a.matrix, b.matrix)


def test_expansion_must_exceed_input_dim():
    with pytest.raises(ShapeError, match="must exceed the feature dimension"):
        build_expansion(4, 4, 0)
    with pytest.raises(ShapeError, match="must exceed the feature dimension"):
        build_expansion(8, 4, 0)


def test_zero_dim_rejected():
    with pytest.raises(ShapeError, match="feature dimension must be >= 1"):
        build_expansion(0, 4, 0)


def test_entry_moments_match_standard_normal():
    m = build_expansion(2, 256, 7)
    vals = m.matrix.ravel()
    assert vals.size == 512
    assert abs(vals.mean()) <= 3.0 / np.sqrt(512)
    assert abs(vals.var(ddof=1) - 1.0) <= 0.1


def test_matrix_is_immutable():
    m = build_expansion(3, 6, 1)
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 5.0


def test_expand_zeros_identity_and_relu():
    x = np.zeros((1, 2))
    for act in ("identity", "relu"):
        m = build_expansion(2, 5, 3, activation=act)
        out = expand(x, m)
        assert out.shape == (1, 5)
        assert np.all(out == 0.0)


def test_expand_identity_matches_naive_matmul():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 3))
    m = build_expansion(3, 6, 9, activation="identity")
    expected = naive_matmul(x, np.asarray(m.matrix))
    got = expand(x, m)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_expand_relu_clamps_negatives():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    m = build_expansion(3, 7, 2, activation="relu")
    linear = x @ m.matrix
    out = expand(x, m)
    assert np.array_equal(out, np.maximum(linear, 0.0))
    assert np.all(out >= 0.0)


def test_expand_shape_mismatch():
    m = build_expansion(3, 6, 0)
    with pytest.raises(ShapeError):
        expand(np.zeros((2, 4)), m)


def test_expand_rejects_non_finite():
    m = build_expansion(2, 5, 0)
    bad = np.array([[1.0, np.nan]])
    with pytest.raises(DataError):
        expand(bad, m)


def test_expand_does_not_mutate_input():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2))
    x_copy = x.copy()
    expand(x, build_expansion(2, 5, 1))
    assert np.array_equal(x, x_copy)
