import hashlib
import math

import numpy as np
import pytest

from akws.prng import normal_matrix, splitmix64_next, u64_stream

MASK = 0xFFFFFFFFFFFFFFFF


def reference_stream(seed, count):
    """Independent re-derivation of the pinned generator, step by step."""

    def splitmix(state):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return state, (z ^ (z >> 31))

    def rotl(x, k):
        return ((x << k) % 2**64) | (x >> (64 - k))

    state = []
    sm = seed
    for _ in range(4):
        sm, out = splitmix(sm)
        state.append(out)
    s = state
    outputs = []
    for _ in range(count):
        outputs.append((rotl((s[1] * 5) % 2**64, 7) * 9) % 2**64)
        t = (s[1] << 17) % 2**64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return outputs


def reference_normals(seed, count):
    """Box-Muller, as pinned in the module docstring, on the reference stream."""
    pairs = (count + 1) // 2
    draws = reference_stream(seed, 2 * pairs)
    u = np.array([x >> 11 for x in draws], dtype=np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[0::2] + 2.0**-53))
    theta = (2.0 * math.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def test_splitmix64_avalanche_and_determinism():
    s1, out1 = splitmix64_next(0)
    s2, out2 = splitmix64_next(0)
    assert (s1, out1) == (s2, out2)
    _, other = splitmix64_next(1)
    assert out1 != other


def test_stream_matches_independent_rederivation():
    for seed in (0, 1, 42, 2**64 - 1):
        assert u64_stream(seed, 64).tolist() == reference_stream(seed, 64)


def test_outputs_fit_in_64_bits():
    got = u64_stream(123, 1000)
    assert got.dtype == np.dtype("<u8")
    assert got.tolist() == reference_stream(123, 1000)
    assert all(0 <= v <= MASK for v in got.tolist())


# The smallest lane is 64 draws; 5000 draws run in 79 lanes of 64.
@pytest.mark.parametrize("count", [1, 2, 3, 63, 64, 65, 5000])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_lanes_reproduce_the_sequential_stream(seed, count):
    assert u64_stream(seed, count).tolist() == reference_stream(seed, count)


@pytest.mark.parametrize("count", [1, 2, 3, 63, 64, 65, 5000])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_normal_matrix_matches_reference_box_muller(seed, count):
    got = normal_matrix(1, count, seed)
    assert got.tobytes() == reference_normals(seed, count).tobytes()


def test_normals_deterministic_and_odd_count():
    a = normal_matrix(1, 7, 5)
    b = normal_matrix(1, 8, 5)
    assert np.array_equal(a, normal_matrix(1, 7, 5))
    # an odd request is the even request with the trailing value dropped
    assert np.array_equal(a[0], b[0, :7])


def test_normal_matrix_row_major_fill():
    mat = normal_matrix(3, 4, 11)
    assert np.array_equal(mat, reference_normals(11, 12).reshape(3, 4))


# Digests of the expansion matrices at the benchmark's shapes, recorded
# with the one-draw-at-a-time generator this module replaced.
@pytest.mark.parametrize(
    "rows, cols, digest",
    [
        (64, 4096, "f3e7cde7575feab26915ebc0ade2cac56ef0aabbfaf5b8bb78667cbef4e17e41"),
        (32, 2048, "2a469f86c94459e966ed89bc178a31418922a539847c6827c25950d2d5e09327"),
        (32, 512, "85b4dc7b6f92fd61f09423431e0fa4936b668f23eff1a1c4783f89f21a2bfac0"),
    ],
)
def test_normal_matrix_digest_is_pinned(rows, cols, digest):
    mat = normal_matrix(rows, cols, 0)
    assert hashlib.sha256(mat.astype("<f8").tobytes()).hexdigest() == digest


def test_normal_moments():
    vals = normal_matrix(1, 200_000, 77)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.var() - 1.0) < 0.02
    # Box-Muller never produces non-finite values thanks to the (0,1] shift
    assert np.all(np.isfinite(vals))
