"""Deterministic pseudo-random stream used to build expansion matrices.

The generator is pinned down exactly so that an expansion built from a
given seed is bit-identical across runs and implementations:

* the 256-bit xoshiro256** state is seeded with four successive outputs
  of splitmix64 applied to the user seed;
* each 64-bit output is mapped to a double via ``(x >> 11) * 2**-53``;
* standard normals come from the Box-Muller transform on consecutive
  uniform pairs ``(u1, u2)``, with ``u1`` shifted into ``(0, 1]`` so the
  logarithm is always finite:

      r  = sqrt(-2 ln u1),  theta = 2 pi u2
      z0 = r cos(theta),    z1 = r sin(theta)

  Pairs are consumed in order; an odd request discards the final ``z1``.

The stream is generated in lanes rather than one draw at a time. A
request for ``n`` draws is cut into ``K = ceil(n / L)`` lanes of ``L``
consecutive draws. ``L`` is ``2**(b // 2)`` for an ``n`` of ``b`` bits, a
power of two within a factor of two of ``sqrt(n)``, and at least 64:
lane ``j`` produces draws ``j*L .. j*L + L - 1``. All lanes are stepped
together with ``uint64`` array operations, ``L`` steps over ``K``-element
arrays; lane ``j`` writes row ``j`` of a ``K x L`` array, which is then
the stream in order.

Each lane needs the state the sequential generator would have reached
after ``j*L`` steps. The xoshiro256** state transition (shifts, rotations
and xors) is linear over GF(2), so one step is a 256 x 256 bit matrix
``T`` acting on the state, read off by stepping the 256 unit states.
``T^L`` follows by squaring, lane ``j`` starts at ``T^(jL) s0``, and the
set of lane starts doubles each round by applying ``T^(2^r L)`` to the
lanes found so far (Blackman & Vigna, "Scrambled Linear Pseudorandom
Number Generators", ACM TOMS 2021, on jump-ahead). Every lane then runs
exactly the recurrence the sequential generator runs from exactly the
state it would reach, so every output bit is the same as stepping one
draw at a time. The bit products are done in float32: each dot product
is a sum of at most 256 zeros and ones, which float32 holds exactly.
"""

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_DOUBLE_SCALE = 2.0 ** -53
_U64 = np.dtype("<u8")
_STATE_BITS = 256
_MIN_LANE_BITS = 6  # lanes of at least 64 draws
_C5, _C7, _C9, _C11, _C17, _C19, _C45, _C57 = (np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57))


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _seed_state(seed: int) -> np.ndarray:
    """The four 64-bit words of the initial xoshiro256** state."""
    sm = seed & _MASK64
    words = []
    for _ in range(4):
        sm, out = splitmix64_next(sm)
        words.append(out)
    return np.array(words, dtype=_U64)


def _advance(state: np.ndarray, tmp: np.ndarray) -> None:
    """One xoshiro256** state step, in place, for every column of a 4 x K state."""
    s0, s1, s2, s3 = state
    np.left_shift(s1, _C17, out=tmp)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= tmp
    np.right_shift(s3, _C19, out=tmp)
    s3 <<= _C45
    s3 |= tmp


def _to_bits(state: np.ndarray) -> np.ndarray:
    """4 x K words -> 256 x K float32 bits; bit b of word w is row 64w + b."""
    raw = np.ascontiguousarray(state.T, dtype=_U64).view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").T.astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_bits`."""
    packed = np.packbits(bits.T.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(_U64).T.copy()


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over GF(2) of float32 0/1 matrices (exact: sums stay <= 256)."""
    return ((a @ b).astype(np.int32) & 1).astype(np.float32)


def _lane_starts(s0: np.ndarray, lanes: int, lane_len: int) -> np.ndarray:
    """4 x lanes states: column j is the state after j * lane_len steps."""
    units = _from_bits(np.eye(_STATE_BITS, dtype=np.float32))
    _advance(units, np.empty(_STATE_BITS, dtype=_U64))
    jump = _to_bits(units)  # T: column i is the step of unit state i
    for _ in range(lane_len.bit_length() - 1):
        jump = _gf2_matmul(jump, jump)
    starts = _to_bits(s0[:, None])
    while starts.shape[1] < lanes:
        starts = np.hstack([starts, _gf2_matmul(jump, starts)])
        if starts.shape[1] < lanes:
            jump = _gf2_matmul(jump, jump)
    return _from_bits(starts[:, :lanes])


def u64_stream(seed: int, count: int) -> np.ndarray:
    """The first `count` xoshiro256** outputs of `seed`, as ``uint64``."""
    if count <= 0:
        return np.empty(0, dtype=_U64)
    lane_len = 1 << max(_MIN_LANE_BITS, int(count).bit_length() // 2)
    lanes = -(-count // lane_len)
    s0 = _seed_state(seed)
    state = _lane_starts(s0, lanes, lane_len) if lanes > 1 else s0[:, None].copy()
    s1 = state[1]
    x = np.empty(lanes, dtype=_U64)
    tmp = np.empty(lanes, dtype=_U64)
    out = np.empty((lanes, lane_len), dtype=_U64)
    for i in range(lane_len):
        np.multiply(s1, _C5, out=x)
        np.right_shift(x, _C57, out=tmp)
        x <<= _C7
        x |= tmp
        np.multiply(x, _C9, out=out[:, i])
        _advance(state, tmp)
    return out.reshape(-1)[:count]


def normal_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal matrix, filled in row-major order."""
    count = rows * cols
    pairs = (count + 1) // 2
    draws = u64_stream(seed, 2 * pairs)
    draws >>= _C11
    u = draws.astype(np.float64)
    del draws  # freed before the Box-Muller temporaries are made
    u *= _DOUBLE_SCALE
    u1 = u[0::2] + _DOUBLE_SCALE  # shift [0,1) -> (0,1]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count].reshape(rows, cols)
