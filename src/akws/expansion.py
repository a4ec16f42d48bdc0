"""Fixed random feature expansion applied ahead of the analytic classifier.

The expansion is a frozen linear projection into a strictly larger space,
with an optional rectifier; it is drawn once from a seed and never
trained. A rectified expansion is the default elsewhere in the package
because a purely linear projection cannot enrich the regression problem,
while ``identity`` keeps the map exactly linear for algebraic checks.

The matrix is drawn from numpy's PCG64 bit generator, whose raw 64-bit
output numpy keeps fixed for a seed; the seed is taken modulo 2**64, as
a snapshot stores it. Each raw output maps to a double via
``(x >> 11) * 2**-53``. Consecutive pairs ``(u1, u2)``, ``u1`` shifted
into ``(0, 1]`` so the logarithm is finite, give two standard normals by
Box-Muller: ``r cos(t)`` and ``r sin(t)``, ``r = sqrt(-2 ln u1)`` and
``t = 2 pi u2``; an odd request drops the last. numpy's own ``normal``
is not used, as numpy does not promise to keep its output fixed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

ACTIVATIONS = ("identity", "relu")
_DOUBLE_SCALE = 2.0**-53


def normal_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal matrix, filled in row-major order."""
    count = rows * cols
    pairs = (count + 1) // 2
    draws = np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF).random_raw(2 * pairs)
    draws >>= np.uint64(11)
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


@dataclass(frozen=True)
class ExpansionMap:
    """Immutable d x E projection with its provenance (seed, activation)."""

    matrix: np.ndarray
    seed: int
    activation: str = "relu"
    dim: int = field(init=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise DataError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "dim", int(self.matrix.shape[0]))
        self.matrix.flags.writeable = False


def build_expansion(dim: int, expansion_size: int, seed: int, activation: str = "relu") -> ExpansionMap:
    """Draw the fixed d x E standard-normal projection from a seed.

    The entries are ``normal_matrix(dim, expansion_size, seed)``, filled
    row-major, so identical arguments always reproduce bit-identical
    matrices.
    """
    if dim < 1:
        raise ShapeError(f"feature dimension must be >= 1, got {dim}")
    if expansion_size <= dim:
        raise ShapeError(
            f"expansion size must exceed the feature dimension ({expansion_size} <= {dim})"
        )
    matrix = normal_matrix(dim, expansion_size, seed)
    return ExpansionMap(matrix=matrix, seed=seed, activation=activation)


def expand(x: np.ndarray, m: ExpansionMap, out: np.ndarray | None = None) -> np.ndarray:
    """Project an n x d feature matrix to n x E and apply the activation.

    The result is written to ``out`` (n x E, float64) when one is given.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.dim:
        raise ShapeError(f"expected n x {m.dim} features, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("feature matrix contains non-finite entries")
    out = np.matmul(x, m.matrix, out=out)
    if m.activation == "relu":
        np.maximum(out, 0.0, out=out)
    return out
