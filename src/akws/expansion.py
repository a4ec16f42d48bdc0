"""Fixed random feature expansion applied ahead of the analytic classifier.

The expansion is a frozen linear projection into a strictly larger space,
with an optional rectifier; it is drawn once from a seed and never
trained. A rectified expansion is the default elsewhere in the package
because a purely linear projection cannot enrich the regression problem,
while ``identity`` keeps the map exactly linear for algebraic checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .prng import normal_matrix

ACTIVATIONS = ("identity", "relu")


@dataclass(frozen=True)
class ExpansionMap:
    """Immutable d x E projection with its provenance (seed, activation)."""

    matrix: np.ndarray
    seed: int
    expansion_size: int
    activation: str = "relu"
    dim: int = field(init=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "dim", int(self.matrix.shape[0]))
        self.matrix.flags.writeable = False


def build_expansion(dim: int, expansion_size: int, seed: int, activation: str = "relu") -> ExpansionMap:
    """Draw the fixed d x E standard-normal projection from a seed.

    The entries are produced by the package's pinned generator (see
    :mod:`akws.prng`), filled row-major, so identical arguments always
    reproduce bit-identical matrices.
    """
    if dim < 1:
        raise ShapeError(f"feature dimension must be >= 1, got {dim}")
    if expansion_size <= dim:
        raise ShapeError(
            f"expansion size must exceed the feature dimension ({expansion_size} <= {dim})"
        )
    matrix = normal_matrix(dim, expansion_size, seed)
    return ExpansionMap(matrix=matrix, seed=seed, expansion_size=expansion_size, activation=activation)


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
