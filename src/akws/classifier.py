"""Analytic ridge classifier with exemplar-free recursive task updates.

The classifier is fit in closed form on expanded features. For the first
batch the weights solve the ridge system

    W = (S'T S' + gamma I)^-1 S'T Y

and the inverse factor itself,

    A = (S'T S' + gamma I)^-1,

is carried forward as the feature autocorrelation state. Every later
batch refreshes ``A`` through the Woodbury identity using only that
batch's rows,

    A_t = A_{t-1} - A_{t-1} S'T (I + S' A_{t-1} S'T)^-1 S' A_{t-1},

then rewrites existing weight columns as ``W - A_t S'T S' W`` and appends
``A_t S'T Y`` for the batch's new classes. The result is algebraically
identical to re-solving the joint ridge problem over every batch seen so
far, without retaining any past rows; ``joint_solve`` computes that joint
solution directly and serves as the oracle in tests.

The weight step needs no product with ``A_t`` itself. With
``K = I + S' A_{t-1} S'T``,

    A_t S'T = A_{t-1} S'T K^-1,

the transpose of the ``K^-1 S' A_{t-1}`` already solved for the ``A``
refresh. Wherever ``A`` is formed directly from a Cholesky factor ``L`` of
the regularized Gram matrix, LAPACK ``potri`` computes ``(L L^T)^-1`` from
``L`` in place, and the triangle it fills is mirrored onto the other.

The per-task path (``update`` and ``predict``) runs on numpy's BLAS and
LAPACK only: ``update`` checks ``K`` with a Cholesky factorization and
solves ``K^-1 S' A_{t-1}`` with ``numpy.linalg``. scipy's LAPACK (Cholesky
solve and ``potri``) runs only in the first fit and in the joint oracle.
numpy and scipy each ship their own OpenBLAS with its own thread pool;
after a scipy call its workers keep spinning, so the numpy GEMMs after it
compete with them for the same cores. A scipy call in every task would
make per-task times bimodal and slow every numpy call that follows it.

Column order follows class registration order: classes are assigned
columns in the order their batches first present them.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .errors import (
    ClassCollisionError,
    DataError,
    InvalidRegularizerError,
    ShapeError,
    UntrainedClassifierError,
)


@dataclass(frozen=True)
class LabelMatrix:
    """One-hot targets for a batch plus the global ids its columns mean.

    Rows are strictly one-hot; columns may be all-zero (a class declared
    for registration without samples in this batch).
    """

    onehot: np.ndarray
    class_ids: tuple[int, ...]

    def __post_init__(self):
        y = np.asarray(self.onehot, dtype=np.float64)
        if y.ndim != 2:
            raise ShapeError("label matrix must be 2-D")
        if y.shape[1] != len(self.class_ids):
            raise ShapeError(
                f"{y.shape[1]} label columns but {len(self.class_ids)} class ids"
            )
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ClassCollisionError("duplicate class ids within one batch")
        if y.size and not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("label entries must be 0 or 1")
        if y.shape[0] and not np.all(y.sum(axis=1) == 1.0):
            raise DataError("each label row must contain exactly one 1")
        object.__setattr__(self, "onehot", y)
        object.__setattr__(self, "class_ids", tuple(int(c) for c in self.class_ids))

    @classmethod
    def from_labels(cls, labels, class_ids=None) -> "LabelMatrix":
        """Build one-hot targets from integer labels.

        ``class_ids`` fixes the column order (and may declare classes with
        no samples); by default columns follow sorted unique labels.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if class_ids is None:
            class_ids = sorted(set(labels.tolist()))
        class_ids = [int(c) for c in class_ids]
        col = {c: j for j, c in enumerate(class_ids)}
        y = np.zeros((labels.shape[0], len(class_ids)))
        for i, lab in enumerate(labels.tolist()):
            if lab not in col:
                raise DataError(f"label {lab} not among declared class ids")
            y[i, col[lab]] = 1.0
        return cls(onehot=y, class_ids=tuple(class_ids))

    @property
    def rows(self) -> int:
        return self.onehot.shape[0]


@dataclass(frozen=True)
class Afam:
    """Feature autocorrelation state: the regularized inverse Gram matrix."""

    matrix: np.ndarray
    gamma: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AnalyticClassifier:
    """Closed-form classifier state: weights, autocorrelation, registry."""

    weights: np.ndarray  # E x C
    afam: Afam
    class_registry: dict[int, int] = field(default_factory=dict)
    tasks_seen: int = 0

    @property
    def expansion_size(self) -> int:
        return self.weights.shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    def column_classes(self) -> list[int]:
        """Global class ids in column order."""
        out = [0] * len(self.class_registry)
        for cid, col in self.class_registry.items():
            out[col] = cid
        return out

    def state_elements(self) -> int:
        """Persistent cross-task state size: E^2 + E*C + registry entries."""
        e, c = self.weights.shape
        return e * e + e * c + len(self.class_registry)


def _check_batch(s: np.ndarray, y: LabelMatrix) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError("feature matrix must be 2-D")
    if s.shape[0] != y.rows:
        raise ShapeError(f"{s.shape[0]} feature rows but {y.rows} label rows")
    if not np.all(np.isfinite(s)):
        raise DataError("feature matrix contains non-finite entries")
    return s


# Edge of the square blocks the E x E kernels below work on: a pair of
# 64 x 64 float64 blocks (64 KiB) stays in cache while one is read transposed.
_TILE = 64


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """Replace square ``x`` in place by ``(x + x.T) / 2`` and return it.

    Bit-identical to the whole-matrix expression, without its two E x E
    temporaries or its cache-hostile transposed walk.
    """
    n = x.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            up = x[i : i + _TILE, j : j + _TILE]
            lo = x[j : j + _TILE, i : i + _TILE]
            up += lo.T if i != j else lo.T.copy()  # a diagonal block is its own mirror
            up *= 0.5
            lo[...] = up.T
    return x


def _spd_factor(g: np.ndarray):
    try:
        return cho_factor(g, lower=True)
    except np.linalg.LinAlgError:
        raise DataError("the regularized Gram matrix is not positive definite") from None


def _materialize_inverse(factor) -> np.ndarray:
    """Explicit inverse of ``L L^T`` from its lower Cholesky factor.

    ``potri`` fills the lower triangle, which is then copied onto the upper
    one tile by tile. Consumes ``factor``: ``potri`` overwrites it.
    """
    inv, info = dpotri(factor[0], lower=1, overwrite_c=1)
    if info != 0:
        raise DataError(f"cannot invert the regularized Gram matrix (LAPACK potri info={info})")
    n = inv.shape[0]
    for i in range(0, n, _TILE):
        d = inv[i : i + _TILE, i : i + _TILE]
        d[...] = np.tril(d) + np.tril(d, -1).T
        for j in range(i + _TILE, n, _TILE):
            inv[i : i + _TILE, j : j + _TILE] = inv[j : j + _TILE, i : i + _TILE].T
    # Exactly symmetric now, so the transpose is the same matrix in C order.
    return inv.T


def recalibrate(s0_expanded: np.ndarray, y0: LabelMatrix, gamma: float) -> AnalyticClassifier:
    """Fit the first-task ridge solution and materialize its inverse factor.

    The weight solve goes through a Cholesky factorization of the
    regularized Gram matrix; only the carried autocorrelation state is
    materialized as an explicit inverse.
    """
    if gamma <= 0:
        raise InvalidRegularizerError(f"ridge parameter must be > 0, got {gamma}")
    s = _check_batch(s0_expanded, y0)
    if s.shape[0] < 1:
        raise ShapeError("recalibration needs at least one sample")
    e = s.shape[1]
    factor = _spd_factor(s.T @ s + gamma * np.eye(e))
    weights = cho_solve(factor, s.T @ y0.onehot)
    afam = Afam(matrix=_materialize_inverse(factor), gamma=float(gamma))
    registry = {cid: j for j, cid in enumerate(y0.class_ids)}
    return AnalyticClassifier(weights=weights, afam=afam, class_registry=registry, tasks_seen=1)


def update(
    c: AnalyticClassifier,
    s_t_expanded: np.ndarray,
    y_t: LabelMatrix,
    allow_registered: bool = False,
) -> AnalyticClassifier:
    """Absorb one task's batch; touches no data from earlier tasks.

    Returns a new classifier whose weights equal the joint ridge solution
    over every batch seen so far. By default the batch's classes must be
    new; with ``allow_registered`` a batch may re-present registered
    classes (sample streaming), whose columns then also receive the
    batch's label correlations.
    """
    s = _check_batch(s_t_expanded, y_t)
    e = c.expansion_size
    if s.shape[1] != e:
        raise ShapeError(f"expected expanded width {e}, got {s.shape[1]}")
    seen = [cid for cid in y_t.class_ids if cid in c.class_registry]
    if seen and not allow_registered:
        raise ClassCollisionError(f"class ids already registered: {seen}")
    new_ids = [cid for cid in y_t.class_ids if cid not in c.class_registry]

    n = s.shape[0]
    if n == 0 and not new_ids:
        return c
    if n == 0:
        # Registration-only batch: no rows, so the autocorrelation and the
        # existing columns are untouched and new columns are exactly zero.
        weights = np.hstack([c.weights, np.zeros((e, len(new_ids)))])
        registry = dict(c.class_registry)
        for cid in new_ids:
            registry[cid] = len(registry)
        return replace(c, weights=weights, class_registry=registry, tasks_seen=c.tasks_seen + 1)

    a_prev = c.afam.matrix
    sa = s @ a_prev  # n x E
    k = np.eye(n) + sa @ s.T
    try:
        np.linalg.cholesky(k)  # positive-definiteness guard; n^3/3 flops
    except np.linalg.LinAlgError:
        raise DataError("the Woodbury kernel I + S A S^T is not positive definite") from None
    ksa = np.linalg.solve(k, sa)  # K^-1 S A_{t-1}
    a_new = sa.T @ ksa
    np.subtract(a_prev, a_new, out=a_new)
    _symmetrize(a_new)  # bound asymmetry drift over long runs

    ast = ksa.T  # E x n: A_t S'T = A_{t-1} S'T K^-1
    weights = c.weights - ast @ (s @ c.weights)
    correlations = ast @ y_t.onehot  # E x k, columns ordered as y_t.class_ids
    registry = dict(c.class_registry)
    new_cols = []
    for j, cid in enumerate(y_t.class_ids):
        if cid in registry:
            weights[:, registry[cid]] += correlations[:, j]
        else:
            registry[cid] = len(registry)
            new_cols.append(correlations[:, j])
    if new_cols:
        weights = np.hstack([weights, np.column_stack(new_cols)])
    return AnalyticClassifier(
        weights=weights,
        afam=Afam(matrix=a_new, gamma=c.afam.gamma),
        class_registry=registry,
        tasks_seen=c.tasks_seen + 1,
    )


def joint_solve(batches, gamma: float) -> AnalyticClassifier:
    """Solve the ridge problem over all batches at once (the oracle path).

    Targets stack block-diagonally: each batch's labels occupy its own
    classes' columns and contribute zero everywhere else, with columns
    placed by global registration order.
    """
    if gamma <= 0:
        raise InvalidRegularizerError(f"ridge parameter must be > 0, got {gamma}")
    if not batches:
        raise ShapeError("joint solve needs at least one batch")
    checked = []
    e = None
    registry: dict[int, int] = {}
    for s, y in batches:
        s = _check_batch(s, y)
        if e is None:
            e = s.shape[1]
        elif s.shape[1] != e:
            raise ShapeError(f"inconsistent expanded widths: {e} vs {s.shape[1]}")
        for cid in y.class_ids:
            if cid in registry:
                raise ClassCollisionError(f"class id {cid} appears in more than one batch")
            registry[cid] = len(registry)
        checked.append((s, y))
    gram = gamma * np.eye(e)
    rhs = np.zeros((e, len(registry)))
    for s, y in checked:
        gram += s.T @ s
        cols = [registry[cid] for cid in y.class_ids]
        rhs[:, cols] += s.T @ y.onehot
    factor = _spd_factor(gram)
    weights = cho_solve(factor, rhs)
    afam = Afam(matrix=_materialize_inverse(factor), gamma=float(gamma))
    return AnalyticClassifier(
        weights=weights, afam=afam, class_registry=registry, tasks_seen=len(checked)
    )


def afam_direct(batches, gamma: float, expansion_size: int | None = None) -> Afam:
    """Regularized inverse Gram over the given batches, computed directly.

    With no batches the expansion size must be given and the result is
    ``(1/gamma) I``. This is the reference the recursive updates are
    checked against.
    """
    if gamma <= 0:
        raise InvalidRegularizerError(f"ridge parameter must be > 0, got {gamma}")
    e = expansion_size
    mats = []
    for s in batches:
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2:
            raise ShapeError("feature matrix must be 2-D")
        if e is None:
            e = s.shape[1]
        elif s.shape[1] != e:
            raise ShapeError(f"inconsistent expanded widths: {e} vs {s.shape[1]}")
        mats.append(s)
    if e is None:
        raise ShapeError("expansion size required when no batches are given")
    gram = gamma * np.eye(e)
    for s in mats:
        gram += s.T @ s
    return Afam(matrix=_materialize_inverse(_spd_factor(gram)), gamma=float(gamma))


def predict(c: AnalyticClassifier, x_expanded: np.ndarray) -> np.ndarray:
    """Global class id of the best-scoring column per row.

    Ties resolve to the lowest column index, i.e. the earliest-registered
    class, so predictions are deterministic.
    """
    if c.n_classes < 1:
        raise UntrainedClassifierError("classifier has no registered classes")
    x = np.asarray(x_expanded, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != c.expansion_size:
        raise ShapeError(f"expected n x {c.expansion_size} features, got {x.shape}")
    cols = np.argmax(x @ c.weights, axis=1)
    ids = np.asarray(c.column_classes(), dtype=np.int64)
    return ids[cols]
