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

``update`` evaluates this in square-root form. With the Cholesky factor
``K = I + S' A_{t-1} S'T = L L^T`` and

    Z = L^-1 [S' A_{t-1} | S' W | Y] = [Z_a | Z_w | Z_y],

the refresh is ``A_t = A_{t-1} - Z_a^T Z_a``, and since
``A_t S'T = Z_a^T L^-1`` the weight step is ``W - Z_a^T Z_w`` with new
columns ``Z_a^T Z_y``. ``Z_a^T Z_a`` is symmetric by construction, so only
its upper triangle is computed, one GEMM per row panel of ``_PANEL`` rows
(about half the flops of the whole product), and then mirrored onto the
lower triangle. No averaging ``(A + A^T) / 2`` is needed: the rounding
error in ``Z_a`` enters both factors of ``Z_a^T Z_a`` alike, so its
triangles differ only by GEMM summation order. In the one-sided product
``(S'A)^T (K^-1 S'A)`` the solve's error enters one factor only;
averaging its triangles halved the antisymmetric part, and mirroring it
instead lost accuracy. The left operand of each panel GEMM is a copy, because numpy
sends ``X.T @ X`` on one buffer to a syrk path that is slower here.

``Z`` comes from one in-place triangular solve (BLAS ``trsm``) on the
buffer that holds ``[S' A_{t-1} | S' W | Y]``. Its cost per right-hand
column is that of a GEMM column, so with ``S W`` among the columns the
update does not grow with the class count C beyond the GEMMs themselves.

Wherever ``A`` is formed directly from a Cholesky factor ``L`` of the
regularized Gram matrix, LAPACK ``potri`` computes ``(L L^T)^-1`` from
``L`` in place, and the triangle it fills is mirrored onto the other.
The Gram matrix is factored in place too (``potrf``), and the first-fit
weights are solved in place (``potrs``).

All of this runs on one LAPACK: numpy's own OpenBLAS. numpy exposes no
triangular solve, Cholesky solve or Cholesky inverse, so ``lapack`` binds
those few routines from the library numpy already loaded. A second
LAPACK (scipy's, for instance) would bring its own OpenBLAS and its own
thread pool; after a call into it those workers keep spinning, so numpy's
GEMMs right after it compete with them for the same cores.

Column order follows class registration order: classes are assigned
columns in the order their batches first present them.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import lapack
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
        ids = np.unique(labels) if class_ids is None else np.asarray(list(class_ids), dtype=np.int64)
        hits = labels[:, None] == ids  # the one-hot pattern, one lookup per column
        missing = ~hits.any(axis=1)
        if missing.any():
            raise DataError(f"label {labels[missing][0]} not among declared class ids")
        return cls(onehot=hits.astype(np.float64), class_ids=tuple(ids.tolist()))

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


# Edge of the square tiles ``_mirror_upper`` copies: a pair of 64 x 64 float64
# tiles (64 KiB) stays in cache while one is read transposed.
_TILE = 64
_BELOW_DIAGONAL = np.tri(_TILE, k=-1, dtype=bool)
# Height of the row panels in which ``update`` computes the upper triangle of
# the refreshed state. Each panel costs one GEMM; together they do about
# n * E * _PANEL / 2 multiply-adds more than half the full product.
_PANEL = 256
# Scores ``predict`` computes per block of rows (256 KiB of float64). One
# product over a whole run's test rows raised the peak RSS of the
# ``features`` benchmark by about 10 MB; blocks of this size add nothing
# measurable there and are still large enough to be efficient GEMMs.
_SCORE_BLOCK = 1 << 15


def _mirror_upper(x: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of square ``x`` onto its lower one, in place.

    Tile by tile, so the transposed walk stays in cache; the diagonal and
    the upper triangle are left untouched. Returns ``x``.
    """
    n = x.shape[0]
    for i in range(0, n, _TILE):
        d = x[i : i + _TILE, i : i + _TILE]
        np.copyto(d, d.T, where=_BELOW_DIAGONAL[: len(d), : len(d)])
        for j in range(i + _TILE, n, _TILE):
            x[j : j + _TILE, i : i + _TILE] = x[i : i + _TILE, j : j + _TILE].T
    return x


def _spd_factor(g: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric ``g``, computed in place.

    Consumes ``g``: LAPACK factors its Fortran-ordered transpose ``g.T``
    without a copy, and returns that view, whose lower triangle now holds
    the factor.
    """
    factor = g.T
    if lapack.potrf("L", factor) != 0:
        raise DataError("the regularized Gram matrix is not positive definite")
    return factor


def _materialize_inverse(factor: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``L L^T`` from its lower Cholesky factor.

    ``potri`` fills the lower triangle of the Fortran-ordered factor, which
    is the upper triangle of its C-ordered transpose; that is then mirrored.
    Consumes ``factor``: ``potri`` overwrites it.
    """
    info = lapack.potri("L", factor)
    if info != 0:
        raise DataError(f"cannot invert the regularized Gram matrix (LAPACK potri info={info})")
    return _mirror_upper(factor.T)


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
    g = s.T @ s
    g.flat[:: e + 1] += gamma
    factor = _spd_factor(g)
    weights = (y0.onehot.T @ s).T  # S'T Y, Fortran-ordered for the in-place solve
    lapack.potrs("L", factor, weights)
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
    n_cols = c.n_classes
    rhs = np.empty((n, e + n_cols + y_t.onehot.shape[1]))  # [S A_{t-1} | S W | Y]
    np.matmul(s, a_prev, out=rhs[:, :e])
    np.matmul(s, c.weights, out=rhs[:, e : e + n_cols])
    rhs[:, e + n_cols :] = y_t.onehot
    k = np.eye(n) + rhs[:, :e] @ s.T
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise DataError("the Woodbury kernel I + S A S^T is not positive definite") from None
    # Z = L^-1 [S A_{t-1} | S W | Y] in place: as Fortran-ordered matrices,
    # rhs.T is its transpose and chol.T is L^T, so Z^T = rhs.T (L^T)^-1
    lapack.trsm("R", "U", "N", "N", 1.0, chol.T, rhs.T)
    z = rhs
    za = z[:, :e]

    a_new = np.empty((e, e))
    for i in range(0, e, _PANEL):
        panel = a_new[i : i + _PANEL, i:]
        # a copied left operand keeps numpy off its slower syrk path
        np.matmul(za[:, i : i + _PANEL].T.copy(), za[:, i:], out=panel)
        np.subtract(a_prev[i : i + _PANEL, i:], panel, out=panel)
    _mirror_upper(a_new)

    step = za.T @ z[:, e:]  # A_t S'T [S W | Y] = Z_a^T L^-1 [S W | Y]
    weights = np.empty((e, n_cols + len(new_ids)))
    np.subtract(c.weights, step[:, :n_cols], out=weights[:, :n_cols])
    correlations = step[:, n_cols:]  # E x k, columns ordered as y_t.class_ids
    registry = dict(c.class_registry)
    for j, cid in enumerate(y_t.class_ids):
        if cid in registry:
            weights[:, registry[cid]] += correlations[:, j]
        else:
            registry[cid] = len(registry)
            weights[:, registry[cid]] = correlations[:, j]
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
    rhs = np.zeros((e, len(registry)), order="F")  # solved in place
    for s, y in checked:
        gram += s.T @ s
        cols = [registry[cid] for cid in y.class_ids]
        rhs[:, cols] += s.T @ y.onehot
    factor = _spd_factor(gram)
    lapack.potrs("L", factor, rhs)
    afam = Afam(matrix=_materialize_inverse(factor), gamma=float(gamma))
    return AnalyticClassifier(
        weights=rhs, afam=afam, class_registry=registry, tasks_seen=len(checked)
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
        if not np.all(np.isfinite(s)):
            # potrf does not flag NaN, so the inverse would come back NaN
            raise DataError("feature matrix contains non-finite entries")
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
    block = max(1, _SCORE_BLOCK // c.n_classes)
    cols = np.empty(x.shape[0], dtype=np.intp)
    for i in range(0, x.shape[0], block):
        cols[i : i + block] = np.argmax(x[i : i + block] @ c.weights, axis=1)
    ids = np.asarray(c.column_classes(), dtype=np.int64)
    return ids[cols]
