"""Analytic ridge classifier with exemplar-free recursive task updates.

The classifier is fit in closed form on expanded features. The first fit
(``recalibrate``) is ``joint_solve`` of one task whose rows arrive as an
iterable of row blocks: the weights solve the ridge system

    W = (S'T S' + gamma I)^-1 S'T Y

and the inverse factor itself,

    A = (S'T S' + gamma I)^-1,

is carried forward as the feature autocorrelation state. Each block is
added to ``NormalEquations`` and dropped before the next is read, so the
first task's rows are never held whole: the first fit holds ``G`` (E x E)
and one block. ``G`` starts as ``gamma I`` and lives in one triangle; one
BLAS ``syrk`` per block adds ``S'T S'`` to that triangle in place, and
``potrf`` then factors it where it lies. Every later batch refreshes
``A`` through the Woodbury identity using only that batch's rows,

    A_t = A_{t-1} - A_{t-1} S'T (I + S' A_{t-1} S'T)^-1 S' A_{t-1},

and moves the weights by ``A_t S'T (Y - S' W)``, with ``W`` padded by a
zero column for each class the batch registers. The result is
algebraically identical to re-solving the joint ridge problem over every
batch seen so far, without retaining any past rows. ``NormalEquations``
holds that joint system, E^2 + E*C numbers whatever the rows added, and
is the oracle of tests and ``oracle_check``. Solving it for the weights
alone keeps ``G``: its triangle is copied into the spare one and its
diagonal aside, the triangle is factored in place, and both are copied
back, so no E x E copy of ``G`` is made and the next batch adds to ``G``
itself. The factor is that of the first fit, so both round alike.

``update`` evaluates this in square-root form. With the Cholesky factor
``K = I + S' A_{t-1} S'T = L L^T`` and

    Z = L^-1 [S' A_{t-1} | Y - S' W] = [Z_a | Z_r],

the refresh is ``A_t = A_{t-1} - Z_a^T Z_a``, and since
``A_t S'T = Z_a^T L^-1`` the new weights are ``W + Z_a^T Z_r``. Every
batch takes this one step: a batch without rows has a 0 x 0 kernel,
leaves ``A`` as it was and adds a zero column per class it registers.
``Z_a^T Z_a`` is symmetric by construction, so one BLAS ``syrk`` call
subtracts it from the upper triangle of ``A_{t-1}``'s own buffer (half
the flops of the whole product), which is then mirrored onto the lower
triangle. ``update`` therefore consumes its input: the new classifier
holds that buffer. numpy's ``X.T @ X`` would allocate a fresh E x E
result and fill both triangles; the direct ``syrk`` into ``A``, like the
one into ``G``, does neither. No averaging ``(A + A^T) / 2`` is needed:
the rounding error in ``Z_a`` enters both factors of ``Z_a^T Z_a``
alike, so its triangles differ only by summation order. In the one-sided product
``(S'A)^T (K^-1 S'A)`` the solve's error enters one factor only;
averaging its triangles halved the antisymmetric part, and mirroring it
instead lost accuracy.

LAPACK ``potrf`` factors ``K``, symmetric only to roundoff, in place from
its lower triangle. ``Z`` comes from one in-place triangular solve (BLAS
``trsm``) on the buffer that holds ``[S' A_{t-1} | Y - S' W]``. Its cost
per right-hand column is that of a GEMM column, so the C target columns
add no more to the update than the GEMMs that form them.

Wherever ``A`` is formed directly from a Cholesky factor ``L`` of the
regularized Gram matrix, LAPACK ``potri`` computes ``(L L^T)^-1`` from
``L`` in place, and the triangle it fills is mirrored onto the other.
The Gram matrix is factored in place too (``potrf``, from the triangle
``syrk`` filled), and the first-fit weights are solved in place by two
triangular solves (``trsm``).

All of this runs on one LAPACK: numpy's own OpenBLAS. numpy exposes no
in-place Cholesky, triangular solve, Cholesky inverse or rank-k update,
so ``lapack`` binds those few routines from the library numpy already
loaded. A second LAPACK (scipy's, for instance) would bring its own
OpenBLAS and its own thread pool; after a call into it those workers keep
spinning, so numpy's GEMMs right after it compete with them for the same
cores.

Column order follows class registration order: ``update`` and
``NormalEquations`` alike give a class the next free column when a batch
first presents it. A class presented again keeps its column, which then
sums the label correlations of every batch that holds it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import DataError, ShapeError, StateError


def _whole(values, what: str) -> np.ndarray:
    """``values`` as int64; one fractional, or outside int64, raises ``DataError`` naming it as ``what``."""
    values = np.asarray(values)
    if values.dtype.kind not in "bi":  # a cast to int64 would truncate 1.5 to 1 and wrap uint64 2**63 to -2**63
        real = values.astype(np.float64)
        whole = np.isfinite(real) & (real == np.trunc(real))
        if not whole.all():
            raise DataError(f"{what} {values[~whole][0]} is not an integer")
        inside = (values >= -(2**63)) & (values < 2**63)  # exact for uint64 and Python ints, as floats are not
        if not inside.all():
            raise DataError(f"{what} {values[~inside][0]} is outside int64")
    return values.astype(np.int64, copy=False)


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
        class_ids = tuple(_whole(self.class_ids, "class id").tolist())
        if len(set(class_ids)) != len(class_ids):
            raise DataError("duplicate class ids within one batch")
        if y.size and not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("label entries must be 0 or 1")
        if y.shape[0] and not np.all(y.sum(axis=1) == 1.0):
            raise DataError("each label row must contain exactly one 1")
        object.__setattr__(self, "onehot", y)
        object.__setattr__(self, "class_ids", class_ids)

    @classmethod
    def from_labels(cls, labels, class_ids=None) -> "LabelMatrix":
        """Build one-hot targets from integer labels; a label or class id with a fractional part raises ``DataError``.

        ``class_ids`` fixes the column order (and may declare classes with
        no samples); by default columns follow sorted unique labels.
        """
        labels = _whole(labels, "label")
        # not np.unique: the first use of its hash table adds about 1 MB to peak RSS
        ids = (
            np.asarray(sorted(set(labels.tolist())), dtype=np.int64)
            if class_ids is None
            else _whole(list(class_ids), "class id")
        )
        hits = labels[:, None] == ids  # the one-hot pattern, one lookup per column
        missing = ~hits.any(axis=1)
        if missing.any():
            raise DataError(f"label {labels[missing][0]} not among declared class ids")
        return cls(onehot=hits.astype(np.float64), class_ids=tuple(ids.tolist()))

    @property
    def rows(self) -> int:
        return self.onehot.shape[0]


@dataclass
class AnalyticClassifier:
    """Closed-form classifier state: weights, autocorrelation, class ids.

    ``update`` consumes the state it is given: the refreshed ``afam`` is
    written over the input's, whose ``afam`` then becomes None. The
    input's weights stay valid for ``predict``.
    """

    weights: np.ndarray  # E x C
    afam: np.ndarray | None  # E x E, the regularized inverse Gram matrix; None if consumed or weights-only
    gamma: float
    class_ids: tuple[int, ...] = ()  # global ids in column order
    tasks_seen: int = 0

    @property
    def expansion_size(self) -> int:
        return self.weights.shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    def column_classes(self) -> list[int]:
        """Global class ids in column order."""
        return list(self.class_ids)

    def state_elements(self) -> int:
        """Persistent cross-task state size: E^2 + E*C + class ids."""
        e, c = self.weights.shape
        return e * e + e * c + len(self.class_ids)


def _check_batch(s: np.ndarray, y: LabelMatrix) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError("feature matrix must be 2-D")
    if s.shape[0] != y.rows:
        raise ShapeError(f"{s.shape[0]} feature rows but {y.rows} label rows")
    if not np.all(np.isfinite(s)):
        raise DataError("feature matrix contains non-finite entries")
    return s


def _register(class_ids: tuple[int, ...], batch_ids) -> tuple[tuple[int, ...], list[int]]:
    """``class_ids`` with the batch's new ids appended, and the columns of the batch's ids.

    A class takes the next free column when a batch first presents it and
    keeps that column when a later batch presents it again.
    """
    col = {cid: j for j, cid in enumerate(class_ids)}
    cols = [col.setdefault(cid, len(col)) for cid in batch_ids]
    return tuple(col), cols


# Edge of the square tiles ``_mirror_upper`` copies: a pair of 64 x 64 float64
# tiles (64 KiB) stays in cache while one is read transposed.
_TILE = 64
_BELOW_DIAGONAL = np.tri(_TILE, k=-1, dtype=bool)
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


def _spd_factor(g: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of symmetric Fortran-ordered ``g``, computed in place.

    Consumes ``g``: LAPACK reads its lower triangle and writes the factor
    over it. Returns ``g``. ``name`` names the matrix in the error raised
    when it is not positive definite.
    """
    if lapack.potrf("L", g) != 0:
        raise DataError(f"{name} is not positive definite")
    return g


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


def recalibrate(blocks, gamma: float) -> AnalyticClassifier:
    """Fit the first task in closed form: ``joint_solve`` of that one task.

    ``blocks`` yields the task's rows as ``(S', Y)`` row blocks; each is
    added to the normal equations before the next is read. The result has
    ``tasks_seen == 1``.
    """
    normal = NormalEquations(gamma)
    normal.add(blocks)
    if normal.rows < 1:
        raise ShapeError("recalibration needs at least one sample")
    return normal.solve()


def update(c: AnalyticClassifier, s_t_expanded: np.ndarray, y_t: LabelMatrix) -> AnalyticClassifier:
    """Absorb one task's batch; touches no data from earlier tasks.

    Returns a new classifier whose weights equal the joint ridge solution
    over every batch seen so far. Consumes ``c``: the new state is written
    over ``c.afam``, which becomes None, while ``c.weights`` stay valid.
    A batch that is rejected leaves ``c`` as it was. A batch may
    re-present registered classes (sample streaming); their columns then
    also receive the batch's label correlations, as in ``joint_solve``.
    """
    if c.afam is None:
        raise StateError(
            "this classifier has no autocorrelation state: it was consumed by an earlier update, "
            "or solved for its weights only; update the result of the last update"
        )
    s = _check_batch(s_t_expanded, y_t)
    e = c.expansion_size
    if s.shape[1] != e:
        raise ShapeError(f"expected expanded width {e}, got {s.shape[1]}")
    class_ids, cols = _register(c.class_ids, y_t.class_ids)
    n = s.shape[0]
    n_cols = c.n_classes
    a = np.require(c.afam, np.float64, "CW")  # written over; a copy only if afam is not writeable C-ordered float64
    rhs = np.empty((n, e + len(class_ids)))  # [S A_{t-1} | Y - S W], W padded with zero columns
    np.matmul(s, a, out=rhs[:, :e])
    r = rhs[:, e:]
    np.matmul(s, c.weights, out=r[:, :n_cols])
    # not np.negative(out=): numpy 2.4 miscomputes it on some strided views
    r[:, :n_cols] *= -1.0
    r[:, n_cols:] = 0.0
    r[:, cols] += y_t.onehot
    k = np.add(np.eye(n), rhs[:, :e] @ s.T, order="F")  # Fortran-ordered: potrf reads K's lower triangle
    chol = _spd_factor(k, "the Woodbury kernel I + S A S^T")
    # Z = L^-1 [S A_{t-1} | Y - S W] in place: the Fortran-ordered rhs.T is
    # its transpose, so Z^T = rhs.T (L^T)^-1
    lapack.trsm("R", "L", "T", "N", 1.0, chol, rhs.T)
    za = rhs[:, :e]

    c.afam = None  # consumed: nothing below can raise, and A_t is written over A_{t-1}
    # A_t = A_{t-1} - Z_a^T Z_a on the upper triangle of C-ordered A, which is
    # the lower one of its Fortran-ordered transpose
    lapack.syrk("L", "N", -1.0, za.T, 1.0, a.T)
    _mirror_upper(a)

    weights = za.T @ rhs[:, e:]  # A_t S'T (Y - S W) = Z_a^T Z_r
    weights[:, :n_cols] += c.weights
    return AnalyticClassifier(
        weights=weights, afam=a, gamma=c.gamma, class_ids=class_ids, tasks_seen=c.tasks_seen + 1
    )


class NormalEquations:
    """The ridge system ``G W = B``, ``G = sum S'T S' + gamma I`` and ``B = sum S'T Y``, of the tasks added.

    ``G`` is kept in the upper triangle of the C-ordered ``gram``, which
    is the lower one of its Fortran-ordered transpose that ``syrk`` and
    ``potrf`` read; its strict lower triangle is scratch space.
    """

    def __init__(self, gamma: float):
        if not (math.isfinite(gamma) and gamma > 0):
            raise DataError(f"ridge parameter must be finite and > 0, got {gamma}")
        self.gamma = float(gamma)
        self.gram = self.rhs = None
        self.class_ids: tuple[int, ...] = ()
        self.tasks_seen = 0
        self.rows = 0

    def add(self, blocks) -> None:
        """Add one task, given as an iterable of ``(S', Y)`` row blocks, one block at a time."""
        for s_expanded, y in blocks:
            # C-ordered, so s.T is the Fortran-ordered operand syrk reads
            s = np.require(_check_batch(s_expanded, y), np.float64, "CW")
            e = s.shape[1]
            if self.rhs is None:
                # numpy advises huge pages for arrays of 4 MiB or more (E >= 725); where the kernel
                # takes the advice, writing the diagonal maps all of G, spare triangle too
                # (+130 MB of RSS at E=4096 with transparent huge pages in madvise mode)
                self.gram = np.zeros((e, e))
                self.gram.flat[:: e + 1] = self.gamma
                self.rhs = np.zeros((e, 0))
            elif e != len(self.rhs):
                raise ShapeError(f"inconsistent expanded widths: {len(self.rhs)} vs {e}")
            lapack.syrk("L", "N", 1.0, s.T, 1.0, self.gram.T)
            self.class_ids, cols = _register(self.class_ids, y.class_ids)
            self.rhs = np.pad(self.rhs, ((0, 0), (0, len(self.class_ids) - self.rhs.shape[1])))
            self.rhs[:, cols] += s.T @ y.onehot
            self.rows += len(s)
        self.tasks_seen += 1

    def solve(self, inverse: bool = True) -> AnalyticClassifier:
        """The weights; ``inverse`` also forms ``A = G^-1`` over ``G``, spending it, else ``G`` is kept.

        Either way ``G``'s triangle is factored in place, so a first fit and
        the weights-only solve of the same blocks give the same bits. To keep
        ``G``, its triangle is first copied into the spare one and its
        diagonal aside, and both are copied back after the solve.
        """
        if self.gram is None:
            raise ShapeError("no system to solve: no batch was added, or it was solved in place")
        gram = self.gram
        if inverse:
            self.gram = None
        else:
            diagonal = gram.diagonal().copy()
            _mirror_upper(gram)
        try:
            factor = _spd_factor(gram.T, "the regularized Gram matrix")
            rhs = self.rhs.copy(order="F")  # solved in place
            lapack.trsm("L", "L", "N", "N", 1.0, factor, rhs)  # L L^T W = S'T Y
            lapack.trsm("L", "L", "T", "N", 1.0, factor, rhs)
        finally:
            if not inverse:
                _mirror_upper(gram.T)  # G's triangle back from the spare one
                gram.flat[:: len(gram) + 1] = diagonal
        afam = _materialize_inverse(factor) if inverse else None
        return AnalyticClassifier(
            weights=rhs, afam=afam, gamma=self.gamma, class_ids=self.class_ids, tasks_seen=self.tasks_seen
        )


def joint_solve(batches, gamma: float) -> AnalyticClassifier:
    """Solve the ridge problem over all batches at once: ``NormalEquations`` of them, solved in place.

    Each ``(S', Y)`` batch is one task.
    """
    normal = NormalEquations(gamma)
    for batch in batches:
        normal.add([batch])
    return normal.solve()


def predict(c: AnalyticClassifier, x_expanded: np.ndarray) -> np.ndarray:
    """Global class id of the best-scoring column per row.

    Ties resolve to the lowest column index, i.e. the earliest-registered
    class, so predictions are deterministic.
    """
    if c.n_classes < 1:
        raise ShapeError("classifier has no registered classes")
    x = np.asarray(x_expanded, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != c.expansion_size:
        raise ShapeError(f"expected n x {c.expansion_size} features, got {x.shape}")
    block = max(1, _SCORE_BLOCK // c.n_classes)
    cols = np.empty(x.shape[0], dtype=np.intp)
    for i in range(0, x.shape[0], block):
        cols[i : i + block] = np.argmax(x[i : i + block] @ c.weights, axis=1)
    ids = np.asarray(c.class_ids, dtype=np.int64)
    return ids[cols]
