"""Analytic ridge classifier with exemplar-free recursive task updates.

The classifier is fit in closed form on expanded features. The first fit
(``recalibrate``) is ``joint_solve`` of one task whose rows arrive as an
iterable of row blocks: the weights solve the ridge system

    W = (S'T S' + gamma I)^-1 S'T Y

and the inverse factor itself,

    A = (S'T S' + gamma I)^-1,

is carried forward as the feature autocorrelation state. Each block is
added to ``NormalEquations`` and dropped before the next is read, so the
first task's rows are never held whole: the first fit holds ``G`` and one
block. Every later batch refreshes ``A`` through the Woodbury identity
using only that batch's rows,

    A_t = A_{t-1} - A_{t-1} S'T (I + S' A_{t-1} S'T)^-1 S' A_{t-1},

and moves the weights by ``A_t S'T (Y - S' W)``, with ``W`` padded by a
zero column for each class the batch registers. The result is
algebraically identical to re-solving the joint ridge problem over every
batch seen so far, without retaining any past rows.

So the first task can also be fit by ``update`` from ``prior``, the
state before any row: ``A = I/gamma``, no classes. For n rows that
costs about 3nE^2 + 3n^2 E flops against the Gram route's nE^2 + E^3,
and holds the n x E batch whole instead of reading it in blocks. The
task loop takes this kernel route when ``3n < E``, where it is the
cheaper of the two; its weights also stay closer to the ridge solution
there, as they never pass through an E x E factor of condition
cond(G).

The symmetric ``A`` and ``G`` are each held once, in LAPACK's rectangular
full packed (RFP) storage: one triangle, E(E+1)/2 numbers, as a 1-D
array (``lapack``'s one layout). The blocks of that array are ordinary
strided matrices, so every routine on it runs at Level-3 speed, and the
other triangle is never formed. ``full_afam`` unpacks ``A`` into a full
E x E array for readers that want one.

``NormalEquations`` holds the joint system, E(E+1)/2 + E*C numbers
whatever the rows added, and is the oracle of tests and
``oracle_check``. ``G`` starts as ``gamma`` on the RFP diagonal; one
``sfrk`` per block adds ``S'T S'`` to it in place. ``pftrf`` factors it,
``pftrs`` solves for the weights and ``pftri`` forms ``A`` over the
factor. Solving for the weights alone factors a copy of ``G`` (E^2/2
numbers) and keeps ``G``, so the next batch adds to ``G`` itself; the
copy is factored by the same routine as the first fit's ``G``, so both
round alike.

``update`` evaluates the Woodbury step in square-root form. With the
Cholesky factor ``K = I + S' A_{t-1} S'T = L L^T`` and

    Z = L^-1 [S' A_{t-1} | Y - S' W] = [Z_a | Z_r],

the refresh is ``A_t = A_{t-1} - Z_a^T Z_a``, and since
``A_t S'T = Z_a^T L^-1`` the new weights are ``W + Z_a^T Z_r``. Every
batch takes this one step: a batch without rows has a 0 x 0 kernel,
leaves ``A`` as it was and adds a zero column per class it registers.
``S' A`` is formed from the RFP blocks: BLAS ``symm`` on the two
diagonal triangles and a GEMM each way on the off-diagonal block. The
refresh is one ``sfrk`` on ``A_{t-1}``'s own buffer (half the flops of
the whole product), so ``update`` advances the classifier it is given:
``A_t`` is written over that classifier's ``afam``. ``Z_a^T Z_a`` is
symmetric by construction, and only one triangle of it is ever formed.

The weights grow in place too. ``W`` is the leading C columns of a
Fortran-ordered E x capacity array, whose capacity doubles when a batch
registers more classes than fit. One GEMM writes ``-S' W`` into the
residual, and one more, with beta = 1, adds ``Z_a^T Z_r`` into that
array after the new columns are zeroed. So no update allocates new
weights while the array has room. The classifier records the array its
last update grew, and its weights are written in place only while they
are still that array's leading columns.

LAPACK ``potrf`` factors ``K``, symmetric only to roundoff, in place from
its lower triangle. ``Z`` comes from one in-place triangular solve (BLAS
``trsm``) on the buffer that holds ``[S' A_{t-1} | Y - S' W]``. Its cost
per right-hand column is that of a GEMM column, so the C target columns
add no more to the update than the GEMMs that form them.

All of this runs on one LAPACK: numpy's own OpenBLAS. numpy exposes no
in-place Cholesky, triangular solve, rank-k update or packed storage, so
``lapack`` binds those few routines from the library numpy already
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
from dataclasses import dataclass, field

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

    ``update`` advances the classifier in place; ``copy.deepcopy`` one to
    branch from it.
    """

    weights: np.ndarray  # E x C, after an update the leading columns of _grown
    # the regularized inverse Gram matrix in RFP storage, E(E+1)/2 numbers; None if weights-only
    afam: np.ndarray | None
    gamma: float
    class_ids: tuple[int, ...] = ()  # global ids in column order
    tasks_seen: int = 0
    # the Fortran-ordered E x capacity array the last update wrote the weights into
    _grown: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
        """Cross-task state size as a snapshot stores it, E(E+1)/2 + E*C + C; unused weight columns not counted."""
        e, c = self.weights.shape
        return e * (e + 1) // 2 + e * c + len(self.class_ids)


def _no_state(c: AnalyticClassifier) -> None:
    if c.afam is None:
        raise StateError("this classifier was solved for its weights only and has no autocorrelation state")


def _weight_buffer(c: AnalyticClassifier, cols: int) -> np.ndarray:
    """A Fortran-ordered E x capacity array whose leading columns hold ``c.weights``, with room for ``cols`` columns.

    That is ``c._grown`` while ``c.weights`` still views it and it has the
    room. Otherwise it is a new array with twice the capacity, or ``cols``
    columns if that is more, into which the weights are copied.
    """
    w = c.weights
    if c._grown is not None and w.base is c._grown:
        if c._grown.shape[1] >= cols:
            return c._grown
        room = c._grown.shape[1]
    else:
        room = w.shape[1]
    grown = np.empty((w.shape[0], max(cols, 2 * room)), order="F")
    grown[:, : w.shape[1]] = w
    return grown


def full_afam(c: AnalyticClassifier) -> np.ndarray:
    """``c``'s state ``A`` unpacked into a new full symmetric E x E array."""
    _no_state(c)
    lower = lapack.tfttr(np.require(c.afam, np.float64, "CW"))
    return lower + np.tril(lower, -1).T


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


# Scores ``predict`` computes per block of rows (256 KiB of float64). One
# product over a whole run's test rows raised the peak RSS of the
# ``features`` benchmark by about 10 MB; blocks of this size add nothing
# measurable there and are still large enough to be efficient GEMMs.
_SCORE_BLOCK = 1 << 15


def _rfp_blocks(ar: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks of the order-``e`` RFP array ``ar``, as Fortran-ordered views.

    With ``e1 = e - e // 2``, the matrix is ``[[A11, A21^T], [A21, A22]]``
    with ``A11`` of order ``e1``. Returns ``A11`` (its lower triangle
    holds it), ``A22`` (its upper triangle) and ``A21`` (e // 2 x e1).
    Odd ``e`` puts them otherwise in the array than even ``e``.
    """
    if lapack.rfp_order(ar) != e:
        raise ShapeError(f"expected the RFP array of an order-{e} matrix, got {ar.size} numbers")
    e2 = e // 2
    e1 = e - e2
    odd = e % 2
    f = ar.reshape(-1, e if odd else e + 1).T
    return f[1 - odd : 1 - odd + e1, :e1], f[:e2, odd : odd + e2], f[e1 + 1 - odd :, :e1]


def _spd_factor(g: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of symmetric ``g``, computed in place.

    ``g`` is Fortran-ordered, of which LAPACK reads the lower triangle,
    or an RFP array. Consumes ``g``: the factor is written over it.
    Returns ``g``. ``name`` names the matrix in the error raised when it
    is not positive definite.
    """
    if (lapack.pftrf(g) if g.ndim == 1 else lapack.potrf("L", g)) != 0:
        raise DataError(f"{name} is not positive definite")
    return g


def _materialize_inverse(factor: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``L L^T`` in RFP from its RFP Cholesky factor.

    Consumes ``factor``: ``pftri`` writes the inverse over it. Returns it.
    """
    info = lapack.pftri(factor)
    if info != 0:
        raise DataError(f"cannot invert the regularized Gram matrix (LAPACK pftri info={info})")
    return factor


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
    """Absorb one task's batch into ``c``; touches no data from earlier tasks. Returns ``c``.

    Afterwards ``c``'s weights equal the joint ridge solution over every
    batch seen so far. The new state is written over ``c.afam`` and the
    new weights into the array ``c``'s last update grew, growing it when
    it is full (``_weight_buffer``). A batch that is rejected leaves ``c``
    as it was. A batch may re-present registered classes (sample
    streaming); their columns then also receive the batch's label
    correlations, as in ``joint_solve``.
    """
    _no_state(c)
    s = np.require(_check_batch(s_t_expanded, y_t), np.float64, "CW")  # C-ordered: s.T is Fortran-ordered
    e = c.expansion_size
    if s.shape[1] != e:
        raise ShapeError(f"expected expanded width {e}, got {s.shape[1]}")
    class_ids, cols = _register(c.class_ids, y_t.class_ids)
    n = s.shape[0]
    n_cols = c.n_classes
    w = _weight_buffer(c, len(class_ids))  # if it is c's own, written only once nothing below can raise
    a = np.require(c.afam, np.float64, "CW")  # written over; a copy only if afam is not writeable float64
    a11, a22, a21 = _rfp_blocks(a, e)
    e1 = len(a11)
    rhs = np.empty((n, e + len(class_ids)))  # [S A_{t-1} | Y - S W], W padded with zero columns
    sa = rhs[:, :e]
    # S A = [S1 A11 + S2 A21 | S1 A21^T + S2 A22]: a GEMM each way on A21, then
    # symm adds the diagonal blocks; symm on the transposes, A (S1|S2)^T, keeps
    # every operand Fortran-ordered
    np.matmul(s[:, e1:], a21, out=sa[:, :e1])
    np.matmul(s[:, :e1], a21.T, out=sa[:, e1:])
    lapack.symm("L", "L", 1.0, a11, s[:, :e1].T, 1.0, sa[:, :e1].T)
    lapack.symm("L", "U", 1.0, a22, s[:, e1:].T, 1.0, sa[:, e1:].T)
    r = rhs[:, e:]
    lapack.gemm("T", "N", -1.0, w[:, :n_cols], s.T, 0.0, r[:, :n_cols].T)  # -S W, as its transpose
    r[:, n_cols:] = 0.0
    r[:, cols] += y_t.onehot
    k = np.add(np.eye(n), sa @ s.T, order="F")  # Fortran-ordered: potrf reads K's lower triangle
    chol = _spd_factor(k, "the Woodbury kernel I + S A S^T")
    # Z = L^-1 [S A_{t-1} | Y - S W] in place: the Fortran-ordered rhs.T is
    # its transpose, so Z^T = rhs.T (L^T)^-1
    lapack.trsm("R", "L", "T", "N", 1.0, chol, rhs.T)
    za = rhs[:, :e]

    # nothing below can raise
    lapack.sfrk(-1.0, za.T, 1.0, a)  # A_t = A_{t-1} - Z_a^T Z_a
    weights = w[:, : len(class_ids)]
    weights[:, n_cols:] = 0.0
    lapack.gemm("N", "T", 1.0, za.T, rhs[:, e:].T, 1.0, weights)  # W + A_t S'T (Y - S W) = W + Z_a^T Z_r
    c.weights, c.afam, c._grown, c.class_ids = weights, a, w, class_ids
    c.tasks_seen += 1
    return c


def _ridge(gamma: float) -> float:
    """``gamma`` as a float; one not finite and > 0, or whose 1/gamma overflows (in ``A``), raises ``DataError``."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise DataError(f"ridge parameter must be finite and > 0, got {gamma}")
    if not math.isfinite(1.0 / gamma):
        raise DataError(f"ridge parameter {gamma} has no finite inverse")
    return float(gamma)


def _packed_diagonal(e: int, value: float) -> np.ndarray:
    """The RFP array of ``value * I`` of order ``e``."""
    ar = np.zeros(e * (e + 1) // 2)
    for block in _rfp_blocks(ar, e)[:2]:
        np.fill_diagonal(block, value)
    return ar


def prior(e: int, gamma: float) -> AnalyticClassifier:
    """The state before any row: ``A = I/gamma`` of order ``e``, no classes, ``tasks_seen == 0``.

    ``update`` of it by a task's batch fits that task as ``recalibrate``
    does, in about 3nE^2 + 3n^2 E flops for n rows instead of nE^2 + E^3.
    """
    gamma = _ridge(gamma)
    if e < 1:
        raise ShapeError(f"expanded width must be >= 1, got {e}")
    return AnalyticClassifier(weights=np.zeros((e, 0)), afam=_packed_diagonal(e, 1.0 / gamma), gamma=gamma)


class NormalEquations:
    """The ridge system ``G W = B``, ``G = sum S'T S' + gamma I`` and ``B = sum S'T Y``, of the tasks added.

    ``gram`` holds ``G`` in RFP storage.
    """

    def __init__(self, gamma: float):
        self.gamma = _ridge(gamma)
        self.gram = self.rhs = None
        self.class_ids: tuple[int, ...] = ()
        self.tasks_seen = 0
        self.rows = 0

    def add(self, blocks) -> None:
        """Add one task, given as an iterable of ``(S', Y)`` row blocks, one block at a time."""
        for s_expanded, y in blocks:
            # C-ordered, so s.T is the Fortran-ordered operand sfrk reads
            s = np.require(_check_batch(s_expanded, y), np.float64, "CW")
            e = s.shape[1]
            if self.rhs is None:
                self.gram = _packed_diagonal(e, self.gamma)
                self.rhs = np.zeros((e, 0))
            elif e != len(self.rhs):
                raise ShapeError(f"inconsistent expanded widths: {len(self.rhs)} vs {e}")
            lapack.sfrk(1.0, s.T, 1.0, self.gram)
            self.class_ids, cols = _register(self.class_ids, y.class_ids)
            self.rhs = np.pad(self.rhs, ((0, 0), (0, len(self.class_ids) - self.rhs.shape[1])))
            self.rhs[:, cols] += s.T @ y.onehot
            self.rows += len(s)
        self.tasks_seen += 1

    def solve(self, inverse: bool = True) -> AnalyticClassifier:
        """The weights; ``inverse`` also forms ``A = G^-1`` over ``G``, spending it, else ``G`` is kept.

        To keep ``G``, a copy of it is factored. Either way the same routine
        factors the same bits, so a first fit and the weights-only solve of
        the same blocks give the same weights.
        """
        if self.gram is None:
            raise ShapeError("no system to solve: no batch was added, or it was solved in place")
        if inverse:
            factor, self.gram = self.gram, None
        else:
            factor = self.gram.copy()
        _spd_factor(factor, "the regularized Gram matrix")
        weights = self.rhs.copy(order="F")  # solved in place: L L^T W = S'T Y
        lapack.pftrs(factor, weights)
        afam = _materialize_inverse(factor) if inverse else None
        return AnalyticClassifier(
            weights=weights, afam=afam, gamma=self.gamma, class_ids=self.class_ids, tasks_seen=self.tasks_seen
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
