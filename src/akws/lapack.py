"""The few LAPACK and BLAS routines numpy does not expose, from numpy's own OpenBLAS.

numpy's wheels bundle an OpenBLAS built with 64-bit integers (ILP64)
whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix, such as
``scipy_dpotrf_64_``. Binding them through ``ctypes`` gives the package a
Cholesky factor, a triangular solve, a general product written into a
given array, symmetric products and rank-k updates, and the rectangular
full packed (RFP) routines, on the very library, and so the very thread
pool, that runs numpy's ``matmul``.
Symbols are looked up through the handle of numpy's linalg extension
module, which resolves them in the library that module links.

Calls follow the Fortran convention: every argument is passed by
reference, integers are int64, and after the last regular argument each
character argument gets a hidden ``size_t`` length. Matrices are
column-major, so a C-ordered array is passed as its transpose ``a.T``,
which is Fortran-ordered and needs no copy. A column slice of a
Fortran-ordered array, such as the transpose of ``x[:, :k]``, is passed
as it is: its column stride becomes the leading dimension.

A symmetric matrix in RFP storage is a 1-D array of its E(E+1)/2
numbers, in LAPACK's layout for TRANSR="N" and UPLO="L"; the RFP
routines here take that one layout (Gustavson, Wasniewski, Dongarra and
Langou, ACM TOMS 2010).

Supported installs are numpy's own wheels. A numpy built against another
BLAS (a distribution or conda package) lacks these symbols; the first
call then raises ``AkwsError`` naming the symbol and the library searched.
"""

import ctypes
import functools
import math

import numpy as np

from .errors import AkwsError, ShapeError

_PREFIX = "scipy_d"
_SUFFIX = "_64_"

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t

_SIGNATURES = {
    "potrf": (_CHAR, _INT, _DOUBLE, _INT, _INT, _LEN),
    "trsm": (
        _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT,
        _LEN, _LEN, _LEN, _LEN,
    ),
    "gemm": (
        _CHAR, _CHAR, _INT, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT,
        _LEN, _LEN,
    ),
    "syrk": (_CHAR, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _LEN, _LEN),
    "symm": (
        _CHAR, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT,
        _LEN, _LEN,
    ),
    "sfrk": (
        _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _DOUBLE,
        _LEN, _LEN, _LEN,
    ),
    "pftrf": (_CHAR, _CHAR, _INT, _DOUBLE, _INT, _LEN, _LEN),
    "pftri": (_CHAR, _CHAR, _INT, _DOUBLE, _INT, _LEN, _LEN),
    "pftrs": (_CHAR, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _LEN, _LEN),
    "trttf": (_CHAR, _CHAR, _INT, _DOUBLE, _INT, _DOUBLE, _INT, _LEN, _LEN),
    "tfttr": (_CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _LEN, _LEN),
}


@functools.cache
def _library() -> ctypes.CDLL:
    """Handle of numpy's linalg extension, opened once on first use."""
    from numpy.linalg import _umath_linalg

    return ctypes.CDLL(_umath_linalg.__file__)


@functools.cache
def _routine(name: str):
    lib = _library()
    symbol = f"{_PREFIX}{name}{_SUFFIX}"
    try:
        fn = getattr(lib, symbol)
    except AttributeError:
        raise AkwsError(
            f"LAPACK symbol {symbol} not found in {lib._name} or the libraries it links; "
            "akws needs numpy's own wheels, which bundle OpenBLAS"
        ) from None
    fn.argtypes = _SIGNATURES[name]
    fn.restype = None
    return fn


def _column_major(x: np.ndarray) -> bool:
    """Whether ``x`` is column-major: unit row stride, columns at least a column apart."""
    rows, cols = x.shape
    step = x.itemsize
    return x.size == 0 or (
        (rows <= 1 or x.strides[0] == step)
        and (cols <= 1 or (x.strides[1] >= step * rows and x.strides[1] % step == 0))
    )


def _matrix(x: np.ndarray, square: bool = False) -> np.ndarray:
    if not (
        isinstance(x, np.ndarray)
        and x.ndim == 2
        and x.dtype == np.float64
        and _column_major(x)
        and x.flags.writeable
    ):
        raise ShapeError("LAPACK operands must be writeable 2-D Fortran-ordered float64 arrays")
    if square and x.shape[0] != x.shape[1]:
        raise ShapeError(f"expected a square matrix, got {x.shape}")
    return x


def _int(v: int):
    return ctypes.byref(ctypes.c_int64(v))


def _ptr(x: np.ndarray):
    return x.ctypes.data_as(_DOUBLE)


def _ld(x: np.ndarray):
    # an empty array's strides may be 0, which no routine accepts
    rows, cols = x.shape
    return _int(max(1, rows, x.strides[1] // x.itemsize if cols > 1 else 0))


def _info(name: str, info: ctypes.c_int64) -> int:
    if info.value < 0:
        raise ValueError(f"LAPACK {name}: argument {-info.value} is invalid")
    return info.value


def potrf(uplo: str, a: np.ndarray) -> int:
    """Cholesky factor of symmetric ``a``, written over its ``uplo`` triangle.

    Returns LAPACK's ``info``: 0 on success, ``k > 0`` if the leading
    minor of order k is not positive definite.
    """
    _matrix(a, square=True)
    info = ctypes.c_int64()
    _routine("potrf")(uplo.encode(), _int(a.shape[0]), _ptr(a), _ld(a), ctypes.byref(info), 1)
    return _info("potrf", info)


def trsm(side: str, uplo: str, transa: str, diag: str, alpha: float, a: np.ndarray, b: np.ndarray) -> None:
    """Triangular solve in place on ``b``: ``alpha op(a)^-1 b`` (side "L") or ``alpha b op(a)^-1`` ("R")."""
    _matrix(a, square=True)
    _matrix(b)
    if a.shape[0] != b.shape[0 if side == "L" else 1]:
        raise ShapeError(f"triangle is {a.shape}, right-hand side {b.shape} (side {side})")
    _routine("trsm")(
        side.encode(), uplo.encode(), transa.encode(), diag.encode(),
        _int(b.shape[0]), _int(b.shape[1]), ctypes.byref(ctypes.c_double(alpha)),
        _ptr(a), _ld(a), _ptr(b), _ld(b), 1, 1, 1, 1,
    )


def gemm(transa: str, transb: str, alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray) -> None:
    """General product in place on ``c``: ``c = alpha op(a) op(b) + beta c``.

    ``op(x)`` is ``x`` (trans "N") or ``x^T`` ("T"). With ``beta`` 0 the
    old contents of ``c`` are not read, so they may be uninitialized.
    """
    _matrix(a)
    _matrix(b)
    _matrix(c)
    m, k = a.shape if transa == "N" else a.shape[::-1]
    kb, n = b.shape if transb == "N" else b.shape[::-1]
    if k != kb or (m, n) != c.shape:
        raise ShapeError(f"operands are {a.shape} and {b.shape}, result {c.shape} (trans {transa}{transb})")
    _routine("gemm")(
        transa.encode(), transb.encode(), _int(m), _int(n), _int(k), ctypes.byref(ctypes.c_double(alpha)),
        _ptr(a), _ld(a), _ptr(b), _ld(b), ctypes.byref(ctypes.c_double(beta)), _ptr(c), _ld(c), 1, 1,
    )


def syrk(uplo: str, trans: str, alpha: float, a: np.ndarray, beta: float, c: np.ndarray) -> None:
    """Symmetric rank-k update in place on the ``uplo`` triangle of ``c``.

    ``c = alpha a a^T + beta c`` (trans "N") or ``alpha a^T a + beta c``
    ("T"). The other triangle of ``c`` is neither read nor written. Only
    the tests' full-storage reference update calls it.
    """
    _matrix(a)
    _matrix(c, square=True)
    n, k = a.shape if trans == "N" else a.shape[::-1]
    if n != c.shape[0]:
        raise ShapeError(f"operand is {a.shape}, result {c.shape} (trans {trans})")
    _routine("syrk")(
        uplo.encode(), trans.encode(), _int(n), _int(k), ctypes.byref(ctypes.c_double(alpha)),
        _ptr(a), _ld(a), ctypes.byref(ctypes.c_double(beta)), _ptr(c), _ld(c), 1, 1,
    )


def symm(side: str, uplo: str, alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray) -> None:
    """Symmetric product in place on ``c``: ``alpha a b + beta c`` (side "L") or ``alpha b a + beta c`` ("R").

    Only the ``uplo`` triangle of ``a`` is read.
    """
    _matrix(a, square=True)
    _matrix(b)
    _matrix(c)
    m, n = c.shape
    if b.shape != c.shape or a.shape[0] != (m if side == "L" else n):
        raise ShapeError(f"symmetric operand is {a.shape}, others {b.shape} and {c.shape} (side {side})")
    _routine("symm")(
        side.encode(), uplo.encode(), _int(m), _int(n), ctypes.byref(ctypes.c_double(alpha)),
        _ptr(a), _ld(a), _ptr(b), _ld(b), ctypes.byref(ctypes.c_double(beta)), _ptr(c), _ld(c), 1, 1,
    )


def rfp_order(ar: np.ndarray) -> int:
    """Order n of the symmetric matrix held by the RFP array ``ar``, n(n+1)/2 numbers."""
    if not (
        isinstance(ar, np.ndarray)
        and ar.ndim == 1
        and ar.dtype == np.float64
        and ar.flags.c_contiguous
        and ar.flags.writeable
    ):
        raise ShapeError("RFP operands must be writeable 1-D contiguous float64 arrays")
    n = (math.isqrt(8 * ar.size + 1) - 1) // 2
    if n * (n + 1) // 2 != ar.size:
        raise ShapeError(f"{ar.size} numbers are not the RFP array of a symmetric matrix")
    return n


def sfrk(alpha: float, a: np.ndarray, beta: float, c: np.ndarray) -> None:
    """Symmetric rank-k update in place on the RFP array ``c``: ``c = alpha a a^T + beta c``."""
    _matrix(a)
    n, k = a.shape
    if n != rfp_order(c):
        raise ShapeError(f"operand is {a.shape}, result of order {rfp_order(c)}")
    _routine("sfrk")(
        b"N", b"L", b"N", _int(n), _int(k), ctypes.byref(ctypes.c_double(alpha)), _ptr(a), _ld(a),
        ctypes.byref(ctypes.c_double(beta)), _ptr(c), 1, 1, 1,
    )


def pftrf(ar: np.ndarray) -> int:
    """Cholesky factor of the RFP array ``ar``, written over it.

    Returns LAPACK's ``info``: 0 on success, ``k > 0`` if the leading
    minor of order k is not positive definite.
    """
    info = ctypes.c_int64()
    _routine("pftrf")(b"N", b"L", _int(rfp_order(ar)), _ptr(ar), ctypes.byref(info), 1, 1)
    return _info("pftrf", info)


def pftri(factor: np.ndarray) -> int:
    """Inverse of ``A`` from ``pftrf``'s factor, written over it in RFP.

    Returns LAPACK's ``info``: ``k > 0`` if the factor's k-th diagonal
    entry is zero.
    """
    info = ctypes.c_int64()
    _routine("pftri")(b"N", b"L", _int(rfp_order(factor)), _ptr(factor), ctypes.byref(info), 1, 1)
    return _info("pftri", info)


def pftrs(factor: np.ndarray, b: np.ndarray) -> None:
    """Solve ``A x = b`` in place on ``b`` from ``pftrf``'s factor of ``A``."""
    _matrix(b)
    n = rfp_order(factor)
    if b.shape[0] != n:
        raise ShapeError(f"factor of order {n}, right-hand side {b.shape}")
    info = ctypes.c_int64()
    _routine("pftrs")(
        b"N", b"L", _int(n), _int(b.shape[1]), _ptr(factor), _ptr(b), _ld(b), ctypes.byref(info), 1, 1
    )
    _info("pftrs", info)


def trttf(a: np.ndarray) -> np.ndarray:
    """The RFP array of the symmetric matrix whose lower triangle ``a`` holds."""
    _matrix(a, square=True)
    n = a.shape[0]
    ar = np.empty(n * (n + 1) // 2)
    info = ctypes.c_int64()
    _routine("trttf")(b"N", b"L", _int(n), _ptr(a), _ld(a), _ptr(ar), ctypes.byref(info), 1, 1)
    _info("trttf", info)
    return ar


def tfttr(ar: np.ndarray) -> np.ndarray:
    """A Fortran-ordered square array whose lower triangle holds the RFP array ``ar``; the rest is 0."""
    n = rfp_order(ar)
    a = np.zeros((n, n), order="F")
    info = ctypes.c_int64()
    _routine("tfttr")(b"N", b"L", _int(n), _ptr(ar), _ptr(a), _ld(a), ctypes.byref(info), 1, 1)
    _info("tfttr", info)
    return a
