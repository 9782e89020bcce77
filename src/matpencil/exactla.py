"""Dense exact linear algebra over the rationals.

Matrices are numpy arrays with dtype=object holding ``fractions.Fraction``
entries. numpy's matmul and ``kron`` work on object arrays, so products,
block transforms and Kronecker products stay exact without a kernel here.
The elimination kernels are sympy's: ``rref``, ``inv`` and ``det`` convert
to a ``DomainMatrix`` over QQ, call it, and convert back.  Everything
rank-related reads the canonical rref, so pivots, nullspace bases and
particular solutions do not depend on the elimination order.
"""

from fractions import Fraction

import numpy as np
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .errors import PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3' or '-5/7', and Fractions. Floats are
    rejected so rounding never sneaks into an exact computation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; convert explicitly")
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational scalar")


def fmat(rows) -> np.ndarray:
    """Build a 2-d object array of Fractions from nested iterables."""
    data = [[frac(x) for x in row] for row in rows]
    if not data:
        return np.empty((0, 0), dtype=object)
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows")
    out = np.empty((len(data), width), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def fvec(entries) -> np.ndarray:
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = frac(x)
    return out


def fzeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = ZERO
    return out


def feye(n: int) -> np.ndarray:
    out = fzeros(n, n)
    for i in range(n):
        out[i, i] = ONE
    return out


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def to_domain(a: np.ndarray) -> DomainMatrix:
    """The DomainMatrix over QQ holding the entries of a."""
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                         for row in a], a.shape, QQ)


def from_domain(d: DomainMatrix) -> np.ndarray:
    """Object array of Fractions holding the entries of d."""
    out = np.empty(d.shape, dtype=object)
    for i, row in enumerate(d.to_list()):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x.numerator, x.denominator)
    return out


def rref(a: np.ndarray):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    r, pivots = to_domain(a).rref()
    return from_domain(r), list(pivots)


def rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def nullspace(a: np.ndarray) -> np.ndarray:
    """Columns form the canonical rref nullspace basis, ordered by free column."""
    m, n = a.shape
    if n == 0:
        return np.empty((0, 0), dtype=object)
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    out = fzeros(n, len(free))
    for idx, fc in enumerate(free):
        out[fc, idx] = ONE
        for row_i, pc in enumerate(pivots):
            out[pc, idx] = -r[row_i, fc]
    return out


def solve(a: np.ndarray, b: np.ndarray):
    """One solution of a·x = b (b may be a matrix), or None if inconsistent."""
    m, n = a.shape
    bb = b if b.ndim == 2 else b.reshape(-1, 1)
    r, pivots = rref(np.concatenate([a, bb], axis=1))
    if pivots and pivots[-1] >= n:
        return None
    x = fzeros(n, bb.shape[1])
    for row_i, pc in enumerate(pivots):
        x[pc, :] = r[row_i, n:]
    return x if b.ndim == 2 else x[:, 0]


def inv(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m != n:
        raise PreconditionError("inverse of a non-square matrix")
    try:
        return from_domain(to_domain(a).inv())
    except DMNonInvertibleMatrixError as e:
        raise PreconditionError("matrix is singular") from e


def det(a: np.ndarray) -> Fraction:
    m, n = a.shape
    if m != n:
        raise PreconditionError("determinant of a non-square matrix")
    d = to_domain(a).det()
    return Fraction(d.numerator, d.denominator)


def to_float(a: np.ndarray) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float) if a.ndim == 2 \
        else np.array([float(x) for x in a], dtype=float)
