"""Exact linear algebra over the rationals.

Matrices are numpy arrays with dtype=object.  An entry is an ``int`` when
its value is an integer and a ``fractions.Fraction`` otherwise, never a
float: integral blocks (members, companions, reflectors, factor
identities) then multiply on int arithmetic, and only a true division
makes a Fraction.  Every exact division goes through ``div``, since
int / int would give a float.  Arithmetic on Fractions may leave one of
denominator 1; it equals the int and prints the same.

numpy's ``@`` and ``kron`` work on object arrays, so products, block
transforms and Kronecker products stay exact without a kernel here.
Every elimination runs on one route: ``rref`` builds a sparse
``DomainMatrix`` over ZZ from the nonzero entries alone, each row scaled
by the lcm of its denominators (which changes neither the rref, nor the
pivots, nor the rank), and runs sympy's fraction-free elimination
(Bareiss, Math. Comp. 22, 1968) on it.  Its result is N and den with
R = N/den the canonical rref; ``rank`` and ``pivots`` read the pivots
alone, and ``nullspace`` and ``unique_solve`` divide only the entries of
N they need.  Everything rank-related reads the canonical rref, so pivots,
nullspace bases and particular solutions do not depend on the
elimination order.  ``inv`` is the unique solution of a·X = I, and
``det`` the fraction-free determinant over ZZ of the integral multiple
of a, divided back.
"""

import math
from fractions import Fraction

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from .errors import PreconditionError


def frac(x):
    """Coerce ints, strings like '3' or '-5/7', and Fractions to an int
    when the value is integral and a Fraction otherwise.  Floats are
    rejected so rounding never sneaks into an exact computation."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; convert explicitly")
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational scalar")


def _div(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


_div_array = np.frompyfunc(_div, 2, 1)


def div(a, b):
    """a / b exactly, for scalars or (elementwise, broadcast) object
    arrays: an int quotient when the division is exact, a Fraction
    otherwise, never a float."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _div_array(a, b)
    return _div(a, b)


def fmat(rows, coerce=frac) -> np.ndarray:
    """Build a 2-d object array from nested iterables, coercing each entry
    once with coerce."""
    data = [[coerce(x) for x in row] for row in rows]
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
    out[...] = 0
    return out


def feye(n: int) -> np.ndarray:
    out = fzeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def _times(x, c: int) -> int:
    """c*x as an int, for an int or rational x whose denominator divides
    c."""
    return int(x.numerator) * (c // int(x.denominator))


_times_array = np.frompyfunc(_times, 2, 1)


def integral_multiple(arrays) -> list:
    """The object arrays times the lcm of the denominators of all their
    entries, as int arrays; arrays already integral come back as they
    are."""
    c = math.lcm(*(x.denominator for a in arrays for x in a.flat
                   if type(x) is not int))
    return list(arrays) if c == 1 else [_times_array(a, c) for a in arrays]


def to_zz(a) -> DomainMatrix:
    """The sparse DomainMatrix over ZZ holding the nonzero entries of a,
    each row times the lcm of its denominators: it has the rref, the
    pivots and the rank of a.  a is an array or a DomainMatrix over ZZ,
    which passes through."""
    if isinstance(a, DomainMatrix):
        return a
    out = {}
    for i, row in enumerate(a.tolist()):
        row = {j: x for j, x in enumerate(row) if x}
        dens = [x.denominator for x in row.values() if type(x) is not int]
        if dens:
            c = math.lcm(*dens)
            out[i] = {j: _times(x, c) for j, x in row.items()}
        elif row:
            out[i] = row
    return DomainMatrix(out, a.shape, ZZ)


def qq_scalar(x):
    """The int or Fraction of the value of x, an element of QQ."""
    p, q = int(x.numerator), int(x.denominator)
    return p if q == 1 else Fraction(p, q)


def rref(a):
    """Reduced row echelon form of a (an array or a DomainMatrix over ZZ),
    by fraction-free elimination over ZZ on its row-scaled form.  Returns
    (N, den, pivot_columns): N a sparse DomainMatrix over ZZ and den a
    Python int (whatever sympy's ground types), with R = N/den."""
    n, den, pivots = to_zz(a).rref_den(method="FF")
    return n, int(den), list(pivots)


def rank(a) -> int:
    if 0 in a.shape:
        return 0
    return len(rref(a)[2])


def nullspace(a: np.ndarray) -> np.ndarray:
    """Columns form the canonical rref nullspace basis, ordered by free column."""
    m, n = a.shape
    if n == 0:
        return np.empty((0, 0), dtype=object)
    r, den, pivots = rref(a)
    pivot_set = set(pivots)
    free = {fc: idx for idx, fc in
            enumerate(j for j in range(n) if j not in pivot_set)}
    out = fzeros(n, len(free))
    for fc, idx in free.items():
        out[fc, idx] = 1
    for row_i, row in r.to_dod().items():
        for fc, x in row.items():
            if fc in free:
                out[pivots[row_i], free[fc]] = div(-int(x), den)
    return out


def _solution(a: np.ndarray, b: np.ndarray):
    """One solution of a·x = b, or None if inconsistent, and the pivot
    columns of the rref of [a | b]."""
    n = a.shape[1]
    bb = b if b.ndim == 2 else b.reshape(-1, 1)
    r, den, pivots = rref(np.concatenate([a, bb], axis=1))
    if pivots and pivots[-1] >= n:
        return None, pivots
    x = fzeros(n, bb.shape[1])
    for row_i, row in r.to_dod().items():
        for j, v in row.items():
            if j >= n:
                x[pivots[row_i], j - n] = div(int(v), den)
    return (x if b.ndim == 2 else x[:, 0]), pivots


def unique_solve(a: np.ndarray, b: np.ndarray):
    """The solution of a·x = b, or None when a has not full column rank
    or the system is inconsistent."""
    x, pivots = _solution(a, b)
    n = a.shape[1]
    return x if pivots[:n] == list(range(n)) else None


def samples(coeffs, points):
    """Yield, for rank, the matrix polynomial with ascending coefficients
    coeffs at each integer point, times the lcm of the denominators of all
    its entries (which leaves every rank as it is): Horner on sparse
    matrices over ZZ, the coefficients converted once."""
    mats = [to_zz(c) for c in integral_multiple(coeffs)]
    for t in points:
        acc = mats[-1]
        for c in reversed(mats[:-1]):
            acc = acc * ZZ(t) + c
        yield acc


def inv(a: np.ndarray) -> np.ndarray:
    """The inverse of a: the unique solution of a·X = I."""
    m, n = a.shape
    if m != n:
        raise PreconditionError("inverse of a non-square matrix")
    x = unique_solve(a, feye(n))
    if x is None:
        raise PreconditionError("matrix is singular")
    return x


def det(a: np.ndarray):
    """The determinant of a: sympy's fraction-free (Bareiss) determinant
    over ZZ of c·a, c the lcm of the denominators of a, divided by c^n."""
    m, n = a.shape
    if m != n:
        raise PreconditionError("determinant of a non-square matrix")
    c = math.lcm(*(x.denominator for x in a.flat if type(x) is not int))
    return div(int(to_zz(_times_array(a, c)).det()), c ** n)


def to_float(a: np.ndarray) -> np.ndarray:
    return a.astype(float)
