"""Matrices over QQ[l], the polynomial ring of the exact path.

A polynomial matrix is a sympy ``DomainMatrix`` over QQ[l] whose entries
are ring elements; sums, products and determinants stay exact.  ``to_pm``
and ``from_pm`` are the one conversion between that form and the
ascending coefficient blocks of a rational ``MatPoly``; ``poly`` and
``coeffs`` do the same for a single entry.
"""

from fractions import Fraction

from sympy import QQ, Symbol
from sympy.polys.matrices import DomainMatrix

from .errors import PreconditionError
from .field import FIELD_RATIONAL
from .matpoly import MatPoly

QQL = QQ[Symbol("l")]
L = QQL.ring.gens[0]


def poly(coeffs):
    """The element of QQ[l] with ascending coefficients coeffs (ints or
    Fractions)."""
    return QQL.ring.from_dict({(t,): QQ(c.numerator, c.denominator)
                               for t, c in enumerate(coeffs) if c != 0})


def coeffs(p) -> tuple:
    """Ascending Fraction coefficients of p, without trailing zeros."""
    out = [Fraction(0)] * (p.degree() + 1 if p else 0)
    for (t,), c in p.items():
        out[t] = Fraction(c.numerator, c.denominator)
    return tuple(out)


def to_pm(p: MatPoly) -> DomainMatrix:
    """The matrix over QQ[l] of a rational matrix polynomial."""
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("symbolic form needs the rational field")
    rows = [[poly([c[i, j] for c in p.coeffs]) for j in range(p.n)]
            for i in range(p.m)]
    return DomainMatrix(rows, (p.m, p.n), QQL)


def from_pm(a: DomainMatrix) -> MatPoly:
    """The rational matrix polynomial of a matrix over QQ[l]; its grade is
    the largest entry degree (at least 0)."""
    m, n = a.shape
    rows = a.to_list()
    g = max((x.degree() for row in rows for x in row), default=0)
    out = [FIELD_RATIONAL.zeros(m, n) for _ in range(max(g, 0) + 1)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            for t, c in enumerate(coeffs(x)):
                out[t][i, j] = c
    return MatPoly(out, FIELD_RATIONAL)


def pm_eye(n: int) -> DomainMatrix:
    return DomainMatrix.eye(n, QQL).to_dense()


def pm_det(a: DomainMatrix):
    """Determinant of a square matrix over QQ[l], an element of QQ[l]."""
    m, n = a.shape
    if m != n:
        raise PreconditionError("determinant of a non-square matrix")
    return a.det()
