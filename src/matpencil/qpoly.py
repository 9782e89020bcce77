"""Matrices over QQ[l], the polynomial ring of the exact path.

A polynomial matrix is a sympy ``DomainMatrix`` over QQ[l] whose entries
are ring elements; sums, products and determinants stay exact.  ``to_pm``
turns the ascending coefficient blocks of a rational ``MatPoly`` into that
form; ``poly`` and ``coeffs`` convert a single entry both ways.  The
exact path takes determinants here: of the multiples of D_r that fix the
finite eigenvalues, and of the unimodular factors of given witnesses
(reduction.verify_witnesses, which `examples 2` runs on case 2's pair).
"""

from sympy import QQ, Symbol
from sympy.polys.matrices import DomainMatrix

from . import exactla as xla
from .errors import PreconditionError
from .field import FIELD_RATIONAL
from .matpoly import MatPoly

QQL = QQ[Symbol("l")]


def poly(coeffs):
    """The element of QQ[l] with ascending coefficients coeffs (ints or
    Fractions)."""
    return QQL.ring.from_dict({(t,): QQ(c.numerator, c.denominator)
                               for t, c in enumerate(coeffs) if c != 0})


def coeffs(p) -> tuple:
    """Ascending coefficients of p (ints or Fractions), without trailing
    zeros."""
    out = [0] * (p.degree() + 1 if p else 0)
    for (t,), c in p.items():
        out[t] = xla.qq_scalar(c)
    return tuple(out)


def to_pm(p: MatPoly) -> DomainMatrix:
    """The matrix over QQ[l] of a rational matrix polynomial."""
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("symbolic form needs the rational field")
    rows = [[poly([c[i, j] for c in p.coeffs]) for j in range(p.n)]
            for i in range(p.m)]
    return DomainMatrix(rows, (p.m, p.n), QQL)


def pm_det(a: DomainMatrix):
    """Determinant of a square matrix over QQ[l], an element of QQ[l]."""
    m, n = a.shape
    if m != n:
        raise PreconditionError("determinant of a non-square matrix")
    return a.det()
