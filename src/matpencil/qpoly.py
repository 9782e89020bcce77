"""QQ[l], the polynomial ring of the exact path, and determinants of
rational matrix polynomials.

An element of QQ[l] is a sympy ring element; the exact path takes the
gcds and factors of scalar polynomials here.  ``poly`` and ``coeffs``
convert an element both ways.  No matrix over QQ[l] is formed:
``pm_det`` takes the determinant of a square rational ``MatPoly`` from
its values at integer points, each an exact determinant over ZZ
(``exactla.det``), and interpolates it.  The exact path takes
determinants there: of the multiples of D_r that fix the finite
eigenvalues, and of the unimodular factors of given witnesses
(reduction.verify_witnesses, which `examples 2` runs on case 2's pair).
"""

import math

from sympy import QQ, Symbol

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


def _newton(values) -> list:
    """N! times the ascending coefficients of the polynomial of degree at
    most N = len(values) - 1 that takes values[t] at t = 0..N, for int
    values: its Newton form on the forward differences d_j, the sum of
    d_j * t(t-1)...(t-j+1) / j!, expanded by Horner on ints."""
    top = len(values) - 1
    diffs, lead = list(values), []
    for _ in values:
        lead.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out, scale = [lead[top]], 1
    for j in range(top - 1, -1, -1):
        scale *= j + 1  # N!/j!
        # out * (t - j) + N!/j! * d_j
        out = [a - j * b for a, b in zip([0] + out, out + [0])]
        out[0] += scale * lead[j]
    return out


def pm_det(p: MatPoly):
    """Determinant of a square rational matrix polynomial, an element of
    QQ[l].  Its degree is at most N = n * grade, so its values at the
    N + 1 points 0..N fix it: each is exactla.det of the integral
    multiple c*P there, c^n det P(t), and the Newton interpolant of those
    ints is divided by N! c^n once."""
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("polynomial determinants need the rational "
                                "field")
    if p.m != p.n:
        raise PreconditionError("determinant of a non-square matrix")
    top = p.n * p.grade
    values = [xla.det(s) for s in FIELD_RATIONAL.samples(p, range(top + 1))]
    scale = math.factorial(top) * xla.denominator_lcm(p.coeffs) ** p.n
    return poly([xla.div(x, scale) for x in _newton(values)])
