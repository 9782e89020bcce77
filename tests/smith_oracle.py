"""Reference route for the tests: sympy's Smith normal form over QQ[l].

The package reads every local structure off rank walks and never forms a
Smith form, nor any matrix over QQ[l].  The tests compare its reports and
verdicts with the invariant factors of sympy's Smith normal form, made
monic here, and its Smith form with sympy's decomposition U p V = S, on
the DomainMatrix over QQ[l] that to_pm builds.
"""

from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import (smith_normal_decomp,
                                              smith_normal_form)

from matpencil.eigenstructure import Verdict, _factor_monic
from matpencil.qpoly import QQL, poly

L = QQL.ring.gens[0]


def to_pm(p) -> DomainMatrix:
    """The matrix over QQ[l] of a rational matrix polynomial."""
    rows = [[poly([c[i, j] for c in p.coeffs]) for j in range(p.n)]
            for i in range(p.m)]
    return DomainMatrix(rows, (p.m, p.n), QQL)


def oracle_decomposition(p):
    """(S, U, V) over QQ[l] with U p V = S, as smith_normal_decomp gives
    them; S's diagonal is not made monic."""
    return smith_normal_decomp(to_pm(p))


def oracle_diag(p):
    """Nonzero invariant factors of p, monic, in chain order."""
    if p.is_zero():
        return []
    s = smith_normal_form(to_pm(p)).to_list()
    diag = [s[t][t].monic() for t in range(min(p.m, p.n)) if s[t][t]]
    assert all(not b.rem(a) for a, b in zip(diag, diag[1:]))
    return diag


def oracle_finite(diag):
    """(factor, exponents) pairs of the invariant factors diag, keyed and
    ordered as EigStructure.finite."""
    table = {}
    for d in diag:
        if d.degree() > 0:
            for fac, e in _factor_monic(d):
                table.setdefault(fac, []).append(e)
    return tuple((fac, tuple(table[fac]))
                 for fac in sorted(table, key=lambda f: (len(f), f)))


def reversal_orders(p):
    """The positive powers of l in the invariant factors of the reversal's
    Smith form: the degrees at infinity."""
    orders = (min(t for (t,) in d.monoms())
              for d in oracle_diag(p.reversal()))
    return tuple(t for t in orders if t > 0)


def reference_verdict(lmat, p, r, strong):
    """The padded comparison of L with diag(P, E), E constant of rank r,
    on invariant factors: finite ones, then the degrees at infinity."""
    if oracle_diag(lmat) != [QQL.one] * r + oracle_diag(p):
        return Verdict(False, "finite structure mismatch")
    if strong and reversal_orders(lmat) != reversal_orders(p):
        return Verdict(False, "infinite eigenvalue mismatch")
    return Verdict(True, "")


def reference_strong_verdict(lmat, p, r):
    """The strong comparison on the Smith forms of both reversals, with
    the reason split on the invariant factors stripped of l."""
    ones = [QQL.one] * r
    if oracle_diag(lmat) != ones + oracle_diag(p):
        return Verdict(False, "finite structure mismatch")
    d1, d2 = oracle_diag(lmat.reversal()), ones + oracle_diag(p.reversal())
    if d1 == d2:
        return Verdict(True, "")

    def strip(diag):
        return [d.exquo(L ** min(t for (t,) in d.monoms())) for d in diag]

    if strip(d1) == strip(d2):
        return Verdict(False, "infinite eigenvalue mismatch")
    return Verdict(False, "reversal structure mismatch")
