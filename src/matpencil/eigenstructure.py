"""Complete eigenstructure reports and linearization verdicts.

The exact path reads every local structure off rank walks over
block-Toeplitz matrices (minimal.index_walk; the local Smith form of
Gohberg, Lancaster & Rodman, Matrix Polynomials, 1982): both lists of
minimal indices, the degrees at infinity, and the exponents of each
repeated eigenvalue.  The Index Sum Theorem fixes the finite degree f and
with it D_r, the product of the invariant factors: a gcd of multiples of
D_r that reaches degree f.  No Smith form is taken.

Linearization claims are certified in a fixed order: first the exact
factor identities of the pencil's block-Kronecker form
(reduction.certify_linearization), which imply unimodular E, F with
E L F = diag(P, padding) and make the pencil a strong linearization; a
form whose identity fails raises.  Only when no form can be built is the
claim settled by comparing the structures of the pencil and the
polynomial (_padded_verdict), and every rejection comes from there.  No
check is probabilistic.

The float path only handles regular pencils through the generalized
eigensolver, scipy.linalg.eigvals, which loads on the first float solve.
It cannot resolve Jordan structure, so every numeric eigenvalue is
reported as a simple divisor.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
# The package's one SciPy import, and only the bare package: it serves
# eigvals below, whose scipy.linalg loads on the first float solve, and
# bench/run.py's version report, which reads scipy from sys.modules
# after every run.  Loading scipy.linalg eagerly would cost about a
# third of the command line's start-up.
import scipy
import sympy

from . import exactla as xla
from .errors import PreconditionError, SchemaError, VerificationError
from .matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly
from .minimal import index_walk, walk_indices
from .qpoly import QQL, coeffs, pm_det, poly
from .reduction import TrimResult, certify_linearization
from .spaces import AnsatzPencil

__all__ = [
    "EigStructure",
    "Verdict",
    "check_g_linearization",
    "check_linearization",
    "complete_eigenstructure",
    "smith_form",
]

# Vandermonde compressions S (r x m) and T^T (r x n), entries (j + t)^(i + 1)
# for each t: det(S p T) is tried before the r x r minors of p.
COMPRESSIONS = (1, 2, 3)


def _require_matpoly(p):
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")
    return p


# ---------------------------------------------------------------------------
# Eigenstructure report


@dataclass(frozen=True)
class EigStructure:
    """Complete eigenstructure of a matrix polynomial.

    finite holds (factor, exponents) pairs keyed by a monic irreducible
    factor as ascending rational coefficients on the exact path, or a
    numeric eigenvalue on the float path.  infinite is the partition of
    divisor degrees at infinity.  Exponent lists follow the divisibility
    chain, so they are nondecreasing.
    """
    nrank: int
    finite: tuple
    infinite: tuple
    right_indices: tuple
    left_indices: tuple
    field: str = FIELD_RATIONAL

    def __post_init__(self):
        object.__setattr__(self, "finite", tuple(
            (f if self.field == FIELD_FLOAT else tuple(f), tuple(e))
            for f, e in self.finite))
        object.__setattr__(self, "infinite", tuple(self.infinite))
        object.__setattr__(self, "right_indices", tuple(self.right_indices))
        object.__setattr__(self, "left_indices", tuple(self.left_indices))
        if self.nrank < 0:
            raise SchemaError("normal rank cannot be negative")
        for f, exps in self.finite:
            if not exps or any(e <= 0 for e in exps):
                raise SchemaError("finite exponents must be positive")
            if list(exps) != sorted(exps):
                raise SchemaError("finite exponents must follow the chain")
            if self.field == FIELD_RATIONAL:
                if len(f) < 2 or f[-1] != 1:
                    raise SchemaError("finite factor must be monic of "
                                      "positive degree")
        if any(e <= 0 for e in self.infinite):
            raise SchemaError("infinite degrees must be positive")
        if list(self.infinite) != sorted(self.infinite):
            raise SchemaError("infinite degrees must follow the chain")
        for idx in (self.right_indices, self.left_indices):
            if any(e < 0 for e in idx):
                raise SchemaError("minimal indices cannot be negative")
            if list(idx) != sorted(idx):
                raise SchemaError("minimal indices must be ascending")

    def finite_degree_sum(self) -> int:
        total = 0
        for f, exps in self.finite:
            d = 1 if self.field == FIELD_FLOAT else len(f) - 1
            total += d * sum(exps)
        return total

    def to_json_dict(self) -> dict:
        if self.field == FIELD_FLOAT:
            fin = [{"value": [x.real, x.imag], "exponents": list(e)}
                   for x, e in self.finite]
        else:
            fin = [{"factor": [FIELD_RATIONAL.scalar_to_json(c) for c in f],
                    "exponents": list(e)} for f, e in self.finite]
        return {
            "kind": "eigstructure",
            "field": self.field,
            "nrank": self.nrank,
            "finite": fin,
            "infinite": list(self.infinite),
            "right_indices": list(self.right_indices),
            "left_indices": list(self.left_indices),
        }


def _factor_monic(d):
    """Monic irreducible factors of a monic element of QQ[l], with
    multiplicities, as ascending coefficient tuples.  The Poly is built
    from the element's terms: going through a sympy expression would
    make the first factor_list of a process import sympy.combinatorics."""
    _, factors = sympy.factor_list(sympy.Poly.from_dict(
        dict(d.items()), *d.ring.symbols, domain=sympy.QQ))
    out = [(tuple(xla.qq_scalar(c)
                  for c in reversed(f.monic().all_coeffs())), int(e))
           for f, e in factors]
    out.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return out


def _infinite_degrees(p: MatPoly, nrank: int) -> tuple:
    """Degrees of the elementary divisors of p at infinity: the positive
    orders at zero of the nrank invariant factors of its grade reversal.

    The top (j+1)m rows of p.conv_matrix(j) are the block-Toeplitz matrix
    T_j of the reversal; rank T_j - rank T_{j-1} counts its factors that
    vanish to order <= j at zero (the local Smith form at zero; Gohberg,
    Lancaster & Rodman, Matrix Polynomials, 1982)."""
    def rank(j):
        return p.field.rank(p.conv_matrix(j)[:(j + 1) * p.m]), None

    return tuple(e for e in index_walk(p, nrank, rank) if e > 0)


def _multiples(p: MatPoly, r: int):
    """Multiples of D_r, the gcd of the r x r minors of p: det(S p T) per
    compression (Cauchy-Binet), then each r x r minor, lexicographically,
    each an r x r MatPoly whose determinant pm_det interpolates from
    integer points.  The weights are no arithmetic progression: at r = 1
    one can put the same spurious root into every compression."""
    for t in COMPRESSIONS:
        s, u = (FIELD_RATIONAL.matrix([[(j + t) ** (i + 2) for j in range(w)]
                                       for i in range(r)]) for w in (p.m, p.n))
        yield pm_det(MatPoly([s @ a @ u.T for a in p.coeffs]))
    for rows in combinations(range(p.m), r):
        for cols in combinations(range(p.n), r):
            yield pm_det(MatPoly([a[np.ix_(rows, cols)] for a in p.coeffs]))


def _finite_divisor(p: MatPoly, r: int, f: int):
    """D_r of p, of normal rank r, whose degree the Index Sum Theorem fixes
    at f: the monic gcd of its multiples, stopped once its degree is f."""
    g = QQL.zero
    for d in _multiples(p, r) if f > 0 else ():
        g = g.gcd(d)
        if g and g.degree() <= f:
            break
    if not g or g.degree() != f:
        raise VerificationError("structural indices do not add up to the "
                                "grade times the normal rank")
    return g.monic()


def _at_factor(p: MatPoly, fac: tuple) -> MatPoly:
    """Q(l) = sum_i A_i kron (C + l I)^i, with C the companion matrix of
    the monic irreducible fac of degree e.  Over the closure Q is similar
    to the direct sum of p(theta + l) over the e roots theta of fac, so its
    local structure at zero is that of p at each root, e times over."""
    e = len(fac) - 1
    c = FIELD_RATIONAL.matrix([[int(i == j + 1) for j in range(e - 1)]
                               + [-fac[i]] for i in range(e)])
    return MatPoly([sum(comb(i, j) * np.kron(p.coeffs[i],
                                             np.linalg.matrix_power(c, i - j))
                        for i in range(j, p.grade + 1))
                    for j in range(p.grade + 1)], FIELD_RATIONAL)


def _exponents(p: MatPoly, r: int, fac: tuple, simple: bool) -> tuple:
    """Exponents of fac in p's invariant factors (normal rank r): Q's orders
    at zero, each e times, or for a simple fac (1,) if Q(0) drops rank."""
    e, q = len(fac) - 1, _at_factor(p, fac)
    if simple:
        return (1,) * (FIELD_RATIONAL.rank(q.coeffs[0]) < e * r)
    return _infinite_degrees(q.reversal(), e * r)[e - 1::e]


def _walks(p: MatPoly, nrank: int):
    """Right and left minimal indices, degrees at infinity, and the finite
    degree that the Index Sum Theorem leaves: grade * nrank less them."""
    right, left, _ = walk_indices(p, nrank)
    infinite = _infinite_degrees(p, nrank)
    return (right, left, infinite,
            p.grade * nrank - sum(infinite) - sum(right) - sum(left))


def complete_eigenstructure(p) -> EigStructure:
    """Finite and infinite elementary divisors plus minimal indices.

    Exact path: walks give the minimal indices and the degrees at
    infinity, the Index Sum Theorem (De Terán, Dopico & Mackey, LAA 459,
    2014) the finite degree f.  For f > 0, D_r is factored; each factor's
    exponents, (1,) after a rank drop for a simple one, else from a walk,
    must add up to its multiplicity, which certifies D_r.  Float path:
    regular pencils only, one simple divisor per numeric eigenvalue.
    """
    p = _require_matpoly(p)
    if p.field == FIELD_FLOAT:
        return _float_regular_pencil(p)
    nrank = p.normal_rank()
    right, left, infinite, f = _walks(p, nrank)
    finite = []
    if f:
        for fac, mult in _factor_monic(_finite_divisor(p, nrank, f)):
            exps = _exponents(p, nrank, fac, mult == 1)
            if sum(exps) != mult:
                raise VerificationError("local exponents do not add up to "
                                        "the multiplicity of the factor")
            finite.append((fac, exps))
    return EigStructure(nrank=nrank, finite=finite, infinite=infinite,
                        right_indices=right, left_indices=left,
                        field=p.field)


def smith_form(p) -> MatPoly:
    """The Smith form S of p, assembled from complete_eigenstructure: the
    invariant factors on the diagonal, each the product of the finite
    elementary divisors it carries, then zeros.  Rational field only."""
    if _require_matpoly(p).field != FIELD_RATIONAL:
        raise PreconditionError("Smith form needs the rational field")
    es = complete_eigenstructure(p)
    diag = [QQL.one] * es.nrank
    for fac, exps in es.finite:
        for t, e in enumerate(reversed(exps), start=1):
            diag[-t] *= poly(fac) ** e
    out = MatPoly.zero(p.m, p.n, max((d.degree() for d in diag), default=0))
    for i, d in enumerate(diag):
        for t, c in enumerate(coeffs(d)):
            out.coeffs[t][i, i] = c
    return out


def _float_regular_pencil(p: MatPoly) -> EigStructure:
    if p.grade != 1:
        raise PreconditionError("float eigenstructure only covers regular "
                                "pencils; use the rational field")
    if p.m != p.n:
        raise PreconditionError("float eigenstructure needs a square "
                                "regular pencil")
    w = scipy.linalg.eigvals(-p.coeffs[0], p.coeffs[1])
    if np.any(np.isnan(w)):
        raise PreconditionError("pencil is numerically singular; use the "
                                "rational field")
    fin = [complex(x) for x in w if np.isfinite(x)]
    fin.sort(key=lambda z: (z.real, z.imag))
    finite = tuple((z, (1,)) for z in fin)
    infinite = (1,) * (len(w) - len(fin))
    return EigStructure(nrank=p.n, finite=finite, infinite=infinite,
                        right_indices=(), left_indices=(), field=FIELD_FLOAT)


# ---------------------------------------------------------------------------
# Linearization checks


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {"kind": "verdict", "ok": self.ok, "reason": self.reason}


def _pencil_of(l) -> MatPoly:
    """The pencil of a member, of a trimming record, or a bare grade-1
    polynomial."""
    if isinstance(l, AnsatzPencil):
        l = l.pencil
    elif isinstance(l, TrimResult):
        l = l.Lt
    if not isinstance(l, MatPoly) or l.grade != 1:
        raise SchemaError("expected a pencil")
    return l


def _rational_inputs(l, p):
    lmat, p = _pencil_of(l), _require_matpoly(p)
    if p.field != FIELD_RATIONAL or lmat.field != FIELD_RATIONAL:
        raise PreconditionError("linearization checks need the rational "
                                "field")
    return lmat, p


def _padded_verdict(lmat: MatPoly, p: MatPoly, r: int, strong: bool):
    """Compare L with diag(P, E), E constant of rank r: r more in normal
    rank than P, P's elementary divisors.  With equal index-sum degrees, a
    rank drop L(C) < e * nrank(L) at each simple factor of P and equal
    exponents at each repeated one pin L's finite structure to P's."""
    es = complete_eigenstructure(p)
    nrank = lmat.normal_rank()
    same = nrank == es.nrank + r
    if same:
        *_, infinite, f = _walks(lmat, nrank)
        same = f == es.finite_degree_sum() and all(
            _exponents(lmat, nrank, fac, exps == (1,)) == exps
            for fac, exps in es.finite)
    if not same:
        return Verdict(False, "finite structure mismatch")
    if strong and infinite != es.infinite:
        return Verdict(False, "infinite eigenvalue mismatch")
    return Verdict(True, "")


def _verdict(l, lmat: MatPoly, p: MatPoly, r: int, strong: bool):
    """Accept l on the factor certificate of its block-Kronecker form,
    which is strong as it stands; when it has none, compare its pencil
    lmat with p padded by a constant block of rank r.  A form that fails
    an identity raises VerificationError."""
    if certify_linearization(l, p):
        return Verdict(True, "")
    return _padded_verdict(lmat, p, r, strong)


def check_g_linearization(l, p, strong: bool = False) -> Verdict:
    """Does the pencil carry the complete finite (and, when strong, also
    infinite) structure of p with matching nullspace dimensions?

    The target is p padded with I_{k-1} kron I_{m,n}.  A member of p with
    full-rank Z is accepted on its factor certificate; otherwise the
    pencil and the target, which share their shape, are compared by
    structure, which also forces equal nullspace dimensions.
    """
    lmat, p = _rational_inputs(l, p)
    k = p.grade
    if (lmat.m, lmat.n) != (k * p.m, k * p.n):
        raise SchemaError("pencil size does not match the grade")
    return _verdict(l, lmat, p, (k - 1) * min(p.m, p.n), strong)


def check_linearization(lt, p, strong: bool = False) -> Verdict:
    """Same decision for trimmed pencils against p padded with a square
    identity block sized by the shape difference: the certificate first,
    then the structural comparison."""
    lmat, p = _rational_inputs(lt, p)
    s = lmat.m - p.m
    if s != lmat.n - p.n or s < 0:
        raise SchemaError("pencil size does not match a padded identity")
    return _verdict(lt, lmat, p, s, strong)
