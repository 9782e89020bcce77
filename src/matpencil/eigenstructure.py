"""Smith normal form over the rational polynomials and complete
eigenstructure reports.

The exact path reduces a matrix polynomial to Smith form over QQ[l] with
sympy's smith_normal_decomp, makes the invariant factors monic, and audits
the result exactly: diagonal form, monic divisibility chain, unimodular
transformations and the product U p V = S.  It reads the normal rank and
finite elementary divisors off the invariant factors; rank walks over the
convolution matrices give the infinite degrees and both lists of minimal
indices, and the Index Sum Theorem certifies all four together.

Linearization claims are certified in a fixed order.  First the witness: a
member with full-rank Z, or a trimming record, built from the polynomial
yields explicit unimodular E, F through its block-Kronecker form
(reduction.linearization_witnesses), and E L F = diag(P, padding) is
checked exactly over QQ[l], for the reversals as well when the claim is
strong.  A witness that is built but fails that check raises.  Only when no
witness can be built (a bare pencil, a deficient Z, a record or member of
another polynomial, a zero alpha, a singular constant factor) is the claim
settled by the Smith fallback: comparing the pencil's invariant factors
with those of the polynomial padded by a constant block, which decides the
finite structure and the nullspace dimensions in one shot; a strong claim
also compares the two walks for the degrees at infinity.  Every rejection
comes from that comparison.  No check is probabilistic.

The float path only handles regular pencils through the generalized
eigensolver.  It cannot resolve Jordan structure, so every numeric
eigenvalue is reported as a simple divisor.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from .errors import PreconditionError, SchemaError, VerificationError
from .matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly, _require_keys
from .minimal import index_walk, walk_indices
from .qpoly import QQL, from_pm, pm_det, pm_eye, poly, to_pm
from .reduction import TrimResult, linearization_witnesses, verify_witnesses
from .spaces import AnsatzPencil

__all__ = [
    "EigStructure",
    "Verdict",
    "check_g_linearization",
    "check_linearization",
    "complete_eigenstructure",
    "index_sum_check",
    "smith_form",
]


def _require_matpoly(p):
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")
    return p


# ---------------------------------------------------------------------------
# Smith form


def smith_form(p):
    """Smith normal form with its unimodular transformations.

    Returns (U, S, V) with U p V = S, S diagonal with monic invariant
    factors in a divisibility chain.  sympy's smith_normal_decomp reduces
    p over QQ[l]; each factor is then made monic, with the unit folded into
    its row of U, and the result is audited exactly before it is returned.
    A zero p keeps identity transformations.  Rational field only.
    """
    p = _require_matpoly(p)
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("Smith reduction needs the rational field")
    a = to_pm(p)
    if p.is_zero():
        s, u, v = a, pm_eye(p.m), pm_eye(p.n)
    else:
        s, u, v = smith_normal_decomp(a)
        s, u = _make_monic(s, u)
    _audit_smith(u, a, v, s)
    return from_pm(u), from_pm(s), from_pm(v)


def _make_monic(s, u):
    """Scale each nonzero diagonal entry of s, and its row of u, by the
    inverse of the entry's leading coefficient."""
    s_rows, u_rows = s.to_list(), u.to_list()
    for t in range(min(s.shape)):
        d = s_rows[t][t]
        if d and d.LC != 1:
            lc = d.LC
            s_rows[t][t] = d.monic()
            u_rows[t] = [x.quo_ground(lc) for x in u_rows[t]]
    return (DomainMatrix(s_rows, s.shape, QQL),
            DomainMatrix(u_rows, u.shape, QQL))


def _audit_smith(u, a, v, s):
    """Raise unless s is diagonal with monic factors in a divisibility
    chain, u and v have nonzero constant determinants, and u a v = s."""
    rows = s.to_list()
    m, n = s.shape
    if any(rows[i][j] for i in range(m) for j in range(n) if i != j):
        raise VerificationError("Smith reduction left an off-diagonal entry")
    prev = None
    for t in range(min(m, n)):
        d = rows[t][t]
        if not d:
            prev = d
            continue
        if prev is not None and (not prev or d.rem(prev)):
            raise VerificationError("invariant factors break the "
                                    "divisibility chain")
        if d.LC != 1:
            raise VerificationError("invariant factor is not monic")
        prev = d
    if pm_det(u).degree() != 0:
        raise VerificationError("row transformation is not unimodular")
    if pm_det(v).degree() != 0:
        raise VerificationError("column transformation is not unimodular")
    if (u * a * v).to_list() != rows:
        raise VerificationError("Smith reduction lost the transformation "
                                "trail")


def _smith_diag(p):
    """Nonzero invariant factors of p, in chain order."""
    _, s, _ = smith_form(p)
    diag = (poly([c[t, t] for c in s.coeffs]) for t in range(min(s.m, s.n)))
    return [d for d in diag if d]


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

    def structural_sum(self) -> int:
        return (self.finite_degree_sum() + sum(self.infinite)
                + sum(self.right_indices) + sum(self.left_indices))

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "EigStructure":
        _require_keys(d, ("kind", "field", "nrank", "finite", "infinite",
                          "right_indices", "left_indices"),
                      "eigenstructure")
        if d["kind"] != "eigstructure":
            raise SchemaError("not an eigenstructure record")
        field = d["field"]
        fin = []
        for entry in d["finite"]:
            exps = tuple(entry["exponents"])
            if field == FIELD_FLOAT:
                re, im = entry["value"]
                fin.append((complex(re, im), exps))
            else:
                fin.append((tuple(FIELD_RATIONAL.scalar_from_json(c)
                                  for c in entry["factor"]), exps))
        return cls(nrank=int(d["nrank"]), finite=tuple(fin),
                   infinite=tuple(d["infinite"]),
                   right_indices=tuple(d["right_indices"]),
                   left_indices=tuple(d["left_indices"]), field=field)


def index_sum_check(es: EigStructure) -> bool:
    """Pencil bookkeeping: all structural degrees add up to the normal
    rank."""
    return es.structural_sum() == es.nrank


def _factor_monic(d):
    """Monic irreducible factors of a monic element of QQ[l], with
    multiplicities, as ascending coefficient tuples."""
    _, factors = sympy.factor_list(sympy.Poly(d.as_expr(), domain=sympy.QQ))
    out = [(tuple(Fraction(int(c.p), int(c.q))
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


def complete_eigenstructure(p) -> EigStructure:
    """Finite and infinite elementary divisors plus minimal indices.

    Exact path: the Smith form of p for the normal rank and finite part,
    rank walks for the rest, all certified by the Index Sum Theorem: the
    degrees and indices add up to grade * normal rank (De Terán, Dopico &
    Mackey, LAA 459, 2014).  Float path: regular pencils only, one simple
    divisor per numeric eigenvalue.
    """
    p = _require_matpoly(p)
    if p.field == FIELD_FLOAT:
        return _float_regular_pencil(p)
    divisors = _smith_diag(p)
    nrank = len(divisors)
    table = {}
    for d in divisors:
        if d.degree() > 0:
            for fac, e in _factor_monic(d):
                table.setdefault(fac, []).append(e)
    finite = tuple((fac, tuple(table[fac]))
                   for fac in sorted(table, key=lambda f: (len(f), f)))
    right, left, _ = walk_indices(p, nrank)
    es = EigStructure(nrank=nrank, finite=finite,
                      infinite=_infinite_degrees(p, nrank),
                      right_indices=right, left_indices=left, field=p.field)
    if es.structural_sum() != p.grade * nrank:
        raise VerificationError("structural indices do not add up to the "
                                "grade times the normal rank")
    return es


def _float_regular_pencil(p: MatPoly) -> EigStructure:
    import scipy.linalg

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
    """Compare L with diag(P, E) for a constant E of rank r.

    diag(P, E) is unimodularly equivalent to diag(P, I_r, 0), so its
    nonzero invariant factors are r ones followed by those of P, and the
    same holds for the two reversals.  Once the finite lists agree, the
    reversals can differ only in their orders at zero, the infinite
    degrees.
    """
    dl, dp = _smith_diag(lmat), _smith_diag(p)
    if dl != [QQL.one] * r + dp:
        return Verdict(False, "finite structure mismatch")
    if strong and (_infinite_degrees(lmat, len(dl))
                   != _infinite_degrees(p, len(dp))):
        return Verdict(False, "infinite eigenvalue mismatch")
    return Verdict(True, "")


def _witnessed(l, p, strong: bool) -> bool:
    """True when exact witnesses certify l, and its reversal when strong;
    False when none can be built.  A built witness that fails its
    verification raises VerificationError."""
    pairs = linearization_witnesses(l, p, strong)
    if pairs is None:
        return False
    for pen, poly, e, f in pairs:
        verify_witnesses(pen, poly, e, f)
    return True


def check_g_linearization(l, p, strong: bool = False) -> Verdict:
    """Does the pencil carry the complete finite (and, when strong, also
    infinite) structure of p with matching nullspace dimensions?

    The target is p padded with I_{k-1} kron I_{m,n}.  A member of p with
    full-rank Z is accepted on its verified witnesses; otherwise the
    pencil and the target, which share their shape, are compared by
    Smith form, which also forces equal nullspace dimensions.
    """
    lmat, p = _rational_inputs(l, p)
    k = p.grade
    if (lmat.m, lmat.n) != (k * p.m, k * p.n):
        raise SchemaError("pencil size does not match the grade")
    if _witnessed(l, p, strong):
        return Verdict(True, "")
    return _padded_verdict(lmat, p, (k - 1) * min(p.m, p.n), strong)


def check_linearization(lt, p, strong: bool = False) -> Verdict:
    """Same decision for trimmed pencils against p padded with a square
    identity block sized by the shape difference: witnesses first, then
    the Smith comparison."""
    lmat, p = _rational_inputs(lt, p)
    s = lmat.m - p.m
    if s != lmat.n - p.n or s < 0:
        raise SchemaError("pencil size does not match a padded identity")
    if _witnessed(lt, p, strong):
        return Verdict(True, "")
    return _padded_verdict(lmat, p, s, strong)
