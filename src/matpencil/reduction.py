"""Reduction of ansatz-space pencils.

Given a member L with ansatz vector v and any nonsingular M with Mv = a*e1,
(M kron I)*L is a member with ansatz a*e1 whose constant lower block Z
decides everything: full rank makes L a strong linearization candidate and
admits a trimming step that deletes the redundant rows. M and its inverse
act on the k block rows directly (``block_apply``); M kron I is never
formed. ``row_reduction`` returns that reduced member as its
block-Kronecker form, which each member builds once and keeps
(``AnsatzPencil._form``), and a trimming record carries one of its own;
z_rank, the trimming, the left recovery and the linearization certificate
all read those forms.  The two factor identities a form rests on (the top
strip's shifted sum and the constant-factor image) are checked where the
form is built: by row_reduction for a member, by TrimResult and its
check_source for a record.  No unimodular E or F is assembled here;
verify_witnesses checks a given pair on its coefficients and its
determinants at integer points (`examples 2` runs it on case 2's
hand-written pair).
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (PreconditionError, SchemaError, StructureError,
                     VerificationError)
from .field import FIELD_RATIONAL, field_of
from .matpoly import (MatPoly, block_apply, lambda_vec, matrix_from_json,
                      matrix_to_json, pencil_from_json, pencil_to_json,
                      rect_identity, shear_s, _require_ints, _require_keys)
from .qpoly import pm_det
from .spaces import SIDE_L1, SIDE_L2, AnsatzPencil, ansatz_gap


WIDE_REFUSAL = "wide polynomials trim through the left space"


@contextmanager
def transposed_problem():
    """Run a left-space member's problem on P^T: P^T wide means P tall."""
    try:
        yield
    except PreconditionError as e:
        if str(e) != WIDE_REFUSAL:
            raise
        raise PreconditionError("tall polynomials trim through the right "
                                "space") from None


# ---------------------------------------------------------------------------
# the block-Kronecker form

@dataclass(frozen=True)
class _KronForm:
    """A member or trimming record L written through constant factors
    around a block-Kronecker pencil of block width n:

        S*L = D*diag(I_m, W)*[K; 0],   K = [top; H],

    with H = [I 0] + l[0 -I] the dual of Lambda kron I_n.  A member
    (row_reduction) has S = M kron I, D = I and W = [Z | complement]; a
    record has S = I, D = Dtilde and W = Rt.  pencil holds S*L; M is None
    when S = I and D when D = I; Z is W's leading (k-1)*n columns.  Where
    the form is built, this identity and top*(Lambda kron I) = alpha*P are
    checked; certify() checks the rest, and only the tests' oracle
    (tests/witness_oracle.py) assembles the E and F they imply.
    """
    pencil: MatPoly
    M: Optional[np.ndarray]
    D: Optional[np.ndarray]
    Z: np.ndarray
    top: MatPoly
    alpha: object

    @property
    def n(self) -> int:
        return self.top.n - self.Z.shape[1]

    @cached_property
    def complement(self) -> np.ndarray:
        """A basis of the left complement of Z's range, the kernel of Z^T,
        eliminated once per form; raise unless P is tall and Z has full
        column rank."""
        if self.pencil.m < self.pencil.n:
            raise PreconditionError(WIDE_REFUSAL)
        comp = self.pencil.field.nullspace(self.Z.T)
        if comp.shape[1] != self.Z.shape[0] - self.Z.shape[1]:
            raise PreconditionError(
                "lower block is rank deficient; cannot trim")
        return comp

    @cached_property
    def W(self) -> np.ndarray:
        """[Z | complement]; a square Z of a tall pencil is its own W,
        and nonsingular() takes its rank instead of an empty kernel."""
        rows, cn = self.Z.shape
        if rows == cn and self.pencil.m >= self.pencil.n:
            return self.Z
        return np.hstack([self.Z, self.complement])

    @property
    def t(self) -> np.ndarray:
        """The row permutation, fixing the first m rows, that carries
        [diag(P, I); 0] onto diag(P, padding): block b of the target's lower
        rows takes the n rows of Z's block b, then m - n rows of N."""
        m, (rows, cn) = self.top.m, self.Z.shape
        if rows == cn:
            return np.arange(m + rows)
        blocks = self.top.n // self.n - 1
        rest = cn + np.arange(rows - cn).reshape(blocks, -1)
        lower = np.hstack([np.arange(cn).reshape(blocks, self.n), rest])
        return np.concatenate([np.arange(m), m + lower.ravel()])

    def top_gap(self, p: MatPoly) -> np.ndarray:
        """The shifted sum of top less alpha*[A_k ... A_0]: zero exactly
        when top*(Lambda kron I) = alpha*P."""
        return ansatz_gap(self.top, p, self.pencil.field.vector([self.alpha]))

    def image_gap(self) -> MatPoly:
        """D*diag(I, W)*[K; 0] less the pencil: zero exactly when the
        pencil is that constant-factor image."""
        image = _stack_over(self.top, self.Z).coeffs
        if self.D is not None:
            image = [self.D @ c for c in image]
        return MatPoly([c - a for c, a in zip(image, self.pencil.coeffs)],
                       self.pencil.field)

    def nonsingular(self) -> bool:
        """alpha != 0 and the constant factors M, D and W are square of full
        rank, so that C and F_K exist; False where complement fails."""
        try:
            factors = (self.M, self.D, self.W)
        except PreconditionError:
            return False
        rank = self.pencil.field.rank
        return self.alpha != 0 and all(rank(a) == a.shape[0] == a.shape[1]
                                       for a in factors if a is not None)

    def certify(self, p: MatPoly) -> None:
        """Check that the form certifies its pencil as a strong
        linearization of p, given (1) S*L = D*diag(I, W)*[K; 0] and
        top*(Lambda kron I) = alpha*P, checked where the form was built,
        and (2) nonsingular(); raise VerificationError unless, exactly:

        (3) H*Lambda = 0, H*G = I and the last block row of Lambda is I,
            for Lambda = lambda_vec(k, n) and G = shear_s(k, n);
        (4) t is a permutation fixing the first m rows, and
            T*[diag(P, I); 0] = diag(P, padding).

        These are as strong as checking E*L*F = diag(P, padding) over
        QQ[l] with det E and det F nonzero constants:
        - K*F_K = [[top*Lambda/alpha, top*G], [H*Lambda/alpha, H*G]]
          = [[P, top*G], [0, I]] by (1) and (3), so E_K*K*F_K = diag(P, I)
          by block multiplication;
        - E*L*F = T*diag(E_K, I)*C*L*F_K = T*diag(E_K, I)*[K; 0]*F_K
          = T*[diag(P, I); 0] = diag(P, padding) by (1) and (4);
        - det E = ±det C: E_K is unit upper triangular and T a permutation;
          C is a product of nonsingular constant factors;
        - [alpha*(e_k^T kron I); H]*F_K = [[I, alpha*(e_k^T kron I)*G],
          [0, I]] is block unit upper triangular by (3), so det F_K divides
          1 in QQ[l]: a nonzero constant, and det F = det F_K.
        The reversal's identities are these with X and Y swapped and the
        blocks flipped, so the form is a strong linearization (Dopico,
        Lawrence, Perez & Van Dooren, Numer. Math. 140, 2018).
        """
        field, m, n = FIELD_RATIONAL, self.top.m, self.n
        k = self.top.n // n
        cn = (k - 1) * n
        lam, g = lambda_vec(k, n, field), shear_s(k, n, field)
        last = MatPoly([c[cn:] for c in lam.coeffs], field)
        if not (_h_times(lam, n).is_zero()
                and _h_times(g, n).equal(MatPoly([field.eye(cn)], field))
                and last.equal(MatPoly([field.eye(n)], field))):
            raise VerificationError(
                "H, Lambda and G fail their fixed identities")
        rows, t = self.pencil.m, self.t
        lifted = field.zeros(rows - m, cn)
        lifted[:cn] = field.eye(cn)
        if not (np.array_equal(np.sort(t), np.arange(rows))
                and np.array_equal(t[:m], np.arange(m))
                and field.is_zero(lifted[t[m:] - m]
                                  - _padding(self.pencil, p))):
            raise VerificationError(
                "permutations do not reach the padded polynomial")


def _stack_over(top: MatPoly, lower) -> MatPoly:
    """The pencil with the strip top over the lower block pair
    (-lower, lower): lower sits left in Y and right in X."""
    field = top.field
    m, cols = top.m, top.n
    rows, cn = lower.shape
    x = field.zeros(m + rows, cols)
    y = field.zeros(m + rows, cols)
    x[:m] = top.X
    x[m:, cols - cn:] = -lower
    y[:m] = top.Y
    y[m:, :cn] = lower
    return MatPoly.pencil(x, y, field)


def _h_times(y: MatPoly, n: int) -> MatPoly:
    """H*y for the H = [I 0] + l[0 -I] of K and _stack_over, with blocks
    of n rows: y without its last block minus l times y without its
    first."""
    field, cn = y.field, y.m - n
    up = MatPoly([c[:cn] for c in y.coeffs], field)
    down = MatPoly([field.zeros(cn, y.n)] + [c[n:] for c in y.coeffs], field)
    return up - down


def row_reduction(l: AnsatzPencil, m_mat, alpha) -> _KronForm:
    """The block-Kronecker form of a right-space member, after verifying
    that (M kron I)*L is a member with ansatz alpha*e1: its top rows are
    then alpha*P's and its lower ones Z*H, both identities of the form."""
    p = l.poly
    k, m, n = p.grade, p.m, p.n
    field = l.field
    reduced = MatPoly.pencil(block_apply(m_mat, l.pencil.X),
                             block_apply(m_mat, l.pencil.Y), field)
    e1 = field.vector([alpha] + [0] * (k - 1))
    if not field.negligible(ansatz_gap(reduced, p, e1), l.pencil):
        raise StructureError(
            "reduced pencil is not a member with ansatz alpha*e1")
    top = MatPoly.pencil(reduced.X[:m], reduced.Y[:m], field)
    z = reduced.Y[m:, :(k - 1) * n].copy()
    return _KronForm(reduced, m_mat, None, z, top, alpha)


def z_rank(l: AnsatzPencil) -> int:
    """Rank of the Z block of the member's own block-Kronecker form (a
    left-space member's is its transpose's, of equal rank)."""
    return l.field.rank(l._form.Z)


def max_z_rank(l: AnsatzPencil) -> int:
    """Rank of a full-rank Z block: (k-1)·min(m, n)."""
    p = l.poly
    return (p.grade - 1) * min(p.m, p.n)


def full_z_rank(l: AnsatzPencil) -> bool:
    return z_rank(l) == max_z_rank(l)


# ---------------------------------------------------------------------------
# trimming

# matrix fields of a trimming record, stored transposed on the left side
_MATRICES = ("Z", "Q1", "Q2", "Rt", "D", "Dtilde")


def _shapes(side: str, m: int, n: int, k: int) -> dict:
    """Stored field shapes of a record of an m x n grade-k polynomial."""
    if side == SIDE_L2:
        return {key: s[::-1] for key, s in _shapes(SIDE_L1, n, m, k).items()}
    cn, rows = (k - 1) * n, (k - 1) * m
    strip = (m + cn, k * n)
    return {"M": (k, k), "Z": (rows, cn), "Q1": (rows, cn),
            "Q2": (rows, rows - cn), "Rt": (cn, cn), "D": (m + cn, k * m),
            "Dtilde": (m + cn, m + cn), "Lt": strip, "Lt_hat": strip,
            "K": strip, "X12": (m, cn), "Y11": (m, cn)}


@dataclass(frozen=True, eq=False)
class TrimResult:
    """All factors of one trimming run.

    Right-space members are trimmed by deleting rows: Lt = D * L and
    Lt = Dtilde * Lt_hat, where Lt_hat = [top; Rt*H] = diag(I, Rt) * K and
    K = [top; H] is the block-Kronecker pencil, H the dual shift pencil.
    The top strip is stored once; Lt_hat, K and the corners X12, Y11 the
    JSON form repeats are derived from it and Rt. For left-space members
    every factor acts from the right instead and is stored transposed, so
    Lt = L * D and Lt = Lt_hat * Dtilde there. Both identities the record
    rests on are checked on its block-Kronecker form, _form: Lt = Dtilde *
    Lt_hat as the record is made, whether trimmed, loaded or built by
    hand (a transpose carries the form already checked), and the top
    strip's shifted sum by check_source.  Recovery reads the record
    through that form alone.  M, D, Z, Q1 and Q2 are provenance: trim
    prints them and loading checks their shapes, but no command reads
    them.
    """
    side: str
    field: str
    m: int
    n: int
    k: int
    M: np.ndarray
    alpha: object
    Z: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    Rt: np.ndarray
    D: np.ndarray
    Dtilde: np.ndarray
    Lt: MatPoly
    top: MatPoly

    def __post_init__(self):
        """Raise VerificationError unless Lt = Dtilde * Lt_hat."""
        object.__setattr__(self, "field", field_of(self.field))
        form = self._form
        if not self.field.negligible(form.image_gap(), form.pencil):
            raise VerificationError("trim factors do not reproduce Lt")

    @cached_property
    def _form(self) -> _KronForm:
        """Lt = Dtilde*diag(I, Rt)*K as a block-Kronecker form, on the right
        side: a left-space record's form is its transpose's."""
        lt, top, dt, rt = self.Lt, self.top, self.Dtilde, self.Rt
        if self.side == SIDE_L2:
            lt, top, dt, rt = lt.transpose(), top.transpose(), dt.T, rt.T
        return _KronForm(lt, None, dt, rt, top, self.alpha)

    @property
    def Lt_hat(self) -> MatPoly:
        """The reduced form [top; Rt*H] with Lt = Dtilde * Lt_hat."""
        out = _stack_over(self._form.top, self._form.Z)
        return out.transpose() if self.side == SIDE_L2 else out

    @property
    def K(self) -> MatPoly:
        """The block-Kronecker pencil [top; H]."""
        out = _stack_over(self._form.top, self.field.eye(len(self.Rt)))
        return out.transpose() if self.side == SIDE_L2 else out

    def b_block(self) -> MatPoly:
        """Bottom strip of Lt_hat; equals -Rt * (H kron I) on the right
        side."""
        if self.side == SIDE_L2:
            return self.transpose().b_block().transpose()
        return MatPoly([c[self.m:] for c in self.Lt_hat.coeffs], self.field)

    def _corners(self):
        """X12 and Y11: the top strip's X without its leading block and its
        Y without its trailing block, which the JSON form repeats."""
        cn = self.Rt.shape[0]
        if self.side == SIDE_L1:
            return self.top.X[:, self.n:], self.top.Y[:, :cn]
        return self.top.X[self.m:], self.top.Y[:cn]

    def check_source(self, p: MatPoly):
        """Raise SchemaError unless the stored top strip is a member of
        the one-entry ansatz [alpha] for p: its shifted sum must equal
        alpha * [A_k ... A_0] (the transposed identity on the left side)."""
        field = self.field
        if (field, self.m, self.n, self.k) != (p.field, p.m, p.n, p.grade):
            raise SchemaError("trimming record does not fit this polynomial")
        gap = self._form.top_gap(p if self.side == SIDE_L1
                                 else p.transpose())
        if not field.negligible(gap, self.alpha, p):
            raise SchemaError(
                "trimming record was built from a different polynomial")

    def transpose(self) -> "TrimResult":
        """Same trimming seen from the opposite space side.  Both sides
        read one right-side form, so the transpose carries this record's
        checked _form and runs no check of its own."""
        other = SIDE_L2 if self.side == SIDE_L1 else SIDE_L1
        out = object.__new__(TrimResult)
        out.__dict__.update(
            side=other, field=self.field, m=self.n, n=self.m, k=self.k,
            M=self.M, alpha=self.alpha, Lt=self.Lt.transpose(),
            top=self.top.transpose(), _form=self._form,
            **{key: getattr(self, key).T.copy() for key in _MATRICES})
        return out

    def to_json_dict(self) -> dict:
        field = self.field
        mats = {key: getattr(self, key) for key in ("M",) + _MATRICES}
        mats["X12"], mats["Y11"] = self._corners()
        pens = {"Lt": self.Lt, "Lt_hat": self.Lt_hat, "K": self.K}
        return {"kind": "trim_result", "side": self.side, "field": field,
                "m": self.m, "n": self.n, "k": self.k,
                "alpha": field.scalar_to_json(self.alpha),
                **{key: matrix_to_json(a, field) for key, a in mats.items()},
                **{key: pencil_to_json(p) for key, p in pens.items()}}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrimResult":
        """Load a record, reading the top strip from Lt_hat; raise
        VerificationError unless Lt = Dtilde * Lt_hat holds, checked as
        the record is made, and K, X12, Y11 and the rest of Lt_hat equal
        what that strip and Rt give."""
        keys = ("kind", "side", "field", "m", "n", "k", "M", "alpha", "Lt",
                "Lt_hat", "K", "X12", "Y11") + _MATRICES
        _require_keys(d, keys, "trim result")
        if d["kind"] != "trim_result":
            raise SchemaError("not a trim result payload")
        if d["side"] not in (SIDE_L1, SIDE_L2):
            raise SchemaError(f"unknown side {d['side']!r}")
        _require_ints(d, ("m", "n", "k"), "trim result")
        field = field_of(d["field"])
        m, n, k = d["m"], d["n"], d["k"]
        shapes = _shapes(d["side"], m, n, k)
        mats = {key: matrix_from_json(d[key], field, *shapes[key])
                for key in ("M", "X12", "Y11") + _MATRICES}
        pens = {key: pencil_from_json(d[key], field, shapes[key][1])
                for key in ("Lt", "Lt_hat", "K")}
        for key, p in pens.items():
            if (p.m, p.n) != shapes[key]:
                raise SchemaError(f"trim result: {key} has the wrong shape")
        lt_hat = pens["Lt_hat"]
        top = MatPoly([c[:, :n].copy() if d["side"] == SIDE_L2 else c[:m]
                       for c in lt_hat.coeffs], field)
        out = cls(side=d["side"], field=field, m=m, n=n, k=k,
                  alpha=field.scalar_from_json(d["alpha"]), Lt=pens["Lt"],
                  top=top, **{key: mats[key] for key in ("M",) + _MATRICES})
        x12, y11 = out._corners()
        if not (lt_hat.equal(out.Lt_hat) and pens["K"].equal(out.K)
                and field.is_zero(mats["X12"] - x12)
                and field.is_zero(mats["Y11"] - y11)):
            raise VerificationError(
                "trimming record's copies of the top strip disagree")
        return out


def trim(l: AnsatzPencil, d=None) -> TrimResult:
    """Delete the redundant rows of a full-Z-rank member.

    Default D stacks the identity over the orthogonalized-complement rows,
    which lands exactly on the reduced form Lt_hat (so Dtilde = I). A user
    D is accepted when it completes the kernel rows to a nonsingular
    square matrix.
    """
    field = l.field
    if l.side == SIDE_L2:
        d_t = None if d is None else field.matrix(d).T.copy()
        with transposed_problem():
            return trim(l.transpose(), d_t).transpose()
    p = l.poly
    k, m, n = p.grade, p.m, p.n
    cn = (k - 1) * n
    red = l._form
    m_mat, alpha = red.M, red.alpha
    q1, q2, rt, q1_star, q2_star = field.factor_z(red.Z, red.complement)

    if d is None:
        d_used = field.zeros(m + cn, k * m)
        d_used[:m, :m] = field.eye(m)
        d_used[m:, m:] = q1_star
        d_used = block_apply(m_mat.T, d_used.T).T
    else:
        d_used = field.matrix(d)
        if d_used.shape != (m + cn, k * m):
            raise SchemaError(f"row-selector must be {m + cn}x{k * m}")
        stack_bottom = block_apply(m_mat.T, np.hstack(
            [field.zeros(q2_star.shape[0], m), q2_star]).T).T
        if field.rank(np.vstack([d_used, stack_bottom])) < k * m:
            raise PreconditionError(
                "row-selector does not complete the kernel rows to a "
                "nonsingular matrix")

    lt = MatPoly.pencil(d_used @ l.pencil.X, d_used @ l.pencil.Y, field)

    # Lt = Dtilde * Lt_hat through the factorized inverse of the row
    # transform: (M kron I)^{-1} diag(I, Q1) maps Lt_hat back to L
    e1 = field.zeros(k * m, m + cn)
    e1[:m, :m] = field.eye(m)
    e1[m:, m:] = q1
    dtilde = d_used @ block_apply(field.inv(m_mat), e1)
    if field.rank(dtilde) < m + cn:
        raise PreconditionError("trim produced a singular square factor")

    return TrimResult(side=SIDE_L1, field=field, m=m, n=n, k=k, M=m_mat,
                      alpha=alpha, Z=red.Z, Q1=q1, Q2=q2, Rt=rt, D=d_used,
                      Dtilde=dtilde, Lt=lt, top=red.top)


# ---------------------------------------------------------------------------
# the certificate and the witness check

def _kron_form(obj, p: MatPoly):
    """The block-Kronecker form of a member or trimming record built from
    p, and whether it was taken through the transpose; raises when none
    can be built.  A member's form may still be singular: nonsingular()
    decides."""
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("witness construction needs the rational field")
    if isinstance(obj, AnsatzPencil):
        if obj.poly.grade != p.grade or not obj.poly.equal(p):
            raise PreconditionError("member was built from another polynomial")
        return obj._form, obj.side == SIDE_L2
    if isinstance(obj, TrimResult):
        try:
            obj.check_source(p)
        except SchemaError as e:
            raise PreconditionError(str(e)) from e
        return obj._form, obj.side == SIDE_L2
    raise PreconditionError("a bare pencil has no witness")


def certify_linearization(obj, p: MatPoly) -> bool:
    """Certify a member or trimming record built from p as a strong
    linearization of p on the factor identities of its block-Kronecker
    form (_KronForm.certify): no E or F is assembled and nothing is
    multiplied over QQ[l].  False when no form with nonsingular factors
    exists (a bare pencil, a deficient Z, a record or member of another
    polynomial, a zero alpha, a singular constant factor); raises
    VerificationError when an identity fails."""
    try:
        form, transposed = _kron_form(obj, p)
    except PreconditionError:
        return False
    if not form.nonsingular():
        return False
    form.certify(p.transpose() if transposed else p)
    return True


def _padding(l: MatPoly, p: MatPoly):
    """The constant block a linearization pads P with: I_s for an
    (m+s) x (n+s) pencil, I_{k-1} kron I_{m,n} for a km x kn member."""
    field, k, m, n = p.field, p.grade, p.m, p.n
    if l.m - m == l.n - n >= 0:
        return field.eye(l.m - m)
    if (l.m, l.n) == (k * m, k * n):
        return np.kron(field.eye(k - 1), rect_identity(m, n, field))
    raise SchemaError("pencil size does not match a padded polynomial")


def verify_witnesses(l: MatPoly, p: MatPoly, e: MatPoly, f: MatPoly) -> None:
    """Check E*L*F = diag(P, padding) exactly for the pencil L, by
    MatPoly.matmul on the coefficients, and that both determinants
    (pm_det, interpolated from integer points) are nonzero constants.
    Raises on failure."""
    if any(x.field != FIELD_RATIONAL for x in (l, p, e, f)):
        raise PreconditionError("witness verification needs the rational field")
    target = p.block_diag(MatPoly([_padding(l, p)], p.field))
    if not e.matmul(l).matmul(f).equal(target):
        raise VerificationError("witness product is not the padded polynomial")
    for name, w in (("left", e), ("right", f)):
        if pm_det(w).degree() != 0:
            raise VerificationError(f"{name} witness is not unimodular")
