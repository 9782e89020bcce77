"""Reduction of ansatz-space pencils.

Given a member L with ansatz vector v and any nonsingular M with Mv = a*e1,
the block-row transform (M kron I) exposes a constant lower block Z whose
rank decides everything: full rank makes L a strong linearization candidate
and admits a trimming step that deletes the redundant rows. This module
extracts Z, tests its rank, builds explicit unimodular witnesses of the
linearization property, and performs the trimming.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (PreconditionError, SchemaError, StructureError,
                     VerificationError)
from .field import FIELD_RATIONAL, field_of, field_of_array
from .matpoly import (MatPoly, lambda_vec, matrix_from_json, matrix_to_json,
                      pencil_from_json, pencil_to_json, rect_identity,
                      _require_ints, _require_keys)
from .qpoly import pm_det, to_pm
from .spaces import SIDE_L1, SIDE_L2, AnsatzPencil


def reflector_for(v, field: Optional[str] = None):
    """Nonsingular M with M*v = alpha*e1, alpha != 0.

    Float path: Householder reflector, alpha = ||v||_2. Exact path: the
    elementary matrix [[1, 0], [-v_2..-v_k | v_1 I]] composed with a row
    swap when the leading entry vanishes; alpha is that leading entry.
    Without a field, float arrays take the float path.
    """
    field = field_of_array(v) if field is None else field_of(field)
    return field.reflector(v)


def _row_transformed(l: AnsatzPencil, m_mat, alpha):
    """M kron I, the right-space member (M kron I)*L and its constant
    lower-left block Z, after verifying the pencil really carries the
    two-copy structure: the lambda lower-right block must be -Z and the
    remaining lower corners zero."""
    p = l.poly
    k, m, n = p.grade, p.m, p.n
    field = l.field
    mk = field.kron(m_mat, field.eye(m))
    xp = mk @ l.pencil.X
    yp = mk @ l.pencil.Y
    z = yp[m:, :(k - 1) * n]
    checks = [
        (xp[m:, :n], "lambda lower-left"),
        (yp[m:, (k - 1) * n:], "constant lower-right"),
        (xp[m:, n:] + z, "lambda lower block vs -Z"),
        (xp[:m, :n] - p.coeff(k) * alpha, "leading corner"),
        (yp[:m, (k - 1) * n:] - p.coeff(0) * alpha, "trailing corner"),
    ]
    scale = lambda: max(1.0, l.pencil.frob_norm())
    for block, what in checks:
        if not field.negligible(block, scale):
            raise StructureError(f"reduced pencil violates the {what} block")
    return mk, MatPoly.pencil(xp, yp, field), z.copy()


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


def z_block(l: AnsatzPencil, m_mat, alpha):
    """The constant lower-left block of (M kron I)*L, after the structure
    checks of the row transform."""
    if l.side == SIDE_L2:
        return z_block(l.transpose(), m_mat, alpha).T.copy()
    return _row_transformed(l, m_mat, alpha)[2]


def z_rank(l: AnsatzPencil, safety=None) -> int:
    m_mat, alpha = reflector_for(l.ansatz, l.field)
    return l.field.rank(z_block(l, m_mat, alpha), safety)


def max_z_rank(l: AnsatzPencil) -> int:
    """Rank of a full-rank Z block: (k-1)·min(m, n)."""
    p = l.poly
    return (p.grade - 1) * min(p.m, p.n)


def full_z_rank(l: AnsatzPencil, safety=None) -> bool:
    return z_rank(l, safety) == max_z_rank(l)


# ---------------------------------------------------------------------------
# witnesses

def g_lin_witnesses(l: AnsatzPencil) -> Tuple[MatPoly, MatPoly]:
    """Unimodular E, F with E*L*F = diag(P, I_{k-1} kron I_{m,n}),
    constructed explicitly and verified symbolically. Exact field only."""
    if l.field != FIELD_RATIONAL:
        raise PreconditionError("witness construction needs the rational field")
    if l.side == SIDE_L2:
        e_d, f_d = g_lin_witnesses(l.transpose())
        e, f = f_d.transpose(), e_d.transpose()
        verify_witnesses(l.pencil, l.poly, e, f)
        return e, f
    p = l.poly
    k, m, n = p.grade, p.m, p.n
    if m < n:
        raise PreconditionError("wide polynomials reduce through the left space")
    field = l.field
    m_mat, alpha = field.reflector(l.ansatz)
    mk, lq, z = _row_transformed(l, m_mat, alpha)
    cn = (k - 1) * n
    if field.rank(z) < cn:
        raise PreconditionError("lower block is rank deficient")

    # column stage: fold the full polynomial into the last block column,
    # clear the lambda terms off the lower rows, bring it to the front
    kn = k * n
    g = [field.eye(kn)] + [field.zeros(kn, kn) for _ in range(k - 1)]
    for i in range(k):
        for t in range(n):
            g[k - 1 - i][i * n + t, (k - 1) * n + t] = field.one
    f = MatPoly(g, field)
    for jj in range(k - 2):
        x = field.zeros(kn, kn)
        for tt in range(n):
            x[jj * n + tt, (jj + 1) * n + tt] = field.one
        f = f.matmul(MatPoly([field.eye(kn), x], field))
    perm = field.zeros(kn, kn)
    for i in range(n):
        perm[(k - 1) * n + i, i] = field.one / alpha
    for i in range((k - 1) * n):
        perm[i, n + i] = field.one
    f = f.matmul(MatPoly([perm], field))

    work = lq.matmul(f)
    top = MatPoly([c[:m, n:] for c in work.coeffs], field).matmul(
        MatPoly([-field.pinv(z)], field))
    e2 = [field.eye(k * m)] + [field.zeros(k * m, k * m)
                               for _ in range(top.grade)]
    for c, block in zip(e2, top.coeffs):
        c[:m, m:] = block

    # constant completion: a square E' whose prescribed columns are the
    # columns of Z and whose free slots take a basis of the complement
    ln = field.nullspace(z.T).T
    eprime = field.zeros((k - 1) * m, (k - 1) * m)
    free = 0
    for b in range(k - 1):
        for j in range(m):
            if j < n:
                eprime[:, b * m + j] = z[:, b * n + j]
            else:
                eprime[:, b * m + j] = ln[free, :]
                free += 1
    e3 = field.eye(k * m)
    e3[m:, m:] = field.inv(eprime)
    e = MatPoly([e3 @ c @ mk for c in e2], field)
    verify_witnesses(l.pencil, p, e, f)
    return e, f


def verify_witnesses(l: MatPoly, p: MatPoly, e: MatPoly, f: MatPoly) -> None:
    """Check E*L*F = diag(P, I_{k-1} kron I_{m,n}) symbolically for the
    pencil L and that both determinants are nonzero constants. Raises on
    failure."""
    if p.field != FIELD_RATIONAL:
        raise PreconditionError("witness verification needs the rational field")
    k, m, n = p.grade, p.m, p.n
    prod = e.matmul(l).matmul(f)
    target = p.block_diag(MatPoly(
        [p.field.kron(p.field.eye(k - 1), rect_identity(m, n))]))
    if not prod.equal(target):
        raise VerificationError("witness product is not the two-copy form")
    for name, w in (("left", e), ("right", f)):
        if pm_det(to_pm(w)).degree() != 0:
            raise VerificationError(f"{name} witness is not unimodular")


# ---------------------------------------------------------------------------
# trimming

@dataclass(frozen=True, eq=False)
class TrimResult:
    """All factors of one trimming run.

    Right-space members are trimmed by deleting rows: Lt = D * L. For
    left-space members every factor acts from the right instead and is
    stored transposed, so Lt = L * D and Lt = Lt_hat * Dtilde there.
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
    Lt_hat: MatPoly
    K: MatPoly
    X12: np.ndarray
    Y11: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "field", field_of(self.field))

    def _strip(self, x, y) -> MatPoly:
        stack = np.hstack if self.side == SIDE_L1 else np.vstack
        return MatPoly.pencil(np.ascontiguousarray(stack(x)),
                              np.ascontiguousarray(stack(y)), self.field)

    def a_block(self) -> MatPoly:
        """Top strip of Lt_hat; satisfies A * (Lambda kron I) = alpha * P
        on the right side (transposed identity on the left side)."""
        if self.side == SIDE_L1:
            a0 = self.Lt_hat.Y[:self.m, (self.k - 1) * self.n:]
        else:
            a0 = self.Lt_hat.Y[(self.k - 1) * self.m:, :self.n]
        return self._strip([self.Lt_hat.X[:self.m, :self.n], self.X12],
                           [self.Y11, a0])

    def b_block(self) -> MatPoly:
        """Bottom strip of Lt_hat; equals -Rt * (H kron I) on the right
        side, with H the dual shift pencil."""
        cn = self.Rt.shape[0]
        zero = (self.field.zeros(cn, self.n) if self.side == SIDE_L1
                else self.field.zeros(self.m, cn))
        return self._strip([zero, -self.Rt], [self.Rt, zero])

    def row_transform(self):
        """M kron I_m, the block-row transform of a right-space record."""
        return self.field.kron(self.M, self.field.eye(self.m))

    def member_pencil(self) -> MatPoly:
        """The row-transformed member (M kron I)L of a right-space record,
        rebuilt from the stored blocks."""
        return _stack_over(self.a_block(), self.Z)

    def check_source(self, p: MatPoly):
        """Raise SchemaError unless the stored top strip reproduces
        alpha * p when contracted with the monomial tower."""
        field = self.field
        if (field, self.m, self.n, self.k) != (p.field, p.m, p.n, p.grade):
            raise SchemaError("trimming record does not fit this polynomial")
        a = self.a_block()
        if self.side == SIDE_L1:
            got = a.matmul(lambda_vec(self.k, self.n, field))
        else:
            got = lambda_vec(self.k, self.m, field).transpose().matmul(a)
        scale = lambda: max(1.0, abs(self.alpha) * p.frob_norm())
        if not field.negligible(got - p.scale(self.alpha), scale):
            raise SchemaError(
                "trimming record was built from a different polynomial")

    def removed_row_count(self) -> int:
        return (self.k - 1) * abs(self.m - self.n)

    def ansatz(self) -> np.ndarray:
        """Member's ansatz vector, recovered from M v = alpha e1."""
        e1 = self.field.zeros(self.k, 1)
        e1[0, 0] = self.alpha
        return self.field.solve(self.M, e1)[:, 0]

    def transpose(self) -> "TrimResult":
        """Same trimming seen from the opposite space side."""
        other = SIDE_L2 if self.side == SIDE_L1 else SIDE_L1
        return TrimResult(
            side=other, field=self.field, m=self.n, n=self.m, k=self.k,
            M=self.M, alpha=self.alpha, Z=self.Z.T.copy(),
            Q1=self.Q1.T.copy(), Q2=self.Q2.T.copy(), Rt=self.Rt.T.copy(),
            D=self.D.T.copy(), Dtilde=self.Dtilde.T.copy(),
            Lt=self.Lt.transpose(), Lt_hat=self.Lt_hat.transpose(),
            K=self.K.transpose(), X12=self.X12.T.copy(),
            Y11=self.Y11.T.copy())

    def to_json_dict(self) -> dict:
        field = self.field
        return {
            "kind": "trim_result", "side": self.side, "field": field,
            "m": self.m, "n": self.n, "k": self.k,
            "M": matrix_to_json(self.M, field),
            "alpha": field.scalar_to_json(self.alpha),
            "Z": matrix_to_json(self.Z, field),
            "Q1": matrix_to_json(self.Q1, field),
            "Q2": matrix_to_json(self.Q2, field),
            "Rt": matrix_to_json(self.Rt, field),
            "D": matrix_to_json(self.D, field),
            "Dtilde": matrix_to_json(self.Dtilde, field),
            "Lt": pencil_to_json(self.Lt),
            "Lt_hat": pencil_to_json(self.Lt_hat),
            "K": pencil_to_json(self.K),
            "X12": matrix_to_json(self.X12, field),
            "Y11": matrix_to_json(self.Y11, field),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrimResult":
        keys = ("kind", "side", "field", "m", "n", "k", "M", "alpha", "Z",
                "Q1", "Q2", "Rt", "D", "Dtilde", "Lt", "Lt_hat", "K",
                "X12", "Y11")
        _require_keys(d, keys, "trim result")
        if d["kind"] != "trim_result":
            raise SchemaError("not a trim result payload")
        if d["side"] not in (SIDE_L1, SIDE_L2):
            raise SchemaError(f"unknown side {d['side']!r}")
        _require_ints(d, ("m", "n", "k"), "trim result")
        field = field_of(d["field"])
        mats = {key: matrix_from_json(d[key], field)
                for key in ("M", "Z", "Q1", "Q2", "Rt", "D", "Dtilde",
                            "X12", "Y11")}
        out = cls(side=d["side"], field=field, m=d["m"], n=d["n"], k=d["k"],
                  alpha=field.scalar_from_json(d["alpha"]),
                  Lt=pencil_from_json(d["Lt"], field),
                  Lt_hat=pencil_from_json(d["Lt_hat"], field),
                  K=pencil_from_json(d["K"], field), **mats)
        _verify_trim_identities(out)
        return out


def _check_reproduces_lt(tr: TrimResult, rx, ry, message: str):
    scale = lambda: max(1.0, tr.Lt.frob_norm())
    for r in (rx, ry):
        if not tr.field.negligible(r, scale):
            raise VerificationError(message)


def _verify_trim_identities(tr: TrimResult):
    """Lt = Dtilde * Lt_hat (or the transposed variant) must hold."""
    if tr.side == SIDE_L1:
        rx = tr.Dtilde @ tr.Lt_hat.X - tr.Lt.X
        ry = tr.Dtilde @ tr.Lt_hat.Y - tr.Lt.Y
    else:
        rx = tr.Lt_hat.X @ tr.Dtilde - tr.Lt.X
        ry = tr.Lt_hat.Y @ tr.Dtilde - tr.Lt.Y
    _check_reproduces_lt(tr, rx, ry, "trim factors do not reproduce Lt")


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
        return trim(l.transpose(), d_t).transpose()
    p = l.poly
    k, m, n = p.grade, p.m, p.n
    if m < n:
        raise PreconditionError("wide polynomials trim through the left space")
    cn = (k - 1) * n
    m_mat, alpha = field.reflector(l.ansatz)
    mk, lq, z = _row_transformed(l, m_mat, alpha)
    if field.rank(z) < cn:
        raise PreconditionError("lower block is rank deficient; cannot trim")

    q1, q2, rt, q1_star, q2_star = field.factor_z(z, cn)
    top = MatPoly.pencil(lq.X[:m], lq.Y[:m], field)

    if d is None:
        d_used = field.zeros(m + cn, k * m)
        d_used[:m, :m] = field.eye(m)
        d_used[m:, m:] = q1_star
        d_used = d_used @ mk
    else:
        d_used = field.matrix(d)
        if d_used.shape != (m + cn, k * m):
            raise SchemaError(f"row-selector must be {m + cn}x{k * m}")
        stack_bottom = np.hstack([field.zeros(q2_star.shape[0], m),
                                  q2_star]) @ mk
        if field.rank(np.vstack([d_used, stack_bottom])) < k * m:
            raise PreconditionError(
                "row-selector does not complete the kernel rows to a "
                "nonsingular matrix")

    lt = MatPoly.pencil(d_used @ l.pencil.X, d_used @ l.pencil.Y, field)

    # Lt = Dtilde * Lt_hat through the factorized inverse of the row
    # transform: (M kron I)^{-1} diag(I, Q1) maps Lt_hat back to L
    mk_inv = field.kron(field.inv(m_mat), field.eye(m))
    e1 = field.zeros(k * m, m + cn)
    e1[:m, :m] = field.eye(m)
    e1[m:, m:] = q1
    dtilde = d_used @ (mk_inv @ e1)
    if field.rank(dtilde) < m + cn:
        raise PreconditionError("trim produced a singular square factor")

    out = TrimResult(side=SIDE_L1, field=field, m=m, n=n, k=k, M=m_mat,
                     alpha=alpha, Z=z, Q1=q1, Q2=q2, Rt=rt, D=d_used,
                     Dtilde=dtilde, Lt=lt, Lt_hat=_stack_over(top, rt),
                     K=_stack_over(top, field.eye(cn)),
                     X12=top.X[:, n:].copy(), Y11=top.Y[:, :cn].copy())
    _verify_trim_identities(out)
    return out


def kronecker_core(tr: TrimResult) -> MatPoly:
    """The inner shift-structured pencil K, re-verified against
    Lt = Dtilde * diag(I, Rt) * K (transposed variant on the left side)."""
    field = tr.field
    cn = tr.Rt.shape[0]
    size = (tr.m if tr.side == SIDE_L1 else tr.n) + cn
    blk = field.zeros(size, size)
    blk[:size - cn, :size - cn] = field.eye(size - cn)
    blk[size - cn:, size - cn:] = tr.Rt
    if tr.side == SIDE_L1:
        lead = tr.Dtilde @ blk
        rx = lead @ tr.K.X - tr.Lt.X
        ry = lead @ tr.K.Y - tr.Lt.Y
    else:
        lead = blk @ tr.Dtilde
        rx = tr.K.X @ lead - tr.Lt.X
        ry = tr.K.Y @ lead - tr.Lt.Y
    _check_reproduces_lt(tr, rx, ry, "shift core does not reproduce Lt")
    return tr.K
