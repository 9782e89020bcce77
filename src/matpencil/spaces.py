"""Ansatz spaces of km x kn pencils attached to an m x n matrix polynomial.

The right space collects pencils L with L(lambda) * (Lambda_k ⊗ I_n) =
v ⊗ P(lambda); the left space is the transpose dual. Members are fully
parameterized by the ansatz vector plus one free block matrix, which is what
the builders take.

The identity is checked in one form, ``ansatz_gap``: for lambda*X + Y it
holds iff the shifted sum [X 0] + [0 Y] equals v ⊗ [A_k ... A_0].
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import PreconditionError, SchemaError, VerificationError
from .field import field_of_array
from .matpoly import (MatPoly, matrix_from_json, pencil_from_json,
                      pencil_to_json, rect_identity)

SIDE_L1 = "l1"
SIDE_L2 = "l2"


@dataclass(frozen=True, eq=False)
class AnsatzPencil:
    """A pencil together with its space side, ansatz vector, and source
    polynomial."""
    pencil: MatPoly
    side: str
    ansatz: np.ndarray
    poly: MatPoly

    @property
    def k(self) -> int:
        return self.poly.grade

    @property
    def field(self) -> str:
        return self.pencil.field

    @cached_property
    def _form(self):
        """The block-Kronecker form under the ansatz vector's reflector
        (reduction.row_reduction), built once per member: a left-space
        member's form is its transpose's."""
        if self.side == SIDE_L2:
            return self.transpose()._form
        from .reduction import row_reduction  # reduction imports this module
        return row_reduction(self, *self.field.reflector(self.ansatz))

    def transpose(self) -> "AnsatzPencil":
        """The transposed pencil lives in the opposite space of the
        transposed polynomial."""
        other = SIDE_L2 if self.side == SIDE_L1 else SIDE_L1
        return AnsatzPencil(self.pencil.transpose(), other, self.ansatz,
                            self.poly.transpose())

    def to_json_dict(self) -> dict:
        return {
            "kind": "ansatz_pencil",
            "side": self.side,
            "field": self.field,
            "ansatz": [self.field.scalar_to_json(x) for x in self.ansatz],
            "pencil": pencil_to_json(self.pencil),
            "poly": self.poly.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AnsatzPencil":
        for key in ("kind", "side", "field", "ansatz", "pencil", "poly"):
            if key not in d:
                raise SchemaError(f"ansatz pencil: missing key {key!r}")
        if d["kind"] != "ansatz_pencil":
            raise SchemaError("not an ansatz pencil payload")
        if d["side"] not in (SIDE_L1, SIDE_L2):
            raise SchemaError(f"unknown side {d['side']!r}")
        poly = MatPoly.from_json_dict(d["poly"])
        pen = pencil_from_json(d["pencil"], d["field"], poly.grade * poly.n)
        ansatz = matrix_from_json([d["ansatz"]], d["field"])[0]
        member = cls(pen, d["side"], ansatz, poly)
        if not pen.field.negligible(ansatz_residual(member), pen):
            raise SchemaError("payload does not satisfy its ansatz identity")
        return member


def _as_vector(v, field, k):
    vec = field.vector(v)
    if vec.shape != (k,):
        raise SchemaError(f"ansatz vector must have length {k}")
    return vec


def _ansatz_grade(p: MatPoly) -> int:
    if p.grade < 2:
        raise PreconditionError("ansatz spaces need grade >= 2")
    return p.grade


def build_l1(p: MatPoly, v, w) -> AnsatzPencil:
    """Member of the right ansatz space from its free parameters.

    X = [v ⊗ A_k | -W], Y = [W + v ⊗ [A_{k-1} ... A_1] | v ⊗ A_0].
    """
    k, m, n = _ansatz_grade(p), p.m, p.n
    field = p.field
    v = _as_vector(v, field, k)
    w = field.matrix(w)
    if w.shape != (k * m, (k - 1) * n):
        raise SchemaError(f"free block must be {k * m}x{(k - 1) * n}")

    t = ansatz_target(p, v)
    x = np.hstack([t[:, :n], -w])
    y = np.hstack([w + t[:, n:k * n], t[:, k * n:]])
    member = AnsatzPencil(MatPoly.pencil(x, y, field), SIDE_L1, v, p)
    if not field.negligible(ansatz_residual(member), member.pencil):
        raise VerificationError("construction violated the ansatz identity")
    return member


def build_l2(p: MatPoly, w, what) -> AnsatzPencil:
    """Member of the left ansatz space, built through the transpose dual."""
    k, m = _ansatz_grade(p), p.m
    field = p.field
    w = _as_vector(w, field, k)
    what = field.matrix(what)
    if what.shape != ((k - 1) * m, k * p.n):
        raise SchemaError(f"free block must be {(k - 1) * m}x{k * p.n}")
    dual = build_l1(p.transpose(), w, what.T.copy())
    return AnsatzPencil(dual.pencil.transpose(), SIDE_L2, w, p)


def companion_g1(p: MatPoly) -> AnsatzPencil:
    """First companion-style member: ansatz e_1 and the block pattern that
    puts rectangular identities on the lambda diagonal."""
    k, m, n = _ansatz_grade(p), p.m, p.n
    field = p.field
    w = field.zeros(k * m, (k - 1) * n)
    imn = rect_identity(m, n, field)
    for j in range(k - 1):
        w[(j + 1) * m:(j + 2) * m, j * n:(j + 1) * n] = -imn
    return build_l1(p, _unit_like(p, 0), w)


def companion_g2(p: MatPoly) -> AnsatzPencil:
    """Second companion-style member (left space): the transpose of the
    first one of the transposed polynomial."""
    return companion_g1(p.transpose()).transpose()


def shifted_sum(x, y, n: int) -> np.ndarray:
    """[X | 0] + [0 | Y] on blocks n columns wide."""
    if n < 1:
        raise PreconditionError("sizes must be positive")
    if x.shape != y.shape:
        raise SchemaError("summands differ in shape")
    rows, cols = x.shape
    if cols % n:
        raise SchemaError("shape is not a whole number of blocks")
    out = field_of_array(x).zeros(rows, cols + n)
    out[:, :cols] = out[:, :cols] + x
    out[:, n:] = out[:, n:] + y
    return out


def ansatz_target(p: MatPoly, v) -> np.ndarray:
    """v ⊗ [A_k A_{k-1} ... A_0], the shifted-sum form of the identity;
    the block rows of zero entries of v are left zero, not multiplied."""
    strip = np.hstack(p.coeffs[::-1])
    v = p.field.vector(v)
    out = p.field.zeros(v.shape[0] * p.m, strip.shape[1])
    for i, x in enumerate(v):
        if x != 0:
            out[i * p.m:(i + 1) * p.m] = x * strip
    return out


def ansatz_gap(pencil: MatPoly, p: MatPoly, v) -> np.ndarray:
    """[X 0] + [0 Y] - v ⊗ [A_k ... A_0] for the pencil lambda*X + Y: zero
    exactly when L(lambda) * (Lambda_k ⊗ I_n) = v ⊗ P(lambda). Block
    column j is the coefficient of lambda^(k-j) in the difference."""
    k, n = p.grade, p.n
    if k < 1 or n < 1:
        raise PreconditionError("sizes must be positive")
    pencil._check_field(p)
    if pencil.n != k * n:
        raise SchemaError("inner dimensions differ")
    target = ansatz_target(p, v)
    if pencil.m != target.shape[0]:
        raise SchemaError("shapes differ")
    return shifted_sum(pencil.X, pencil.Y, n) - target


def ansatz_residual(member: AnsatzPencil) -> MatPoly:
    """Symbolic residual of the defining identity; zero iff member is
    genuine. Coefficient i is block k-i of the ``ansatz_gap``."""
    if member.side == SIDE_L2:
        return ansatz_residual(member.transpose()).transpose()
    gap = ansatz_gap(member.pencil, member.poly, member.ansatz)
    return MatPoly(np.split(gap, member.k + 1, axis=1)[::-1], member.field)


def ansatz_membership(l: MatPoly, p: MatPoly, side: str) -> Optional[np.ndarray]:
    """Recover the unique ansatz vector of a space member, or None.

    Solves block row by block row with an exact least-squares ratio, then
    verifies the full identity on the same shifted sum. A zero polynomial
    makes the vector non-unique, so the result is None.
    """
    k, m, n = p.grade, p.m, p.n
    if side == SIDE_L2:
        return ansatz_membership(l.transpose(), p.transpose(), SIDE_L1)
    if (l.m, l.n) != (k * m, k * n):
        raise SchemaError(f"pencil must be {k * m}x{k * n} for this side")
    l._check_field(p)
    if p.is_zero():
        return None
    shifted = shifted_sum(l.X, l.Y, n)
    strip = ansatz_target(p, _unit_like(p, 0))  # e_1 strip, used per block row
    t = strip[:m, :]
    tt = p.field.inner(t, t)
    v = p.field.vector([
        p.field.div(p.field.inner(shifted[i * m:(i + 1) * m, :], t), tt)
        for i in range(k)])
    gap = MatPoly([shifted - ansatz_target(p, v)], p.field)
    return v if p.field.negligible(gap, l) else None


def _unit_like(p: MatPoly, i: int):
    e = p.field.zeros(p.grade, 1)[:, 0]
    e[i] = p.field.one
    return e
