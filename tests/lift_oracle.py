"""Reference route for the tests: lifting a left nullvector into a member.

The package recovers P's left minimal basis from a member's by the ansatz
projection (minimal.recover_minimal) and never lifts a vector up.  The
tests check the recovery theorem the other way: a left nullvector q of P
lifts to a left nullvector of a full-Z-rank right-space member, of the
same degree, that projects back onto q.
"""

import numpy as np

from matpencil import exactla as xla
from matpencil.errors import (PreconditionError, SchemaError,
                              VerificationError)
from matpencil.field import FIELD_RATIONAL
from matpencil.matpoly import MatPoly, block_apply, shear_s
from matpencil.spaces import SIDE_L1, AnsatzPencil


def pinv(field, z):
    """Pseudoinverse of a full-column-rank z: (zᵀz)⁻¹zᵀ exactly on the
    rational field, numpy's on float64."""
    if field == FIELD_RATIONAL:
        return xla.inv(z.T @ z) @ z.T
    return np.linalg.pinv(z)


def lift_left(q: MatPoly, l: AnsatzPencil) -> MatPoly:
    """Lift a left nullvector of P = l.poly into the member l.

    With the member row-transformed so the lower block pair (-Z, Z) is
    exposed, the complementary component is forced: contracting the top
    strip with the upper-shear tower and the pseudoinverse of Z gives the
    unique tail whose stacked vector annihilates the member. Coefficients
    above deg q are then removed after checking they hit Z trivially, so
    the lifted vector keeps the degree of q.  Raises unless P is tall and
    Z has full column rank.
    """
    if not isinstance(l, AnsatzPencil) or l.side != SIDE_L1:
        raise PreconditionError("needs a right-space member; transpose first")
    red = l._form
    red.complement  # raises unless P is tall and Z has full column rank
    p = l.poly
    if not isinstance(q, MatPoly) or q.n != 1:
        raise SchemaError("expected a column vector polynomial")
    if q.m != p.m:
        raise SchemaError("vector length does not match the row count")
    k, m, n, field = l.k, p.m, p.n, l.field
    if not field.negligible(q.transpose().matmul(p), q, p):
        raise PreconditionError("vector is not in the left nullspace")
    if q.is_zero():
        return MatPoly.zero(k * m, 1, 0, field)

    z = red.Z
    head = q.transpose().matmul(red.top)
    tail_row = head.matmul(shear_s(k, n, field)) \
                   .matmul(MatPoly([pinv(field, z)], field)).scale(-1)
    qtil = tail_row.transpose()

    g = max(q.degree, qtil.degree, 0)
    stacked = MatPoly([np.vstack([q.coeff(i), qtil.coeff(i)])
                       for i in range(g + 1)], field)
    delta = q.degree
    for i in range(stacked.grade, delta, -1):
        t = stacked.coeff(i)[m:, :]
        if not field.negligible(t.T @ z, z, t):
            raise VerificationError(
                "degree reduction failed; the lift keeps a higher-degree tail")
    stacked = MatPoly([stacked.coeff(i) for i in range(delta + 1)], field)

    res = stacked.transpose().matmul(red.pencil)
    if not field.negligible(res, q, p, red.pencil):
        raise VerificationError("lifted vector fails the pencil residual")

    y = MatPoly([block_apply(red.M.T, c) for c in stacked.coeffs],
                field).scale(field.div(field.one, red.alpha))
    if y.degree != delta:
        raise VerificationError("lift changed the degree")
    return y
