"""Reference route for the tests: the ansatz space as a vector space.

The package builds one member at a time from an ansatz vector and a free
block and never spans the space.  The tests check the paper's structure
of the space from here: its dimension k(k-1)mn + k, the spanning set of
unit ansatz vectors and unit free blocks, and the reversal member that a
block flip makes of a reversed member.
"""

import numpy as np

from matpencil.errors import PreconditionError
from matpencil.field import FIELD_RATIONAL, field_of
from matpencil.matpoly import MatPoly
from matpencil.spaces import (SIDE_L1, AnsatzPencil, _unit_like, build_l1,
                              build_l2)


def space_dimension(m: int, n: int, k: int) -> int:
    if m < 1 or n < 1 or k < 2:
        raise PreconditionError("needs positive sizes and grade >= 2")
    return k * (k - 1) * m * n + k


def generator_matrix(p: MatPoly, side: str) -> np.ndarray:
    """Stacked vectorizations [vec X | vec Y] of the spanning set given by
    unit ansatz vectors and unit free blocks; its rank is the space
    dimension whenever P is nonzero."""
    k, m, n = p.grade, p.m, p.n
    rows = []

    def vec_of(member):
        pen = member.pencil.to_float()
        return np.concatenate([pen.X.ravel(), pen.Y.ravel()])

    wshape = (k * m, (k - 1) * n) if side == SIDE_L1 else ((k - 1) * m, k * n)
    zero_w = p.field.zeros(*wshape)
    build = build_l1 if side == SIDE_L1 else build_l2
    for i in range(k):
        rows.append(vec_of(build(p, _unit_like(p, i), zero_w)))
    zero_v = p.field.zeros(k, 1)[:, 0]
    for r in range(wshape[0]):
        for c in range(wshape[1]):
            w = p.field.zeros(*wshape)
            w[r, c] = p.field.one
            rows.append(vec_of(build(p, zero_v, w)))
    return np.vstack(rows)


def flip_r(k: int, p: int = 1, field: str = FIELD_RATIONAL):
    """Block antidiagonal permutation; reverses the block order of
    lambda_vec(k, p)."""
    field = field_of(field)
    out = field.zeros(k * p, k * p)
    eye = field.eye(p)
    for i in range(k):
        out[i * p:(i + 1) * p, (k - 1 - i) * p:(k - i) * p] = eye
    return out


def reversal_member(l: AnsatzPencil) -> AnsatzPencil:
    """Reversed pencil times a block flip is a member for the reversed
    polynomial with the same ansatz vector."""
    rev = l.pencil.reversal().coeffs
    if l.side == SIDE_L1:
        flip = flip_r(l.k, l.poly.n, l.field)
        pen = MatPoly([c @ flip for c in rev], l.field)
    else:
        flip = flip_r(l.k, l.poly.m, l.field)
        pen = MatPoly([flip @ c for c in rev], l.field)
    return AnsatzPencil(pen, l.side, l.ansatz, l.poly.reversal())
