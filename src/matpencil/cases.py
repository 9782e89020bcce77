"""Bundled reference cases used by the CLI `examples` command and the tests.

Case 1: a 3x2 quadratic with a single nonzero coefficient whose natural
ansatz member has a rank-deficient Z block yet still certifies as a strong
generalized linearization.

Case 2: the 3x2 quadratic [[l^2, l], [l, 1], [0, 0]] whose member is a
generalized linearization but not a strong one, with hand-written unimodular
witnesses.

Case 3: a dense 3x2 quadratic walked through reduction and trimming, with a
published 5x4 trimmed pencil for an explicitly chosen row-selection matrix.
"""

from . import exactla as xla
from .matpoly import FIELD_RATIONAL, MatPoly


def case1_poly() -> MatPoly:
    a2 = [[1, 0], [0, 0], [0, 0]]
    z = [[0, 0], [0, 0], [0, 0]]
    return MatPoly([z, z, a2], FIELD_RATIONAL)


def case1_member():
    from .spaces import build_l1
    w = xla.fmat([[0, 0], [0, -1], [0, 0], [-1, 0], [0, 0], [0, 0]])
    v = xla.fvec([1, 0])
    return build_l1(case1_poly(), v, w)


def case2_poly() -> MatPoly:
    a0 = [[0, 0], [0, 1], [0, 0]]
    a1 = [[0, 1], [1, 0], [0, 0]]
    a2 = [[1, 0], [0, 0], [0, 0]]
    return MatPoly([a0, a1, a2], FIELD_RATIONAL)


def case2_member():
    from .spaces import build_l1
    w = xla.fmat([[0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0]])
    v = xla.fvec([1, 0])
    return build_l1(case2_poly(), v, w)


def case2_witnesses():
    """Hand-written unimodular E, F with E*L*F = diag(P, I_{3,2})."""
    e0 = xla.fmat([[0, 0, 1, 0, 0, 0],
                   [0, 0, 0, 1, 0, 0],
                   [0, 0, 0, 0, 1, 0],
                   [0, 1, 0, 0, 0, 0],
                   [1, 0, 0, 0, 0, 0],
                   [0, 0, 0, 0, 0, 1]])
    e1 = xla.fzeros(6, 6)
    e1[0, 3] = 1
    f0 = xla.fmat([[0, 1, 0, 0],
                   [0, 0, 0, 1],
                   [-1, 0, 0, 0],
                   [0, -1, 1, 0]])
    f1 = xla.fzeros(4, 4)
    f1[1, 1] = -1
    return (MatPoly([e0, e1], FIELD_RATIONAL),
            MatPoly([f0, f1], FIELD_RATIONAL))


def case3_poly() -> MatPoly:
    a0 = [[1, 7], [2, 5], [4, 19]]
    a1 = [[3, 4], [9, 2], [15, 10]]
    a2 = [[1, 2], [2, 5], [4, 9]]
    return MatPoly([a0, a1, a2], FIELD_RATIONAL)


def case3_member():
    from .spaces import build_l1
    w = xla.fmat([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]])
    v = xla.fvec([0, 1])
    return build_l1(case3_poly(), v, w)


# explicit row-selection matrix from the walked example
CASE3_D = [
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, -2, -1, 1],
]

CASE3_LT_X = [
    [0, 0, -1, 0],
    [0, 0, 0, -1],
    [1, 2, 0, 0],
    [2, 5, 0, 0],
    [0, 0, 0, 0],
]

CASE3_LT_Y = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [3, 4, 1, 7],
    [9, 2, 2, 5],
    [0, 0, 0, 0],
]


def case3_published_d():
    return xla.fmat(CASE3_D)


def case3_expected_lt() -> MatPoly:
    return MatPoly.pencil(xla.fmat(CASE3_LT_X), xla.fmat(CASE3_LT_Y),
                          FIELD_RATIONAL)
