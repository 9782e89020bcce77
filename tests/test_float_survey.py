"""Float64 against exact: every op reaches the same outcome on both fields.

A fixed grid of integer polynomials (tall and wide shapes; generic,
planted C(l)K(l) and column- or row-deficient inputs), each with a
companion member and a fixed-seed random-ansatz member of both spaces.
On each, `build`, `trim`, and glin and trimmed recovery of either side
run once on the rational field and once on float64.  The two runs must
end in the same outcome class (success, or the same error type) and,
on success, recover the same minimal indices.  A float op that warns
that one of its rank or pivot decisions came near the cut is excused:
its verdict is flagged, not trusted.
"""

import warnings

import numpy as np
import pytest

from matpencil.errors import MatPencilError
from matpencil.matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly
from matpencil.minimal import (MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                               MODE_TRIMMED_L2, SIDE_LEFT, SIDE_RIGHT,
                               recover_minimal)
from matpencil.reduction import trim
from matpencil.spaces import (SIDE_L1, SIDE_L2, build_l1, build_l2,
                              companion_g1, companion_g2)

SHAPES = ((3, 2, 2), (2, 3, 2), (4, 3, 2), (3, 2, 3), (4, 2, 3))
KINDS = ("generic", "planted", "deficient")
MEMBERS = ("companion", "random")
MODES = {SIDE_L1: (MODE_GLIN_L1, MODE_TRIMMED_L1),
         SIDE_L2: (MODE_GLIN_L2, MODE_TRIMMED_L2)}


def _ints(rng, m, n, k):
    return [rng.integers(-5, 6, (m, n)) for _ in range(k + 1)]


def survey_poly(kind, m, n, k):
    """The integer coefficients of one grid input, drawn from a seed fixed
    by the kind and shape: a generic draw; C(l)K(l) with C m x r of grade
    k-1 and K an r x n pencil, r = min(m, n) - 1; or a generic draw whose
    last column (row, when wide) repeats its first."""
    rng = np.random.default_rng([KINDS.index(kind), m, n, k])
    while True:
        if kind == "planted":
            r = min(m, n) - 1
            c, kk = _ints(rng, m, r, k - 1), _ints(rng, r, n, 1)
            coeffs = [sum((c[i] @ kk[d - i] for i in range(d + 1)
                           if i < k and d - i < 2), np.zeros((m, n), int))
                      for d in range(k + 1)]
        else:
            coeffs = _ints(rng, m, n, k)
            if kind == "deficient":
                for a in coeffs:
                    if m >= n:
                        a[:, -1] = a[:, 0]
                    else:
                        a[-1] = a[0]
        if coeffs[k].any():
            return [a.tolist() for a in coeffs]


def random_ansatz(m, n, k, side):
    """A fixed-seed member parameter pair: a nonzero integer ansatz vector
    and a small integer free block of the side's shape."""
    rng = np.random.default_rng([m, n, k])
    v = rng.integers(1, 4, k).tolist()
    shape = ((k * m, (k - 1) * n) if side == SIDE_L1
             else ((k - 1) * m, k * n))
    return v, rng.integers(-2, 3, shape).tolist()


def outcome(op):
    """(error type name or None, value, whether a decision came near the
    cut) of one op."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = op(), None
        except MatPencilError as e:
            value, error = None, type(e).__name__
    near = any(issubclass(w.category, RuntimeWarning)
               and "near the tolerance" in str(w.message) for w in caught)
    return error, value, near


def survey(kind, shape, member_kind, field):
    """The outcome of every op on one grid point, keyed by op label."""
    m, n, k = shape
    p = MatPoly(survey_poly(kind, m, n, k), FIELD_RATIONAL)
    if field == FIELD_FLOAT:
        p = p.to_float()
    out = {}
    for side in (SIDE_L1, SIDE_L2):
        if member_kind == "companion":
            build = companion_g1 if side == SIDE_L1 else companion_g2
            args = (p,)
        else:
            build = build_l1 if side == SIDE_L1 else build_l2
            v, w = random_ansatz(m, n, k, side)
            args = (p, p.field.vector(v), p.field.matrix(w))
        out[side, "build"] = outcome(lambda: build(*args))
        member = out[side, "build"][1]
        if member is None:
            continue
        out[side, "trim"] = outcome(lambda: trim(member))
        record = out[side, "trim"][1]
        glin, trimmed = MODES[side]
        for source, mode in ((member, glin), (record, trimmed)):
            if source is None:
                continue
            for s in (SIDE_LEFT, SIDE_RIGHT):
                out[side, mode, s] = outcome(
                    lambda: recover_minimal(source, p, (s,), mode)[0].indices)
    return out


@pytest.mark.parametrize("member_kind", MEMBERS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids="{0[0]}x{0[1]}k{0[2]}".format)
def test_float_matches_exact(shape, kind, member_kind):
    exact = survey(kind, shape, member_kind, FIELD_RATIONAL)
    approx = survey(kind, shape, member_kind, FIELD_FLOAT)
    assert not any(near for _, _, near in exact.values())
    for label, (error, value, near) in approx.items():
        if near:
            continue
        want_error, want_value, _ = exact[label]
        assert error == want_error, (label, error, want_error)
        if label[1] not in ("build", "trim"):
            assert value == want_value, (label, value, want_value)
