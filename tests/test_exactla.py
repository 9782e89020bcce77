"""The exact kernels against sympy's Matrix, an independent reference.

exactla eliminates fraction-free on sparse DomainMatrices over ZZ, each
row scaled by the lcm of its denominators, and reads back only the
entries its callers need; sympy's Matrix.rref, nullspace,
gauss_jordan_solve, inv and det work on dense symbolic matrices.  The
draws are sparse rationals with non-integer entries, and include 0 x n,
n x 0 and all-zero matrices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix, Rational, zeros
from sympy.polys.matrices import DomainMatrix

from matpencil import exactla as xla
from matpencil.errors import PreconditionError
from matpencil.field import FIELD_FLOAT, FIELD_RATIONAL
from matpencil.matpoly import MatPoly
from span_oracle import span_pivots

COMMON = dict(deadline=None, max_examples=60)

entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def matrices(draw, m=None, n=None):
    m = draw(st.integers(0, 6)) if m is None else m
    n = draw(st.integers(0, 6)) if n is None else n
    # mostly zeros, as in a convolution matrix
    rows = [[draw(entries) if draw(st.integers(0, 2)) == 0 else Fraction(0)
             for _ in range(n)] for _ in range(m)]
    out = xla.fzeros(m, n)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def sympy_matrix(a: np.ndarray) -> Matrix:
    out = zeros(*a.shape)
    for (i, j), x in np.ndenumerate(a):
        out[i, j] = Rational(x.numerator, x.denominator)
    return out


def fractions_of(a: Matrix) -> np.ndarray:
    out = xla.fzeros(*a.shape)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i, j] = Fraction(int(a[i, j].p), int(a[i, j].q))
    return out


def equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


EDGE = [xla.fzeros(0, 3), xla.fzeros(3, 0), xla.fzeros(0, 0),
        xla.fzeros(2, 3),
        xla.fmat([["1/2", "0", "-3/4"], ["1", "0", "-3/2"]]),
        xla.fmat([["0", "0"], ["0", "5/3"], ["0", "0"]])]


def shape_id(a):
    return "x".join(map(str, a.shape))


def over_den(n: DomainMatrix, den: int) -> np.ndarray:
    """The object array N/den."""
    out = xla.fzeros(*n.shape)
    for i, row in n.to_dod().items():
        for j, x in row.items():
            out[i, j] = xla.div(int(x), den)
    return out


class TestRref:
    @settings(**COMMON)
    @given(matrices())
    def test_pivots_rank_and_entries(self, a):
        n, den, pivots = xla.rref(a)
        ref_r, ref_pivots = sympy_matrix(a).rref()
        assert pivots == list(ref_pivots)
        assert FIELD_RATIONAL.rank(a) == xla.rank(a) == len(ref_pivots)
        assert isinstance(n, DomainMatrix) and n.domain == ZZ
        assert type(den) is int and den != 0
        assert equal(over_den(n, den), fractions_of(ref_r))

    @pytest.mark.parametrize("a", EDGE, ids=shape_id)
    def test_edge_shapes(self, a):
        ref_r, ref_pivots = sympy_matrix(a).rref()
        assert xla.rref(a)[2] == list(ref_pivots)
        assert xla.rank(a) == len(ref_pivots)

    @settings(**COMMON)
    @given(matrices())
    def test_sparse_form_holds_the_nonzero_entries(self, a):
        dod = xla.to_zz(a).to_dod()
        nonzero = {(i, j) for (i, j), x in np.ndenumerate(a) if x}
        assert {(i, j) for i, row in dod.items() for j in row} == nonzero
        for i, row in dod.items():
            c = math.lcm(*(x.denominator for x in a[i]))
            assert {j: int(x) for j, x in row.items()} == {
                j: int(x * c) for j, x in enumerate(a[i]) if x}


class TestRowScaledForm:
    """rref eliminates over ZZ on the rows of a, each scaled by the lcm of
    its denominators; its N/den is sympy's rref of a itself."""

    def test_row_with_different_denominators(self):
        a = xla.fmat([["1/2", "1/3", "0", "1"], ["0", "0", "0", "0"],
                      ["1/3", "-5/6", "4", "0"]])
        zz = xla.to_zz(a)
        assert zz.domain == ZZ
        assert zz.to_dod() == {0: {0: 3, 1: 2, 3: 6},
                               2: {0: 2, 1: -5, 2: 24}}
        assert all(type(x) is int for row in zz.to_dod().values()
                   for x in row.values())
        n, den, pivots = xla.rref(a)
        ref_r, ref_pivots = sympy_matrix(a).rref()
        assert pivots == list(ref_pivots) == [0, 1]
        assert equal(over_den(n, den), fractions_of(ref_r))

    @pytest.mark.parametrize("a", EDGE, ids=shape_id)
    def test_zero_rows_and_empty_shapes(self, a):
        n, den, pivots = xla.rref(a)
        assert n.shape == a.shape and n.domain == ZZ
        ref_r, ref_pivots = sympy_matrix(a).rref()
        assert pivots == list(ref_pivots)
        assert equal(over_den(n, den), fractions_of(ref_r))
        zero_rows = {i for i in range(a.shape[0]) if xla.is_zero(a[i])}
        assert not zero_rows & set(xla.to_zz(a).to_dod())

    def test_den_is_a_python_int_under_any_ground_type(self, monkeypatch):
        class GroundInt(int):
            """An integer of ZZ's ground type that is not int, as gmpy2's
            mpz is."""

        rref_den = DomainMatrix.rref_den

        def ground_den(self, **kw):
            n, den, pivots = rref_den(self, **kw)
            return n, GroundInt(den), pivots
        monkeypatch.setattr(DomainMatrix, "rref_den", ground_den)
        # every pivot 1: den is ZZ's one
        a = xla.fmat([[1, 0, 3], [0, 1, 5]])
        assert type(xla.rref(a)[1]) is int
        got = (xla.nullspace(a), xla._solution(a[:, :2], a[:, 2])[0])
        assert all(type(x) in (int, Fraction) for g in got for x in g.flat)
        assert got[0][:, 0].tolist() == [-3, -5, 1]

    @settings(**COMMON)
    @given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4),
           st.booleans(), st.data())
    def test_samples_are_the_scaled_horner_over_zz(self, k, m, n, integral,
                                                   data):
        coeffs = [data.draw(matrices(m, n)) for _ in range(k + 1)]
        # entries as the package keeps them: an int when integral
        coeffs = [xla.fmat([[x.numerator if integral else x for x in row]
                            for row in c]) if c.size else c for c in coeffs]
        # the lcm of every denominator in the polynomial
        c = math.lcm(*(Fraction(x).denominator for a in coeffs
                       for x in a.flat))
        points = range(1, 4)
        got = list(FIELD_RATIONAL.samples(MatPoly(coeffs), points))
        assert len(got) == len(points)
        for t, d in zip(points, got):
            # an int array: c times the Horner over QQ
            assert d.shape == (m, n)
            assert all(type(x) is int for x in d.flat)
            acc = sympy_matrix(coeffs[-1])
            for a in reversed(coeffs[:-1]):
                acc = acc * t + sympy_matrix(a)
            assert equal(d, fractions_of(acc) * c)
            assert FIELD_RATIONAL.rank(d) == xla.rank(d) == acc.rank()


class TestNullspace:
    @settings(**COMMON)
    @given(matrices())
    def test_matches_sympy(self, a):
        ns = xla.nullspace(a)
        ref = sympy_matrix(a).nullspace()
        assert ns.shape[1] == len(ref)
        for j, v in enumerate(ref):
            assert equal(ns[:, j:j + 1], fractions_of(v))
        if ns.size:
            assert xla.is_zero(a @ ns)

    @pytest.mark.parametrize("a", EDGE, ids=shape_id)
    def test_edge_shapes(self, a):
        ns = xla.nullspace(a)
        ref = sympy_matrix(a).nullspace()
        assert ns.shape == ((a.shape[1], len(ref)) if a.shape[1] else (0, 0))
        for j, v in enumerate(ref):
            assert equal(ns[:, j:j + 1], fractions_of(v))


def particular(a: np.ndarray, b: np.ndarray):
    """sympy's Gauss-Jordan solution with every free parameter zero, or
    None when the system is inconsistent."""
    try:
        sol, params = sympy_matrix(a).gauss_jordan_solve(sympy_matrix(b))
    except ValueError:
        return None
    return fractions_of(sol.subs({t: 0 for t in params}))


class TestSolve:
    """_solution's particular solution, the path unique_solve and inv
    run."""

    @settings(**COMMON)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 2),
           st.data())
    def test_matches_sympy(self, m, n, cols, data):
        a = data.draw(matrices(m, n))
        if data.draw(st.booleans()):
            # consistent by construction
            b = a @ data.draw(matrices(n, cols))
        else:
            b = data.draw(matrices(m, cols))
        x = xla._solution(a, b)[0]
        ref = particular(a, b)
        if ref is None:
            assert x is None
        else:
            assert equal(x, ref)
            assert xla.is_zero(a @ x - b)

    def test_inconsistent(self):
        a = xla.fmat([["1/2", "1"], ["1", "2"]])
        b = xla.fvec(["1", "3"])
        assert particular(a, b.reshape(-1, 1)) is None
        assert xla._solution(a, b)[0] is None

    def test_vector_right_hand_side(self):
        a = xla.fmat([["1/2", "0", "1"], ["0", "0", "3"]])
        b = xla.fvec(["1", "-2/5"])
        x = xla._solution(a, b)[0]
        assert x.shape == (3,)
        assert equal(x.reshape(-1, 1), particular(a, b.reshape(-1, 1)))

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0)])
    def test_empty_systems(self, m, n):
        a = xla.fzeros(m, n)
        assert equal(xla._solution(a, xla.fzeros(m, 1))[0],
                     xla.fzeros(n, 1))
        if m:
            assert xla._solution(a, xla.fmat([["1"]] * m))[0] is None


class TestPivots:
    @settings(**COMMON)
    @given(matrices())
    def test_match_the_in_order_echelon(self, a):
        assert FIELD_RATIONAL.pivots(a) == span_pivots(a)


class TestMinNormSolve:
    def test_full_row_rank(self):
        # the float64 solve of the dual completion: aᵀ (a aᵀ)⁻¹ b
        a = xla.fmat([["1", "2", "0"], ["0", "1/3", "1"]])
        b = xla.fmat([["1"], ["-1"]])
        x = FIELD_FLOAT.min_norm_solve(xla.to_float(a), xla.to_float(b))
        gram = sympy_matrix(a) * sympy_matrix(a).T
        ref = sympy_matrix(a).T * gram.inv() * sympy_matrix(b)
        assert np.allclose(x, xla.to_float(fractions_of(ref)), rtol=1e-14,
                           atol=0)


# square draws up to 4x4; the sparse ones are often singular
squares = st.integers(0, 4).flatmap(lambda n: matrices(n, n))


class TestInvDet:
    """inv solves a·X = I on the ZZ route; det is the ZZ determinant of
    the integral multiple of a, divided back."""

    @settings(**COMMON)
    @given(squares)
    def test_det_matches_sympy(self, a):
        got = xla.det(a)
        assert type(got) in (int, Fraction)
        assert got == Fraction(str(sympy_matrix(a).det()))
        assert type(got) is int or got.denominator != 1

    @settings(**COMMON)
    @given(squares)
    def test_inv_matches_sympy(self, a):
        ref = sympy_matrix(a)
        if ref.det() == 0:
            with pytest.raises(PreconditionError, match="matrix is singular"):
                xla.inv(a)
            return
        got = xla.inv(a)
        assert equal(got, fractions_of(ref.inv()))
        assert all(type(x) is int or x.denominator != 1 for x in got.flat)

    def test_singular_and_rank_deficient(self):
        # the second row is -3/2 times the first
        a = xla.fmat([["2/3", "1"], ["-1", "-3/2"]])
        assert xla.det(a) == 0
        with pytest.raises(PreconditionError, match="matrix is singular"):
            xla.inv(a)
        assert xla.unique_solve(a, xla.feye(2)) is None
        with pytest.raises(PreconditionError, match="non-square"):
            xla.inv(xla.fzeros(2, 3))
        with pytest.raises(PreconditionError, match="non-square"):
            xla.det(xla.fzeros(3, 2))

    def test_one_elimination(self, monkeypatch):
        seen = []
        rref = xla.rref

        def counting(a):
            seen.append(a.shape)
            return rref(a)
        monkeypatch.setattr(xla, "rref", counting)
        a = xla.fmat([["1", "2"], ["1/3", "1"]])
        assert equal(xla.inv(a), xla.fmat([["3", "-6"], ["-1", "3"]]))
        assert seen == [(2, 4)]
