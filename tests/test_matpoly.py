"""Core representation tests: frozen oracle values for evaluation, reversal,
norms, normal rank, convolution matrices, structured builders, and JSON."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import CASE3_NORM_SQ, case2_poly, case3_poly
from matpencil.errors import PreconditionError, SchemaError
from matpencil.field import RANK_SAFETY
from matpencil.matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly,
                               block_apply, dump_json, h_dual,
                               lambda_vec, rect_identity, shear_s)
from matpencil.qpoly import coeffs, to_pm
from space_oracle import flip_r

# case 3's polynomial at l = 1: A_0 + A_1 + A_2
CASE3_AT_ONE = [[5, 13], [13, 12], [23, 38]]


def rand_matpoly(rng, m, n, k, lo=-4, hi=5):
    return MatPoly([xla.fmat(rng.integers(lo, hi, size=(m, n)).tolist())
                    for _ in range(k + 1)], FIELD_RATIONAL)


class TestEval:
    def test_monomial(self):
        a2 = [[1, 0], [0, 0], [0, 0]]
        z = [[0, 0], [0, 0], [0, 0]]
        p = MatPoly([z, z, a2], FIELD_RATIONAL)
        out = p.eval(2)
        assert out[0, 0] == 4 and xla.is_zero(out - xla.fmat([[4, 0], [0, 0], [0, 0]]))

    def test_constant(self):
        p = MatPoly([xla.feye(2)], FIELD_RATIONAL)
        assert xla.is_zero(p.eval(7) - xla.feye(2))

    def test_dense_case_at_one(self):
        out = case3_poly().eval(1)
        assert xla.is_zero(out - xla.fmat(CASE3_AT_ONE))

    def test_exact_float_agreement(self):
        rng = np.random.default_rng(7)
        p = rand_matpoly(rng, 3, 2, 2)
        pf = p.to_float()
        for t in (0.5, 2.0, -3.0):
            exact = xla.to_float(p.eval(Fraction(t)))
            approx = pf.eval(t)
            assert np.allclose(exact, approx, rtol=1e-12, atol=1e-12)


class TestReversal:
    def test_flips_coefficients(self):
        rng = np.random.default_rng(0)
        p = rand_matpoly(rng, 2, 3, 2)
        r = p.reversal()
        for i in range(3):
            assert xla.is_zero(r.coeffs[i] - p.coeffs[2 - i])

    def test_involution(self):
        rng = np.random.default_rng(1)
        p = rand_matpoly(rng, 3, 2, 3)
        assert p.reversal().reversal().equal(p)

    def test_reference_case(self):
        r = case2_poly().reversal()
        # [[1, l], [l, l^2], [0, 0]]
        assert r.coeffs[0][0, 0] == 1
        assert r.coeffs[1][0, 1] == 1 and r.coeffs[1][1, 0] == 1
        assert r.coeffs[2][1, 1] == 1
        total = sum(x * x for c in r.coeffs for x in c.flat)
        assert total == 4

    def test_grade_exceeding_degree(self):
        p = MatPoly([xla.feye(2)], FIELD_RATIONAL, grade=2)
        assert p.grade == 2 and p.degree == 0
        r = p.reversal()
        assert r.degree == 2 and r.coeffs[2][0, 0] == 1


class TestNorm:
    def test_zero(self):
        assert MatPoly.zero(2, 2, 1).frob_norm() == 0.0

    def test_identity_pencil(self):
        p = MatPoly([xla.feye(2), xla.feye(2)], FIELD_RATIONAL)
        assert p.frob_norm() == pytest.approx(2.0, abs=0)

    def test_dense_case(self):
        p = case3_poly()
        assert p.frob_norm_sq() == CASE3_NORM_SQ
        assert p.frob_norm() == pytest.approx(math.sqrt(1022))


class TestNormalRank:
    def test_constant_rect_identity(self):
        p = MatPoly([rect_identity(3, 2)], FIELD_RATIONAL)
        assert p.normal_rank() == 2

    def test_rank_one_case(self):
        assert case2_poly().normal_rank() == 1

    def test_dense_case(self):
        assert case3_poly().normal_rank() == 2

    def test_reversal_preserves(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = rand_matpoly(rng, 3, 2, 2)
            assert p.reversal().normal_rank() == p.normal_rank()

    def test_float_path(self):
        assert case2_poly().to_float().normal_rank() == 1

    def test_sampling_stops_at_full_rank(self, monkeypatch):
        ranked = []
        rank = type(FIELD_RATIONAL).rank

        def counted(field, a):
            ranked.append(a)
            return rank(field, a)

        monkeypatch.setattr(type(FIELD_RATIONAL), "rank", counted)
        assert case3_poly().normal_rank() == 2
        assert len(ranked) == 1
        ranked.clear()
        # rank 1 of at most 2: all k*min(m, n)+1 samples are needed
        assert case2_poly().normal_rank() == 1
        assert len(ranked) == 5


def planted_matpoly(rng, m, n, k, r):
    """An m x r grade-(k-1) polynomial times an r x n pencil: grade k
    and normal rank at most r."""
    return rand_matpoly(rng, m, r, k - 1).matmul(rand_matpoly(rng, r, n, 1))


def sampled_rank(p):
    """Max of the exact ranks of p at the points 1..k*min(m, n)+1,
    each sample evaluated in Fractions."""
    points = range(1, p.grade * min(p.m, p.n) + 2)
    return max(xla.rank(p.eval(Fraction(t))) for t in points)


class TestNormalRankSamples:
    @pytest.mark.parametrize("m,n,k,r", [
        (4, 3, 2, 2), (4, 3, 3, 2), (3, 4, 2, 1), (3, 2, 3, 1), (5, 4, 2, 3)])
    def test_planted_equals_the_fraction_samples(self, m, n, k, r):
        p = planted_matpoly(np.random.default_rng(50 + 7 * k + r), m, n, k, r)
        assert p.normal_rank() == sampled_rank(p) <= r

    @pytest.mark.parametrize("m,n,k", [(3, 2, 3), (2, 3, 2), (4, 3, 2),
                                       (1, 1, 1), (3, 3, 2)])
    def test_generic_equals_the_fraction_samples(self, m, n, k):
        p = rand_matpoly(np.random.default_rng(60 + m + n + k), m, n, k)
        assert p.normal_rank() == sampled_rank(p)

    def test_non_integer_and_zero_polynomials(self):
        # rank one: the second row is 3/2 times the first
        half = xla.fmat([["1/2", "-1/3"], ["3/4", "-1/2"], ["0", "0"]])
        p = MatPoly([half, half * Fraction(-3, 4), xla.fzeros(3, 2)],
                    FIELD_RATIONAL)
        assert p.normal_rank() == sampled_rank(p) == 1
        q = p + MatPoly([xla.fzeros(3, 2), xla.fmat(
            [["0", "0"], ["0", "0"], ["2/5", "1/9"]])], FIELD_RATIONAL)
        assert q.normal_rank() == sampled_rank(q) == 2
        zero = MatPoly.zero(3, 2, 2)
        assert zero.normal_rank() == sampled_rank(zero) == 0
        assert MatPoly([xla.fzeros(0, 3)], FIELD_RATIONAL).normal_rank() == 0


class TestConvMatrix:
    def test_single_block_column(self):
        rng = np.random.default_rng(2)
        p = rand_matpoly(rng, 2, 2, 2)
        c0 = p.conv_matrix(0)
        assert c0.shape == (6, 2)
        assert xla.is_zero(c0[0:2] - p.coeffs[2])
        assert xla.is_zero(c0[2:4] - p.coeffs[1])
        assert xla.is_zero(c0[4:6] - p.coeffs[0])

    def test_norm_scaling(self):
        rng = np.random.default_rng(3)
        p = rand_matpoly(rng, 2, 3, 2).to_float()
        for j in range(4):
            cj = p.conv_matrix(j)
            assert np.linalg.norm(cj) == pytest.approx(
                math.sqrt(j + 1) * p.frob_norm(), rel=1e-12)

    def test_product_rule(self):
        rng = np.random.default_rng(4)
        p = rand_matpoly(rng, 2, 3, 2)
        q = rand_matpoly(rng, 3, 2, 3)
        lhs = p.matmul(q).conv_matrix(0)
        rhs = p.conv_matrix(q.grade) @ q.conv_matrix(0)
        assert xla.is_zero(lhs - rhs)

    def test_additivity(self):
        rng = np.random.default_rng(6)
        p = rand_matpoly(rng, 2, 2, 2)
        q = rand_matpoly(rng, 2, 2, 2)
        for j in range(3):
            assert xla.is_zero((p + q).conv_matrix(j)
                               - p.conv_matrix(j) - q.conv_matrix(j))

    def test_nullspace_encodes_low_degree_nullvectors(self):
        # the stacked descending coefficient vector of x with P*x = 0 lies in
        # the nullspace of the convolution matrix
        p = case2_poly()
        cd = p.conv_matrix(1)
        vec = xla.fvec([0, -1, 1, 0])  # x = (1, -l): descending [x_1; x_0]
        assert xla.is_zero(cd.dot(vec).reshape(-1, 1))


class TestStructured:
    def test_lambda_column(self):
        lv = lambda_vec(2, 1)
        assert lv.m == 2 and lv.n == 1
        assert lv.coeffs[0][1, 0] == 1 and lv.coeffs[1][0, 0] == 1

    def test_h_row(self):
        h = h_dual(1, 1)
        assert h.coeffs[0][0, 0] == -1 and h.coeffs[1][0, 1] == 1

    def test_h_annihilates_lambda(self):
        for j in range(1, 6):
            prod = h_dual(j, 1).matmul(lambda_vec(j + 1, 1))
            assert prod.is_zero()

    def test_h_annihilates_lambda_blocked(self):
        prod = h_dual(2, 3).matmul(lambda_vec(3, 3))
        assert prod.is_zero()

    def test_rect_identity(self):
        out = rect_identity(3, 2)
        assert xla.is_zero(out - xla.fmat([[1, 0], [0, 1], [0, 0]]))
        wide = rect_identity(2, 3)
        assert xla.is_zero(wide - xla.fmat([[1, 0, 0], [0, 1, 0]]))

    def test_flip_reverses_lambda(self):
        k = 3
        flip = flip_r(k, 2)
        flipped = MatPoly([flip.dot(c) for c in lambda_vec(k, 2).coeffs],
                          FIELD_RATIONAL)
        rev = lambda_vec(k, 2).reversal()
        assert flipped.equal(rev)

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 1), (0, 3), (2, 0), (0, 0)])
    @pytest.mark.parametrize("field", [FIELD_RATIONAL, FIELD_FLOAT])
    def test_block_apply_is_the_kronecker_product(self, field, b, c):
        rng = np.random.default_rng(7)
        k = 3
        ints = lambda *shape: rng.integers(-4, 5, size=shape)
        mat = lambda *shape: (ints(*shape).astype(object)
                              if field == FIELD_RATIONAL
                              else ints(*shape).astype(float))
        square, row = mat(k, k), mat(1, k)
        a, d = mat(k * b, c), mat(c, k * b)
        eye = field.eye(b)
        # a square M and a 1 x k row on the block rows of a, and M from
        # the right on the block columns of d through the transpose
        pairs = [(block_apply(square, a), np.kron(square, eye) @ a),
                 (block_apply(row, a), np.kron(row, eye) @ a),
                 (block_apply(square.T, d.T).T, d @ np.kron(square, eye))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert field.is_zero(got - want)

    def test_shear_shape_and_band(self):
        s = shear_s(3, 1)
        assert s.m == 3 and s.n == 2
        m = to_pm(s).to_list()
        assert coeffs(m[0][0]) == (Fraction(1),)
        assert coeffs(m[0][1]) == (Fraction(0), Fraction(1))
        assert coeffs(m[1][1]) == (Fraction(1),)
        assert not m[2][0] and not m[2][1] and not m[1][0]


class TestJson:
    def test_round_trip_exact(self):
        p = MatPoly([xla.fmat([[Fraction(1, 3), 2], [0, Fraction(-7, 5)]]),
                     xla.feye(2)], FIELD_RATIONAL)
        d = p.to_json_dict()
        q = MatPoly.from_json_dict(json.loads(dump_json(d)))
        assert q.equal(p) and q.field == FIELD_RATIONAL

    def test_round_trip_float(self):
        p = MatPoly([np.array([[0.5, -1.25]]), np.array([[3.0, 0.0]])], FIELD_FLOAT)
        q = MatPoly.from_json_dict(json.loads(dump_json(p.to_json_dict())))
        assert q.equal(p)

    def test_canonical_bytes(self):
        p = case3_poly()
        assert dump_json(p.to_json_dict()) == dump_json(
            MatPoly.from_json_dict(p.to_json_dict()).to_json_dict())

    def test_schema_errors(self):
        good = case3_poly().to_json_dict()
        bad = dict(good)
        bad.pop("grade")
        with pytest.raises(SchemaError):
            MatPoly.from_json_dict(bad)
        bad2 = dict(good)
        bad2["coeffs"] = good["coeffs"][:1]
        with pytest.raises(SchemaError):
            MatPoly.from_json_dict(bad2)
        bad3 = dict(good)
        bad3["field"] = "decimal"
        with pytest.raises(SchemaError):
            MatPoly.from_json_dict(bad3)

    def test_rational_entries_reject_floats(self):
        d = case3_poly().to_json_dict()
        d["coeffs"][0][0][0] = 0.5
        with pytest.raises(SchemaError):
            MatPoly.from_json_dict(d)


class TestFloatRank:
    def test_safety_knob(self):
        # the tolerance is max(m,n)*sigma_max*eps*8 ~ 3.6e-15
        assert FIELD_FLOAT.rank(np.diag([1.0, 1e-16])) == 1
        assert FIELD_FLOAT.rank(np.diag([1.0, 1e-13])) == 2

    def test_margin_flags_values_near_the_cut(self):
        # the cut is ~3.6e-15: 5e-15 counts and 1e-15 does not, but both
        # sit within a factor ten of it
        assert FIELD_FLOAT.rank_with_margin(np.diag([1.0, 5e-15])) \
            == (2, False)
        assert FIELD_FLOAT.rank_with_margin(np.diag([1.0, 1e-15])) \
            == (1, False)
        assert FIELD_FLOAT.rank_with_margin(np.diag([1.0, 1e-3])) \
            == (2, True)
        assert FIELD_FLOAT.rank_with_margin(np.diag([1.0, 1e-20])) \
            == (1, True)
        assert FIELD_FLOAT.rank_with_margin(np.zeros((2, 0))) == (0, True)

    def test_nullspace_shares_the_rank_rule(self):
        cut = 2 * np.finfo(float).eps * RANK_SAFETY
        for small, near in ((5 * cut, True), (cut / 5, True),
                            (50 * cut, False)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                FIELD_FLOAT.nullspace(np.diag([1.0, small]))
            assert bool(caught) == near, small
        # the column count is the nullity that rank_with_margin implies
        smalls = (5 * cut, cut / 5, 50 * cut, 5e-15, 1e-15, 1e-3, 1e-20)
        for a in [np.diag([1.0, x]) for x in smalls] + [np.zeros((2, 0))]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ns = FIELD_FLOAT.nullspace(a)
            rank = FIELD_FLOAT.rank_with_margin(a)[0]
            assert ns.shape == (a.shape[1], a.shape[1] - rank)


class TestPencil:
    def test_round_trips(self):
        rng = np.random.default_rng(8)
        p = rand_matpoly(rng, 2, 2, 1)
        pen = MatPoly.pencil(p.X, p.Y, p.field)
        assert pen.equal(p)
        assert pen.transpose().transpose().equal(pen)

    def test_norm(self):
        pen = MatPoly.pencil(xla.feye(2), xla.feye(2), FIELD_RATIONAL)
        assert pen.frob_norm() == pytest.approx(2.0)

    def test_reversal_swaps(self):
        pen = MatPoly.pencil(xla.fmat([[1]]), xla.fmat([[2]]), FIELD_RATIONAL)
        r = pen.reversal()
        assert r.X[0, 0] == 2 and r.Y[0, 0] == 1

    def test_parts_need_grade_one(self):
        for grade in (0, 2):
            p = MatPoly.zero(2, 2, grade)
            with pytest.raises(PreconditionError):
                p.X
            with pytest.raises(PreconditionError):
                p.Y

    def test_parts_differ_in_shape(self):
        with pytest.raises(SchemaError, match="pencil parts differ"):
            MatPoly.pencil(xla.feye(2), xla.fzeros(2, 3), FIELD_RATIONAL)
