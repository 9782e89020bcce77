"""Ansatz-space construction and recognition, with the companion members'
printed block layouts as frozen oracles."""

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import case2_member, case3_poly
from matpencil.errors import PreconditionError, SchemaError, VerificationError
from matpencil.matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly,
                               lambda_vec, rect_identity)
from matpencil.spaces import (SIDE_L1, SIDE_L2, AnsatzPencil, ansatz_gap,
                              ansatz_membership, ansatz_residual,
                              ansatz_target, build_l1, build_l2,
                              companion_g1, companion_g2, shifted_sum)
from space_oracle import generator_matrix, reversal_member, space_dimension

# the X and Y coefficients of case 3's member
CASE3_X = [
    [0, 0, -1, 0],
    [0, 0, 0, -1],
    [0, 0, 0, 0],
    [1, 2, 0, 0],
    [2, 5, 0, 0],
    [4, 9, 0, 0],
]

CASE3_Y = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
    [3, 4, 1, 7],
    [9, 2, 2, 5],
    [15, 10, 4, 19],
]


def rand_poly(rng, m, n, k):
    return MatPoly([xla.fmat(rng.integers(-4, 5, size=(m, n)).tolist())
                    for _ in range(k + 1)], FIELD_RATIONAL)


def rand_w(rng, rows, cols):
    return xla.fmat(rng.integers(-4, 5, size=(rows, cols)).tolist())


def product_residual(member: AnsatzPencil) -> MatPoly:
    """L(l) * (Lambda_k ⊗ I_n) - v ⊗ P(l) by products with the monomial
    tower, (Lambda_k ⊗ I_m)^T * L(l) - v^T ⊗ P(l) on the left side: an
    independent reference for the shifted-sum form."""
    p = member.poly
    if member.side == SIDE_L1:
        lhs = member.pencil.matmul(lambda_vec(p.grade, p.n, p.field))
        v = member.ansatz.reshape(-1, 1)
    else:
        lam = lambda_vec(p.grade, p.m, p.field)
        lhs = lam.transpose().matmul(member.pencil)
        v = member.ansatz.reshape(1, -1)
    return lhs - MatPoly([np.kron(v, c) for c in p.coeffs], p.field)


class TestBuildL1:
    def test_companion_block_layout(self):
        p = case3_poly()
        c1 = companion_g1(p)
        x, y = c1.pencil.X, c1.pencil.Y
        imn = rect_identity(3, 2)
        assert xla.is_zero(x[:3, :2] - p.coeffs[2])
        assert xla.is_zero(x[3:, 2:] - imn)
        assert xla.is_zero(x[:3, 2:]) and xla.is_zero(x[3:, :2])
        assert xla.is_zero(y[:3, :2] - p.coeffs[1])
        assert xla.is_zero(y[:3, 2:] - p.coeffs[0])
        assert xla.is_zero(y[3:, :2] + imn)
        assert xla.is_zero(y[3:, 2:])

    def test_companion_k3(self):
        rng = np.random.default_rng(11)
        p = rand_poly(rng, 4, 2, 3)
        c1 = companion_g1(p)
        x = c1.pencil.X
        imn = rect_identity(4, 2)
        assert xla.is_zero(x[4:8, 2:4] - imn) and xla.is_zero(x[8:, 4:] - imn)
        y = c1.pencil.Y
        assert xla.is_zero(y[:4, :2] - p.coeffs[2])
        assert xla.is_zero(y[:4, 2:4] - p.coeffs[1])
        assert xla.is_zero(y[:4, 4:] - p.coeffs[0])
        assert xla.is_zero(y[4:8, :2] + imn) and xla.is_zero(y[8:, 2:4] + imn)

    def test_walked_example_matrices(self):
        from matpencil.cases import case3_member
        member = case3_member()
        assert xla.is_zero(member.pencil.X - xla.fmat(CASE3_X))
        assert xla.is_zero(member.pencil.Y - xla.fmat(CASE3_Y))

    def test_zero_parameters_zero_pencil(self):
        p = case3_poly()
        member = build_l1(p, [0, 0], xla.fzeros(6, 2))
        assert xla.is_zero(member.pencil.X) and xla.is_zero(member.pencil.Y)

    def test_identity_holds_for_random_members(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = rand_poly(rng, 3, 2, 2)
            member = build_l1(p, rng.integers(-3, 4, size=2).tolist(),
                              rand_w(rng, 6, 2))
            assert ansatz_residual(member).is_zero()

    def test_linearity(self):
        rng = np.random.default_rng(13)
        p = rand_poly(rng, 3, 2, 2)
        v1, v2 = [1, -2], [0, 3]
        w1, w2 = rand_w(rng, 6, 2), rand_w(rng, 6, 2)
        a = 5
        lhs = build_l1(p, [a * x + y for x, y in zip(v1, v2)], w1 * xla.frac(a) + w2)
        rhs_x = build_l1(p, v1, w1).pencil.X * xla.frac(a) + build_l1(p, v2, w2).pencil.X
        rhs_y = build_l1(p, v1, w1).pencil.Y * xla.frac(a) + build_l1(p, v2, w2).pencil.Y
        assert xla.is_zero(lhs.pencil.X - rhs_x) and xla.is_zero(lhs.pencil.Y - rhs_y)

    def test_grade_one_rejected(self):
        p = MatPoly([xla.feye(2), xla.feye(2)], FIELD_RATIONAL)
        with pytest.raises(PreconditionError):
            build_l1(p, [1], xla.fzeros(2, 0))

    def test_bad_shapes(self):
        p = case3_poly()
        with pytest.raises(SchemaError):
            build_l1(p, [1, 0, 0], xla.fzeros(6, 2))
        with pytest.raises(SchemaError):
            build_l1(p, [1, 0], xla.fzeros(6, 4))

    def test_failed_identity_is_a_verification_error(self):
        # the library constructor accepts non-finite floats; the member's
        # own identity check must then fail as a verification error
        p = case3_poly().to_float()
        p.coeffs[0][0, 0] = np.nan
        with pytest.raises(VerificationError):
            build_l1(p, [1.0, 0.0], np.zeros((6, 2)))


class TestBuildL2:
    def test_companion_block_layout(self):
        rng = np.random.default_rng(14)
        p = rand_poly(rng, 2, 3, 3)  # broad polynomial
        c2 = companion_g2(p)
        x, y = c2.pencil.X, c2.pencil.Y
        imn = rect_identity(2, 3)
        assert xla.is_zero(x[:2, :3] - p.coeffs[3])
        assert xla.is_zero(x[2:4, 3:6] - imn) and xla.is_zero(x[4:, 6:] - imn)
        assert xla.is_zero(y[:2, :3] - p.coeffs[2])
        assert xla.is_zero(y[2:4, :3] - p.coeffs[1])
        assert xla.is_zero(y[4:, :3] - p.coeffs[0])
        assert xla.is_zero(y[:2, 3:6] + imn) and xla.is_zero(y[2:4, 6:] + imn)
        assert xla.is_zero(y[4:, 3:])

    def test_transpose_duality(self):
        rng = np.random.default_rng(15)
        p = rand_poly(rng, 2, 3, 2)
        w = [2, -1]
        what = rand_w(rng, 2, 6)
        member = build_l2(p, w, what)
        dual = build_l1(p.transpose(), w, what.T.copy())
        assert xla.is_zero(member.pencil.X - dual.pencil.X.T)
        assert xla.is_zero(member.pencil.Y - dual.pencil.Y.T)
        assert ansatz_residual(member).is_zero()

    def test_zero_parameters(self):
        rng = np.random.default_rng(16)
        p = rand_poly(rng, 2, 3, 2)
        member = build_l2(p, [0, 0], xla.fzeros(2, 6))
        assert xla.is_zero(member.pencil.X) and xla.is_zero(member.pencil.Y)


class TestShiftedSum:
    def test_zero(self):
        z = xla.fzeros(4, 4)
        assert xla.is_zero(shifted_sum(z, z, 2))

    def test_companion_strip(self):
        p = case3_poly()
        c1 = companion_g1(p)
        out = shifted_sum(c1.pencil.X, c1.pencil.Y, 2)
        assert xla.is_zero(out - ansatz_target(p, c1.ansatz))

    def test_matches_symbolic_product(self):
        rng = np.random.default_rng(17)
        p = rand_poly(rng, 3, 2, 2)
        member = build_l1(p, [3, -1], rand_w(rng, 6, 2))
        out = shifted_sum(member.pencil.X, member.pencil.Y, 2)
        assert xla.is_zero(out - ansatz_target(p, member.ansatz))

    def test_zero_ansatz_entries_leave_zero_rows(self):
        rng = np.random.default_rng(19)
        p = rand_poly(rng, 3, 2, 3)
        v = xla.fvec([0, 2, 0])
        strip = np.hstack(p.coeffs[::-1])
        assert xla.is_zero(ansatz_target(p, v)
                           - np.kron(v.reshape(-1, 1), strip))
        # on float64 the zero block rows hold +0.0, not -0.0 products
        out = ansatz_target(p.to_float(), np.array([0.0, 2.0, -0.0]))
        assert not np.signbit(out[:3]).any()
        assert not np.signbit(out[6:]).any()
        assert np.array_equal(out[3:6], 2.0 * strip.astype(float))

    def test_zero_block_size_is_a_precondition(self):
        z = xla.fzeros(4, 4)
        with pytest.raises(PreconditionError, match="sizes must be positive"):
            shifted_sum(z, z, 0)

    def test_partial_blocks_are_a_schema_error(self):
        z = xla.fzeros(4, 4)
        with pytest.raises(SchemaError, match="whole number of blocks"):
            shifted_sum(z, z, 3)
        with pytest.raises(SchemaError, match="summands differ in shape"):
            shifted_sum(z, xla.fzeros(4, 2), 2)


class TestAnsatzGap:
    @pytest.mark.parametrize("side", [SIDE_L1, SIDE_L2])
    @pytest.mark.parametrize("field", [FIELD_RATIONAL, FIELD_FLOAT])
    def test_matches_the_product_form(self, field, side):
        rng = np.random.default_rng(31)
        for t in range(24):
            m, n, k = (int(x) for x in rng.integers(1, 5, size=3))
            k = max(k, 2)
            p = rand_poly(rng, m, n, k)
            v = rng.integers(-3, 4, size=k).tolist()
            shape = ((k * m, (k - 1) * n) if side == SIDE_L1
                     else ((k - 1) * m, k * n))
            w = rand_w(rng, *shape)
            if field == FIELD_FLOAT:
                p = p.to_float()
                v, w = rng.normal(size=k), rng.normal(size=shape)
            member = (build_l1 if side == SIDE_L1 else build_l2)(p, v, w)
            if t % 3 == 0:
                # off the space: the residuals are nonzero and must agree
                x = member.pencil.X.copy()
                x[t % x.shape[0], t % x.shape[1]] += (
                    1 if field == FIELD_RATIONAL else 1e-7)
                member = AnsatzPencil(MatPoly.pencil(x, member.pencil.Y,
                                                     field),
                                      side, member.ansatz, p)
            want = product_residual(member)
            got = ansatz_residual(member)
            assert (got.m, got.n, got.grade) == (want.m, want.n, want.grade)
            for a, b in zip(got.coeffs, want.coeffs):
                assert np.array_equal(a, b)
            if field == FIELD_RATIONAL:
                assert got.is_zero() == (t % 3 != 0)
            if side == SIDE_L1:
                gap = ansatz_gap(member.pencil, p, member.ansatz)
                for i, c in enumerate(want.coeffs):
                    assert np.array_equal(gap[:, (k - i) * n:(k - i + 1) * n],
                                          c)


class TestMembership:
    def test_companion_always_e1(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            p = rand_poly(rng, 3, 2, 2)
            if p.is_zero():
                continue
            v = ansatz_membership(companion_g1(p).pencil, p, SIDE_L1)
            assert v is not None and v[0] == 1 and v[1] == 0

    def test_walked_example_vector(self):
        from matpencil.cases import case3_member
        member = case3_member()
        v = ansatz_membership(member.pencil, case3_poly(), SIDE_L1)
        assert v is not None and list(v) == [0, 1]

    def test_case2_vector(self):
        member = case2_member()
        v = ansatz_membership(member.pencil, member.poly, SIDE_L1)
        assert v is not None and list(v) == [1, 0]

    def test_perturbed_member_rejected(self):
        p = case3_poly()
        c1 = companion_g1(p)
        x = c1.pencil.X.copy()
        x[1, 1] = x[1, 1] + 1
        broken = MatPoly.pencil(x, c1.pencil.Y, p.field)
        assert ansatz_membership(broken, p, SIDE_L1) is None

    def test_zero_poly_degenerate(self):
        p = MatPoly.zero(3, 2, 2)
        z = xla.fzeros(6, 4)
        zero = MatPoly.pencil(z, z, FIELD_RATIONAL)
        assert ansatz_membership(zero, p, SIDE_L1) is None

    def test_l2_side(self):
        rng = np.random.default_rng(20)
        p = rand_poly(rng, 2, 3, 2)
        member = build_l2(p, [5, 2], rand_w(rng, 2, 6))
        w = ansatz_membership(member.pencil, p, SIDE_L2)
        assert w is not None and list(w) == [5, 2]

    def test_round_trip_builder_membership(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = rand_poly(rng, 3, 2, 2)
            if p.is_zero():
                continue
            v = rng.integers(-3, 4, size=2).tolist()
            member = build_l1(p, v, rand_w(rng, 6, 2))
            got = ansatz_membership(member.pencil, p, SIDE_L1)
            assert got is not None and [int(x) for x in got] == v

    def test_float_membership(self):
        rng = np.random.default_rng(22)
        p = rand_poly(rng, 3, 2, 2).to_float()
        member = build_l1(p, np.array([0.5, -2.0]), rng.normal(size=(6, 2)))
        got = ansatz_membership(member.pencil, p, SIDE_L1)
        assert got is not None and np.allclose(got, [0.5, -2.0])


class TestDimension:
    def test_formula_values(self):
        assert space_dimension(3, 2, 2) == 14
        assert space_dimension(1, 1, 2) == 4
        assert space_dimension(2, 3, 3) == 39
        assert space_dimension(4, 3, 3) == 75

    def test_generator_rank_matches(self):
        rng = np.random.default_rng(23)
        p = rand_poly(rng, 3, 2, 2)
        g = generator_matrix(p, SIDE_L1)
        assert np.linalg.matrix_rank(g) == space_dimension(3, 2, 2)

    def test_generator_rank_l2(self):
        rng = np.random.default_rng(24)
        p = rand_poly(rng, 2, 3, 2)
        g = generator_matrix(p, SIDE_L2)
        assert np.linalg.matrix_rank(g) == space_dimension(2, 3, 2)

    def test_rejects_bad_grade(self):
        with pytest.raises(PreconditionError):
            space_dimension(2, 2, 1)


class TestSerialization:
    def test_round_trip(self):
        member = case2_member()
        d = member.to_json_dict()
        back = AnsatzPencil.from_json_dict(d)
        assert back.pencil.equal(member.pencil)
        assert list(back.ansatz) == list(member.ansatz)

    def test_tampered_payload_rejected(self):
        member = case2_member()
        d = member.to_json_dict()
        d["ansatz"] = ["0", "1"]
        with pytest.raises(SchemaError):
            AnsatzPencil.from_json_dict(d)


class TestReversalMember:
    def test_reversed_identity(self):
        rng = np.random.default_rng(25)
        p = rand_poly(rng, 3, 2, 2)
        member = build_l1(p, [1, 4], rand_w(rng, 6, 2))
        rev = reversal_member(member)
        assert rev.poly.equal(p.reversal())
        assert ansatz_residual(rev).is_zero()

    def test_reversed_identity_l2(self):
        rng = np.random.default_rng(26)
        p = rand_poly(rng, 2, 3, 2)
        member = build_l2(p, [2, 1], rand_w(rng, 2, 6))
        rev = reversal_member(member)
        assert ansatz_residual(rev).is_zero()
