"""Minimal bases via convolution-matrix nullspaces, and the recovery maps
between a polynomial and its ansatz pencils."""

import math
import sys
import warnings

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import (case1_member, case1_poly, case2_poly,
                             case3_member,
                             case3_poly)
from matpencil.errors import (PreconditionError, SchemaError,
                              VerificationError)
from matpencil.matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly, lambda_vec
from matpencil.minimal import (MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                               MODE_TRIMMED_L2, SIDE_LEFT, SIDE_RIGHT,
                               MinimalBasis, _certify, _pack_checked,
                               embed_right, index_walk, minimal_basis,
                               project_ansatz, recover_minimal, stack_indices,
                               walk_indices)
from matpencil.reduction import full_z_rank, trim
from matpencil.spaces import build_l1, companion_g1, companion_g2
from lift_oracle import lift_left
from staircase_oracle import oracle_pencil_indices, pencil_indices
from walk_oracle import oracle_minimal_basis, oracle_walk_indices


def vec_poly(*coeff_lists, field=FIELD_RATIONAL):
    """Column vector polynomial from ascending coefficient entry lists."""
    if field == FIELD_RATIONAL:
        coeffs = [xla.fmat([[x] for x in c]) for c in coeff_lists]
    else:
        coeffs = [np.array([[float(x)] for x in c]) for c in coeff_lists]
    return MatPoly(coeffs, field)


def same_basis(a: MinimalBasis, b: MinimalBasis) -> bool:
    return (a.side == b.side and a.indices == b.indices
            and all(x.equal(y) for x, y in zip(a.vectors, b.vectors)))


def spans_line(v: MatPoly, w: MatPoly, tol=0.0) -> bool:
    """v and w generate the same rank-1 coefficient column space."""
    g = max(v.grade, w.grade)
    rows = []
    for i in range(g + 1):
        for r in range(v.m):
            rows.append([v.coeff(i)[r, 0], w.coeff(i)[r, 0]])
    if v.field == FIELD_RATIONAL:
        return xla.rank(xla.fmat(rows)) == 1
    s = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    return s[0] > tol and (len(s) < 2 or s[1] <= tol * s[0])


def row_syzygy_poly():
    # [1, lambda]
    return MatPoly([xla.fmat([[1, 0]]), xla.fmat([[0, 1]])], FIELD_RATIONAL)


def planted_left_poly(rng):
    """Tall quadratic whose third row is 2*row1 - lambda*row2, so
    (2, -lambda, -1) is a left nullvector."""
    a = [np.zeros((3, 2), dtype=object) for _ in range(3)]
    for i in range(3):
        a[i][0] = rng.integers(-4, 5, size=2)
    for i in range(2):
        a[i][1] = rng.integers(-4, 5, size=2)
    a[2][0, 0] = max(a[2][0, 0], 1)  # keep the grade at 2
    a[0][2] = 2 * a[0][0]
    a[1][2] = 2 * a[1][0] - a[0][1]
    a[2][2] = 2 * a[2][0] - a[1][1]
    return MatPoly([xla.fmat(c.tolist()) for c in a], FIELD_RATIONAL)


def planted_right_poly(rng):
    """Tall quadratic with first column lambda times the second, so
    (1, -lambda) is a right nullvector."""
    a = [np.zeros((3, 2), dtype=object) for _ in range(3)]
    for i in range(2):
        a[i][:, 1] = rng.integers(-4, 5, size=3)
    a[1][0, 1] = max(a[1][0, 1], 1)
    a[1][:, 0] = a[0][:, 1]
    a[2][:, 0] = a[1][:, 1]
    return MatPoly([xla.fmat(c.tolist()) for c in a], FIELD_RATIONAL)


class TestMinimalBasisType:
    def test_ascending_enforced(self):
        v1 = vec_poly([0, 1], [-1, 0])
        v0 = vec_poly([1, 0])
        with pytest.raises(SchemaError):
            MinimalBasis(SIDE_RIGHT, (v1, v0), (1, 0), FIELD_RATIONAL)

    def test_degree_must_match_index(self):
        v = vec_poly([1, 0])
        with pytest.raises(SchemaError):
            MinimalBasis(SIDE_RIGHT, (v,), (1,), FIELD_RATIONAL)


class TestMinimalBasisComputation:
    def test_row_syzygy(self):
        mb = minimal_basis(row_syzygy_poly(), SIDE_RIGHT)
        assert mb.indices == (1,)
        assert mb.vectors[0].equal(vec_poly([0, 1], [-1, 0]))

    def test_case2_right(self):
        mb = minimal_basis(case2_poly(), SIDE_RIGHT)
        assert mb.indices == (1,)
        assert mb.vectors[0].equal(vec_poly([1, 0], [0, -1]))

    def test_case2_left(self):
        mb = minimal_basis(case2_poly(), SIDE_LEFT)
        assert mb.indices == (0, 1)
        assert mb.vectors[0].equal(vec_poly([0, 0, 1]))
        assert mb.vectors[1].equal(vec_poly([1, 0, 0], [0, -1, 0]))

    def test_case3_left_constant(self):
        mb = minimal_basis(case3_poly(), SIDE_LEFT)
        assert mb.indices == (0,)
        assert mb.vectors[0].equal(vec_poly([-2, -1, 1]))

    def test_case3_right_empty(self):
        mb = minimal_basis(case3_poly(), SIDE_RIGHT)
        assert mb.count == 0 and mb.indices == ()

    def test_square_nonsingular_constant(self):
        p = MatPoly([xla.feye(2)], FIELD_RATIONAL)
        assert minimal_basis(p, SIDE_RIGHT).count == 0
        assert minimal_basis(p, SIDE_LEFT).count == 0

    def test_zero_polynomial(self):
        p = MatPoly.zero(2, 2, 1)
        mb = minimal_basis(p, SIDE_RIGHT)
        assert mb.indices == (0, 0)
        assert mb.vectors[0].equal(vec_poly([1, 0]))
        assert mb.vectors[1].equal(vec_poly([0, 1]))

    def test_pencil_input_accepted(self):
        l = companion_g1(case2_poly())
        mb = minimal_basis(l.pencil, SIDE_LEFT)
        assert mb.indices == (0, 0, 1)

    def test_companion_pencil_indices(self):
        l = companion_g1(case2_poly())
        right = minimal_basis(l.pencil, SIDE_RIGHT)
        assert right.indices == (2,)
        left = minimal_basis(l.pencil, SIDE_LEFT)
        assert left.indices == (0, 0, 1)

    def test_dim_identities(self):
        p = case2_poly()
        l = companion_g1(p)
        lp = l.pencil
        assert (minimal_basis(lp, SIDE_RIGHT).count
                == minimal_basis(p, SIDE_RIGHT).count)
        extra = (p.grade - 1) * (p.m - p.n)
        assert (minimal_basis(lp, SIDE_LEFT).count
                == minimal_basis(p, SIDE_LEFT).count + extra)

    def test_float_case2_right(self):
        mb = minimal_basis(case2_poly().to_float(), SIDE_RIGHT)
        assert mb.indices == (1,)
        oracle = vec_poly([1, 0], [0, -1], field=FIELD_FLOAT)
        assert spans_line(mb.vectors[0], oracle, tol=1e-8)

    def test_unknown_side(self):
        with pytest.raises(SchemaError):
            minimal_basis(case2_poly(), "up")


class TestEmbedProject:
    def test_embed_example(self):
        x = vec_poly([1, 0], [0, -1])
        y = embed_right(x, 2)
        assert y.equal(vec_poly([0, 0, 1, 0], [1, 0, 0, -1], [0, -1, 0, 0]))

    def test_embed_zero(self):
        assert embed_right(MatPoly.zero(2, 1, 1), 3).is_zero()

    def test_embed_degree_shift(self):
        rng = np.random.default_rng(11)
        for k, field in [(k, f) for f in (FIELD_RATIONAL, FIELD_FLOAT)
                         for k in (2, 3, 4)]:
            x = vec_poly(*rng.integers(-3, 4, (3, 2)).tolist(), field=field)
            if x.is_zero():
                continue
            y = embed_right(x, k)
            assert y.degree == (k - 1) + x.degree
            # the tower is Lambda_k kron x, coefficient by coefficient
            lam = lambda_vec(k, 1, field)
            want = [field.zeros(k * x.m, 1) for _ in range(k + x.grade)]
            for i, a in enumerate(lam.coeffs):
                for j, b in enumerate(x.coeffs):
                    want[i + j] = want[i + j] + np.kron(a, b)
            assert y.equal(MatPoly(want, field))

    def test_embed_rejects_rows(self):
        with pytest.raises(SchemaError):
            embed_right(MatPoly([xla.fmat([[1, 2]])], FIELD_RATIONAL), 2)

    def test_project_first_block(self):
        x = vec_poly([1, 0], [0, -1])
        y = embed_right(x, 2)
        q = project_ansatz([1, 0], y, 2)
        # top block of the tower is lambda * x
        assert q.equal(vec_poly([0, 0], [1, 0], [0, -1]))

    def test_project_linearity(self):
        rng = np.random.default_rng(5)
        mk = lambda: MatPoly(
            [xla.fmat([[int(v)] for v in rng.integers(-3, 4, 6)])
             for _ in range(2)], FIELD_RATIONAL)
        y1, y2 = mk(), mk()
        v = [2, -3]
        lhs = project_ansatz(v, y1 + y2, 3)
        assert lhs.equal(project_ansatz(v, y1, 3) + project_ansatz(v, y2, 3))

    def test_project_length_mismatch(self):
        with pytest.raises(PreconditionError):
            project_ansatz([1, 0], vec_poly([1, 0, 0]), 2)

    def test_projected_pencil_nullvectors_land_in_p(self):
        p = case2_poly()
        l = companion_g1(p)
        left = minimal_basis(l.pencil, SIDE_LEFT)
        for y in left.vectors:
            q = project_ansatz(l.ansatz, y, p.m)
            assert q.transpose().matmul(p).is_zero()


class TestLift:
    def test_constant_vector(self):
        p = case2_poly()
        q = vec_poly([0, 0, 1])
        y = lift_left(q, companion_g1(p))
        assert y.equal(vec_poly([0, 0, 1, 0, 0, 0]))

    def test_degree_one_vector(self):
        p = case2_poly()
        q = vec_poly([1, 0, 0], [0, -1, 0])
        y = lift_left(q, companion_g1(p))
        assert y.equal(vec_poly([1, 0, 0, 0, 1, 0], [0, -1, 0, 0, 0, 0]))

    def test_zero_vector(self):
        l = companion_g1(case2_poly())
        assert lift_left(MatPoly.zero(3, 1, 1), l).is_zero()

    def test_rejects_non_nullvector(self):
        l = companion_g1(case2_poly())
        with pytest.raises(PreconditionError):
            lift_left(vec_poly([1, 0, 0]), l)

    def test_rejects_left_space_member(self):
        l2 = companion_g2(case2_poly().transpose())
        with pytest.raises(PreconditionError):
            lift_left(vec_poly([1, 0]), l2)

    def test_projection_round_trip(self):
        p = case2_poly()
        l = companion_g1(p)
        for q in (vec_poly([0, 0, 1]), vec_poly([1, 0, 0], [0, -1, 0])):
            y = lift_left(q, l)
            assert y.degree == q.degree
            assert project_ansatz(l.ansatz, y, p.m).equal(q)

    def test_round_trip_nontrivial_ansatz(self):
        # case 3's member has a swapped ansatz vector, M is not I there
        p = case3_poly()
        l = case3_member()
        q = vec_poly([-2, -1, 1])
        y = lift_left(q, l)
        assert y.degree == 0
        assert project_ansatz(l.ansatz, y, p.m).equal(q)

    def test_degree_preserved_on_planted_rows(self):
        rng = np.random.default_rng(23)
        q = vec_poly([2, 0, -1], [0, -1, 0])
        for _ in range(5):
            p = planted_left_poly(rng)
            assert q.transpose().matmul(p).is_zero()
            y = lift_left(q, companion_g1(p))
            assert y.degree == 1
            assert project_ansatz([1, 0], y, 3).equal(q)


def constants(basis: MinimalBasis) -> int:
    return sum(1 for e in basis.indices if e == 0)


class TestSpecialBasis:
    """A right-space member's left minimal basis is P's lifted plus
    (k-1)(m-n) constants spanning the kernel of the ansatz projection;
    the glin recovery drops those constants before projecting."""

    def test_case2_companion(self):
        p = case2_poly()
        l = companion_g1(p)
        lb = recover_minimal(l, p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert minimal_basis(l.pencil, SIDE_LEFT).indices == (0, 0, 1)
        assert lb.indices == (0, 1)
        assert spans_line(lb.vectors[0], vec_poly([0, 0, 1]))

    def test_case3_member(self):
        # case 3's ansatz vector is not e1, so M is not I
        l = case3_member()
        assert minimal_basis(l.pencil, SIDE_LEFT).indices == (0, 0)
        lb = recover_minimal(l, case3_poly(), (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert lb.indices == (0,)
        assert spans_line(lb.vectors[0], vec_poly([-2, -1, 1]))

    def test_square_returns_plain_basis(self):
        a0 = [[0, 0], [0, 1]]
        a1 = [[0, 1], [1, 0]]
        a2 = [[1, 0], [0, 0]]
        p = MatPoly([xla.fmat(a0), xla.fmat(a1), xla.fmat(a2)],
                    FIELD_RATIONAL)
        l = companion_g1(p)
        base = minimal_basis(l.pencil, SIDE_LEFT)
        lb = recover_minimal(l, p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert lb.indices == base.indices
        assert all(spans_line(q, project_ansatz(l.ansatz, y, p.m))
                   for q, y in zip(lb.vectors, base.vectors))

    def test_generic_tall_has_only_kernel_zeros(self):
        rng = np.random.default_rng(37)
        polys = [planted_left_poly(rng) for _ in range(2)]
        for _ in range(3):
            polys.append(MatPoly([xla.fmat(rng.integers(-4, 5, size=(3, 2))
                                           .tolist()) for _ in range(3)],
                                 FIELD_RATIONAL))
        polys.append(planted_poly(np.random.default_rng(70), 4, 3, 3))
        for m, k in ((4, 2), (5, 3)):
            # rows past the second repeat row 0 plus row 1: m - 2 constants
            p = int_poly(rng, m, 2, k)
            for c in p.coeffs:
                c[2:] = c[0] + c[1]
            polys.append(p)
        seen = set()
        for p in polys:
            k = p.grade
            w = rng.integers(-3, 4, size=(k * p.m, (k - 1) * p.n)).tolist()
            members = [companion_g1(p), build_l1(p, [2, -1] + [1] * (k - 2),
                                                 xla.fmat(w))]
            for l in members:
                assert full_z_rank(l)
                lb = recover_minimal(l, p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
                extra = (k - 1) * (p.m - p.n)
                assert constants(minimal_basis(l.pencil, SIDE_LEFT)) \
                    == constants(lb) + extra
                assert constants(lb) == constants(minimal_basis(p, SIDE_LEFT))
                seen.add(constants(lb))
        assert seen == {0, 2, 3}

    def test_deficient_z_refused(self):
        with pytest.raises(PreconditionError,
                           match="lower block is rank deficient; cannot trim"):
            recover_minimal(case1_member(), case1_poly(), (SIDE_LEFT,),
                            MODE_GLIN_L1)
        pw = case2_poly().transpose()
        with pytest.raises(PreconditionError,
                           match="wide polynomials trim through the left"):
            recover_minimal(companion_g1(pw), pw, (SIDE_LEFT,), MODE_GLIN_L1)

    def test_left_space_member_refused(self):
        pw = case2_poly().transpose()
        l2 = companion_g2(pw)
        with pytest.raises(SchemaError, match="expects a right-space member"):
            recover_minimal(l2, pw, (SIDE_LEFT,), MODE_GLIN_L1)
        with pytest.raises(PreconditionError,
                           match="needs a right-space member"):
            lift_left(vec_poly([1, 0]), l2)


class TestRecover:
    def test_case2_glin_right(self):
        p = case2_poly()
        l = companion_g1(p)
        rb = recover_minimal(l, p, (SIDE_RIGHT,), MODE_GLIN_L1)[0]
        assert rb.indices == (1,)
        assert spans_line(rb.vectors[0], vec_poly([1, 0], [0, -1]))

    def test_case2_glin_left(self):
        p = case2_poly()
        l = companion_g1(p)
        lb = recover_minimal(l, p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert lb.indices == (0, 1)

    def test_case2_trimmed_right(self):
        p = case2_poly()
        tr = trim(companion_g1(p))
        rb = recover_minimal(tr, p, (SIDE_RIGHT,), MODE_TRIMMED_L1)[0]
        assert rb.indices == (1,)
        assert spans_line(rb.vectors[0], vec_poly([1, 0], [0, -1]))

    def test_case3_trimmed_left(self):
        p = case3_poly()
        tr = trim(case3_member())
        lb = recover_minimal(tr, p, (SIDE_LEFT,), MODE_TRIMMED_L1)[0]
        assert lb.indices == (0,)
        assert spans_line(lb.vectors[0], vec_poly([-2, -1, 1]))

    def test_case3_trimmed_right_empty(self):
        p = case3_poly()
        tr = trim(case3_member())
        rb = recover_minimal(tr, p, (SIDE_RIGHT,), MODE_TRIMMED_L1)[0]
        assert rb.count == 0

    def test_case3_glin_left(self):
        p = case3_poly()
        l = case3_member()
        lb = recover_minimal(l, p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert lb.indices == (0,)
        assert spans_line(lb.vectors[0], vec_poly([-2, -1, 1]))

    def test_wide_glin_l2(self):
        pw = case2_poly().transpose()
        l2 = companion_g2(pw)
        rb = recover_minimal(l2, pw, (SIDE_RIGHT,), MODE_GLIN_L2)[0]
        assert rb.indices == (0, 1)
        lb = recover_minimal(l2, pw, (SIDE_LEFT,), MODE_GLIN_L2)[0]
        assert lb.indices == (1,)
        assert spans_line(lb.vectors[0], vec_poly([1, 0], [0, -1]))

    def test_wide_trimmed_l2(self):
        pw = case2_poly().transpose()
        tr = trim(companion_g2(pw))
        rb = recover_minimal(tr, pw, (SIDE_RIGHT,), MODE_TRIMMED_L2)[0]
        assert rb.indices == (0, 1)
        lb = recover_minimal(tr, pw, (SIDE_LEFT,), MODE_TRIMMED_L2)[0]
        assert lb.indices == (1,)

    def test_planted_right_shift(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            p = planted_right_poly(rng)
            want = minimal_basis(p, SIDE_RIGHT).indices
            l = companion_g1(p)
            lvl = minimal_basis(l.pencil, SIDE_RIGHT).indices
            assert lvl == tuple(e + 1 for e in want)
            got = recover_minimal(l, p, (SIDE_RIGHT,), MODE_GLIN_L1)[0].indices
            assert got == want

    def test_source_type_checks(self):
        p = case2_poly()
        l = companion_g1(p)
        tr = trim(l)
        with pytest.raises(SchemaError):
            recover_minimal(tr, p, (SIDE_RIGHT,), MODE_GLIN_L1)
        with pytest.raises(SchemaError):
            recover_minimal(l, p, (SIDE_RIGHT,), MODE_TRIMMED_L1)
        with pytest.raises(SchemaError):
            recover_minimal(l, p, (SIDE_RIGHT,), MODE_GLIN_L2)
        with pytest.raises(SchemaError):
            recover_minimal(l, p, ("up",), MODE_GLIN_L1)
        with pytest.raises(SchemaError):
            recover_minimal(l, p, (SIDE_RIGHT,), "companion")
        with pytest.raises(SchemaError):
            recover_minimal(l, case3_poly(), (SIDE_RIGHT,), MODE_GLIN_L1)
        with pytest.raises(SchemaError):
            recover_minimal(tr, case3_poly(), (SIDE_RIGHT,), MODE_TRIMMED_L1)

    def test_float_trimmed_left(self):
        p = case3_poly().to_float()
        tr = trim(companion_g1(p))
        lb = recover_minimal(tr, p, (SIDE_LEFT,), MODE_TRIMMED_L1)[0]
        assert lb.indices == (0,)
        oracle = vec_poly([-2, -1, 1], field=FIELD_FLOAT)
        assert spans_line(lb.vectors[0], oracle, tol=1e-8)

    def test_glin_left_reads_no_trimming_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("glin recovery ran trim")

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("matpencil")
                    and getattr(mod, "trim", None) is trim):
                monkeypatch.setattr(mod, "trim", refuse)
        p = case2_poly()
        lb = recover_minimal(companion_g1(p), p, (SIDE_LEFT,), MODE_GLIN_L1)[0]
        assert lb.indices == (0, 1)
        lb = recover_minimal(case3_member(), case3_poly(), (SIDE_LEFT,),
                             MODE_GLIN_L1)[0]
        assert lb.indices == (0,)
        pw = p.transpose()
        lb = recover_minimal(companion_g2(pw), pw, (SIDE_LEFT,),
                             MODE_GLIN_L2)[0]
        assert lb.indices == (1,)

    def test_leading_matrix_certificate_fires(self):
        # p = [1, l, 0] kills x1 = (l, -1, 0) and x2 = (l, -1, 1): the pair
        # is independent, but both leading coefficients are e1
        p = MatPoly([xla.fmat([[1, 0, 0]]), xla.fmat([[0, 1, 0]])],
                    FIELD_RATIONAL)
        x1 = vec_poly([0, -1, 0], [1, 0, 0])
        x2 = vec_poly([0, -1, 1], [1, 0, 0])
        rank = p.normal_rank()
        with pytest.raises(VerificationError,
                           match="leading coefficient matrix is rank deficient"):
            _pack_checked([x1, x2], p, SIDE_RIGHT, rank)

    def test_float_glin_right(self):
        p = case2_poly().to_float()
        l = companion_g1(p)
        rb = recover_minimal(l, p, (SIDE_RIGHT,), MODE_GLIN_L1)[0]
        assert rb.indices == (1,)


class TestCertifyOnIntegralMultiples:
    """_certify checks each rational vector's residual on its multiple by
    the lcm of its denominators, which is zero exactly when the vector's
    own is."""

    # p = [3, 2l] kills (2l, -3), and v = (l/3, -1/2) is its multiple by
    # 1/6: the coefficients' denominators (2 and 3) differ
    P = MatPoly([xla.fmat([[3, 0]]), xla.fmat([[0, 2]])], FIELD_RATIONAL)
    V = vec_poly(["0", "-1/2"], ["1/3", "0"])
    # p·(l/3, -1/3) = l/3
    BAD = vec_poly(["0", "-1/3"], ["1/3", "0"])

    @pytest.mark.parametrize("side", [SIDE_RIGHT, SIDE_LEFT])
    def test_fraction_vector_with_a_residual_is_refused(self, side):
        p = self.P if side == SIDE_RIGHT else self.P.transpose()
        with pytest.raises(VerificationError,
                           match="fails the residual check"):
            _pack_checked([self.BAD], p, side, p.normal_rank())

    @pytest.mark.parametrize("side", [SIDE_RIGHT, SIDE_LEFT])
    def test_nullvector_with_a_nontrivial_multiple_passes(self, side):
        p = self.P if side == SIDE_RIGHT else self.P.transpose()
        basis = _pack_checked([self.V], p, side, p.normal_rank())
        assert basis.indices == (1,)
        assert basis.vectors[0].equal(self.V)

    def test_residuals_run_on_ints(self, monkeypatch):
        seen = []
        matmul = MatPoly.matmul

        def spy(a, b):
            seen.extend(x for c in a.coeffs + b.coeffs for x in c.flat)
            return matmul(a, b)
        monkeypatch.setattr(MatPoly, "matmul", spy)
        rank = self.P.normal_rank()
        _pack_checked([self.V], self.P, SIDE_RIGHT, rank)
        _pack_checked([self.V], self.P.transpose(), SIDE_LEFT, rank)
        assert seen and all(type(x) is int for x in seen)

    def test_the_multiple_is_the_least_integral_one(self):
        w = FIELD_RATIONAL.integral_multiple(self.V.coeffs)
        assert [c[:, 0].tolist() for c in w] == [[0, -3], [2, 0]]
        assert all(type(x) is int for c in w for x in c.flat)
        ints = vec_poly([1, 0], [0, 2]).coeffs
        floats = self.V.to_float().coeffs
        for field, coeffs in ((FIELD_RATIONAL, ints), (FIELD_FLOAT, floats)):
            assert all(a is b for a, b in zip(
                field.integral_multiple(coeffs), coeffs))


def int_poly(rng, m, n, k):
    return MatPoly([xla.fmat(rng.integers(-3, 4, size=(m, n)).tolist())
                    for _ in range(k + 1)], FIELD_RATIONAL)


def planted_poly(rng, m, n, k):
    """An m x (n-1) grade-(k-1) polynomial times an (n-1) x n pencil: a
    right nullvector and m - n + 1 left ones."""
    return int_poly(rng, m, n - 1, k - 1).matmul(int_poly(rng, n - 1, n, 1))


def every_degree_basis(p, side):
    """minimal_basis's walk with the pivot rule run on every null column
    at every degree: the reference for the skipped selection."""
    q = p.transpose() if side == SIDE_LEFT else p
    field, n = q.field, q.n
    leads, chosen = field.zeros(n, 0), []

    def select(d):
        nonlocal leads
        ns = field.nullspace(q.conv_matrix(d))
        for j in range(ns.shape[1]):
            col = ns[:, j:j + 1]
            grown = np.concatenate([leads, col[:n]], axis=1)
            if len(field.pivots(grown)) > leads.shape[1]:
                leads = grown
                chosen.append(MatPoly(
                    [col[(d - i) * n:(d - i + 1) * n].copy()
                     for i in range(d + 1)], field))
        return ns.shape[1], len(chosen)

    indices = index_walk(q, n - q.normal_rank(), select)
    return MinimalBasis(side, tuple(chosen), indices, field)


SELECTION_CASES = {
    "planted-4x3k2": lambda: planted_poly(np.random.default_rng(70), 4, 3, 2),
    "planted-4x3k3": lambda: planted_poly(np.random.default_rng(71), 4, 3, 3),
    "planted-4x3k2-companion": lambda: companion_g1(
        planted_poly(np.random.default_rng(72), 4, 3, 2)).pencil,
    # left indices (0, 0, 2, 2) and (0, 0, 6): degrees with null columns
    # but no new index lie between them
    "planted-4x3k3-companion": lambda: companion_g1(
        planted_poly(np.random.default_rng(71), 4, 3, 3)).pencil,
    "generic-3x2k3-companion": lambda: companion_g1(
        int_poly(np.random.default_rng(73), 3, 2, 3)).pencil,
    "example1": case1_poly,
    "example2": case2_poly,
    "example3": case3_poly,
    "generic-3x2k3": lambda: int_poly(np.random.default_rng(73), 3, 2, 3),
}


class TestSelection:
    @pytest.mark.parametrize("side", [SIDE_RIGHT, SIDE_LEFT])
    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_matches_selection_at_every_degree(self, name, side):
        p = SELECTION_CASES[name]()
        assert same_basis(minimal_basis(p, side), every_degree_basis(p, side))

    def test_cases_carry_indices(self):
        # the planted cases have indices on both sides, some above 0
        for name in ("planted-4x3k2", "planted-4x3k3"):
            p = SELECTION_CASES[name]()
            right = minimal_basis(p, SIDE_RIGHT).indices
            left = minimal_basis(p, SIDE_LEFT).indices
            assert len(right) == 1 and len(left) == 2
            assert max(right + left) > 0

    @pytest.mark.parametrize("side", [SIDE_RIGHT, SIDE_LEFT])
    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_span_add_runs_only_at_index_degrees(self, name, side,
                                                 monkeypatch):
        events = []
        conv = MatPoly.conv_matrix
        pivots = type(FIELD_RATIONAL).pivots

        def conv_spy(poly, d):
            events.append(("degree", d))
            return conv(poly, d)

        def pivots_spy(field, a):
            events.append(("pivots", None))
            return pivots(field, a)

        monkeypatch.setattr(MatPoly, "conv_matrix", conv_spy)
        monkeypatch.setattr(type(FIELD_RATIONAL), "pivots", pivots_spy)
        basis = minimal_basis(SELECTION_CASES[name](), side)
        tried, degree = set(), None
        for kind, d in events:
            if kind == "degree":
                degree = d
            else:
                tried.add(degree)
        assert tried == set(basis.indices)


class TestIndexWalk:
    """index_walk on scripted nullities of a 1x4 grade-3 polynomial (degree
    bound 3)."""

    poly = MatPoly.zero(1, 4, 3)

    def walk(self, want, nullities, selected=None):
        calls = []

        def step(d):
            calls.append(d)
            return nullities[d], None if selected is None else selected[d]
        return index_walk(self.poly, want, step), calls

    def test_reads_indices_off_the_nullity_growth(self):
        # growth 0, 2, 2, 3: two indices equal to 1 and one equal to 3
        assert self.walk(3, [0, 2, 4, 7]) == ((1, 1, 3), [0, 1, 2, 3])

    def test_no_wanted_index_needs_no_step(self):
        assert self.walk(0, []) == ((), [])

    def test_shrinking_growth_raises(self):
        with pytest.raises(VerificationError, match="not monotone"):
            self.walk(2, [1, 1])

    def test_degree_bound(self):
        with pytest.raises(VerificationError, match="degree bound"):
            self.walk(1, [0, 0, 0, 0, 0])

    def test_selection_mismatch_raises_at_its_degree(self):
        calls = []

        def step(d):
            calls.append(d)
            return [0, 2, 4][d], [0, 1, 2][d]
        with pytest.raises(VerificationError, match="selected index"):
            index_walk(self.poly, 3, step)
        assert calls == [0, 1]

    def test_a_clear_probe_jumps_to_the_last_index(self):
        # one index left and a cap of 3: a nullity of 1 at degree 3 puts
        # the index there, and the walk visits degree 3 alone
        calls, probes = [], []

        def step(d):
            calls.append(d)
            return {3: 1}[d], None

        def probe(d):
            probes.append(d)
            return {3: 1}[d], True
        assert index_walk(self.poly, 1, step, probe, 3) == (3,)
        assert (probes, calls) == ([3], [3])

    def test_an_unclear_probe_walks_from_zero(self):
        calls = []

        def step(d):
            calls.append(d)
            return [0, 0, 0, 1][d], None
        assert index_walk(self.poly, 1, step,
                          lambda d: (1, False), 3) == (3,)
        assert calls == [0, 1, 2, 3]


def float_poly(rng, m, n, k, inner=None, noise=0.0):
    """Standard normal coefficients; with inner, a product A(l) B(l)
    through that many columns, plus noise of the given size."""
    def draw(rows, cols, grade):
        return MatPoly([rng.standard_normal((rows, cols))
                        for _ in range(grade + 1)], FIELD_FLOAT)
    if inner is None:
        return draw(m, n, k)
    a = int(rng.integers(0, k + 1))
    p = draw(m, inner, a).matmul(draw(inner, n, k - a))
    return MatPoly([c + noise * rng.standard_normal(c.shape)
                    for c in p.coeffs], FIELD_FLOAT)


def walk_outcome(walk, p, nrank):
    """The walk's result, or the class and message of what it raised."""
    try:
        return walk(p, nrank)
    except VerificationError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def ranked(monkeypatch):
    """Column counts of the matrices that rank_with_margin decides, with
    each decision's clear flag, on both fields."""
    log = []
    for field in (FIELD_FLOAT, FIELD_RATIONAL):
        real = type(field).rank_with_margin

        def spy(self, a, real=real):
            out = real(self, a)
            log.append((a.shape[1], out[1]))
            return out
        monkeypatch.setattr(type(field), "rank_with_margin", spy)
    return log


def run_logged(log, walk, p, nrank):
    log.clear()
    out = walk_outcome(walk, p, nrank)
    return out, list(log)


class TestWalkProbe:
    """walk_indices starts each walk past a rank probe placed by the Index
    Sum Theorem; the linear walk of tests/walk_oracle.py is the reference
    for indices, flags and raised messages."""

    def test_float_inputs_match_the_oracle(self):
        rng = np.random.default_rng(90)
        unclear = 0
        for i in range(600):
            m, n = (int(x) for x in rng.integers(1, 6, size=2))
            k = int(rng.integers(1, 4))
            inner = None if i % 3 == 0 else int(rng.integers(1, min(m, n) + 1))
            noise = 10.0 ** rng.uniform(-16, -6) if i % 3 == 2 else 0.0
            p = float_poly(rng, m, n, k, inner, noise)
            nrank = p.normal_rank()
            want = walk_outcome(oracle_walk_indices, p, nrank)
            assert walk_outcome(walk_indices, p, nrank) == want
            unclear += not want[2]
        assert unclear > 0  # near-cut decisions are among the inputs

    def test_exact_inputs_match_the_oracle(self, ranked):
        rng = np.random.default_rng(91)
        fewer = more = 0
        for m in range(1, 5):
            for n in range(1, 5):
                for k in (1, 2, 3):
                    polys = [int_poly(rng, m, n, k)]
                    if n > 1:
                        polys.append(planted_poly(rng, m, n, k))
                    for p in polys:
                        nrank = p.normal_rank()
                        got, calls = run_logged(ranked, walk_indices, p,
                                                nrank)
                        want, oracle_calls = run_logged(
                            ranked, oracle_walk_indices, p, nrank)
                        assert got == want
                        fewer += len(calls) < len(oracle_calls)
                        more += len(calls) > len(oracle_calls)
        # probes that settle a prefix, and probes that fail unreached
        assert fewer > 0 and more > 0

    @pytest.mark.parametrize("field", [FIELD_FLOAT, FIELD_RATIONAL])
    def test_raised_messages_match_the_oracle(self, field):
        # a normal rank one too low sends a walk past the degree bound
        p = int_poly(np.random.default_rng(92), 3, 3, 2)
        if field == FIELD_FLOAT:
            p = p.to_float()
        want = walk_outcome(oracle_walk_indices, p, 2)
        assert want == ("VerificationError",
                        "index walk passed the degree bound")
        assert walk_outcome(walk_indices, p, 2) == want

    def test_an_unreached_probe_near_the_cut_leaves_no_flag(self, ranked):
        # (1 + l)^7 [l - 1, l - 1 - eta]: right index 1; the near-common
        # root leaves a singular value 15 and 12 times the cut at degrees
        # 0 and 1, which falls near the cut at the jump to the cap, 8
        g = MatPoly([np.array([[float(math.comb(7, i))]]) for i in range(8)],
                    FIELD_FLOAT)
        ab = MatPoly([np.array([[-1.0, -1.0 - 2.5e-13]]),
                      np.array([[1.0, 1.0]])], FIELD_FLOAT)
        p = g.matmul(ab)
        got, calls = run_logged(ranked, walk_indices, p, 1)
        want, oracle_calls = run_logged(ranked, oracle_walk_indices, p, 1)
        assert want == ((1,), (), True)
        assert got == want
        assert calls == [(18, False)] + oracle_calls

    def test_generic_left_walk_ranks_one_matrix(self, ranked):
        # 5x4 grade 3: one left index, 12, which the jump to the cap reads
        p = float_poly(np.random.default_rng(93), 5, 4, 3)
        got, calls = run_logged(ranked, walk_indices, p, 4)
        want = walk_outcome(oracle_walk_indices, p, 4)
        assert got == want == ((), (12,), True)
        assert [cols // 5 - 1 for cols, _ in calls] == [12]

    def test_planted_right_index_costs_at_most_one_more_rank(self, ranked):
        # a 4x1 grade-2 column times a 1x2 pencil: right index 1, below
        # the probe at degree 2
        p = planted_poly(np.random.default_rng(94), 4, 2, 3)
        got, calls = run_logged(ranked, walk_indices, p, 1)
        want, oracle_calls = run_logged(ranked, oracle_walk_indices, p, 1)
        assert got == want and got[0] == (1,)
        assert len(calls) <= len(oracle_calls) + 1

    def test_a_reached_probe_is_ranked_once(self, ranked):
        # right index 1 at normal rank 1, grade 2: the probe at degree 1
        # fails, and the walk reuses its rank there
        p = planted_right_poly(np.random.default_rng(95))
        got, calls = run_logged(ranked, walk_indices, p, 1)
        want, oracle_calls = run_logged(ranked, oracle_walk_indices, p, 1)
        assert got == want and got[0] == (1,)
        assert sorted(calls) == sorted(oracle_calls)


def kronecker_right_pencil(indices, seed):
    """An exact full-row-rank pencil whose right minimal indices are the
    given ones: L_e = l*[I 0] + [0 I] blocks (a zero column for e = 0),
    times seeded unimodular integer matrices on both sides."""
    rows, cols = sum(indices), sum(e + 1 for e in indices)
    y, x = np.zeros((rows, cols), dtype=int), np.zeros((rows, cols), dtype=int)
    r = c = 0
    for e in indices:
        x[r:r + e, c:c + e] += np.eye(e, dtype=int)
        y[r:r + e, c + 1:c + e + 1] += np.eye(e, dtype=int)
        r, c = r + e, c + e + 1
    rng = np.random.default_rng(seed)

    def unimodular(k):
        lower = np.tril(rng.integers(-2, 3, (k, k)), -1) + np.eye(k, dtype=int)
        upper = np.triu(rng.integers(-2, 3, (k, k)), 1) + np.eye(k, dtype=int)
        return lower @ upper
    u, v = unimodular(rows), unimodular(cols)
    return MatPoly([xla.fmat((u @ a @ v).tolist()) for a in (y, x)],
                   FIELD_RATIONAL)


@pytest.fixture
def eliminated(monkeypatch):
    """The degree of each convolution matrix whose nullspace the field
    takes, on both fields: column count over the polynomial's width."""
    log = []
    for field in (FIELD_FLOAT, FIELD_RATIONAL):
        real = type(field).nullspace_with_margin

        def spy(self, a, real=real):
            log.append(a.shape[1])
            return real(self, a)
        monkeypatch.setattr(type(field), "nullspace_with_margin", spy)
    return log


def logged_basis(log, build, p, side):
    """build(p, side), the degrees it eliminated at, and the messages it
    warned with."""
    log.clear()
    width = p.m if side == SIDE_LEFT else p.n
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = build(p, side)
    return (basis, [cols // width - 1 for cols in log],
            [str(w.message) for w in caught])


def certified_oracle(p, side):
    basis = oracle_minimal_basis(p, side)
    _certify(basis, p)
    return basis


class TestWalkDriver:
    """minimal_basis and walk_indices run one walk driver; the linear
    walks of tests/walk_oracle.py are the reference for indices, bytes,
    flags and warnings.  Settled sides probe; the others walk from 0."""

    @pytest.mark.parametrize("indices,degrees", [
        # degree 0 finds the constants, the gap probe at 8 // 2 - 1 = 3
        # is full, and degree 4 carries both indices left
        ((0, 0, 4, 4), [0, 3, 4]),
        # the gap probe at 3 meets the index 3: the walk resumes at 1,
        # reuses the probe's nullspace at 3, and jumps to 8 - 3 = 5
        ((0, 0, 3, 5), [0, 3, 1, 2, 5]),
    ])
    def test_a_settled_side_with_gaps(self, eliminated, indices, degrees):
        p = kronecker_right_pencil(indices, seed=sum(indices))
        got, calls, warned = logged_basis(eliminated, minimal_basis, p,
                                          SIDE_RIGHT)
        want, oracle_calls, _ = logged_basis(eliminated, oracle_minimal_basis,
                                             p, SIDE_RIGHT)
        assert got.indices == indices and same_basis(got, want)
        assert calls == degrees and not warned
        assert oracle_calls == list(range(max(indices) + 1))
        nrank = p.normal_rank()
        assert walk_indices(p, nrank) == oracle_walk_indices(p, nrank) \
            == (indices, (), True)

    def test_a_finite_eigenvalue_puts_the_last_index_below_the_cap(
            self, eliminated):
        # (l - 2) Q, Q a generic 3x2 pencil: left index 2, cap 2 * 2 = 4;
        # the nullity at 4 is 3, not 1, so the walk runs from 0 and never
        # reaches 4 again
        q = int_poly(np.random.default_rng(96), 3, 2, 1)
        a, b = int_poly(np.random.default_rng(97), 3, 2, 1).coeffs
        p = MatPoly([-2 * a, a - 2 * b, b])
        got, calls, _ = logged_basis(eliminated, minimal_basis, p, SIDE_LEFT)
        want, _, _ = logged_basis(eliminated, oracle_minimal_basis, p,
                                  SIDE_LEFT)
        assert got.indices == (2,) and same_basis(got, want)
        assert calls == [4, 0, 1, 2]
        assert walk_indices(p, 2) == oracle_walk_indices(p, 2)

    @pytest.mark.parametrize("side", [SIDE_RIGHT, SIDE_LEFT])
    def test_indices_on_both_sides_take_no_probe(self, eliminated, ranked,
                                                 side):
        p = planted_poly(np.random.default_rng(71), 4, 3, 3)
        got, calls, _ = logged_basis(eliminated, minimal_basis, p, side)
        want, oracle_calls, _ = logged_basis(eliminated,
                                             oracle_minimal_basis, p, side)
        assert same_basis(got, want) and calls == oracle_calls
        nrank = p.normal_rank()
        got, calls = run_logged(ranked, walk_indices, p, nrank)
        want, oracle_calls = run_logged(ranked, oracle_walk_indices, p,
                                        nrank)
        # the right walk visits every degree up to its last index; the
        # left one is settled by it
        assert got == want and got[0] and got[1]
        last = max(got[0]) + 1
        assert calls[:last] == oracle_calls[:last] \
            == [(3 * (d + 1), True) for d in range(last)]

    def test_a_jump_near_the_cut_falls_back_and_warns_nothing(
            self, eliminated):
        # the pair of TestWalkProbe's unreached probe: the nullspace at the
        # cap, 8, is near the cut and is never visited
        g = MatPoly([np.array([[float(math.comb(7, i))]]) for i in range(8)],
                    FIELD_FLOAT)
        ab = MatPoly([np.array([[-1.0, -1.0 - 2.5e-13]]),
                      np.array([[1.0, 1.0]])], FIELD_FLOAT)
        p = g.matmul(ab)
        got, calls, warned = logged_basis(eliminated, minimal_basis, p,
                                          SIDE_RIGHT)
        want, oracle_calls, oracle_warned = logged_basis(
            eliminated, oracle_minimal_basis, p, SIDE_RIGHT)
        assert got.indices == (1,) and same_basis(got, want)
        assert calls == [8, 0, 1] and oracle_calls == [0, 1]
        assert warned == oracle_warned == []

    def test_exact_bases_match_the_oracle(self):
        rng = np.random.default_rng(97)
        for m in range(1, 5):
            for n in range(1, 5):
                for k in (1, 2, 3):
                    polys = [int_poly(rng, m, n, k)]
                    if n > 1:
                        polys.append(planted_poly(rng, m, n, k))
                    for p in polys:
                        for side in (SIDE_RIGHT, SIDE_LEFT):
                            assert same_basis(minimal_basis(p, side),
                                              oracle_minimal_basis(p, side))

    def test_float_bases_match_the_oracle(self):
        rng = np.random.default_rng(98)
        for i in range(150):
            m, n = (int(x) for x in rng.integers(1, 6, size=2))
            k = int(rng.integers(1, 4))
            inner = None if i % 3 == 0 else int(rng.integers(1, min(m, n) + 1))
            noise = 10.0 ** rng.uniform(-16, -6) if i % 3 == 2 else 0.0
            p = float_poly(rng, m, n, k, inner, noise)
            for side in (SIDE_RIGHT, SIDE_LEFT):
                assert basis_outcome(minimal_basis, p, side) \
                    == basis_outcome(certified_oracle, p, side)


def basis_outcome(build, p, side):
    """The basis's indices and vector bytes, or the message of what it
    raised, and the messages it warned with."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            basis = build(p, side)
            out = basis.indices, [c.tobytes() for v in basis.vectors
                                  for c in v.coeffs]
        except VerificationError as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


def kron_l(eps):
    """(Y, X) of the right singular block L_eps = l*[I 0] + [0 I]."""
    return (np.eye(eps, eps + 1, 1), np.eye(eps, eps + 1))


def kron_lt(eta):
    """(Y, X) of the left singular block L_eta transposed."""
    y, x = kron_l(eta)
    return y.T, x.T


def kron_j(s, r):
    """(Y, X) of the Jordan block l*I - J_s(r), eigenvalue r."""
    return -(r * np.eye(s) + np.eye(s, k=1)), np.eye(s)


def kron_n(s):
    """(Y, X) of the infinite block I + l*N_s."""
    return np.eye(s), np.eye(s, k=1)


def scrambled_pencil(blocks, seed):
    """The block-diagonal pencil of (Y, X) blocks, multiplied by seeded
    random orthogonal U on the left and V on the right."""
    rows = sum(y.shape[0] for y, _ in blocks)
    cols = sum(y.shape[1] for y, _ in blocks)
    y_all, x_all = np.zeros((rows, cols)), np.zeros((rows, cols))
    r = c = 0
    for y, x in blocks:
        h, w = y.shape
        y_all[r:r + h, c:c + w] = y
        x_all[r:r + h, c:c + w] = x
        r, c = r + h, c + w
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return MatPoly([u @ y_all @ v, u @ x_all @ v], FIELD_FLOAT)


KRONECKER_FORMS = [
    # zero and infinite eigenvalues next to both singular parts
    ([kron_l(0), kron_l(2), kron_lt(1), kron_j(2, 0.0), kron_n(2),
      kron_j(1, 1.5)], (0, 2), (1,)),
    # singular blocks only
    ([kron_l(1), kron_l(3), kron_lt(0), kron_lt(2)], (1, 3), (0, 2)),
    ([kron_j(3, 0.0), kron_l(1), kron_n(1), kron_lt(0), kron_j(2, -2.0)],
     (1,), (0,)),
    # zero eigenvalues of several sizes between equal right indices
    ([kron_l(2), kron_j(2, 0.0), kron_j(1, 0.0), kron_lt(2), kron_l(2),
      kron_n(3)], (2, 2), (2,)),
    # regular: no index on either side
    ([kron_j(2, 1.0), kron_n(1), kron_j(1, 0.0)], (), ()),
    # a wide and a tall pencil of one block each
    ([kron_l(4)], (4,), ()),
    ([kron_lt(3)], (), (3,)),
]


class TestPencilIndices:
    """pencil_indices on scrambled Kronecker forms."""

    @pytest.mark.parametrize("blocks,right,left", KRONECKER_FORMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kronecker_forms(self, blocks, right, left, seed):
        assert pencil_indices(scrambled_pencil(blocks, seed)) \
            == (right, left, True)

    @pytest.mark.parametrize("blocks,right,left", KRONECKER_FORMS)
    def test_indices_survive_every_scrambling(self, blocks, right, left):
        # the rounding of a scrambled form can put a zero singular value
        # of a late block within RANK_MARGIN of the cut (4 of 1,400
        # scramblings, seeds 0-199 of these forms); that flags the result,
        # but the indices themselves never move
        for seed in range(3, 40):
            assert pencil_indices(scrambled_pencil(blocks, seed))[:2] \
                == (right, left)

    def test_near_the_cut_is_not_clear(self):
        # Y = diag(1, t), X = diag(1, 0): t above the cut makes the pencil
        # regular (an infinite eigenvalue), t below it leaves one right
        # and one left index 0; the cut is the rule for the whole 2x4
        # [Y X]: 4 * sqrt(2) * eps * 8
        cut = 4 * math.sqrt(2.0) * np.finfo(float).eps * 8

        def at(t):
            return pencil_indices(MatPoly([np.diag([1.0, t]),
                                           np.diag([1.0, 0.0])],
                                          FIELD_FLOAT))
        assert at(1000 * cut) == ((), (), True)
        assert at(3 * cut) == ((), (), False)
        assert at(cut / 3) == ((0,), (0,), False)
        assert at(cut / 1000) == ((0,), (0,), True)


# forms of one shape, 5x6, whose first staircase steps decide apart: Y's
# nullity counts the L and zero-eigenvalue J blocks (2, 2, 4, 1), and X
# keeps null only the columns of L_0 blocks, the indices 0 (0, 1, 1, 0)
SAME_SHAPE_FORMS = [
    ([kron_l(2), kron_j(2, 0.0), kron_n(1)], (2,), ()),
    ([kron_l(0), kron_j(2, 1.0), kron_j(1, 0.0), kron_n(2)], (0,), ()),
    ([kron_l(1), kron_l(0), kron_lt(0), kron_j(2, 0.0), kron_j(1, 0.0)],
     (0, 1), (0,)),
    ([kron_l(4), kron_n(1)], (4,), ()),
]

# scramblings whose rounding leaves a zero singular value within
# RANK_MARGIN of the cut: (index into KRONECKER_FORMS, seed)
NEAR_CUT = [(0, 54), (0, 125), (1, 155), (2, 26)]


class TestStackedStaircase:
    """stack_indices against the one-pencil staircase of
    tests/staircase_oracle.py: equal indices and flags, pencil by pencil,
    whatever the stack mixes."""

    @staticmethod
    def stacked(pencils):
        got = stack_indices(np.stack([p.coeff(0) for p in pencils]),
                            np.stack([p.coeff(1) for p in pencils]))
        assert got == [oracle_pencil_indices(p) for p in pencils]
        return got

    def test_same_shape_forms_decide_apart(self):
        # the premise of the mixed stack below
        first = []
        for blocks, right, _ in SAME_SHAPE_FORMS:
            y = scrambled_pencil(blocks, 0).coeff(0)
            first.append((y.shape[1] - np.linalg.matrix_rank(y),
                          right.count(0)))
        assert first == [(2, 0), (2, 1), (4, 1), (1, 0)]

    def test_mixed_forms_split_at_both_decisions(self):
        pencils = [scrambled_pencil(blocks, seed) for seed in range(4)
                   for blocks, _, _ in SAME_SHAPE_FORMS]
        assert self.stacked(pencils) == [
            (right, left, True) for _ in range(4)
            for _, right, left in SAME_SHAPE_FORMS]

    def test_mixed_kronecker_forms_of_one_shape(self):
        # forms 1 and 2 of KRONECKER_FORMS are both 8x8
        pencils = [scrambled_pencil(KRONECKER_FORMS[f][0], seed)
                   for seed in range(3) for f in (1, 2, 1)]
        assert self.stacked(pencils) == [
            KRONECKER_FORMS[f][1:] + (True,)
            for _ in range(3) for f in (1, 2, 1)]

    @pytest.mark.parametrize("blocks,right,left", KRONECKER_FORMS[:4])
    def test_each_pencil_is_cut_at_its_own_scale(self, blocks, right, left):
        # the staircase is scale invariant; a cut taken from another
        # pencil's sigma_max would lose the small one's nonzero values
        base = scrambled_pencil(blocks, 0)
        pencils = [base.scale(1e14), base, base.scale(1e-14)]
        assert self.stacked(pencils) == [(right, left, True)] * 3

    @pytest.mark.parametrize("blocks,right,left", KRONECKER_FORMS)
    def test_stacks_of_one(self, blocks, right, left):
        for seed in range(3):
            pencil = scrambled_pencil(blocks, seed)
            assert self.stacked([pencil]) == [(right, left, True)]
            assert pencil_indices(pencil) == (right, left, True)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_pencils(self, rows, cols):
        # every column is a right index 0 and every row a left one
        pencil = MatPoly([np.zeros((rows, cols))] * 2, FIELD_FLOAT)
        want = ((0,) * cols, (0,) * rows, True)
        assert pencil_indices(pencil) == want
        assert self.stacked([pencil] * 3) == [want] * 3

    @pytest.mark.parametrize("form,seed", NEAR_CUT)
    def test_near_cut_stays_flagged(self, form, seed):
        blocks, right, left = KRONECKER_FORMS[form]
        near = scrambled_pencil(blocks, seed)
        assert pencil_indices(near) == (right, left, False)
        pencils = [scrambled_pencil(blocks, s) for s in (0, 1)]
        pencils[1:1] = [near]
        assert self.stacked(pencils) == [(right, left, True),
                                         (right, left, False),
                                         (right, left, True)]

    def test_near_cut_pencils_in_one_stack(self):
        # the two 8x8 near-cut scramblings next to clear ones of both forms
        pencils = [scrambled_pencil(KRONECKER_FORMS[f][0], seed)
                   for f, seed in ((1, 0), (1, 155), (2, 26), (2, 0))]
        assert [ok for *_, ok in self.stacked(pencils)] \
            == [True, False, False, True]
