"""Randomized invariants exercised on every build."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from matpencil import exactla as xla
from matpencil.eigenstructure import complete_eigenstructure, smith_form
from matpencil.errors import PreconditionError
from matpencil.matpoly import FIELD_RATIONAL, MatPoly, lambda_vec
from matpencil.minimal import SIDE_LEFT, minimal_basis, project_ansatz
from matpencil.qpoly import pm_det, to_pm
from matpencil.reduction import trim
from matpencil.spaces import (SIDE_L1, SIDE_L2, AnsatzPencil,
                              ansatz_residual, ansatz_target, build_l1,
                              build_l2, shifted_sum)
from index_sum_oracle import index_sum_check
from lift_oracle import lift_left
from smith_oracle import oracle_decomposition

ints = st.integers(min_value=-4, max_value=4)

COMMON = dict(deadline=None, max_examples=25)


def _matrix(draw, m, n):
    return xla.fmat([[draw(ints) for _ in range(n)] for _ in range(m)])


def product_residual(member: AnsatzPencil) -> MatPoly:
    """L(l) * (Lambda_k ⊗ I_n) - v ⊗ P(l) of a right-space member, by
    products with the monomial tower: the shifted sum's reference."""
    p = member.poly
    lhs = member.pencil.matmul(lambda_vec(p.grade, p.n, p.field))
    col = member.ansatz.reshape(-1, 1)
    return lhs - MatPoly([np.kron(col, c) for c in p.coeffs], p.field)


@st.composite
def polys(draw, m=None, n=None, k=None, max_dim=3, max_grade=2):
    m = m or draw(st.integers(1, max_dim))
    n = n or draw(st.integers(1, max_dim))
    k = k or draw(st.integers(1, max_grade))
    return MatPoly([_matrix(draw, m, n) for _ in range(k + 1)],
                   FIELD_RATIONAL)


@st.composite
def members(draw, side=SIDE_L1):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(2, 3))
    p = draw(polys(m=m, n=n, k=k))
    v = [draw(ints) for _ in range(k)]
    assume(any(v))
    if side == SIDE_L1:
        return build_l1(p, xla.fvec(v), _matrix(draw, k * m, (k - 1) * n))
    return build_l2(p, xla.fvec(v), _matrix(draw, (k - 1) * m, k * n))


class TestAnsatzIdentity:
    @settings(**COMMON)
    @given(members())
    def test_right_space_members(self, member):
        assert ansatz_residual(member).is_zero()

    @settings(**COMMON)
    @given(members(side=SIDE_L2))
    def test_left_space_members(self, member):
        assert ansatz_residual(member).is_zero()


class TestShiftedSumEquivalence:
    @settings(**COMMON)
    @given(members())
    def test_members_hit_the_target(self, member):
        p = member.poly
        got = shifted_sum(member.pencil.X, member.pencil.Y, "col",
                          (p.m, p.n))
        assert np.array_equal(got, ansatz_target(p, member.ansatz))
        assert product_residual(member).is_zero()

    @settings(**COMMON)
    @given(members(), st.integers(0, 10 ** 6))
    def test_perturbation_breaks_both_sides(self, member, cell):
        p = member.poly
        x = member.pencil.X.copy()
        i = cell % x.shape[0]
        j = (cell // x.shape[0]) % x.shape[1]
        x[i, j] = x[i, j] + 1
        broken = AnsatzPencil(MatPoly.pencil(x, member.pencil.Y, member.field),
                              member.side, member.ansatz, p)
        got = shifted_sum(x, member.pencil.Y, "col", (p.m, p.n))
        sum_matches = np.array_equal(got, ansatz_target(p, member.ansatz))
        residual_zero = ansatz_residual(broken).is_zero()
        product_zero = product_residual(broken).is_zero()
        assert not (sum_matches or residual_zero or product_zero)


@st.composite
def tall_trimmed_setups(draw):
    p = draw(polys(m=3, n=2, k=2))
    assume(not p.is_zero())
    v = [draw(ints) for _ in range(2)]
    assume(any(v))
    member = build_l1(p, xla.fvec(v), _matrix(draw, 6, 2))
    return p, member


class TestLiftProject:
    @settings(**COMMON)
    @given(tall_trimmed_setups())
    def test_round_trip_preserves_vector_and_degree(self, setup):
        p, member = setup
        try:
            tr = trim(member)
        except PreconditionError:
            assume(False)
        basis = minimal_basis(p, SIDE_LEFT)
        assume(basis.vectors)
        for q in basis.vectors:
            y = lift_left(q, member)
            assert y.degree == q.degree
            assert project_ansatz(tr.ansatz(), y, p.m).equal(q)


class TestSmithCertificates:
    @settings(**COMMON)
    @given(polys(max_dim=3, max_grade=2))
    def test_transformation_and_chain(self, p):
        """The oracle's unimodular U, V carry p to the Smith form that
        smith_form assembles from the eigenstructure, up to units."""
        s = smith_form(p)
        sq = to_pm(s).to_list()
        if not p.is_zero():
            so, uq, vq = oracle_decomposition(p)
            assert (uq * to_pm(p) * vq).to_list() == so.to_list()
            assert pm_det(uq).degree() == 0
            assert pm_det(vq).degree() == 0
            so = so.to_list()
            assert [sq[t][t] for t in range(min(p.m, p.n))] == \
                [so[t][t].monic() if so[t][t] else so[t][t]
                 for t in range(min(p.m, p.n))]
        for i in range(p.m):
            for j in range(p.n):
                if i != j:
                    assert not sq[i][j]
        diag = [sq[i][i] for i in range(min(p.m, p.n))]
        live = [d for d in diag if d]
        for d in live:
            assert d.LC == 1
        for a, b in zip(live, live[1:]):
            assert not b.rem(a)


class TestIndexSums:
    @settings(**COMMON)
    @given(polys(k=1, max_dim=3))
    def test_pencils_balance(self, p):
        es = complete_eigenstructure(p)
        assert index_sum_check(es)
        assert es.nrank == p.normal_rank()
