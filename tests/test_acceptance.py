"""Acceptance gate: one test per shipped criterion, each printing a
single pass line with the measured quantity next to its budget."""

import io
import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.backward import (backward_constants, run_experiment,
                                sigma_min_tau, appendix_lambda_min,
                                summarize_experiment)
from matpencil.cases import case3_expected_lt, case3_member, case3_published_d
from matpencil.cli import main as cli_main
from matpencil.eigenstructure import (check_g_linearization,
                                      complete_eigenstructure, smith_form)
from matpencil.errors import PreconditionError
from matpencil.matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly,
                               lambda_vec)
from matpencil.minimal import (SIDE_LEFT, SIDE_RIGHT, minimal_basis,
                               project_ansatz)
from matpencil.qpoly import to_pm
from matpencil.reduction import full_z_rank, row_reduction, trim
from matpencil.spaces import (SIDE_L1, SIDE_L2, AnsatzPencil,
                              ansatz_residual, ansatz_target, build_l1,
                              build_l2, companion_g1, companion_g2,
                              shifted_sum)
from index_sum_oracle import index_sum_check
from lift_oracle import lift_left
from smith_oracle import oracle_diag
from space_oracle import space_dimension


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def product_residual(member: AnsatzPencil) -> MatPoly:
    """L(l) * (Lambda_k ⊗ I_n) - v ⊗ P(l) of a right-space member, by
    products with the monomial tower: the shifted sum's reference."""
    p = member.poly
    lhs = member.pencil.matmul(lambda_vec(p.grade, p.n, p.field))
    col = member.ansatz.reshape(-1, 1)
    return lhs - MatPoly([np.kron(col, c) for c in p.coeffs], p.field)


def int_poly(rng, m, n, k, lo=-4, hi=5):
    return MatPoly([xla.fmat(rng.integers(lo, hi, (m, n)).tolist())
                    for _ in range(k + 1)], FIELD_RATIONAL)


def planted_singular(rng, m, n, k):
    """m x n grade-k polynomial with a planted degree-one right
    nullvector, built as a full product through an annihilating row set."""
    while True:
        x0 = rng.integers(-3, 4, n)
        x1 = rng.integers(-3, 4, n)
        if (x0[0], x1[0]) == (0, 0):
            continue
        if np.linalg.matrix_rank(np.vstack([x0, x1]).astype(float)) < 2:
            continue
        k0 = xla.fzeros(n - 1, n)
        k1 = xla.fzeros(n - 1, n)
        for i in range(n - 1):
            k0[i, 0], k0[i, i + 1] = Fraction(int(x0[i + 1])), -Fraction(int(x0[0]))
            k1[i, 0], k1[i, i + 1] = Fraction(int(x1[i + 1])), -Fraction(int(x1[0]))
        kpoly = MatPoly([k0, k1], FIELD_RATIONAL)
        c = int_poly(rng, m, n - 1, k - 1, -3, 4)
        p = c.matmul(kpoly)
        if p.grade == k and not all(x == 0 for x in p.coeff(k).flat):
            return p


def test_criterion_1_example_reproduction():
    budget = 1.0
    times = []
    for i in ("1", "2", "3"):
        t0 = time.time()
        code, out = run_cli("examples", i)
        times.append(time.time() - t0)
        assert code == 0, out
        assert times[-1] < budget
    # bit-exact trimmed pencil, re-derived outside the CLI
    tr = trim(case3_member(), case3_published_d())
    assert tr.Lt.equal(case3_expected_lt())
    print(f"criterion 1 (example reproduction): PASS "
          f"(max {max(times):.3f}s < {budget}s each)")


def test_criterion_2_sigma_min_formula():
    # CPU time of this process: load on the host cannot fail the budget
    t0 = time.process_time()
    worst = 0.0
    for k in range(2, 13):
        for n in range(1, 5):
            for j in (k - 2, k - 1):
                formula, svd = sigma_min_tau(k, n, j)
                worst = max(worst, abs(formula - svd))
        s = 2.0 * math.sin(math.pi / (4 * k - 2))
        assert abs(s * s - appendix_lambda_min(k)) <= 1e-12
    elapsed = time.process_time() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 2 (smallest singular value formula): PASS "
          f"(worst gap {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s)")


def _generator_rank(p, side):
    k, m, n = p.grade, p.m, p.n
    if side == SIDE_L1:
        shape = (k * m, (k - 1) * n)
        build = lambda v, w: build_l1(p, v, w)
    else:
        shape = ((k - 1) * m, k * n)
        build = lambda v, w: build_l2(p, v, w)

    def flat(member):
        pen = member.pencil
        return ([x for row in pen.X for x in row]
                + [y for row in pen.Y for y in row])

    gens = []
    zero_w = xla.fzeros(*shape)
    for i in range(k):
        v = xla.fzeros(k, 1)[:, 0]
        v[i] = Fraction(1)
        gens.append(flat(build(v, zero_w)))
    zero_v = xla.fzeros(k, 1)[:, 0]
    for r in range(shape[0]):
        for c in range(shape[1]):
            w = xla.fzeros(*shape)
            w[r, c] = Fraction(1)
            gens.append(flat(build(zero_v, w)))
    return xla.rank(xla.fmat(gens))


def test_criterion_3_space_dimension():
    rng = np.random.default_rng(33)
    for m, n, k in ((3, 2, 2), (2, 3, 3), (4, 3, 3)):
        p = int_poly(rng, m, n, k)
        want = k * (k - 1) * m * n + k
        assert space_dimension(m, n, k) == want
        assert _generator_rank(p, SIDE_L1) == want
        assert _generator_rank(p, SIDE_L2) == want
    print("criterion 3 (ansatz space dimension): PASS "
          "(generator rank k(k-1)mn+k at all three sizes, both spaces)")


def test_criterion_4_index_shift_laws():
    t0 = time.time()
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 50:
        k = 2 + checked % 2
        tall = (checked // 2) % 2 == 0
        m, n = (3, 2) if tall else (2, 3)
        p = planted_singular(rng, max(m, n), min(m, n), k)
        if not tall:
            p = p.transpose()
        pr = minimal_basis(p, SIDE_RIGHT).indices
        pl = minimal_basis(p, SIDE_LEFT).indices
        member = companion_g1(p) if tall else companion_g2(p)
        lmat = member.pencil
        lr = minimal_basis(lmat, SIDE_RIGHT).indices
        ll = minimal_basis(lmat, SIDE_LEFT).indices
        tr = trim(member)
        tmat = tr.Lt
        tr_r = minimal_basis(tmat, SIDE_RIGHT).indices
        tr_l = minimal_basis(tmat, SIDE_LEFT).indices
        c = (k - 1) * abs(m - n)
        if tall:
            assert lr == tuple(e + k - 1 for e in pr)
            assert ll == tuple(sorted(pl + (0,) * c))
            assert tr_r == tuple(e + k - 1 for e in pr)
            assert tr_l == pl
        else:
            assert ll == tuple(e + k - 1 for e in pl)
            assert lr == tuple(sorted(pr + (0,) * c))
            assert tr_l == tuple(e + k - 1 for e in pl)
            assert tr_r == pr
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 4 (index shift laws): PASS "
          f"(50 planted singular cases, exact, {elapsed:.1f}s < 60s)")


def test_criterion_5_genericity():
    rng = np.random.default_rng(55)
    p = int_poly(rng, 3, 2, 2)
    pf = p.to_float()
    full = []
    for _ in range(1000):
        v = rng.standard_normal(2)
        w = rng.standard_normal((6, 2))
        if full_z_rank(build_l1(pf, v, w)):
            full.append((v, w))
    assert len(full) >= 990
    scale = 64
    step = max(1, len(full) // 20)
    verified = 0
    for v, w in full[::step][:20]:
        vq = xla.fvec([Fraction(round(x * scale), scale) for x in v])
        wq = xla.fmat([[Fraction(round(x * scale), scale) for x in row]
                       for row in w])
        member = build_l1(p, vq, wq)
        assert full_z_rank(member)
        assert check_g_linearization(member, p, strong=True).ok
        verified += 1
    assert verified == 20
    print(f"criterion 5 (genericity): PASS "
          f"({len(full)}/1000 full Z rank >= 990, 20 Smith-verified strong)")


def test_criterion_6_z_rank_invariance():
    rng = np.random.default_rng(66)
    for t in range(100):
        k = 2 + t % 2
        p = int_poly(rng, 3, 2, k)
        v = rng.integers(-3, 4, k)
        if not v.any():
            v[0] = 1
        w = xla.fmat(rng.integers(-4, 5, (k * 3, (k - 1) * 2)).tolist())
        member = build_l1(p, xla.fvec(v.tolist()), w)
        m1, a1 = FIELD_RATIONAL.reflector(member.ansatz)
        r1 = xla.rank(row_reduction(member, m1, a1).Z)
        # independent admissible update: e1-line preserving factor on top
        beta = Fraction(int(rng.integers(1, 4)))
        u = xla.fzeros(k, k)
        u[0, 0] = beta
        for j in range(1, k):
            u[0, j] = Fraction(int(rng.integers(-3, 4)))
        while True:
            block = xla.fmat(rng.integers(-3, 4, (k - 1, k - 1)).tolist())
            if xla.rank(block) == k - 1:
                break
        u[1:, 1:] = block
        m2 = u @ m1
        r2 = xla.rank(row_reduction(member, m2, a1 * beta).Z)
        assert r1 == r2
    print("criterion 6 (Z rank invariance): PASS "
          "(100 members, two admissible updates each, exact equality)")


def test_criterion_7_backward_error_bound():
    t0 = time.time()
    rng = np.random.default_rng(77)
    for m, n, k in ((3, 2, 2), (4, 2, 3)):
        p = MatPoly([rng.standard_normal((m, n)) for _ in range(k + 1)],
                    FIELD_FLOAT)
        tr = trim(companion_g1(p))
        for eps in (0.1, 0.5, 0.9):
            reports = run_experiment(p, tr, eps, 100, 7)
            for r in reports:
                assert r.ratio <= r.constant_full
                if r.conclusive:
                    assert r.indices_preserved
            summary = summarize_experiment(reports)
            assert summary["bound_violations"] == 0
    # optimally scaled companion member: constant near its closed form
    for m, n, k in ((3, 2, 2), (4, 2, 3)):
        p = MatPoly([rng.standard_normal((m, n)) for _ in range(k + 1)],
                    FIELD_FLOAT)
        alpha = 1.0 / p.frob_norm()
        comp = companion_g1(p.scale(alpha))
        w = -comp.pencil.X[:, n:]
        v = np.zeros(k)
        v[0] = alpha
        tr = trim(build_l1(p, v, w))
        _, c_full = backward_constants(tr, p)
        target = (3 + 2 * k) * math.sqrt(1 + 2 * (k - 1) * n)
        assert target / 2 <= c_full <= 2 * target
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"criterion 7 (backward error bound): PASS "
          f"(600 trials all within the constant, scaled companion within "
          f"2x of closed form, {elapsed:.1f}s < 300s)")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)

    def rand_member(side):
        k = int(rng.integers(2, 4))
        p = int_poly(rng, 3, 2, k)
        v = rng.integers(-3, 4, k)
        if not v.any():
            v[0] = 1
        if side == SIDE_L1:
            w = xla.fmat(rng.integers(-4, 5, (3 * k, (k - 1) * 2)).tolist())
            return build_l1(p, xla.fvec(v.tolist()), w)
        w = xla.fmat(rng.integers(-4, 5, ((k - 1) * 3, 2 * k)).tolist())
        return build_l2(p, xla.fvec(v.tolist()), w)

    # ansatz identity and shifted-sum equivalence
    for t in range(20):
        member = rand_member(SIDE_L1 if t % 2 == 0 else SIDE_L2)
        assert ansatz_residual(member).is_zero()
        if member.side == SIDE_L1:
            p = member.poly
            got = shifted_sum(member.pencil.X, member.pencil.Y, p.n)
            assert np.array_equal(got, ansatz_target(p, member.ansatz))
            assert product_residual(member).is_zero()
            x = member.pencil.X.copy()
            x[0, 0] = x[0, 0] + 1
            broken = AnsatzPencil(MatPoly.pencil(x, member.pencil.Y,
                                                 member.field),
                                  SIDE_L1, member.ansatz, p)
            assert not ansatz_residual(broken).is_zero()
            assert not product_residual(broken).is_zero()
            assert not np.array_equal(
                shifted_sum(x, member.pencil.Y, p.n),
                ansatz_target(p, member.ansatz))

    # lift then project is the identity, degrees kept
    done = 0
    while done < 10:
        p = planted_singular(rng, 3, 2, 2)
        v = rng.integers(-3, 4, 2)
        if not v.any():
            v[0] = 1
        w = xla.fmat(rng.integers(-4, 5, (6, 2)).tolist())
        member = build_l1(p, xla.fvec(v.tolist()), w)
        try:
            trim(member)
        except PreconditionError:
            continue
        for q in minimal_basis(p, SIDE_LEFT).vectors:
            y = lift_left(q, member)
            assert y.degree == q.degree
            assert project_ansatz(member.ansatz, y, p.m).equal(q)
        done += 1

    # Smith certificates
    for _ in range(10):
        p = int_poly(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 3)))
        sq = to_pm(smith_form(p)).to_list()
        live = [sq[i][i] for i in range(min(p.m, p.n)) if sq[i][i]]
        assert live == oracle_diag(p)
        for a, b in zip(live, live[1:]):
            assert not b.rem(a)

    # index sums on pencils
    for _ in range(15):
        p = int_poly(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1)
        es = complete_eigenstructure(p)
        assert index_sum_check(es)
    print("criterion 8 (property suites): PASS "
          "(identity, equivalence, lift/project, Smith certificates, "
          "index sums)")
