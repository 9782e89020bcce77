"""Backward-error bounds, dual completion, and the experiment driver."""

import dataclasses
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matpencil import backward
from matpencil import exactla as xla
from matpencil.backward import (
    PerturbReport,
    appendix_lambda_min,
    backward_constants,
    dual_completion,
    perturbed_polynomial,
    run_experiment,
    sigma_min_tau,
    summarize_experiment,
)
from matpencil.cases import case3_member, case3_poly
from matpencil.eigenstructure import complete_eigenstructure
from matpencil.errors import PreconditionError, SchemaError
from matpencil.matpoly import (
    FIELD_FLOAT,
    FIELD_RATIONAL,
    MatPoly,
    h_dual,
    lambda_vec,
)
from matpencil.minimal import walk_indices
from matpencil.reduction import trim
from matpencil.spaces import build_l1, companion_g1
from backward_oracle import (AppendixMatrices, minimality_margin,
                             optimality_check, reports_to_jsonl, t_hat)
from staircase_oracle import oracle_pencil_indices, pencil_indices


def scaled_companion_trim(rng, m, n, k):
    """Trim record of the companion of the normalized polynomial, seen as
    a member for the original one."""
    p = MatPoly([rng.standard_normal((m, n)) for _ in range(k + 1)],
                FIELD_FLOAT)
    alpha = 1.0 / p.frob_norm()
    comp = companion_g1(p.scale(alpha))
    w = -comp.pencil.X[:, n:]
    v = np.zeros(k)
    v[0] = alpha
    return p, trim(build_l1(p, v, w))


def shifted_row(rt, k, n):
    """The block row -rt (H kron I) as a float pencil."""
    tau = h_dual(k - 1, n, FIELD_FLOAT)
    return MatPoly([rt @ tau.coeff(0), rt @ tau.coeff(1)], FIELD_FLOAT).scale(-1.0)


class TestAppendixMatrices:
    def test_diagonal_builder(self):
        assert AppendixMatrices.d(3).tolist() == [[1, 0, 0], [0, 2, 0],
                                                  [0, 0, 1]]
        assert AppendixMatrices.d(1).tolist() == [[1]]

    def test_subdiagonal_builder(self):
        assert AppendixMatrices.l(3).tolist() == [[0, 0, 0], [-1, 0, 0],
                                                  [0, -1, 0]]

    def test_corner_matrices_symmetric(self):
        for j in range(1, 6):
            t = AppendixMatrices.t(j)
            th = t_hat(j)
            assert np.array_equal(t, t.T)
            assert np.array_equal(th, th.T)

    def test_flip_similarity(self):
        for j in range(2, 7):
            f = np.fliplr(np.eye(j))
            t = AppendixMatrices.t(j)
            assert np.array_equal(f @ t @ f, t_hat(j))

    def test_k3_corner_block(self):
        th = t_hat(2)
        assert th.tolist() == [[2, -1], [-1, 1]]
        lam = np.linalg.eigvalsh(th)[0]
        assert abs(lam - 0.3819660112501051) < 1e-12
        assert abs(lam - appendix_lambda_min(3)) < 1e-12

    def test_lambda_min_closed_form(self):
        for k in range(3, 9):
            lam = np.linalg.eigvalsh(t_hat(k - 1))[0]
            assert abs(lam - appendix_lambda_min(k)) < 1e-12

    def test_trig_identity(self):
        for k in range(2, 41):
            s = 2.0 * math.sin(math.pi / (4 * k - 2))
            assert abs(s * s - appendix_lambda_min(k)) < 1e-12

    def test_size_validation(self):
        with pytest.raises(PreconditionError):
            AppendixMatrices.d(0)
        with pytest.raises(PreconditionError):
            appendix_lambda_min(1)


class TestSigmaMinTau:
    def test_k2_exact_value(self):
        f, c = sigma_min_tau(2, 1, 1)
        assert abs(f - 1.0) < 1e-15
        assert abs(c - 1.0) < 1e-12

    def test_k3_value_and_lower_bound(self):
        f, c = sigma_min_tau(3, 2, 2)
        assert abs(f - 0.618034) < 1e-6
        assert f >= 0.5
        assert abs(f - c) < 1e-10

    def test_formula_matches_svd(self):
        for k in range(2, 7):
            for n in (1, 3):
                for j in (k - 2, k - 1):
                    f, c = sigma_min_tau(k, n, j)
                    assert abs(f - c) < 1e-10

    def test_lower_bound_scan(self):
        for k in range(2, 13):
            f, _ = sigma_min_tau(k, 1, k - 1)
            assert f >= 3.0 / (2 * k)

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            sigma_min_tau(1, 1, 0)
        with pytest.raises(PreconditionError):
            sigma_min_tau(3, 1, 0)
        with pytest.raises(PreconditionError):
            sigma_min_tau(3, 0, 1)


class TestMinimalityMargin:
    def test_unperturbed_row_minimal(self):
        tr = trim(case3_member())
        ok, margin = minimality_margin(tr.b_block(), tr.Rt)
        assert ok
        assert margin == pytest.approx(
            3.0 * np.linalg.svd(xla.to_float(tr.Rt),
                                compute_uv=False)[-1] / (2 * tr.k ** 1.5))

    def test_perturbed_inside_margin_stays_minimal(self):
        rng = np.random.default_rng(5)
        k, n = 3, 2
        rt = np.eye((k - 1) * n) + 0.1 * rng.standard_normal(((k - 1) * n,
                                                              (k - 1) * n))
        b = shifted_row(rt, k, n)
        _, margin = minimality_margin(b, rt)
        for _ in range(5):
            dx = rng.standard_normal(((k - 1) * n, k * n))
            dy = rng.standard_normal(((k - 1) * n, k * n))
            s = 0.9 * margin / math.sqrt(np.sum(dx * dx) + np.sum(dy * dy))
            db = MatPoly([dy * s, dx * s], FIELD_FLOAT)
            ok, _ = minimality_margin(b + db, rt)
            assert ok

    def test_rank_collapse_detected(self):
        rng = np.random.default_rng(6)
        k, n = 2, 2
        rt = rng.standard_normal(((k - 1) * n, (k - 1) * n))
        u, s, vh = np.linalg.svd(rt)
        rt_def = rt - s[-1] * np.outer(u[:, -1], vh[-1])
        b_def = shifted_row(rt_def, k, n)
        db = b_def - shifted_row(rt, k, n)
        assert db.frob_norm() == pytest.approx(s[-1] * math.sqrt(k))
        ok, _ = minimality_margin(b_def, rt)
        assert not ok

    def test_shape_validation(self):
        with pytest.raises(SchemaError):
            minimality_margin(MatPoly.zero(2, 2, 1, FIELD_FLOAT),
                              np.eye(2))


class TestDualCompletion:
    def test_zero_perturbation_exact(self):
        tr = trim(case3_member())
        dd = dual_completion(tr.b_block(), tr.k, tr.n)
        assert dd.is_zero()
        assert dd.field == FIELD_RATIONAL

    def test_random_half_radius(self):
        rng = np.random.default_rng(9)
        k, n = 3, 2
        rt = np.eye((k - 1) * n) + 0.2 * rng.standard_normal(((k - 1) * n,
                                                              (k - 1) * n))
        b = shifted_row(rt, k, n)
        sig = np.linalg.svd(rt, compute_uv=False)[-1]
        radius = sig / (2 * k ** 1.5)
        dx = rng.standard_normal(((k - 1) * n, k * n))
        dy = rng.standard_normal(((k - 1) * n, k * n))
        s = 0.5 * radius / math.sqrt(np.sum(dx * dx) + np.sum(dy * dy))
        db = MatPoly([dy * s, dx * s], FIELD_FLOAT)
        dd = dual_completion(b + db, k, n, sig_r=sig, delta_b=db)
        res = (b + db).matmul(lambda_vec(k, n, FIELD_FLOAT) + dd)
        assert res.frob_norm() <= 1e-10
        assert dd.frob_norm() <= k * math.sqrt(2) / sig * db.frob_norm()

    def test_bound_tightness_scan(self):
        rng = np.random.default_rng(10)
        k, n = 2, 1
        hits = 0
        for _ in range(100):
            rt = np.eye(k - 1 if (k - 1) * n else 1)
            rt = rng.standard_normal(((k - 1) * n, (k - 1) * n))
            sig = np.linalg.svd(rt, compute_uv=False)[-1]
            if sig < 1e-3:
                continue
            b = shifted_row(rt, k, n)
            radius = sig / (2 * k ** 1.5)
            dx = rng.standard_normal(((k - 1) * n, k * n))
            dy = rng.standard_normal(((k - 1) * n, k * n))
            s = 0.8 * radius / math.sqrt(np.sum(dx * dx) + np.sum(dy * dy))
            db = MatPoly([dy * s, dx * s], FIELD_FLOAT)
            dd = dual_completion(b + db, k, n, sig_r=sig, delta_b=db)
            assert dd.frob_norm() <= k * math.sqrt(2) / sig * db.frob_norm()
            hits += 1
        assert hits >= 90

    def test_exact_rational_path(self):
        tr = trim(case3_member())
        k, n = tr.k, tr.n
        db = MatPoly.zero((k - 1) * n, k * n, 1, FIELD_RATIONAL)
        db.coeffs[0][0, 0] = Fraction(1, 100)
        db.coeffs[1][1, 2] = Fraction(-1, 200)
        dd = dual_completion(tr.b_block() + db, k, n,
                             sig_r=backward._smin(tr.Rt), delta_b=db)
        assert dd.field == FIELD_RATIONAL
        res = (tr.b_block() + db).matmul(
            lambda_vec(k, n, FIELD_RATIONAL) + dd)
        assert res.is_zero()

    def test_one_sigma_min_of_rt_per_call(self, monkeypatch):
        """run_experiment takes the sigma_min of Rt once per call and
        hands it to every trial's dual_completion, which takes none."""
        p = case3_poly().to_float()
        tr = trim(companion_g1(p))
        k, n = tr.k, tr.n
        db = MatPoly.zero((k - 1) * n, k * n, 1, FIELD_FLOAT)
        db.coeffs[0][0, 0] = 1e-3
        real = backward._smin
        sig_r = real(tr.Rt)
        seen = []

        def counted(a):
            seen.append(a)
            return real(a)

        monkeypatch.setattr(backward, "_smin", counted)
        dual_completion(tr.b_block() + db, k, n, sig_r=sig_r, delta_b=db)
        assert seen == []
        counts = []
        for trials in (1, 4):
            seen.clear()
            run_experiment(p, tr, eps_fraction=0.5, trials=trials, seed=0)
            counts.append(len(seen))
        assert counts[0] == counts[1]

    def test_radius_precondition(self):
        rng = np.random.default_rng(11)
        k, n = 2, 2
        rt = np.eye((k - 1) * n)
        b = shifted_row(rt, k, n)
        dx = rng.standard_normal(((k - 1) * n, k * n))
        db = MatPoly([dx, dx], FIELD_FLOAT)
        with pytest.raises(PreconditionError):
            dual_completion(b + db, k, n, sig_r=1.0, delta_b=db)

    def test_shape_validation(self):
        with pytest.raises(SchemaError):
            dual_completion(MatPoly.zero(2, 4, 1, FIELD_FLOAT), 3, 2)


class TestPerturbedPolynomial:
    def test_all_zero(self):
        tr = trim(case3_member())
        a = tr.a_block()
        da = MatPoly.zero(a.m, a.n, 1, FIELD_RATIONAL)
        dd = MatPoly.zero(tr.k * tr.n, tr.n, tr.k - 1, FIELD_RATIONAL)
        assert perturbed_polynomial(a, da, dd, tr.alpha).is_zero()

    def test_zero_dual_norm_bound(self):
        rng = np.random.default_rng(13)
        m, n, k = 3, 2, 2
        a = MatPoly([rng.standard_normal((m, k * n)) for _ in range(2)],
                    FIELD_FLOAT)
        da = MatPoly([rng.standard_normal((m, k * n)) for _ in range(2)],
                     FIELD_FLOAT)
        dd = MatPoly.zero(k * n, n, k - 1, FIELD_FLOAT)
        alpha = 0.7
        dp = perturbed_polynomial(a, da, dd, alpha)
        expected = da.matmul(lambda_vec(k, n, FIELD_FLOAT)).scale(1 / alpha)
        assert (dp - expected).frob_norm() < 1e-12
        assert dp.frob_norm() <= math.sqrt(2) / alpha * da.frob_norm()

    def test_matches_manual_expansion(self):
        # 1x2 strip, k=2, n=1: expand the defining products by hand
        a = MatPoly([xla.fmat([[1, 2]]), xla.fmat([[3, 4]])],
                    FIELD_RATIONAL)
        da = MatPoly([xla.fmat([[5, -1]]), xla.fmat([[0, 2]])],
                     FIELD_RATIONAL)
        dd = MatPoly([xla.fmat([[7], [8]]), xla.fmat([[-2], [1]])],
                     FIELD_RATIONAL)
        alpha = Fraction(3)
        got = perturbed_polynomial(a, da, dd, alpha)
        s = a + da
        lam_plus = MatPoly([xla.fmat([[0], [1]]), xla.fmat([[1], [0]])],
                           FIELD_RATIONAL) + dd
        manual = (s.matmul(lam_plus) - a.matmul(
            MatPoly([xla.fmat([[0], [1]]), xla.fmat([[1], [0]])],
                    FIELD_RATIONAL))).scale(Fraction(1, 3))
        assert got.equal(manual)

    def test_zero_scale_rejected(self):
        a = MatPoly.zero(1, 2, 1, FIELD_FLOAT)
        dd = MatPoly.zero(2, 1, 1, FIELD_FLOAT)
        with pytest.raises(PreconditionError):
            perturbed_polynomial(a, a, dd, 0.0)

    def test_shape_mismatch(self):
        a = MatPoly.zero(1, 2, 1, FIELD_FLOAT)
        da = MatPoly.zero(2, 2, 1, FIELD_FLOAT)
        dd = MatPoly.zero(2, 1, 1, FIELD_FLOAT)
        with pytest.raises(SchemaError):
            perturbed_polynomial(a, da, dd, 1.0)
        with pytest.raises(SchemaError):
            perturbed_polynomial(a, a, None, 1.0)


class TestBackwardConstants:
    def test_case3_formula(self):
        tr = trim(case3_member())
        c_hat, c_full = backward_constants(tr, case3_poly())
        sig = np.linalg.svd(xla.to_float(tr.Rt), compute_uv=False)[-1]
        manual = (tr.Lt_hat.frob_norm() / case3_poly().frob_norm()
                  / abs(float(tr.alpha))) * (
            3.0 + 2.0 * tr.k * tr.a_block().frob_norm() / sig)
        assert c_hat == pytest.approx(manual)
        # default reduction keeps the row compression orthonormal
        assert c_full == pytest.approx(c_hat)

    def test_scaled_companion_closed_form(self):
        rng = np.random.default_rng(14)
        for m, n, k in ((3, 2, 2), (4, 3, 3)):
            p, tr = scaled_companion_trim(rng, m, n, k)
            _, c_full = backward_constants(tr, p)
            target = (3 + 2 * k) * math.sqrt(1 + 2 * (k - 1) * n)
            assert c_full == pytest.approx(target, rel=1e-9)

    def test_size_mismatch(self):
        tr = trim(case3_member())
        with pytest.raises(SchemaError):
            backward_constants(tr, case3_poly().transpose())


class TestPerturbReport:
    def build(self):
        return PerturbReport(epsilon=0.01, bound_rhs=0.1, delta_P_norm=0.2,
                             ratio=1.5, constant_hat=3.0, constant_full=6.0,
                             kappa_dtilde=1.0, kappa_rtilde=2.0,
                             sigma_min_rtilde=0.5, indices_preserved=True)

    def test_json_round_trip(self):
        r = self.build()
        assert PerturbReport.from_json_dict(r.to_json_dict()) == r

    def test_missing_key(self):
        d = self.build().to_json_dict()
        del d["ratio"]
        with pytest.raises(SchemaError):
            PerturbReport.from_json_dict(d)

    def test_bound_holds_logic(self):
        r = self.build()
        assert r.bound_holds()
        bad = dataclasses.replace(r, ratio=10.0)
        assert not bad.bound_holds()
        outside = dataclasses.replace(r, ratio=10.0, epsilon=0.2)
        assert outside.bound_holds()

    def test_jsonl_rendering(self):
        rs = [self.build(), self.build()]
        lines = reports_to_jsonl(rs).strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "perturb_report"


class TestRunExperiment:
    def test_case3_bounds_hold(self):
        tr = trim(case3_member())
        reps = run_experiment(case3_poly(), tr, 0.5, 10, 42)
        assert len(reps) == 10
        for r in reps:
            assert r.epsilon < r.bound_rhs
            assert r.bound_holds()
            assert r.indices_preserved
            assert r.conclusive

    def test_deterministic(self):
        tr = trim(case3_member())
        a = run_experiment(case3_poly(), tr, 0.3, 4, 7)
        b = run_experiment(case3_poly(), tr, 0.3, 4, 7)
        assert reports_to_jsonl(a) == reports_to_jsonl(b)
        c = run_experiment(case3_poly(), tr, 0.3, 4, 8)
        assert reports_to_jsonl(a) != reports_to_jsonl(c)

    def test_small_epsilon_limit(self):
        tr = trim(case3_member())
        reps = run_experiment(case3_poly(), tr, 1e-9, 2, 1)
        for r in reps:
            assert math.isfinite(r.ratio)
            assert r.ratio <= r.constant_full

    def test_perturbation_near_the_rank_cut_is_inconclusive(self):
        # at 1e-9 of the radius the perturbation lifts zero singular values
        # of the convolution matrices to within a factor ten of the cut
        tr = trim(case3_member())
        reps = run_experiment(case3_poly(), tr, 1e-9, 4, 0)
        assert [r.conclusive for r in reps] == [False] * 4
        assert summarize_experiment(reps)["inconclusive"] == 4

    def test_l2_record_transposed_internally(self):
        trl2 = trim(case3_member().transpose())
        reps = run_experiment(case3_poly().transpose(), trl2, 0.4, 3, 2)
        assert all(r.bound_holds() and r.indices_preserved for r in reps)

    def test_argument_validation(self):
        tr = trim(case3_member())
        with pytest.raises(PreconditionError):
            run_experiment(case3_poly(), tr, 0.0, 1, 0)
        with pytest.raises(PreconditionError):
            run_experiment(case3_poly(), tr, 1.0, 1, 0)
        with pytest.raises(PreconditionError):
            run_experiment(case3_poly(), tr, 0.5, 0, 0)
        with pytest.raises(SchemaError):
            run_experiment(case3_poly(), "trim", 0.5, 1, 0)

    def test_foreign_polynomial_rejected(self):
        tr = trim(case3_member())
        other = case3_poly().scale(2)
        with pytest.raises(SchemaError):
            run_experiment(other, tr, 0.5, 1, 0)

    def test_summary(self):
        tr = trim(case3_member())
        reps = run_experiment(case3_poly(), tr, 0.5, 5, 42)
        s = summarize_experiment(reps)
        assert s["trials"] == 5
        assert s["bound_violations"] == 0
        assert s["all_indices_preserved"]
        assert s["inconclusive"] == 0
        assert s["max_ratio"] <= s["constant_full"]


class TestOptimalityCheck:
    def test_scaled_companion_passes(self):
        rng = np.random.default_rng(15)
        p, tr = scaled_companion_trim(rng, 3, 2, 2)
        rep = optimality_check(tr, p)
        assert rep["all_pass"]
        assert rep["recommendation"] == ""
        assert len(rep["conditions"]) == 4

    def test_bad_conditioning_flagged(self):
        rng = np.random.default_rng(16)
        p, tr = scaled_companion_trim(rng, 3, 2, 2)
        bad = dataclasses.replace(tr, Rt=np.diag([1.0, 1e6]))
        rep = optimality_check(bad, p)
        assert not rep["all_pass"]
        names = [c["name"] for c in rep["conditions"] if not c["passes"]]
        assert "triangular_factor_conditioning" in names
        assert rep["recommendation"] != ""

    def test_report_emitted_for_unscaled_trim(self):
        rep = optimality_check(trim(case3_member()), case3_poly())
        assert rep["kind"] == "optimality_report"
        assert isinstance(rep["all_pass"], bool)


class TestRowSingularValueBound:
    def test_sigma_product_inequality(self):
        rng = np.random.default_rng(17)
        for k, n in ((2, 2), (3, 1), (3, 2)):
            tau = h_dual(k - 1, n, FIELD_FLOAT)
            for _ in range(7):
                rt = rng.standard_normal(((k - 1) * n, (k - 1) * n))
                b = shifted_row(rt, k, n)
                sig_r = np.linalg.svd(rt, compute_uv=False)[-1]
                for j in (k - 2, k - 1):
                    left = np.linalg.svd(b.conv_matrix(j),
                                         compute_uv=False)[-1]
                    right = sig_r * np.linalg.svd(tau.conv_matrix(j),
                                                  compute_uv=False)[-1]
                    assert left >= right - 1e-12


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_run_experiment(p, tr, eps_fraction, trials, seed):
    """run_experiment one trial at a time, each perturbed pencil through
    the one-pencil staircase of tests/staircase_oracle.py.  The package
    functions are read off the backward module when called, so a test
    that patches one patches both routes."""
    if not isinstance(tr, backward.TrimResult):
        raise SchemaError("expected a trimming record")
    if tr.side == backward.SIDE_L2:
        tr = tr.transpose()
        p = p.transpose()
    if not 0.0 < eps_fraction < 1.0:
        raise PreconditionError("perturbation fraction must sit strictly "
                                "inside the radius")
    if trials < 1:
        raise PreconditionError("need at least one trial")
    tr.check_source(p)
    k, m, n = tr.k, tr.m, tr.n
    pf = p.to_float()
    dt = backward._fmatrix(tr.Dtilde)
    rt = backward._fmatrix(tr.Rt)
    af = tr.a_block().to_float()
    bf = tr.b_block().to_float()
    ltf = tr.Lt.to_float()
    alpha = float(tr.alpha)
    sig_r = backward._smin(rt)
    bound = sig_r * backward._smin(dt) / (2.0 * k ** 1.5)
    lt_norm = ltf.frob_norm()
    p_norm = pf.frob_norm()
    c_hat, c_full = backward.backward_constants(tr, p)
    kappa_d = backward._cond2(dt)
    kappa_r = backward._cond2(rt)
    epsilon = eps_fraction * bound
    rows = m + (k - 1) * n
    reports = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        dx = rng.standard_normal((rows, k * n))
        dy = rng.standard_normal((rows, k * n))
        s = epsilon / math.sqrt(np.sum(dx * dx) + np.sum(dy * dy))
        dx *= s
        dy *= s
        ex = np.linalg.solve(dt, dx)
        ey = np.linalg.solve(dt, dy)
        da = MatPoly([ey[:m], ex[:m]], FIELD_FLOAT)
        db = MatPoly([ey[m:], ex[m:]], FIELD_FLOAT)
        dd = backward.dual_completion(bf + db, k, n, sig_r=sig_r,
                                      delta_b=db)
        dp = backward.perturbed_polynomial(af, da, dd, alpha)
        dpn = dp.frob_norm()
        ratio = (dpn / p_norm) / (epsilon / lt_norm)
        pp = pf + dp
        rp, lp_idx, ok_p = backward.walk_indices(pp, pp.normal_rank())
        perturbed_pencil = ltf + MatPoly([dy, dx], FIELD_FLOAT)
        rl, ll, ok_l = oracle_pencil_indices(perturbed_pencil)
        preserved = (rl == tuple(e + k - 1 for e in rp) and ll == lp_idx)
        reports.append(PerturbReport(
            epsilon=epsilon, bound_rhs=bound, delta_P_norm=dpn,
            ratio=ratio, constant_hat=c_hat, constant_full=c_full,
            kappa_dtilde=kappa_d, kappa_rtilde=kappa_r,
            sigma_min_rtilde=sig_r, indices_preserved=preserved,
            conclusive=ok_p and ok_l))
    return reports


def _backward_cases():
    """(P, trimming record of its L1 companion) for the four shapes of
    round 0 of the backward workload, seed 0."""
    out = []
    for case in _bench_workloads().make_round("backward", 0, 0):
        p = MatPoly.from_json_dict(case.files["P.json"])
        out.append(pytest.param(p, trim(companion_g1(p)), id=case.name))
    return out


class TestBlockedExperiment:
    """run_experiment runs its trials in blocks of TRIAL_BLOCK, one stacked
    staircase per block; its reports equal the trial-by-trial oracle's."""

    def test_block_size(self):
        # the trial counts 31, 32 and 33 below straddle a block boundary
        assert backward.TRIAL_BLOCK == 32

    @pytest.mark.parametrize("p,tr", _backward_cases())
    @pytest.mark.parametrize("trials", [1, 31, 32, 33, 100])
    def test_reports_equal_the_oracle(self, p, tr, trials):
        got = run_experiment(p, tr, 0.5, trials, 11)
        assert got == oracle_run_experiment(p, tr, 0.5, trials, 11)
        assert len(got) == trials

    @pytest.mark.parametrize("eps", [1e-11, 1e-9])
    def test_near_the_cut_matches_the_oracle(self, eps):
        # this close to the pencil most trials are inconclusive (see
        # TestRunExperiment); at 1e-11 the pencils of one block differ in
        # their indices, at 1e-9 the polynomial's flags vary: either way
        # the reports must come out trial for trial
        tr = trim(case3_member())
        got = run_experiment(case3_poly(), tr, eps, 40, 0)
        assert got == oracle_run_experiment(case3_poly(), tr, eps, 40, 0)
        assert {r.indices_preserved for r in got[:32]} == {True, False}

    def test_left_space_record_matches_the_oracle(self):
        trl2 = trim(case3_member().transpose())
        p = case3_poly().transpose()
        assert (run_experiment(p, trl2, 0.4, 33, 2)
                == oracle_run_experiment(p, trl2, 0.4, 33, 2))

    @pytest.mark.parametrize("args", [
        (0.0, 1), (1.0, 1), (0.5, 0), (0.5, -3)], ids=str)
    def test_same_argument_errors(self, args):
        tr = trim(case3_member())
        self._same_error(case3_poly(), tr, *args)

    def test_same_errors_on_bad_records(self):
        tr = trim(case3_member())
        self._same_error(case3_poly(), "trim", 0.5, 1)
        self._same_error(case3_poly().scale(2), tr, 0.5, 1)

    def test_same_error_from_inside_a_block(self, monkeypatch):
        # a failure at trial 40, the ninth trial of the second block,
        # surfaces with its class and message
        real = backward.dual_completion
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 41:
                raise backward.VerificationError(
                    "dual completion residual above tolerance")
            return real(*args, **kwargs)

        monkeypatch.setattr(backward, "dual_completion", failing)
        tr = trim(case3_member())
        self._same_error(case3_poly(), tr, 0.5, 100,
                         reset=calls.clear)

    @staticmethod
    def _same_error(p, tr, eps, trials, reset=lambda: None):
        errors = []
        for run in (run_experiment, oracle_run_experiment):
            reset()
            with pytest.raises(Exception) as info:
                run(p, tr, eps, trials, 0)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


class TestPencilIndexCrossCheck:
    """The staircase that reads the perturbed pencil's indices agrees with
    the convolution walk on float pencils and with exact `solve`."""

    @pytest.mark.parametrize("m,n,k", [(3, 2, 2), (4, 2, 3), (4, 3, 3),
                                       (5, 4, 3)])
    def test_matches_the_walk_on_perturbed_trims(self, m, n, k):
        rng = np.random.default_rng([m, n, k])
        p = MatPoly([rng.standard_normal((m, n)) for _ in range(k + 1)],
                    FIELD_FLOAT)
        lt = trim(companion_g1(p)).Lt
        for size in np.logspace(-12, -1, 20):
            d = [rng.standard_normal((lt.m, lt.n)) for _ in range(2)]
            s = size * lt.frob_norm() / math.sqrt(sum(np.sum(c * c)
                                                      for c in d))
            pencil = lt + MatPoly([c * s for c in d], FIELD_FLOAT)
            assert pencil_indices(pencil) == walk_indices(
                pencil, pencil.normal_rank())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_exact_solve_on_planted_polynomials(self, seed):
        cases = [c for c in _bench_workloads().make_round("recover", seed, 0)
                 if c.name.endswith("-planted")]
        assert [c.shape for c in cases] == [(4, 3, 2), (4, 3, 3), (4, 3, 3)]
        for case in cases:
            p = MatPoly.from_json_dict(case.files["P.json"])
            es = complete_eigenstructure(p)
            lt = trim(companion_g1(p)).Lt.to_float()
            # trimmed_L1: right indices shift by k - 1, left ones stay
            shifted = tuple(e + p.grade - 1 for e in es.right_indices)
            assert pencil_indices(lt) == (shifted, es.left_indices, True)
