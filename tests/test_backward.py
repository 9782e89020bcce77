"""Backward-error bounds, dual completion, and the experiment driver."""

import dataclasses
import importlib.util
import json
import math
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
from matpencil.field import FloatField
from matpencil.matpoly import (
    FIELD_FLOAT,
    MatPoly,
    h_dual,
    lambda_vec,
)
from matpencil.minimal import walk_indices
from matpencil.reduction import _stack_over, trim
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


def stack(*polys):
    """Float64 matrix polynomials of one shape and grade as a stack."""
    return np.stack([np.stack(p.to_float().coeffs) for p in polys])


def poly(c):
    """One polynomial of a stack, as a MatPoly."""
    return MatPoly(list(c), FIELD_FLOAT)


class TestDualCompletion:
    def test_zero_perturbation_exact(self):
        # the unperturbed row annihilates Lambda exactly: every product
        # cancels in floating point too, and the correction is zero
        tr = trim(case3_member())
        b = stack(tr.b_block())
        dd = dual_completion(b, tr.k, tr.n, sig_r=backward._smin(tr.Rt),
                             delta_b=np.zeros_like(b))
        assert dd.shape == (1, tr.k, tr.k * tr.n, tr.n)
        assert not np.any(dd)

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
        dd = poly(dual_completion(stack(b + db), k, n, sig_r=sig,
                                  delta_b=stack(db))[0])
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
            dd = poly(dual_completion(stack(b + db), k, n, sig_r=sig,
                                      delta_b=stack(db))[0])
            assert dd.frob_norm() <= k * math.sqrt(2) / sig * db.frob_norm()
            hits += 1
        assert hits >= 90

    def test_case3_row_with_dyadic_perturbation(self):
        # case 3's exact row, moved by two dyadic entries, in float64
        tr = trim(case3_member())
        k, n = tr.k, tr.n
        db = MatPoly.zero((k - 1) * n, k * n, 1, FIELD_FLOAT)
        db.coeffs[0][0, 0] = 1 / 128
        db.coeffs[1][1, 2] = -1 / 256
        bp = tr.b_block().to_float() + db
        dd = poly(dual_completion(stack(bp), k, n,
                                  sig_r=backward._smin(tr.Rt),
                                  delta_b=stack(db))[0])
        assert dd.frob_norm() > 0
        res = bp.matmul(lambda_vec(k, n, FIELD_FLOAT) + dd)
        assert FIELD_FLOAT.negligible(res, bp, dd)

    def test_one_sigma_min_of_rt_per_call(self, monkeypatch):
        """run_experiment takes the sigma_min of Rt once per call and
        hands it to every block's dual_completion, which takes none."""
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
        dual_completion(stack(tr.b_block() + db), k, n, sig_r=sig_r,
                        delta_b=stack(db))
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
            dual_completion(stack(b + db), k, n, sig_r=1.0,
                            delta_b=stack(db))

    def test_shape_validation(self):
        with pytest.raises(SchemaError):
            b = stack(MatPoly.zero(2, 4, 1, FIELD_FLOAT))
            dual_completion(b, 3, 2, sig_r=1.0, delta_b=b)


class TestPerturbedPolynomial:
    def test_all_zero(self):
        tr = trim(case3_member())
        a = stack(tr.top)[0]
        da = np.zeros((1, *a.shape))
        dd = np.zeros((1, tr.k, tr.k * tr.n, tr.n))
        dp = perturbed_polynomial(a, da, dd, float(tr.alpha))
        assert dp.shape == (1, tr.k + 1, tr.m, tr.n)
        assert not np.any(dp)

    def test_zero_dual_norm_bound(self):
        rng = np.random.default_rng(13)
        m, n, k = 3, 2, 2
        a = MatPoly([rng.standard_normal((m, k * n)) for _ in range(2)],
                    FIELD_FLOAT)
        da = MatPoly([rng.standard_normal((m, k * n)) for _ in range(2)],
                     FIELD_FLOAT)
        dd = MatPoly.zero(k * n, n, k - 1, FIELD_FLOAT)
        alpha = 0.7
        dp = poly(perturbed_polynomial(stack(a)[0], stack(da), stack(dd),
                                       alpha)[0])
        expected = da.matmul(lambda_vec(k, n, FIELD_FLOAT)).scale(1 / alpha)
        assert (dp - expected).frob_norm() < 1e-12
        assert dp.frob_norm() <= math.sqrt(2) / alpha * da.frob_norm()

    def test_matches_manual_expansion(self):
        # 1x2 strip, k=2, n=1: expand the defining products by hand; the
        # integer sums are exact in float64, so the bits match
        a = MatPoly([[[1, 2]], [[3, 4]]], FIELD_FLOAT)
        da = MatPoly([[[5, -1]], [[0, 2]]], FIELD_FLOAT)
        dd = MatPoly([[[7], [8]], [[-2], [1]]], FIELD_FLOAT)
        got = perturbed_polynomial(stack(a)[0], stack(da), stack(dd), 3.0)
        lam = MatPoly([[[0], [1]], [[1], [0]]], FIELD_FLOAT)
        manual = ((a + da).matmul(lam + dd)
                  - a.matmul(lam)).scale(1.0 / 3.0)
        assert got.tobytes() == stack(manual).tobytes()

    def test_zero_scale_rejected(self):
        a = np.zeros((2, 1, 2))
        dd = np.zeros((1, 2, 2, 1))
        with pytest.raises(PreconditionError):
            perturbed_polynomial(a, a[None], dd, 0.0)


def _bits(c):
    """The shape and bytes of a float64 array."""
    return c.shape, np.ascontiguousarray(c).tobytes()


def _same_slices(stack, stacks):
    """Each slice of stack has the bits of the matching stack of one."""
    assert len(stack) == len(stacks)
    for c, one in zip(stack, stacks):
        assert one.shape[0] == 1
        assert _bits(c) == _bits(one[0])


def _float_rows(b):
    """The strip, base block row, sigma_min of Rt and b strip and row
    perturbations at half the radius, of a 4x3 k=3 scaled companion."""
    rng = np.random.default_rng(21)
    p, tr = scaled_companion_trim(rng, 4, 3, 3)
    bf, sig = tr.b_block(), backward._smin(tr.Rt)
    radius = sig / (2 * tr.k ** 1.5)
    das, dbs = [], []
    for _ in range(b):
        db = [rng.standard_normal((bf.m, bf.n)) for _ in range(2)]
        s = 0.5 * radius / math.sqrt(sum(np.sum(c * c) for c in db))
        dbs.append(MatPoly([c * s for c in db], FIELD_FLOAT))
        das.append(MatPoly([rng.standard_normal((tr.m, bf.n))
                            for _ in range(2)], FIELD_FLOAT))
    return tr, bf, sig, das, dbs


def _rational_rows(b):
    """As _float_rows, on case 3's exact (rational) trim in float64, with
    a few entries per perturbation that are small rationals rounded to
    float64."""
    rng = np.random.default_rng(22)
    tr = trim(case3_member())
    bf = tr.b_block().to_float()

    def sparse(m, n, denominator):
        out = MatPoly.zero(m, n, 1, FIELD_FLOAT)
        for c in out.coeffs:
            i, j = rng.integers(0, m), rng.integers(0, n)
            c[i, j] = int(rng.integers(-3, 4)) / denominator
        return out

    das = [sparse(tr.m, bf.n, 7) for _ in range(b)]
    dbs = [sparse(bf.m, bf.n, 400) for _ in range(b)]
    return tr, bf, backward._smin(tr.Rt), das, dbs


class TestStackOfOne:
    """On a stack of b rows, the dual completion and the perturbed
    polynomial give each slice the bits of the stack of one holding it:
    run_experiment's rerun of a failing block rests on this."""

    @pytest.mark.parametrize("rows", [_float_rows, _rational_rows])
    @pytest.mark.parametrize("b", [1, 2, 33])
    def test_slices_equal_the_one_trial_calls(self, rows, b):
        tr, bf, sig, das, dbs = rows(b)
        k, n = tr.k, tr.n
        one = [dual_completion(stack(bf + db), k, n, sig_r=sig,
                               delta_b=stack(db)) for db in dbs]
        dd = dual_completion(stack(*(bf + x for x in dbs)), k, n,
                             sig_r=sig, delta_b=stack(*dbs))
        _same_slices(dd, one)
        a, alpha = stack(tr.top)[0], float(tr.alpha)
        _same_slices(perturbed_polynomial(a, stack(*das), dd, alpha),
                     [perturbed_polynomial(a, stack(x), y, alpha)
                      for x, y in zip(das, one)])


class TestBackwardConstants:
    def test_case3_formula(self):
        tr = trim(case3_member())
        c_hat, c_full = backward_constants(tr, case3_poly())
        sig = np.linalg.svd(xla.to_float(tr.Rt), compute_uv=False)[-1]
        manual = (tr.Lt_hat.frob_norm() / case3_poly().frob_norm()
                  / abs(float(tr.alpha))) * (
            3.0 + 2.0 * tr.k * tr.top.frob_norm() / sig)
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
                             sigma_min_rtilde=0.5, indices_preserved=True,
                             conclusive=True)

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
        # a consistent record: Lt = Dtilde * Lt_hat for the new Rt
        rt = np.diag([1.0, 1e6])
        lt = MatPoly([tr.Dtilde @ c for c in _stack_over(tr.top, rt).coeffs],
                     FIELD_FLOAT)
        bad = dataclasses.replace(tr, Rt=rt, Lt=lt)
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
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    tr.check_source(p)
    k, m, n = tr.k, tr.m, tr.n
    pf = p.to_float()
    dt = backward._fmatrix(tr.Dtilde)
    rt = backward._fmatrix(tr.Rt)
    af = tr.top.to_float()
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
        dd = backward.dual_completion(stack(bf + db), k, n, sig_r=sig_r,
                                      delta_b=stack(db))
        dp = poly(backward.perturbed_polynomial(stack(af)[0], stack(da), dd,
                                                alpha)[0])
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

    @staticmethod
    def _fail_solves(monkeypatch, calls, failing):
        """Count the dual completion's minimum norm solves, one per trial
        in trial order on both routes, and shift the solutions of the calls
        numbered in failing so that their residual check fails."""
        real = FloatField.min_norm_solve

        def solve(self, a, b):
            calls.append(None)
            x = real(self, a, b)
            return x + 1.0 if len(calls) in failing else x

        monkeypatch.setattr(FloatField, "min_norm_solve", solve)

    def test_same_error_from_inside_a_block(self, monkeypatch):
        # a failure at trial 40, the ninth trial of the second block,
        # surfaces with its class and message
        calls = []
        self._fail_solves(monkeypatch, calls, {41})
        tr = trim(case3_member())
        err = self._same_error(case3_poly(), tr, 0.5, 100,
                               reset=calls.clear)
        assert err == (backward.VerificationError,
                       "dual completion residual above tolerance")

    def test_failure_at_a_trial_of_a_block_raises_its_error(self,
                                                            monkeypatch):
        # trial 2's solve is shifted whenever its system comes back, which
        # it does with the same bits in a stack of one: the block raises,
        # trials 0 to 2 run again one at a time, and trial 2 raises
        real = FloatField.min_norm_solve
        systems, sizes = [], []

        def solve(self, a, b):
            systems.append(a.tobytes())
            x = real(self, a, b)
            return x + 1.0 if systems[2:3] == systems[-1:] else x

        monkeypatch.setattr(FloatField, "min_norm_solve", solve)
        dual_completion = backward.dual_completion

        def sized(bp, *args, **kwargs):
            sizes.append(len(bp))
            return dual_completion(bp, *args, **kwargs)

        monkeypatch.setattr(backward, "dual_completion", sized)

        def reset():
            systems.clear()
            sizes.clear()

        tr = trim(case3_member())
        err = self._same_error(case3_poly(), tr, 0.5, 10, reset=reset)
        assert err == (backward.VerificationError,
                       "dual completion residual above tolerance")
        reset()
        with pytest.raises(backward.VerificationError):
            run_experiment(case3_poly(), tr, 0.5, 10, 0)
        assert sizes == [10, 1, 1, 1]

    def test_blocks_run_once_without_a_failure(self, monkeypatch):
        sizes = []
        dual_completion = backward.dual_completion

        def sized(bp, *args, **kwargs):
            sizes.append(len(bp))
            return dual_completion(bp, *args, **kwargs)

        monkeypatch.setattr(backward, "dual_completion", sized)
        run_experiment(case3_poly(), trim(case3_member()), 0.5, 70, 0)
        assert sizes == [32, 32, 6]

    def test_first_failing_trial_wins(self, monkeypatch):
        # trial 5 fails the residual check, a step the block takes before
        # the minimality check, which trial 3 fails: trial 3 fails first
        calls, checked = [], []
        self._fail_solves(monkeypatch, calls, {6})
        real = backward._is_block_minimal

        def minimal(bp, k):
            # the slices checked so far, counted across calls: the fourth
            # is trial 3 on both routes
            first = len(checked)
            checked.extend(real(bp, k))
            return [ok and first + i != 3
                    for i, ok in enumerate(checked[first:])]

        monkeypatch.setattr(backward, "_is_block_minimal", minimal)

        def reset():
            calls.clear()
            checked.clear()

        tr = trim(case3_member())
        err = self._same_error(case3_poly(), tr, 0.5, 10, reset=reset)
        assert err == (backward.VerificationError,
                       "perturbed block row is not a minimal basis")

    @staticmethod
    def _same_error(p, tr, eps, trials, reset=lambda: None):
        errors = []
        for run in (run_experiment, oracle_run_experiment):
            reset()
            with pytest.raises(Exception) as info:
                run(p, tr, eps, trials, 0)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        return errors[0]


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
