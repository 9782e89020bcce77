"""The one residual rule, ``Field.negligible``, at its cut and at the
loaders that apply it, and the exact kernels of the rational field."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import case3_member, case3_poly
from matpencil.cli import main
from matpencil.errors import PreconditionError, SchemaError, VerificationError
from matpencil.field import RANK_SAFETY, RESIDUAL_REL_TOL
from matpencil.matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly
from matpencil.reduction import TrimResult, reflector_for, trim, z_block
from matpencil.spaces import AnsatzPencil, companion_g1, companion_g2
from span_oracle import span_pivots

# factors and the scale prod max(1, ||f||_F) they give
FACTORS = {
    "none": ((), 1.0),
    "zero": ((np.zeros((2, 3)),), 1.0),
    "scalar": ((-4.0,), 4.0),
    "below-one": ((0.25, np.full((2, 2), 0.1)), 1.0),
    "array": ((np.array([[3.0, 0.0], [0.0, 4.0]]),), 5.0),
    "matpoly": ((MatPoly([[[3.0]], [[4.0]]], FIELD_FLOAT),), 5.0),
    "mixed": ((-4.0, np.array([3.0, 4.0]),
               MatPoly([[[0.0, 2.0]]], FIELD_FLOAT)), 40.0),
}


def residual_of_norm(norm, as_poly=False):
    """A residual with four equal entries and the given Frobenius norm."""
    block = np.full((2, 2), norm / 2.0)
    if as_poly:
        return MatPoly([block / np.sqrt(2.0), block / np.sqrt(2.0)],
                       FIELD_FLOAT)
    return block


class TestFloatRule:
    @pytest.mark.parametrize("as_poly", [False, True])
    @pytest.mark.parametrize("name", FACTORS)
    def test_cut_on_the_frobenius_norm(self, name, as_poly):
        factors, scale = FACTORS[name]
        cut = RESIDUAL_REL_TOL * scale
        below = residual_of_norm(0.99 * cut, as_poly)
        above = residual_of_norm(1.01 * cut, as_poly)
        assert FIELD_FLOAT.negligible(below, *factors)
        assert not FIELD_FLOAT.negligible(above, *factors)

    def test_zero_residual_is_negligible(self):
        for factors, _ in FACTORS.values():
            assert FIELD_FLOAT.negligible(np.zeros((2, 2)), *factors)
            assert FIELD_FLOAT.negligible(np.zeros((0, 3)), *factors)

    def test_entries_below_the_cut_can_sum_above_it(self):
        # each of the four entries is 0.6 of the cut; the norm is 1.2
        assert not FIELD_FLOAT.negligible(
            np.full((2, 2), 0.6 * RESIDUAL_REL_TOL))

    def test_large_finite_factor_does_not_overflow(self):
        big = np.full((3, 3), 1e200)  # ||big||_F = 3e200
        assert FIELD_FLOAT.negligible(np.array([2.9e190]), big)
        assert not FIELD_FLOAT.negligible(np.array([3.1e190]), big)

    def test_overflowing_factor_raises(self):
        huge = np.array([1.5e308, 1.5e308])
        with pytest.raises(PreconditionError):
            FIELD_FLOAT.negligible(np.zeros(2), huge)
        with pytest.raises(PreconditionError):
            FIELD_FLOAT.negligible(np.zeros(2),
                                   MatPoly([[[1.5e308]], [[1.5e308]]],
                                           FIELD_FLOAT))
        # each factor fits the float range, their product does not
        with pytest.raises(PreconditionError):
            FIELD_FLOAT.negligible(np.zeros(2), 1e200, np.array([1e200]))

    def test_overflowing_or_nan_residual_is_not_negligible(self):
        assert not FIELD_FLOAT.negligible(np.array([1.5e308, 1.5e308]), 2.0)
        assert not FIELD_FLOAT.negligible(np.array([0.0, np.nan]))
        assert not FIELD_FLOAT.negligible(np.array([np.inf]))

    def test_overflowing_member_exits_2(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"m": 2, "n": 1, "grade": 2, "field": "float64",
             "coeffs": [[[1.5e308], [1.5e308]], [[1.0], [2.0]],
                        [[3.0], [1.0]]]}))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["build", str(path), "--companion"])
        assert code == 2
        assert json.loads(buf.getvalue())["error"] == "precondition"


class TestFloatPivots:
    """A column is a pivot when it raises the tolerance rank of the columns
    kept before it, cut against the unit scale of null vectors."""

    def test_noise_column_is_not_a_pivot(self):
        # the middle column points away from the others, but its norm is
        # rounding noise next to the unit vectors it sits beside
        a = np.zeros((4, 3))
        a[0, 0] = a[1, 2] = 1.0
        a[3, 1] = 2e-16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FIELD_FLOAT.pivots(a) == [0, 2]

    def test_dependent_columns_are_skipped(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 3)))
        a = np.column_stack([q[:, 0], q[:, 1], (q[:, 0] - q[:, 1]) / 2,
                             np.zeros(6), q[:, 2], q[:, 0]])
        assert FIELD_FLOAT.pivots(a) == [0, 1, 4]
        assert FIELD_FLOAT.pivots(np.zeros((0, 2))) == []
        assert FIELD_FLOAT.pivots(np.zeros((3, 0))) == []

    def test_near_cut_decision_warns(self):
        # the cut is max(shape) * eps * RANK_SAFETY against the scale 1
        cut = 2 * np.finfo(float).eps * RANK_SAFETY
        a = np.array([[1.0, 0.0], [0.0, 2.0 * cut]])
        with pytest.warns(RuntimeWarning, match="near the tolerance"):
            assert FIELD_FLOAT.pivots(a) == [0, 1]


class TestRationalPivots:
    """RationalField.pivots against the in-order echelon reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_span_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m, n = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            # rank r at most, with some columns zeroed
            a = rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, n))
            a[:, rng.random(n) < 0.2] = 0
            a = xla.fmat(a.tolist())
            got = FIELD_RATIONAL.pivots(a)
            assert got == span_pivots(a)
            assert len(got) == xla.rank(a)

    def test_empty_and_zero_matrices(self):
        for m, n in ((0, 3), (3, 0), (0, 0), (2, 3)):
            assert FIELD_RATIONAL.pivots(xla.fzeros(m, n)) == []


class TestRationalRule:
    def test_only_exact_zero_is_negligible(self):
        zero = xla.fzeros(2, 2)
        tiny = xla.fzeros(2, 2)
        tiny[1, 0] = Fraction(1, 10 ** 40)
        assert FIELD_RATIONAL.negligible(zero)
        assert FIELD_RATIONAL.negligible(MatPoly([zero, zero]))
        assert not FIELD_RATIONAL.negligible(tiny)
        assert not FIELD_RATIONAL.negligible(MatPoly([zero, tiny]))

    def test_factors_are_not_read(self):
        # a float conversion of this factor would overflow
        huge = xla.fmat([[10 ** 400]])
        assert FIELD_RATIONAL.negligible(xla.fzeros(1, 1), huge, object())


class TestRuleAtTheLoaders:
    """A float member, trimming record and record source perturbed ten
    times above and ten times below the cut."""

    @pytest.mark.parametrize("side", ["l1", "l2"])
    @pytest.mark.parametrize("factor, ok", [(0.1, True), (10.0, False)])
    def test_member_load(self, side, factor, ok):
        p = case3_poly().to_float()
        member = companion_g1(p) if side == "l1" else companion_g2(p)
        d = member.to_json_dict()
        delta = factor * RESIDUAL_REL_TOL * max(1.0,
                                                member.pencil.frob_norm())
        d["pencil"]["x"][0][0] += delta
        if ok:
            AnsatzPencil.from_json_dict(d)
        else:
            with pytest.raises(SchemaError):
                AnsatzPencil.from_json_dict(d)

    @pytest.mark.parametrize("factor, ok", [(0.1, True), (10.0, False)])
    def test_trim_record_load(self, factor, ok):
        tr = trim(companion_g1(case3_poly().to_float()))
        d = tr.to_json_dict()
        delta = factor * RESIDUAL_REL_TOL * max(1.0, tr.Lt.frob_norm())
        d["Lt"]["y"][1][0] += delta
        if ok:
            TrimResult.from_json_dict(d)
        else:
            with pytest.raises(VerificationError):
                TrimResult.from_json_dict(d)

    @pytest.mark.parametrize("factor, ok", [(0.1, True), (10.0, False)])
    def test_check_source(self, factor, ok):
        p = case3_poly().to_float()
        tr = trim(companion_g1(p))
        alpha = abs(float(tr.alpha))
        # the gap moves by alpha times the change of one entry of A_k
        delta = (factor * RESIDUAL_REL_TOL * max(1.0, alpha)
                 * max(1.0, p.frob_norm()) / alpha)
        moved = p.copy()
        moved.coeffs[p.grade][0, 1] += delta
        if ok:
            tr.check_source(moved)
        else:
            with pytest.raises(SchemaError):
                tr.check_source(moved)


class TestRationalKernels:
    def test_inner_matches_the_sum_of_products(self):
        rng = np.random.default_rng(5)
        for shape in ((3, 4), (1, 1), (0, 2)):
            a = xla.fmat(rng.integers(-9, 10, size=shape).tolist()) \
                / Fraction(7)
            b = xla.fmat(rng.integers(-9, 10, size=shape).tolist()) \
                / Fraction(3)
            want = sum(x * y for x, y in zip(a.flat, b.flat))
            assert FIELD_RATIONAL.inner(a, b) == want

    def test_factor_z_matches_a_loop_gram_schmidt(self):
        member = case3_member()
        z = z_block(member, *reflector_for(member.ansatz, member.field))
        rows, cn = z.shape
        # the loop reference: classical Gram-Schmidt with generator sums
        q_ref, rt_ref, norms = xla.fzeros(rows, cn), xla.fzeros(cn, cn), []
        for j in range(cn):
            w = z[:, j].copy()
            for i in range(j):
                c = Fraction(sum(q_ref[t, i] * z[t, j]
                                 for t in range(rows))) / norms[i]
                rt_ref[i, j] = c
                w = w - q_ref[:, i] * c
            rt_ref[j, j] = 1
            q_ref[:, j] = w
            norms.append(sum(x * x for x in w))
        comp = FIELD_RATIONAL.nullspace(z.T)
        q1, _, rt, q1_star, _ = FIELD_RATIONAL.factor_z(z, comp)
        for j in range(cn):  # equal up to the canonical column signs
            s = 1 if (q1[:, j] == q_ref[:, j]).all() else -1
            assert (q1[:, j] == s * q_ref[:, j]).all()
            assert (rt[j, :] == s * rt_ref[j, :]).all()
            assert (q1_star[j, :]
                    == s * q_ref[:, j] / Fraction(norms[j])).all()


def test_cli_import_loads_numpy_scipy_and_sympy():
    """The benchmark's report reads these modules' versions from
    sys.modules after runs that reach no float code, so importing the
    command line must load them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, matpencil.cli; "
            "print([m for m in ('numpy', 'scipy', 'sympy') "
            "if m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"
