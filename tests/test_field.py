"""The one residual rule, ``Field.negligible``, at its cut and at the
loaders that apply it, the exact kernels of the rational field, the
float factorization of Z against the exact one, and which commands load
scipy.linalg."""

import contextlib
import io
import json
import math
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
from matpencil.matpoly import FIELD_FLOAT, FIELD_RATIONAL, MatPoly, dump_json
from matpencil.reduction import TrimResult, row_reduction, trim
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
        z = row_reduction(member, *member.field.reflector(member.ansatz)).Z
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


# (rows, columns) of the seeded integer Z factored on both fields
FACTOR_Z_SHAPES = ((9, 5), (6, 3), (4, 4), (5, 1), (7, 6), (3, 3))


@pytest.mark.parametrize("seed, shape", enumerate(FACTOR_Z_SHAPES),
                         ids=[f"{r}x{c}" for r, c in FACTOR_Z_SHAPES])
def test_float_factor_z_is_the_exact_gram_schmidt_normalized(seed, shape):
    """numpy's Householder QR of z is the rational field's Gram-Schmidt
    with unit columns: q1_f = q1_e·diag(1/‖w_j‖), rt_f = diag(‖w_j‖)·rt_e,
    and q2 completes q1 to an orthogonal matrix in the kernel of zᵀ."""
    rng = np.random.default_rng(seed)
    z = xla.fmat(rng.integers(-5, 6, size=shape).tolist())
    rows, cn = shape
    assert FIELD_RATIONAL.rank(z) == cn
    q1_e, _, rt_e, _, _ = FIELD_RATIONAL.factor_z(
        z, FIELD_RATIONAL.nullspace(z.T))
    zf = z.astype(float)
    q1, q2, rt, q1_star, q2_star = FIELD_FLOAT.factor_z(zf, None)
    for j in range(cn):
        col = q1_e[:, j]
        norm = math.sqrt(float(col @ col))
        q_want = np.array([float(x) for x in col]) / norm
        rt_want = np.array([float(x) for x in rt_e[j, :]]) * norm
        # the canonical sign follows the first entry of largest magnitude,
        # which rounding may move between tied entries
        mags = [abs(x) for x in col]
        tied = mags.count(max(mags)) > 1
        s = -1.0 if tied and q_want @ q1[:, j] < 0 else 1.0
        assert np.allclose(q1[:, j], s * q_want, rtol=0, atol=1e-12)
        scale = np.abs(rt_want).max()
        assert np.allclose(rt[j, :], s * rt_want, rtol=0, atol=1e-12 * scale)
    assert (np.tril(rt, -1) == 0).all()
    assert q2.shape == (rows, rows - cn)
    assert np.abs(q2.T @ zf).max(initial=0.0) <= 1e-12 * np.abs(zf).max()
    q = np.hstack([q1, q2])
    assert np.allclose(q.T @ q, np.eye(rows), rtol=0, atol=1e-12)
    assert (q1_star == q1.T).all() and (q2_star == q2.T).all()


@pytest.mark.parametrize("side, k", [("l1", 2), ("l1", 3),
                                     ("l2", 2), ("l2", 3)])
def test_float_trim_of_a_companion_prints_signed_unit_factors(
        tmp_path, side, k):
    """A companion member's Z is a block of signed unit columns, so the
    float trim's Q1, Q2 and Rt hold only 0 and ±1 and Q1·Rt is Z exactly,
    whichever QR computes them; the backward workload's bytes rest on
    this.  A tall P trims through L1, a wide one through L2, where the
    record holds the transposes."""
    rng = np.random.default_rng([k, int(side == "l2")])
    shape = (3, 2) if side == "l1" else (2, 3)
    p = MatPoly([rng.standard_normal(shape) for _ in range(k + 1)],
                FIELD_FLOAT)
    member = tmp_path / "l.json"
    member.write_text(_cli_stdout(
        ["build", _write_poly(tmp_path, p), "--companion", "--side", side]))
    record = json.loads(_cli_stdout(["trim", str(member)]))
    q1, q2, rt, z = (np.array(record[key], dtype=float)
                     for key in ("Q1", "Q2", "Rt", "Z"))
    for a in (q1, q2, rt):
        assert np.isin(a, (-1.0, 0.0, 1.0)).all()
    if side == "l2":
        q1, rt, z = q1.T, rt.T, z.T
    assert (q1 @ rt == z).all()


# Runs each argv list given as JSON in argv[2] through the command line in
# this interpreter and prints one JSON line per command: the exit code,
# whether scipy.linalg is loaded afterwards, and the command's stdout.
# argv[1] == "eager" imports scipy.linalg before the command line does.
_FRESH_RUN = """
import contextlib, io, json, sys
if sys.argv[1] == "eager":
    import scipy.linalg
import matpencil.cli
print(json.dumps([m for m in ("numpy", "scipy", "sympy", "scipy.linalg")
                  if m in sys.modules]))
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = matpencil.cli.main(argv)
    print(json.dumps([code, "scipy.linalg" in sys.modules, buf.getvalue()]))
"""


def _fresh_run(commands, eager=False):
    """(modules loaded by importing the command line, [(exit code,
    scipy.linalg loaded, stdout) per command]) in a new interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, "eager" if eager else "lazy",
         json.dumps(commands)],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    return lines[0], [tuple(r) for r in lines[1:]]


def test_cli_import_loads_numpy_scipy_and_sympy():
    """The benchmark's report reads these modules' versions from
    sys.modules after runs that reach no float code, so importing the
    command line must load them; scipy.linalg waits for float code."""
    loaded, _ = _fresh_run([])
    assert loaded == ["numpy", "scipy", "sympy"]


def test_exact_commands_leave_scipy_linalg_unloaded(tmp_path):
    poly = _write_poly(tmp_path, case3_poly())
    member, record = tmp_path / "l.json", tmp_path / "t.json"
    member.write_text(_cli_stdout(["build", poly, "--companion"]))
    record.write_text(_cli_stdout(["trim", str(member)]))
    commands = [["examples", "1"], ["examples", "2"], ["examples", "3"],
                ["build", poly, "--companion"],
                ["check", str(member), poly, "--strong"],
                ["trim", str(member)],
                ["check", str(record), poly, "--lin", "--strong"],
                ["solve", poly],
                ["recover", str(member), poly, "--mode", "glin_L1"],
                ["recover", str(record), poly, "--mode", "trimmed_L1"]]
    _, runs = _fresh_run(commands)
    assert [(code, linalg) for code, linalg, _ in runs] \
        == [(0, False)] * len(commands)


def _float_trim_route(tmp_path, name, p, side, modes):
    """argv lists of the float backward route from a rational P written
    under tmp_path: build the companion member, trim it, recover from the
    member and from the record, and run backward on the record."""
    poly = str(tmp_path / f"{name}.json")
    member, record = (str(tmp_path / f"{name}_{x}.json") for x in "lt")
    Path(poly).write_text(dump_json(p.to_json_dict()))
    build = ["build", poly, "--companion", "--side", side,
             "--field", "float64"]
    Path(member).write_text(_cli_stdout(build))
    Path(record).write_text(_cli_stdout(["trim", member]))
    return [build, ["trim", member],
            ["recover", member, poly, "--mode", modes[0],
             "--field", "float64"],
            ["recover", record, poly, "--mode", modes[1],
             "--field", "float64"],
            ["backward", poly, record, "--eps", "0.5", "--trials", "20",
             "--seed", "3", "--field", "float64"]]


def test_float_trim_route_leaves_scipy_linalg_unloaded(tmp_path):
    """Float trim factors Z by numpy's QR, so the whole float backward
    route, tall through L1 and wide through L2, runs without scipy.linalg
    and prints what it prints when scipy.linalg loads eagerly."""
    p = case3_poly()
    commands = (_float_trim_route(tmp_path, "tall", p, "l1",
                                  ("glin_L1", "trimmed_L1"))
                + _float_trim_route(tmp_path, "wide", p.transpose(), "l2",
                                    ("glin_L2", "trimmed_L2")))
    _, lazy = _fresh_run(commands)
    _, eager = _fresh_run(commands, eager=True)
    assert [(code, linalg) for code, linalg, _ in lazy] \
        == [(0, False)] * len(commands)
    assert [out for _, _, out in lazy] == [out for _, _, out in eager]


@pytest.mark.parametrize("command", ["solve"])
def test_float_commands_load_scipy_linalg_on_first_use(tmp_path, command):
    """Float solve (eigvals), the one command that reaches scipy.linalg,
    loads it there, and prints what it prints when it loads eagerly."""
    pencil = MatPoly([FIELD_RATIONAL.matrix([[2, 1], [0, 3]]),
                      FIELD_RATIONAL.matrix([[1, 0], [0, 0]])],
                     FIELD_RATIONAL)
    argv = [command, _write_poly(tmp_path, pencil), "--field", "float64"]
    _, lazy = _fresh_run([argv])
    _, eager = _fresh_run([argv], eager=True)
    assert lazy[0][:2] == (0, True)
    assert lazy == eager


def _write_poly(tmp_path, p):
    path = tmp_path / "p.json"
    path.write_text(dump_json(p.to_json_dict()))
    return str(path)


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, buf.getvalue()
    return buf.getvalue()
