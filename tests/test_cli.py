"""End-to-end runs of the command line driver."""

import io
import contextlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matpencil.cases import (case2_member, case2_poly, case3_member,
                             case3_published_d, case3_poly)
from matpencil import cli
from matpencil.cli import main
from matpencil.matpoly import MatPoly, dump_json
from matpencil.reduction import TrimResult, _KronForm, trim
from matpencil.spaces import companion_g1, companion_g2
from test_cli_digests import (RANDOM_MEMBER_ANSATZ, RANDOM_MEMBER_COEFFS,
                              RANDOM_MEMBER_W)
from test_matpoly import CASE3_NORM_SQ
from test_minimal import planted_poly


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def jline(out, i=0):
    return json.loads(out.strip().split("\n")[i])


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str)
                        else dump_json(payload))
        return str(path)
    return write


@pytest.fixture
def p3(files):
    return files("p3.json", case3_poly().to_json_dict())


@pytest.fixture
def companion3(files, p3):
    code, out = run("build", p3, "--side", "l1", "--companion")
    assert code == 0
    return files("l3.json", out)


@pytest.fixture
def trim3(files, companion3):
    code, out = run("trim", companion3)
    assert code == 0
    return files("t3.json", out)


class TestExitCodes:
    def test_help_exits_clean(self):
        for argv in (("--help",), ("check", "--help")):
            code, out = run(*argv)
            assert code == 0
            assert out.count("\n") == 1
            help_obj = json.loads(out)
            assert help_obj["kind"] == "help"
            assert help_obj["text"].startswith(
                " ".join(("usage: matpencil",) + argv[:-1]))

    def test_unknown_subcommand(self):
        code, _ = run("nonsense")
        assert code == 1

    def test_missing_file(self):
        code, out = run("info", "/nonexistent/p.json")
        assert code == 1
        assert jline(out)["error"] == "schema"

    def test_malformed_json(self, files):
        path = files("bad.json", "{not json")
        code, out = run("solve", path)
        assert code == 1
        assert jline(out)["error"] == "schema"

    def test_rank_deficient_trim(self, files):
        l2 = files("l2.json", case2_member().to_json_dict())
        code, out = run("trim", l2)
        assert code == 2
        assert jline(out)["error"] == "precondition"

    def test_strong_check_failure(self, files):
        l2 = files("l2.json", case2_member().to_json_dict())
        p2 = files("p2.json", case2_poly().to_json_dict())
        code, out = run("check", l2, p2, "--strong")
        assert code == 3
        assert jline(out)["verdict"]["reason"] == "infinite eigenvalue mismatch"

    def test_closed_stdout_exits_without_traceback(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "matpencil.cli", "examples", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # the reader goes away before the first line is written
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


def _float_payload(entry):
    """Float64 case 3 with its first entry replaced, as raw JSON text:
    the standard library writes NaN and Infinity unquoted."""
    d = case3_poly().to_float().to_json_dict()
    d["coeffs"][0][0][0] = entry
    return json.dumps(d)


class TestMalformedInput:
    """Every malformed payload exits 1 with one schema error object;
    extreme but valid entries give one standard JSON object."""

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("argv", [["info"], ["solve"],
                                      ["build", "--companion"]])
    def test_non_finite_float_entry(self, files, entry, argv):
        path = files("p.json", _float_payload(entry))
        code, out = run(argv[0], path, *argv[1:])
        assert code == 1
        assert len(out.strip().split("\n")) == 1
        assert jline(out)["error"] == "schema"
        assert "NaN" not in out and "Infinity" not in out

    def test_out_of_range_integer_entry(self, files):
        path = files("p.json", _float_payload(10 ** 400))
        code, out = run("info", path)
        assert code == 1
        assert jline(out)["error"] == "schema"

    @pytest.mark.parametrize("key,value", [("grade", 2.0), ("m", 3.0),
                                           ("n", True), ("grade", "2")])
    def test_non_integer_size(self, files, key, value):
        d = case3_poly().to_json_dict()
        d[key] = value
        code, out = run("info", files("p.json", json.dumps(d)))
        assert code == 1
        assert jline(out)["error"] == "schema"

    def test_large_rational_entry_norm(self, files):
        d = case3_poly().to_json_dict()
        d["coeffs"][0][0][0] = "1" + "0" * 199
        code, out = run("info", files("p.json", d))
        assert code == 0
        assert len(out.strip().split("\n")) == 1
        assert jline(out)["frob_norm"] == pytest.approx(1e199)

    def test_large_float_entries_norm(self, files):
        d = case3_poly().to_float().to_json_dict()
        d["coeffs"][0][0][0] = d["coeffs"][2][2][1] = 1e200
        code, out = run("info", files("p.json", json.dumps(d)))
        assert code == 0
        assert "Infinity" not in out
        assert jline(out)["frob_norm"] == pytest.approx(math.sqrt(2) * 1e200)

    def test_tiny_float_entries_norm(self, files):
        d = {"m": 2, "n": 2, "grade": 1, "field": "float64",
             "coeffs": [[[1e-200, 0.0], [0.0, 2e-200]],
                        [[2e-200, 0.0], [0.0, 1e-200]]]}
        code, out = run("info", files("p.json", d))
        assert code == 0
        assert jline(out)["frob_norm"] == pytest.approx(
            math.sqrt(10) * 1e-200, abs=0)

    def test_tiny_rational_entries_norm(self, files):
        d = {"m": 1, "n": 2, "grade": 0, "field": "rational",
             "coeffs": [[["1/1" + "0" * 200, "2/1" + "0" * 200]]]}
        code, out = run("info", files("p.json", d))
        assert code == 0
        assert jline(out)["frob_norm"] == pytest.approx(
            math.sqrt(5) * 1e-200, abs=0)

    def test_norm_beyond_float_range(self, files):
        d = case3_poly().to_float().to_json_dict()
        d["coeffs"][0][0][0] = d["coeffs"][2][2][1] = 1.5e308
        code, out = run("info", files("p.json", json.dumps(d)))
        assert code == 2
        assert jline(out)["error"] == "precondition"
        assert "Infinity" not in out

    def test_ragged_rows(self, files):
        member = case3_member().to_json_dict()
        member["pencil"]["x"][0].append("1")
        code, out = run("trim", files("l.json", member))
        assert code == 1
        assert jline(out)["error"] == "schema"

    def test_norm_below_float_range(self, files):
        d = {"m": 1, "n": 1, "grade": 0, "field": "rational",
             "coeffs": [[["1/1" + "0" * 400]]]}
        code, out = run("info", files("p.json", d))
        assert code == 2
        assert len(out.strip().split("\n")) == 1
        assert jline(out)["error"] == "precondition"

    def test_backward_norm_below_float_range(self, files):
        tiny = "1/1" + "0" * 400
        d = {"m": 3, "n": 2, "grade": 2, "field": "rational",
             "coeffs": [[[("-" if (i + r + c) % 2 else "") + tiny
                          for c in range(2)] for r in range(3)]
                        for i in range(3)]}
        p = files("p.json", d)
        code, out = run("build", p, "--companion")
        assert code == 0
        code, out = run("trim", files("l.json", out))
        assert code == 0
        code, out = run("backward", p, files("t.json", out), "--eps", "0.5",
                        "--trials", "2", "--seed", "0")
        assert code == 2
        assert len(out.strip().split("\n")) == 1
        assert jline(out)["error"] == "precondition"

    def test_overflowing_samples_are_silent(self, files):
        big = 1e308
        d = {"m": 2, "n": 2, "grade": 1, "field": "float64",
             "coeffs": [[[big, -big], [big, big]], [[-big, big], [big, big]]]}
        path = files("p.json", d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run("info", path)
        assert code == 2
        assert len(out.strip().split("\n")) == 1
        assert jline(out)["error"] == "precondition"

    def test_companion_of_grade_zero(self, files):
        d = {"m": 2, "n": 1, "grade": 0, "field": "rational",
             "coeffs": [[["1"], ["2"]]]}
        code, out = run("build", files("p.json", d), "--companion")
        assert code == 2
        assert jline(out)["error"] == "precondition"

    def test_empty_rows_keep_the_declared_width(self, files):
        for field in ("rational", "float64"):
            d = {"m": 0, "n": 2, "grade": 1, "field": field,
                 "coeffs": [[], []]}
            code, out = run("info", files("p.json", d))
            assert code == 0
            assert (jline(out)["m"], jline(out)["n"]) == (0, 2)

    def test_negative_size(self, files):
        d = {"m": 0, "n": -1, "grade": 0, "field": "rational",
             "coeffs": [[]]}
        code, out = run("info", files("p.json", d))
        assert code == 1
        assert jline(out)["error"] == "schema"

    # message for a right-space (l1) and a left-space (l2) member of the
    # 3x2 grade-2 case 3, whose pencil is 6x4, after each defect
    MISSHAPEN = {
        "row_short": ("shapes differ", "inner dimensions differ"),
        "col_short": ("inner dimensions differ", "shapes differ"),
        "three_rows_extra": ("shapes differ", "inner dimensions differ"),
        "two_cols_extra": ("inner dimensions differ", "shapes differ"),
        "ansatz_long": ("shapes differ", "shapes differ"),
    }

    @pytest.mark.parametrize("defect", sorted(MISSHAPEN))
    @pytest.mark.parametrize("side", ["l1", "l2"])
    @pytest.mark.parametrize("field", ["rational", "float64"])
    def test_misshapen_member_payload(self, files, field, side, defect):
        p = case3_poly() if field == "rational" else case3_poly().to_float()
        build = companion_g1 if side == "l1" else companion_g2
        d = build(p).to_json_dict()
        zero = d["ansatz"][1]
        for part in d["pencil"].values():
            if defect == "row_short":
                part.pop()
            elif defect == "three_rows_extra":
                part.extend([[zero] * len(part[0]) for _ in range(3)])
            for row in part:
                if defect == "col_short":
                    row.pop()
                elif defect == "two_cols_extra":
                    row.extend([zero, zero])
        if defect == "ansatz_long":
            d["ansatz"].append(zero)
        member = files("l.json", d)
        want = self.MISSHAPEN[defect][side == "l2"]
        for argv in (("check", member, files("p.json", p.to_json_dict())),
                     ("trim", member)):
            code, out = run(*argv)
            assert code == 1
            assert jline(out) == {"kind": "error", "error": "schema",
                                  "message": want}

    @pytest.mark.parametrize("side", ["l1", "l2"])
    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0)])
    @pytest.mark.parametrize("field", ["rational", "float64"])
    def test_companion_of_an_empty_polynomial(self, files, field, m, n,
                                              side):
        zero = "0" if field == "rational" else 0.0
        d = {"m": m, "n": n, "grade": 2, "field": field,
             "coeffs": [[[zero] * n for _ in range(m)]] * 3}
        poly = files("p.json", d)
        code, out = run("build", poly, "--side", side, "--companion")
        # the tower has n blocks on the right side and m on the left
        if (n if side == "l1" else m) == 0:
            assert code == 2
            assert jline(out) == {"kind": "error", "error": "precondition",
                                  "message": "sizes must be positive"}
            return
        assert code == 0
        got = jline(out)
        assert (got["side"], got["ansatz"], got["poly"]) == (
            side, [1, 0] if field == "float64" else ["1", "0"], d)
        assert got["pencil"] == {"x": [[]] * (2 * m), "y": [[]] * (2 * m)}
        # the member reloads with its 2n columns, also from an empty row list
        member = files("l.json", out)
        for strong in (False, True):
            code, out = run("check", member, poly, *["--strong"] * strong)
            if field == "float64":
                assert code == 2
                assert jline(out)["message"] == (
                    "linearization checks need the rational field")
                continue
            assert code == 0
            assert jline(out) == {
                "kind": "check_report", "mode": "glin", "strong": strong,
                "verdict": {"kind": "verdict", "ok": True, "reason": ""},
                "membership": {"l1": None, "l2": None}, "z_rank": 0,
                "full_z_rank": True}
        code, out = run("trim", member)
        assert code == 2
        # an l1 member here is of a wide P, an l2 member of a tall one
        assert jline(out) == {
            "kind": "error", "error": "precondition",
            "message": "wide polynomials trim through the left space"
            if side == "l1" else
            "tall polynomials trim through the right space"}


class TestInfo:
    def test_case3_summary(self, p3):
        code, out = run("info", p3)
        assert code == 0
        d = jline(out)
        assert (d["m"], d["n"], d["grade"], d["degree"]) == (3, 2, 2, 2)
        assert d["normal_rank"] == 2
        assert d["frob_norm"] == pytest.approx(math.sqrt(float(CASE3_NORM_SQ)))

    def test_field_conversion(self, p3):
        code, out = run("info", p3, "--field", "float64")
        assert code == 0
        assert jline(out)["field"] == "float64"

    @pytest.mark.parametrize("cmd", ["info", "solve"])
    def test_field_conversion_keeps_an_empty_shape(self, files, cmd):
        # a 0 x 2 polynomial converts to float64 as it loads as float64
        empty = {"m": 0, "n": 2, "grade": 1, "coeffs": [[], []]}
        exact = files("e.json", json.dumps({**empty, "field": "rational"}))
        native = files("f.json", json.dumps({**empty, "field": "float64"}))
        code, out = run(cmd, exact, "--field", "float64")
        assert (code, out) == run(cmd, native)
        assert code == (0 if cmd == "info" else 2)

    def test_no_promotion_to_rational(self, files):
        pf = files("pf.json", case3_poly().to_float().to_json_dict())
        code, out = run("info", pf, "--field", "rational")
        assert code == 1


class TestBuild:
    def test_companion_is_member(self, p3, companion3):
        code, out = run("check", companion3, p3)
        assert code == 0
        d = jline(out)
        assert d["verdict"]["ok"]
        assert d["membership"]["l1"] == ["1", "0"]
        assert d["z_rank"] == 2 and d["full_z_rank"]

    def test_explicit_coefficients_reproduce_case3(self, files, p3):
        v = files("v.json", json.dumps([0, 1]))
        w = files("w.json", json.dumps([[1, 0], [0, 1], [0, 0], [0, 0],
                                        [0, 0], [0, 0]]))
        code, out = run("build", p3, "--side", "l1", "--ansatz", v, "--w", w)
        assert code == 0
        assert jline(out) == case3_member().to_json_dict()

    def test_left_space_companion(self, files):
        pt = files("pt.json", case3_poly().transpose().to_json_dict())
        code, out = run("build", pt, "--side", "l2", "--companion")
        assert code == 0
        assert jline(out)["side"] == "l2"

    def test_missing_coefficients(self, p3):
        code, out = run("build", p3, "--side", "l1")
        assert code == 1


class TestCheck:
    def test_trimmed_strong(self, trim3, p3):
        code, out = run("check", trim3, p3, "--lin", "--strong")
        assert code == 0
        assert jline(out)["verdict"]["ok"]

    def test_mode_flags_exclusive(self, trim3, p3):
        code, out = run("check", trim3, p3, "--glin", "--lin")
        assert code == 1
        assert out.count("\n") == 1
        err = jline(out)
        assert (err["kind"], err["error"]) == ("error", "schema")
        assert "not allowed" in err["message"]


    def test_member_side_is_read_from_the_payload(self, files, monkeypatch):
        # a loaded member reports its own side from its verified ansatz
        # vector; only the other side is solved, and so is every side of a
        # member of another polynomial
        solved = []
        real = cli.ansatz_membership

        def spy(pen, p, side):
            solved.append(side)
            return real(pen, p, side)
        monkeypatch.setattr(cli, "ansatz_membership", spy)
        zero = MatPoly.zero(3, 2, 2)
        for member, poly, want, sides in (
                (companion_g1(zero), zero, [None, None], ["l2"]),
                (case3_member(), case3_poly(), [["0", "1"], None], ["l2"]),
                (case3_member().transpose(), case3_poly().transpose(),
                 [None, ["0", "1"]], ["l1"]),
                (case3_member(), case3_poly().scale(2),
                 [["0", "1/2"], None], ["l1", "l2"])):
            solved.clear()
            code, out = run("check", files("m.json", member.to_json_dict()),
                            files("p.json", poly.to_json_dict()))
            assert code == 0
            got = jline(out)["membership"]
            assert [got["l1"], got["l2"]] == want
            assert solved == sides


class TestTrim:
    def test_report_shape(self, trim3):
        d = json.loads(open(trim3).read())
        assert d["kind"] == "trim_result"
        assert TrimResult.from_json_dict(d).k == 2
        for key in ("M", "Z", "Rt", "Lt", "provenance"):
            assert key in d
        assert set(d["provenance"]) >= {"M", "Z", "Q1", "Q2", "Rt", "D",
                                        "Dtilde", "Lt", "Lt_hat", "K"}

    @pytest.mark.parametrize("argv", [
        ("trim", "L", "--field", "float64"),
        ("trim", "L", "--tol", "2"),
        ("examples", "3", "--field", "float64"),
        ("lemma-check", "--k", "3", "--n", "1", "--tol", "2"),
        ("info", "P", "--tol", "2"),
        ("check", "L", "P", "--tol", "2"),
        ("recover", "L", "P", "--mode", "glin_L1", "--tol", "2"),
        ("backward", "P", "T", "--eps", "0.5", "--trials", "1", "--seed",
         "0", "--tol", "2")])
    def test_unread_flags_refused(self, companion3, p3, trim3, argv):
        paths = {"L": companion3, "P": p3, "T": trim3}
        code, out = run(*(paths.get(a, a) for a in argv))
        assert code == 1
        err = jline(out)
        assert (err["kind"], err["error"]) == ("error", "schema")
        assert "unrecognized arguments" in err["message"]

    @pytest.mark.parametrize("field", ["rational", "float64"])
    def test_tall_left_space_member_names_the_right_space(self, files,
                                                          field):
        rng = np.random.default_rng(0)
        p = MatPoly([rng.integers(-5, 6, (3, 2)).tolist() for _ in range(3)])
        p = files("p.json", (p if field == "rational"
                             else p.to_float()).to_json_dict())
        code, out = run("build", p, "--side", "l2", "--companion")
        assert code == 0
        member = files("l.json", out)
        for argv in (("trim", member),
                     ("recover", member, p, "--mode", "glin_L2", "--side",
                      "right")):
            code, out = run(*argv)
            assert code == 2
            assert jline(out) == {
                "kind": "error", "error": "precondition",
                "message": "tall polynomials trim through the right space"}

    @pytest.mark.parametrize("field", ["rational", "float64"])
    def test_tall_left_space_member_left_recovery(self, files, field):
        """The left basis of a tall P from its left-space member is a right
        recovery on the transposed, wide problem: refused with the shape
        precondition of `--side right`, unless P is rank deficient enough
        for every right nullvector of the member to be a tower."""
        rng = np.random.default_rng(0)
        generic = MatPoly([rng.integers(-5, 6, (3, 2)).tolist()
                           for _ in range(3)])
        # C(l) * [l, -1] with C of degree one: P * (1, l)^T = 0
        c0, c1 = np.array([[1], [2], [-1]]), np.array([[0], [1], [3]])
        k0, k1 = np.array([[0, -1]]), np.array([[1, 0]])
        planted = MatPoly([(c0 @ k0).tolist(), (c0 @ k1 + c1 @ k0).tolist(),
                           (c1 @ k1).tolist()])
        for p, sides in ((generic, ("left", "both")), (planted, ("left",))):
            p = files("p.json", (p if field == "rational"
                                 else p.to_float()).to_json_dict())
            code, out = run("build", p, "--side", "l2", "--companion")
            assert code == 0
            member = files("l.json", out)
            for side in sides:
                code, out = run("recover", member, p, "--mode", "glin_L2",
                                "--side", side)
                if sides == ("left",):
                    assert code == 0, out
                    assert jline(out)["left"]["indices"] == [0, 1]
                else:
                    assert code == 2
                    assert jline(out) == {
                        "kind": "error", "error": "precondition",
                        "message": "tall polynomials trim through the "
                                   "right space"}

    def test_recovery_reads_each_normal_rank_once(self, files, monkeypatch):
        """Both sides of a recovery share the normal ranks of P and of the
        source pencil, and the output does not change."""
        rng = np.random.default_rng(3)
        coeffs = [rng.integers(-5, 6, (4, 3)) for _ in range(4)]
        for c in coeffs:  # the third column is the sum of the first two
            c[:, 2] = c[:, 0] + c[:, 1]
        p = files("p.json", MatPoly([c.tolist() for c in coeffs])
                  .to_json_dict())
        member = files("l.json", run("build", p, "--companion")[1])
        trimmed = files("t.json", run("trim", member)[1])
        sources = ((member, "glin_L1"), (trimmed, "trimmed_L1"))
        before = [run("recover", src, p, "--mode", mode)
                  for src, mode in sources]
        calls = []
        real = MatPoly.normal_rank

        def counted(self):
            calls.append((self.m, self.n))
            return real(self)

        monkeypatch.setattr(MatPoly, "normal_rank", counted)
        for (src, mode), want in zip(sources, before):
            calls.clear()
            assert run("recover", src, p, "--mode", mode) == want
            assert want[0] == 0
            assert jline(want[1])["right"]["indices"] == [0]
            assert len(calls) == 2 and (4, 3) in calls

    def test_explicit_row_selection(self, files):
        l3 = files("m3.json", case3_member().to_json_dict())
        d = files("d.json", json.dumps([[1, 0, 0, 0, 0, 0],
                                        [0, 1, 0, 0, 0, 0],
                                        [0, 0, 0, 1, 0, 0],
                                        [0, 0, 0, 0, 1, 0],
                                        [0, 0, 0, -2, -1, 1]]))
        code, out = run("trim", l3, "--d", d)
        assert code == 0
        got = TrimResult.from_json_dict(jline(out))
        from matpencil.cases import case3_expected_lt
        assert got.Lt.equal(case3_expected_lt())


class TestSolve:
    def test_case3_eigstructure(self, p3):
        code, out = run("solve", p3)
        assert code == 0
        d = jline(out)
        assert d["kind"] == "eigstructure"
        assert d["nrank"] == 2
        assert d["finite"] == [{"exponents": [1],
                                "factor": ["-9", "-54", "-38", "-9", "1"]}]
        assert d["left_indices"] == [0]

    def test_factoring_loads_no_combinatorics(self, p3):
        """D_r is factored from its ring terms, not through a sympy
        expression, whose first factor_list imports sympy.combinatorics:
        a fresh solve of case 3, whose D_r has a quartic factor, does not
        load it and prints the bytes of an in-process solve."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        script = ("import sys\nfrom matpencil.cli import main\n"
                  "code = main(['solve', sys.argv[1]])\n"
                  "assert 'sympy.combinatorics' not in sys.modules\n"
                  "sys.exit(code)\n")
        out = subprocess.run([sys.executable, "-c", script, p3], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == run("solve", p3)[1]

    def test_float_regular_pencil(self, files):
        p = files("reg.json", {"m": 2, "n": 2, "grade": 1,
                               "field": "float64",
                               "coeffs": [[[1.0, 0.0], [0.0, 2.0]],
                                          [[1.0, 0.0], [0.0, 1.0]]]})
        code, out = run("solve", p)
        assert code == 0
        vals = sorted(v["value"][0] for v in jline(out)["finite"])
        assert vals == pytest.approx([-2.0, -1.0])


class TestRecover:
    def test_both_sides_from_member(self, companion3, p3):
        code, out = run("recover", companion3, p3, "--mode", "glin_L1")
        assert code == 0
        d = jline(out)
        assert d["right"]["indices"] == []
        assert d["left"]["indices"] == [0]
        assert d["left"]["vectors"] == [[["-2", "-1", "1"]]]

    def test_trimmed_left_only(self, trim3, p3):
        code, out = run("recover", trim3, p3, "--mode", "trimmed_L1",
                        "--side", "left")
        assert code == 0
        d = jline(out)
        assert d["right"] is None
        assert d["left"]["indices"] == [0]

    def test_source_mode_mismatch(self, trim3, p3):
        code, _ = run("recover", trim3, p3, "--mode", "glin_L1")
        assert code == 1

    @pytest.fixture
    def wide3(self, files):
        """Case 3's transpose, its left-space companion and the trimming
        record of that member."""
        pw = files("pw.json", case3_poly().transpose().to_json_dict())
        code, out = run("build", pw, "--side", "l2", "--companion")
        assert code == 0
        l2 = files("l2.json", out)
        code, out = run("trim", l2)
        assert code == 0
        return {"P": pw, "L": l2, "T": files("t2.json", out)}

    @pytest.mark.parametrize("source,mode,wanted", [
        ("T", "glin_L2", "left-space member"),
        ("L", "trimmed_L2", "left-space trimming record")])
    def test_left_space_modes_name_the_left_space(self, wide3, source, mode,
                                                  wanted):
        code, out = run("recover", wide3[source], wide3["P"], "--mode", mode)
        assert code == 1
        assert jline(out) == {"kind": "error", "error": "schema",
                              "message": f"mode expects a {wanted}"}

    def test_left_space_record_is_checked_once(self, wide3, monkeypatch):
        """Lt = Dtilde * Lt_hat is checked as the record loads; recovery
        reads the record's form and makes no second, transposed record."""
        calls = []
        image_gap = _KronForm.image_gap

        def counted(form):
            calls.append(form)
            return image_gap(form)

        monkeypatch.setattr(_KronForm, "image_gap", counted)
        code, out = run("recover", wide3["T"], wide3["P"], "--mode",
                        "trimmed_L2")
        assert code == 0, out
        assert jline(out)["right"]["indices"] == [0]
        assert jline(out)["left"]["indices"] == []
        assert len(calls) == 1

    def test_transposed_records_carry_the_checked_form(self, wide3,
                                                       monkeypatch):
        """trim of a left-space member checks the right-side record it
        makes, and backward the record it loads; neither checks the
        transpose again, since a transpose carries the checked form."""
        calls = []
        image_gap = _KronForm.image_gap

        def counted(form):
            calls.append(form)
            return image_gap(form)

        monkeypatch.setattr(_KronForm, "image_gap", counted)
        code, out = run("trim", wide3["L"])
        assert code == 0, out
        assert jline(out)["side"] == "l2"
        assert len(calls) == 1
        code, out = run("backward", wide3["P"], wide3["T"], "--eps", "0.5",
                        "--trials", "2", "--seed", "3")
        assert code == 0, out
        assert len(calls) == 2

    @pytest.mark.parametrize("member", ["case3", "random"])
    def test_record_left_basis_reads_neither_m_nor_d(self, files, companion3,
                                                     p3, member):
        """A record's left basis goes to P through its checked form
        alone: replacing M by a shear and D by zeros in the record's JSON
        changes no byte of the recovery."""
        if member == "case3":
            p, source = p3, companion3
        else:
            def strings(rows):
                return [[str(x) for x in row] for row in rows]
            p = files("p.json", {
                "m": 4, "n": 2, "grade": 2, "field": "rational",
                "coeffs": [strings(c) for c in RANDOM_MEMBER_COEFFS]})
            code, source = run(
                "build", p, "--ansatz",
                files("v.json", [str(x) for x in RANDOM_MEMBER_ANSATZ]),
                "--w", files("w.json", strings(RANDOM_MEMBER_W)))
            assert code == 0
            source = files("l.json", source)
        code, out = run("trim", source)
        assert code == 0
        record = jline(out)
        shear = [["1", "5"], ["0", "1"]]  # both records have k = 2
        zeros = [["0"] * len(row) for row in record["D"]]
        assert (shear, zeros) != (record["M"], record["D"])
        tampered = dict(record, M=shear, D=zeros)
        outs = [run("recover", files(name, doc), p, "--mode", "trimmed_L1",
                    "--side", "left")
                for name, doc in (("t.json", record),
                                  ("tampered.json", tampered))]
        assert outs[0][0] == 0, outs[0]
        assert outs[1] == outs[0]

    # A planted 5x4 k=3 P in float64: at degree 3 of the companion's left
    # walk a null column's leading block is rounding noise (norm ~1e-16),
    # which a cut against the block's own norm kept as independent.
    @pytest.mark.parametrize("side", ["left", "both"])
    def test_float_planted_left_indices(self, files, side):
        p = planted_poly(np.random.default_rng(0), 5, 4, 3)
        pf = files("p.json", p.to_float().to_json_dict())
        code, out = run("build", pf, "--companion")
        assert code == 0
        code, out = run("recover", files("l.json", out), pf,
                        "--mode", "glin_L1", "--side", side)
        assert code == 0
        assert jline(out)["left"]["indices"] == [3, 3]


class TestBackward:
    def test_reports_and_summary(self, p3, trim3):
        code, out = run("backward", p3, trim3, "--eps", "0.5",
                        "--trials", "3", "--seed", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        for line in lines[:3]:
            assert json.loads(line)["kind"] == "perturb_report"
        summary = json.loads(lines[3])
        assert summary["kind"] == "experiment_summary"
        assert summary["bound_violations"] == 0

    def test_byte_identical_reruns(self, p3, trim3):
        argv = ("backward", p3, trim3, "--eps", "0.4", "--trials", "2",
                "--seed", "5")
        assert run(*argv) == run(*argv)
        _, other = run("backward", p3, trim3, "--eps", "0.4",
                       "--trials", "2", "--seed", "6")
        assert other != run(*argv)[1]

    def test_disagreeing_top_strip_exits_3(self, files, p3):
        d = trim(case3_member()).to_json_dict()
        d["X12"][0][0] = str(Fraction(d["X12"][0][0]) + 5)
        d["Y11"][0][0] = str(Fraction(d["Y11"][0][0]) - 5)
        code, out = run("backward", p3, files("t.json", d), "--eps", "0.5",
                        "--trials", "2", "--seed", "0")
        assert code == 3
        assert jline(out)["error"] == "verification"

    def test_eps_out_of_range(self, p3, trim3):
        code, out = run("backward", p3, trim3, "--eps", "1.5",
                        "--trials", "1", "--seed", "0")
        assert code == 2

    def test_wrong_payload(self, p3, companion3):
        code, _ = run("backward", p3, companion3, "--eps", "0.5",
                      "--trials", "1", "--seed", "0")
        assert code == 1

    # Per-trial (indices_preserved, conclusive) pairs and the summary's
    # inconclusive and bound_violations counts of `backward --eps 0.5
    # --trials 20` on an exact and a float input: a change to the float
    # index walk that moves any verdict fails here.
    @pytest.mark.parametrize("which,seed", [("case3", 7), ("float433", 0)])
    def test_index_walk_verdicts_pinned(self, files, which, seed):
        if which == "case3":
            d = case3_poly().to_json_dict()
        else:
            rng = np.random.default_rng(0)
            d = {"m": 4, "n": 3, "grade": 3, "field": "float64",
                 "coeffs": [c.tolist() for c in rng.standard_normal((4, 4, 3))]}
        p = files("p.json", d)
        code, out = run("build", p, "--companion")
        assert code == 0
        code, out = run("trim", files("l.json", out))
        assert code == 0
        code, out = run("backward", p, files("t.json", out), "--eps", "0.5",
                        "--trials", "20", "--seed", str(seed))
        assert code == 0
        lines = [json.loads(x) for x in out.strip().split("\n")]
        assert [(r["indices_preserved"], r["conclusive"])
                for r in lines[:-1]] == [(True, True)] * 20
        assert (lines[-1]["inconclusive"], lines[-1]["bound_violations"]) \
            == (0, 0)


class TestLemmaCheck:
    def test_k3_table(self):
        code, out = run("lemma-check", "--k", "3", "--n", "1")
        assert code == 0
        d = jline(out)
        assert len(d["rows"]) == 2
        for row in d["rows"]:
            assert row["formula"] == pytest.approx(0.618034, abs=1e-6)
            assert row["match"]
        assert d["identity_match"]

    def test_smallest_grade(self):
        code, out = run("lemma-check", "--k", "2", "--n", "3")
        assert code == 0

    def test_grade_below_two(self):
        code, _ = run("lemma-check", "--k", "1", "--n", "1")
        assert code == 2


class TestExamples:
    def test_all_pass_quickly(self):
        for i in ("1", "2", "3"):
            t0 = time.time()
            code, out = run("examples", i)
            assert code == 0, out
            assert time.time() - t0 < 1.0

    def test_example1_report(self):
        _, out = run("examples", "1")
        d = jline(out)
        assert d["z_rank"] == 1
        assert d["weak"]["ok"] and d["strong"]["ok"]

    def test_example2_report(self):
        _, out = run("examples", "2")
        d = jline(out)
        assert d["weak"]["ok"] and not d["strong"]["ok"]
        assert d["witnesses_verified"]

    def test_example3_prints_trimmed_pencil(self):
        code, out = run("examples", "3")
        assert code == 0
        assert "L_t =" in out
        assert "l + 3" in out and "2*l + 4" in out
        d = jline(out, -1)
        assert d["trimmed_matches_published"]
        assert d["strong"]["ok"]
        assert len(d["lt"]["x"]) == 5 and len(d["lt"]["x"][0]) == 4

    def test_deterministic_output(self):
        for i in ("1", "2", "3"):
            assert run("examples", i) == run("examples", i)

    def test_invalid_number(self):
        code, _ = run("examples", "4")
        assert code == 1
