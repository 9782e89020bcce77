"""Exact entries are ints when integral and Fractions otherwise.

The rational field never holds a float or a numpy scalar: the pinned CLI
pipelines run here with every exact kernel, every rational field method
and every MatPoly constructor watched, and each exact division site is
fed int operands that do not divide.  The JSON loader reads a literal
with int() first; its grammar and values stay those of Fraction(str).
"""

import contextlib
import functools
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import case2_poly
from matpencil.cli import EXIT_SCHEMA, main
from matpencil.eigenstructure import complete_eigenstructure
from matpencil.errors import SchemaError
from matpencil.field import FIELD_RATIONAL, RationalField
from matpencil.matpoly import MatPoly, dump_json, rect_identity
from matpencil.reduction import row_reduction
from matpencil.spaces import SIDE_L1, ansatz_membership, build_l1
from lift_oracle import lift_left
from span_oracle import span_add
from witness_oracle import g_lin_witnesses, witnesses
from test_cli_digests import (GENERIC_SEEDS, _bare_pencil, case3_outputs,
                              generic_outputs)

EXACT = (int, Fraction)


def _bad(value):
    """The entries of value (a rational MatPoly, an object array, a scalar,
    or a tuple or list of them) whose type is not exactly int or
    Fraction."""
    if isinstance(value, MatPoly):
        if value.field != FIELD_RATIONAL:
            return []
        return [x for c in value.coeffs
                for x in (c.flat if c.dtype == object else [c.dtype])
                if type(x) not in EXACT]
    if isinstance(value, np.ndarray):
        return ([x for x in value.flat if type(x) not in EXACT]
                if value.dtype == object else [])
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _bad(v)]
    if isinstance(value, (float, np.generic)) or type(value) is bool:
        return [value]
    return []


XLA_RESULTS = ("frac", "div", "fmat", "fvec", "fzeros", "feye", "qq_scalar",
               "nullspace", "_solution", "unique_solve", "inv", "det")
FIELD_RESULTS = ("scalar", "matrix", "vector", "zeros", "eye", "inner", "div",
                 "nullspace", "pivots", "inv", "reflector",
                 "factor_z",
                 "scalar_from_json", "parse_matrix")


@pytest.fixture
def watched(monkeypatch):
    """Record every non-exact entry that reaches or leaves an exact kernel,
    a rational field method or a MatPoly constructor; returns the list of
    (where, entries) and a one-element list counting the values seen."""
    bad, seen = [], [0]

    def note(where, value):
        seen[0] += 1
        entries = _bad(value)
        if entries:
            bad.append((where, entries[:3]))

    def wrap(where, fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            for a in args:
                if isinstance(a, (np.ndarray, MatPoly)):
                    note(where, a)
            out = fn(*args, **kwargs)
            note(where, out)
            return out
        return inner

    for name in XLA_RESULTS:
        monkeypatch.setattr(xla, name, wrap("xla." + name, getattr(xla, name)))
    for name in FIELD_RESULTS:
        method = getattr(RationalField, name)
        monkeypatch.setattr(RationalField, name, wrap("field." + name, method))
    init = MatPoly.__init__

    def watched_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        note("MatPoly", self)
    monkeypatch.setattr(MatPoly, "__init__", watched_init)
    return bad, seen


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestNoFloatsOnThePinnedInputs:
    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_examples(self, watched, number):
        bad, seen = watched
        assert _run(["examples", str(number)])[0] == 0
        assert seen[0] > 0
        assert bad == []

    def test_case3_pipeline_and_bare_pencils(self, watched, tmp_path):
        bad, seen = watched
        outputs = case3_outputs(tmp_path)
        poly = tmp_path / "p.json"
        for key, argv in (("build", ["--strong"]),
                          ("trim", ["--lin", "--strong"])):
            record = json.loads(outputs[key])
            pencil = record["pencil" if key == "build" else "Lt"]
            path = tmp_path / f"{key}_bare.json"
            path.write_text(dump_json(_bare_pencil(pencil, record["field"])))
            assert _run(["check", str(path), str(poly)] + argv)[0] == 0
        assert seen[0] > 0
        assert bad == []

    @pytest.mark.parametrize("shape", sorted(GENERIC_SEEDS))
    def test_generic_pipelines(self, watched, tmp_path, shape):
        bad, seen = watched
        generic_outputs(tmp_path, *shape)
        assert seen[0] > 0
        assert bad == []


def _exact(value):
    assert _bad(value) == []


class TestIntegralValuesAreInts:
    """Constructors and kernels give an int wherever the value is one, so
    integral blocks multiply on int arithmetic."""

    def test_constructors(self):
        assert [type(xla.frac(x)) for x in (3, "3/1", Fraction(6, 2),
                                            "1/2")] == [int] * 3 + [Fraction]
        for a in (xla.fzeros(2, 3), xla.feye(3),
                  xla.fmat([["3/1", Fraction(4, 2)]]), xla.fvec(["-0"])):
            assert {type(x) for x in a.flat} == {int}

    def test_kernels(self):
        a = xla.fmat([[2, 4, 6], [1, 3, 5]])
        sq = xla.fmat([[2, 1], [1, 1]])
        for got in (xla.nullspace(a),
                    xla._solution(a, xla.fvec([2, 1]))[0], xla.inv(sq)):
            assert {type(x) for x in got.flat} == {int}
        assert type(xla.det(sq)) is int
        assert xla.inv(xla.fmat([[2]]))[0, 0] == Fraction(1, 2)

    def test_factor_coefficients(self):
        # the library tour's polynomial in README.md: one quartic factor
        p = MatPoly([[[1, 7], [2, 5], [4, 19]], [[3, 4], [9, 2], [15, 10]],
                     [[1, 0], [0, 1], [2, 1]]])
        (factor, _), = complete_eigenstructure(p).finite
        assert [type(c) for c in factor] == [int] * 5


class TestInexactEntriesRefused:
    """An object array passes through the rational field uncoerced, so
    the field refuses one holding an entry that is not exactly an int or
    a Fraction."""

    @pytest.mark.parametrize("entry", [0.5, True, np.int64(1)],
                             ids=["float", "bool", "int64"])
    def test_matrix_and_vector(self, entry):
        with pytest.raises(SchemaError, match="int or Fraction"):
            MatPoly([np.array([[entry]], dtype=object)])
        with pytest.raises(SchemaError, match="int or Fraction"):
            FIELD_RATIONAL.vector(np.array([1, entry], dtype=object))

    def test_exact_entries_pass_through(self):
        a = np.array([[1, Fraction(1, 2), Fraction(4, 2)]], dtype=object)
        assert FIELD_RATIONAL.matrix(a) is a


def _scaled_companion(p, alpha):
    """The member with ansatz alpha*e1 and the companion's free block: its
    reflector's leading entry is alpha, and its Z is -alpha*I."""
    k, m, n = p.grade, p.m, p.n
    w = xla.fzeros(k * m, (k - 1) * n)
    for j in range(k - 1):
        w[(j + 1) * m:(j + 2) * m, j * n:(j + 1) * n] = \
            -rect_identity(m, n, FIELD_RATIONAL)
    return build_l1(p, [alpha] + [0] * (k - 1), w)


class TestDivisionSites:
    """Each site divides ints that do not divide: a Fraction comes out,
    where int / int would have made a float."""

    def test_div(self):
        assert type(xla.div(6, 3)) is int and xla.div(6, 3) == 2
        assert xla.div(1, 2) == Fraction(1, 2)
        assert xla.div(Fraction(1, 2), 2) == Fraction(1, 4)
        got = xla.div(xla.fmat([[1, 4], [3, -6]]), 2)
        _exact(got)
        assert got.tolist() == [[Fraction(1, 2), 2], [Fraction(3, 2), -3]]
        with pytest.raises(ZeroDivisionError):
            xla.div(1, 0)

    def test_span_add(self):
        # the tests' echelon reference for pivots normalizes through div
        rows = []
        assert span_add(rows, xla.fvec([2, 3]))
        assert span_add(rows, xla.fvec([0, 2]))
        assert not span_add(rows, xla.fvec([4, 1]))
        _exact([row for _, row in rows])
        assert rows[0][1].tolist() == [1, Fraction(3, 2)]
        assert FIELD_RATIONAL.pivots(xla.fmat([[2, 0, 4], [3, 2, 1]])) \
            == [0, 1]

    def test_factor_z(self):
        # columns (1, 0, 1) and (1, 1, 0): rt[0, 1] = 1/2, q1* = q1ᵀ / norms
        z = xla.fmat([[1, 1], [0, 1], [1, 0]])
        q1, q2, rt, q1_star, q2_star = FIELD_RATIONAL.factor_z(
            z, FIELD_RATIONAL.nullspace(z.T))
        for a in (q1, q2, rt, q1_star, q2_star):
            _exact(a)
        assert rt[0, 1] == Fraction(1, 2)
        assert xla.is_zero(q1 @ rt - z)
        assert xla.is_zero(q1_star @ q1 - xla.feye(2))

    def test_kron_form_with_alpha_two(self):
        p = case2_poly()
        member = _scaled_companion(p, 2)
        form = row_reduction(member, *member.field.reflector(member.ansatz))
        assert form.alpha == 2
        e, f = witnesses(form)
        _exact([e, f])
        assert Fraction(1, 2) in set(f.coeffs[0].flat) | set(f.coeffs[1].flat)
        g_lin_witnesses(member)  # verified over QQ[l]

    def test_ansatz_membership(self):
        # P = 2*case 2 keeps the member integral for the ansatz (1/2, 1)
        p = case2_poly().scale(2)
        member = build_l1(p, [Fraction(1, 2), 1],
                          xla.fzeros(2 * p.m, p.n))
        _exact(member.pencil)
        v = ansatz_membership(member.pencil, p, SIDE_L1)
        _exact(v)
        assert v.tolist() == [Fraction(1, 2), 1]

    def test_lift_left(self):
        p = case2_poly()
        member = _scaled_companion(p, 2)
        q = MatPoly([xla.fmat([[0], [0], [1]])])
        y = lift_left(q, member)
        _exact(y)
        assert Fraction(1, 2) in set(y.coeffs[0].flat)
        assert y.transpose().matmul(member.pencil).is_zero()

    def test_inv_and_det(self):
        # det divides the ZZ determinant of 6a by 6^2; inv divides the
        # rref's numerators by its denominator
        a = xla.fmat([["1/2", "1"], ["1/3", "1"]])
        assert xla.det(a) == Fraction(1, 6)
        assert type(xla.det(xla.fmat([["1/2", "1"], ["1/2", "3"]]))) is int
        got = xla.inv(xla.fmat([[2, 1], [1, 3]]))
        _exact(got)
        assert got.tolist() == [[Fraction(3, 5), Fraction(-1, 5)],
                                [Fraction(-1, 5), Fraction(2, 5)]]


LITERALS = ["3", "-0", "+3", " 3 ", "3_0", "٣", "²", "1/0", "1e3", "0x1",
            "", "-", "007", "1.5", "3/1", " -4/6 "]


def _fraction_or_none(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


class TestLiteralGrammar:
    @pytest.mark.parametrize("literal", LITERALS)
    def test_same_values_as_fraction(self, literal):
        want = _fraction_or_none(literal)
        if want is None:
            with pytest.raises(SchemaError):
                FIELD_RATIONAL.scalar_from_json(literal)
            return
        got = FIELD_RATIONAL.scalar_from_json(literal)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    @pytest.mark.parametrize("literal", LITERALS)
    def test_same_exit_codes(self, tmp_path, literal):
        # P = l + c, 1 x 1: any rational c builds a companion
        def poly(c):
            path = tmp_path / "p.json"
            path.write_text(json.dumps(
                {"m": 1, "n": 1, "grade": 1, "field": "rational",
                 "coeffs": [[[c]], [["1"]]]}))
            return _run(["build", str(path), "--side", "l1", "--companion"])
        want = _fraction_or_none(literal)
        code, out = poly(literal)
        if want is None:
            assert code == EXIT_SCHEMA
        else:
            assert (code, out) == poly(str(want))

    def test_json_integers(self):
        assert type(FIELD_RATIONAL.scalar_from_json(-4)) is int
        for bad in (True, 1.0, None):
            with pytest.raises(SchemaError):
                FIELD_RATIONAL.scalar_from_json(bad)
