"""Eigenstructure reports, the Smith form built from them, and
linearization verdicts, against the Smith normal form oracle."""

import collections
import contextlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matpencil import exactla as xla
from matpencil.cases import (
    case1_member,
    case1_poly,
    case2_member,
    case2_poly,
    case3_member,
    case3_poly,
)
from matpencil import eigenstructure
from matpencil.cli import main
from matpencil.eigenstructure import (
    EigStructure,
    Verdict,
    _finite_divisor,
    _infinite_degrees,
    _padded_verdict,
    check_g_linearization,
    check_linearization,
    complete_eigenstructure,
    smith_form,
)
from matpencil.errors import (PreconditionError, SchemaError,
                              VerificationError)
from matpencil.matpoly import (
    FIELD_FLOAT,
    FIELD_RATIONAL,
    MatPoly,
    dump_json,
    rect_identity,
    shear_s,
)
from matpencil.minimal import (SIDE_LEFT, SIDE_RIGHT, minimal_basis,
                               walk_indices)
from matpencil.qpoly import QQL, coeffs, poly as qp, to_pm
from matpencil.reduction import trim
from matpencil.spaces import (SIDE_L1, SIDE_L2, build_l1, build_l2,
                              companion_g1, companion_g2)
from index_sum_oracle import index_sum_check, structural_sum
from smith_oracle import (oracle_decomposition, oracle_diag, oracle_finite,
                          reference_strong_verdict, reference_verdict,
                          reversal_orders)
from witness_oracle import g_lin_witnesses


def fm(rows):
    return xla.fmat(rows)


def poly(*coeffs):
    return MatPoly([fm(c) for c in coeffs], FIELD_RATIONAL)


def rand_poly(rng, m, n, k):
    return MatPoly([fm(rng.integers(-5, 6, size=(m, n)).tolist())
                    for _ in range(k + 1)], FIELD_RATIONAL)


def smith_diag(p):
    s = smith_form(p)
    a = to_pm(s).to_list()
    return [a[i][i] for i in range(min(s.m, s.n))]


def frobenius_c1(p):
    """Classical companion pencil, for cross checks only."""
    k, n = p.grade, p.n
    x = xla.fzeros(p.m + (k - 1) * n, k * n)
    y = xla.fzeros(p.m + (k - 1) * n, k * n)
    x[:p.m, :n] = p.coeffs[k]
    for i in range(k - 1):
        x[p.m + i * n:p.m + (i + 1) * n, (i + 1) * n:(i + 2) * n] = xla.feye(n)
        y[p.m + i * n:p.m + (i + 1) * n, i * n:(i + 1) * n] = -xla.feye(n)
    for j in range(k):
        y[:p.m, j * n:(j + 1) * n] = p.coeffs[k - 1 - j]
    return MatPoly.pencil(x, y, FIELD_RATIONAL)


CASE3_D2 = qp((-9, -54, -38, -9, 1))


class TestSmithForm:
    def test_diagonal_example(self):
        p = poly([[0, 0], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [0, 1]])
        d = smith_diag(p)
        assert d == [qp((0, 1)), qp((0, -1, 1))]

    def test_unordered_diagonal_normalizes(self):
        # diag(l(l-1), l) has to come out as diag(l, l(l-1))
        p = poly([[0, 0], [0, 0]], [[-1, 0], [0, 1]], [[1, 0], [0, 0]])
        assert smith_diag(p) == [qp((0, 1)), qp((0, -1, 1))]

    def test_identity_fixed_point(self):
        i2 = MatPoly([xla.feye(2)], FIELD_RATIONAL)
        assert smith_form(i2).equal(i2)

    def test_case2_rank_one(self):
        d = smith_diag(case2_poly())
        assert d == [qp((1,)), qp((0,))]

    def test_case2_transposed(self):
        assert smith_diag(case2_poly().transpose()) == [qp((1,)), qp((0,))]

    def test_case3_invariant_factors(self):
        assert smith_diag(case3_poly()) == [qp((1,)), CASE3_D2]

    def test_scalar_poly(self):
        p = poly([[-1]], [[0]], [[1]])
        assert smith_diag(p) == [qp((-1, 0, 1))]

    def test_transformation_product(self):
        # the oracle's unimodular U, V carry p to S up to units
        rng = np.random.default_rng(11)
        for _ in range(4):
            p = rand_poly(rng, 3, 3, 2)
            s, u, v = oracle_decomposition(p)
            assert (u * to_pm(p) * v).to_list() == s.to_list()
            rows = s.to_list()
            assert smith_diag(p) == [rows[t][t].monic() for t in range(3)]

    def test_chain_and_monic(self):
        rng = np.random.default_rng(12)
        p = rand_poly(rng, 3, 2, 2)
        d = smith_diag(p)
        for a, b in zip(d, d[1:]):
            if b:
                assert a and not b.rem(a)
        for a in d:
            if a:
                assert a.LC == 1

    def test_zero_polynomial(self):
        p = MatPoly.zero(2, 3, 1, FIELD_RATIONAL)
        s = smith_form(p)
        assert s.is_zero() and (s.m, s.n) == (2, 3)

    def test_planted_chain(self):
        # U0 diag(1, l, l^2 (l - 1), 0) V0 with integer unimodular U0, V0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c = [xla.fzeros(4, 5) for _ in range(4)]
            c[0][0, 0] = c[1][1, 1] = c[3][2, 2] = Fraction(1)
            c[2][2, 2] = Fraction(-1)
            p = (MatPoly([int_unimodular(rng, 4)])
                 .matmul(MatPoly(c, FIELD_RATIONAL))
                 .matmul(MatPoly([int_unimodular(rng, 5)])))
            assert smith_diag(p) == [qp((1,)), qp((0, 1)), qp((0, 0, -1, 1)),
                                     qp(())]

    def test_non_monic_decomposition_made_monic(self):
        rev = case3_poly().reversal()
        raw = oracle_decomposition(rev)[0].to_list()
        assert raw[1][1].LC == 9
        d2 = qp((Fraction(-1, 9), 1, Fraction(38, 9), 6, 1))
        assert smith_diag(rev) == [qp((1,)), d2]

    def test_pencil_input(self):
        pen = case2_member().pencil
        assert smith_diag(pen) == smith_diag(pen)

    def test_float_rejected(self):
        with pytest.raises(PreconditionError):
            smith_form(case2_poly().to_float())

    def test_deterministic(self):
        a = smith_form(case3_poly())
        b = smith_form(case3_poly())
        assert a.equal(b)


def int_unimodular(rng, n):
    """Integer matrix of determinant +-1: integer row additions, then a
    row permutation."""
    u = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, 2, replace=False)
        u[i] += int(rng.integers(-2, 3)) * u[j]
    return xla.fmat(u[rng.permutation(n)].tolist())


class TestEigStructureType:
    def build(self):
        return EigStructure(
            nrank=2,
            finite=(((Fraction(-1), Fraction(1)), (1, 2)),),
            infinite=(1,),
            right_indices=(0, 1),
            left_indices=(),
        )

    def test_structural_sum(self):
        assert structural_sum(self.build()) == 1 * 3 + 1 + 1

    def test_exponent_order_enforced(self):
        with pytest.raises(SchemaError):
            EigStructure(nrank=1,
                         finite=(((Fraction(0), Fraction(1)), (2, 1)),),
                         infinite=(), right_indices=(), left_indices=())

    def test_factor_must_be_monic(self):
        with pytest.raises(SchemaError):
            EigStructure(nrank=1,
                         finite=(((Fraction(1), Fraction(2)), (1,)),),
                         infinite=(), right_indices=(), left_indices=())

    def test_index_sum_check(self):
        es = EigStructure(nrank=3, finite=(), infinite=(1,),
                          right_indices=(2,), left_indices=(0, 0, 0))
        assert index_sum_check(es)
        assert not index_sum_check(
            EigStructure(nrank=4, finite=(), infinite=(1,),
                         right_indices=(2,), left_indices=(0, 0, 0)))


class TestCompleteEigenstructure:
    def test_case2(self):
        es = complete_eigenstructure(case2_poly())
        assert es.nrank == 1
        assert es.finite == ()
        assert es.infinite == ()
        assert es.right_indices == (1,)
        assert es.left_indices == (0, 1)

    def test_case2_member_pencil(self):
        es = complete_eigenstructure(case2_member().pencil)
        assert es.nrank == 3
        assert es.finite == ()
        assert es.infinite == (1,)
        assert es.right_indices == (2,)
        assert es.left_indices == (0, 0, 0)
        assert index_sum_check(es)

    def test_infinity_appears_only_in_the_pencil(self):
        # the member gains an eigenvalue at infinity that the polynomial
        # does not have
        assert complete_eigenstructure(case2_poly()).infinite == ()
        assert complete_eigenstructure(case2_member().pencil).infinite != ()

    def test_scalar_two_roots(self):
        es = complete_eigenstructure(poly([[-1]], [[0]], [[1]]))
        assert es.nrank == 1
        assert es.finite == (((Fraction(-1), Fraction(1)), (1,)),
                             ((Fraction(1), Fraction(1)), (1,)))
        assert es.infinite == ()
        assert es.right_indices == ()
        assert es.left_indices == ()

    def test_case3(self):
        es = complete_eigenstructure(case3_poly())
        assert es.nrank == 2
        assert es.finite == ((coeffs(CASE3_D2),
                              (1,)),)
        assert es.infinite == ()
        assert es.right_indices == ()
        assert es.left_indices == (0,)

    def test_repeated_eigenvalue_partition(self):
        # diag(l, l^2 - l): eigenvalue 0 in both factors, 1 only in the
        # second
        p = poly([[0, 0], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [0, 1]])
        es = complete_eigenstructure(p)
        assert es.finite == (((Fraction(-1), Fraction(1)), (1,)),
                             ((Fraction(0), Fraction(1)), (1, 1)))
        assert es.infinite == (1,)

    def test_companion_matches_polynomial_structure(self):
        p = case3_poly()
        esp = complete_eigenstructure(p)
        esl = complete_eigenstructure(companion_g1(p).pencil)
        assert esl.finite == esp.finite
        assert esl.infinite == esp.infinite
        assert esl.right_indices == tuple(e + 1 for e in esp.right_indices)
        assert len(esl.left_indices) == len(esp.left_indices) + 1
        assert index_sum_check(esl)

    def test_trimmed_companion_indices(self):
        p = case2_poly()
        esp = complete_eigenstructure(p)
        tr = trim(companion_g1(p))
        est = complete_eigenstructure(tr.Lt)
        assert est.left_indices == esp.left_indices
        assert est.right_indices == tuple(e + 1 for e in esp.right_indices)
        assert est.finite == esp.finite

    def test_agrees_with_minimal_module(self):
        rng = np.random.default_rng(21)
        p = rand_poly(rng, 3, 2, 2)
        es = complete_eigenstructure(p)
        assert es.right_indices == minimal_basis(p, SIDE_RIGHT).indices
        assert es.left_indices == minimal_basis(p, SIDE_LEFT).indices

    def test_float_regular(self):
        pen = MatPoly.pencil(np.eye(2), np.diag([-1.0, -2.0]), FIELD_FLOAT)
        es = complete_eigenstructure(pen)
        assert es.nrank == 2
        assert es.infinite == ()
        vals = [z for z, _ in es.finite]
        assert abs(vals[0] - 1.0) < 1e-12 and abs(vals[1] - 2.0) < 1e-12
        assert es.right_indices == () and es.left_indices == ()

    def test_float_infinite_eigenvalue(self):
        pen = MatPoly.pencil(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]),
                             FIELD_FLOAT)
        es = complete_eigenstructure(pen)
        assert es.infinite == (1,)
        assert len(es.finite) == 1
        assert abs(es.finite[0][0] - 1.0) < 1e-12

    def test_float_singular_rejected(self):
        pen = MatPoly.pencil(np.zeros((2, 2)), np.zeros((2, 2)), FIELD_FLOAT)
        with pytest.raises(PreconditionError):
            complete_eigenstructure(pen)

    def test_float_needs_pencil(self):
        with pytest.raises(PreconditionError):
            complete_eigenstructure(case2_poly().to_float())

    def test_float_needs_square(self):
        pen = MatPoly.pencil(np.ones((3, 2)), np.ones((3, 2)), FIELD_FLOAT)
        with pytest.raises(PreconditionError):
            complete_eigenstructure(pen)


class TestGLinearizationCheck:
    def test_case1_weak_and_strong(self):
        assert check_g_linearization(case1_member(), case1_poly()).ok
        v = check_g_linearization(case1_member(), case1_poly(), strong=True)
        assert v.ok and bool(v)

    def test_case2_weak_but_not_strong(self):
        assert check_g_linearization(case2_member(), case2_poly()).ok
        v = check_g_linearization(case2_member(), case2_poly(), strong=True)
        assert not v.ok
        assert v.reason == "infinite eigenvalue mismatch"

    def test_companion_strong(self):
        assert check_g_linearization(companion_g1(case3_poly()),
                                     case3_poly(), strong=True).ok

    def test_wide_companion_strong(self):
        pw = case3_poly().transpose()
        assert check_g_linearization(companion_g2(pw), pw, strong=True).ok

    def test_random_companions_strong(self):
        rng = np.random.default_rng(31)
        for k in (2, 3):
            p = rand_poly(rng, 3, 2, k)
            assert check_g_linearization(companion_g1(p), p, strong=True).ok

    def test_detects_wrong_pencil(self):
        pen = companion_g1(case3_poly()).pencil
        broken = MatPoly.pencil(pen.X, xla.fzeros(*pen.Y.shape),
                                FIELD_RATIONAL)
        v = check_g_linearization(broken, case3_poly())
        assert not v.ok
        assert v.reason == "finite structure mismatch"

    def test_size_mismatch(self):
        with pytest.raises(SchemaError):
            check_g_linearization(trim(case3_member()).Lt, case3_poly())

    def test_float_rejected(self):
        pen = companion_g1(case2_poly()).pencil.to_float()
        with pytest.raises(PreconditionError):
            check_g_linearization(pen, case2_poly())

    def test_matpoly_pencil_accepted(self):
        pen = companion_g1(case2_poly()).pencil
        assert check_g_linearization(pen, case2_poly()).ok

    def test_grade_two_source_rejected(self):
        with pytest.raises(SchemaError):
            check_g_linearization(case2_poly(), case2_poly())


class TestLinearizationCheck:
    def test_case3_trim_strong(self):
        tr = trim(case3_member())
        assert check_linearization(tr, case3_poly(), strong=True).ok

    def test_case2_companion_trim(self):
        tr = trim(companion_g1(case2_poly()))
        assert check_linearization(tr, case2_poly()).ok
        assert check_linearization(tr, case2_poly(), strong=True).ok

    def test_classical_companion_square(self):
        rng = np.random.default_rng(41)
        p = rand_poly(rng, 2, 2, 3)
        assert check_linearization(frobenius_c1(p), p, strong=True).ok

    def test_random_trims_strong(self):
        from matpencil.spaces import build_l1

        rng = np.random.default_rng(42)
        done = 0
        while done < 3:
            p = rand_poly(rng, 3, 2, 2)
            v = rng.integers(-3, 4, size=2)
            if not v.any():
                continue
            w = rng.integers(-4, 5, size=(6, 2))
            l = build_l1(p, v.tolist(), fm(w.tolist()))
            try:
                tr = trim(l)
            except PreconditionError:
                continue
            assert check_linearization(tr, p, strong=True).ok
            done += 1

    def test_pencil_object_accepted(self):
        tr = trim(case3_member())
        assert check_linearization(tr.Lt, case3_poly(), strong=True).ok

    def test_size_mismatch(self):
        tr = trim(case3_member())
        bad = poly([[1]], [[1]], [[1]])
        with pytest.raises(SchemaError):
            check_linearization(tr, bad)

    def test_float_rejected(self):
        tr = trim(case3_member())
        with pytest.raises(PreconditionError):
            check_linearization(tr.Lt.to_float(), case3_poly())

    def test_bare_pencil_misses_an_infinite_eigenvalue(self):
        # l + 1 at grade 2 reverses to l(l + 1): the same finite structure
        # as the pencil l + 1, plus a degree at infinity
        pen = poly([[1]], [[1]])
        p = poly([[1]], [[1]], [[0]])
        assert check_linearization(pen, p).ok
        v = check_linearization(pen, p, strong=True)
        assert v == Verdict(False, "infinite eigenvalue mismatch")
        assert check_linearization(pen, poly([[1]], [[1]]), strong=True).ok


def _no_smith(*args):
    raise AssertionError("smith_form reached")


class TestWitnessCertificate:
    """Accepted checks rest on the factor certificate, which implies
    unimodular witnesses; everything else on the structural comparison of
    the walks, with the same verdicts.  No path forms a Smith form."""

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3), (4, 4, 2)])
    def test_accepted_strong_checks_skip_smith(self, monkeypatch, shape):
        m, n, k = shape
        p = rand_poly(np.random.default_rng(60), m, n, k)
        member = companion_g1(p) if m >= n else companion_g2(p)
        tr = trim(member)
        monkeypatch.setattr(eigenstructure, "smith_form", _no_smith)
        assert check_g_linearization(member, p, strong=True).ok
        assert check_linearization(tr, p, strong=True).ok

    def test_accepted_checks_assemble_no_witnesses(self, monkeypatch,
                                                   tmp_path):
        """`check --strong` of a full-Z member and `check --lin --strong`
        of its trim take nothing over QQ[l], on both sides."""
        from matpencil import qpoly, reduction
        calls = []

        def spy(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for module in (qpoly, reduction, eigenstructure):
            for name in ("to_pm", "pm_det"):
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(module, name)))
        rng = np.random.default_rng(62)
        poly, member, trimmed = (str(tmp_path / f) for f in
                                 ("p.json", "l.json", "t.json"))
        for (m, n, k), side in (((3, 2, 3), "l1"), ((2, 3, 2), "l2")):
            p = MatPoly([rng.integers(-5, 6, (m, n)).tolist()
                         for _ in range(k + 1)])
            Path(poly).write_text(dump_json(p.to_json_dict()))
            for argv, out in (
                    (["build", poly, "--side", side, "--companion"], member),
                    (["check", member, poly, "--strong"], None),
                    (["trim", member], trimmed),
                    (["check", trimmed, poly, "--lin", "--strong"], None)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(argv) == 0, buf.getvalue()
                if out is not None:
                    Path(out).write_text(buf.getvalue())
                else:
                    report = json.loads(buf.getvalue())
                    assert report["verdict"]["ok"]
                    assert report.get("full_z_rank") in (True, None)
        assert calls == []
        # the spies see the oracle's calls
        g_lin_witnesses(companion_g1(case3_poly()))
        assert "to_pm" in calls and "pm_det" in calls

    def test_fallbacks_skip_smith(self, monkeypatch):
        p = case3_poly()
        member = companion_g1(p)
        tr = trim(member)
        monkeypatch.setattr(eigenstructure, "smith_form", _no_smith)
        for check, obj, q, ok in (
                (check_g_linearization, member.pencil, p, True),
                (check_g_linearization, case1_member(), case1_poly(), True),
                (check_g_linearization, member, p.scale(2), True),
                (check_g_linearization, case2_member(), case2_poly(),
                 False),
                (check_linearization, tr.Lt, p, True),
                (check_linearization, tr, p.scale(2), True)):
            assert check(obj, q, strong=True).ok == ok
        complete_eigenstructure(p)

    def test_cli_paths_skip_smith(self, monkeypatch, tmp_path):
        # q is not the source of the member, so its check falls back
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(dump_json(case3_poly().to_json_dict()))
        q.write_text(dump_json(case3_poly().scale(2).to_json_dict()))
        member = tmp_path / "l.json"
        monkeypatch.setattr(eigenstructure, "smith_form", _no_smith)
        for argv in (["examples", "1"], ["examples", "2"],
                     ["examples", "3"], ["solve", str(p)],
                     ["build", str(p), "--companion"],
                     ["check", str(member), str(p), "--strong"],
                     ["check", str(member), str(q), "--strong"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, buf.getvalue()
            if argv[0] == "build":
                member.write_text(buf.getvalue())

    def test_failed_witness_raises_instead_of_falling_back(self,
                                                           monkeypatch):
        from matpencil import reduction

        def wrong_shear(k, n, field):
            g = shear_s(k, n, field)
            g.coeffs[0][0, 0] += 1
            return g

        monkeypatch.setattr(reduction, "shear_s", wrong_shear)
        with pytest.raises(VerificationError):
            check_g_linearization(companion_g1(case3_poly()), case3_poly())
        with pytest.raises(VerificationError):
            check_linearization(trim(companion_g1(case3_poly())),
                                case3_poly(), strong=True)

    def test_huge_entry_certified_without_smith(self, monkeypatch,
                                                tmp_path):
        """A 400-digit entry made the Smith audit's determinants take
        seconds; the witnesses never form a Smith transformation."""
        p = rand_poly(np.random.default_rng(61), 3, 2, 3)
        p.coeffs[1][1, 0] = Fraction(10 ** 399 + 7)
        poly_file = tmp_path / "p.json"
        poly_file.write_text(dump_json(p.to_json_dict()))
        member = tmp_path / "l.json"
        trimmed = tmp_path / "t.json"
        monkeypatch.setattr(eigenstructure, "smith_form", _no_smith)
        for argv, out in (
                (["build", str(poly_file), "--side", "l1", "--companion"],
                 member),
                (["check", str(member), str(poly_file), "--strong"], None),
                (["trim", str(member)], trimmed),
                (["check", str(trimmed), str(poly_file), "--lin",
                  "--strong"], None)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, buf.getvalue()
            if out is not None:
                out.write_text(buf.getvalue())
            else:
                assert json.loads(buf.getvalue())["verdict"]["ok"]


@st.composite
def check_cases(draw):
    """A member of the right or left space and the polynomial it is
    checked against: generic, planted singular, with a deficient Z block,
    or checked against a polynomial it was not built from.  Hypothesis
    picks the shape, the side and the kind; the entries come from a drawn
    seed, so that they are generic rather than mostly zero."""
    k = draw(st.sampled_from((2, 3)))
    # cubic pencils stop at 9x9: the Smith comparison of a 12x9 one takes
    # seconds
    top = 4 if k == 2 else 3
    m, n = draw(st.integers(1, top)), draw(st.integers(1, top))
    # mostly the side that reduces this shape, sometimes the other one
    natural, other = (SIDE_L1, SIDE_L2) if m >= n else (SIDE_L2, SIDE_L1)
    side = other if draw(st.booleans()) else natural
    kind = draw(st.sampled_from(("generic", "singular", "deficient",
                                 "mismatched")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def matrix(rows, cols):
        return fm(rng.integers(-3, 4, size=(rows, cols)).tolist())

    coeffs = [matrix(m, n) for _ in range(k + 1)]
    if kind == "singular":
        # equal first and last columns: P(l) kills e_1 - e_n (P = 0 if n = 1)
        coeffs = [np.hstack([c[:, :n - 1], c[:, :1]]) if n > 1
                  else xla.fzeros(m, 1) for c in coeffs]
    p = MatPoly(coeffs, FIELD_RATIONAL)
    v = xla.fvec(rng.integers(1, 4, size=k).tolist())
    if kind == "deficient":
        v = xla.fvec([1] + [0] * (k - 1))
    if side == SIDE_L1:
        w = matrix(k * m, (k - 1) * n)
        if kind == "deficient":  # Z = W[m:] when v = e_1
            w[m] = 0
            w[m:, 0] = 0
        member = build_l1(p, v, w)
    else:
        w = matrix((k - 1) * m, k * n)
        if kind == "deficient":  # Z = W[:, n:] when v = e_1
            w[0, n:] = 0
            w[:, n] = 0
        member = build_l2(p, v, w)
    if kind == "mismatched":
        q = [c.copy() for c in coeffs]
        q[0][0, 0] += draw(st.sampled_from((1, -2)))
        p = MatPoly(q, FIELD_RATIONAL)
    return member, p


def weak_and_strong(strong_verdict):
    """The weak and strong reference verdicts, from the strong one: the
    weak claim ignores an infinite eigenvalue mismatch."""
    weak = (Verdict(True, "")
            if strong_verdict.reason == "infinite eigenvalue mismatch"
            else strong_verdict)
    return weak, strong_verdict


class TestVerdictsMatchSmith:
    """Every verdict, accepted on witnesses or settled by the fallback,
    equals the padded comparison of the oracle's invariant factors."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(check_cases())
    def test_check_equals_padded_verdict(self, case):
        member, p = case
        r = (p.grade - 1) * min(p.m, p.n)
        want = weak_and_strong(reference_verdict(member.pencil, p, r, True))
        for strong in (False, True):
            assert check_g_linearization(member, p, strong) == \
                _padded_verdict(member.pencil, p, r, strong) == want[strong]
        try:
            tr = trim(member)
        except PreconditionError:
            return
        r = tr.Lt.m - p.m
        want = weak_and_strong(reference_verdict(tr.Lt, p, r, True))
        for strong in (False, True):
            assert check_linearization(tr, p, strong) == \
                _padded_verdict(tr.Lt, p, r, strong) == want[strong]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bare_pencils_at_both_strengths(self, seed):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        s = int(rng.integers(0, 6 - max(m, n)))
        p = MatPoly([fm(rng.integers(-1, 2, size=(m, n)).tolist())
                     for _ in range(int(rng.integers(2, 4)))], FIELD_RATIONAL)
        pen = MatPoly([fm(rng.integers(-1, 2, size=(m + s, n + s)).tolist())
                       for _ in range(2)], FIELD_RATIONAL)
        want = weak_and_strong(reference_verdict(pen, p, s, True))
        for strong in (False, True):
            assert check_linearization(pen, p, strong) == want[strong]


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def low_rank_poly(rng, m, n, k):
    """A(l) B(l) of grade k, with an inner dimension drawn from
    1..min(m, n) and entries in {-1, 0, 1}.  Each factor has a random
    number of its top blocks zeroed, so many draws carry degrees at
    infinity."""
    r = int(rng.integers(1, min(m, n) + 1))
    a = int(rng.integers(0, k + 1))

    def factor(rows, cols, grade):
        top = grade + 1 - int(rng.integers(0, grade + 1))
        return MatPoly([fm(rng.integers(-1, 2, size=(rows, cols)).tolist()
                           if i < top else [[0] * cols] * rows)
                        for i in range(grade + 1)], FIELD_RATIONAL)

    return factor(m, r, a).matmul(factor(r, n, k - a))


def low_rank_polys(seed):
    """The zero polynomial, a singular constant, then one draw of each
    shape at grades 0-2 and two at grade 3."""
    rng = np.random.default_rng(seed)
    yield MatPoly.zero(2, 3, 2, FIELD_RATIONAL)
    yield poly([[1, 2], [2, 4]])
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for k in (0, 1, 2, 3, 3):
                yield low_rank_poly(rng, m, n, k)


class TestRankWalks:
    """solve and the fallback read the degrees at infinity and the minimal
    indices off rank walks; the Smith forms of the reversals they replace
    are the oracle's reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_infinite_degrees_on_regular_generators(self, seed):
        for case in _bench_workloads().make_round("regular", seed, 0):
            p = MatPoly.from_json_dict(case.files["P.json"])
            assert _infinite_degrees(p, len(oracle_diag(p))) == \
                reversal_orders(p)

    def test_infinite_degrees_on_examples_and_low_rank(self):
        polys = [case1_poly(), case2_poly()]
        polys += [q for q in low_rank_polys(70)]
        for p in polys:
            for q in (p, p.transpose()):
                assert _infinite_degrees(q, len(oracle_diag(q))) == \
                    reversal_orders(q)

    def test_walk_indices_match_minimal_bases(self):
        for p in [case1_poly(), case2_poly(), case3_poly(),
                  *low_rank_polys(71)]:
            right, left, clear = walk_indices(p, p.normal_rank())
            assert clear
            assert right == minimal_basis(p, SIDE_RIGHT).indices
            assert left == minimal_basis(p, SIDE_LEFT).indices

    def test_index_sum_holds_at_every_grade(self):
        for p in low_rank_polys(72):
            es = complete_eigenstructure(p)
            assert structural_sum(es) == p.grade * es.nrank

    def test_strong_fallback_on_bare_pencils(self):
        rng = np.random.default_rng(73)
        seen = collections.Counter()
        for _ in range(1000):
            m, n = (int(x) for x in rng.integers(1, 3, size=2))
            s, k = int(rng.integers(0, 2)), int(rng.integers(1, 3))
            p = MatPoly([fm(rng.integers(-1, 2, size=(m, n)).tolist())
                         for _ in range(k + 1)], FIELD_RATIONAL)
            pen = MatPoly([fm(rng.integers(-1, 2, size=(m + s, n + s))
                              .tolist()) for _ in range(2)], FIELD_RATIONAL)
            v = check_linearization(pen, p, strong=True)
            assert v == reference_strong_verdict(pen, p, s)
            seen[v.reason] += 1
        assert set(seen) == {"", "finite structure mismatch",
                             "infinite eigenvalue mismatch"}

    @pytest.mark.parametrize("name", ["_infinite_degrees", "walk_indices"])
    def test_index_sum_catches_a_walk_off_by_one(self, monkeypatch, name):
        real = getattr(eigenstructure, name)

        def off_by_one(p, nrank):
            out = real(p, nrank)
            if name == "walk_indices":
                right, left, clear = out
                return right, tuple(sorted(left + (1,))), clear
            return tuple(sorted(out + (1,)))

        p = case3_poly()
        assert p.grade == 2
        complete_eigenstructure(p)
        monkeypatch.setattr(eigenstructure, name, off_by_one)
        with pytest.raises(VerificationError, match="grade times"):
            complete_eigenstructure(p)

    def test_no_smith_form_in_solve_or_check(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return smith_form(p)

        monkeypatch.setattr(eigenstructure, "smith_form", counted)
        complete_eigenstructure(case3_poly())
        pen = poly([[1]], [[1]])
        assert check_linearization(pen, pen, strong=True).ok
        assert not check_linearization(pen, poly([[2]], [[1]])).ok
        assert calls == []


def diag_poly(entries, m, n):
    """The m x n polynomial with the QQ[l] elements entries on its
    diagonal."""
    out = MatPoly.zero(m, n, max((d.degree() for d in entries), default=0))
    for i, d in enumerate(entries):
        for t, c in enumerate(coeffs(d)):
            out.coeffs[t][i, i] = c
    return out


# monic irreducible factors planted on diagonals: linear, quadratic, cubic
FACTORS = ((-1, 1), (2, 1), (1, 0, 1), (-2, 0, 1), (-2, 0, 0, 1))


@st.composite
def structure_cases(draw):
    """A rational polynomial with a known kind of finite structure:
    U diag(d_1 | ... | d_r, 0) V with integer unimodular U, V and repeated
    linear and non-linear factors in the chain, (l^2 - 2)^2 Q, a `regular`
    workload input, or a generic or planted `recover` workload input."""
    kind = draw(st.sampled_from(("planted_chain", "squared", "regular",
                                 "rectangular")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "planted_chain":
        m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        chain, d = [], QQL.one
        for _ in range(draw(st.integers(1, min(m, n, 3)))):
            for fac in draw(st.lists(st.sampled_from(FACTORS), max_size=2)):
                d *= qp(fac)
            chain.append(d)
        return (MatPoly([int_unimodular(rng, m)])
                .matmul(diag_poly(chain, m, n))
                .matmul(MatPoly([int_unimodular(rng, n)])))
    if kind == "squared":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        q = MatPoly([fm(rng.integers(-3, 4, size=(m, n)).tolist())
                     for _ in range(2)], FIELD_RATIONAL)
        square = qp((-2, 0, 1)) ** 2
        return diag_poly([square] * m, m, m).matmul(q)
    workload = "regular" if kind == "regular" else "recover"
    cases = _bench_workloads().make_round(workload, int(rng.integers(100)), 0)
    case = cases[draw(st.integers(0, len(cases) - 1))]
    return MatPoly.from_json_dict(case.files["P.json"])


class TestFiniteRoute:
    """The finite part from the Index Sum Theorem, a gcd of multiples of
    D_r and walks at the repeated factors, against the oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(structure_cases())
    def test_matches_the_oracle(self, p):
        es = complete_eigenstructure(p)
        diag = oracle_diag(p)
        assert es.nrank == len(diag)
        assert es.finite == oracle_finite(diag)
        assert es.infinite == reversal_orders(p)

    def test_repeated_factors(self):
        u = int_unimodular(np.random.default_rng(5), 3)
        quad = qp((1, 0, 1))
        p = (MatPoly([u])
             .matmul(diag_poly([QQL.one, quad, quad ** 2 * qp((-1, 1))],
                               3, 3))
             .matmul(MatPoly([u.T.copy()])))
        es = complete_eigenstructure(p)
        assert es.finite == (((Fraction(-1), Fraction(1)), (1,)),
                             ((Fraction(1), Fraction(0), Fraction(1)),
                              (1, 2)))
        q = rand_poly(np.random.default_rng(6), 3, 2, 1)
        cube = diag_poly([qp((-2, 0, 0, 1))] * 3, 3, 3).matmul(q)
        assert complete_eigenstructure(cube).finite == \
            (((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)),
              (1, 1)),)

    def test_minors_alone_reach_the_divisor(self, monkeypatch):
        polys = [case3_poly(), poly([[0, 0], [0, 0]], [[1, 0], [0, -1]],
                                    [[0, 0], [0, 1]])]
        polys += [diag_poly([qp((-2, 0, 1)) ** 2] * 3, 3, 3).matmul(
            rand_poly(np.random.default_rng(7), 3, 2, 1))]
        want = [complete_eigenstructure(p) for p in polys]
        monkeypatch.setattr(eigenstructure, "COMPRESSIONS", ())
        assert [complete_eigenstructure(p) for p in polys] == want

    def test_gcd_below_the_index_sum_degree_raises(self):
        # D_2 of case 3 has degree 4
        with pytest.raises(VerificationError, match="grade times"):
            _finite_divisor(case3_poly(), 2, 5)

    def test_multiples_exhausted_above_the_degree_raise(self, monkeypatch):
        tried = []
        real = eigenstructure._multiples

        def counted(p, r):
            for d in real(p, r):
                tried.append(d)
                yield d

        monkeypatch.setattr(eigenstructure, "_multiples", counted)
        with pytest.raises(VerificationError, match="grade times"):
            _finite_divisor(case3_poly(), 2, 3)
        # every compression, then all three 2 x 2 minors of the 3 x 2 case
        assert len(tried) == len(eigenstructure.COMPRESSIONS) + 3

    def test_rank_one_compressions_reach_the_divisor(self, monkeypatch):
        # weights in an arithmetic progression give every compression of
        # this P the spurious factor 2 - l; no minor should be needed
        tried = []
        real = eigenstructure._multiples

        def counted(p, r):
            for d in real(p, r):
                tried.append(d)
                yield d

        monkeypatch.setattr(eigenstructure, "_multiples", counted)
        p = poly([[0, 0, 0], [0, 0, 0]], [[1, 0, 1], [0, 0, 0]],
                 [[0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]])
        assert complete_eigenstructure(p).finite == \
            (((Fraction(0), Fraction(1)), (1,)),)
        assert 0 < len(tried) <= len(eigenstructure.COMPRESSIONS)

    def test_exponents_must_add_up_to_the_multiplicity(self, monkeypatch):
        p = diag_poly([QQL.one, qp((-1, 1)) ** 2], 2, 2)
        assert complete_eigenstructure(p).finite == \
            (((Fraction(-1), Fraction(1)), (2,)),)
        monkeypatch.setattr(eigenstructure, "_exponents",
                            lambda p, r, fac, simple: (1,))
        with pytest.raises(VerificationError, match="multiplicity"):
            complete_eigenstructure(p)

    def test_an_undercounting_walk_is_caught(self, monkeypatch):
        # [l - 1, 1] at grade 3: right index 1, degree 2 at infinity, no
        # finite eigenvalue.  A walk that reports right index 0 leaves
        # f = 1, the gcd of the multiples stops at a spurious linear
        # factor, and P does not lose rank at its root.
        p = poly([[-1, 1]], [[1, 0]], [[0, 0]], [[0, 0]])
        es = complete_eigenstructure(p)
        assert (es.finite, es.infinite, es.right_indices) == ((), (2,), (1,))
        real = walk_indices

        def undercount(q, nrank):
            right, left, clear = real(q, nrank)
            return tuple(e - 1 for e in right), left, clear

        monkeypatch.setattr(eigenstructure, "walk_indices", undercount)
        with pytest.raises(VerificationError, match="multiplicity"):
            complete_eigenstructure(p)


class TestStructuralFallback:
    """The fallback pins L's finite structure by its normal rank, its
    index-sum degree, a rank drop at each simple factor and a walk at
    each repeated one."""

    def test_repeated_factor_compares_its_exponents(self):
        p = poly([[1]], [[-2]], [[1]])  # (l - 1)^2
        jordan = poly([[-1, 1], [0, -1]], [[1, 0], [0, 1]])
        split = poly([[-1, 0], [0, -1]], [[1, 0], [0, 1]])
        assert check_linearization(jordan, p, strong=True).ok
        v = check_linearization(split, p)
        assert v == Verdict(False, "finite structure mismatch")
        for pen in (jordan, split):
            assert check_linearization(pen, p) == \
                reference_verdict(pen, p, 1, False)

    def test_simple_factor_needs_a_rank_drop(self):
        p = poly([[-2]], [[0]], [[1]])  # l^2 - 2
        for root, ok in ((2, True), (3, False)):
            # l I - C, C the companion matrix of l^2 - root
            pen = poly([[0, -root], [-1, 0]], [[1, 0], [0, 1]])
            v = check_linearization(pen, p, strong=True)
            assert v.ok == ok
            assert v == reference_verdict(pen, p, 1, True)
