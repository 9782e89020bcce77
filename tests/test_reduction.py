"""Lower-block extraction, witnesses, and trimming, anchored on the three
bundled cases and the companion members."""

from dataclasses import replace

import numpy as np
import pytest

from matpencil import exactla as xla
from matpencil.cases import (case1_member, case2_member, case2_poly,
                             case2_witnesses, case3_expected_lt, case3_member,
                             case3_published_d, case3_poly)
from matpencil.eigenstructure import (Verdict, _padded_verdict,
                                      check_g_linearization,
                                      check_linearization)
from matpencil.field import RANK_SAFETY
from matpencil.errors import (PreconditionError, SchemaError,
                              StructureError, VerificationError)
from matpencil.matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly,
                               dump_json, h_dual, lambda_vec, rect_identity)
from matpencil import reduction
from matpencil.reduction import (TrimResult, certify_linearization,
                                 full_z_rank, max_z_rank, row_reduction,
                                 trim, verify_witnesses, z_rank)
from matpencil.spaces import (SIDE_L1, AnsatzPencil, build_l1, build_l2,
                              companion_g1, companion_g2)
import witness_oracle
from space_oracle import flip_r, reversal_member
from witness_oracle import g_lin_witnesses, linearization_witnesses, witnesses

# the Z block of case 1's member, and the reflector and Z block of case 3's
CASE1_Z = [[-1, 0], [0, 0], [0, 0]]
CASE3_M = [[0, 1], [1, 0]]
CASE3_Z = [[1, 0], [0, 1], [0, 0]]


def rand_poly(rng, m, n, k, field=FIELD_RATIONAL):
    coeffs = [rng.integers(-4, 5, size=(m, n)) for _ in range(k + 1)]
    if field == FIELD_RATIONAL:
        return MatPoly([xla.fmat(c.tolist()) for c in coeffs], field)
    return MatPoly([c.astype(float) for c in coeffs], field)


def rand_member(rng, m, n, k, field=FIELD_RATIONAL):
    p = rand_poly(rng, m, n, k, field)
    v = rng.integers(-3, 4, size=k)
    while not v.any():
        v = rng.integers(-3, 4, size=k)
    w = rng.integers(-4, 5, size=(k * m, (k - 1) * n))
    if field == FIELD_RATIONAL:
        return build_l1(p, v.tolist(), xla.fmat(w.tolist()))
    return build_l1(p, v.astype(float), w.astype(float))


def tiny(field, a) -> bool:
    """Every entry of a (an array or a matrix polynomial) is zero, or at
    most 1e-12 in magnitude on the float field."""
    blocks = getattr(a, "coeffs", (a,))
    if field == FIELD_RATIONAL:
        return all(xla.is_zero(c) for c in blocks)
    return all(np.max(np.abs(c), initial=0.0) <= 1e-12 for c in blocks)


def assert_core_reproduces_lt(tr: TrimResult):
    """Lt = Dtilde * diag(I, Rt) * K for a right-space record."""
    cn = tr.Rt.shape[0]
    blk = tr.field.eye(tr.m + cn)
    blk[tr.m:, tr.m:] = tr.Rt
    lead = tr.Dtilde @ blk
    for a, b in ((lead @ tr.K.X, tr.Lt.X), (lead @ tr.K.Y, tr.Lt.Y)):
        assert tiny(tr.field, a - b)


def frobenius_c1(p: MatPoly) -> MatPoly:
    """Classical trimmed first companion of a tall polynomial."""
    k, m, n = p.grade, p.m, p.n
    rows = m + (k - 1) * n
    x = p.field.zeros(rows, k * n)
    y = p.field.zeros(rows, k * n)
    x[:m, :n] = p.coeff(k)
    for j in range(k - 1):
        x[m + j * n:m + (j + 1) * n, (j + 1) * n:(j + 2) * n] = \
            xla.feye(n) if p.field == FIELD_RATIONAL else np.eye(n)
    for j in range(k):
        y[:m, j * n:(j + 1) * n] = p.coeff(k - 1 - j)
    eye = xla.feye((k - 1) * n) if p.field == FIELD_RATIONAL else np.eye((k - 1) * n)
    y[m:, :(k - 1) * n] = -eye
    return MatPoly.pencil(x, y, p.field)


class TestReflector:
    def test_unit_vector(self):
        m, a = FIELD_RATIONAL.reflector(xla.fvec([1, 0]))
        assert a == 1 and xla.is_zero(m - xla.feye(2))

    def test_row_swap(self):
        m, a = FIELD_RATIONAL.reflector(xla.fvec([0, 1]))
        assert a == 1
        assert xla.is_zero(m - xla.fmat([[0, 1], [1, 0]]))

    def test_exact_general(self):
        v = xla.fvec([3, 4])
        m, a = FIELD_RATIONAL.reflector(v)
        mv = m.dot(v)
        assert a == 3 and mv[0] == a and mv[1] == 0

    def test_float_householder(self):
        m, a = FIELD_FLOAT.reflector(np.array([3.0, 4.0]))
        assert abs(a - 5.0) < 1e-14
        assert np.allclose(m @ np.array([3.0, 4.0]), [5.0, 0.0])
        assert np.allclose(m @ m.T, np.eye(2))

    def test_float_positive_axis(self):
        m, a = FIELD_FLOAT.reflector(np.array([0.25, 0.0, 0.0]))
        assert np.allclose(m, np.eye(3)) and abs(a - 0.25) < 1e-15

    def test_float_axis_cut_is_the_rank_rule(self):
        # the reflector is the identity exactly when u = v - ||v||*e1 has
        # norm at most k * ||v|| * eps * RANK_SAFETY, the rank rule for a
        # k x 1 column
        cut = 3 * np.finfo(float).eps * RANK_SAFETY
        m, _ = FIELD_FLOAT.reflector(np.array([1.0, 0.5 * cut, 0.0]))
        assert (m == np.eye(3)).all()
        m, _ = FIELD_FLOAT.reflector(np.array([1.0, 2.0 * cut, 0.0]))
        assert not (m == np.eye(3)).all()
        assert np.allclose(m @ m.T, np.eye(3))

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            FIELD_RATIONAL.reflector(xla.fvec([0, 0]))
        with pytest.raises(PreconditionError):
            FIELD_FLOAT.reflector(np.zeros(3))


class TestZBlock:
    def test_companion_is_negated_identity_pattern(self):
        p = case3_poly()
        c1 = companion_g1(p)
        z = row_reduction(c1, xla.feye(2), 1).Z
        assert xla.is_zero(z + rect_identity(3, 2))

    def test_companion_k3(self):
        rng = np.random.default_rng(31)
        p = rand_poly(rng, 4, 2, 3)
        z = row_reduction(companion_g1(p), xla.feye(3), 1).Z
        target = np.kron(xla.feye(2), rect_identity(4, 2))
        assert xla.is_zero(z + target)

    def test_rank_deficient_case(self):
        member = case1_member()
        m, a = FIELD_RATIONAL.reflector(member.ansatz)
        z = row_reduction(member, m, a).Z
        assert xla.is_zero(z - xla.fmat(CASE1_Z))
        assert z_rank(member) == 1
        assert not full_z_rank(member)

    def test_walked_example(self):
        member = case3_member()
        m, a = FIELD_RATIONAL.reflector(member.ansatz)
        assert xla.is_zero(m - xla.fmat(CASE3_M)) and a == 1
        z = row_reduction(member, m, a).Z
        assert xla.is_zero(z - xla.fmat(CASE3_Z))
        assert full_z_rank(member)

    def test_structure_error_on_foreign_pencil(self):
        p = case3_poly()
        c1 = companion_g1(p)
        x = c1.pencil.X.copy()
        x[4, 0] = x[4, 0] + 1  # pollutes the lambda lower-left block
        fake = AnsatzPencil(MatPoly.pencil(x, c1.pencil.Y, p.field), c1.side,
                            c1.ansatz, p)
        with pytest.raises(StructureError):
            row_reduction(fake, xla.feye(2), 1)

    @pytest.mark.parametrize("field", [FIELD_RATIONAL, FIELD_FLOAT])
    def test_structure_error_on_a_wrong_middle_top_block(self, field):
        # ansatz e1 makes M the identity, so only the top strip's middle
        # block of (M kron I)*L is wrong: lower rows and corners still fit
        p = case3_poly() if field == FIELD_RATIONAL else \
            case3_poly().to_float()
        c1 = companion_g1(p)
        x = c1.pencil.X.copy()
        x[0, 2] = x[0, 2] + 1
        fake = AnsatzPencil(MatPoly.pencil(x, c1.pencil.Y, field), c1.side,
                            c1.ansatz, p)
        with pytest.raises(StructureError):
            row_reduction(fake, *field.reflector(fake.ansatz))
        for member in (fake, fake.transpose()):
            with pytest.raises(StructureError):
                trim(member)

    def test_rank_invariant_under_m(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            member = rand_member(rng, 3, 2, 2)
            m1, a1 = FIELD_RATIONAL.reflector(member.ansatz)
            s = xla.fmat([[2, 3], [0, 1]])  # fixes the e1 direction
            m2 = s.dot(m1)
            z1 = row_reduction(member, m1, a1).Z
            z2 = row_reduction(member, m2, a1 * 2).Z
            assert xla.rank(z1) == xla.rank(z2)

    def test_l2_side(self):
        rng = np.random.default_rng(33)
        p = rand_poly(rng, 2, 3, 2)
        c2 = companion_g2(p)
        z = row_reduction(c2.transpose(), xla.feye(2), 1).Z.T
        assert z.shape == (2, 3)
        assert xla.is_zero(z + rect_identity(2, 3))
        assert full_z_rank(c2)

    def test_reversal_relation(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            member = rand_member(rng, 3, 2, 2)
            m1, a1 = FIELD_RATIONAL.reflector(member.ansatz)
            z = row_reduction(member, m1, a1).Z
            rev = reversal_member(member)
            zr = row_reduction(rev, m1, a1).Z
            flip = flip_r(member.k - 1, 2)
            assert xla.is_zero(zr + z.dot(flip))


class TestWitnesses:
    def test_companion_witnesses(self):
        p = case3_poly()
        e, f = g_lin_witnesses(companion_g1(p))
        verify_witnesses(companion_g1(p).pencil, p, e, f)

    def test_bundled_witnesses_verify(self):
        e, f = case2_witnesses()
        verify_witnesses(case2_member().pencil, case2_poly(), e, f)

    def test_tampered_witness_rejected(self):
        e, f = case2_witnesses()
        bad = f.copy()
        bad.coeffs[0][0, 0] = bad.coeffs[0][0, 0] + 1
        with pytest.raises(VerificationError):
            verify_witnesses(case2_member().pencil, case2_poly(), e, bad)

    def test_random_members(self):
        rng = np.random.default_rng(35)
        done = 0
        while done < 3:
            member = rand_member(rng, 3, 2, 2)
            if not full_z_rank(member):
                continue
            e, f = g_lin_witnesses(member)
            prod = e.matmul(member.pencil).matmul(f)
            target = member.poly.block_diag(
                MatPoly([rect_identity(3, 2)], FIELD_RATIONAL))
            assert prod.equal(target)
            done += 1

    def test_random_cubic_member(self):
        # m - n = 2 and k = 3: the target permutation interleaves blocks
        member = rand_member(np.random.default_rng(51), 4, 2, 3)
        assert full_z_rank(member)
        e, f = g_lin_witnesses(member)
        target = member.poly.block_diag(MatPoly(
            [np.kron(xla.feye(2), rect_identity(4, 2))], FIELD_RATIONAL))
        assert e.matmul(member.pencil).matmul(f).equal(target)

    def test_determinants_constant(self):
        from matpencil.qpoly import pm_det, to_pm
        member = case3_member()
        e, f = g_lin_witnesses(member)
        de = pm_det(to_pm(e))
        df = pm_det(to_pm(f))
        assert de.degree() == 0 and de
        assert df.degree() == 0 and df

    def test_k3_member(self):
        rng = np.random.default_rng(36)
        p = rand_poly(rng, 3, 2, 3)
        e, f = g_lin_witnesses(companion_g1(p))
        verify_witnesses(companion_g1(p).pencil, p, e, f)

    def test_l2_member(self):
        rng = np.random.default_rng(37)
        p = rand_poly(rng, 2, 3, 2)
        c2 = companion_g2(p)
        e, f = g_lin_witnesses(c2)
        verify_witnesses(c2.pencil, p, e, f)

    def test_rank_deficient_refused(self):
        with pytest.raises(PreconditionError):
            g_lin_witnesses(case1_member())

    def test_l2_member_verified_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            verify_witnesses(*args)

        monkeypatch.setattr(witness_oracle, "verify_witnesses", counting)
        g_lin_witnesses(companion_g2(rand_poly(np.random.default_rng(38),
                                               2, 3, 3)))
        assert len(calls) == 1


class TestLinearizationWitnesses:
    """Witnesses of the block-Kronecker pencil carried to members, trimmed
    pencils and their reversals."""

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 2, 3), (2, 3, 2),
                                       (2, 4, 3), (3, 3, 3)])
    def test_members_and_trims_verify(self, shape):
        m, n, k = shape
        p = rand_poly(np.random.default_rng(50), m, n, k)
        member = companion_g1(p) if m >= n else companion_g2(p)
        for obj in (member, trim(member)):
            pairs = linearization_witnesses(obj, p, strong=True)
            assert len(pairs) == 2
            assert pairs[1][1].equal(p.reversal())
            for pen, poly, e, f in pairs:
                verify_witnesses(pen, poly, e, f)

    def test_published_trim(self):
        tr = trim(case3_member(), d=case3_published_d())
        for pen, poly, e, f in linearization_witnesses(tr, case3_poly(),
                                                       strong=True):
            verify_witnesses(pen, poly, e, f)

    @pytest.mark.parametrize("factor", ["e", "f"])
    def test_tampered_factor_rejected(self, factor):
        p = case3_poly()
        for obj in (companion_g1(p), trim(companion_g1(p))):
            pen, poly, e, f = linearization_witnesses(obj, p)[0]
            bad = (e if factor == "e" else f).copy()
            bad.coeffs[-1][0, 0] = bad.coeffs[-1][0, 0] + 1
            e, f = (bad, f) if factor == "e" else (e, bad)
            with pytest.raises(VerificationError):
                verify_witnesses(pen, poly, e, f)

    def test_nothing_to_build(self):
        p = case3_poly()
        member = companion_g1(p)
        other = p.scale(2)
        tr = trim(member)
        assert linearization_witnesses(member.pencil, p) is None
        assert linearization_witnesses(case1_member(), case1_member().poly) \
            is None
        assert linearization_witnesses(member, other) is None
        assert linearization_witnesses(tr, other) is None
        wide = rand_poly(np.random.default_rng(52), 2, 3, 2)
        assert linearization_witnesses(
            build_l1(wide, [1, 0], xla.fzeros(4, 3)), wide) is None
        # alpha = 0 still reproduces P = 0 but has no F_K
        zero = MatPoly([xla.fzeros(3, 2)] * 3, FIELD_RATIONAL)
        d = trim(companion_g1(zero)).to_json_dict()
        d["alpha"] = "0"
        assert linearization_witnesses(TrimResult.from_json_dict(d), zero,
                                       strong=True) is None

    def test_singular_trim_factor_builds_nothing(self):
        # a consistent record whose Dtilde repeats a row: Lt = Dtilde*Lt_hat
        # and Lt = Dtilde*diag(I, Rt)*K still hold
        tr = trim(case3_member())
        d = tr.to_json_dict()
        dt = tr.Dtilde.copy()
        dt[1] = dt[0]
        d["Dtilde"] = [[str(x) for x in row] for row in dt]
        d["Lt"] = {"x": [[str(x) for x in row] for row in dt @ tr.Lt_hat.X],
                   "y": [[str(x) for x in row] for row in dt @ tr.Lt_hat.Y]}
        broken = TrimResult.from_json_dict(d)
        assert_core_reproduces_lt(broken)
        assert linearization_witnesses(broken, case3_poly()) is None


def planted_poly(rng, m, n, k):
    """A polynomial whose last column repeats its first (P kills
    e_1 - e_n) when tall, whose last row repeats its first when wide."""
    p = rand_poly(rng, m, n, k)
    for c in p.coeffs:
        if m >= n:
            c[:, -1] = c[:, 0]
        else:
            c[-1] = c[0]
    return p


def certificate_cases():
    """Members of both spaces, k = 2 and 3, generic and planted, companion
    and random (ansatz vectors with a leading zero among them), with the
    polynomial each is built from."""
    rng = np.random.default_rng(70)
    for m, n, k in ((3, 2, 2), (2, 3, 2), (4, 2, 3), (2, 4, 3), (3, 3, 3),
                    (3, 2, 3)):
        for make in (rand_poly, planted_poly):
            p = make(rng, m, n, k)
            yield companion_g1(p) if m >= n else companion_g2(p), p
            v = [0] + rng.integers(1, 4, size=k - 1).tolist()
            if m >= n:
                w = rng.integers(-3, 4, size=(k * m, (k - 1) * n))
                yield build_l1(p, v, xla.fmat(w.tolist())), p
            else:
                w = rng.integers(-3, 4, size=((k - 1) * m, k * n))
                yield build_l2(p, v, xla.fmat(w.tolist())), p


def member_form():
    p = case3_poly()
    form, transposed = reduction._kron_form(companion_g1(p), p)
    assert not transposed and form.nonsingular()
    return form, p


def bumped(poly: MatPoly, i: int, row: int, col: int) -> MatPoly:
    out = poly.copy()
    out.coeffs[i][row, col] += 1
    return out


class TestFactorCertificate:
    """certify_linearization checks the factor identities of the
    block-Kronecker form; the witnesses it never assembles, verified over
    QQ[l], are its oracle."""

    def test_accepted_forms_have_verified_witnesses(self):
        done = 0
        for member, p in certificate_cases():
            for obj in (member, trim(member)):
                assert certify_linearization(obj, p)
                for strong in (False, True):
                    pairs = linearization_witnesses(obj, p, strong)
                    assert len(pairs) == 1 + strong
                    for pen, poly, e, f in pairs:
                        verify_witnesses(pen, poly, e, f)
                done += 1
        assert done == 48

    def test_published_trim(self):
        tr = trim(case3_member(), d=case3_published_d())
        assert not xla.is_zero(tr.Dtilde - xla.feye(tr.Dtilde.shape[0]))
        assert certify_linearization(tr, case3_poly())

    def test_no_form_where_no_witness(self):
        p = case3_poly()
        member = companion_g1(p)
        wide = rand_poly(np.random.default_rng(52), 2, 3, 2)
        for obj, q in ((member.pencil, p), (member, p.scale(2)),
                       (trim(member), p.scale(2)),
                       (case1_member(), case1_member().poly),
                       (build_l1(wide, [1, 0], xla.fzeros(4, 3)), wide)):
            assert linearization_witnesses(obj, q) is None
            assert not certify_linearization(obj, q)

    def test_tampered_top_strip(self):
        # the factor identities are checked where each form is built: a
        # member's by row_reduction, a record's top strip by check_source
        p = case3_poly()
        member = companion_g1(p)
        for i in (0, 1):
            bad = AnsatzPencil(bumped(member.pencil, i, 0, 0), member.side,
                               member.ansatz, p)
            with pytest.raises(StructureError, match="alpha\\*e1"):
                row_reduction(bad, *bad.field.reflector(bad.ansatz))
            assert not certify_linearization(bad, p)
        tr = trim(member)
        bad = replace(tr, top=bumped(tr.top, 1, 0, 0),
                      Lt=bumped(tr.Lt, 1, 0, 0))
        with pytest.raises(SchemaError, match="different polynomial"):
            bad.check_source(p)
        assert not certify_linearization(bad, p)

    def test_lower_row_off_z_times_h(self):
        p = case3_poly()
        member = companion_g1(p)
        m = p.m
        for i in (0, 1):
            bad = AnsatzPencil(bumped(member.pencil, i, m, 1), member.side,
                               member.ansatz, p)
            with pytest.raises(StructureError, match="alpha\\*e1"):
                row_reduction(bad, *bad.field.reflector(bad.ansatz))
        tr = trim(member)
        for pen in (bumped(tr.Lt, 0, m, 1), bumped(tr.Lt, 1, 0, 0)):
            with pytest.raises(VerificationError,
                               match="trim factors do not reproduce Lt"):
                replace(tr, Lt=pen)
            with pytest.raises(VerificationError,
                               match="trim factors do not reproduce Lt"):
                replace(tr.transpose(), Lt=pen.transpose())

    @pytest.mark.parametrize("m, n", [(3, 2), (2, 3), (4, 3), (3, 4),
                                      (3, 3)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_strong_verdict_is_the_weak_one(self, m, n, k):
        """A certified form is a strong linearization: the strong verdict
        of every certified member and record is the weak one, accepted."""
        rng = np.random.default_rng([71, m, n, k])
        p = rand_poly(rng, m, n, k)
        v = rng.integers(1, 4, size=k).tolist()
        if m >= n:
            w = rng.integers(-3, 4, size=(k * m, (k - 1) * n))
            members = (companion_g1(p), build_l1(p, v, xla.fmat(w.tolist())))
        else:
            w = rng.integers(-3, 4, size=((k - 1) * m, k * n))
            members = (companion_g2(p), build_l2(p, v, xla.fmat(w.tolist())))
        done = 0
        for member in members:
            if not full_z_rank(member):
                continue
            for obj, check in ((member, check_g_linearization),
                               (trim(member), check_linearization)):
                assert certify_linearization(obj, p)
                assert check(obj, p, strong=True) == check(obj, p) \
                    == Verdict(True, "")
                done += 1
        assert done >= 2

    def test_permutations(self, monkeypatch):
        # t follows from Z's shape; one that misses the padding is refused
        form, p = member_form()
        t = form.t.copy()
        m = form.top.m
        t[[m, m + 1]] = t[[m + 1, m]]
        monkeypatch.setattr(reduction._KronForm, "t", property(lambda s: t))
        with pytest.raises(VerificationError, match="permutations"):
            form.certify(p)

    def test_singular_factors_fall_back(self, monkeypatch):
        form, p = member_form()
        z = form.Z.copy()
        z[:, 1] = z[:, 0]
        record = trim(companion_g1(p))._form
        rt = record.Z.copy()
        rt[:, 1] = rt[:, 0]
        for broken in (replace(form, alpha=xla.frac(0)), replace(form, Z=z),
                       replace(form, M=xla.fzeros(3, 3)),
                       replace(record, Z=rt)):
            assert not broken.nonsingular()
            with pytest.raises(PreconditionError):
                witnesses(broken)
        # a check whose member's Z is rank deficient settles by structure,
        # as when no form can be built
        member = companion_g1(p)
        monkeypatch.setattr(reduction, "row_reduction",
                            lambda l, m_mat, alpha: replace(form, Z=z))
        assert not certify_linearization(member, p)
        assert check_g_linearization(member, p, strong=True) == \
            _padded_verdict(member.pencil, p, 2, True)

    def test_zero_alpha_record_falls_back(self):
        zero = MatPoly([xla.fzeros(3, 2)] * 3, FIELD_RATIONAL)
        d = trim(companion_g1(zero)).to_json_dict()
        d["alpha"] = "0"
        record = TrimResult.from_json_dict(d)
        assert not certify_linearization(record, zero)
        assert check_linearization(record, zero, strong=True) == \
            _padded_verdict(record.Lt, zero, 2, True)

    def test_singular_dtilde_falls_back(self):
        tr = trim(case3_member())
        d = tr.to_json_dict()
        dt = tr.Dtilde.copy()
        dt[1] = dt[0]
        d["Dtilde"] = [[str(x) for x in row] for row in dt]
        d["Lt"] = {"x": [[str(x) for x in row] for row in dt @ tr.Lt_hat.X],
                   "y": [[str(x) for x in row] for row in dt @ tr.Lt_hat.Y]}
        broken = TrimResult.from_json_dict(d)
        assert not certify_linearization(broken, case3_poly())
        assert check_linearization(broken, case3_poly(), strong=True) == \
            _padded_verdict(broken.Lt, case3_poly(), 2, True)

    @pytest.mark.parametrize("name", ["shear_s", "lambda_vec"])
    def test_wrong_fixed_factor(self, monkeypatch, name):
        real = getattr(reduction, name)

        def wrong(k, n, field):
            out = real(k, n, field)
            out.coeffs[0][-1, -1] += 1
            return out

        monkeypatch.setattr(reduction, name, wrong)
        p = case3_poly()
        for obj in (companion_g1(p), trim(companion_g1(p))):
            with pytest.raises(VerificationError, match="fixed identities"):
                certify_linearization(obj, p)


class TestMemberForm:
    """row_reduction's form is the one that z_rank, trim and the
    certificate read."""

    def test_nonsingular_exactly_when_the_complement_exists(self):
        wide = rand_poly(np.random.default_rng(52), 2, 3, 2)
        # a grade-1 wide member: its Z is 0 x 0, square, yet it has no W
        flat = rand_poly(np.random.default_rng(53), 2, 3, 1)
        members = [member for member, _ in certificate_cases()]
        members += [build_l1(wide, [1, 0], xla.fzeros(4, 3)), case1_member(),
                    AnsatzPencil(flat, SIDE_L1, xla.fvec([1]), flat)]
        seen = set()
        for member in members:
            right = member if member.side == SIDE_L1 else member.transpose()
            form = row_reduction(right, *right.field.reflector(right.ansatz))
            try:
                form.complement
                ok = True
            except PreconditionError:
                ok = False
            assert form.nonsingular() == ok
            seen.add(ok)
            if ok and form.Z.shape[0] == form.Z.shape[1]:
                assert form.W is form.Z
        assert seen == {True, False}
        # a record's square Rt is its own W: no kernel is eliminated
        record = trim(companion_g1(case3_poly()))._form
        assert record.W is record.Z and record.nonsingular()

    def test_factor_identities_hold_where_built(self):
        """row_reduction's check that the reduced member has ansatz
        alpha*e1, and the record's own checks, leave no gap for the
        certificate to find."""
        for member, p in certificate_cases():
            right = member if member.side == SIDE_L1 else member.transpose()
            q = p if member.side == SIDE_L1 else p.transpose()
            form = row_reduction(right, *right.field.reflector(right.ansatz))
            for f in (form, trim(member)._form):
                assert xla.is_zero(f.top_gap(q)) and f.image_gap().is_zero()

    def test_one_reduction_per_member(self, monkeypatch):
        """A strong check and its z_rank reduce the member once; a
        left-space member's form is its transpose's."""
        calls = []
        real = reduction.row_reduction

        def counted(l, m_mat, alpha):
            calls.append(l.side)
            return real(l, m_mat, alpha)

        monkeypatch.setattr(reduction, "row_reduction", counted)
        p = case3_poly()
        for member, q in ((companion_g1(p), p),
                          (companion_g2(p.transpose()), p.transpose())):
            calls.clear()
            assert check_g_linearization(member, q, strong=True).ok
            assert z_rank(member) == max_z_rank(member)
            assert calls == [SIDE_L1]


class TestTrim:
    @pytest.mark.parametrize("member", [case3_member(),
                                        companion_g1(case3_poly().to_float())])
    def test_member_pencil_is_the_row_transformed_member(self, member):
        field = member.field
        red = row_reduction(member, *field.reflector(member.ansatz))
        mk = np.kron(red.M, field.eye(member.poly.m))
        moved = MatPoly([mk @ c for c in member.pencil.coeffs], field)
        assert tiny(field, moved - red.pencil)
        # the trimming record stores the same top strip and Z
        tr = trim(member)
        assert tiny(field, red.top - tr.top)
        assert tiny(field, red.Z - tr.Z)

    def test_check_source_rejects_a_foreign_polynomial(self):
        tr = trim(case3_member())
        tr.check_source(case3_poly())
        tr.transpose().check_source(case3_poly().transpose())
        with pytest.raises(SchemaError, match="different polynomial"):
            tr.check_source(case3_poly().scale(2))
        with pytest.raises(SchemaError, match="does not fit"):
            tr.check_source(case3_poly().transpose())

    def test_companion_trims_to_frobenius(self):
        p = case3_poly()
        tr = trim(companion_g1(p))
        assert tr.Lt.equal(frobenius_c1(p))
        assert tr.Lt.equal(tr.Lt_hat)
        assert xla.is_zero(tr.Dtilde - xla.feye(5))
        assert xla.is_zero(tr.Rt + xla.feye(2))

    def test_companion_trims_to_frobenius_k3(self):
        rng = np.random.default_rng(38)
        p = rand_poly(rng, 4, 2, 3)
        tr = trim(companion_g1(p))
        assert tr.Lt.equal(frobenius_c1(p))

    def test_walked_example_default(self):
        member = case3_member()
        tr = trim(member)
        assert tr.alpha == 1
        assert xla.is_zero(tr.M - xla.fmat(CASE3_M))
        assert xla.is_zero(tr.Rt - xla.feye(2))
        assert xla.is_zero(tr.Q1 - xla.fmat([[1, 0], [0, 1], [0, 0]]))
        assert xla.is_zero(tr.Q2 - xla.fmat([[0], [0], [1]]))
        assert tr.Lt.m == 5 and tr.Lt.n == 4

    def test_walked_example_user_d(self):
        member = case3_member()
        tr = trim(member, d=case3_published_d())
        assert tr.Lt.equal(case3_expected_lt())
        assert xla.is_zero(tr.Lt.X[4, :]) and xla.is_zero(tr.Lt.Y[4, :])

    def test_bad_user_d_rejected(self):
        member = case3_member()
        d = xla.fzeros(5, 6)  # violates the completion requirement
        with pytest.raises(PreconditionError):
            trim(member, d=d)

    def test_rank_deficient_refused(self):
        with pytest.raises(PreconditionError):
            trim(case1_member())

    @pytest.mark.parametrize("field", [FIELD_RATIONAL, FIELD_FLOAT])
    def test_refusals_keep_their_messages(self, field):
        wide = rand_poly(np.random.default_rng(41), 2, 3, 2)
        with pytest.raises(PreconditionError, match="trim through the left"):
            trim(companion_g1(wide if field == FIELD_RATIONAL
                              else wide.to_float()))
        if field == FIELD_RATIONAL:
            with pytest.raises(PreconditionError,
                               match="lower block is rank deficient; "
                                     "cannot trim"):
                trim(case1_member())

    def test_z_is_eliminated_once(self, monkeypatch):
        # the rank decision and Q2 both come from one rref of Z^T
        member = case3_member()
        z = row_reduction(member, *member.field.reflector(member.ansatz)).Z
        seen = []
        rref = xla.rref

        def counting(a):
            seen.append(a.shape in (z.shape, z.T.shape)
                        and (xla.is_zero(a - z) if a.shape == z.shape
                             else xla.is_zero(a - z.T)))
            return rref(a)
        monkeypatch.setattr(xla, "rref", counting)
        trim(member)
        assert sum(seen) == 1

    def test_complement_is_eliminated_once_per_form(self, monkeypatch):
        # the certificate's W and the trim's Q2 share the form's complement
        member = case3_member()
        zt = member._form.Z.T
        seen = []
        nullspace = xla.nullspace

        def counting(a):
            seen.append(a.shape == zt.shape and xla.is_zero(a - zt))
            return nullspace(a)
        monkeypatch.setattr(xla, "nullspace", counting)
        assert certify_linearization(member, member.poly)
        trim(member)
        assert sum(seen) == 1

    def test_square_identity_selector(self):
        rng = np.random.default_rng(39)
        p = rand_poly(rng, 2, 2, 2)
        member = companion_g1(p)
        tr = trim(member, d=xla.feye(4))
        assert tr.Lt.equal(member.pencil)
        assert tr.Q2.shape == (2, 0)

    def test_a_block_identity(self):
        rng = np.random.default_rng(40)
        member = rand_member(rng, 3, 2, 2)
        if not full_z_rank(member):
            pytest.skip("unlucky draw")
        tr = trim(member)
        a = tr.top
        lam = lambda_vec(2, 2)
        prod = a.matmul(lam)
        assert prod.equal(member.poly.scale(tr.alpha))

    def test_b_block_factorization(self):
        rng = np.random.default_rng(41)
        member = rand_member(rng, 3, 2, 3)
        if not full_z_rank(member):
            pytest.skip("unlucky draw")
        tr = trim(member)
        b = tr.b_block()
        h = h_dual(2, 2)
        target = MatPoly([-tr.Rt @ c for c in h.coeffs], FIELD_RATIONAL)
        assert b.equal(target)

    def test_row_split_reconstructs(self):
        member = case3_member()
        tr = trim(member)
        top = tr.top
        bottom = tr.b_block()
        assert xla.is_zero(np.vstack([top.X, bottom.X]) - tr.Lt_hat.X)
        assert xla.is_zero(np.vstack([top.Y, bottom.Y]) - tr.Lt_hat.Y)

    def test_kronecker_core(self):
        member = case3_member()
        tr = trim(member, d=case3_published_d())
        k = tr.K
        assert k.m == 5 and k.n == 4
        # lower blocks of K carry plain identities
        assert xla.is_zero(k.X[3:, 2:] + xla.feye(2))
        assert xla.is_zero(k.Y[3:, :2] - xla.feye(2))

    def test_kronecker_core_companion_sign(self):
        p = case3_poly()
        tr = trim(companion_g1(p))
        k = tr.K
        c1 = frobenius_c1(p)
        flip = xla.feye(5)
        flip[3, 3] = -1
        flip[4, 4] = -1
        assert xla.is_zero(k.X - flip.dot(c1.X))
        assert xla.is_zero(k.Y - flip.dot(c1.Y))

    def test_l2_trim_matches_dual(self):
        rng = np.random.default_rng(42)
        p = rand_poly(rng, 2, 3, 2)
        c2 = companion_g2(p)
        tr = trim(c2)
        dual = trim(companion_g1(p.transpose()))
        assert tr.Lt.equal(dual.Lt.transpose())
        assert tr.Lt.m == 4 and tr.Lt.n == 5

    def test_l2_trim_explicit_selector(self):
        rng = np.random.default_rng(43)
        p = rand_poly(rng, 2, 3, 2)
        c2 = companion_g2(p)
        d = FIELD_RATIONAL.zeros(6, 5)
        d[:3, :3] = xla.feye(3)
        d[3:, 3:] = rect_identity(3, 2)
        tr = trim(c2, d=d)
        assert tr.Lt.equal(trim(c2).Lt)
        assert xla.is_zero(tr.Dtilde - xla.feye(5))

    def test_wide_l1_refused(self):
        rng = np.random.default_rng(44)
        p = rand_poly(rng, 2, 3, 2)
        member = build_l1(p, [1, 0], xla.fzeros(4, 3))
        with pytest.raises(PreconditionError):
            trim(member)

    def test_float_path(self):
        rng = np.random.default_rng(45)
        member = rand_member(rng, 3, 2, 2, field=FIELD_FLOAT)
        if not full_z_rank(member):
            pytest.skip("unlucky draw")
        tr = trim(member)
        assert np.allclose(tr.Q1.T @ tr.Q1, np.eye(2), atol=1e-12)
        assert np.allclose(tr.Q1 @ tr.Rt, tr.Z, atol=1e-10)
        lam = lambda_vec(2, 2, FIELD_FLOAT)
        prod = tr.top.matmul(lam)
        target = member.poly.scale(tr.alpha)
        assert (prod - target).frob_norm() <= 1e-9 * max(1.0, target.frob_norm())
        assert_core_reproduces_lt(tr)

    def test_json_round_trip(self):
        # both sides and both fields reload to the same bytes
        tall = case3_poly()
        cases = [(case3_member(), case3_published_d()),
                 (companion_g2(tall.transpose()), None),
                 (companion_g1(tall.to_float()), None),
                 (companion_g2(tall.transpose().to_float()), None)]
        for member, selector in cases:
            tr = trim(member, selector)
            d = tr.to_json_dict()
            back = TrimResult.from_json_dict(d)
            assert dump_json(back.to_json_dict()) == dump_json(d)
            assert back.Lt.equal(tr.Lt)
            assert tr.field.is_zero(back.Dtilde - tr.Dtilde)
            assert back.side == tr.side

    def test_json_compares_values_not_spellings(self):
        tr = trim(case3_member())
        d = tr.to_json_dict()
        assert (d["K"]["x"][0][1], d["X12"][0][0]) == ("2", "0")
        d["K"]["x"][0][1] = "6/3"
        d["X12"][0][0] = "0/7"
        assert TrimResult.from_json_dict(d).K.equal(tr.K)

    @pytest.mark.parametrize("side", ["l1", "l2"])
    def test_json_disagreeing_top_strip_rejected(self, side):
        # shifting the free block between X12 and Y11 keeps check_source
        # passing; the copies of the top strip must agree at load
        member = case3_member()
        if side == "l2":
            member = companion_g2(case3_poly().transpose())
        for key in ("X12", "K", "Lt_hat"):
            d = trim(member).to_json_dict()
            if key == "X12":
                d["X12"][0][0] = str(xla.frac(d["X12"][0][0]) + 5)
                d["Y11"][0][0] = str(xla.frac(d["Y11"][0][0]) - 5)
            else:
                d[key]["y"][-1][-1] = "9"
            with pytest.raises(VerificationError, match="copies of the top"):
                TrimResult.from_json_dict(d)

    def test_json_mis_shaped_matrix_is_a_schema_error(self):
        d = trim(case3_member()).to_json_dict()
        d["Dtilde"] = [row[:-1] for row in d["Dtilde"]]
        with pytest.raises(SchemaError, match="row length mismatch"):
            TrimResult.from_json_dict(d)
        d = trim(case3_member()).to_json_dict()
        d["Lt_hat"] = {"x": d["Lt_hat"]["x"][:2], "y": d["Lt_hat"]["y"][:2]}
        with pytest.raises(SchemaError, match="Lt_hat has the wrong shape"):
            TrimResult.from_json_dict(d)

    def test_json_tamper_rejected(self):
        tr = trim(case3_member())
        d = tr.to_json_dict()
        d["Dtilde"][0][0] = "7"
        with pytest.raises(VerificationError):
            TrimResult.from_json_dict(d)
