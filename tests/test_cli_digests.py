"""Byte-for-byte pins of the CLI's exact output.

Each digest is the sha256 of one subcommand's stdout.  Only exact
(rational) operations are pinned, so the digests do not depend on the
BLAS build.  A change to the arithmetic backend or to the serializer that
moves any byte of these reports fails here.
"""

import contextlib
import hashlib
import io
import json
import random

import numpy as np
import pytest

from matpencil.cases import case3_poly
from matpencil.cli import main
from matpencil.matpoly import dump_json


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


EXAMPLE_DIGESTS = {
    1: "2d8be0255dc0d2a489475ef272a804aaf26371bd0318672fda00a08b3ab4e5e4",
    2: "05236128c10840bfb717de900ef97a7d2a1db629aa21251a1d38662061b5418b",
    3: "cca87932d43658980504b54ccb935e113fb3f136657b2e39d10c43acea99da76",
}

CASE3_DIGESTS = {
    "build":
        "4e77f741ff003e7c773ebc986b10207172ecac9ad17da604204c489e753bb178",
    "check_glin_strong":
        "9b8c0f27b7971848dbb1930199d0e01b262b41a2926b944a6021805389735893",
    "trim":
        "8021413b22c737871aa714006f889c48c6886dc07919b6798a69c6e7aa4857c9",
    "check_lin_strong":
        "67930174b231d6a49775b43f884d6b8fcd514c8b826080fa275741e0a4d4f4d5",
    "solve":
        "e824ffa3eff27a432ad18ccd1fa286e56c435e7a1ee9db58800d2056195b403d",
    "recover_glin_L1":
        "956b671534384be9a841b710e019aeeb6830f9c12973013974698c483ef06716",
}


@pytest.mark.parametrize("number", sorted(EXAMPLE_DIGESTS))
def test_example_output_pinned(number):
    assert _digest(_stdout(["examples", str(number)])) \
        == EXAMPLE_DIGESTS[number]


def case3_outputs(tmp_path):
    """stdout of each pinned op on case 3, keyed like CASE3_DIGESTS."""
    poly = tmp_path / "p.json"
    poly.write_text(dump_json(case3_poly().to_json_dict()))
    member = tmp_path / "l.json"
    trimmed = tmp_path / "t.json"
    out = {}
    out["build"] = _stdout(["build", str(poly), "--side", "l1",
                            "--companion"])
    member.write_text(out["build"])
    out["check_glin_strong"] = _stdout(["check", str(member), str(poly),
                                        "--strong"])
    out["trim"] = _stdout(["trim", str(member)])
    trimmed.write_text(out["trim"])
    out["check_lin_strong"] = _stdout(["check", str(trimmed), str(poly),
                                       "--lin", "--strong"])
    out["solve"] = _stdout(["solve", str(poly)])
    out["recover_glin_L1"] = _stdout(["recover", str(member), str(poly),
                                      "--mode", "glin_L1"])
    return out


def test_case3_pipeline_output_pinned(tmp_path):
    got = {name: _digest(text)
           for name, text in case3_outputs(tmp_path).items()}
    assert got == CASE3_DIGESTS


# `check` on a bare grade-1 matrix polynomial payload rather than an
# ansatz_pencil or trim_result record: the membership search runs on it.
BARE_PENCIL_DIGESTS = {
    "check_glin_strong":
        "69f88ae65cf08eae09377f75ba61a63e4920e4960a739366e9ffe67109a6a4b4",
    "check_lin_strong":
        "67930174b231d6a49775b43f884d6b8fcd514c8b826080fa275741e0a4d4f4d5",
}


def _bare_pencil(pencil, field):
    """A {"x", "y"} pencil written as a grade-1 matrix polynomial."""
    x, y = pencil["x"], pencil["y"]
    return {"m": len(x), "n": len(x[0]), "grade": 1, "field": field,
            "coeffs": [y, x]}


def test_bare_pencil_check_output_pinned(tmp_path):
    outputs = case3_outputs(tmp_path)
    member = json.loads(outputs["build"])
    trimmed = json.loads(outputs["trim"])
    poly = tmp_path / "p.json"
    lpen = tmp_path / "lpen.json"
    ltpen = tmp_path / "ltpen.json"
    lpen.write_text(dump_json(_bare_pencil(member["pencil"],
                                           member["field"])))
    ltpen.write_text(dump_json(_bare_pencil(trimmed["Lt"], trimmed["field"])))
    got = {
        "check_glin_strong": _digest(_stdout(
            ["check", str(lpen), str(poly), "--strong"])),
        "check_lin_strong": _digest(_stdout(
            ["check", str(ltpen), str(poly), "--lin", "--strong"])),
    }
    assert got == BARE_PENCIL_DIGESTS


# Generic integer polynomials, entries in [-5, 5] drawn from
# random.Random(seed), with full-rank leading and trailing coefficients.
# Tall shapes go through the right space L1, wide ones through the left
# space L2.
GENERIC_SEEDS = {(4, 3, 2): 11, (3, 4, 2): 12}

GENERIC_DIGESTS = {
    (4, 3, 2): {
        "build":
            "7c652120f6a233bf2c3a609224534acd19dde09b91672c63f41c451793792d13",
        "check_glin_strong":
            "5b4fe062b3411a6ba807c50b069939bc30a7d08822cd25f9d34c9413b47c43be",
        "trim":
            "483204f08c3e4a749bb4e29e75803083180d6af78fbbebcce0265762f8e2fdcc",
        "check_lin_strong":
            "67930174b231d6a49775b43f884d6b8fcd514c8b826080fa275741e0a4d4f4d5",
        "solve":
            "2b06a6f888095d5976270ba69781a526dba8b4bab165e88e6250ab626b4649f1",
        "recover_glin":
            "767edd62dd19f28b7827e14ea8f3611fcda953c0af2fbc94dff446d689980754",
        "recover_trimmed":
            "9dd050d200999f87acf775296494d24ab57e8adfd61c56f58c41fbd7ae1eb2ec",
    },
    (3, 4, 2): {
        "build":
            "b85da4a75f02a2e2b9191f51f4ec73e3d0adff8f2f7c5d29529df1f9150151a0",
        "check_glin_strong":
            "f5964d366bcfee3328ff397201c957a57098f96fc62176a45caf7f2ffc11ba20",
        "trim":
            "6dde2df471013fccd2403f49685353469b04b26e39dfd895ad9d5bd2fc261e60",
        "check_lin_strong":
            "67930174b231d6a49775b43f884d6b8fcd514c8b826080fa275741e0a4d4f4d5",
        "solve":
            "d48376c6c66b5976120ad67189694d772c86dcb57a3d2095b26a68902aa446b0",
        "recover_glin":
            "e818821784c8acb01de9eee9e7866812b7823bb2980b8a24a51c29b585ce9edb",
        "recover_trimmed":
            "861aff950de2f91e43c1098ed44f7d3906ed5428be990e5042d80d3e0738babe",
    },
}


def generic_poly(m, n, k):
    rng = random.Random(GENERIC_SEEDS[(m, n, k)])
    while True:
        coeffs = [[[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
                  for _ in range(k + 1)]
        if all(np.linalg.matrix_rank(np.array(c, dtype=float)) == min(m, n)
               for c in (coeffs[0], coeffs[-1])):
            return {"m": m, "n": n, "grade": k, "field": "rational",
                    "coeffs": [[[str(x) for x in row] for row in c]
                               for c in coeffs]}


def generic_outputs(tmp_path, m, n, k):
    """stdout of the certify and recover pipelines on one generic
    polynomial, keyed by op."""
    side = "1" if m >= n else "2"
    poly = tmp_path / "p.json"
    poly.write_text(dump_json(generic_poly(m, n, k)))
    member = tmp_path / "l.json"
    trimmed = tmp_path / "t.json"
    out = {}
    out["build"] = _stdout(["build", str(poly), "--side", "l" + side,
                            "--companion"])
    member.write_text(out["build"])
    out["check_glin_strong"] = _stdout(["check", str(member), str(poly),
                                        "--strong"])
    out["trim"] = _stdout(["trim", str(member)])
    trimmed.write_text(out["trim"])
    out["check_lin_strong"] = _stdout(["check", str(trimmed), str(poly),
                                       "--lin", "--strong"])
    out["solve"] = _stdout(["solve", str(poly)])
    out["recover_glin"] = _stdout(["recover", str(member), str(poly),
                                   "--mode", "glin_L" + side])
    out["recover_trimmed"] = _stdout(["recover", str(trimmed), str(poly),
                                      "--mode", "trimmed_L" + side])
    return out


@pytest.mark.parametrize("shape", sorted(GENERIC_SEEDS))
def test_generic_pipeline_output_pinned(tmp_path, shape):
    got = {name: _digest(text)
           for name, text in generic_outputs(tmp_path, *shape).items()}
    assert got == GENERIC_DIGESTS[shape]


# `check` of case 3's member and trimming record against a polynomial
# they were not built from: case 3's P with A_0[0, 0] raised by one.  The
# verdict is a rejection (exit 3), reached through the Smith comparison.
MISMATCHED_DIGESTS = {
    "check_glin_strong":
        "f75a0fd874e80efcac5f85ee30439f2e733b5e944406b9874483b90846724637",
    "check_lin_strong":
        "40435721d50551344abdeb9e3724560fcd50134242b625c700bbaaa920555b05",
}


def _stdout_any(argv):
    """stdout and exit code of a call that may reject."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_mismatched_polynomial_check_output_pinned(tmp_path):
    outputs = case3_outputs(tmp_path)
    other = case3_poly()
    other.coeffs[0][0, 0] += 1
    poly = tmp_path / "other.json"
    poly.write_text(dump_json(other.to_json_dict()))
    member = tmp_path / "l.json"
    trimmed = tmp_path / "t.json"
    member.write_text(outputs["build"])
    trimmed.write_text(outputs["trim"])
    got = {}
    for name, argv in (
            ("check_glin_strong", ["check", str(member), str(poly),
                                   "--strong"]),
            ("check_lin_strong", ["check", str(trimmed), str(poly), "--lin",
                                  "--strong"])):
        code, text = _stdout_any(argv)
        assert code == 3, text
        got[name] = _digest(text)
    assert got == MISMATCHED_DIGESTS


# A tall 4x3 k=2 polynomial whose third row is the first plus twice the
# second in every coefficient, so (1, 2, -1, 0) is a constant left null
# vector; and its transpose, with that vector on the right.  The L1
# member's left nullspace then has two constant vectors, and the special
# basis must swap one of them for the kernel of the ansatz projection.
PLANTED_COEFFS = [
    [[1, 0, 2], [0, 1, -1], [1, 2, 0], [3, -1, 1]],
    [[2, 1, 0], [1, -1, 1], [4, -1, 2], [0, 1, 1]],
    [[1, 1, 1], [0, 2, 1], [1, 5, 3], [2, 0, 1]],
]

PLANTED_DIGESTS = {
    "1": {
        "recover_glin":
            "f50ad07a6cad4766536af7d8427abc62eaa103c95cc5e0ed41197bc87a259168",
        "recover_trimmed":
            "07fd65b623bf715e506a0ed66ed812940e76dce8068af0e11dd6bc07fd43bc86",
    },
    "2": {
        "recover_glin":
            "a1d6ad9af4c7b9142efb61ee7307d08c6a8a502360cf382db13a2d173407c6a7",
        "recover_trimmed":
            "9afcbce3b562b8ffa0e02cc56ae189575f6dd799b2b848c3c90a7b9275142ed3",
    },
}


def planted_poly(side):
    coeffs = PLANTED_COEFFS if side == "1" else [
        [list(col) for col in zip(*c)] for c in PLANTED_COEFFS]
    return {"m": len(coeffs[0]), "n": len(coeffs[0][0]), "grade": 2,
            "field": "rational",
            "coeffs": [[[str(x) for x in row] for row in c] for c in coeffs]}


@pytest.mark.parametrize("side", sorted(PLANTED_DIGESTS))
def test_planted_left_null_vector_recovery_pinned(tmp_path, side):
    poly = tmp_path / "p.json"
    poly.write_text(dump_json(planted_poly(side)))
    member = tmp_path / "l.json"
    trimmed = tmp_path / "t.json"
    member.write_text(_stdout(["build", str(poly), "--side", "l" + side,
                               "--companion"]))
    trimmed.write_text(_stdout(["trim", str(member)]))
    got = {
        "recover_glin": _digest(_stdout(
            ["recover", str(member), str(poly), "--mode", "glin_L" + side])),
        "recover_trimmed": _digest(_stdout(
            ["recover", str(trimmed), str(poly), "--mode",
             "trimmed_L" + side])),
    }
    assert got == PLANTED_DIGESTS[side]


# A tall 4x2 k=2 polynomial whose third row is the first plus twice the
# second in every coefficient, and a member of its right space with a
# random ansatz vector and free block.  The member's left minimal basis
# holds (k-1)(m-n) = 2 constants beyond P's lifted basis, which span the
# kernel of the ansatz projection and are dropped; the vectors that
# remain project to a different basis of P than the trimmed route gives.
RANDOM_MEMBER_COEFFS = [
    [[3, 0], [3, 0], [9, 0], [1, 0]],
    [[0, 3], [3, -1], [6, 1], [1, -2]],
    [[1, -2], [-1, -2], [-1, -6], [1, 3]],
]
RANDOM_MEMBER_ANSATZ = [-1, 1]
RANDOM_MEMBER_W = [[2, 3], [1, -2], [-1, -3], [2, -3], [3, 2], [-1, 0],
                   [1, -3], [-1, 0]]

RANDOM_MEMBER_DIGESTS = {
    "recover_glin_left":
        "b50c3afd0c4e1db784e4dec83deb526d72f0f62532685bf9233b16ca6877bf03",
    "recover_trimmed_left":
        "423e965d3138572403dd7b3dab5fa96ab35a9e60bc651c6e6c38d9f08f192076",
}


def test_random_member_left_recovery_pinned(tmp_path):
    def strings(rows):
        return [[str(x) for x in row] for row in rows]

    poly = tmp_path / "p.json"
    ansatz = tmp_path / "v.json"
    free = tmp_path / "w.json"
    member = tmp_path / "l.json"
    trimmed = tmp_path / "t.json"
    poly.write_text(dump_json({
        "m": 4, "n": 2, "grade": 2, "field": "rational",
        "coeffs": [strings(c) for c in RANDOM_MEMBER_COEFFS]}))
    ansatz.write_text(dump_json([str(x) for x in RANDOM_MEMBER_ANSATZ]))
    free.write_text(dump_json(strings(RANDOM_MEMBER_W)))
    member.write_text(_stdout(["build", str(poly), "--side", "l1",
                               "--ansatz", str(ansatz), "--w", str(free)]))
    trimmed.write_text(_stdout(["trim", str(member)]))
    texts = {
        "recover_glin_left": _stdout(
            ["recover", str(member), str(poly), "--mode", "glin_L1",
             "--side", "left"]),
        "recover_trimmed_left": _stdout(
            ["recover", str(trimmed), str(poly), "--mode", "trimmed_L1",
             "--side", "left"]),
    }
    left = {name: json.loads(text)["left"] for name, text in texts.items()}
    assert left["recover_glin_left"]["indices"] == [0, 3]
    assert left["recover_glin_left"] != left["recover_trimmed_left"]
    got = {name: _digest(text) for name, text in texts.items()}
    assert got == RANDOM_MEMBER_DIGESTS
