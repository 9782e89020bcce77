"""Byte-for-byte pins of the CLI's exact output.

Each digest is the sha256 of one subcommand's stdout.  Only exact
(rational) operations are pinned, so the digests do not depend on the
BLAS build.  A change to the arithmetic backend or to the serializer that
moves any byte of these reports fails here.
"""

import contextlib
import hashlib
import io

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
