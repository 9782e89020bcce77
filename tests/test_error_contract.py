"""The command line's error contract, fuzzed.

Every payload, however malformed or extreme, ends in exit code 0, 1, 2
or 3 with JSON lines on stdout and no traceback.  A nonzero exit prints
exactly one error object, except that a rejected check and a violated
experimental bound exit 3 with their ordinary report.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matpencil import cli
from matpencil.cases import case3_poly
from matpencil.cli import main

EXTREMES = {
    "rational": ["1" + "0" * 400, "-1/1" + "0" * 400, "7/3"],
    "float64": [1e308, -1.5e308, 5e-324, -1e-320, 1e-200],
}
# wrong types for both fields, out-of-range and non-finite spellings
MALFORMED = [None, True, "x", "1/0", "NaN", [1], {}, 1.5, 10 ** 400]
REPORTS_ON_EXIT_3 = ("check_report", "experiment_summary")


@st.composite
def payloads(draw):
    field = draw(st.sampled_from(sorted(EXTREMES)))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    grade = draw(st.integers(-1, 3))
    plain = str if field == "rational" else float
    coeffs = [[[plain(draw(st.integers(-3, 3))) for _ in range(n)]
               for _ in range(m)] for _ in range(max(grade + 1, 0))]
    rows = [r for c in coeffs for r in c]
    special = st.sampled_from(EXTREMES[field] + MALFORMED)
    for _ in range(draw(st.integers(0, 2)) if rows and n else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, n - 1))] = draw(special)
    defect = draw(st.sampled_from(["none"] * 6 + ["ragged", "short",
                                                  "no_key"]))
    if defect == "ragged" and rows:
        rows[0].append(plain(1))
    if defect == "short" and coeffs and coeffs[-1]:
        coeffs[-1].pop()
    d = {"m": m, "n": n, "grade": grade, "field": field, "coeffs": coeffs}
    if defect == "no_key":
        del d[draw(st.sampled_from(sorted(d)))]
    return d


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    lines = [json.loads(line) for line in out.splitlines()]
    errors = [x for x in lines if x.get("kind") == "error"]
    if code == 0:
        assert not errors, (argv, out)
    elif not (code == 3 and not errors
              and lines[-1]["kind"] in REPORTS_ON_EXIT_3):
        assert len(lines) == 1 and len(errors) == 1, (argv, out)
    return code, out


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=payloads())
def test_every_payload_keeps_the_error_contract(tmp_path, d):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    p = write("p.json", json.dumps(d))
    run(["info", p])
    run(["solve", p])
    for side in ("1", "2"):
        code, out = run(["build", p, "--side", "l" + side, "--companion"])
        if code:
            continue
        member = write("l.json", out)
        run(["check", member, p, "--strong"])
        run(["recover", member, p, "--mode", "glin_L" + side])
        code, out = run(["trim", member])
        if code == 0:
            run(["backward", p, write("t.json", out), "--eps", "0.5",
                 "--trials", "2", "--seed", "0"])


def test_negative_seed_is_a_precondition_error(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"m": 2, "n": 1, "grade": 2, "field": "float64",
                             "coeffs": [[[1.0], [2.0]], [[0.5], [-1.0]],
                                        [[3.0], [1.0]]]}))
    code, out = run(["build", str(p), "--side", "l1", "--companion"])
    assert code == 0
    member = tmp_path / "l.json"
    member.write_text(out)
    code, out = run(["trim", str(member)])
    assert code == 0
    t = tmp_path / "t.json"
    t.write_text(out)
    code, out = run(["backward", str(p), str(t), "--eps", "0.5", "--trials",
                     "2", "--seed", "-1"])
    assert code == 2
    assert json.loads(out)["kind"] == "error"


@pytest.mark.parametrize("degenerate", ["zero_polynomial", "zero_scale",
                                        "singular_rt", "singular_dtilde"])
def test_backward_without_a_bound_is_a_precondition_error(tmp_path,
                                                          degenerate):
    """Consistent records whose bound or constants would divide by zero:
    the zero polynomial's companion trim, and case 3's companion trim
    with alpha = 0 and a zero top strip, a zero Rt, or a repeated row of
    Dtilde, each with Lt = Dtilde * Lt_hat kept."""
    def write(name, d):
        path = tmp_path / name
        path.write_text(d if isinstance(d, str) else json.dumps(d))
        return str(path)

    zero = {"m": 3, "n": 2, "grade": 2, "field": "rational",
            "coeffs": [[["0"] * 2] * 3] * 3}
    p = write("p.json", zero if degenerate == "zero_polynomial"
              else case3_poly().to_json_dict())
    code, out = run(["build", p, "--side", "l1", "--companion"])
    assert code == 0
    code, out = run(["trim", write("l.json", out)])
    assert code == 0
    d = json.loads(out)
    m = d["m"]

    def zero_rows(keys, rows):
        for key in keys:
            for coeff in d[key].values():
                for row in coeff[rows]:
                    row[:] = ["0"] * len(row)

    if degenerate == "zero_scale":
        d["alpha"] = "0"
        zero_rows(("Lt", "Lt_hat", "K"), slice(None, m))
        for key in ("X12", "Y11"):
            d[key] = [["0"] * len(row) for row in d[key]]
    elif degenerate == "singular_rt":
        d["Rt"] = [["0"] * len(row) for row in d["Rt"]]
        zero_rows(("Lt", "Lt_hat"), slice(m, None))
    elif degenerate == "singular_dtilde":
        assert d["Dtilde"] == [["1" if i == j else "0" for j in range(5)]
                               for i in range(5)]
        d["Dtilde"][1] = d["Dtilde"][0]
        for coeff in d["Lt"].values():
            coeff[1] = coeff[0]
    code, out = run(["backward", p, write("t.json", d), "--eps", "0.5",
                     "--trials", "3", "--seed", "0"])
    assert code == 2
    assert json.loads(out)["error"] == "precondition"


@pytest.mark.parametrize("argv, callee", [
    (["lemma-check", "--k", "100000", "--n", "1"], "sigma_min_tau"),
    (["examples", "3"], "trim"),
])
def test_out_of_memory_is_a_precondition_error(monkeypatch, argv, callee):
    # stands in for numpy's "Unable to allocate 74.5 GiB" without
    # allocating anything
    def raise_memory_error(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, callee, raise_memory_error)
    code, out = run(argv)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "precondition"
    assert "74.5 GiB" in err["message"]
