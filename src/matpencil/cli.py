"""Command line driver: JSON files in, canonical JSON on stdout.

Exit codes are scriptable: 0 success, 1 malformed input (including bad
flags), 2 failed mathematical precondition (an input too large for memory
included), 3 failed verification.  A rejected linearization check and a
violated experimental bound both count as verification failures.

Reports are emitted through a canonical serializer (sorted keys, fixed
separators), so identical inputs and seed give byte-identical output.
Matrix-valued report fields carry a provenance tag naming the reduction
step that produced them.
"""

import argparse
import functools
import json
import os
import sys

from .backward import (appendix_lambda_min, run_experiment, sigma_min_tau,
                       summarize_experiment)
from .cases import (case1_member, case1_poly, case2_member, case2_poly,
                    case2_witnesses, case3_expected_lt, case3_member,
                    case3_published_d, case3_poly)
from .eigenstructure import (check_g_linearization, check_linearization,
                             complete_eigenstructure)
from .errors import (MatPencilError, PreconditionError, SchemaError,
                     VerificationError)
from .matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly, dump_json,
                      matrix_from_json, pencil_to_json)
from .minimal import (MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                      MODE_TRIMMED_L2, SIDE_LEFT, SIDE_RIGHT,
                      recover_minimal)
from .reduction import (TrimResult, max_z_rank, trim, verify_witnesses,
                        z_rank)
from .spaces import (SIDE_L1, SIDE_L2, AnsatzPencil, ansatz_membership,
                     build_l1, build_l2, companion_g1, companion_g2)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

SIGMA_MATCH_TOL = 1e-10
IDENTITY_TOL = 1e-12

# step tags echoed next to the matrix fields of a trimming report
TRIM_STEPS = {
    "M": "basis change sending the ansatz vector to alpha times the first axis",
    "Z": "lower left block of the transformed member's constant part",
    "Q1": "orthogonalized spanning rows from the split of the Z block",
    "Q2": "orthogonalized complement rows from the split of the Z block",
    "Rt": "triangular factor pairing Q1 with the Z block",
    "D": "row selection stacking the kept rows over the complement",
    "Dtilde": "change of basis relating the selected rows to the reduced form",
    "Lt": "trimmed pencil, the row selection applied to the member",
    "Lt_hat": "reduced form with identity top strip scaling",
    "K": "core pencil before the triangular factor is reapplied",
    "X12": "top strip of the leading coefficient after the basis change",
    "Y11": "top strip of the constant coefficient after the basis change",
}


def _read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        hint = ""
        if path.lstrip().startswith(("[", "{")):
            hint = " (arguments take a path to a JSON file, not inline JSON)"
        raise SchemaError(f"cannot read {path}: {e}{hint}") from e


def _load_poly(path, args) -> MatPoly:
    p = MatPoly.from_json_dict(_read_json(path))
    want = getattr(args, "field", None)
    if want and want != p.field:
        if want == FIELD_FLOAT:
            return p.to_float()
        raise SchemaError("float64 data cannot be promoted to rationals")
    return p


def _load_object(path):
    """Dispatch a pencil-like payload on its kind tag."""
    d = _read_json(path)
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    kind = d.get("kind")
    if kind == "ansatz_pencil":
        return AnsatzPencil.from_json_dict(d)
    if kind == "trim_result":
        return TrimResult.from_json_dict(d)
    return MatPoly.from_json_dict(d)


def _load_matrix(path, field):
    rows = _read_json(path)
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{path}: expected a nonempty JSON array")
    return matrix_from_json(rows, field)


def _load_vector(path, field):
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{path}: expected a nonempty JSON array")
    if isinstance(data[0], list):
        mat = matrix_from_json(data, field)
        if mat.shape[1] != 1:
            raise SchemaError("ansatz vector must be a single column")
        return mat[:, 0]
    return matrix_from_json([data], field)[0, :]


def _vec_json(v, field):
    return [field.scalar_to_json(x) for x in v]


# ---------------------------------------------------------------------------
# subcommands


def cmd_info(args) -> int:
    p = _load_poly(args.poly, args)
    print(dump_json({
        "kind": "info", "m": p.m, "n": p.n, "grade": p.grade,
        "degree": p.degree, "field": p.field,
        "normal_rank": p.normal_rank(),
        "frob_norm": p.frob_norm(),
    }))
    return EXIT_OK


def cmd_build(args) -> int:
    p = _load_poly(args.poly, args)
    if args.companion:
        member = companion_g1(p) if args.side == SIDE_L1 else companion_g2(p)
    else:
        if not args.ansatz or not args.w:
            raise SchemaError("build needs --ansatz and --w unless "
                              "--companion is given")
        v = _load_vector(args.ansatz, p.field)
        w = _load_matrix(args.w, p.field)
        member = (build_l1(p, v, w) if args.side == SIDE_L1
                  else build_l2(p, v, w))
    print(dump_json(member.to_json_dict()))
    return EXIT_OK


def cmd_check(args) -> int:
    p = _load_poly(args.poly, args)
    obj = _load_object(args.pencil)
    mode = "lin" if args.lin else "glin"
    if mode == "glin":
        verdict = check_g_linearization(obj, p, strong=args.strong)
    else:
        verdict = check_linearization(obj, p, strong=args.strong)
    membership = {SIDE_L1: None, SIDE_L2: None}
    pen = None
    if isinstance(obj, AnsatzPencil):
        pen = obj.pencil
    elif isinstance(obj, MatPoly):
        pen = obj
    if pen is not None:
        for side in (SIDE_L1, SIDE_L2):
            if (isinstance(obj, AnsatzPencil) and side == obj.side
                    and obj.poly.equal(p)):
                # verified on load; the vector is unique unless P is zero
                got = None if p.is_zero() else obj.ansatz
            else:
                try:
                    got = ansatz_membership(pen, p, side)
                except SchemaError:
                    got = None
            if got is not None:
                membership[side] = _vec_json(got, p.field)
    zr = z_rank(obj) if isinstance(obj, AnsatzPencil) else None
    print(dump_json({
        "kind": "check_report", "mode": mode, "strong": args.strong,
        "verdict": verdict.to_json_dict(), "membership": membership,
        "z_rank": zr,
        "full_z_rank": None if zr is None else zr == max_z_rank(obj),
    }))
    return EXIT_OK if verdict.ok else EXIT_VERIFICATION


def cmd_trim(args) -> int:
    obj = _load_object(args.pencil)
    if not isinstance(obj, AnsatzPencil):
        raise SchemaError("trim expects an ansatz pencil payload")
    d = None
    if args.d:
        d = _load_matrix(args.d, obj.field)
    tr = trim(obj, d)
    out = tr.to_json_dict()
    out["provenance"] = TRIM_STEPS
    print(dump_json(out))
    return EXIT_OK


def cmd_solve(args) -> int:
    p = _load_poly(args.poly, args)
    es = complete_eigenstructure(p)
    print(dump_json(es.to_json_dict()))
    return EXIT_OK


def cmd_recover(args) -> int:
    p = _load_poly(args.poly, args)
    source = _load_object(args.pencil)
    sides = ((SIDE_LEFT, SIDE_RIGHT) if args.side == "both"
             else (args.side,))
    report = {"kind": "recover_report", "mode": args.mode,
              SIDE_LEFT: None, SIDE_RIGHT: None}
    for side, mb in zip(sides, recover_minimal(source, p, sides, args.mode)):
        report[side] = mb.to_json_dict()
    print(dump_json(report))
    return EXIT_OK


def cmd_backward(args) -> int:
    p = _load_poly(args.poly, args)
    tr = _load_object(args.trim)
    if not isinstance(tr, TrimResult):
        raise SchemaError("backward expects a trimming record payload")
    reports = run_experiment(p, tr, args.eps, args.trials, args.seed)
    for r in reports:
        print(dump_json(r.to_json_dict()))
    summary = summarize_experiment(reports)
    print(dump_json(summary))
    if summary["bound_violations"]:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    k, n = args.k, args.n
    rows = []
    all_ok = True
    for j in (k - 2, k - 1):
        formula, svd = sigma_min_tau(k, n, j)
        ok = abs(formula - svd) <= SIGMA_MATCH_TOL
        all_ok = all_ok and ok
        rows.append({"j": j, "formula": formula, "svd": svd, "match": ok})
    corner = appendix_lambda_min(k)
    formula = rows[0]["formula"]
    identity_ok = abs(formula * formula - corner) <= IDENTITY_TOL
    print(dump_json({
        "kind": "lemma_check", "k": k, "n": n, "rows": rows,
        "corner_eigenvalue": corner, "identity_match": identity_ok,
    }))
    return EXIT_OK if all_ok and identity_ok else EXIT_VERIFICATION


def _require(flag: bool, message: str):
    if not flag:
        raise VerificationError(message)


def _entry_str(xv, yv) -> str:
    part = ""
    if xv != 0:
        if xv == 1:
            part = "l"
        elif xv == -1:
            part = "-l"
        else:
            part = f"{xv}*l"
    if yv != 0:
        if not part:
            return f"{yv}"
        return f"{part} + {yv}" if yv > 0 else f"{part} - {-yv}"
    return part or "0"


def render_pencil(pen) -> str:
    """Entries as polynomials in l, column aligned."""
    grid = [[_entry_str(pen.X[i, j], pen.Y[i, j]) for j in range(pen.n)]
            for i in range(pen.m)]
    widths = [max(len(row[j]) for row in grid) for j in range(pen.n)]
    return "\n".join("  ".join(row[j].rjust(widths[j])
                               for j in range(pen.n)) for row in grid)


def cmd_examples(args) -> int:
    i = args.number
    if i == 1:
        p, member = case1_poly(), case1_member()
        zr = z_rank(member)
        _require(zr == 1, "example 1: Z rank is not 1")
        weak = check_g_linearization(member, p)
        strong = check_g_linearization(member, p, strong=True)
        _require(weak.ok and strong.ok,
                 "example 1: member must certify weak and strong")
        print(dump_json({
            "kind": "example_report", "example": 1, "z_rank": zr,
            "weak": weak.to_json_dict(), "strong": strong.to_json_dict(),
            "note": "rank deficient Z block, still a strong "
                    "generalized linearization",
        }))
        return EXIT_OK
    if i == 2:
        p, member = case2_poly(), case2_member()
        weak = check_g_linearization(member, p)
        strong = check_g_linearization(member, p, strong=True)
        _require(weak.ok, "example 2: weak check must pass")
        _require(not strong.ok
                 and strong.reason == "infinite eigenvalue mismatch",
                 "example 2: strong check must fail at infinity")
        e, f = case2_witnesses()
        verify_witnesses(member.pencil, p, e, f)
        print(dump_json({
            "kind": "example_report", "example": 2,
            "weak": weak.to_json_dict(), "strong": strong.to_json_dict(),
            "witnesses_verified": True,
            "note": "generalized linearization that is not strong; the "
                    "pencil picks up an eigenvalue at infinity",
        }))
        return EXIT_OK
    p, member = case3_poly(), case3_member()
    tr = trim(member, case3_published_d())
    _require(tr.Lt.equal(case3_expected_lt()),
             "example 3: trimmed pencil differs from the published one")
    strong = check_linearization(tr, p, strong=True)
    _require(strong.ok, "example 3: trimmed pencil must be a strong "
                        "linearization")
    print("L_t =")
    print(render_pencil(tr.Lt))
    print(dump_json({
        "kind": "example_report", "example": 3,
        "trimmed_matches_published": True,
        "strong": strong.to_json_dict(),
        "lt": pencil_to_json(tr.Lt),
    }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError: bad flags are malformed input.
    Help is one {"kind": "help"} object, so stdout stays JSON."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        print(dump_json({"kind": "help", "text": self.format_help()}),
              file=file)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once and reused by every call."""
    ap = _Parser(
        prog="matpencil",
        description="Linearizations of rectangular matrix polynomials: "
                    "build, check, trim, solve, recover, and run "
                    "backward-error experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="sizes, degree, normal rank, norm")
    sp.add_argument("poly")
    sp.set_defaults(handler=cmd_info)

    sp = sub.add_parser("build", help="assemble an ansatz space member")
    sp.add_argument("poly")
    sp.add_argument("--side", choices=[SIDE_L1, SIDE_L2], default=SIDE_L1)
    sp.add_argument("--ansatz",
                    help="path to a JSON file holding the ansatz vector")
    sp.add_argument("--w", help="path to a JSON file holding the free "
                                "coefficient block")
    sp.add_argument("--companion", action="store_true",
                    help="use the companion member instead of --ansatz/--w")
    sp.set_defaults(handler=cmd_build)

    sp = sub.add_parser("check", help="linearization verdict plus "
                                      "membership and Z rank")
    sp.add_argument("pencil")
    sp.add_argument("poly")
    sp.add_argument("--strong", action="store_true")
    kind = sp.add_mutually_exclusive_group()
    kind.add_argument("--glin", action="store_true",
                      help="generalized linearization check (default)")
    kind.add_argument("--lin", action="store_true",
                      help="trimmed linearization check")
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("trim", help="delete the redundant rows of a member")
    sp.add_argument("pencil")
    sp.add_argument("--d", help="path to a JSON file holding an explicit "
                                "row selection matrix")
    sp.set_defaults(handler=cmd_trim)

    sp = sub.add_parser("solve", help="complete eigenstructure report")
    sp.add_argument("poly")
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("recover", help="minimal bases of the polynomial "
                                        "read off a pencil built from it")
    sp.add_argument("pencil")
    sp.add_argument("poly")
    sp.add_argument("--mode", required=True,
                    choices=[MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                             MODE_TRIMMED_L2])
    sp.add_argument("--side", choices=[SIDE_LEFT, SIDE_RIGHT, "both"],
                    default="both")
    sp.set_defaults(handler=cmd_recover)

    sp = sub.add_parser("backward", help="seeded perturbation experiment")
    sp.add_argument("poly")
    sp.add_argument("trim")
    sp.add_argument("--eps", type=float, required=True,
                    help="perturbation size as a fraction of the radius")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=cmd_backward)

    sp = sub.add_parser("lemma-check",
                        help="smallest singular value formula table")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=cmd_lemma_check)

    sp = sub.add_parser("examples", help="re-run a bundled reference case")
    sp.add_argument("number", type=int, choices=[1, 2, 3])
    sp.set_defaults(handler=cmd_examples)

    # --field only on the subcommands that read it
    for name in ("info", "build", "check", "solve", "recover", "backward"):
        sub.choices[name].add_argument(
            "--field", choices=[FIELD_RATIONAL, FIELD_FLOAT],
            help="convert the input polynomial to this field")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as e:
        # only --help exits the parser; usage errors raise SchemaError
        return EXIT_OK if not e.code else EXIT_SCHEMA
    except SchemaError as e:
        print(dump_json({"kind": "error", "error": "schema",
                         "message": str(e)}))
        return EXIT_SCHEMA
    except PreconditionError as e:
        print(dump_json({"kind": "error", "error": "precondition",
                         "message": str(e)}))
        return EXIT_PRECONDITION
    except MemoryError as e:
        # sizes that parse but whose arrays cannot be allocated
        print(dump_json({"kind": "error", "error": "precondition",
                         "message": f"input too large for memory: {e}"}))
        return EXIT_PRECONDITION
    except (VerificationError, MatPencilError) as e:
        print(dump_json({"kind": "error", "error": "verification",
                         "message": str(e)}))
        return EXIT_VERIFICATION


def entry():
    """Console entry point; a closed stdout exits 1 without a traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_SCHEMA
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
