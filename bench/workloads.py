"""Seeded inputs and CLI pipelines for the benchmark workloads.

A case is one input polynomial carried through its workload's CLI
pipeline.  A round holds one case per shape of the workload (plus the
bundled examples on `certify`); `make_round(workload, seed, r)` draws
round r, and the same seed and round always give the same polynomials.
Runs take as many rounds as fit in their time, so every shape is timed
on several independent draws: single exact cases of one shape differ by
up to 3x in cost from one draw to the next.

This module knows nothing of matpencil's internals: it writes the JSON
payloads the CLI reads and names the subcommands to run on them.  Each
case's `check` inspects the outputs of its ops and returns an error
string or None.
"""

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify", "regular", "recover", "backward")

# (m, n, k); tall shapes go through the right space L1, wide ones
# through the left space L2.
CERTIFY_SHAPES = ((3, 2, 2), (2, 3, 2), (3, 2, 3), (4, 3, 2), (3, 4, 2))
# Extra draws per round of the shapes certify's metrics rest on:
# case_s_p50 is the latency of the two cheap k2 shapes and big_case_s
# that of the two k2 shapes of size 24.  They come after the round's
# other cases, so the digests golden.json holds for those still apply.
CERTIFY_EXTRA = ((3, 2, 2), (2, 3, 2)) * 2 + ((4, 3, 2), (3, 4, 2))
REGULAR_SHAPES = ((2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3))
# The largest shape comes twice per round: big_case_s rests on it, and
# its planted draws differ by up to 2x in cost.
PLANTED_SHAPES = ((4, 3, 2), (4, 3, 3), (4, 3, 3))
BACKWARD_SHAPES = ((3, 2, 2), (4, 2, 3), (4, 3, 3), (5, 4, 3))
BACKWARD_TRIALS = 100
BACKWARD_EPS = "0.5"


@dataclass
class Op:
    """One CLI call, which must exit 0.  argv names files of the case
    directory by their bare names; `out` is the file the call's stdout is
    written to, so later ops can read it.  `exact` marks output that must
    stay byte-identical."""
    label: str
    argv: list
    out: str = None
    exact: bool = True


@dataclass
class Case:
    name: str
    shape: tuple
    files: dict
    ops: list
    check: object = None
    big: bool = False  # of the workload's largest shape, for big_case_s


def _rational_json(coeffs):
    m, n = coeffs[0].shape
    return {"m": m, "n": n, "grade": len(coeffs) - 1, "field": "rational",
            "coeffs": [[[str(int(x)) for x in row] for row in c]
                       for c in coeffs]}


def _float_json(coeffs):
    m, n = coeffs[0].shape
    return {"m": m, "n": n, "grade": len(coeffs) - 1, "field": "float64",
            "coeffs": [[[float(x) for x in row] for row in c]
                       for c in coeffs]}


def _int_coeffs(rng, m, n, k):
    """Generic integer coefficients in [-5, 5]: full-rank leading and
    trailing blocks, so the inputs carry no planted structure."""
    while True:
        coeffs = [rng.integers(-5, 6, (m, n)) for _ in range(k + 1)]
        r = min(m, n)
        if (np.linalg.matrix_rank(coeffs[0].astype(float)) == r
                and np.linalg.matrix_rank(coeffs[-1].astype(float)) == r):
            return coeffs


def _det_at(coeffs, t):
    return np.linalg.det(sum(c.astype(float) * t ** i
                             for i, c in enumerate(coeffs)))


def _is_regular(coeffs):
    # det P vanishes identically only if it vanishes at every point
    return any(abs(_det_at(coeffs, t)) > 1e-6 for t in (0.37, 1.91, -2.3))


def _side(m, n):
    return "l1" if m >= n else "l2"


def _parse(out):
    """Last JSON object of a stdout text."""
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# certify: strong certification of generic rectangular polynomials


def _verdict_error(outs, labels):
    for label in labels:
        rep = _parse(outs[label])
        if not rep["verdict"]["ok"]:
            return f"{label}: verdict {rep['verdict']}"
    return None


def _certify_check(outs):
    return _verdict_error(outs, ("check_glin", "check_lin"))


def _certify_case(rng, m, n, k):
    side = _side(m, n)
    ops = [
        Op("build", ["build", "P.json", "--side", side, "--companion"],
           "L.json"),
        Op("check_glin", ["check", "L.json", "P.json", "--strong"]),
        Op("trim", ["trim", "L.json"], "T.json"),
        Op("check_lin", ["check", "T.json", "P.json", "--lin", "--strong"]),
    ]
    return Case(f"{m}x{n}k{k}", (m, n, k),
                {"P.json": _rational_json(_int_coeffs(rng, m, n, k))},
                ops, _certify_check)


def _examples_case(i):
    return Case(f"example{i}", (), {},
                [Op(f"examples_{i}", ["examples", str(i)])])


def certify_round(rng):
    cases = [_certify_case(rng, *s) for s in CERTIFY_SHAPES]
    cases += [_examples_case(i) for i in (1, 2, 3)]
    return cases + [_certify_case(rng, *s) for s in CERTIFY_EXTRA]


# ---------------------------------------------------------------------------
# regular: square polynomials with non-trivial Smith forms


def _deficient_coeffs(rng, n, k):
    """Rank-deficient A_0 and A_k: eigenvalues at 0 and at infinity."""
    while True:
        coeffs = [rng.integers(-5, 6, (n, n)) for _ in range(k + 1)]
        for c in (coeffs[0], coeffs[-1]):
            c[-1] = int(rng.choice([-2, -1, 1, 2])) * c[0]
        if _is_regular(coeffs):
            return coeffs


def _shifted_coeffs(rng, n, k, r):
    """(l - r) Q(l) with Q of grade k-1: every invariant factor carries
    the linear factor l - r."""
    while True:
        q = [rng.integers(-5, 6, (n, n)) for _ in range(k)]
        zero = np.zeros((n, n), dtype=np.int64)
        coeffs = [(q[i - 1] if i > 0 else zero) - r * (q[i] if i < k else zero)
                  for i in range(k + 1)]
        if _is_regular(coeffs) and np.any(coeffs[-1]):
            return coeffs


def _regular_check(n, root):
    def check(outs):
        err = _verdict_error(outs, ("check_glin",))
        if err:
            return err
        es = _parse(outs["solve"])
        if es["nrank"] != n or es["right_indices"] or es["left_indices"]:
            return f"solve: not a regular {n}x{n} structure"
        if root is None:
            facs = {tuple(f["factor"]): f["exponents"] for f in es["finite"]}
            if ("0", "1") not in facs:
                return "solve: missing the eigenvalue at 0"
            if not es["infinite"]:
                return "solve: missing the eigenvalue at infinity"
            return None
        for f in es["finite"]:
            if f["factor"] == [str(-root), "1"]:
                if len(f["exponents"]) == n:
                    return None
                return f"solve: factor l - {root} not in every invariant factor"
        return f"solve: missing the factor l - {root}"
    return check


def regular_round(rng):
    cases = []
    for n, _, k in REGULAR_SHAPES:
        for kind in ("deficient", "shifted"):
            if kind == "deficient":
                root, coeffs = None, _deficient_coeffs(rng, n, k)
            else:
                root = int(rng.choice([-2, -1, 1, 2]))
                coeffs = _shifted_coeffs(rng, n, k, root)
            ops = [
                Op("build", ["build", "P.json", "--companion"], "L.json"),
                Op("check_glin", ["check", "L.json", "P.json", "--strong"]),
                Op("solve", ["solve", "P.json"]),
            ]
            cases.append(Case(f"{n}x{n}k{k}-{kind}", (n, n, k),
                              {"P.json": _rational_json(coeffs)}, ops,
                              _regular_check(n, root)))
    return cases


# ---------------------------------------------------------------------------
# recover: minimal-basis recovery


def _planted_coeffs(rng, m, n, k):
    """m x n grade-k product C(l) K(l) with K an (n-1) x n pencil whose
    rows annihilate x0 + l x1: a degree-one right nullvector, and a left
    nullspace of dimension m - n + 1."""
    while True:
        x0 = rng.integers(-3, 4, n)
        x1 = rng.integers(-3, 4, n)
        if (x0[0], x1[0]) == (0, 0):
            continue
        if np.linalg.matrix_rank(np.vstack([x0, x1]).astype(float)) < 2:
            continue
        k0 = np.zeros((n - 1, n), dtype=np.int64)
        k1 = np.zeros((n - 1, n), dtype=np.int64)
        for i in range(n - 1):
            k0[i, 0], k0[i, i + 1] = x0[i + 1], -x0[0]
            k1[i, 0], k1[i, i + 1] = x1[i + 1], -x1[0]
        c = [rng.integers(-3, 4, (m, n - 1)) for _ in range(k)]
        coeffs = [np.zeros((m, n), dtype=np.int64) for _ in range(k + 1)]
        for i, ci in enumerate(c):
            coeffs[i] += ci @ k0
            coeffs[i + 1] += ci @ k1
        if np.any(coeffs[-1]):
            return coeffs


def _recover_check(outs):
    es = _parse(outs["solve"])
    want = {"right": es["right_indices"], "left": es["left_indices"]}
    for label in ("recover_glin", "recover_trimmed"):
        rep = _parse(outs[label])
        for side in ("right", "left"):
            got = rep[side]["indices"]
            if got != want[side]:
                return f"{label}: {side} indices {got}, solve gives {want[side]}"
    return None


def _recover_case(name, shape, coeffs):
    m, n, _ = shape
    side = _side(m, n)
    ops = [
        Op("solve", ["solve", "P.json"]),
        Op("build", ["build", "P.json", "--side", side, "--companion"],
           "L.json"),
        Op("recover_glin", ["recover", "L.json", "P.json", "--mode",
                            f"glin_{side.upper()}"]),
        Op("trim", ["trim", "L.json"], "T.json"),
        Op("recover_trimmed", ["recover", "T.json", "P.json", "--mode",
                               f"trimmed_{side.upper()}"]),
    ]
    return Case(name, shape, {"P.json": _rational_json(coeffs)}, ops,
                _recover_check)


def recover_round(rng):
    cases = [_recover_case(f"{m}x{n}k{k}", (m, n, k),
                           _int_coeffs(rng, m, n, k))
             for m, n, k in CERTIFY_SHAPES]
    return cases + [_recover_case(f"{m}x{n}k{k}-planted", (m, n, k),
                                  _planted_coeffs(rng, m, n, k))
                    for m, n, k in PLANTED_SHAPES]


# ---------------------------------------------------------------------------
# backward: float64 backward-error experiments


def _backward_check(outs):
    summary = _parse(outs["backward"])
    if summary["trials"] != BACKWARD_TRIALS:
        return f"backward: {summary['trials']} trials, asked {BACKWARD_TRIALS}"
    if summary["bound_violations"] != 0:
        return f"backward: {summary['bound_violations']} bound violations"
    return None


def backward_round(rng):
    cases = []
    for m, n, k in BACKWARD_SHAPES:
        coeffs = [rng.standard_normal((m, n)) for _ in range(k + 1)]
        trial_seed = str(int(rng.integers(0, 2 ** 31)))
        ops = [
            Op("build", ["build", "P.json", "--companion"], "L.json",
               exact=False),
            Op("trim", ["trim", "L.json"], "T.json", exact=False),
            Op("backward", ["backward", "P.json", "T.json", "--eps",
                            BACKWARD_EPS, "--trials", str(BACKWARD_TRIALS),
                            "--seed", trial_seed], exact=False),
        ]
        cases.append(Case(f"{m}x{n}k{k}", (m, n, k),
                          {"P.json": _float_json(coeffs)}, ops,
                          _backward_check))
    return cases


_ROUNDS = {"certify": certify_round, "regular": regular_round,
           "recover": recover_round, "backward": backward_round}


def make_round(workload, seed, r):
    """Round r of a workload for a seed.  Each (workload, seed, round)
    draws from its own stream, so a round's inputs do not depend on how
    many rounds a run reaches."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    cases = _ROUNDS[workload](rng)
    size = max(m * n * k for m, n, k in (c.shape for c in cases if c.shape))
    for c in cases:
        c.big = bool(c.shape) and c.shape[0] * c.shape[1] * c.shape[2] == size
    return cases
