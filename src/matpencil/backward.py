"""Backward-error machinery for trimmed pencils.

Covers completion of the dual polynomial basis after a perturbation of
the shifted block row, the perturbed polynomial the trimmed pencil
actually linearizes, the backward-error constants, and a seeded
experiment driver that checks the advertised bound trial by trial.

Trials are independent pure computations; each one draws from its own
generator seeded by (seed, trial index), so execution order cannot leak
between trials and reports are listed in trial order.  They run
TRIAL_BLOCK at a time as one stack: the solves, the dual completion, the
perturbed polynomial, their norms, the first normal-rank sample and the
pencils' staircases take one numpy call per step for the whole block,
with every decision still taken per trial under the field's one rule;
a lone trial is a stack of one.  Three steps stay per trial: the draws,
from each trial's own generator; the dual completion's minimum norm
solves, since np.linalg.lstsq takes 2-D arrays only; and the
polynomial's index walk, whose cost is the flops of its SVDs, not call
overhead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MatPencilError, PreconditionError, SchemaError,
                     VerificationError)
from .field import FIELD_FLOAT, field_of_array
from .matpoly import (_SQRT_FLOAT_MIN, MatPoly, _conv, _stack_product,
                      h_dual, lambda_vec)
from .minimal import stack_indices, walk_indices
from .reduction import TrimResult
from .spaces import SIDE_L2

__all__ = [
    "PerturbReport",
    "appendix_lambda_min",
    "backward_constants",
    "dual_completion",
    "perturbed_polynomial",
    "run_experiment",
    "sigma_min_tau",
    "summarize_experiment",
]

# trials per block; a block runs as one stack up to the per-trial walks
TRIAL_BLOCK = 32


def _fmatrix(a) -> np.ndarray:
    a = np.asarray(a)
    return field_of_array(a).to_float(a)


def _smin(a) -> float:
    a = _fmatrix(a)
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def _cond2(a) -> float:
    return float(np.linalg.cond(_fmatrix(a), 2))


# ---------------------------------------------------------------------------
# Spectral reference values


def appendix_lambda_min(k: int) -> float:
    """Smallest eigenvalue of the leading corner block, closed form."""
    if k < 2:
        raise PreconditionError("grade must be at least 2")
    return 2.0 + 2.0 * math.cos(2.0 * (k - 1) * math.pi / (2 * k - 1))


def sigma_min_tau(k: int, n: int, j: int):
    """Smallest singular value of the j-block convolution matrix of the
    dual shift pencil: the closed form next to an SVD evaluation."""
    if k < 2:
        raise PreconditionError("grade must be at least 2")
    if n < 1:
        raise PreconditionError("block width must be positive")
    if j not in (k - 2, k - 1):
        raise PreconditionError("block count must be k-2 or k-1")
    formula = 2.0 * math.sin(math.pi / (4 * k - 2))
    tau = h_dual(k - 1, n, FIELD_FLOAT)
    computed = float(np.linalg.svd(tau.conv_matrix(j),
                                   compute_uv=False)[-1])
    return formula, computed


# ---------------------------------------------------------------------------
# Stacks of polynomials
#
# Every polynomial below is float64 and sits in a stack, one array (b,
# g+1, rows, cols) of ascending coefficients (see matpoly): a lone trial
# is a stack of one.  Every step is elementwise, a sum over each
# coefficient, or a stacked @, solve or svd, which numpy runs slice by
# slice, so each slice comes out with the bits of a stack of one
# (TestStackOfOne checks it).


def _poly(c) -> MatPoly:
    """One polynomial of a stack, as a MatPoly."""
    return MatPoly(list(c), FIELD_FLOAT)


def _frob_norms(c) -> list:
    """MatPoly.frob_norm of each polynomial of a stack.  The squares of
    the whole stack are summed at once, coefficient by coefficient in
    MatPoly's order; a slice whose sum leaves the float range takes
    MatPoly.frob_norm's scaled sum, and its errors."""
    with np.errstate(over="ignore"):
        sq = np.sum(c * c, axis=(2, 3))
    total = 0
    for j in range(sq.shape[1]):
        total = total + sq[:, j]
    return [_poly(x).frob_norm() if y == math.inf or y < _SQRT_FLOAT_MIN
            else y for x, y in zip(c, np.sqrt(total).tolist())]


def _normal_ranks(pp) -> list:
    """MatPoly.normal_rank of each polynomial of a stack.  Every sample of
    the whole stack is evaluated at once and the first ones are ranked by
    one SVD call; a polynomial with a sample out of the float range, or
    whose first sample falls short of full rank, samples on through
    MatPoly.normal_rank, which raises for the former."""
    g, m, n = pp.shape[1] - 1, pp.shape[2], pp.shape[3]
    full = min(m, n)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = []
        for t in range(1, g * full + 2):
            acc = pp[:, g]
            for i in range(g - 1, -1, -1):
                acc = acc * float(t) + pp[:, i]
            samples.append(acc)
    finite = np.isfinite(samples).all(axis=(0, 2, 3))
    ranks = np.full(len(pp), -1)
    ranks[finite] = FIELD_FLOAT.ranks(samples[0][finite])
    return [r if r == full else _poly(c).normal_rank()
            for c, r in zip(pp, ranks.tolist())]


# ---------------------------------------------------------------------------
# Minimality and dual completion


def _is_block_minimal(bp, k: int) -> list:
    """Whether each block row of a stack is a minimal basis: conv(k-2)
    nonsingular and conv(k-1) of full row rank."""
    c_sq, c_row = _conv(bp, k - 2), _conv(bp, k - 1)
    return [a == c_sq.shape[1] and b == c_row.shape[1] for a, b in
            zip(FIELD_FLOAT.ranks(c_sq), FIELD_FLOAT.ranks(c_row))]


def dual_completion(bp, k: int, n: int, sig_r: float, delta_b):
    """Corrections of the dual polynomial basis after the block row moved.

    Solves the exact annihilation condition for each perturbed row as a
    linear system in the correction's coefficients, taking the minimum
    norm solution.  sig_r, the smallest singular value of the base
    triangular factor Rt, and the row perturbations delta_b set the
    admissible radius precondition and the norm bound on the correction,
    both enforced.  Each perturbed dual pair is verified minimal before
    returning.

    bp and delta_b are float64 stacks (b, 2, (k-1)n, kn) of block rows
    and their perturbations; the result is the stack (b, k, kn, n) of
    corrections.  Each step takes one call for the whole stack, except the
    minimum norm solves, which are one per row.  Every check is per row,
    and raises when any row fails it.
    """
    if bp.shape[1:] != (2, (k - 1) * n, k * n):
        raise SchemaError("block row shape is not (k-1)n x kn")
    dbn = _frob_norms(delta_b)
    radius = sig_r / (2.0 * k ** 1.5)
    if not all(x < radius for x in dbn):
        raise PreconditionError("row perturbation exceeds the dual "
                                "completion radius")
    lam = np.stack(lambda_vec(k, n, FIELD_FLOAT).coeffs)
    rhs = _stack_product(bp, lam)[:, ::-1].reshape(len(bp), -1, n)
    xs = [FIELD_FLOAT.min_norm_solve(a, y)
          for a, y in zip(_conv(bp, k - 1), rhs)]
    kn = k * n
    dd = np.ascontiguousarray(-np.stack(xs).reshape(-1, k, kn, n)[:, ::-1])
    lam_dd = lam + dd
    residual = _stack_product(bp, lam_dd)
    if not all(FIELD_FLOAT.negligible(*slices)
               for slices in zip(residual, bp, lam_dd)):
        raise VerificationError("dual completion residual above tolerance")
    limits = (k * math.sqrt(2.0) / sig_r * x for x in dbn)
    if not all(x <= limit * (1.0 + 1e-12)
               for x, limit in zip(_frob_norms(dd), limits)):
        raise VerificationError("dual completion norm bound failed")
    if not all(_is_block_minimal(bp, k)):
        raise VerificationError("perturbed block row is not a minimal basis")
    if not all(r == n for r in FIELD_FLOAT.ranks(lam_dd[:, k - 1])):
        raise VerificationError("perturbed dual basis is not column "
                                "reduced")
    return dd


def perturbed_polynomial(a, da, dd, alpha):
    """The polynomials the perturbed trimmed pencil actually linearizes,
    relative to the original: (1/alpha) ((A + dA) dD + dA Lambda).

    a holds the top strip's coefficients (2, m, kn); da and dd are float64
    stacks (b, 2, m, kn) and (b, k, kn, n) of strip perturbations and dual
    corrections.  The result is the stack (b, k+1, m, n)."""
    if float(alpha) == 0.0:
        raise PreconditionError("scale must be nonzero")
    n = dd.shape[-1]
    lam = np.stack(lambda_vec(a.shape[-1] // n, n, FIELD_FLOAT).coeffs)
    return ((_stack_product(a + da, dd) + _stack_product(da, lam))
            * (1.0 / float(alpha)))


# ---------------------------------------------------------------------------
# Constants and reports


def backward_constants(tr: TrimResult, p):
    """The two backward-error constants of a trimmed pencil: the
    normalized one and the full one carrying the conditioning of the
    row compression."""
    if not isinstance(tr, TrimResult):
        raise SchemaError("expected a trimming record")
    if (tr.m, tr.n, tr.k) != (p.m, p.n, p.grade):
        raise SchemaError("trimming record sizes do not match the "
                          "polynomial")
    k = tr.k
    alpha = abs(float(tr.alpha))
    p_norm = float(p.frob_norm())
    lt_hat_norm = float(tr.Lt_hat.frob_norm())
    a_norm = float(tr.top.frob_norm())
    sig_r = _smin(tr.Rt)
    c_hat = (lt_hat_norm / p_norm / alpha) * (3.0 + 2.0 * k * a_norm / sig_r)
    c_full = _cond2(tr.Dtilde) * c_hat
    return c_hat, c_full


@dataclass(frozen=True)
class PerturbReport:
    """One perturbation trial: the sampled size, the admissible radius,
    the induced polynomial perturbation, and the bound data."""
    epsilon: float
    bound_rhs: float
    delta_P_norm: float
    ratio: float
    constant_hat: float
    constant_full: float
    kappa_dtilde: float
    kappa_rtilde: float
    sigma_min_rtilde: float
    indices_preserved: bool
    conclusive: bool

    def bound_holds(self) -> bool:
        if self.epsilon >= self.bound_rhs:
            return True
        return self.ratio <= self.constant_full

    def to_json_dict(self) -> dict:
        return {"kind": "perturb_report", **vars(self)}


def summarize_experiment(reports) -> dict:
    ratios = [r.ratio for r in reports]
    return {
        "kind": "experiment_summary",
        "trials": len(reports),
        "max_ratio": max(ratios) if ratios else 0.0,
        "constant_full": reports[0].constant_full if reports else 0.0,
        "bound_violations": sum(1 for r in reports if not r.bound_holds()),
        "all_indices_preserved": all(r.indices_preserved for r in reports),
        "inconclusive": sum(1 for r in reports if not r.conclusive),
    }


# ---------------------------------------------------------------------------
# Experiment driver


def run_experiment(p, tr: TrimResult, eps_fraction: float, trials: int,
                   seed: int):
    """Randomized check of the backward-error bound.

    Per trial: sample a pencil perturbation of Frobenius norm
    eps_fraction times the admissible radius, split it through the row
    compression into strip and block-row parts, complete the dual basis,
    build the induced polynomial perturbation, and compare minimal
    indices of the perturbed polynomial against the perturbed pencil
    under the unperturbed shift rules.  The two sides use independent
    methods: the polynomial's indices come from the convolution walk that
    defines them, the pencil's from its staircase.

    Trials run in blocks of TRIAL_BLOCK, each block as one stack: the
    draws are per trial, from the trial's own generator; the Dtilde
    solves, the dual completion, the perturbed polynomial, its norm and
    the first normal-rank sample take one call per step for the block,
    except the dual completion's per-trial lstsq; the polynomial walks
    run trial by trial, being flops-bound; then the block's pencils go
    through one stacked staircase (stack_indices).  Every decision is
    per trial under the field's one rule and that trial's own reference,
    and the block's reports follow in trial order.  When a block raises,
    its trials run again one at a time, each as a stack of one, and the
    first error raised is the one a trial-by-trial run raises.  Memory
    stays bounded by the block, whatever the trial count.
    """
    if not isinstance(tr, TrimResult):
        raise SchemaError("expected a trimming record")
    if tr.side == SIDE_L2:
        tr = tr.transpose()
        p = p.transpose()
    if not 0.0 < eps_fraction < 1.0:
        raise PreconditionError("perturbation fraction must sit strictly "
                                "inside the radius")
    if trials < 1:
        raise PreconditionError("need at least one trial")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    tr.check_source(p)
    k, m, n = tr.k, tr.m, tr.n
    pf = p.to_float()
    dt = _fmatrix(tr.Dtilde)
    rt = _fmatrix(tr.Rt)
    ltf = tr.Lt.to_float()
    alpha = float(tr.alpha)
    sig_r = _smin(rt)
    bound = sig_r * _smin(dt) / (2.0 * k ** 1.5)
    lt_norm = ltf.frob_norm()
    p_norm = pf.frob_norm()
    if alpha == 0.0 or p_norm == 0.0 or bound == 0.0:
        raise PreconditionError("the bound needs a nonzero scale and "
                                "polynomial and nonsingular Rt and Dtilde")
    c_hat, c_full = backward_constants(tr, p)
    kappa_d = _cond2(dt)
    kappa_r = _cond2(rt)
    epsilon = eps_fraction * bound
    rows = m + (k - 1) * n

    ly, lx = ltf.coeffs
    a_strip, b_row, p_coeffs = (
        np.stack(x.coeffs) for x in (tr.top.to_float(),
                                     tr.b_block().to_float(), pf))

    def block(ts):
        """The reports of trials ts, run as one stack up to the polynomial
        walks, which run trial by trial, and the stacked staircase."""
        draws = []
        for t in ts:
            rng = np.random.default_rng([seed, t])
            draws.append((rng.standard_normal((rows, k * n)),
                          rng.standard_normal((rows, k * n))))
        dx, dy = map(np.stack, zip(*draws))
        s = epsilon / np.sqrt(np.sum(dx * dx, axis=(1, 2))
                              + np.sum(dy * dy, axis=(1, 2)))
        dx *= s[:, None, None]
        dy *= s[:, None, None]
        # [E_y, E_x] = Dtilde^-1 [dY, dX]: the strip rows, then the block row
        de = np.linalg.solve(dt, np.stack([dy, dx], axis=1))
        da, db = de[:, :, :m], de[:, :, m:]
        dd = dual_completion(b_row + db, k, n, sig_r, db)
        dp = perturbed_polynomial(a_strip, da, dd, alpha)
        dpns = _frob_norms(dp)
        pp = p_coeffs + dp
        walks = [walk_indices(_poly(c), r)
                 for c, r in zip(pp, _normal_ranks(pp))]
        reports = []
        for dpn, (rp, lp_idx, ok_p), (rl, ll, ok_l) in zip(
                dpns, walks, stack_indices(ly + dy, lx + dx)):
            preserved = (rl == tuple(e + k - 1 for e in rp) and ll == lp_idx)
            reports.append(PerturbReport(
                epsilon=epsilon, bound_rhs=bound, delta_P_norm=dpn,
                ratio=(dpn / p_norm) / (epsilon / lt_norm), constant_hat=c_hat,
                constant_full=c_full, kappa_dtilde=kappa_d,
                kappa_rtilde=kappa_r, sigma_min_rtilde=sig_r,
                indices_preserved=preserved, conclusive=ok_p and ok_l))
        return reports

    reports = []
    for start in range(0, trials, TRIAL_BLOCK):
        ts = range(start, min(start + TRIAL_BLOCK, trials))
        try:
            reports += block(ts)
        except MatPencilError:
            # a stacked step raises for the block; the first trial that
            # raises on its own is the one a trial-by-trial run stops at
            for t in ts:
                block([t])
            raise
    return reports
