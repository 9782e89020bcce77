"""Backward-error machinery for trimmed pencils.

Covers completion of the dual polynomial basis after a perturbation of
the shifted block row, the perturbed polynomial the trimmed pencil
actually linearizes, the backward-error constants, and a seeded
experiment driver that checks the advertised bound trial by trial.

Trials are independent pure computations; each one draws from its own
generator seeded by (seed, trial index), so execution order cannot leak
between trials and reports are listed in trial order.  The perturbed
pencils' staircases run stacked, TRIAL_BLOCK trials at a time, with every
rank decision still taken per pencil under the field's one rule.
"""

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import PreconditionError, SchemaError, VerificationError
from .field import FIELD_FLOAT, field_of_array
from .matpoly import MatPoly, _require_keys, h_dual, lambda_vec
from .minimal import stack_indices, walk_indices
from .reduction import TrimResult
from .spaces import SIDE_L2

__all__ = [
    "AppendixMatrices",
    "PerturbReport",
    "appendix_lambda_min",
    "backward_constants",
    "dual_completion",
    "perturbed_polynomial",
    "run_experiment",
    "sigma_min_tau",
    "summarize_experiment",
]

# trials per block; a block's perturbed pencils run one stacked staircase
TRIAL_BLOCK = 32


def _require_pencil(x, what: str) -> MatPoly:
    if not isinstance(x, MatPoly) or x.grade != 1:
        raise SchemaError(what + " must be a pencil")
    return x


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


class AppendixMatrices:
    """Tridiagonal comparison blocks for the Gram matrix of the shifted
    block row's convolution matrix."""

    @staticmethod
    def d(j: int) -> np.ndarray:
        if j < 1:
            raise PreconditionError("block size must be positive")
        out = 2.0 * np.eye(j)
        out[0, 0] = 1.0
        out[j - 1, j - 1] = 1.0
        return out

    @staticmethod
    def l(j: int) -> np.ndarray:
        if j < 1:
            raise PreconditionError("block size must be positive")
        return np.diag(-np.ones(j - 1), -1)

    @classmethod
    def t(cls, j: int) -> np.ndarray:
        out = cls.d(j) + cls.l(j) + cls.l(j).T
        out[j - 1, j - 1] += 1.0
        return out


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
# Minimality and dual completion


def _is_block_minimal(bp: MatPoly, k: int) -> bool:
    c_sq = bp.conv_matrix(k - 2)
    c_row = bp.conv_matrix(k - 1)
    return (bp.field.rank(c_sq) == c_sq.shape[0]
            and bp.field.rank(c_row) == c_row.shape[0])


def dual_completion(bp, k: int, n: int, rt=None, delta_b=None) -> MatPoly:
    """Correction of the dual polynomial basis after the block row moved.

    Solves the exact annihilation condition for the perturbed row as a
    linear system in the correction's coefficients, taking the minimum
    norm solution.  When the base triangular factor and the row
    perturbation are supplied, the admissible radius precondition and the
    norm bound on the correction are enforced as well.  The perturbed dual
    pair is verified minimal before returning.
    """
    bp = _require_pencil(bp, "block row")
    if (bp.m, bp.n) != ((k - 1) * n, k * n):
        raise SchemaError("block row shape is not (k-1)n x kn")
    dbn = None
    if delta_b is not None:
        db = _require_pencil(delta_b, "row perturbation")
        dbn = db.frob_norm()
    if rt is not None and dbn is not None:
        sig_r = _smin(rt)
        if not dbn < sig_r / (2.0 * k ** 1.5):
            raise PreconditionError("row perturbation exceeds the dual "
                                    "completion radius")
    field = bp.field
    lam = lambda_vec(k, n, field)
    target = bp.matmul(lam)
    x = field.min_norm_solve(
        bp.conv_matrix(k - 1),
        np.vstack([target.coeff(i) for i in range(target.grade, -1, -1)]))
    if x is None:
        raise VerificationError("dual completion system is rank deficient")
    x = -x
    kn = k * n
    coeffs = [x[(k - 1 - i) * kn:(k - i) * kn, :] for i in range(k)]
    dd = MatPoly([np.ascontiguousarray(c) for c in coeffs], field)
    if not field.negligible(bp.matmul(lam + dd), bp, lam + dd):
        raise VerificationError("dual completion residual above tolerance")
    if rt is not None and dbn is not None:
        limit = k * math.sqrt(2.0) / sig_r * dbn
        if dd.frob_norm() > limit * (1.0 + 1e-12):
            raise VerificationError("dual completion norm bound failed")
    if not _is_block_minimal(bp, k):
        raise VerificationError("perturbed block row is not a minimal "
                                "basis")
    if field.rank((lam + dd).coeff(k - 1)) != n:
        raise VerificationError("perturbed dual basis is not column "
                                "reduced")
    return dd


def perturbed_polynomial(a, da, dd, alpha) -> MatPoly:
    """The polynomial the perturbed trimmed pencil actually linearizes,
    relative to the original: (1/alpha) ((A + dA) dD + dA Lambda)."""
    a = _require_pencil(a, "top strip")
    da = _require_pencil(da, "strip perturbation")
    if float(alpha) == 0.0:
        raise PreconditionError("scale must be nonzero")
    if (a.field, a.m, a.n) != (da.field, da.m, da.n):
        raise SchemaError("strip and perturbation shapes differ")
    if dd is None:
        raise SchemaError("dual correction is required; pass a zero "
                          "polynomial of shape kn x n")
    if dd.m != a.n:
        raise SchemaError("dual correction height must match the strip "
                          "width")
    n = dd.n
    if a.n % n != 0:
        raise SchemaError("strip width is not a multiple of the dual "
                          "width")
    k = a.n // n
    lam = lambda_vec(k, n, a.field)
    out = (a + da).matmul(dd) + da.matmul(lam)
    return out.scale(a.field.div(a.field.one, a.field.scalar(alpha)))


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
    a_norm = float(tr.a_block().frob_norm())
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
    conclusive: bool = True

    def bound_holds(self) -> bool:
        if self.epsilon >= self.bound_rhs:
            return True
        return self.ratio <= self.constant_full

    def to_json_dict(self) -> dict:
        return {"kind": "perturb_report", **asdict(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PerturbReport":
        """Load a report; fields with a default (conclusive) may be
        missing."""
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _require_keys(d, ("kind", *required), "perturbation report")
        if d["kind"] != "perturb_report":
            raise SchemaError("not a perturbation report")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


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

    Trials run in blocks of TRIAL_BLOCK: each trial of a block runs up to
    its perturbed pencil, then the block's pencils go through one stacked
    staircase (stack_indices), whose decisions are per pencil under the
    field's one rank rule, and the block's reports follow in trial order.
    Memory stays bounded by the block, whatever the trial count.
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
    tr.check_source(p)
    k, m, n = tr.k, tr.m, tr.n
    pf = p.to_float()
    dt = _fmatrix(tr.Dtilde)
    rt = _fmatrix(tr.Rt)
    af = tr.a_block().to_float()
    bf = tr.b_block().to_float()
    ltf = tr.Lt.to_float()
    alpha = float(tr.alpha)
    sig_r = _smin(rt)
    bound = sig_r * _smin(dt) / (2.0 * k ** 1.5)
    lt_norm = ltf.frob_norm()
    p_norm = pf.frob_norm()
    c_hat, c_full = backward_constants(tr, p)
    kappa_d = _cond2(dt)
    kappa_r = _cond2(rt)
    epsilon = eps_fraction * bound
    rows = m + (k - 1) * n

    ly, lx = ltf.coeff(0), ltf.coeff(1)

    def trial(t):
        """Trial t up to the perturbed pencil, whose staircase runs with
        its block's: ((dP norm, ratio, the perturbed polynomial's
        indices), (Y, X) of the perturbed pencil)."""
        rng = np.random.default_rng([seed, t])
        dx = rng.standard_normal((rows, k * n))
        dy = rng.standard_normal((rows, k * n))
        s = epsilon / math.sqrt(np.sum(dx * dx) + np.sum(dy * dy))
        dx *= s
        dy *= s
        ex = np.linalg.solve(dt, dx)
        ey = np.linalg.solve(dt, dy)
        da = MatPoly([ey[:m], ex[:m]], FIELD_FLOAT)
        db = MatPoly([ey[m:], ex[m:]], FIELD_FLOAT)
        dd = dual_completion(bf + db, k, n, rt=rt, delta_b=db)
        dp = perturbed_polynomial(af, da, dd, alpha)
        dpn = dp.frob_norm()
        ratio = (dpn / p_norm) / (epsilon / lt_norm)
        pp = pf + dp
        return ((dpn, ratio, walk_indices(pp, pp.normal_rank())),
                (ly + dy, lx + dx))

    reports = []
    for start in range(0, trials, TRIAL_BLOCK):
        done, pencils = zip(*[trial(t) for t in
                              range(start, min(start + TRIAL_BLOCK, trials))])
        ys, xs = map(np.stack, zip(*pencils))
        for (dpn, ratio, (rp, lp_idx, ok_p)), (rl, ll, ok_l) in zip(
                done, stack_indices(ys, xs)):
            preserved = (rl == tuple(e + k - 1 for e in rp) and ll == lp_idx)
            reports.append(PerturbReport(
                epsilon=epsilon, bound_rhs=bound, delta_P_norm=dpn,
                ratio=ratio, constant_hat=c_hat, constant_full=c_full,
                kappa_dtilde=kappa_d, kappa_rtilde=kappa_r,
                sigma_min_rtilde=sig_r, indices_preserved=preserved,
                conclusive=ok_p and ok_l))
    return reports
