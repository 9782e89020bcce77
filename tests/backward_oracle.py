"""Reference helpers for the backward-error tests.

Nothing in the package calls these; they check the paper's appendix and
the trimmed pencil's scaling from the outside: the tridiagonal corner
blocks T and T_hat, the minimality margin of the shifted block row, how
far a trim sits from the well-scaled regime, and a JSON-lines rendering
of reports.
"""

import json

import numpy as np

from matpencil.backward import (_cond2, _is_block_minimal, _require_pencil,
                                _smin)
from matpencil.errors import PreconditionError, SchemaError
from matpencil.reduction import TrimResult

OPTIMAL_BAND = 10.0  # optimality_check's ratios pass within this factor


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


def t_hat(j: int):
    """The corner block with the extra one at the top left: T flipped."""
    out = (AppendixMatrices.d(j) + AppendixMatrices.l(j)
           + AppendixMatrices.l(j).T)
    out[0, 0] += 1.0
    return out


def _split_sizes(bp):
    """Recover (k, n) from a (k-1)n x kn block row."""
    rows, cols = bp.m, bp.n
    if cols <= rows or cols % (cols - rows) != 0:
        raise SchemaError("block row shape is not (k-1)n x kn")
    k = cols // (cols - rows)
    if k < 2:
        raise SchemaError("block row shape is not (k-1)n x kn")
    return k, cols - rows


def minimality_margin(bp, rt):
    """Is the (possibly perturbed) block row still a minimal basis with
    every row index equal to one?

    Checks the square convolution matrix for nonsingularity and the next
    one for full row rank.  The margin is the admissible perturbation
    radius 3 sigma_min(rt) / (2 k^(3/2)), returned for reference.
    """
    bp = _require_pencil(bp, "block row")
    k, _ = _split_sizes(bp)
    margin = 3.0 * _smin(rt) / (2.0 * k ** 1.5)
    return _is_block_minimal(bp, k), margin


def reports_to_jsonl(reports) -> str:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                   for r in reports)


def optimality_check(tr: TrimResult, p) -> dict:
    """Measure how far the trim sits from the well-scaled regime: both
    condition numbers near one and the strip norm near the scaled
    polynomial norm near the smallest singular value of the triangular
    factor."""
    if not isinstance(tr, TrimResult):
        raise SchemaError("expected a trimming record")
    alpha = abs(float(tr.alpha))
    p_norm = float(p.frob_norm())
    a_norm = float(tr.a_block().frob_norm())
    sig_r = _smin(tr.Rt)
    scaled = alpha * p_norm
    kappa_d, kappa_r = _cond2(tr.Dtilde), _cond2(tr.Rt)
    conditions = [
        {"name": "row_compression_conditioning",
         "value": kappa_d, "passes": kappa_d <= OPTIMAL_BAND},
        {"name": "triangular_factor_conditioning",
         "value": kappa_r, "passes": kappa_r <= OPTIMAL_BAND},
        {"name": "strip_norm_over_scaled_poly_norm",
         "value": a_norm / scaled,
         "passes": 1.0 / OPTIMAL_BAND <= a_norm / scaled <= OPTIMAL_BAND},
        {"name": "smallest_singular_over_scaled_poly_norm",
         "value": sig_r / scaled,
         "passes": 1.0 / OPTIMAL_BAND <= sig_r / scaled <= OPTIMAL_BAND},
    ]
    all_pass = all(c["passes"] for c in conditions)
    report = {
        "kind": "optimality_report",
        "conditions": conditions,
        "all_pass": all_pass,
        "recommendation": "" if all_pass else
        "rescale so the ansatz scale equals one over the polynomial norm",
    }
    return report
