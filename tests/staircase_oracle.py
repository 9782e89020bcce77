"""Reference route for the tests: the pencil staircase one pencil at a
time.

The package's _staircase runs a stack of pencils through each step with
one SVD call per group of pencils whose decisions agree.  The tests
compare it with this staircase, which compresses a single pencil with
the same rank rule, ref and shape, and reads the same indices and
clear-of-the-cut flag.  pencil_indices runs one pencil through the
package's stacked staircase as a stack of one.
"""

import numpy as np

from matpencil.field import FIELD_FLOAT
from matpencil.minimal import stack_indices


def _staircase(y, x):
    """Right minimal indices of the float pencil y + l*x (Van Dooren, LAA
    27, 1979), and whether every rank decision stayed RANK_MARGIN from
    the cut.

    Step i compresses the columns of the current y to its nullity nu_i,
    then the rows of x on those null columns to their rank mu_i, and
    deflates to the block that both leave; nu_i - mu_i right minimal
    indices equal i - 1, and the walk stops once y has full column rank.
    All transforms are orthogonal, so each block belongs to a pencil
    within rounding of the whole one: every cut is the field's rule for
    the whole [y x], its shape and its sigma_max.
    """
    whole = np.hstack([y, x])
    ref = np.linalg.svd(whole, compute_uv=False)[0] if whole.size else 0.0
    rank_cut = FIELD_FLOAT._rank_from_singular_values
    indices, clear, degree = [], True, 0
    while y.shape[1]:
        _, s, vh = np.linalg.svd(y)
        r, ok_y = rank_cut(s, whole.shape, ref)
        clear = clear and ok_y
        if r == y.shape[1]:
            break
        kept, null = vh[:r].T, vh[r:].T
        u, s, _ = np.linalg.svd(x @ null)
        mu, ok_x = rank_cut(s, whole.shape, ref)
        clear = clear and ok_x
        indices.extend([degree] * (null.shape[1] - mu))
        rest = u[:, mu:].T
        y, x = rest @ y @ kept, rest @ x @ kept
        degree += 1
    return tuple(indices), clear


def oracle_pencil_indices(pencil):
    """Right and left minimal indices of a float64 pencil Y + l*X off the
    one-pencil staircase, and whether every decision was clear and both
    sides agree on the normal rank."""
    y, x = pencil.coeff(0), pencil.coeff(1)
    right, ok_r = _staircase(y, x)
    left, ok_l = _staircase(y.T, x.T)
    agree = pencil.n - len(right) == pencil.m - len(left)
    return right, left, ok_r and ok_l and agree


def pencil_indices(pencil):
    """Right and left minimal indices of a float64 pencil Y + l*X, read
    off the package's staircase as a stack of one, and whether every rank
    decision stayed RANK_MARGIN from the cut and both sides agree on the
    normal rank."""
    return stack_indices(pencil.coeff(0)[None], pencil.coeff(1)[None])[0]
