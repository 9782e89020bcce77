"""Reference routes for the tests: the linear index walk and the linear
minimal basis.

The package's index_walk skips, on a settled side, the degrees that
probes placed by the Index Sum Theorem show to carry no index.  The tests
compare walk_indices and minimal_basis with these walks, which take every
convolution matrix from degree 0 up to the last index and read the
indices off the nullity growth, with the same checks, messages,
clear-of-the-cut flag and, for a basis, the same canonical nullspaces
and pivot rule.
"""

import numpy as np

from matpencil.errors import VerificationError
from matpencil.matpoly import MatPoly
from matpencil.minimal import SIDE_LEFT, MinimalBasis


def oracle_index_walk(p, want, nullity):
    """The want ascending indices off the nullity growth of p's
    convolution matrices, degree 0 upward; nullity(d) is the count at d."""
    bound = p.grade * min(p.m, p.n)
    indices = []
    prev = 0
    d = 0
    while len(indices) < want:
        if d > bound:
            raise VerificationError("index walk passed the degree bound")
        count = nullity(d)
        growth = count - prev
        if growth < len(indices):
            raise VerificationError("index profile is not monotone")
        indices.extend([d] * (growth - len(indices)))
        prev = count
        d += 1
    return tuple(indices)


def oracle_walk_indices(p, nrank):
    """Right and left minimal indices of p, of normal rank nrank, ranking
    conv(0), conv(1), ... on each side, and whether every rank decision
    stayed clear of the field's cut."""
    clear = []

    def indices(q, want):
        def nullity(d):
            rank, ok = q.field.rank_with_margin(q.conv_matrix(d))
            clear.append(ok)
            return (d + 1) * q.n - rank
        return oracle_index_walk(q, want, nullity)

    return (indices(p, p.n - nrank), indices(p.transpose(), p.m - nrank),
            all(clear))


def oracle_minimal_basis(p, side):
    """minimal_basis of p by the linear walk: the field's nullspace of
    conv(0), conv(1), ..., and at each degree whose nullity grows past
    the count of vectors kept, the pivots of the kept leading
    coefficients followed by the null columns' own; the count kept must
    equal that growth."""
    q = p.transpose() if side == SIDE_LEFT else p
    field, n = q.field, q.n
    leads, chosen, prev = field.zeros(n, 0), [], 0

    def nullity(d):
        nonlocal leads, prev
        ns = field.nullspace(q.conv_matrix(d))
        growth = ns.shape[1] - prev
        if growth > len(chosen):
            c = leads.shape[1]
            new = [j - c for j in field.pivots(
                np.concatenate([leads, ns[:n]], axis=1)) if j >= c]
            leads = np.concatenate([leads, ns[:n, new]], axis=1)
            chosen.extend(MatPoly(
                [ns[(d - i) * n:(d - i + 1) * n, j:j + 1].copy()
                 for i in range(d + 1)], field) for j in new)
        if len(chosen) != growth:
            raise VerificationError(
                "nullspace growth does not match the selected index profile")
        prev = ns.shape[1]
        return prev

    indices = oracle_index_walk(q, n - q.normal_rank(), nullity)
    return MinimalBasis(side, tuple(chosen), indices, field)
