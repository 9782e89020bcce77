"""Reference route for the tests: the linear index walk.

The package's walk_indices skips the degrees below a rank probe that the
Index Sum Theorem places.  The tests compare it with this walk, which
ranks every convolution matrix from degree 0 up to the last index and
reads the indices off the nullity growth, with the same checks, messages
and clear-of-the-cut flag.
"""

from matpencil.errors import VerificationError


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
