"""Reference route for the tests: in-order echelon span growth.

The package picks independent columns by the field's one pivot rule
(``Field.pivots``, on the rational field the pivot columns of the exact
rref).  The tests compare it with this reference, which reduces each
vector against the echelon rows kept so far and keeps it when a nonzero
entry is left, so a vector is kept exactly when it is independent of the
vectors kept before it.
"""

from matpencil import exactla as xla


def span_add(rows, vec) -> bool:
    """Reduce the rational vector vec against the (pivot, row) echelon
    rows; keep it, normalized at its first nonzero entry, when a nonzero
    entry is left."""
    w = xla.fvec(list(vec))
    for pivot, row in rows:
        if w[pivot] != 0:
            w = w - w[pivot] * row
    for j in range(w.shape[0]):
        if w[j] != 0:
            rows.append((j, xla.div(w, w[j])))
            return True
    return False


def span_pivots(a) -> list:
    """The columns of the rational matrix a that span_add keeps, in
    order."""
    rows = []
    return [j for j in range(a.shape[1]) if span_add(rows, a[:, j])]
