"""Minimal bases of polynomial nullspaces and the recovery maps.

A minimal basis of the right (left) rational nullspace of a matrix
polynomial is a polynomial basis of least possible degree sum; the sorted
degrees are the minimal indices. The construction here walks the
nullspaces of the convolution matrices up the degrees and keeps every
candidate whose leading coefficient extends a row-reduced leading matrix,
which certifies minimality as it goes, each choice made by the field's
one pivot rule (Field.pivots); walk_indices reads the indices alone off
the ranks of the same matrices, on either field.  Both run one walk
driver, index_walk.  On a settled side, one whose other side holds no
indices or has been walked, the Index Sum Theorem bounds the sum of the
indices left: the driver reads a last index straight off one
elimination at that bound, and probes the gaps below when several are
left.  A decision that is not clear, or a count that shows an index
below the bound, leaves the walk to go on degree by degree; a probe the
walk never reaches adds no flag.  Float pencils' indices can also be
read off Van Dooren's staircase, whose SVDs are of blocks of the pencils
rather than of growing convolution matrices. The staircase runs on
stacks (stack_indices): one SVD call per step for all pencils whose
decisions agree so far, each decision still per pencil under the
field's one rank rule.

The other half of the module moves bases between a polynomial and the
pencils built from it: embedding into the Kronecker tower, projecting an
ansatz member's left nullvectors down, and one recovery routine for
members and trimming records alike. A member's left recovery reads the
member alone, through its block-row reduction (M kron I)*L, and carries
vectors back by applying M^T to their k blocks; it needs no trimming
record and forms no M kron I.  A record's reads only its checked
block-Kronecker form and carries vectors to P by alpha*Dtilde^T.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (PreconditionError, SchemaError, StructureError,
                     VerificationError)
from .field import FIELD_FLOAT, field_of
from .matpoly import MatPoly, block_apply, lambda_vec
from .reduction import WIDE_REFUSAL, TrimResult, transposed_problem
from .spaces import SIDE_L1, SIDE_L2, AnsatzPencil

SIDE_RIGHT = "right"
SIDE_LEFT = "left"

MODE_GLIN_L1 = "glin_L1"
MODE_GLIN_L2 = "glin_L2"
MODE_TRIMMED_L1 = "trimmed_L1"
MODE_TRIMMED_L2 = "trimmed_L2"
RECOVERY_MODES = (MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                  MODE_TRIMMED_L2)

def _trim_tail(v: MatPoly) -> MatPoly:
    """Drop explicit zero coefficients above the degree."""
    d = max(v.degree, 0)
    return MatPoly([v.coeff(i) for i in range(d + 1)], v.field)


def _clean(v: MatPoly) -> MatPoly:
    return MatPoly(v.field.clean(v.coeffs), v.field)


@dataclass(frozen=True, eq=False)
class MinimalBasis:
    """Vectors of a minimal nullspace basis with their degrees.

    Vectors are stored as single-column matrix polynomials in ascending
    degree order; indices holds the matching degrees.
    """
    side: str
    vectors: tuple
    indices: tuple
    field: str

    def __post_init__(self):
        object.__setattr__(self, "field", field_of(self.field))
        if self.side not in (SIDE_LEFT, SIDE_RIGHT):
            raise SchemaError(f"unknown side {self.side!r}")
        vecs = tuple(self.vectors)
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "indices", idx)
        if len(vecs) != len(idx):
            raise SchemaError("vector and index counts differ")
        for v, e in zip(vecs, idx):
            if not isinstance(v, MatPoly) or v.n != 1:
                raise SchemaError("basis entries must be column vector polynomials")
            if v.field != self.field:
                raise SchemaError("scalar fields differ")
            if e < 0 or v.degree != e:
                raise SchemaError("index does not match the vector degree")
        if vecs and any(a.m != vecs[0].m for a in vecs):
            raise SchemaError("basis vectors differ in length")
        if any(idx[i] > idx[i + 1] for i in range(len(idx) - 1)):
            raise SchemaError("indices must be ascending")

    @property
    def count(self) -> int:
        return len(self.vectors)

    def leading_matrix(self):
        """Columns are the coefficient of each vector at its own degree."""
        rows = self.vectors[0].m if self.vectors else 0
        out = self.field.zeros(rows, self.count)
        for j, (v, e) in enumerate(zip(self.vectors, self.indices)):
            out[:, j:j + 1] = v.coeff(e)
        return out

    def to_json_dict(self) -> dict:
        vecs = []
        for v in self.vectors:
            vecs.append([[self.field.scalar_to_json(c[i, 0])
                          for i in range(v.m)]
                         for c in v.coeffs])
        return {
            "kind": "minimal_basis",
            "side": self.side,
            "field": self.field,
            "entries": self.vectors[0].m if self.vectors else 0,
            "indices": list(self.indices),
            "vectors": vecs,
        }


def index_walk(p, want, step, probe=None, total=0) -> tuple:
    """The want ascending indices whose count grows, from degree d - 1 to
    d, by the number of indices <= d; that growth may never shrink, and
    every index is at most grade * min(m, n).

    step(d) returns the count at d: for the right minimal indices the
    nullity of p.conv_matrix(d), the degree <= d vector polynomials killed
    by p (De Terán, Dopico & Mackey, ELA 18, 2009), or a rank for the
    infinite degrees.  When the caller selects basis vectors as it goes,
    step also returns how many it holds so far (else None); that count
    must equal the growth at the same degree.  Both checks run at every
    degree the walk visits.

    Without probe the walk visits every degree from 0.  With it, the side
    is settled: total bounds the sum of the want indices (the Index Sum
    Theorem, De Terán, Dopico & Mackey, LAA 459, 2014, with the other
    side's sum taken off), and probe(D) returns the nullity at D and
    whether its decision is clear, with no other effect.  With E the
    indices found, all below d, conv(D) has nullity at least
    base(D) = sum over E of (D - e + 1), plus D - e + 1 for each index e
    left that is <= D.  Once per count of indices found (for w >= 2 left,
    only past degree 0, where a member's constants lie) the walk tries:
    - w = 1: the last index is at most D = total - sum(E), and it equals
      D exactly when the nullity at D is base(D) + 1; then the walk
      visits D next, as if it had seen base(D) - |E| at D - 1.
    - w >= 2: the least index left is at most (total - sum(E)) // w; at D
      one below that, a nullity of base(D) puts none in [d, D], and the
      walk resumes at D + 1 with that count.
    Each is taken only on a clear decision; otherwise the walk goes on
    from d, and the probe counts as a visit only if the walk reaches D.
    Over QQ every skip is exact.  On float64 a skipped degree is not
    decided, so a flag of clear decisions covers the degrees visited.
    """
    bound = p.grade * min(p.m, p.n)
    indices = []
    prev_count = 0
    d = 0
    skip = probe is not None
    while len(indices) < want:
        w = want - len(indices)
        if skip and (w == 1 or d > 0):
            skip = False
            rest = total - sum(indices)
            target = rest if w == 1 else rest // w - 1
            if target > d:
                base = sum(target - e + 1 for e in indices)
                count, clear = probe(target)
                if clear and count == base + (w == 1):
                    if w == 1:
                        d, prev_count = target, base - len(indices)
                    else:
                        d, prev_count = target + 1, count
                    continue
        if d > bound:
            raise VerificationError("index walk passed the degree bound")
        count, selected = step(d)
        growth = count - prev_count
        if selected is not None and selected != growth:
            raise VerificationError(
                "nullspace growth does not match the selected index profile")
        if growth < len(indices):
            raise VerificationError("index profile is not monotone")
        if growth > len(indices):
            indices.extend([d] * (growth - len(indices)))
            skip = probe is not None
        prev_count = count
        d += 1
    return tuple(indices)


def walk_indices(p: MatPoly, nrank: int):
    """Right and left minimal indices of p, of normal rank nrank, from the
    ranks of its convolution matrices alone, and whether every rank
    decision the walks made stayed clear of the field's cut (always, when
    exact).  Each side runs index_walk on the nullities of its
    convolution matrices, probed where the side is settled: the right
    side when p has full row rank (no left indices), the left side
    always, with the right indices' sum taken off its total
    grade * nrank.  A rank is taken once per degree, whether a probe or
    the walk asks first; a probe's decision counts only if the walk
    visits its degree.
    """
    clear = []

    def indices(q, want, total, settled):
        ranks = {}

        def probe(d):
            if d not in ranks:
                r, ok = q.field.rank_with_margin(q.conv_matrix(d))
                ranks[d] = (d + 1) * q.n - r, ok
            return ranks[d]

        def nullity(d):
            count, ok = probe(d)
            clear.append(ok)
            return count, None

        return index_walk(q, want, nullity, probe if settled else None,
                          total)

    total = p.grade * nrank
    right = indices(p, p.n - nrank, total, p.m == nrank)
    left = indices(p.transpose(), p.m - nrank, total - sum(right), True)
    return right, left, all(clear)


def _staircase(y, x):
    """Right minimal indices of each float pencil y[i] + l*x[i] of a stack
    of shape (b, rows, cols) (Van Dooren, LAA 27, 1979), and whether every
    rank decision stayed RANK_MARGIN from the cut: one (indices, clear)
    pair per pencil, in stack order.

    Step i compresses the columns of the current y to its nullity nu_i,
    then the rows of x on those null columns to their rank mu_i, and
    deflates to the block that both leave; nu_i - mu_i right minimal
    indices equal i - 1, and the walk stops once y has full column rank.
    All transforms are orthogonal, so each block belongs to a pencil
    within rounding of the whole one: every cut is the field's rule for
    the pencil's own whole [y x], its shape and its sigma_max, taken once
    per pencil per decision.  Each step makes one SVD call per group of
    pencils whose decisions have agreed so far; where a decision differs
    the group splits, since its blocks no longer share a shape.  Groups
    are indexed before they are sliced, so every block keeps the memory
    layout a lone pencil's would have, and with it the same bits.
    """
    b, rows, cols = y.shape
    shape = (rows, 2 * cols)
    refs = (np.linalg.svd(np.concatenate([y, x], axis=2),
                          compute_uv=False)[:, 0] if rows and cols
            else [0.0] * b)
    rank_cut = FIELD_FLOAT._rank_from_singular_values
    indices = [[] for _ in range(b)]
    clear = [True] * b

    def decide(ids, svals):
        """Each pencil's rank under its own ref; positions by rank, as a
        slice that copies nothing when every rank agrees."""
        groups = {}
        for j, (i, s) in enumerate(zip(ids, svals)):
            r, ok = rank_cut(s, shape, refs[i])
            clear[i] = clear[i] and ok
            groups.setdefault(r, []).append(j)
        if len(groups) == 1:
            return [(r, slice(None)) for r in groups]
        return groups.items()

    work = [(np.arange(b), y, x, 0)]
    while work:
        ids, y, x, degree = work.pop()
        if not y.shape[2]:
            continue
        _, s, vh = np.linalg.svd(y)
        for r, pos in decide(ids, s):
            if r == y.shape[2]:
                continue
            ids_r, y_r, x_r, vh_r = ids[pos], y[pos], x[pos], vh[pos]
            null = vh_r[:, r:].swapaxes(1, 2)
            u, s, _ = np.linalg.svd(x_r @ null)
            for mu, sub in decide(ids_r, s):
                for i in ids_r[sub]:
                    indices[i].extend([degree] * (null.shape[2] - mu))
                rest = u[sub][:, :, mu:].swapaxes(1, 2)
                kept = vh_r[sub][:, :r].swapaxes(1, 2)
                work.append((ids_r[sub], rest @ y_r[sub] @ kept,
                             rest @ x_r[sub] @ kept, degree + 1))
    return [(tuple(i), ok) for i, ok in zip(indices, clear)]


def stack_indices(y, x):
    """Right and left minimal indices of each float64 pencil y[i] +
    l*x[i] of a stack of shape (b, rows, cols), in stack order, and
    whether every rank decision stayed RANK_MARGIN from the cut and both
    sides agree on the normal rank.  The left indices come from the same
    staircase on the transposes."""
    rows, cols = y.shape[1:]
    right = _staircase(y, x)
    left = _staircase(y.swapaxes(1, 2), x.swapaxes(1, 2))
    return [(r, l, ok_r and ok_l and cols - len(r) == rows - len(l))
            for (r, ok_r), (l, ok_l) in zip(right, left)]


def minimal_basis(p, side: str, rank=None) -> MinimalBasis:
    """Minimal basis of the chosen rational nullspace of p.

    Walks the degrees with index_walk; nullvectors of the convolution
    matrix with d+1 block columns are exactly the degree <= d vector
    polynomials killed by p (coefficients stacked highest first).  A
    candidate is kept when its degree-d coefficient is a pivot (the
    field's pivots) of the leading coefficients already kept followed by
    the candidates'.  Candidates are tried only at a degree that carries a
    new index, where the nullity exceeds the sum of d - e + 1 over the
    indices e kept; at any other degree the kept vectors and their shifts
    span the nullspace, so no candidate could be kept.

    When p has full row rank (no left indices; full column rank for a
    left basis) the walk is settled and probes its nullspaces: a
    generic p's last index is the Index Sum bound, so past degree 0 one
    elimination there finds it and its vector, out of the same canonical
    nullspace a linear walk would read.  A nullspace is taken once per
    degree, whether a probe or the walk asks first.

    Exact arithmetic is the intended path; on float64 the nullspaces and
    the pivots use the field's one rank cut and warn near it, a probe's
    nullspace only if the walk visits its degree.  rank is p's normal
    rank (its transpose's, the same) when the caller has read it: a
    recovery reads it once for both sides; None reads it here.
    """
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")
    if side == SIDE_LEFT:
        dual = minimal_basis(p.transpose(), SIDE_RIGHT, rank)
        return MinimalBasis(SIDE_LEFT, dual.vectors, dual.indices, dual.field)
    if side != SIDE_RIGHT:
        raise SchemaError(f"unknown side {side!r}")
    field = p.field
    n = p.n
    leads = field.zeros(n, 0)  # the kept leading coefficients
    chosen = []
    spaces = {}  # nullspaces taken and not yet visited, by degree

    def probe(d):
        if d not in spaces:
            spaces[d] = field.nullspace_with_margin(p.conv_matrix(d))
        ns, clear = spaces[d]
        return ns.shape[1], clear

    def select(d):
        nonlocal leads
        probe(d)
        ns, clear = spaces.pop(d)
        if not clear:
            warnings.warn("nullspace rank decision is near the tolerance",
                          RuntimeWarning)
        if ns.shape[1] > sum(d - v.grade + 1 for v in chosen):
            c = leads.shape[1]
            new = [j - c for j in field.pivots(
                np.concatenate([leads, ns[:n, :]], axis=1)) if j >= c]
            leads = np.concatenate([leads, ns[:n, new]], axis=1)
            chosen.extend(MatPoly(
                [ns[(d - i) * n:(d - i + 1) * n, j:j + 1].copy()
                 for i in range(d + 1)], field) for j in new)
        return ns.shape[1], len(chosen)

    if rank is None:
        rank = p.normal_rank()
    indices = index_walk(p, n - rank, select,
                         probe if p.m == rank else None, p.grade * rank)
    basis = MinimalBasis(SIDE_RIGHT, tuple(chosen), indices, field)
    _certify(basis, p)
    return basis


def _certify(basis: MinimalBasis, p: MatPoly):
    """Zero residuals and a full-rank leading matrix; raises on either
    failure.  On the rational field each residual is that of the vector's
    integral multiple (the field's integral_multiple), which is zero
    exactly when the vector's own is, and is found on int arithmetic; a
    float vector is checked as it is."""
    for v in basis.vectors:
        w = MatPoly(p.field.integral_multiple(v.coeffs), v.field)
        res = (p.matmul(w) if basis.side == SIDE_RIGHT
               else w.transpose().matmul(p))
        if not p.field.negligible(res, p, v):
            raise VerificationError("basis vector fails the residual check")
    # a full-column-rank leading matrix makes the basis column reduced,
    # which implies full normal rank of the stacked vectors (Forney, SIAM
    # J. Control 13, 1975)
    if basis.count and basis.field.rank(basis.leading_matrix()) != basis.count:
        raise VerificationError("leading coefficient matrix is rank deficient")


def embed_right(x: MatPoly, k: int) -> MatPoly:
    """Kronecker tower of a right nullvector; degree grows by k-1."""
    if not isinstance(x, MatPoly) or x.n != 1:
        raise SchemaError("expected a column vector polynomial")
    if k < 1:
        raise SchemaError("grade must be positive")
    return lambda_vec(k, x.m, x.field).matmul(x)


def project_ansatz(v, y: MatPoly, m: int) -> MatPoly:
    """Contract the k blocks of y with the ansatz vector."""
    if not isinstance(y, MatPoly) or y.n != 1:
        raise SchemaError("expected a column vector polynomial")
    field = y.field
    vv = field.vector(v)
    k = vv.shape[0]
    if y.m != k * m:
        raise PreconditionError(
            f"length mismatch: {y.m} entries vs {k} blocks of {m}")
    return MatPoly([block_apply(vv.reshape(1, k), c) for c in y.coeffs],
                   field)


def _strip_tower(base: MinimalBasis, p: MatPoly, k: int,
                 rank: int) -> MinimalBasis:
    """Peel Lambda_k kron x off every vector of a right pencil basis;
    p has normal rank rank."""
    n = p.n
    field = base.field
    xs = []
    for y in base.vectors:
        bottom = MatPoly([c[(k - 1) * n:, :] for c in y.coeffs], field)
        if not field.negligible(embed_right(bottom, k) - y, y):
            raise StructureError("right nullvector lacks the tower form")
        xs.append(bottom)
    return _pack_checked(xs, p, SIDE_RIGHT, rank)


def _pack_checked(vecs, p: MatPoly, side: str, rank: int) -> MinimalBasis:
    """Clean recovered nullvectors of p, of normal rank rank, sort them
    into a basis and certify it (_certify): zero residuals, checked
    exactly on each vector's integral multiple, n - rank vectors
    (m - rank on the left) and a full-rank leading matrix, so the basis
    is column reduced. Minimality of the degrees is not re-checked; it
    rests on the recovery theorems, and a recovered (l - 1)*x would
    pass."""
    field = p.field
    expected = (p.n if side == SIDE_RIGHT else p.m) - rank
    if len(vecs) != expected:
        raise VerificationError(
            f"index count mismatch: got {len(vecs)}, expected {expected}")
    vecs = [_clean(v) for v in vecs]
    pairs = sorted(((v.degree, v) for v in vecs), key=lambda t: t[0])
    if pairs and pairs[0][0] < 0:
        raise VerificationError("recovered a zero vector")
    vectors = tuple(_trim_tail(v) for _, v in pairs)
    indices = tuple(d for d, _ in pairs)
    basis = MinimalBasis(side, vectors, indices, field)
    _certify(basis, p)
    return basis


def recover_minimal(source, p, sides, mode: str) -> tuple:
    """Minimal bases of p read off from a pencil built from it, one per
    entry of sides.  The arguments are checked first; then the normal
    ranks of p and of the source pencil are read once, as two integers,
    for every side.

    A member is read through its pencil and ansatz vector, a trimming
    record only through its checked right-side form (_form): the pencil,
    Dtilde, alpha and the top strip that check_source holds to p.
    Left-space sources run the right-space rules on the transposed
    problem: a member is transposed, and a record's form already is.
    """
    for side in sides:
        if side not in (SIDE_LEFT, SIDE_RIGHT):
            raise SchemaError(f"unknown side {side!r}")
    if mode not in RECOVERY_MODES:
        raise SchemaError(f"unknown recovery mode {mode!r}")
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")
    left = mode in (MODE_GLIN_L2, MODE_TRIMMED_L2)
    space, wanted = ("left", SIDE_L2) if left else ("right", SIDE_L1)
    if mode in (MODE_GLIN_L1, MODE_GLIN_L2):
        if not isinstance(source, AnsatzPencil) or source.side != wanted:
            raise SchemaError(f"mode expects a {space}-space member")
        if not source.poly.equal(p):
            raise SchemaError("member was built from a different polynomial")
        if left:
            source = source.transpose()
        pencil = source.pencil
    else:
        if not isinstance(source, TrimResult) or source.side != wanted:
            raise SchemaError(f"mode expects a {space}-space trimming record")
        source.check_source(p)
        pencil = source._form.pencil
    if left:
        p = p.transpose()
    ranks = p.normal_rank(), pencil.normal_rank()
    if not left:
        return tuple(_recover(source, p, pencil, side, *ranks)
                     for side in sides)
    dual = {SIDE_LEFT: SIDE_RIGHT, SIDE_RIGHT: SIDE_LEFT}
    with transposed_problem():
        bases = [_recover(source, p, pencil, dual[side], *ranks)
                 for side in sides]
    return tuple(MinimalBasis(side, b.vectors, b.indices, b.field)
                 for side, b in zip(sides, bases))


def _recover(source, p: MatPoly, pencil: MatPoly, side: str, p_rank: int,
             pencil_rank: int) -> MinimalBasis:
    """One side of recover_minimal from a right-space member or a
    trimming record's right-side form, whose pencil is pencil; p and
    pencil have normal ranks p_rank and pencil_rank.  Right bases of both
    are Kronecker towers and are peeled.  A member's left basis is carried to
    P by the ansatz projection; it is P's lifted plus (k-1)(m-n) constants
    that span the projection's kernel, which are dropped.  A record's left
    vector y goes to alpha * (Dtilde^T y)[:m]: Lt = Dtilde*diag(I, Rt)*K,
    checked as the record was made, and top*(Lambda kron I) = alpha*P,
    checked by check_source, make that a left nullvector of P, and it
    equals the projection of D^T y by the trimmed member's ansatz."""
    member = isinstance(source, AnsatzPencil)
    if side == SIDE_RIGHT:
        # every right nullvector of L is a tower exactly when L has as many
        # as P; a wide P's member has more unless P is rank deficient
        if member and p.m < p.n and (source.k * p.n - pencil_rank
                                     > p.n - p_rank):
            raise PreconditionError(WIDE_REFUSAL)
        base = minimal_basis(pencil, SIDE_RIGHT, pencil_rank)
        return _strip_tower(base, p, source.k, p_rank)
    if member:
        red = source._form
        comp = red.complement
    base = minimal_basis(pencil, SIDE_LEFT, pencil_rank)
    if member:
        qs = [project_ansatz(source.ansatz, y, p.m)
              for y in _past_kernel(source, red, comp, base)]
    else:
        form = source._form
        carry = form.D[:, :p.m].T * form.alpha
        qs = [MatPoly([carry @ c for c in y.coeffs], p.field)
              for y in base.vectors]
    return _pack_checked(qs, p, SIDE_LEFT, p_rank)


def _past_kernel(l: AnsatzPencil, red, comp, base: MinimalBasis) -> list:
    """The vectors of the member's left minimal basis that project to P's:
    with the constants (M^T kron I)[0; N] spanning the projection's
    kernel, N = comp the left complement of Z, the base's constants that
    are pivots past that span, in order, until it is as large as the
    base's constant count, then every higher vector.  Selecting here
    rather than among the projections keeps a float projection that
    vanishes up to rounding from counting as independent."""
    if comp.shape[1] == 0:
        return list(base.vectors)
    field, m = l.field, l.poly.m
    kernel = []
    for j in range(comp.shape[1]):
        col = field.zeros(l.pencil.m, 1)
        col[m:, 0] = comp[:, j]
        u = MatPoly([block_apply(red.M.T, col)], field)
        if not field.negligible(u.transpose().matmul(l.pencil), l.pencil, u):
            raise VerificationError("kernel vector fails the pencil residual")
        kernel.append(u)
    constants = [y for y, e in zip(base.vectors, base.indices) if e == 0]
    k0 = len(kernel)
    piv = field.pivots(np.concatenate(
        [u.coeff(0) for u in kernel + constants], axis=1))[:len(constants)]
    if piv[:k0] != list(range(k0)):
        raise VerificationError("kernel vectors are dependent")
    if len(piv) != len(constants):
        raise VerificationError(
            "constant completion failed; no special basis found")
    return ([constants[j - k0] for j in piv[k0:]]
            + [y for y, e in zip(base.vectors, base.indices) if e > 0])
