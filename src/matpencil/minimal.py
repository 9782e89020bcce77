"""Minimal bases of polynomial nullspaces and the recovery maps.

A minimal basis of the right (left) rational nullspace of a matrix
polynomial is a polynomial basis of least possible degree sum; the sorted
degrees are the minimal indices. The construction here walks the
nullspaces of the convolution matrices degree by degree and keeps every
candidate whose leading coefficient extends a row-reduced leading matrix,
which certifies minimality as it goes, each choice made by the field's
one pivot rule (Field.pivots); walk_indices reads the indices alone off
the ranks of the same matrices, on either field. Its walks
start past one rank probe per side: the Index Sum Theorem bounds the
least index, and a full-rank, clear decision just below that bound
settles every lower degree at once. A probe that fails leaves the walk
to run from degree 0, and its decision adds no flag unless the walk
reaches it. Float pencils' indices can also be read off Van Dooren's
staircase, whose SVDs are of blocks of the pencils rather than of
growing convolution matrices. The staircase runs on stacks
(stack_indices): one SVD call per step for all pencils whose decisions
agree so far, each decision still per pencil under the field's one rank
rule.

The other half of the module moves bases between a polynomial and the
pencils built from it: embedding into the Kronecker tower, projecting an
ansatz member's left nullvectors down, and one recovery routine for
members and trimming records alike. A member's left recovery reads the
member alone, through its block-row reduction (M kron I)*L, and carries
vectors back by applying M^T to their k blocks; it needs no trimming
record and forms no M kron I.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (PreconditionError, SchemaError, StructureError,
                     VerificationError)
from .field import FIELD_FLOAT, field_of
from .matpoly import MatPoly, block_apply, lambda_vec, _require_keys
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "MinimalBasis":
        _require_keys(d, ("kind", "side", "field", "indices", "vectors"),
                      "minimal basis")
        if d["kind"] != "minimal_basis":
            raise SchemaError("not a minimal basis document")
        field = field_of(d["field"])
        vecs = []
        for coeff_lists in d["vectors"]:
            if not coeff_lists:
                raise SchemaError("a vector needs at least one coefficient")
            rows = len(coeff_lists[0])
            coeffs = []
            for cl in coeff_lists:
                if len(cl) != rows:
                    raise SchemaError("coefficient lengths differ")
                c = field.zeros(rows, 1)
                for i, s in enumerate(cl):
                    c[i, 0] = field.scalar_from_json(s)
                coeffs.append(c)
            vecs.append(MatPoly(coeffs, field))
        return cls(d["side"], tuple(vecs), tuple(d["indices"]), field)


def index_walk(p: MatPoly, want: int, step, start: int = 0) -> tuple:
    """The want ascending indices whose count grows, from degree d - 1 to
    d, by the number of indices <= d; that growth may never shrink, and
    every index is at most grade * min(m, n).

    step(d) returns the count at d: for the right minimal indices the
    nullity of p.conv_matrix(d), the degree <= d vector polynomials killed
    by p (De Terán, Dopico & Mackey, ELA 18, 2009), or a rank for the
    infinite degrees.  When the caller selects basis vectors as it goes,
    step also returns how many it holds so far (else None); that count
    must equal the growth at the same degree.  The walk begins at start,
    below which the caller has shown every count to be 0.
    """
    bound = p.grade * min(p.m, p.n)
    indices = []
    prev_count = 0
    d = start
    while len(indices) < want:
        if d > bound:
            raise VerificationError("index walk passed the degree bound")
        count, selected = step(d)
        growth = count - prev_count
        if selected is not None and selected != growth:
            raise VerificationError(
                "nullspace growth does not match the selected index profile")
        if growth < len(indices):
            raise VerificationError("index profile is not monotone")
        indices.extend([d] * (growth - len(indices)))
        prev_count = count
        d += 1
    return tuple(indices)


def walk_indices(p: MatPoly, nrank: int):
    """Right and left minimal indices of p, of normal rank nrank, from the
    ranks of its convolution matrices alone, and whether every rank
    decision stayed clear of the field's cut (always, when exact).

    One probe per side skips the degrees that carry no index.  The Index
    Sum Theorem (De Terán, Dopico & Mackey, LAA 459, 2014) bounds the
    want indices of a side by S = grade * nrank (less the right indices'
    sum, on the left), so the least is at most S // want.  If conv(D),
    D = S // want - 1, has full column rank with a clear decision, the
    walk starts at D + 1 with a count of 0.  That is sound on both fields:
    conv(d - 1) with zero rows appended is the first d*n columns of
    conv(d).  Over QQ full column rank at D gives it at every d <= D.  On
    float64 full and clear means sigma_min > RANK_MARGIN * tol, with tol =
    max(shape) * sigma_max * eps * RANK_SAFETY; as d falls sigma_min
    cannot fall and sigma_max and max(shape) cannot grow, so each skipped
    degree would report nullity 0, clearly.  Otherwise the walk runs from
    0 and reuses the probe's rank if it reaches D; a probe the walk never
    reaches adds no flag, since the walk made no decision there.
    """
    clear = []

    def indices(q, want, total):
        ranks = {}

        def rank(d):
            if d not in ranks:
                ranks[d] = q.field.rank_with_margin(q.conv_matrix(d))
            return ranks[d]

        def nullity(d):
            r, ok = rank(d)
            clear.append(ok)
            return (d + 1) * q.n - r, None

        probe = total // want - 1 if want > 0 else 0
        full = probe >= 1 and rank(probe) == ((probe + 1) * q.n, True)
        return index_walk(q, want, nullity, probe + 1 if full else 0)

    total = p.grade * nrank
    right = indices(p, p.n - nrank, total)
    left = indices(p.transpose(), p.m - nrank, total - sum(right))
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


def minimal_basis(p, side: str, normal_rank=None) -> MinimalBasis:
    """Minimal basis of the chosen rational nullspace of p.

    Walks degrees d = 0, 1, ... with index_walk; nullvectors of the
    convolution matrix with d+1 block columns are exactly the degree <= d
    vector polynomials killed by p (coefficients stacked highest first).
    A candidate is kept when its degree-d coefficient is a pivot (the
    field's pivots) of the leading coefficients already kept followed by
    the candidates'. Candidates are tried only at a degree that carries a
    new index, where the nullity grows by more than the count already
    kept; at any other degree that growth equals the count, so no
    candidate could be kept.

    Exact arithmetic is the intended path; on float64 the nullspaces and
    the pivots use the field's one rank cut and warn near it.
    normal_rank, when given, maps p (or its transpose) to its normal rank:
    a recovery passes a _RankOnce to read it once for both sides.
    """
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")
    if side == SIDE_LEFT:
        dual = minimal_basis(p.transpose(), SIDE_RIGHT, normal_rank)
        return MinimalBasis(SIDE_LEFT, dual.vectors, dual.indices, dual.field)
    if side != SIDE_RIGHT:
        raise SchemaError(f"unknown side {side!r}")
    field = p.field
    n = p.n
    leads = field.zeros(n, 0)  # the kept leading coefficients
    chosen = []
    nullity = 0  # at the previous degree

    def select(d):
        nonlocal nullity, leads
        ns = field.nullspace(p.conv_matrix(d))
        growth, nullity = ns.shape[1] - nullity, ns.shape[1]
        if growth > len(chosen):  # an index equals d
            c = leads.shape[1]
            new = [j - c for j in field.pivots(
                np.concatenate([leads, ns[:n, :]], axis=1)) if j >= c]
            leads = np.concatenate([leads, ns[:n, new]], axis=1)
            chosen.extend(MatPoly(
                [ns[(d - i) * n:(d - i + 1) * n, j:j + 1].copy()
                 for i in range(d + 1)], field) for j in new)
        return nullity, len(chosen)

    rank = (normal_rank or MatPoly.normal_rank)(p)
    indices = index_walk(p, n - rank, select)
    basis = MinimalBasis(SIDE_RIGHT, tuple(chosen), indices, field)
    _certify(basis, p)
    return basis


def _certify(basis: MinimalBasis, p: MatPoly):
    """Zero residuals and a full-rank leading matrix; raises on either
    failure."""
    for v in basis.vectors:
        res = (p.matmul(v) if basis.side == SIDE_RIGHT
               else v.transpose().matmul(p))
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


def _strip_tower(base: MinimalBasis, p: MatPoly, k: int, normal_rank):
    """Peel Lambda_k kron x off every vector of a right pencil basis."""
    n = p.n
    field = base.field
    xs = []
    for y in base.vectors:
        bottom = _trim_tail(_clean(
            MatPoly([cc[(k - 1) * n:, :] for cc in y.coeffs], field)))
        emb = embed_right(bottom, k)
        if not field.negligible(emb - y, y):
            raise StructureError("right nullvector lacks the tower form")
        xs.append(bottom)
    return _pack_checked(xs, p, SIDE_RIGHT, normal_rank)


def _pack_checked(vecs, p: MatPoly, side: str,
                  normal_rank=None) -> MinimalBasis:
    """Sort recovered nullvectors of p into a basis and certify it: zero
    residuals, n - rank vectors (m - rank on the left) and a full-rank
    leading matrix, so the basis is column reduced. Minimality of the
    degrees is not re-checked; it rests on the recovery theorems, and a
    recovered (l - 1)*x would pass.  normal_rank is minimal_basis's."""
    field = p.field
    r = (normal_rank or MatPoly.normal_rank)(p)
    expected = (p.n if side == SIDE_RIGHT else p.m) - r
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


class _RankOnce:
    """The normal rank of one polynomial, read from whichever of it and its
    transpose asks first and then kept: a recovery needs the ranks of p
    and of the source pencil on both sides."""

    def __init__(self):
        self.value = None

    def __call__(self, q: MatPoly) -> int:
        if self.value is None:
            self.value = q.normal_rank()
        return self.value


def recover_minimal(source, p, side: str, mode: str) -> MinimalBasis:
    """Minimal basis of p read off from a pencil built from it.

    Right bases of right-space members and their trims are Kronecker
    towers and are peeled; left bases go through the ansatz projection,
    a member's less the constants that span the projection's kernel and a
    trimmed pencil's with the trimming selector transposed in. Left-space
    sources run the same rules on the transposed problem.
    """
    return recover_sides(source, p, (side,), mode)[0]


def recover_sides(source, p, sides, mode: str) -> tuple:
    """recover_minimal for each of sides in turn, reading the normal ranks
    of p and of the source pencil once for all of them."""
    for side in sides:
        if side not in (SIDE_LEFT, SIDE_RIGHT):
            raise SchemaError(f"unknown side {side!r}")
    if mode not in RECOVERY_MODES:
        raise SchemaError(f"unknown recovery mode {mode!r}")
    if not isinstance(p, MatPoly):
        raise SchemaError("expected a matrix polynomial")

    if mode in (MODE_GLIN_L2, MODE_TRIMMED_L2):
        if not isinstance(source, (AnsatzPencil, TrimResult)):
            raise SchemaError("unsupported source object")
        if source.side != SIDE_L2:
            raise SchemaError("mode expects a left-space source")
        dual_mode = MODE_GLIN_L1 if mode == MODE_GLIN_L2 else MODE_TRIMMED_L1
        with transposed_problem():
            dual = recover_sides(
                source.transpose(), p.transpose(),
                [SIDE_LEFT if side == SIDE_RIGHT else SIDE_RIGHT
                 for side in sides], dual_mode)
        return tuple(MinimalBasis(side, d.vectors, d.indices, d.field)
                     for side, d in zip(sides, dual))

    p_rank, pencil_rank = _RankOnce(), _RankOnce()
    if mode == MODE_GLIN_L1:
        if not isinstance(source, AnsatzPencil) or source.side != SIDE_L1:
            raise SchemaError("mode expects a right-space member")
        if not source.poly.equal(p):
            raise SchemaError("member was built from a different polynomial")
    else:
        if not isinstance(source, TrimResult) or source.side != SIDE_L1:
            raise SchemaError("mode expects a right-space trimming record")
        source.check_source(p)
    return tuple(_recover(source, p, side, p_rank, pencil_rank)
                 for side in sides)


def _recover(source, p: MatPoly, side: str, p_rank,
             pencil_rank) -> MinimalBasis:
    """One side of recover_sides from a right-space member or trimming
    record.  Right bases of both are Kronecker towers and are peeled.  A
    left basis of either is carried to P by the ansatz projection, a
    record's through D^T first; a member's is P's lifted plus (k-1)(m-n)
    constants that span the projection's kernel, which are dropped."""
    member = isinstance(source, AnsatzPencil)
    pencil = source.pencil if member else source.Lt
    if side == SIDE_RIGHT:
        # every right nullvector of L is a tower exactly when L has as many
        # as P; a wide P's member has more unless P is rank deficient
        if member and p.m < p.n and (source.k * p.n - pencil_rank(pencil)
                                     > p.n - p_rank(p)):
            raise PreconditionError(WIDE_REFUSAL)
        base = minimal_basis(pencil, SIDE_RIGHT, pencil_rank)
        return _strip_tower(base, p, source.k, p_rank)
    if member:
        red = source._form
        comp = red.complement
    base = minimal_basis(pencil, SIDE_LEFT, pencil_rank)
    if member:
        v, kept = source.ansatz, _past_kernel(source, red, comp, base)
    else:
        v, dt = source.ansatz(), source.D.T
        kept = [MatPoly([dt @ c for c in y.coeffs], p.field)
                for y in base.vectors]
    qs = [project_ansatz(v, y, p.m) for y in kept]
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
