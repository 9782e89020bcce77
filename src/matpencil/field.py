"""The two scalar fields: exact rationals and float64.

Everything that differs between the fields lives here: building and
coercing matrices, the linear algebra kernels and the samples a rank
reads, the residual test, and JSON scalars.  Each field is a single
object that compares equal to its name ("rational" or "float64") and
serializes as that plain string, so code holding a field can both
dispatch on it and write it out.

The rational field calls the exact backend (``exactla``, thin adapters
over sympy's DomainMatrix, eliminating fraction-free over ZZ) through
module attribute lookup, so replacing a backend function replaces it
for every caller.  Its entries follow the backend's rule: an int when
the value is integral, a Fraction otherwise, never a float, and
``matrix`` and ``vector`` refuse an object array holding anything else;
every exact division goes through ``exactla.div`` (``Field.div``),
since int / int would give a float.

Every float threshold on data lives here; no caller passes one.  Ranks
cut singular values by one rule (RANK_SAFETY), which also decides the
independent columns of a matrix (``pivots``), and residuals are judged
by one rule, ``negligible``: exactly zero on the rational field, and on
float64 relative to the norms of the data the residual comes from.

SciPy serves one kernel here, the pivoted QR of ``FloatField.factor_z``
(float ``trim``).  ``scipy.linalg`` loads on that first call, so exact
commands never pay for it.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
# Only the bare package, which bench/run.py's version report reads from
# sys.modules after every run.  SciPy's lazy submodule loader imports
# scipy.linalg, about a third of the start-up, on the first lookup.
import scipy

from . import exactla as xla
from .errors import PreconditionError, SchemaError

# Float tolerances, all relative.  A singular value counts toward the
# rank when it exceeds max(m, n) * sigma_max * eps * RANK_SAFETY; the
# decision is near the cut when a value lies within a factor RANK_MARGIN.
RANK_SAFETY = 8.0
RANK_MARGIN = 10.0
_EPS = float(np.finfo(float).eps)
RESIDUAL_REL_TOL = 1e-10  # residual relative to the data it comes from
CLEAN_REL_TOL = 1e-12  # noise next to the largest entry of a vector


def _is_object_array(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == object


def _exact(a):
    """The object array a, after checking that every entry is exactly an
    int or a Fraction: an object array passes through the rational field
    uncoerced, and a float, bool or numpy scalar in it would run exact
    code on other arithmetic."""
    for x in a.flat:
        if type(x) is not int and type(x) is not Fraction:
            raise SchemaError("rational entries must be int or Fraction, "
                              f"got {type(x).__name__}")
    return a


def _sign_canonicalize(q, r):
    """Flip column signs of q (and the matching rows of r) so the first
    entry of largest magnitude in each column is positive."""
    for j in range(q.shape[1]):
        col = q[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            q[:, j] = -q[:, j]
            if r is not None:
                r[j, :] = -r[j, :]
    return q, r


def _frob(x) -> float:
    """Float Frobenius norm of a scalar, an array or a matrix polynomial;
    math.hypot scales the entries, so the norm is inf only when it
    exceeds the float range itself."""
    return math.hypot(*np.concatenate(
        [np.ravel(c) for c in getattr(x, "coeffs", (x,))]).tolist())


class Field(str):
    """A scalar field; the instance is the string of its name.

    ``negligible(residual, *factors)`` is the one residual test: the
    factors are the data the residual is a product or difference of, and
    only the float field reads them.
    """

    name = ""

    def __new__(cls):
        return super().__new__(cls, cls.name)

    def __reduce__(self):
        return field_of, (str(self),)

    def rank(self, a) -> int:
        return self.rank_with_margin(a)[0]

    def nullspace(self, a):
        """nullspace_with_margin's basis; warns when the rank decision is
        near the cut."""
        ns, clear = self.nullspace_with_margin(a)
        if not clear:
            warnings.warn("nullspace rank decision is near the tolerance",
                          RuntimeWarning)
        return ns

    def parse_matrix(self, rows) -> np.ndarray:
        """The matrix of nested lists of JSON scalars."""
        return self.matrix([[self.scalar_from_json(x) for x in r]
                            for r in rows])


class RationalField(Field):
    """Exact arithmetic in object arrays: int entries where the value is
    integral, ``fractions.Fraction`` entries otherwise."""

    name = "rational"
    one = 1

    def parse_matrix(self, rows) -> np.ndarray:
        """The matrix of nested lists of JSON scalars, each parsed once."""
        return xla.fmat(rows, self.scalar_from_json)

    def scalar(self, x):
        return xla.frac(x)

    def matrix(self, a) -> np.ndarray:
        return _exact(a) if _is_object_array(a) else xla.fmat(a)

    def vector(self, v) -> np.ndarray:
        return _exact(v) if _is_object_array(v) else xla.fvec(list(v))

    def zeros(self, m, n):
        return xla.fzeros(m, n)

    def eye(self, n):
        return xla.feye(n)

    def to_float(self, a):
        try:
            return xla.to_float(a)
        except OverflowError as e:
            raise PreconditionError("entry exceeds the float range") from e

    def is_zero(self, a) -> bool:
        return xla.is_zero(a)

    def samples(self, poly, points):
        """Yield poly at each integer point, times the lcm of the
        denominators of its entries: Horner, as MatPoly.eval, on the int
        arrays of its integral multiple, so each sample is an int array
        (rank reads it as it is)."""
        coeffs = xla.integral_multiple(poly.coeffs)
        for t in points:
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = acc * t + c
            yield acc

    def inner(self, a, b):
        """Sum of the entrywise products."""
        return a.ravel() @ b.ravel()

    def div(self, a, b):
        """Exact a / b, entrywise on arrays; never a float."""
        return xla.div(a, b)

    def rank_with_margin(self, a):
        """Exact rank; an exact decision is always clear of any cut."""
        return xla.rank(a), True

    def nullspace_with_margin(self, a):
        """Canonical rref basis, one column per free column; always
        clear."""
        return xla.nullspace(a), True

    def inv(self, a):
        return xla.inv(a)

    def negligible(self, residual, *factors) -> bool:
        """Is every entry of residual (an array or a matrix polynomial)
        zero?  The factors are not read: an exact residual has no scale."""
        return all(xla.is_zero(c)
                   for c in getattr(residual, "coeffs", (residual,)))

    def clean(self, coeffs):
        return coeffs

    def integral_multiple(self, coeffs):
        """The coefficients times the lcm of the denominators of all their
        entries, as int arrays: an exact residual of the multiple is zero
        exactly when that of the coefficients is, and is found on int
        arithmetic."""
        return xla.integral_multiple(coeffs)

    def reflector(self, v):
        """Elementary M = [[1, 0], [-v_2..-v_k | v_1 I]] composed with a
        row swap when the leading entry vanishes; alpha is that leading
        entry."""
        vec = self.vector(v)
        k = vec.shape[0]
        j = next((i for i in range(k) if vec[i] != 0), None)
        if j is None:
            raise PreconditionError("ansatz vector must be nonzero")
        perm = xla.feye(k)
        if j:
            perm[[0, j], :] = perm[[j, 0], :]
        pv = perm @ vec
        alpha = pv[0]
        elem = xla.fzeros(k, k)
        elem[0, 0] = 1
        for i in range(1, k):
            elem[i, 0] = -pv[i]
            elem[i, i] = alpha
        return elem @ perm, alpha

    def factor_z(self, z, comp):
        """Exact Gram-Schmidt: z = q1·rt with pairwise orthogonal rational
        columns q1 and unit upper triangular rt; q1* scales q1ᵀ by the
        inverse squared column norms, and q2 is comp, the given basis of
        the kernel of zᵀ.  Returns (q1, q2, rt, q1*, q2*)."""
        rows, cn = z.shape
        q1 = xla.fzeros(rows, cn)
        rt = xla.fzeros(cn, cn)
        norms = []
        for j in range(cn):
            w = z[:, j].copy()
            for i in range(j):
                c = xla.div(q1[:, i] @ z[:, j], norms[i])
                rt[i, j] = c
                w = w - q1[:, i] * c
            if xla.is_zero(w):
                raise PreconditionError("columns are linearly dependent")
            rt[j, j] = 1
            q1[:, j] = w
            norms.append(w @ w)
        q1, rt = _sign_canonicalize(q1, rt)
        q2, _ = _sign_canonicalize(comp.copy(), None)
        q1_star = xla.div(q1, np.array(norms, dtype=object)).T.copy()
        return q1, q2, rt, q1_star, q2.T.copy()

    def pivots(self, a) -> list:
        """The columns of a independent of the columns before them: the
        pivot columns of its rref."""
        return xla.rref(a)[2] if a.size else []

    def scalar_to_json(self, x):
        return str(x)

    def scalar_from_json(self, x):
        """An int or Fraction from a JSON integer or a Fraction literal.
        int() reads a subset of Fraction's grammar, to the same value, and
        is tried first; it reads underscores, which Fraction reads only from
        Python 3.11, so a literal with one goes to Fraction alone."""
        if isinstance(x, str):
            if "_" not in x:
                try:
                    return int(x)
                except ValueError:
                    pass
            try:
                return xla.frac(x)
            except (ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"bad rational literal {x!r}") from e
        if type(x) is int:
            return x
        raise SchemaError(
            f"rational entries must be strings, got {type(x).__name__}")


class FloatField(Field):
    """numpy float64 arrays; rank decisions cut the singular values at
    the shared relative tolerance."""

    name = "float64"
    one = 1.0

    def scalar(self, x):
        return float(x)

    def matrix(self, a) -> np.ndarray:
        return np.asarray(a, dtype=float)

    vector = to_float = matrix

    def zeros(self, m, n):
        return np.zeros((m, n))

    def eye(self, n):
        return np.eye(n)

    def is_zero(self, a) -> bool:
        return not np.any(a)

    def samples(self, poly, points):
        """poly at each point; raises when a sample leaves the float
        range."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = [poly.eval(t) for t in points]
        if not np.isfinite(out).all():
            raise PreconditionError(
                "a sample of the polynomial exceeds the float range")
        return out

    def inner(self, a, b):
        """Sum of the entrywise products; an overflow gives inf without a
        warning."""
        with np.errstate(over="ignore"):
            return float(np.sum(a * b))

    def div(self, a, b):
        return a / b

    def _rank_from_singular_values(self, s, shape, ref):
        """Tolerance rank from the descending singular values s of a matrix
        of the given shape, cut relative to ref (the matrix's own sigma_max,
        or that of the whole pencil a staircase block comes from), and
        whether all stay RANK_MARGIN from the cut."""
        # a few values: plain floats compare faster than numpy scalars
        s = s.tolist()
        tol = max(shape) * float(ref) * _EPS * RANK_SAFETY if s else 0.0
        near = tol > 0 and any(tol / RANK_MARGIN <= x <= tol * RANK_MARGIN
                               for x in s)
        return sum(x > tol for x in s), not near

    def rank_with_margin(self, a):
        """Rank and clear-of-the-cut flag from the singular values alone."""
        if a.size == 0:
            return 0, True
        s = np.linalg.svd(a, compute_uv=False)
        return self._rank_from_singular_values(s, a.shape, s[0])

    def ranks(self, stack) -> list:
        """The rank of each matrix of a stack from one SVD call, each cut
        at its own sigma_max."""
        if stack.size == 0:
            return [0] * len(stack)
        return [self._rank_from_singular_values(s, stack.shape[1:], s[0])[0]
                for s in np.linalg.svd(stack, compute_uv=False)]

    def nullspace_with_margin(self, a):
        """Right singular vectors past the tolerance rank, and whether the
        rank decision stayed RANK_MARGIN from the cut."""
        _, s, vh = np.linalg.svd(a)
        rank, clear = self._rank_from_singular_values(
            s, a.shape, s[0] if s.size else 0.0)
        return np.ascontiguousarray(vh[rank:, :].T), clear

    def inv(self, a):
        return np.linalg.inv(a)

    def min_norm_solve(self, a, b):
        return np.linalg.lstsq(a, b, rcond=None)[0]

    def negligible(self, residual, *factors) -> bool:
        """Is ||residual||_F at most RESIDUAL_REL_TOL times the product of
        max(1, ||f||_F) over the factors (arrays, matrix polynomials or
        scalars)?  Raises when that product exceeds the float range; a
        residual that does, or holds a nan, is not negligible."""
        scale = math.prod(max(1.0, _frob(f)) for f in factors)
        if scale == math.inf:
            raise PreconditionError("Frobenius norm exceeds the float range")
        return _frob(residual) <= RESIDUAL_REL_TOL * scale

    def clean(self, coeffs):
        """Zero the entries that are noise next to the largest one, so
        degree tests can be exact-zero tests."""
        big = max((float(np.max(np.abs(c))) for c in coeffs if c.size),
                  default=0.0)
        if big == 0.0:
            return coeffs
        thr = CLEAN_REL_TOL * big
        return [np.where(np.abs(c) <= thr, 0.0, c) for c in coeffs]

    def integral_multiple(self, coeffs):
        """Float coefficients have no denominators to clear: unchanged."""
        return coeffs

    def reflector(self, v):
        """Householder reflector; alpha = ||v||_2."""
        vec = self.vector(v)
        k = vec.shape[0]
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0:
            raise PreconditionError("ansatz vector must be nonzero")
        u = vec - nrm * np.eye(k)[:, 0]
        # v is already ||v||*e1 when u is zero under the rank rule
        if not self._rank_from_singular_values(
                np.array([np.linalg.norm(u)]), (k, 1), nrm)[0]:
            return np.eye(k), nrm
        m = np.eye(k) - 2.0 * np.outer(u, u) / float(u @ u)
        return m, nrm

    def factor_z(self, z, comp):
        """Pivoted QR: orthonormal q1 spanning ran(z) with q1ᵀz = rt and
        its orthonormal complement q2, taken from the same QR; comp, the
        kernel basis behind the caller's rank decision, is not needed.
        Returns (q1, q2, rt, q1ᵀ, q2ᵀ)."""
        cn = z.shape[1]
        qf, rf, piv = scipy.linalg.qr(z, pivoting=True)
        rt = rf[:cn, :] @ np.eye(z.shape[1])[piv, :]
        q1, rt = _sign_canonicalize(qf[:, :cn].copy(), rt)
        q2, _ = _sign_canonicalize(qf[:, cn:].copy(), None)
        return q1, q2, rt, q1.T.copy(), q2.T.copy()

    def pivots(self, a) -> list:
        """The columns of a that raise the tolerance rank of the columns
        kept before them.  The columns are blocks of unit vectors, such as
        nullspace columns, so every cut is relative to 1 at a's shape;
        warns when a decision is near the cut."""
        kept = []
        for j in range(a.shape[1]):
            s = np.linalg.svd(a[:, kept + [j]], compute_uv=False)
            rank, clear = self._rank_from_singular_values(s, a.shape, 1.0)
            if not clear:
                warnings.warn("pivot rank decision is near the tolerance",
                              RuntimeWarning)
            if rank > len(kept):
                kept.append(j)
        return kept

    def scalar_to_json(self, x):
        return float(x)

    def scalar_from_json(self, x):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise SchemaError(
                f"float entries must be numbers, got {type(x).__name__}")
        try:
            y = float(x)
        except OverflowError as e:
            raise SchemaError(f"float entry {x} is out of range") from e
        if not math.isfinite(y):
            raise SchemaError(f"float entries must be finite, got {x}")
        return y


FIELD_RATIONAL = RationalField()
FIELD_FLOAT = FloatField()
FIELDS = {f: f for f in (FIELD_RATIONAL, FIELD_FLOAT)}


def field_of(name) -> Field:
    """The field instance for a field name (or a field)."""
    if not isinstance(name, str) or name not in FIELDS:
        raise SchemaError(f"unknown field {name!r}")
    return FIELDS[name]


def field_of_array(a) -> Field:
    """Field of a matrix's entries: float arrays hold float64 entries,
    object arrays and plain sequences rationals."""
    if isinstance(a, np.ndarray) and not _is_object_array(a):
        return FIELD_FLOAT
    return FIELD_RATIONAL
