"""Matrix polynomials, structured builder matrices, and file I/O.

A MatPoly stores coefficients ascending (A_0 first); displays and the JSON
format keep that order too. Grade is explicit and may exceed the degree,
which matters for reversal and for grade-k perturbation statements. A
pencil lambda*X + Y is the grade-1 MatPoly [Y, X].

Two scalar fields are supported, "rational" and "float64"; field.py holds
everything that differs between them.  Rational coefficients are object
arrays, exact: an entry is an int when its value is integral and a
Fraction otherwise, never a float, and exact division goes through
``Field.div``.
"""

import json
import math
import sys

import numpy as np

from .errors import PreconditionError, SchemaError, VerificationError
from .field import FIELD_FLOAT, FIELD_RATIONAL, field_of

_SQRT_FLOAT_MIN = math.sqrt(sys.float_info.min)


def _block(a, field):
    a = field.matrix(a)
    if a.ndim != 2:
        raise SchemaError("coefficient blocks must be 2-d")
    return a


class MatPoly:
    """Grade-k matrix polynomial with coefficients [A_0, ..., A_k]."""

    def __init__(self, coeffs, field: str = FIELD_RATIONAL):
        field = field_of(field)
        coeffs = [_block(c, field) for c in coeffs]
        if not coeffs:
            raise SchemaError("a matrix polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if any(c.shape != shape for c in coeffs):
            raise SchemaError("coefficient blocks differ in shape")
        self.coeffs = coeffs
        self.field = field
        self.m, self.n = shape

    @property
    def grade(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        for i in range(self.grade, -1, -1):
            if not self.field.is_zero(self.coeffs[i]):
                return i
        return -1

    def is_zero(self) -> bool:
        return self.degree == -1

    def coeff(self, i: int):
        if 0 <= i <= self.grade:
            return self.coeffs[i]
        return self.field.zeros(self.m, self.n)

    @classmethod
    def zero(cls, m, n, grade, field=FIELD_RATIONAL):
        field = field_of(field)
        return cls([field.zeros(m, n) for _ in range(grade + 1)], field)

    @classmethod
    def pencil(cls, x, y, field=FIELD_RATIONAL):
        """The grade-1 polynomial lambda*X + Y."""
        field = field_of(field)
        x, y = _block(x, field), _block(y, field)
        if x.shape != y.shape:
            raise SchemaError("pencil parts differ in shape")
        return cls([y, x], field)

    def _pencil_part(self, i):
        if self.grade != 1:
            raise PreconditionError("not a pencil (grade != 1)")
        return self.coeffs[i]

    X = property(lambda self: self._pencil_part(1),
                 doc="X of a pencil lambda*X + Y.")
    Y = property(lambda self: self._pencil_part(0),
                 doc="Y of a pencil lambda*X + Y.")

    def copy(self) -> "MatPoly":
        return MatPoly([c.copy() for c in self.coeffs], self.field)

    def eval(self, x):
        """Horner evaluation. Rational path rejects non-rational points."""
        x = self.field.scalar(x)
        acc = self.coeffs[self.grade].copy()
        for i in range(self.grade - 1, -1, -1):
            acc = acc * x + self.coeffs[i]
        return acc

    def reversal(self) -> "MatPoly":
        """Grade-k reversal: coefficient list reversed."""
        return MatPoly(list(reversed(self.coeffs)), self.field)

    def transpose(self) -> "MatPoly":
        return MatPoly([c.T.copy() for c in self.coeffs], self.field)

    def _check_field(self, other: "MatPoly"):
        if self.field != other.field:
            raise SchemaError("scalar fields differ")

    def _check_compat(self, other: "MatPoly"):
        self._check_field(other)
        if (self.m, self.n) != (other.m, other.n):
            raise SchemaError("shapes differ")

    def __add__(self, other: "MatPoly") -> "MatPoly":
        self._check_compat(other)
        g = max(self.grade, other.grade)
        return MatPoly([self.coeff(i) + other.coeff(i) for i in range(g + 1)], self.field)

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        self._check_compat(other)
        g = max(self.grade, other.grade)
        return MatPoly([self.coeff(i) - other.coeff(i) for i in range(g + 1)], self.field)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "MatPoly":
        s = self.field.scalar(s)
        return MatPoly([c * s for c in self.coeffs], self.field)

    def matmul(self, other: "MatPoly") -> "MatPoly":
        """Polynomial product; grade is the sum of grades.  _product on
        the two coefficient lists."""
        self._check_field(other)
        if self.n != other.m:
            raise SchemaError("inner dimensions differ")
        return MatPoly(_product(self.coeffs, other.coeffs), self.field)

    def equal(self, other: "MatPoly") -> bool:
        if (self.field, self.m, self.n) != (other.field, other.m, other.n):
            return False
        return (self - other).is_zero()

    def frob_norm_sq(self):
        """Sum over coefficients of squared Frobenius norms (exact on the
        rational path)."""
        return sum(self.field.inner(c, c) for c in self.coeffs)

    def frob_norm(self) -> float:
        """sqrt of frob_norm_sq; only when that sum overflows or underflows
        a float is the norm accumulated with scaling instead, by
        math.hypot."""
        try:
            norm = math.sqrt(self.frob_norm_sq())
        except OverflowError:
            norm = math.inf
        if norm == math.inf or norm < _SQRT_FLOAT_MIN:
            try:
                norm = math.hypot(*(float(x) for c in self.coeffs
                                    for x in c.flat))
            except OverflowError:
                norm = math.inf
        if norm == math.inf:
            raise PreconditionError("Frobenius norm exceeds the float range")
        if norm == 0.0 and not self.is_zero():
            raise PreconditionError("Frobenius norm is below the float range")
        return norm

    def normal_rank(self) -> int:
        """Rank over the rational-function field, via sampling.

        The rank can only drop at finitely many points (at most the degree of
        a largest non-vanishing minor, <= k*min(m,n)), so maximizing over
        k*min(m,n)+1 distinct points attains it.  Sampling stops once the
        rank reaches min(m,n), which no point can exceed.  The field
        evaluates the samples in the form its rank reads: sparse ZZ
        matrices on the rational field (the polynomial times the lcm of
        its denominators, which changes no rank), float64 arrays (all
        checked finite first) on the other.
        """
        full = min(self.m, self.n)
        best = 0
        for s in self.field.samples(self, range(1, self.grade * full + 2)):
            best = max(best, self.field.rank(s))
            if best == full:
                break
        return best

    def conv_matrix(self, j: int):
        """Block-Toeplitz convolution matrix with j+1 block columns; block
        column i carries A_k..A_0 shifted down i block rows.  _conv on a
        stack of one."""
        if j < 0:
            raise PreconditionError("negative block-column count")
        return _conv(np.stack(self.coeffs)[None], j)[0]

    def to_float(self) -> "MatPoly":
        return MatPoly([self.field.to_float(c) for c in self.coeffs], FIELD_FLOAT)

    def block_diag(self, other: "MatPoly") -> "MatPoly":
        """diag(self, other) with the common grade."""
        self._check_field(other)
        g = max(self.grade, other.grade)
        out = []
        for i in range(g + 1):
            c = self.field.zeros(self.m + other.m, self.n + other.n)
            c[:self.m, :self.n] = self.coeff(i)
            c[self.m:, self.n:] = other.coeff(i)
            out.append(c)
        return MatPoly(out, self.field)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "grade": self.grade, "field": self.field,
            "coeffs": [matrix_to_json(c, self.field) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MatPoly":
        _require_keys(d, ("m", "n", "grade", "field", "coeffs"), "matrix polynomial")
        _require_ints(d, ("m", "n", "grade"), "matrix polynomial")
        if d["m"] < 0 or d["n"] < 0:
            raise SchemaError("matrix polynomial: negative size")
        field = field_of(d["field"])
        if not isinstance(d["coeffs"], list) or len(d["coeffs"]) != d["grade"] + 1:
            raise SchemaError("coeffs must list grade+1 blocks")
        coeffs = [matrix_from_json(c, field, d["m"], d["n"]) for c in d["coeffs"]]
        return cls(coeffs, field)

    def __repr__(self):
        return f"MatPoly({self.m}x{self.n}, grade={self.grade}, field={self.field})"


# ---------------------------------------------------------------------------
# Stacks of polynomials
#
# A stack holds polynomials of one shape and grade as one array (b, g+1,
# rows, cols) of ascending coefficients, float64 or exact.  The product
# and the convolution matrix below are the only implementations of
# MatPoly.matmul and MatPoly.conv_matrix, which run them on one
# polynomial; numpy runs a stacked @ slice by slice with the kernels a
# lone polynomial's product gets, so each slice of a stack comes out with
# that polynomial's bits.


def _product(a, b):
    """The ascending coefficients of the polynomial product of a and b,
    two sequences of ascending coefficients: matrices, or stacks (b, rows,
    cols) of them, which broadcast."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x @ y
    return out


def _stack_product(a, b):
    """_product of each pair of polynomials of two stacks, either of which
    may be one polynomial's (g+1, rows, cols), which broadcasts."""
    return np.stack(_product(np.moveaxis(a, -3, 0), np.moveaxis(b, -3, 0)),
                    axis=-3)


def _conv(c, j: int):
    """The convolution matrix with j+1 block columns of each polynomial of
    a stack."""
    b, g1, r, s = c.shape
    # block (row i + t, column i) is A_(g-t): block column i holds the
    # reversed coefficients from block row i down
    out = np.zeros_like(c, shape=(b, g1 + j, r, j + 1, s))
    for i in range(j + 1):
        out[:, i:i + g1, :, i] = c[:, ::-1]
    return out.reshape(b, (g1 + j) * r, (j + 1) * s)


# ---------------------------------------------------------------------------
# structured builders

def rect_identity(m: int, n: int, field: str = FIELD_RATIONAL):
    """I_n stacked over zeros when m > n, I_m padded right when m < n."""
    field = field_of(field)
    out = field.zeros(m, n)
    for i in range(min(m, n)):
        out[i, i] = field.one
    return out


def block_apply(t, a):
    """(t ⊗ I_b)·a for a p x q matrix t and a (q·b) x c matrix a: t acts
    on the q block rows of a, and the Kronecker product is never formed."""
    p, q = t.shape
    b, c = a.shape[0] // q, a.shape[1]
    return (t @ a.reshape(q, b * c)).reshape(p * b, c)


def lambda_vec(k: int, p: int = 1, field: str = FIELD_RATIONAL) -> MatPoly:
    """Column [lambda^(k-1), ..., lambda, 1]^T, Kronecker-expanded by I_p."""
    if k < 1 or p < 1:
        raise PreconditionError("sizes must be positive")
    field = field_of(field)
    coeffs = []
    for i in range(k):
        c = field.zeros(k * p, p)
        r0 = (k - 1 - i) * p
        c[r0:r0 + p, :] = field.eye(p)
        coeffs.append(c)
    return MatPoly(coeffs, field)


def h_dual(j: int, p: int = 1, field: str = FIELD_RATIONAL) -> MatPoly:
    """j x (j+1) block pencil with -1 on the diagonal and lambda above it;
    annihilates lambda_vec(j+1, p)."""
    if j < 1 or p < 1:
        raise PreconditionError("sizes must be positive")
    field = field_of(field)
    y = field.zeros(j * p, (j + 1) * p)
    x = field.zeros(j * p, (j + 1) * p)
    eye = field.eye(p)
    for i in range(j):
        y[i * p:(i + 1) * p, i * p:(i + 1) * p] = -eye
        x[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = eye
    return MatPoly([y, x], field)


def shear_s(k: int, p: int = 1, field: str = FIELD_RATIONAL) -> MatPoly:
    """k x (k-1) block matrix with lambda^(j-i) at block (i,j) for j >= i
    (zero-based) and a zero last block row."""
    if k < 2 or p < 1:
        raise PreconditionError("needs k >= 2 and positive block size")
    field = field_of(field)
    coeffs = [field.zeros(k * p, (k - 1) * p) for _ in range(k - 1)]
    eye = field.eye(p)
    for i in range(k - 1):
        for j in range(i, k - 1):
            coeffs[j - i][i * p:(i + 1) * p, j * p:(j + 1) * p] = eye
    return MatPoly(coeffs, field)


# ---------------------------------------------------------------------------
# JSON helpers

def _require_keys(d, keys, what):
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected an object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise SchemaError(f"{what}: missing keys {missing}")


def _require_ints(d, keys, what):
    bad = [k for k in keys if isinstance(d[k], bool) or not isinstance(d[k], int)]
    if bad:
        raise SchemaError(f"{what}: {bad} must be integers")


def matrix_to_json(a, field: str):
    field = field_of(field)
    return [[field.scalar_to_json(x) for x in row] for row in a]


def matrix_from_json(rows, field: str, m=None, n=None):
    field = field_of(field)
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be an array of arrays")
    if m is not None and len(rows) != m:
        raise SchemaError(f"expected {m} rows, got {len(rows)}")
    if rows and any(len(r) != (len(rows[0]) if n is None else n) for r in rows):
        raise SchemaError("row length mismatch")
    if not rows and n is not None:
        return field.zeros(0, n)
    return field.parse_matrix(rows)


def pencil_to_json(pen: MatPoly) -> dict:
    """The {"x": X, "y": Y} form a pencil takes inside member and trimming
    records."""
    return {"x": matrix_to_json(pen.X, pen.field),
            "y": matrix_to_json(pen.Y, pen.field)}


def pencil_from_json(d, field, width) -> MatPoly:
    """The pencil of an {"x": X, "y": Y} form. An empty row list carries
    no width, so it stands for a 0 x width part."""
    _require_keys(d, ("x", "y"), "pencil")
    x, y = (matrix_from_json(d[key], field, None, None if d[key] else width)
            for key in ("x", "y"))
    return MatPoly.pencil(x, y, field)


def dump_json(obj: dict) -> str:
    """Canonical serialization so identical inputs give identical bytes.
    Only standard JSON is written: a non-finite number is refused."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as e:
        raise VerificationError("report holds a non-finite number") from e
