"""Univariate polynomials over Q and matrices of them.

QP stores ascending Fraction coefficients without trailing zeros. Matrices of
QP entries (numpy object arrays) are what the Smith reduction and the symbolic
identity checks work on; ``dot`` keeps products exact.
"""

from fractions import Fraction

import numpy as np

from .exactla import ONE, ZERO, frac
from .errors import PreconditionError


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class QP:
    """Rational-coefficient polynomial in one variable."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction, str)):
            coeffs = (frac(coeffs),)
        self.c = _trim(frac(x) for x in coeffs)

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.c) - 1

    @property
    def lc(self) -> Fraction:
        return self.c[-1] if self.c else ZERO

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, QP):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == _trim((frac(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __neg__(self):
        return QP(tuple(-x for x in self.c))

    def __add__(self, other):
        o = other if isinstance(other, QP) else QP(other)
        n = max(len(self.c), len(o.c))
        return QP(tuple((self.c[i] if i < len(self.c) else ZERO)
                        + (o.c[i] if i < len(o.c) else ZERO) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, QP) else QP(other)
        return self + (-o)

    def __rsub__(self, other):
        return QP(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = frac(other)
            return QP(tuple(x * f for x in self.c))
        if not isinstance(other, QP):
            return NotImplemented
        if not self.c or not other.c:
            return QP()
        out = [ZERO] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return QP(tuple(out))

    __rmul__ = __mul__

    def divmod(self, other: "QP"):
        if not isinstance(other, QP) or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        q = [ZERO] * max(len(rem) - len(other.c) + 1, 0)
        d = other.degree
        lc = other.lc
        while len(rem) - 1 >= d and any(x != 0 for x in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[shift] = factor
            for i, b in enumerate(other.c):
                rem[shift + i] -= factor * b
            rem.pop()
        return QP(tuple(q)), QP(tuple(rem))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other: "QP") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "QP":
        if not self.c:
            return self
        inv = ONE / self.lc
        return QP(tuple(x * inv for x in self.c))

    def shift(self, t: int) -> "QP":
        """Multiply by lambda**t."""
        if not self.c:
            return self
        return QP((ZERO,) * t + self.c)

    def evaluate(self, x: Fraction) -> Fraction:
        x = frac(x)
        acc = ZERO
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def __repr__(self):
        return f"QP({self.text()})"

    def text(self, var: str = "l") -> str:
        if not self.c:
            return "0"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            a = self.c[i]
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                head = "" if a == 1 else ("-" if a == -1 else f"{a}*")
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


QP_ZERO = QP()
QP_ONE = QP(1)
QP_X = QP((0, 1))


def pm(rows) -> np.ndarray:
    """Matrix of QP entries from nested lists of QP/int/Fraction."""
    data = [[x if isinstance(x, QP) else QP(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def pm_zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = QP_ZERO
    return out


def pm_eye(n: int) -> np.ndarray:
    out = pm_zeros(n, n)
    for i in range(n):
        out[i, i] = QP_ONE
    return out


def pm_eval(a: np.ndarray, x) -> np.ndarray:
    out = np.empty(a.shape, dtype=object)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i, j] = a[i, j].evaluate(x)
    return out


def pm_det(a: np.ndarray) -> QP:
    """Determinant by evaluation and Lagrange interpolation.

    Degree of det is at most the sum over rows of each row's max degree, so
    evaluating at that many+1 rational points pins it down exactly.
    """
    from .exactla import det as scalar_det, fmat

    m, n = a.shape
    if m != n:
        raise PreconditionError("determinant of a non-square matrix")
    if n == 0:
        return QP_ONE
    bound = sum(max((a[i, j].degree for j in range(n)), default=-1) + 1 for i in range(m))
    bound = max(bound, 1)
    points = [Fraction(t) for t in range(bound + 1)]
    values = [scalar_det(pm_eval(a, t)) for t in points]
    # Lagrange interpolation on (points, values)
    result = QP()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        num = QP((yi,))
        denom = ONE
        for j, xj in enumerate(points):
            if i == j:
                continue
            num = num * QP((-xj, ONE))
            denom *= (xi - xj)
        result = result + num * (ONE / denom)
    return result
