"""Exact truncated power series over Q(sqrt 3).

The closed forms for the two no-double-descent generating functions mix
a pi/6 phase into tan and cos.  That phase never appears numerically:
it enters only through the addition formulas with the exact constants
tan(pi/6) = (1/3)*sqrt(3), cos(pi/6) = (1/2)*sqrt(3), sin(pi/6) = 1/2,
so every coefficient is an exact a + b*sqrt(3) with rational a, b.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Union

from .errors import CapExceeded

Rationalish = Union[int, Fraction]

# Largest order of the two generating functions: the expansion grows
# about as order^2.7, and egf-check at order 400 takes about 7 s on a
# 2-vCPU VM.
SERIES_CAP = 400


class QSqrt3:
    """a + b*sqrt(3) with exact rational components.

    A field: products close because sqrt(3)^2 = 3, and nonzero elements
    invert via the conjugate, 1/(a + b s) = (a - b s)/(a^2 - 3 b^2).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rationalish = 0, b: Rationalish = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def _coerce(cls, x) -> "QSqrt3 | None":
        if isinstance(x, QSqrt3):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def __repr__(self) -> str:
        return f"QSqrt3({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(3)"

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __neg__(self) -> "QSqrt3":
        return QSqrt3(-self.a, -self.b)

    def __add__(self, other) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "QSqrt3":
        return -self + other

    def __mul__(self, other) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a * o.a + 3 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt3":
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError(f"{self} is not invertible")
        return QSqrt3(self.a / norm, -self.b / norm)

    def __truediv__(self, other) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "QSqrt3":
        if k < 0:
            return self.inverse() ** (-k)
        out = QSqrt3(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @property
    def is_rational(self) -> bool:
        return self.b == 0


ZERO = QSqrt3(0)
ONE = QSqrt3(1)
HALF = QSqrt3(Fraction(1, 2))
SQRT3 = QSqrt3(0, 1)
SQRT3_OVER_2 = QSqrt3(0, Fraction(1, 2))
TAN_PI_6 = QSqrt3(0, Fraction(1, 3))   # 1/sqrt(3)
SIN_PI_6 = HALF
COS_PI_6 = SQRT3_OVER_2


class Sqrt3Series:
    """Truncated power series with QSqrt3 coefficients for x^0..x^order.

    Immutable; binary operations truncate to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        cs = []
        for c in coeffs:
            q = QSqrt3._coerce(c)
            if q is None:
                raise TypeError(f"cannot use {c!r} as a coefficient")
            cs.append(q)
        if not cs:
            raise ValueError("a series needs at least the constant term")
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value, order: int) -> "Sqrt3Series":
        return cls([value] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> QSqrt3:
        return self.coeffs[k]

    def __repr__(self) -> str:
        return f"Sqrt3Series({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sqrt3Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def truncate(self, order: int) -> "Sqrt3Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Sqrt3Series(self.coeffs[: order + 1])

    def _align(self, other: "Sqrt3Series") -> tuple[tuple, tuple]:
        k = min(self.order, other.order)
        return self.coeffs[: k + 1], other.coeffs[: k + 1]

    def __add__(self, other) -> "Sqrt3Series":
        if not isinstance(other, Sqrt3Series):
            other = Sqrt3Series.constant(other, self.order)
        a, b = self._align(other)
        return Sqrt3Series(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other) -> "Sqrt3Series":
        if not isinstance(other, Sqrt3Series):
            other = Sqrt3Series.constant(other, self.order)
        a, b = self._align(other)
        return Sqrt3Series(x - y for x, y in zip(a, b))

    def __rsub__(self, other) -> "Sqrt3Series":
        return -(self - other)

    def __neg__(self) -> "Sqrt3Series":
        return Sqrt3Series(-c for c in self.coeffs)

    def __mul__(self, other) -> "Sqrt3Series":
        if not isinstance(other, Sqrt3Series):
            return self.scale(other)
        a, b = self._align(other)
        k = len(a)
        out = [ZERO] * k
        for i, ci in enumerate(a):
            if not ci:
                continue
            for j in range(k - i):
                if b[j]:
                    out[i + j] = out[i + j] + ci * b[j]
        return Sqrt3Series(out)

    def __rmul__(self, other) -> "Sqrt3Series":
        return self.scale(other)

    def scale(self, value) -> "Sqrt3Series":
        q = QSqrt3._coerce(value)
        if q is None:
            raise TypeError(f"cannot scale a series by {value!r}")
        return Sqrt3Series(c * q for c in self.coeffs)

    def __truediv__(self, other) -> "Sqrt3Series":
        if not isinstance(other, Sqrt3Series):
            q = QSqrt3._coerce(other)
            if q is None:
                return NotImplemented
            return self.scale(q.inverse())
        a, b = self._align(other)
        if not b[0]:
            raise ZeroDivisionError("division needs an invertible constant term")
        inv0 = b[0].inverse()
        out: list[QSqrt3] = []
        for k in range(len(a)):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out.append(acc * inv0)
        return Sqrt3Series(out)

    def derivative(self) -> "Sqrt3Series":
        if self.order == 0:
            return Sqrt3Series([ZERO])
        return Sqrt3Series(
            (k + 1) * self.coeffs[k + 1] for k in range(self.order)
        )


def exp_series(c, order: int) -> Sqrt3Series:
    """exp(c*x) truncated at the given order."""
    q = QSqrt3._coerce(c)
    return Sqrt3Series(
        q ** k * Fraction(1, factorial(k)) for k in range(order + 1)
    )


def sin_series(c, order: int) -> Sqrt3Series:
    q = QSqrt3._coerce(c)
    out = []
    for k in range(order + 1):
        if k % 2 == 0:
            out.append(ZERO)
        else:
            sign = -1 if (k // 2) % 2 else 1
            out.append(q ** k * Fraction(sign, factorial(k)))
    return Sqrt3Series(out)


def cos_series(c, order: int) -> Sqrt3Series:
    q = QSqrt3._coerce(c)
    out = []
    for k in range(order + 1):
        if k % 2:
            out.append(ZERO)
        else:
            sign = -1 if (k // 2) % 2 else 1
            out.append(q ** k * Fraction(sign, factorial(k)))
    return Sqrt3Series(out)


def tan_series(c, order: int) -> Sqrt3Series:
    """tan(c*x) as sin/cos; the constant term of cos is 1."""
    return sin_series(c, order) / cos_series(c, order)


def tan_shifted(c, order: int) -> Sqrt3Series:
    """tan(c*x + pi/6) via the tangent addition formula."""
    t = tan_series(c, order)
    one = Sqrt3Series.constant(1, order)
    return (t + Sqrt3Series.constant(TAN_PI_6, order)) / (one - t.scale(TAN_PI_6))


def cos_shifted(c, order: int) -> Sqrt3Series:
    """cos(c*x + pi/6) = cos(pi/6) cos(cx) - sin(pi/6) sin(cx)."""
    return cos_series(c, order).scale(COS_PI_6) - sin_series(c, order).scale(SIN_PI_6)


def _check_order(order: int) -> None:
    if order > SERIES_CAP:
        raise CapExceeded(
            f"series to order {order}: {order + 1} coefficients over "
            f"Q(sqrt 3) exceeds the cap {SERIES_CAP}"
        )


def egf_no_dd_ascent(order: int) -> Sqrt3Series:
    """Exponential generating function of the counts of permutations
    with no double descents and no initial descent:
    1/2 + (sqrt(3)/2) tan((sqrt(3)/2) x + pi/6)."""
    _check_order(order)
    return tan_shifted(SQRT3_OVER_2, order).scale(SQRT3_OVER_2) + Fraction(1, 2)


def egf_no_dd(order: int) -> Sqrt3Series:
    """Exponential generating function of the no-double-descent counts:
    (sqrt(3)/2) e^(x/2) / cos((sqrt(3)/2) x + pi/6)."""
    _check_order(order)
    numerator = exp_series(HALF, order).scale(SQRT3_OVER_2)
    return numerator / cos_shifted(SQRT3_OVER_2, order)


def integer_coefficients(series: Sqrt3Series) -> list[int]:
    """The numbers n! * [x^n] series, checking each is a nonnegative
    integer with no sqrt(3) component."""
    out = []
    for n, c in enumerate(series.coeffs):
        if not c.is_rational:
            raise ArithmeticError(f"coefficient of x^{n} has a sqrt(3) part: {c}")
        value = c.a * factorial(n)
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(
                f"{n}! times coefficient of x^{n} is not a nonnegative "
                f"integer: {value}"
            )
        out.append(int(value))
    return out
