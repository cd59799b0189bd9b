"""The two no-double-descent generating functions in exact integers.

A series f is stored by its scaled coefficients f_n = 2^n * n! * [x^n] f,
so the product of two series is the binomial convolution
sum_k C(n,k) f_k g_(n-k), the derivative is the list shifted by one and
halved, and every coefficient below is an integer.

With c = sqrt(3)/2 the n-th derivative of cos(cx) at 0 is c^n (-1)^k
for n = 2k, and that of sin(cx) is c^n (-1)^k for n = 2k+1; since
2^n c^n = 3^(n/2), cos(cx) has the scaled coefficients C_n = (-3)^k at
n = 2k (0 at odd n), and sin(cx) = sqrt(3) * S with S_n = (-3)^k at
n = 2k+1 (0 at even n).  e^(x/2) has the scaled coefficients 1, 1, 1, ...

* cos(cx + pi/6) = (sqrt(3)/2)(cos(cx) - sin(cx)/sqrt(3)) = (sqrt(3)/2)(C - S),
  so (sqrt(3)/2) e^(x/2) / cos(cx + pi/6) = [1, 1, 1, ...] / (C - S);
* 1/2 + (sqrt(3)/2) tan(cx + pi/6) = (sqrt(3) cos + sin)/(sqrt(3) cos - sin)
  at cx, which is sqrt(3)(C + S) / sqrt(3)(C - S) = (C + S) / (C - S).

The common factor sqrt(3) cancels in both, so no a + b*sqrt(3) value
arises, and every division is checked to be exact.
"""

from __future__ import annotations

from operator import add, mul

from . import errors


def egf_quotient(numerator: list[int], denominator: list[int]) -> list[int]:
    """The scaled coefficients of N/D, to the order of the shorter list:
    y_n = (N_n - sum_{k<n} C(n,k) y_k D_(n-k)) / D_0.

    Raises ``ZeroDivisionError`` when D_0 = 0 and ``ArithmeticError``
    when a division leaves a remainder.
    """
    if not denominator[0]:
        raise ZeroDivisionError("the denominator's constant term is 0")
    y: list[int] = []
    row = [1]  # C(n, k) for k = 0..n, one Pascal step per n
    for n in range(min(len(numerator), len(denominator))):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        # map stops at len(y) = n, so k runs over 0..n-1
        rest = numerator[n] - sum(map(mul, map(mul, row, y), denominator[n:0:-1]))
        value, remainder = divmod(rest, denominator[0])
        if remainder:
            raise ArithmeticError(
                f"coefficient {n}: {rest} is not divisible by {denominator[0]}"
            )
        y.append(value)
    return y


def _c_plus_minus_s(order: int) -> tuple[list[int], list[int]]:
    """C + S and C - S of the module docstring, for x^0..x^order: the
    entry at n is (-3)^(n//2), negated at odd n in C - S."""
    plus = [(-3) ** (n // 2) for n in range(order + 1)]
    return plus, [-p if n % 2 else p for n, p in enumerate(plus)]


def egf_no_dd_ascent(order: int) -> list[int]:
    """Scaled coefficients of the exponential generating function of the
    counts of permutations with no double descents and no initial
    descent: 1/2 + (sqrt(3)/2) tan((sqrt(3)/2) x + pi/6)."""
    errors.check_dp_size(order, f"series of {order + 1} coefficients")
    return egf_quotient(*_c_plus_minus_s(order))


def egf_no_dd(order: int) -> list[int]:
    """Scaled coefficients of the exponential generating function of the
    no-double-descent counts:
    (sqrt(3)/2) e^(x/2) / cos((sqrt(3)/2) x + pi/6)."""
    errors.check_dp_size(order, f"series of {order + 1} coefficients")
    return egf_quotient([1] * (order + 1), _c_plus_minus_s(order)[1])


def integer_coefficients(egf: list[int]) -> list[int]:
    """The numbers n! * [x^n] of a scaled series (entry n divided by
    2^n), checking each is a nonnegative integer."""
    out = []
    for n, scaled in enumerate(egf):
        value, remainder = divmod(scaled, 1 << n)
        if remainder or value < 0:
            raise ArithmeticError(
                f"{n}! times coefficient of x^{n} is not a nonnegative "
                f"integer: {scaled}/2^{n}"
            )
        out.append(value)
    return out
