#!/usr/bin/env python3
"""Exact verification of the two closed-form generating functions.

The exponential generating function of the no-double-descent counts is
(sqrt(3)/2) e^(x/2) / cos((sqrt(3)/2) x + pi/6), and the ascent-start
variant is 1/2 + (sqrt(3)/2) tan((sqrt(3)/2) x + pi/6).  Stored by the
integers 2^n * n! * [x^n], each is a quotient of two integer sequences
(the sqrt(3) factors cancel).  Every coefficient times n! must land
exactly on the integer computed by the convolution recursions; no
floats, no tolerances.
"""

from math import comb

from ddperm import counting, series

ORDER = 16

egf = series.egf_no_dd(ORDER)
values = series.integer_coefficients(egf)
expected = counting.no_dd_counts(ORDER)

print("no-double-descent counts vs (sqrt3/2) e^(x/2) / cos((sqrt3/2)x + pi/6):")
print(f"{'n':>3} {'n! * coeff':>16} {'recursion':>16}")
for n in range(ORDER + 1):
    print(f"{n:>3} {values[n]:>16} {expected[n]:>16}")
    assert values[n] == expected[n]
print("exact match at every order")
print()


def product(f, g, n):
    """2^n n! [x^n] of a product: a binomial convolution."""
    return sum(comb(n, k) * f[k] * g[n - k] for k in range(n + 1))


# in these coordinates the derivative is the list shifted by one and
# halved, so each identity is an integer equation per order
y = series.egf_no_dd_ascent(ORDER)
assert all(y[n + 1] == 2 * (product(y, y, n) - y[n] + (n == 0)) for n in range(ORDER))
print("y = ascent-start egf satisfies y' = y^2 - y + 1 up to order", ORDER - 1)

g = egf
assert all(g[n + 1] == 2 * product(g, y, n) for n in range(ORDER))
print("g = no-double-descent egf satisfies g' = g * y up to order", ORDER - 1)
