from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddperm import counting, series


def convolve(f, g, n):
    """n-th scaled coefficient of the product of two scaled series."""
    return sum(comb(n, k) * f[k] * g[n - k] for k in range(n + 1))


@settings(max_examples=30)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=13),
    st.lists(st.integers(-50, 50), min_size=1, max_size=13),
)
def test_series_multiply_divide_roundtrip(f, g):
    if not g[0]:
        return
    k = min(len(f), len(g))
    product = [convolve(f, g, n) for n in range(k)]
    assert series.egf_quotient(product, g) == f[:k]


def test_series_division_guards_constant_term():
    with pytest.raises(ZeroDivisionError):
        series.egf_quotient([1, 2], [0, 1])


def test_egf_quotient_rejects_inexact_division():
    with pytest.raises(ArithmeticError):
        series.egf_quotient([1, 1], [2, 1])


def test_egf_ascent_start_coefficients():
    values = series.integer_coefficients(series.egf_no_dd_ascent(400))
    assert values[:5] == [1, 1, 1, 3, 9]
    assert values == counting.dd_ascent_counts((), 400)


def test_egf_no_dd_coefficients():
    values = series.integer_coefficients(series.egf_no_dd(400))
    assert values[:6] == [1, 1, 2, 5, 17, 70]
    assert values == counting.dd_counts((), 400)


def test_egf_coefficients_are_rational():
    # no sqrt(3) part survives: every scaled entry is a Python integer
    for egf in (series.egf_no_dd_ascent(30), series.egf_no_dd(30)):
        assert all(type(c) is int for c in egf)


def test_ascent_start_egf_satisfies_riccati_identity():
    # y' = y^2 - y + 1: the derivative of a scaled series is half the
    # shifted list, and a product is a binomial convolution
    y = series.egf_no_dd_ascent(30)
    for n in range(30):
        assert y[n + 1] == 2 * (convolve(y, y, n) - y[n] + (n == 0)), n


def test_no_dd_egf_satisfies_coupling_identity():
    # g' = g * y couples the two sequences
    y = series.egf_no_dd_ascent(30)
    g = series.egf_no_dd(30)
    for n in range(30):
        assert g[n + 1] == 2 * convolve(g, y, n), n


def test_integer_coefficients_rejects_inexact_or_negative():
    assert series.integer_coefficients([1, 2, 20]) == [1, 1, 5]
    with pytest.raises(ArithmeticError):
        series.integer_coefficients([1, 3])  # 3 / 2^1
    with pytest.raises(ArithmeticError):
        series.integer_coefficients([1, -2])
