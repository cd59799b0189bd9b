from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddperm.render import csv_text, decimal_str, percent_str, ratio_str, round_half_even


def test_round_half_even():
    assert round_half_even(Fraction(5, 2)) == 2
    assert round_half_even(Fraction(7, 2)) == 4
    assert round_half_even(Fraction(-5, 2)) == -2
    assert round_half_even(Fraction(1, 3)) == 0
    assert round_half_even(Fraction(2, 3)) == 1


def test_decimal_str():
    assert decimal_str(Fraction(224191184, 10000), 3) == "22419.118"
    assert decimal_str(Fraction(1, 3), 4) == "0.3333"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"  # half-even on -0.125
    assert decimal_str(7, 0) == "7"
    assert decimal_str(Fraction(1, 2), 6) == "0.500000"


def _fraction_decimal(x: Fraction, places: int) -> str:
    # the Fraction multiply-and-compare rendering that ratio_str replaced
    scaled = round_half_even(x * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return sign + (digits if places == 0 else f"{digits[:-places]}.{digits[-places:]}")


@given(st.integers(-10**40, 10**40), st.integers(1, 10**15), st.integers(0, 12))
def test_decimal_str_matches_fraction_rounding(num, den, places):
    x = Fraction(num, den)
    assert decimal_str(x, places) == _fraction_decimal(x, places)
    assert ratio_str(num, den, places) == _fraction_decimal(x, places)  # unreduced


@given(st.integers(-10**20, 10**20), st.integers(0, 12))
def test_decimal_str_ties_go_to_even(k, places):
    # (2k+1) / (2 * 10^places) lies exactly halfway between two renderings
    x = Fraction(2 * k + 1, 2 * 10**places)
    assert decimal_str(x, places) == _fraction_decimal(x, places)


def test_percent_str():
    assert percent_str(Fraction(1184, 10000 * 22419), 2) == "0.00053%"
    assert percent_str(Fraction(1, 2), 2) == "50%"
    assert percent_str(Fraction(1, 3), 2) == "33%"
    assert percent_str(Fraction(0), 2) == "0%"
    assert percent_str(Fraction(-1, 400), 2) == "-0.25%"
    assert percent_str(Fraction(997, 100000), 2) == "1.0%"  # carry on round


def test_csv_text():
    text = csv_text(("a", "b"), [(1, "x"), (2, "y")])
    assert text == "a,b\n1,x\n2,y\n"
    with pytest.raises(ValueError):
        csv_text(("a",), [("1,2",)])
