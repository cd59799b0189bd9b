"""Deterministic text rendering of exact values.

Comparisons elsewhere are exact; these helpers only turn Fractions (or
integer numerator/denominator pairs) into fixed-point decimal strings
(round half to even), so identical inputs always produce identical
bytes and no float ever enters a report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def round_half_even(x: Fraction) -> int:
    """Nearest integer, ties to even, by one integer division."""
    floor, rem = divmod(x.numerator, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and floor % 2):
        return floor + 1
    return floor


def set_str(indices) -> str:
    """Index-set notation for messages: (2, 5) -> "{2,5}", () -> "{}"."""
    return "{" + ",".join(str(i) for i in indices) + "}"


def decimal_str(x: Fraction | int, places: int = 6) -> str:
    """Fixed-point decimal rendering with the given number of places."""
    return ratio_str(x.numerator, x.denominator, places)


def ratio_str(num: int, den: int, places: int = 6) -> str:
    """num/den (den > 0) as :func:`decimal_str` renders it, by one
    integer division: no Fraction, so no gcd of the operands."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if places == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent_str(x: Fraction) -> str:
    """x rendered as a percentage to two significant figures,
    e.g. Fraction(1184, 10000*22419) -> '0.00053%'."""
    p = x * 100
    if p == 0:
        return "0%"
    sign = "-" if p < 0 else ""
    p = abs(p)
    exponent = 0
    while p >= 10:
        p /= 10
        exponent += 1
    while p < 1:
        p *= 10
        exponent -= 1
    mantissa = round_half_even(p * 10)
    if mantissa >= 100:  # rounding carried over, e.g. 9.97 -> 10
        mantissa //= 10
        exponent += 1
    digits = str(mantissa)
    point = exponent + 1
    if point <= 0:
        text = "0." + "0" * (-point) + digits
    elif point >= len(digits):
        text = digits + "0" * (point - len(digits))
    else:
        text = digits[:point] + "." + digits[point:]
    return f"{sign}{text}%"


def csv_text(columns: tuple[str, ...], rows) -> str:
    """Plain comma-separated text; cells must be ints or strings that
    contain no commas or newlines (all our reports satisfy this)."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            text = str(cell)
            if "," in text or "\n" in text:
                raise ValueError(f"cell needs quoting, refusing: {text!r}")
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
