"""Numeric evidence tables for the asymptotic conjectures.

Everything here is a finite-n harness: it can refute a statement with a
concrete witness or support it over the computed range, never prove it.
The three-valued verdict is part of the report type so downstream
tooling cannot upgrade evidence into proof.  All comparisons are exact
(integer cross-multiplication, Fractions).  Count cells hold exact
ints, turned into text only by :func:`report_text`; decimals in the
rows are renderings only, each by one integer division of the row's own
numerator and denominator.  Fractions are built only where a verdict or
a tail summary compares values across rows.

The reports come in three shapes: the 6.1 sweep, which sums one
singleton row per length and is capped at ``EQUIDIST_CAP``; the 6.2/6.3
alternations, both built by :func:`_alternation_report` from exact
``(i, left, right)`` pairs read off one singleton row; and the 6.4/6.5
ratio series, whose tail summary reads the report's own count cells.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable

from . import counting
from .perms import as_index_set
from .errors import CapExceeded
from .render import csv_text, decimal_str, ratio_str

# rendering precision for ratio columns (comparisons never use these)
PLACES = 10

DEFAULT_SWEEP_MAX = 30

# Largest n of a 6.1 sweep: one singleton row per length, O(n^2)
# products of O(n log n)-bit integers in all; n = 400 takes about
# 0.25 s on a 2-vCPU VM.
EQUIDIST_CAP = 400


class Verdict(enum.Enum):
    HOLDS_IN_RANGE = "HOLDS-IN-RANGE"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ConjectureReport:
    conjecture_id: str
    n_range: tuple[int, int]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    verdict: Verdict
    witness: dict | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        """JSON form; every numeric cell is a string so arbitrarily
        large exact integers survive any consumer."""
        return {
            "conjecture": self.conjecture_id,
            "n_range": list(self.n_range),
            "columns": list(self.columns),
            "rows": [[str(cell) for cell in row] for row in self.rows],
            "verdict": self.verdict.value,
            "witness": (
                None
                if self.witness is None
                else {k: str(v) for k, v in self.witness.items()}
            ),
            "notes": list(self.notes),
        }


def report_text(report: ConjectureReport, fmt: str) -> str:
    """A report as csv or json text; identical inputs give identical
    text."""
    if fmt == "csv":
        return csv_text(report.columns, report.rows)
    if fmt == "json":
        import json
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")


def singleton_table(n: int) -> dict[int, int]:
    """{i: dd({i}; n)} for all singleton positions, in O(n) products
    (:func:`ddperm.counting.dd_singleton_row`)."""
    return counting.dd_singleton_row(n)


def _window_bounds(alpha: Fraction, beta: Fraction, m: int) -> tuple[int, int]:
    """The first and last singleton position i in [2, m-1] with
    alpha*m < i < beta*m (first > last when there is none)."""
    lo = alpha.numerator * m // alpha.denominator + 1
    hi = -(-beta.numerator * m // beta.denominator) - 1
    return max(lo, 2), min(hi, m - 1)


def equidistribution_report(n: int, alpha: Fraction, beta: Fraction,
                            n_min: int = 4) -> ConjectureReport:
    """Equidistribution evidence (report id 6.1): the singleton counts
    with alpha*n < i < beta*n should carry a (beta - alpha) share of
    the total as n grows.

    Sweeps n_min..n (n < n_min raises ``ValueError``), reading every
    length's total and window sum from its singleton row; rows with no
    integer i in the open window are marked empty.  The verdict is
    supportive when the final ratio sits within [0.8, 1.2] and is no
    farther from 1 than the first half of the sweep got (a harness
    choice; the statement itself is asymptotic).
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not 0 < alpha < beta < 1:
        raise ValueError("need 0 < alpha < beta < 1")
    if n > EQUIDIST_CAP:
        raise CapExceeded(
            f"6.1 sweep to n={n}: {n - n_min + 1} lengths exceed "
            f"the cap n={EQUIDIST_CAP}"
        )
    if n < n_min:
        raise ValueError(f"the 6.1 sweep needs n >= n_min = {n_min}, got n={n}")
    width = beta - alpha
    rows = []
    pairs: list[tuple[int, int]] = []  # inside/share as (num, den)
    for m in range(n_min, n + 1):
        lo, hi = _window_bounds(alpha, beta, m)
        row = counting.dd_singleton_row(m)
        total = sum(row.values())
        if lo > hi or total == 0:
            rows.append((m, "", "", "", "", "empty"))
            continue
        inside = sum(row[i] for i in range(lo, hi + 1))
        # share = width * total in lowest terms; width is already reduced
        g = gcd(total, width.denominator)
        share_num = width.numerator * total // g
        share_den = width.denominator // g
        pairs.append((inside * share_den, share_num))
        rows.append(
            (m, inside, share_num, share_den,
             ratio_str(inside * share_den, share_num, PLACES), "")
        )
    if len(pairs) >= 2:
        head_dev = max(abs(Fraction(*pair) - 1) for pair in pairs[: len(pairs) // 2])
        last_dev = abs(Fraction(*pairs[-1]) - 1)
        supported = last_dev <= Fraction(1, 5) and last_dev <= head_dev
    else:
        supported = False
    verdict = Verdict.HOLDS_IN_RANGE if supported else Verdict.INCONCLUSIVE
    return ConjectureReport(
        conjecture_id="6.1",
        n_range=(n_min, n),
        columns=("n", "window_sum", "share_num", "share_den", "ratio", "note"),
        rows=tuple(rows),
        verdict=verdict,
        notes=(
            f"alpha={alpha}, beta={beta}",
            "supportive verdict requires the final ratio within [0.8, 1.2] "
            "and no farther from 1 than the worst of the first half",
        ),
    )


def _alternation_report(conjecture_id: str, n: int,
                        cases: Iterable[tuple[int, int, int]],
                        columns: tuple[str, str],
                        notes: tuple[str, ...] = ()) -> ConjectureReport:
    """A report on exact ``(i, left, right)`` pairs that should alternate:
    left > right at even i and left < right at odd i.  ``columns`` names
    the left and right cells; the first failing i is the witness."""
    rows = []
    witness = None
    for i, left, right in cases:
        expected = ">" if i % 2 == 0 else "<"
        ok = left > right if expected == ">" else left < right
        rows.append((n, i, left, right, expected, "pass" if ok else "FAIL"))
        if not ok and witness is None:
            witness = {"n": n, "i": i, "left": left, "right": right,
                       "expected": expected}
    return ConjectureReport(
        conjecture_id=conjecture_id,
        n_range=(n, n),
        columns=("n", "i", *columns, "expected", "status"),
        rows=tuple(rows),
        verdict=Verdict.VIOLATED if witness else Verdict.HOLDS_IN_RANGE,
        witness=witness,
        notes=notes,
    )


def down_up_report(n: int) -> ConjectureReport:
    """Alternation evidence (report id 6.2): for 2 <= i < ceil(n/2),
    the singleton counts alternate, dd({i}) > dd({i+1}) at even i and
    < at odd i."""
    if n < 6:
        raise ValueError("the alternation needs n >= 6")
    table = singleton_table(n)
    cases = ((i, table[i], table[i + 1]) for i in range(2, -(-n // 2)))
    return _alternation_report("6.2", n, cases, ("dd_i", "dd_i_plus_1"))


def ratio_monotonicity_report(n: int) -> ConjectureReport:
    """Ratio-monotonicity evidence (report id 6.3): successive ratios
    dd({i})/dd({i+1}) decrease along even i and increase along odd i,
    for i < ceil(n/2) - 1.  Compared by exact cross-multiplication;
    every singleton count in the row is positive (n >= 3)."""
    if n < 8:
        raise ValueError("the ratio comparisons need n >= 8")
    table = singleton_table(n)
    cases = ((i, table[i] * table[i + 3], table[i + 2] * table[i + 1])
             for i in range(2, -(-n // 2) - 1))
    return _alternation_report(
        "6.3", n, cases, ("cross_left", "cross_right"),
        ("cross_left = dd_i * dd_{i+3}, cross_right = dd_{i+2} * dd_{i+1}",))


def ratio_series_report(set_i: Iterable[int], set_j: Iterable[int],
                        n_max: int = DEFAULT_SWEEP_MAX,
                        conjecture_id: str = "6.5") -> ConjectureReport:
    """Limit-ratio evidence (report ids 6.4/6.5): the series dd(I; n)/dd(J; n).

    Reports exact fractions from the first n where both counts are
    positive, with a tail summary (sign pattern of the successive
    differences and the spread of the last five values).  Both counts
    stay positive from there on: appending n+1 to a permutation keeps
    its double-descent set.  Raises ``ValueError`` when either set is
    never realizable up to ``n_max``.  The verdict is INCONCLUSIVE by
    design: a limit cannot be established by finite evidence, only the
    shrinking spread can.
    """
    top = as_index_set(set_i)
    bottom = as_index_set(set_j)
    nums = counting.dd_counts(top, n_max)
    dens = counting.dd_counts(bottom, n_max)
    for name, indices, counts in (("J", bottom, dens), ("I", top, nums)):
        if not any(counts):
            raise ValueError(
                f"dd({name};n) = 0 for all computed n "
                f"({name}={set(indices) or '{}'}, n <= {n_max})"
            )
    start = max(next(n for n, v in enumerate(c) if v) for c in (nums, dens))
    rows = tuple((n, nums[n], dens[n], ratio_str(nums[n], dens[n], PLACES), "")
                 for n in range(start, n_max + 1))
    ratios = [Fraction(num, den) for _, num, den, _, _ in rows[-6:]]
    tail = ratios[-5:]
    spread = max(tail) - min(tail)
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    signs = "".join("+" if d > 0 else "-" if d < 0 else "=" for d in diffs[-5:])
    return ConjectureReport(
        conjecture_id=conjecture_id,
        n_range=(start, n_max),
        columns=("n", "dd_I", "dd_J", "ratio", "note"),
        rows=rows,
        verdict=Verdict.INCONCLUSIVE,
        notes=(
            f"tail sign pattern of successive differences: {signs or 'n/a'}",
            f"max spread over last {len(tail)} rows: {decimal_str(spread, PLACES)}",
            "INCONCLUSIVE by design: finite data cannot establish a limit",
        ),
    )


def ratio_table_report(n_max: int = 12) -> ConjectureReport:
    """Harness for the limiting initial-ascent ratio table (id 3.2):
    recompute the averages and compare with the tabulated four-place
    values, requiring agreement within 0.005."""
    table = counting.DEFAULT_RATIO_TABLE
    rows = []
    witness = None
    for m, expected in table.items():
        average = counting.ascent_ratio_average(m, n_max)
        ok = abs(average - expected) <= Fraction(5, 1000)
        rows.append(
            (m, decimal_str(average, PLACES), decimal_str(expected, 4),
             "pass" if ok else "FAIL")
        )
        if not ok and witness is None:
            witness = {"m": m, "average": average, "expected": expected}
    verdict = Verdict.VIOLATED if witness else Verdict.HOLDS_IN_RANGE
    return ConjectureReport(
        conjecture_id="3.2",
        n_range=(min(table), max(table)),
        columns=("m", "average_ratio", "table_value", "status"),
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        notes=(f"averages over n = m+1 .. {n_max}",
               "agreement tolerance 0.005 absolute"),
    )
