"""Numeric evidence tables for the asymptotic conjectures.

Everything here is a finite-n harness: it can refute a statement with a
concrete witness or support it over the computed range, never prove it.
The three-valued verdict is part of the report type so downstream
tooling cannot upgrade evidence into proof.  All comparisons are exact
(integer cross-multiplication, Fractions); decimals in the rows are
renderings only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import counting
from .perms import IndexSet, as_index_set
from .render import csv_text, decimal_str

# rendering precision for ratio columns (comparisons never use these)
PLACES = 10

DEFAULT_SWEEP_MAX = 30


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


def validate_report_dict(data: dict) -> None:
    """Schema check for the JSON form of a report; raises ValueError."""
    required = {"conjecture", "n_range", "columns", "rows", "verdict",
                "witness", "notes"}
    missing = required - set(data)
    if missing:
        raise ValueError(f"report JSON is missing keys: {sorted(missing)}")
    if data["verdict"] not in {v.value for v in Verdict}:
        raise ValueError(f"unknown verdict: {data['verdict']!r}")
    if len(data["n_range"]) != 2:
        raise ValueError("n_range must be a pair")
    width = len(data["columns"])
    for row in data["rows"]:
        if len(row) != width:
            raise ValueError("row width does not match columns")
        if not all(isinstance(c, str) for c in row):
            raise ValueError("JSON rows must contain strings only")


def write_report(report: ConjectureReport, fmt: str, path) -> None:
    """Write a report as csv or json; identical inputs give identical
    bytes."""
    if fmt == "csv":
        text = csv_text(report.columns, report.rows)
    elif fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def singleton_table(n: int) -> dict[int, int]:
    """{i: dd({i}; n)} for all singleton positions, from one O(n^2)
    pass (:func:`ddperm.counting.dd_singleton_row`)."""
    return counting.dd_singleton_row(n)


def equidistribution_report(n: int, alpha: Fraction, beta: Fraction,
                            n_min: int = 4) -> ConjectureReport:
    """Equidistribution evidence (report id 6.1): the singleton counts
    with alpha*n < i < beta*n should carry a (beta - alpha) share of
    the total as n grows.

    Sweeps n_min..n; rows with no integer i in the open window are
    marked empty.  The verdict is supportive when the final ratio sits
    within [0.8, 1.2] and is no farther from 1 than the first half of
    the sweep got (a harness choice; the statement itself is asymptotic).
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not 0 < alpha < beta < 1:
        raise ValueError("need 0 < alpha < beta < 1")
    rows = []
    ratios: list[Fraction] = []
    for m in range(n_min, n + 1):
        table = singleton_table(m)
        total = sum(table.values())
        window = [i for i in table if alpha * m < i < beta * m]
        inside = sum(table[i] for i in window)
        share = (beta - alpha) * total
        if not window or share == 0:
            rows.append((m, "", "", "", "", "empty"))
            continue
        ratio = Fraction(inside) / share
        ratios.append(ratio)
        rows.append(
            (m, str(inside), str(share.numerator), str(share.denominator),
             decimal_str(ratio, PLACES), "")
        )
    if len(ratios) >= 2:
        head = ratios[: max(1, len(ratios) // 2)]
        head_dev = max(abs(r - 1) for r in head)
        last_dev = abs(ratios[-1] - 1)
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


def down_up_report(n: int) -> ConjectureReport:
    """Alternation evidence (report id 6.2): for 2 <= i < ceil(n/2),
    the singleton counts alternate, dd({i}) > dd({i+1}) at even i and
    < at odd i."""
    if n < 6:
        raise ValueError("the alternation needs n >= 6")
    table = singleton_table(n)
    half = -(-n // 2)
    rows = []
    witness = None
    for i in range(2, half):
        left, right = table[i], table[i + 1]
        expected = ">" if i % 2 == 0 else "<"
        ok = left > right if expected == ">" else left < right
        rows.append((n, i, str(left), str(right), expected, "pass" if ok else "FAIL"))
        if not ok and witness is None:
            witness = {"n": n, "i": i, "left": left, "right": right,
                       "expected": expected}
    verdict = Verdict.VIOLATED if witness else Verdict.HOLDS_IN_RANGE
    return ConjectureReport(
        conjecture_id="6.2",
        n_range=(n, n),
        columns=("n", "i", "dd_i", "dd_i_plus_1", "expected", "status"),
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
    )


def ratio_monotonicity_report(n: int) -> ConjectureReport:
    """Ratio-monotonicity evidence (report id 6.3): successive ratios
    dd({i})/dd({i+1}) decrease along even i and increase along odd i,
    for i < ceil(n/2) - 1.  Compared by exact cross-multiplication."""
    if n < 8:
        raise ValueError("the ratio comparisons need n >= 8")
    table = singleton_table(n)
    half = -(-n // 2)
    rows = []
    witness = None
    for i in range(2, half - 1):
        a, b, c, d = table[i], table[i + 1], table[i + 2], table[i + 3]
        if b == 0 or d == 0:
            rows.append((n, i, "", "", "", "skipped: zero denominator"))
            continue
        lhs = a * d
        rhs = c * b
        expected = ">" if i % 2 == 0 else "<"
        ok = lhs > rhs if expected == ">" else lhs < rhs
        rows.append((n, i, str(lhs), str(rhs), expected, "pass" if ok else "FAIL"))
        if not ok and witness is None:
            witness = {"n": n, "i": i, "left": lhs, "right": rhs,
                       "expected": expected}
    verdict = Verdict.VIOLATED if witness else Verdict.HOLDS_IN_RANGE
    return ConjectureReport(
        conjecture_id="6.3",
        n_range=(n, n),
        columns=("n", "i", "cross_left", "cross_right", "expected", "status"),
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        notes=("cross_left = dd_i * dd_{i+3}, cross_right = dd_{i+2} * dd_{i+1}",),
    )


def _ratio_rows(set_i: IndexSet, set_j: IndexSet, n_max: int):
    """(start, rows, ratios) shared by the ratio-series report and the
    tail-spread helper; raises when either set is never realizable."""
    nums = counting.dd_counts(set_i, n_max)
    dens = counting.dd_counts(set_j, n_max)
    for name, indices, counts in (("J", set_j, dens), ("I", set_i, nums)):
        if not any(counts):
            raise ValueError(
                f"dd({name};n) = 0 for all computed n "
                f"({name}={set(indices) or '{}'}, n <= {n_max})"
            )
    start = max(next(n for n, v in enumerate(c) if v) for c in (nums, dens))
    rows = []
    ratios: list[Fraction] = []
    for n in range(start, n_max + 1):
        num, den = nums[n], dens[n]
        if den == 0:
            rows.append((n, str(num), str(den), "", "skipped: denominator 0"))
            continue
        ratio = Fraction(num, den)
        ratios.append(ratio)
        rows.append((n, str(num), str(den), decimal_str(ratio, PLACES), ""))
    return start, rows, ratios


def ratio_series_report(set_i: Iterable[int], set_j: Iterable[int],
                        n_max: int = DEFAULT_SWEEP_MAX,
                        conjecture_id: str = "6.5") -> ConjectureReport:
    """Limit-ratio evidence (report ids 6.4/6.5): the series dd(I; n)/dd(J; n).

    Reports exact fractions from the first n where both counts are
    positive, with a tail summary (sign pattern of the successive
    differences and the spread of the last five values).  The verdict
    is INCONCLUSIVE by design: a limit cannot be established by finite
    evidence, only the shrinking spread can.
    """
    top = as_index_set(set_i)
    bottom = as_index_set(set_j)
    start, rows, ratios = _ratio_rows(top, bottom, n_max)
    tail = ratios[-5:]
    spread = max(tail) - min(tail) if tail else Fraction(0)
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    signs = "".join("+" if d > 0 else "-" if d < 0 else "=" for d in diffs[-5:])
    return ConjectureReport(
        conjecture_id=conjecture_id,
        n_range=(start, n_max),
        columns=("n", "dd_I", "dd_J", "ratio", "note"),
        rows=tuple(rows),
        verdict=Verdict.INCONCLUSIVE,
        notes=(
            f"tail sign pattern of successive differences: {signs or 'n/a'}",
            f"max spread over last {len(tail)} rows: {decimal_str(spread, PLACES)}",
            "INCONCLUSIVE by design: finite data cannot establish a limit",
        ),
    )


def ratio_series_tail_spread(set_i: Iterable[int], set_j: Iterable[int],
                             n_max: int = DEFAULT_SWEEP_MAX) -> Fraction:
    """Exact max-minus-min of dd(I;n)/dd(J;n) over the last five
    computed n; the quantity quoted in the report notes."""
    _, _, ratios = _ratio_rows(as_index_set(set_i), as_index_set(set_j), n_max)
    tail = ratios[-5:]
    if not tail:
        raise ValueError("no computable ratios in range")
    return max(tail) - min(tail)


def ratio_table_report(n_max: int = 12, m_max: int = 9) -> ConjectureReport:
    """Harness for the limiting initial-ascent ratio table (id 3.2):
    recompute the averages and compare with the tabulated four-place
    values, requiring agreement within 0.005."""
    rows = []
    witness = None
    for m in range(3, m_max + 1):
        average = counting.ascent_ratio_average(m, n_max)
        expected = counting.DEFAULT_RATIO_TABLE[m]
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
        n_range=(3, m_max),
        columns=("m", "average_ratio", "table_value", "status"),
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        notes=(f"averages over n = m+1 .. {n_max}",
               "agreement tolerance 0.005 absolute"),
    )
