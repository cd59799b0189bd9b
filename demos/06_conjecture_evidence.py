#!/usr/bin/env python3
"""Numeric evidence for the open asymptotic statements.

Finite sweeps cannot prove limits; these reports either find an exact
counterexample or record that a pattern holds over the computed range.
This script sweeps the alternation pattern, watches a ratio series
settle, and writes a plot-ready CSV.
"""

from fractions import Fraction

from ddperm import conjectures as cj

print("down-up alternation of dd({i}; n) across i, exact comparisons:")
for n in (10, 20, 30, 100, 200, 300):
    report = cj.down_up_report(n)
    print(f"  n={n:>3}: {len(report.rows):>3} comparisons, "
          f"verdict {report.verdict.value}")
held = [n for n in range(6, 301)
        if cj.down_up_report(n).verdict is cj.Verdict.HOLDS_IN_RANGE]
print(f"  holds at {len(held)} of the {300 - 6 + 1} lengths n = 6..300 "
      "(each row dd({i}; n) is a closed form of O(n) products)")
print()

print("ratio series dd({2}; n) / dd({4}; n), last rows:")
report = cj.ratio_series_report((2,), (4,), 30, conjecture_id="6.4")
for row in report.rows[-5:]:
    print(f"  n={row[0]:>2}  ratio={row[3]}")
for note in report.notes:
    print("  " + note)
print()

print("window shares for the equidistribution statement, alpha=1/4 beta=3/4:")
report = cj.equidistribution_report(24, Fraction(1, 4), Fraction(3, 4))
for row in report.rows[-4:]:
    print(f"  n={row[0]:>2}  ratio={row[4]}")
print("  verdict:", report.verdict.value)
print()

out = "ratio_series_2_vs_4.csv"
with open(out, "w", newline="") as fh:
    fh.write(cj.report_text(cj.ratio_series_report((2,), (4,), 30), "csv"))
print("wrote", out, "(columns n, dd_I, dd_J, ratio; plot n vs ratio)")
