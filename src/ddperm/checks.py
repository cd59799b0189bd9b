"""The registry of cross-checks: the package's exit criteria.

``CHECKS`` maps a name to a check of no arguments that returns ``None``
when every comparison holds, or a one-line witness: the first failing
``(label, got, want)`` case its generator yields, compared exactly with
``==`` and never by ``assert`` (which ``python -O`` strips).  ``ddperm
selftest`` runs the registry; ``tests/test_acceptance.py`` times it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, factorial

from . import bruteforce, circular, conjectures, counting, rimhooks, series
from .render import decimal_str, percent_str, set_str

#: dd(I; n) values quoted in the paper, keyed by (I, n)
KNOWN_VALUES = {
    ((2,), 4): 3, ((), 4): 17, ((3,), 6): 66, ((4,), 7): 462,
    ((5,), 8): 2904, ((6,), 7): 426, ((6,), 8): 2491, ((6,), 9): 22419,
}

#: the 6.1 windows (alpha, beta) the large-n evidence covers
EQUIDIST_WINDOWS = [(Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)),
                    (Fraction(1, 5), Fraction(4, 5))]

#: the rim hooks of length 6 encoding {} and {2}, as sorted skew shapes
SHAPES_6 = {
    (): ["(3,3,2,1)/(2,1)", "(4,2,1)/(1)", "(4,3,1)/(2)", "(4,3,2)/(2,1)",
         "(4,4,1)/(3)", "(4,4,2)/(3,1)", "(4,4,3)/(3,2)", "(5,1)",
         "(5,2)/(1)", "(5,3)/(2)", "(5,4)/(3)", "(5,5)/(4)", "(6)"],
    (2,): ["(3,2,1,1)/(1)", "(3,3,1,1)/(2)", "(4,1,1)"],
}


def _index_sets(n: int):
    """Every subset of [2, n-1]: the candidate double-descent sets of S_n."""
    positions = range(2, n)
    for r in range(len(positions) + 1):
        yield from combinations(positions, r)


def _holds(report, want: str = "HOLDS-IN-RANGE"):
    return (f"{report.conjecture_id} verdict for {report.n_range} (witness "
            f"{report.witness})", report.verdict.value, want)


def known_values():
    for (indices, n), want in KNOWN_VALUES.items():
        name = f"dd({set_str(indices)};{n})"
        yield f"dp {name}", counting.dd_count(indices, n), want
        yield f"brute {name}", bruteforce.count_dd_exact(indices, n), want
    yield "dp b(4)", counting.dd_ascent_count((), 4), 9
    yield "brute b(4)", bruteforce.count_dd_ascent_exact((), 4), 9


def estimator_digits():
    estimate = counting.dd_singleton_estimate(6, 8)
    yield "estimate of dd({6};9)", decimal_str(estimate, 3), "22419.118"
    error = percent_str(abs(estimate - 22419) / 22419)
    yield "its relative error", error, "0.00053%"


def singleton_recursion():
    for m in range(4, 9):
        for n in range(m, 14):  # lengths n+1 in m+1 .. 14
            yield (f"recursion vs dp for dd({{{m}}};{n + 1})",
                   counting.dd_singleton_recursion(m, n),
                   counting.dd_count((m,), n + 1))


def generating_function_coefficients():
    routes = ((series.egf_no_dd_ascent, counting.dd_ascent_counts,
               counting.no_dd_ascent_counts),
              (series.egf_no_dd, counting.dd_counts, counting.no_dd_counts))
    for egf, column, convolution in routes:
        coefficients = series.integer_coefficients(egf(30))
        yield (f"n! [x^n] of {egf.__name__}(30) vs {column.__name__}((), 30)",
               coefficients, column((), 30))
        yield (f"n! [x^n] of {egf.__name__}(30) vs {convolution.__name__}(30)",
               coefficients, convolution(30))
        yield (f"n! [x^n] of {egf.__name__}(300) vs {column.__name__}((), 300)",
               series.integer_coefficients(egf(300)), column((), 300))
    # egf_no_dd * D = 1 for D(x) = sum_k x^(3k)/(3k)! - x^(3k+1)/(3k+1)!,
    # whose n! [x^n] are 1, -1, 0 repeating
    counts = counting.dd_counts((), 60)
    for n in range(61):
        product = sum(comb(n, k) * counts[k] * (1, -1, 0)[(n - k) % 3]
                      for k in range(n + 1))
        yield f"n! [x^{n}] of egf_no_dd * D from dd_counts", product, int(n == 0)


def rimhook_fibonacci_formulas():
    scan = bruteforce.count_rimhooks_exact
    for m in range(2, 11):
        for n in range(m + 1, 19):
            formula = rimhooks.count_singleton(m, n)
            yield f"F(n-m)F(m-1) vs scan for R({{{m}}};{n})", formula, scan((m,), n)
    for n in range(2, 19):
        formula = rimhooks.count_empty(n)
        yield f"F(n+1) vs scan for R({{}};{n})", formula, scan((), n)
        yield (f"F(n+1) vs binomial sum for R({{}};{n})", formula,
               rimhooks.count_empty_binomial(n))
    for indices, shapes in SHAPES_6.items():
        hooks = rimhooks.enumerate_rimhooks(indices, 6)
        yield (f"shapes of R({set_str(indices)};6)",
               sorted(map(rimhooks.format_skew, hooks)), shapes)


def tableau_sum_identity_and_bounds():
    cases = [(indices, n) for n in range(1, 10) for indices in _index_sets(n)]
    for indices, n in cases + [((i,), 10) for i in range(2, 10)]:
        name = f"dd({set_str(indices)};{n})"
        fast = counting.dd_count(indices, n)
        via = rimhooks.dd_count_via_rimhooks(indices, n)
        yield f"tableau sum vs dp for {name}", via, fast
        if fast:  # equal to the tableau sum, so some rim hook encodes the set
            low, high = rimhooks.dd_bounds(indices, n)
            yield f"{low} <= {name} = {fast} <= {high}", low <= fast <= high, True


def circular_rotation_counts():
    for n in range(3, 11):
        yield (f"scan vs formula at n={n}", bruteforce.count_circular_no_dd_exact(n),
               circular.count_no_cyclic_dd(n))


def fraction_tail_notes(pairs) -> tuple[str, str]:
    """The 6.4/6.5 tail notes of the ratios num/den in ``pairs`` by
    Fraction arithmetic: the oracle for the reports' integer route."""
    ratios = [Fraction(num, den) for num, den in pairs[-6:]]
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    signs = "".join("+" if d > 0 else "-" if d < 0 else "=" for d in diffs)
    tail = ratios[-5:]
    return (f"tail sign pattern of successive differences: {signs or 'n/a'}",
            f"max spread over last {len(tail)} rows: "
            + decimal_str(max(tail) - min(tail), conjectures.PLACES))


def conjecture_evidence():
    yield from map(_holds, map(conjectures.down_up_report, range(6, 31)))
    yield from map(_holds, map(conjectures.ratio_monotonicity_report, range(8, 31)))
    yield _holds(conjectures.ratio_table_report(12))
    report = conjectures.ratio_series_report((2,), (4,), 30)
    pairs = [(num, den) for _, num, den, _ in report.rows]
    tail = [Fraction(*pair) for pair in pairs[-5:]]
    spread = max(tail) - min(tail)
    yield f"6.4 tail spread {spread} < 1/100", spread < Fraction(1, 100), True
    yield "6.4 tail notes vs Fraction", report.notes[:2], fraction_tail_notes(pairs)
    # evidence only: these reports never claim proof
    yield _holds(report, "INCONCLUSIVE")


def cross_method_equivalence():
    for n in range(0, 10):
        census = bruteforce.dd_census(n)
        dp = {s: counting.dd_count(s, n) for s in _index_sets(n)}
        for s, count in dp.items():
            yield f"dp vs census dd({set_str(s)};{n})", count, census.get(s, 0)
        yield f"dp total at n={n}", sum(dp.values()), factorial(n)
        yield f"census total at n={n}", sum(census.values()), factorial(n)
    for n in range(1, 13):
        hooks = [hook for indices in _index_sets(n)
                 for hook in rimhooks.enumerate_rimhooks(indices, n)]
        yield f"rim hooks of length {n}", len(hooks), 2 ** (n - 1)
        yield f"distinct rim hooks of length {n}", len(set(hooks)), 2 ** (n - 1)
        for hook in hooks:
            yield (f"rim hook {hook} from its descents",
                   rimhooks.from_descents(hook.descent_positions(), n), hook)
            if n <= 9:
                yield (f"fillings of {hook} vs descent census",
                       rimhooks.tableau_count(hook),
                       bruteforce.count_descents_exact(hook.descent_positions(), n))


def conjecture_evidence_at_large_n():
    for n in (*range(31, 151), 200, 300):
        yield _holds(conjectures.down_up_report(n))
        yield _holds(conjectures.ratio_monotonicity_report(n))
    for alpha, beta in EQUIDIST_WINDOWS:
        yield _holds(conjectures.equidistribution_report(200, alpha, beta))


def singleton_row_vs_dp():
    for n, positions in ((120, range(2, 120)), (300, (*range(2, 8), 149, 150))):
        row = conjectures.singleton_table(n)
        for m in positions:
            yield f"row vs dp for dd({{{m}}};{n})", row[m], counting.dd_count((m,), n)
    # each 6.1 row's (window sum, total), the total read back from its
    # share (beta - alpha) * total; None for a row marked empty
    censuses = [bruteforce.dd_census(n) for n in range(11)]
    for alpha, beta in EQUIDIST_WINDOWS:
        report = conjectures.equidistribution_report(10, alpha, beta)
        for (m, inside, num, den, *_), census in zip(report.rows, censuses[4:]):
            row = {i: census.get((i,), 0) for i in range(2, m)}
            window = [v for i, v in row.items() if alpha * m < i < beta * m]
            total = sum(row.values())
            yield (f"6.1 window sum and total at n={m}, window ({alpha}, {beta})",
                   (inside, Fraction(num, den) / (beta - alpha)) if inside != "" else None,
                   (sum(window), total) if window else None)


def set_columns_vs_dp():
    # (2, 4) is unrealizable: double descents at 2 and 4 force one at 3
    for indices in ((2,), (12,), (3, 7), (2, 3, 4), (5, 9, 10), (2, 4)):
        for column, count in ((counting.dd_counts, counting.dd_count),
                              (counting.dd_ascent_counts, counting.dd_ascent_count)):
            values = column(indices, 300)
            for n in (indices[-1] + 1, indices[-1] + 2, 150, 300):
                yield (f"{column.__name__}({set_str(indices)}, 300)[{n}] vs "
                       f"{count.__name__}", values[n], count(indices, n))


def _first_mismatch(cases) -> str | None:
    for label, got, want in cases():
        if got != want:
            return f"{label}: got {got}, expected {want}"
    return None


CHECKS = {
    name: partial(_first_mismatch, cases)
    for name, cases in [
        ("known-values", known_values),
        ("estimator-digits", estimator_digits),
        ("singleton-recursion", singleton_recursion),
        ("generating-function-coefficients", generating_function_coefficients),
        ("rimhook-fibonacci-formulas", rimhook_fibonacci_formulas),
        ("tableau-sum-identity-and-bounds", tableau_sum_identity_and_bounds),
        ("circular-rotation-counts", circular_rotation_counts),
        ("conjecture-evidence", conjecture_evidence),
        ("cross-method-equivalence", cross_method_equivalence),
        ("conjecture-evidence-at-large-n", conjecture_evidence_at_large_n),
        ("singleton-row-vs-dp", singleton_row_vs_dp),
        ("set-columns-vs-dp", set_columns_vs_dp),
    ]
}
