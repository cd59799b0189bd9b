"""Acceptance suite: the package's exit criteria.

Each test prints one pass/fail line with its runtime; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
All comparisons are exact; the stated time budgets are asserted.
"""

import time
from fractions import Fraction

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import circular as cp
from ddperm import conjectures as cj
from ddperm import counting
from ddperm import rimhooks as rh
from ddperm import series
from ddperm.render import decimal_str, percent_str


class _Timer:
    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )


KNOWN_VALUES = {
    ((2,), 4): 3,
    ((), 4): 17,
    ((3,), 6): 66,
    ((4,), 7): 462,
    ((5,), 8): 2904,
    ((6,), 7): 426,
    ((6,), 8): 2491,
    ((6,), 9): 22419,
}


def test_1_known_value_regression():
    with _Timer("1 known-value regression", 10):
        for (indices, n), expected in KNOWN_VALUES.items():
            assert counting.dd_count(indices, n) == expected
            assert bf.count_dd_exact(indices, n) == expected
        assert counting.no_dd_ascent_counts(4)[4] == 9
        assert bf.count_no_dd_ascent_exact(4) == 9


def test_2_estimator_digits():
    with _Timer("2 estimator digits", 1):
        estimate = counting.dd_singleton_estimate(6, 8)
        assert decimal_str(estimate, 3) == "22419.118"
        relative = abs(estimate - 22419) / 22419
        assert percent_str(relative, 2) == "0.00053%"


def test_3_singleton_recursion_grid():
    with _Timer("3 singleton recursion grid", 30):
        for m in range(4, 9):
            for n in range(m, 14):  # lengths n+1 in m+1 .. 14
                assert counting.dd_singleton_recursion(m, n) == (
                    counting.dd_count((m,), n + 1)
                ), (m, n)


def test_4_generating_function_coefficients():
    with _Timer("4 generating-function coefficients", 5):
        assert series.integer_coefficients(series.egf_no_dd_ascent(30)) == (
            counting.no_dd_ascent_counts(30)
        )
        assert series.integer_coefficients(series.egf_no_dd(30)) == (
            counting.no_dd_counts(30)
        )


EMPTY_SET_SHAPES_6 = {
    "(6)",
    "(5,5)/(4)",
    "(5,4)/(3)",
    "(5,3)/(2)",
    "(5,2)/(1)",
    "(5,1)",
    "(4,4,3)/(3,2)",
    "(4,3,2)/(2,1)",
    "(4,4,2)/(3,1)",
    "(4,2,1)/(1)",
    "(4,3,1)/(2)",
    "(4,4,1)/(3)",
    "(3,3,2,1)/(2,1)",
}

SINGLETON_2_SHAPES_6 = {"(4,1,1)", "(3,2,1,1)/(1)", "(3,3,1,1)/(2)"}


def test_5_rimhook_count_formulas():
    with _Timer("5 rim-hook count formulas", 10):
        for m in range(2, 11):
            for n in range(m + 1, 19):
                assert rh.count_singleton(m, n) == (
                    bf.count_rimhooks_exact((m,), n)
                ), (m, n)
        for n in range(2, 19):
            value = rh.count_empty(n)
            assert value == bf.count_rimhooks_exact((), n)
            assert value == rh.count_empty_binomial(n)
        empty_6 = {rh.format_skew(h) for h in rh.enumerate_rimhooks((), 6)}
        assert empty_6 == EMPTY_SET_SHAPES_6
        singleton_6 = {rh.format_skew(h) for h in rh.enumerate_rimhooks((2,), 6)}
        assert singleton_6 == SINGLETON_2_SHAPES_6


def test_6_tableau_sum_identity_and_bounds():
    with _Timer("6 tableau-sum identity and bounds", 60):
        for n in range(1, 10):
            for indices in all_index_sets(2, n - 1):
                via = rh.dd_count_via_rimhooks(indices, n)
                fast = counting.dd_count(indices, n)
                assert via == fast, (indices, n)
                hooks = rh.enumerate_rimhooks(indices, n)
                if hooks:
                    low, high = rh.dd_bounds(indices, n)
                    assert low <= fast <= high, (indices, n)
        for i in range(2, 10):
            assert rh.dd_count_via_rimhooks((i,), 10) == (
                counting.dd_count((i,), 10)
            )
            low, high = rh.dd_bounds((i,), 10)
            assert low <= counting.dd_count((i,), 10) <= high


def test_7_circular_rotation_classes():
    with _Timer("7 circular rotation classes", 60):
        for n in range(3, 11):
            assert bf.count_circular_no_dd_exact(n) == (
                cp.count_no_cyclic_dd(n)
            ), n


def test_8_conjecture_evidence():
    with _Timer("8 conjecture evidence", 120):
        for n in range(6, 31):
            report = cj.down_up_report(n)
            assert report.verdict is cj.Verdict.HOLDS_IN_RANGE, (n, report.witness)
        for n in range(8, 31):
            report = cj.ratio_monotonicity_report(n)
            assert report.verdict is cj.Verdict.HOLDS_IN_RANGE, (n, report.witness)
        for m in range(3, 10):
            average = counting.ascent_ratio_average(m, 12)
            expected = counting.DEFAULT_RATIO_TABLE[m]
            assert abs(average - expected) <= Fraction(5, 1000), m
        spread = cj.ratio_series_tail_spread((2,), (4,), 30)
        assert spread < Fraction(1, 100)
        # evidence only: these reports never claim proof
        assert cj.ratio_series_report((2,), (4,), 30).verdict is (
            cj.Verdict.INCONCLUSIVE
        )


def test_9_cross_method_equivalence():
    with _Timer("9 cross-method equivalence", 90):
        import math

        for n in range(0, 10):
            census = bf.dd_census(n)
            total = 0
            for indices in all_index_sets(2, n - 1):
                fast = counting.dd_count(indices, n)
                assert fast == census.get(indices, 0), (indices, n)
                total += fast
            assert total == math.factorial(n)
            assert sum(census.values()) == math.factorial(n)
        for n in range(1, 13):
            hooks = [
                hook
                for indices in all_index_sets(2, n - 1)
                for hook in rh.enumerate_rimhooks(indices, n)
            ]
            assert len(set(hooks)) == len(hooks) == 2 ** (n - 1)
            for hook in hooks:
                assert rh.from_descents(hook.descent_positions(), n) == hook


def test_10_conjecture_evidence_at_large_n():
    with _Timer("10 conjecture evidence at large n", 30):
        for n in (*range(31, 151), 200, 300):
            report = cj.down_up_report(n)
            assert report.verdict is cj.Verdict.HOLDS_IN_RANGE, (n, report.witness)
            report = cj.ratio_monotonicity_report(n)
            assert report.verdict is cj.Verdict.HOLDS_IN_RANGE, (n, report.witness)
