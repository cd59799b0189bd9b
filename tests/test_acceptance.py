"""Acceptance suite: the package's exit criteria.

Each test runs one check of ``ddperm.checks.CHECKS`` (the checks that
``ddperm selftest`` runs) under its time budget, and prints one
pass/fail line with its runtime; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import time

from ddperm.checks import CHECKS


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


BUDGETS = {  # seconds
    "known-values": 10, "estimator-digits": 1, "singleton-recursion": 30,
    "generating-function-coefficients": 5, "rimhook-fibonacci-formulas": 10,
    "tableau-sum-identity-and-bounds": 60, "circular-rotation-counts": 60,
    "conjecture-evidence": 120, "cross-method-equivalence": 90,
    "conjecture-evidence-at-large-n": 30, "singleton-row-vs-dp": 10,
    "set-columns-vs-dp": 10,
}


def _acceptance_test(name: str):
    def test():
        with _Timer(name, BUDGETS[name]):
            witness = CHECKS[name]()
            assert witness is None, f"{name}: {witness}"
    return test


def test_every_check_has_a_budget():
    assert BUDGETS.keys() == CHECKS.keys()


test_1_known_value_regression = _acceptance_test("known-values")
test_2_estimator_digits = _acceptance_test("estimator-digits")
test_3_singleton_recursion_grid = _acceptance_test("singleton-recursion")
test_4_generating_function_coefficients = _acceptance_test(
    "generating-function-coefficients")
test_5_rimhook_count_formulas = _acceptance_test("rimhook-fibonacci-formulas")
test_6_tableau_sum_identity_and_bounds = _acceptance_test(
    "tableau-sum-identity-and-bounds")
test_7_circular_rotation_classes = _acceptance_test("circular-rotation-counts")
test_8_conjecture_evidence = _acceptance_test("conjecture-evidence")
test_9_cross_method_equivalence = _acceptance_test("cross-method-equivalence")
test_10_conjecture_evidence_at_large_n = _acceptance_test(
    "conjecture-evidence-at-large-n")
test_11_singleton_row_vs_dp = _acceptance_test("singleton-row-vs-dp")
test_12_set_columns_vs_dp = _acceptance_test("set-columns-vs-dp")
