"""Deep exhaustive equivalence checks (marked ``slow``: the default run
includes them, ``-m "not slow"`` leaves them out).

The default suite already checks the dynamic program against
enumeration exhaustively up to n = 9; these push the same comparison to
n = 10 and 11, where a full sweep takes seconds to tens of seconds, and
check the closed-form singleton row and set columns against the per-m
and per-n dynamic program, and both empty-set columns against the
generating functions, at the cap n = 1000.
"""

import math

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import counting, series

pytestmark = pytest.mark.slow


def test_equivalence_exhaustive_n10():
    census = bf.dd_census(10)
    assert sum(census.values()) == math.factorial(10)
    for indices in all_index_sets(2, 9):
        assert counting.dd_count(indices, 10) == census.get(indices, 0)


def test_equivalence_exhaustive_n11():
    census = bf.dd_census(11)
    assert sum(census.values()) == math.factorial(11)
    for indices in all_index_sets(2, 10):
        assert counting.dd_count(indices, 11) == census.get(indices, 0)


def test_singleton_row_at_the_cap():
    row = counting.dd_singleton_values(1000)
    for m in (2, 3, 500):
        assert row[m - 2] == counting.dd_count((m,), 1000), m


def test_empty_set_columns_at_the_cap():
    # the series run no DP code
    assert counting.dd_counts((), 1000) == series.integer_coefficients(
        series.egf_no_dd(1000))
    assert counting.dd_ascent_counts((), 1000) == series.integer_coefficients(
        series.egf_no_dd_ascent(1000))


@pytest.mark.parametrize("indices", [(3, 7), (5, 9, 10)])
def test_set_columns_at_the_cap(indices):
    assert counting.dd_counts(indices, 1000)[1000] == counting.dd_count(indices, 1000)
    assert counting.dd_ascent_counts(indices, 1000)[1000] == (
        counting.dd_ascent_count(indices, 1000))
