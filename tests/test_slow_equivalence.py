"""Deep exhaustive equivalence checks (marked ``slow``: the default run
includes them, ``-m "not slow"`` leaves them out).

The default suite already checks the dynamic program against
enumeration exhaustively up to n = 9; these push the same comparison to
n = 10 and 11, where a full sweep takes seconds to tens of seconds.
"""

import math

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import counting

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
