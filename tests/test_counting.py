from fractions import Fraction

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import counting
from ddperm.errors import CapExceeded
from ddperm.render import decimal_str, percent_str


def test_no_dd_ascent_sequence():
    assert counting.no_dd_ascent_counts(5) == [1, 1, 1, 3, 9, 39]
    assert counting.no_dd_ascent_counts(0) == [1]
    # matches brute force on the overlap
    values = counting.no_dd_ascent_counts(8)
    for n in range(0, 9):
        assert values[n] == bf.count_no_dd_ascent_exact(n)


def test_no_dd_sequence():
    assert counting.no_dd_counts(5) == [1, 1, 2, 5, 17, 70]
    values = counting.no_dd_counts(8)
    for n in range(0, 9):
        assert values[n] == bf.count_dd_exact((), n)


def test_no_dd_sequence_grows():
    values = counting.no_dd_counts(30)
    for n in range(1, 30):
        assert values[n + 1] > values[n]


def test_dd_count_known_values():
    assert counting.dd_count((6,), 9) == 22419
    assert counting.dd_count((5,), 8) == 2904
    assert counting.dd_count((4,), 7) == 462
    assert counting.dd_count((), 0) == 1
    assert counting.dd_count((), 1) == 1
    assert counting.dd_count((2,), 2) == 0


def test_dd_count_matches_census_exhaustively():
    for n in range(0, 9):
        census = bf.dd_census(n)
        for indices in all_index_sets(2, n - 1):
            assert counting.dd_count(indices, n) == census.get(indices, 0)


def test_dd_ascent_count():
    values = counting.no_dd_ascent_counts(12)
    for n in range(2, 13):
        assert counting.dd_ascent_count((), n) == values[n]
    assert counting.dd_ascent_count((2,), 4) == 0
    for n in range(2, 9):
        for indices in all_index_sets(2, n - 1):
            assert counting.dd_ascent_count(indices, n) == (
                bf.count_dd_ascent_exact(indices, n)
            )
    with pytest.raises(ValueError):
        counting.dd_ascent_count((), 1)


def test_dd_count_cap():
    with pytest.raises(CapExceeded):
        counting.dd_count((2,), 2000)
    assert counting.dd_count((2,), 300, cap=1000) > 0


def test_singleton_recursion_parts():
    first, second, third = counting.dd_singleton_parts(6, 8)
    assert first + second == 15419
    assert first + second + third == 22419


def test_singleton_recursion_matches_dp():
    for m in range(4, 7):
        for n in range(m, 11):
            assert counting.dd_singleton_recursion(m, n) == (
                counting.dd_count((m,), n + 1)
            )


def test_singleton_recursion_small_m_conventions():
    for m in (2, 3):
        with pytest.warns(UserWarning):
            value = counting.dd_singleton_recursion(m, 8)
        assert value == counting.dd_count((m,), 9)


def test_singleton_recursion_argument_errors():
    with pytest.raises(ValueError, match="m="):
        counting.dd_singleton_parts(1, 5)
    with pytest.raises(ValueError, match="n >= m"):
        counting.dd_singleton_parts(5, 4)


def test_singleton_recursion_with_custom_provider():
    calls = []

    def provider(indices, n):
        calls.append((indices, n))
        return counting.dd_ascent_count(indices, n)

    value = counting.dd_singleton_recursion(6, 8, provider)
    assert value == 22419
    assert calls == [((5,), 8), ((4,), 7), ((3,), 6)]


def test_estimate_reproduces_published_digits():
    estimate = counting.dd_singleton_estimate(6, 8)
    assert estimate == Fraction(224191184, 10000)
    assert decimal_str(estimate, 3) == "22419.118"
    relative = (estimate - 22419) / 22419
    assert percent_str(relative, 2) == "0.00053%"


def test_estimate_missing_table_entry():
    table = {3: Fraction(1), 4: Fraction(3941, 10000)}
    with pytest.raises(ValueError, match=r"\[5\]"):
        counting.dd_singleton_estimate(6, 8, table)


def test_estimate_close_for_small_m():
    estimate = counting.dd_singleton_estimate(4, 6)
    exact = counting.dd_count((4,), 7)
    assert exact == 462
    assert abs(estimate - exact) / exact < Fraction(5, 100)


def test_ascent_ratio_average():
    assert counting.ascent_ratio_average(3, 12) == 1
    for m in (4, 5):
        average = counting.ascent_ratio_average(m, 12)
        table = counting.DEFAULT_RATIO_TABLE[m]
        assert abs(average - table) <= Fraction(5, 1000)
    with pytest.raises(ValueError):
        counting.ascent_ratio_average(2, 12)


def test_full_ascent_ratio_observation():
    # the m = 3 column of the table is exact: a double descent at 3
    # forces the first step to ascend
    for n in range(4, 13):
        assert counting.dd_ascent_count((3,), n) == counting.dd_count((3,), n)


def test_singleton_row_matches_per_m_dp():
    for n in range(0, 61):
        assert counting.dd_singleton_row(n) == {
            m: counting.dd_count((m,), n) for m in range(2, n)
        }, n


def test_singleton_row_matches_census():
    for n in range(0, 10):
        census = bf.dd_census(n)
        assert counting.dd_singleton_row(n) == {
            m: census.get((m,), 0) for m in range(2, n)
        }, n


def test_per_m_dp_reverse_complement_symmetry():
    # the row fills m > ceil(n/2) from this symmetry; the per-m DP
    # computes both sides independently
    for n in range(0, 41):
        for m in range(2, n):
            assert counting.dd_count((m,), n) == counting.dd_count((n + 1 - m,), n)


@pytest.mark.parametrize("indices", [(), (3,), (2, 5), (3, 4, 5), (2, 4), (4, 8, 12)])
def test_forward_columns_match_per_n_dp(indices):
    assert counting.dd_counts(indices, 40) == [
        counting.dd_count(indices, n) for n in range(0, 41)
    ]
    assert counting.dd_ascent_counts(indices, 40)[2:] == [
        counting.dd_ascent_count(indices, n) for n in range(2, 41)
    ]


def test_empty_set_columns_match_convolutions():
    assert counting.dd_counts((), 150) == counting.no_dd_counts(150)
    assert counting.dd_ascent_counts((), 150) == counting.no_dd_ascent_counts(150)


def test_columns_and_row_caps():
    with pytest.raises(CapExceeded):
        counting.dd_counts((2,), counting.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        counting.dd_ascent_counts((), counting.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        counting.dd_singleton_row(counting.DP_CAP + 1)
    assert counting.dd_counts((2,), 3, cap=3) == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        counting.dd_counts((), -1)
