import random
from fractions import Fraction

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import cli, counting, errors, series
from ddperm.errors import CapExceeded
from ddperm.render import decimal_str, percent_str


def test_no_dd_ascent_sequence():
    assert counting.no_dd_ascent_counts(5) == [1, 1, 1, 3, 9, 39]
    assert counting.no_dd_ascent_counts(0) == [1]
    # matches brute force on the overlap; n <= 1 is a convention
    values = counting.no_dd_ascent_counts(8)
    for n in range(2, 9):
        assert values[n] == bf.count_dd_ascent_exact((), n)


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
    assert counting.dd_count((2,), 300) > 0


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
        value = counting.dd_singleton_recursion(m, 8)
        assert value == counting.dd_count((m,), 9)


def test_singleton_recursion_argument_errors():
    with pytest.raises(ValueError, match="m="):
        counting.dd_singleton_parts(1, 5)
    with pytest.raises(ValueError, match="n >= m"):
        counting.dd_singleton_parts(5, 4)


def test_estimate_reproduces_published_digits():
    estimate = counting.dd_singleton_estimate(6, 8)
    assert estimate == Fraction(224191184, 10000)
    assert decimal_str(estimate, 3) == "22419.118"
    relative = (estimate - 22419) / 22419
    assert percent_str(relative, 2) == "0.00053%"


def test_estimate_missing_table_entry(capsys):
    # the table stops at m = 9, and dd({11}; 13) needs the m = 10 ratio
    with pytest.raises(ValueError, match=r"\[10\]"):
        counting.dd_singleton_estimate(11, 12)
    assert cli.main(["estimate", "--m", "11", "--n", "12"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ddperm: error: ratio table is missing entries for m = [10]\n"


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


def test_singleton_values_are_the_row_in_order():
    for n in [*range(0, 61), 300]:
        assert counting.dd_singleton_values(n) == list(counting.dd_singleton_row(n).values()), n


def test_singleton_rows_in_mixed_order(monkeypatch):
    # start from fresh empty-set columns, so the rows below grow them,
    # read a prefix of them, grow them again and read a prefix again
    monkeypatch.setattr(counting, "_EMPTY_COLUMNS", ([1], [1], ([1], [0])))
    for n in (80, 20, 120, 20):
        row = counting.dd_singleton_row(n)
        assert row == {m: counting.dd_count((m,), n) for m in range(2, n)}, n
        row[2] += 1  # the second row at 20 must not see this


def test_singleton_half_row_from_the_series_columns():
    # the closed form fed with F and a from the generating functions,
    # which run no insertion DP
    free = series.integer_coefficients(series.egf_no_dd(60))
    ascent = series.integer_coefficients(series.egf_no_dd_ascent(60))
    for n in range(0, 61):
        half = counting._singleton_half_row(n, free, ascent)
        positions = range(2, -(-n // 2) + 1)
        assert half == [counting.dd_count((m,), n) for m in positions], n
        if n < 11:
            census = bf.dd_census(n)
            assert half == [census.get((m,), 0) for m in positions], n


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


FORWARD_COLUMN_SETS = [(), (3,), (2, 5), (3, 4, 5), (2, 4), (4, 8, 12)]


# the closed form against the insertion DP, which it runs only for its
# left factors (lengths < max(I)): every I in [2, 9] after the listed sets
@pytest.mark.parametrize("indices", FORWARD_COLUMN_SETS + [
    indices for indices in all_index_sets(2, 9) if indices not in FORWARD_COLUMN_SETS])
def test_forward_columns_match_per_n_dp(indices):
    assert counting.dd_counts(indices, 40) == [
        counting.dd_count(indices, n) for n in range(0, 41)
    ]
    assert counting.dd_ascent_counts(indices, 40)[2:] == [
        counting.dd_ascent_count(indices, n) for n in range(2, 41)
    ]


def test_set_columns_match_brute_force():
    # the bit-sliced census shares no code with either column
    for indices in all_index_sets(2, 9):
        assert counting.dd_counts(indices, 10) == [
            bf.dd_census(n).get(indices, 0) for n in range(0, 11)
        ], indices
        assert counting.dd_ascent_counts(indices, 10)[2:] == [
            bf.count_dd_ascent_exact(indices, n) for n in range(2, 11)
        ], indices


def test_set_columns_on_random_sets_at_n_120():
    rng = random.Random(20191029)
    for _ in range(12):
        top = rng.randint(2, 40)
        rest = rng.sample(range(2, top), min(rng.randint(0, 4), top - 2))
        indices = tuple(sorted({*rest, top}))
        plain = counting.dd_counts(indices, 120)
        ascent = counting.dd_ascent_counts(indices, 120)
        for n in (top + 1, top + 2, 120):
            assert plain[n] == counting.dd_count(indices, n), (indices, n)
            assert ascent[n] == counting.dd_ascent_count(indices, n), (indices, n)


@pytest.mark.parametrize("indices", [(2,), (12,), (2, 4), (3, 7, 40), (4, 8, 12, 16, 20)])
def test_shortest_carried_columns_match_per_n_dp(indices):
    # one to three lengths past max(I): the binomial vectors carried over
    # t start from C(max I + 1, t), so an off-by-one there shows here
    for n_max in range(indices[-1] + 1, indices[-1] + 4):
        assert counting.dd_counts(indices, n_max)[2:] == [
            counting.dd_count(indices, n) for n in range(2, n_max + 1)], n_max
        assert counting.dd_ascent_counts(indices, n_max)[2:] == [
            counting.dd_ascent_count(indices, n) for n in range(2, n_max + 1)], n_max


@pytest.mark.parametrize("indices", [(2,), (5,), (3, 7), (1,), (1, 4), (2000,)])
def test_set_columns_are_zero_up_to_max(indices, monkeypatch):
    # n_max <= max(I) and sets holding 1 give zeros before any coefficient
    # is built, so a set far beyond n_max costs nothing
    def no_coefficients(*args):
        raise AssertionError("coefficients built for an all-zero column")
    monkeypatch.setattr(counting, "_set_coefficients", no_coefficients)
    for column in (counting.dd_counts, counting.dd_ascent_counts):
        for n_max in range(0, min(indices[-1], 30) + 1):
            assert column(indices, n_max) == [0] * (n_max + 1), (column, n_max)
        if indices[0] == 1:
            assert column(indices, 30) == [0] * 31, column


def test_empty_set_columns_match_convolutions(monkeypatch):
    # start from fresh columns, so the calls below grow them, serve a
    # prefix and grow them again
    monkeypatch.setattr(counting, "_EMPTY_COLUMNS", ([1], [1], ([1], [0])))
    for n in (60, 10, 150, 61):
        plain, ascent = counting.dd_counts((), n), counting.dd_ascent_counts((), n)
        assert plain == counting.no_dd_counts(n), n
        assert ascent == counting.no_dd_ascent_counts(n), n
        plain[-1] += 1  # the later calls must not see these
        ascent[0] = 0


def test_ascent_column_grown_first_matches_flagged_dp(monkeypatch):
    # fresh columns grown by the ascent column first, then in mixed
    # order; a(n) is read off the forbidding pass by reverse-complement,
    # the flagged per-n DP forces w_1 < w_2 itself
    monkeypatch.setattr(counting, "_EMPTY_COLUMNS", ([1], [1], ([1], [0])))
    early = counting.dd_ascent_counts((), 70)
    free = counting.dd_counts((), 10)
    ascent = counting.dd_ascent_counts((), 120)
    assert ascent[:2] == [1, 1]
    assert ascent[2:] == [counting.dd_ascent_count((), n) for n in range(2, 121)]
    assert early == ascent[:71]
    assert free == counting.no_dd_counts(10)


def test_columns_and_row_caps():
    with pytest.raises(CapExceeded):
        counting.dd_counts((2,), errors.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        counting.dd_ascent_counts((), errors.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        counting.dd_singleton_row(errors.DP_CAP + 1)
    with pytest.raises(ValueError):
        counting.dd_counts((), -1)
    with pytest.raises(ValueError):
        counting.dd_singleton_row(-2)
    for sequence in (counting.no_dd_counts, counting.no_dd_ascent_counts):
        with pytest.raises(CapExceeded):
            sequence(errors.DP_CAP + 1)
