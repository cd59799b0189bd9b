import math

import pytest

from conftest import all_index_sets, reference_dd_census, reference_descent_census
from ddperm import bruteforce as bf
from ddperm.errors import CapExceeded


def test_dd_counts_known_values():
    assert bf.count_dd_exact((2,), 4) == 3
    assert bf.count_dd_exact((), 4) == 17
    assert bf.count_dd_exact((3,), 6) == 66


def test_dd_count_outside_window_is_zero():
    assert bf.count_dd_exact((1,), 5) == 0
    assert bf.count_dd_exact((5,), 5) == 0
    assert bf.count_dd_exact((2,), 2) == 0


def test_descent_counts():
    assert bf.count_descents_exact((), 5) == 1           # identity only
    assert bf.count_descents_exact((1, 2, 3, 4), 5) == 1  # reversal only
    assert bf.count_descents_exact((2,), 5) == 9
    assert bf.count_descents_exact((5,), 5) == 0


def test_initial_ascent_counts():
    # a double descent at n-1 never constrains the first step at n=4
    assert bf.count_dd_ascent_exact((3,), 4) == bf.count_dd_exact((3,), 4)
    assert bf.count_dd_ascent_exact((), 2) == 1
    # a double descent at 2 forces an initial descent
    assert bf.count_dd_ascent_exact((2,), 4) == 0
    with pytest.raises(ValueError):
        bf.count_dd_ascent_exact((), 1)


def test_no_dd_ascent_counts():
    assert bf.count_dd_ascent_exact((), 4) == 9
    assert bf.count_dd_ascent_exact((), 5) == 39


def test_census_matches_reference_scan():
    for n in range(0, 9):
        assert bf.dd_census(n) == reference_dd_census(n)


def test_descent_census_matches_reference_scan():
    for n in range(2, 9):
        reference = reference_descent_census(n)
        for des, count in reference.items():
            assert bf.count_descents_exact(des, n) == count
        assert sum(reference.values()) == math.factorial(n)


def test_partitions_of_factorial():
    for n in range(0, 9):
        census = bf.dd_census(n)
        assert sum(census.values()) == math.factorial(n)
        by_descents = sum(
            bf.count_descents_exact(s, n) for s in all_index_sets(1, n - 1)
        )
        assert by_descents == math.factorial(n)


def test_ascent_split():
    # initial-ascent + initial-descent = all, set by set, with the
    # initial-descent piece counted by an independent scan
    import itertools
    from collections import Counter

    for n in range(2, 9):
        with_initial_descent: Counter[tuple[int, ...]] = Counter()
        for w in itertools.permutations(range(1, n + 1)):
            if w[0] > w[1]:
                dd = tuple(
                    i for i in range(2, n) if w[i - 2] > w[i - 1] > w[i]
                )
                with_initial_descent[dd] += 1
        for indices in all_index_sets(2, n - 1):
            total = bf.count_dd_exact(indices, n)
            ascent = bf.count_dd_ascent_exact(indices, n)
            assert ascent + with_initial_descent.get(indices, 0) == total


def test_no_dd_ascent_equals_empty_set_ascent_count():
    # against an independent scan of S_n for an initial ascent and no
    # double descent
    import itertools

    for n in range(2, 9):
        scan = sum(
            w[0] < w[1] and not any(w[i - 2] > w[i - 1] > w[i] for i in range(2, n))
            for w in itertools.permutations(range(1, n + 1))
        )
        assert bf.count_dd_ascent_exact((), n) == scan


def test_cap_refusals():
    with pytest.raises(CapExceeded):
        bf.count_dd_exact((2,), 12)


def test_rimhook_counts():
    assert bf.count_rimhooks_exact((2,), 6) == 3
    assert bf.count_rimhooks_exact((), 6) == 13
    assert bf.count_rimhooks_exact((), 2) == 2
    assert bf.count_rimhooks_exact((9,), 5) == 0
    with pytest.raises(CapExceeded):
        bf.count_rimhooks_exact((), 40)


def test_rimhook_total_is_all_compositions():
    for n in range(1, 10):
        total = sum(
            bf.count_rimhooks_exact(indices, n)
            for indices in all_index_sets(2, n - 1)
        )
        assert total == 2 ** (n - 1)


def test_circular_counts():
    assert bf.count_circular_no_dd_exact(2) == 1
    assert bf.count_circular_no_dd_exact(3) == 1
    assert bf.count_circular_no_dd_exact(4) == 3
    with pytest.raises(ValueError):
        bf.count_circular_no_dd_exact(1)


def test_circular_count_matches_direct_scan():
    # independent scan over canonical representatives
    import itertools

    for n in range(3, 10):
        count = 0
        for rest in itertools.permutations(range(1, n)):
            w = (n,) + rest
            ok = True
            for i in range(1, n + 1):
                if w[(i - 2) % n] > w[i - 1] > w[i % n]:
                    ok = False
                    break
            count += ok
        assert bf.count_circular_no_dd_exact(n) == count
