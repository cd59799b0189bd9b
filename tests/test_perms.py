import itertools

import pytest

from ddperm.perms import (
    as_index_set,
    check_permutation,
    descent_set,
    double_descent_set,
    peak_set,
)


def test_descent_set_examples():
    assert descent_set((1, 7, 3, 2, 6, 4, 5)) == (2, 3, 5)
    assert descent_set((1, 2, 3, 4)) == ()
    assert descent_set((4, 3, 2, 1)) == (1, 2, 3)


def test_double_descent_set_examples():
    assert double_descent_set((4, 2, 1, 3)) == (2,)
    assert double_descent_set(tuple(range(1, 9))) == ()
    assert double_descent_set((5, 4, 3, 2, 1)) == (2, 3, 4)
    # the three words with double-descent set {2} in S_4
    hits = [
        w for w in itertools.permutations(range(1, 5))
        if double_descent_set(w) == (2,)
    ]
    assert sorted(hits) == [(3, 2, 1, 4), (4, 2, 1, 3), (4, 3, 1, 2)]


def test_peak_set_examples():
    assert peak_set((1, 7, 3, 2, 6, 4, 5)) == (2, 5)
    assert peak_set((1, 2, 3)) == ()
    assert peak_set((1, 3, 2)) == (2,)


def test_degenerate_lengths_have_empty_statistics():
    for w in ((), (1,)):
        assert descent_set(w) == ()
        assert double_descent_set(w) == ()
        assert peak_set(w) == ()


def test_check_permutation_rejects_bad_words():
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((0, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((2, 3, 4))


def test_as_index_set():
    assert as_index_set([5, 2]) == (2, 5)
    assert as_index_set(()) == ()
    with pytest.raises(ValueError):
        as_index_set([2, 2])
    with pytest.raises(ValueError):
        as_index_set([0, 3])


def test_double_descents_are_adjacent_descent_pairs():
    for n in range(0, 8):
        for w in itertools.permutations(range(1, n + 1)):
            des = set(descent_set(w))
            assert double_descent_set(w) == tuple(
                sorted(i for i in des if i - 1 in des)
            )


def test_statistic_ranges():
    for n in range(0, 8):
        for w in itertools.permutations(range(1, n + 1)):
            for i in double_descent_set(w):
                assert 2 <= i <= n - 1
            for i in peak_set(w):
                assert 2 <= i <= n - 1
