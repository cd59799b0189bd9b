import itertools

import pytest

from ddperm import bruteforce as bf
from ddperm import circular as cp


def test_rotate():
    assert cp.rotate((1, 2, 3)) == (3, 1, 2)
    assert cp.rotate((1,)) == (1,)
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            v = w
            for _ in range(n):
                v = cp.rotate(v)
            assert v == w


def test_canonical_rotation():
    assert cp.canonical_rotation((1, 4, 2, 3)) == (4, 2, 3, 1)
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            canon = cp.canonical_rotation(w)
            assert canon[0] == n
            # canonical form is rotation-invariant
            assert cp.canonical_rotation(cp.rotate(w)) == canon


def test_class_count():
    import math

    for n in range(1, 8):
        classes = {
            cp.canonical_rotation(w)
            for w in itertools.permutations(range(1, n + 1))
        }
        assert len(classes) == math.factorial(n - 1)


def test_cyclic_double_descent_set():
    assert cp.cyclic_double_descent_set((4, 2, 1, 3)) == (2,)
    for n in range(3, 8):
        word = tuple(range(n, 0, -1))
        assert cp.cyclic_double_descent_set(word) == tuple(range(2, n))
    with pytest.raises(ValueError):
        cp.cyclic_double_descent_set((2, 1))


def test_canonical_representative_never_wraps():
    # with w_1 = n the wrap positions 1 and n need w_n > w_1, impossible
    for n in range(3, 7):
        for rest in itertools.permutations(range(1, n)):
            w = (n,) + rest
            dd = cp.cyclic_double_descent_set(w)
            assert 1 not in dd and n not in dd


def test_cyclic_dd_count_is_rotation_invariant():
    for n in range(3, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert len(cp.cyclic_double_descent_set(w)) == len(
                cp.cyclic_double_descent_set(cp.rotate(w))
            )


def test_formula_matches_exact_counts():
    assert cp.count_no_cyclic_dd(2) == 1
    for n in range(3, 9):
        assert cp.count_no_cyclic_dd(n) == bf.count_circular_no_dd_exact(n)
    with pytest.raises(ValueError):
        cp.count_no_cyclic_dd(1)


def test_known_values():
    assert cp.count_no_cyclic_dd(4) == 3
    assert cp.count_no_cyclic_dd(5) == 9
