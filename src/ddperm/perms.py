"""Permutation words and their descent statistics.

A permutation of [n] is a tuple of the integers 1..n in one-line
notation, e.g. ``(1, 7, 3, 2, 6, 4, 5)``.  Positions are 1-based
throughout: position ``i`` refers to the i-th entry ``w[i-1]``.

Index sets (descent sets, double-descent sets, peak sets) are returned
as strictly increasing tuples of positions.

>>> descent_set((1, 7, 3, 2, 6, 4, 5))
(2, 3, 5)
>>> double_descent_set((4, 2, 1, 3))
(2,)
>>> peak_set((1, 7, 3, 2, 6, 4, 5))
(2, 5)
"""

from __future__ import annotations

from typing import Iterable

Perm = tuple[int, ...]
IndexSet = tuple[int, ...]


def check_permutation(w: Iterable[int]) -> Perm:
    """Return ``w`` as a tuple, or raise ValueError if it does not
    contain each of 1..n exactly once.  Length 0 and 1 are valid."""
    word = tuple(w)
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word!r}")
    return word


def as_index_set(indices: Iterable[int]) -> IndexSet:
    """Normalize an iterable of positions into a strictly increasing tuple.

    Raises ValueError on duplicates or non-positive entries.
    """
    seq = sorted(indices)
    for x in seq:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"index sets contain positive integers only, got {x!r}")
    if any(a == b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"duplicate entries in index set: {seq!r}")
    return tuple(seq)


def descent_set(w: Iterable[int]) -> IndexSet:
    """Positions i in [1, n-1] with w_i > w_{i+1}."""
    word = check_permutation(w)
    return tuple(i for i in range(1, len(word)) if word[i - 1] > word[i])


def double_descent_set(w: Iterable[int]) -> IndexSet:
    """Positions i in [2, n-1] with w_{i-1} > w_i > w_{i+1}.

    Equivalently the i such that both i-1 and i are descents.
    """
    word = check_permutation(w)
    n = len(word)
    return tuple(
        i for i in range(2, n) if word[i - 2] > word[i - 1] > word[i]
    )


def peak_set(w: Iterable[int]) -> IndexSet:
    """Positions i in [2, n-1] with w_{i-1} < w_i > w_{i+1}."""
    word = check_permutation(w)
    n = len(word)
    return tuple(
        i for i in range(2, n) if word[i - 2] < word[i - 1] > word[i]
    )


def has_initial_ascent(w: Iterable[int]) -> bool:
    """True iff w_1 < w_2.  Undefined (ValueError) for length < 2;
    callers own the n <= 1 conventions."""
    word = check_permutation(w)
    if len(word) < 2:
        raise ValueError("initial ascent needs at least two entries")
    return word[0] < word[1]
