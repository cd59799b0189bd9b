"""Circular permutations: rotation classes and cyclic double descents.

A circular permutation is an equivalence class of S_n under the
rotation w -> (w_n, w_1, ..., w_{n-1}); each class has exactly one
representative with w_1 = n.  Read cyclically, double descents can sit
at every position 1..n: position 1 compares w_n > w_1 > w_2 and
position n compares w_{n-1} > w_n > w_1.
"""

from __future__ import annotations

from typing import Iterable

from .perms import IndexSet, Perm, check_permutation
from .counting import dd_ascent_counts


def rotate(w: Iterable[int]) -> Perm:
    """One rotation step: (w_1, ..., w_n) -> (w_n, w_1, ..., w_{n-1})."""
    word = check_permutation(w)
    if not word:
        raise ValueError("cannot rotate the empty permutation")
    return (word[-1],) + word[:-1]


def cyclic_double_descent_set(w: Iterable[int]) -> IndexSet:
    """Positions i in [1, n] with w_{i-1} > w_i > w_{i+1}, indices mod n.

    Positions are reported in the coordinates of the word as given;
    rotation shifts positions but preserves how many there are.
    """
    word = check_permutation(w)
    n = len(word)
    if n < 3:
        raise ValueError("cyclic double descents need n >= 3")
    out = []
    for i in range(1, n + 1):
        prev = word[(i - 2) % n]
        cur = word[i - 1]
        nxt = word[i % n]
        if prev > cur > nxt:
            out.append(i)
    return tuple(out)


def count_no_cyclic_dd(n: int) -> int:
    """Rotation classes of S_n without cyclic double descents.

    Prepending n to a word with no double descents and no initial
    descent gives exactly the canonical representatives with no cyclic
    double descents, so the count equals the length n-1 entry of the
    initial-ascent column :func:`ddperm.counting.dd_ascent_counts` of the
    empty set.  The n = 2 value uses the length-1 convention (cyclic
    comparisons degenerate below n = 3).
    """
    if n < 2:
        raise ValueError("circular counts start at n = 2")
    return dd_ascent_counts((), n - 1)[n - 1]
