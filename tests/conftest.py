"""Shared test helpers.

The reference census here recomputes double-descent statistics with a
plain itertools scan, one permutation tuple at a time, independent of
both the bit-sliced sweep in ddperm.bruteforce and the dynamic program
in ddperm.counting, so the package's two counting routes are checked
against a third.
"""

from __future__ import annotations

import itertools
from collections import Counter


def reference_dd_census(n: int) -> dict[tuple[int, ...], int]:
    """{double-descent set: count} over S_n by direct definition."""
    table: Counter[tuple[int, ...]] = Counter()
    for w in itertools.permutations(range(1, n + 1)):
        dd = tuple(
            i for i in range(2, n) if w[i - 2] > w[i - 1] > w[i]
        )
        table[dd] += 1
    return dict(table)


def reference_descent_census(n: int) -> dict[tuple[int, ...], int]:
    """{descent set: count} over S_n by direct definition."""
    table: Counter[tuple[int, ...]] = Counter()
    for w in itertools.permutations(range(1, n + 1)):
        des = tuple(i for i in range(1, n) if w[i - 1] > w[i])
        table[des] += 1
    return dict(table)


def all_index_sets(low: int, high: int):
    """Every subset of [low, high] as a sorted tuple (high < low gives
    just the empty set)."""
    positions = list(range(low, high + 1))
    for r in range(len(positions) + 1):
        yield from itertools.combinations(positions, r)
