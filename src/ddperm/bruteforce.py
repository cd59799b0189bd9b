"""Exhaustive reference counters over full S_n enumeration.

Everything here counts by scanning all n! permutations (or all 2^(n-1)
descent-set masks) and applying the definitions directly; nothing is
shared with the dynamic-programming counters in :mod:`ddperm.counting`,
so the two routes check each other.

The sweep is bit-sliced: bit r of an integer stands for the r-th
permutation, in lexicographic order, of a block of S_n with a fixed
prefix p_1..p_k (k = max(1, n - 8)), and D[i] marks a descent at i.
Positions k+1..n run through S_(n-k) in order after relabelling, which
keeps comparisons, so D[k+1..] repeat the descent bitsets of S_(n-k);
w_k > w_(k+1) holds on the first b*(n-k-1)! bits, where b values below
p_k are left for w_(k+1); D[1..k-1] are constant.  A double descent at
i is D[i-1] & D[i].  A census cuts each block with ``&`` and ``^`` and
counts each part with ``int.bit_count()``, so every one of the n! bits
is counted once; only descent bitsets, never counts, are carried over
from smaller n.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator

from .errors import CapExceeded
from .perms import IndexSet, as_index_set

# The n! enumeration cap; at 11! permutations the double-descent census
# takes 0.3 to 0.5 s and the descent census about 1 s (2-vCPU VM, Python 3.11).
DEFAULT_CAP = 11
# Rim-hook counting iterates 2^(n-1) descent masks in pure Python.
DEFAULT_MASK_CAP = 24

# Blocks leave the last 8 entries free: 8! bits (5 KB) per integer.  Wider
# blocks make fewer but costlier operations; at n = 11 and 12 this width
# was the fastest of 7!, 8! and 9!.
_FREE = 8


def _check_cap(n: int, what: str, hint: str) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_CAP:
        raise CapExceeded(f"{what} at n={n} exceeds the cap {DEFAULT_CAP}; {hint}")


def _blocks(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rows, (D[1], ..., D[n-1])) for each block of S_n (n >= 1), in
    lexicographic order of the prefixes; ``rows`` sets one bit for each
    permutation of the block."""
    if n == 1:
        yield 1, ()
        return
    k = max(1, n - _FREE)
    tail = _descent_bits(n - k)
    run = factorial(n - k - 1)  # permutations per value of w_(k+1)
    rows = (1 << run * (n - k)) - 1
    for prefix in permutations(range(n), k):
        last = prefix[-1]
        below = last - sum(v < last for v in prefix)  # left for w_(k+1)
        fixed = tuple(rows if a > b else 0 for a, b in zip(prefix, prefix[1:]))
        yield rows, (*fixed, (1 << below * run) - 1, *tail)


@lru_cache(maxsize=None)
def _descent_bits(m: int) -> tuple[int, ...]:
    """D[1..m-1] over all of S_m: the blocks' bitsets laid end to end."""
    blocks = list(_blocks(m))
    width = blocks[0][0].bit_length()
    return tuple(sum(d << j * width for j, d in enumerate(column))
                 for column in zip(*(d for _, d in blocks)))


def _mask_of(indices: Iterable[int]) -> int:
    """The census key of a set of positions: bit i-1 for position i."""
    mask = 0
    for i in indices:
        mask |= 1 << i - 1
    return mask


def _split(rows: int, cuts: tuple[int, ...], leaf, i: int = 0, mask: int = 0) -> None:
    """Call ``leaf(part, mask)`` for every nonempty part of ``rows`` cut
    by the bitsets ``cuts``; bit i of ``mask`` says part lies in cuts[i]."""
    if i == len(cuts):
        leaf(rows, mask)
        return
    hit = rows & cuts[i]
    if hit:
        _split(hit, cuts, leaf, i + 1, mask | 1 << i)
    if hit != rows:
        _split(rows ^ hit, cuts, leaf, i + 1, mask)


@lru_cache(maxsize=16)
def _census(n: int, double: bool) -> Counter[int]:
    """All of S_n keyed by :func:`_mask_of` of the descent set or, with
    ``double``, of the double-descent set plus bit 0 for a descent at 1."""
    table: Counter[int] = Counter()
    if n <= 1:
        table[0] = 1
        return table

    def leaf(rows: int, mask: int) -> None:
        table[mask] += rows.bit_count()
    for rows, d in _blocks(n):
        _split(rows, (d[0], *(a & b for a, b in zip(d, d[1:]))) if double else d, leaf)
    return table


def count_dd_exact(dd_set: Iterable[int], n: int) -> int:
    """Number of w in S_n whose double-descent set is exactly ``dd_set``.

    Sets not contained in [2, n-1] give 0 (the count really is zero).
    """
    indices = as_index_set(dd_set)
    _check_cap(n, "brute-force double-descent count",
               "use ddperm.counting.dd_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    table, key = _census(n, True), _mask_of(indices)
    return table[key] + table[key | 1]


def count_descents_exact(des_set: Iterable[int], n: int) -> int:
    """Number of w in S_n whose descent set is exactly ``des_set``."""
    indices = as_index_set(des_set)
    _check_cap(n, "brute-force descent count",
               "use ddperm.rimhooks.tableau_count for the matching shape")
    if any(i < 1 or i > n - 1 for i in indices):
        return 0
    return _census(n, False)[_mask_of(indices)]


def count_dd_ascent_exact(dd_set: Iterable[int], n: int) -> int:
    """Number of w in S_n with w_1 < w_2 and double-descent set ``dd_set``."""
    if n < 2:
        raise ValueError("initial-ascent counts need n >= 2")
    indices = as_index_set(dd_set)
    _check_cap(n, "brute-force initial-ascent count",
               "use ddperm.counting.dd_ascent_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _census(n, True)[_mask_of(indices)]


def dd_census(n: int) -> dict[IndexSet, int]:
    """Full table {double-descent set: count} over S_n, by enumeration."""
    _check_cap(n, "brute-force census", "reduce n")
    table = _census(n, True)
    return {tuple(i for i in range(2, n) if key >> i - 1 & 1):
            table[key] + table[key | 1] for key in sorted({k & ~1 for k in table})}


def count_rimhooks_exact(dd_set: Iterable[int], n: int) -> int:
    """Number of length-n rim hooks whose encoded double-descent set is
    exactly ``dd_set``.

    A rim hook of length n corresponds to one descent set S in [n-1];
    the encoded double descents are the i with i-1 and i both in S.
    This scans all 2^(n-1) masks, so n - 1 is capped at
    ``DEFAULT_MASK_CAP``; it is the oracle of the rim-hook listing.
    """
    indices = as_index_set(dd_set)
    if n < 1:
        raise ValueError("rim hooks have length >= 1")
    if n - 1 > DEFAULT_MASK_CAP:
        raise CapExceeded(
            f"counting rim hooks at n={n} scans 2^{n - 1} masks "
            f"(cap 2^{DEFAULT_MASK_CAP}); "
            "use ddperm.rimhooks.count_singleton/count_empty where they apply"
        )
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    target = _mask_of(indices)
    count = 0
    for s in range(1 << (n - 1)):  # bit i-1 = descent at position i
        if s & (s << 1) == target:
            count += 1
    return count


def count_circular_no_dd_exact(n: int) -> int:
    """Number of rotation classes of S_n with no cyclic double descents.

    Scans the canonical representatives w_1 = n, whose tails w_2..w_n
    run through S_(n-1), and tests all n positions cyclically (position
    1 compares w_n > w_1 > w_2; position n compares w_{n-1} > w_n > w_1).
    """
    if n < 2:
        raise ValueError("circular double descents need n >= 2")
    _check_cap(n - 1, "circular brute-force count",
               "use ddperm.circular.count_no_cyclic_dd")
    total = 0
    for rows, d in _blocks(n - 1):
        # cyclic descents at 1..n: w_1 = n > w_2 always, w_n > w_1 never
        cyclic = (rows, *d, 0)
        has_dd = 0
        for i in range(n):
            has_dd |= cyclic[i - 1] & cyclic[i]
        total += rows.bit_count() - has_dd.bit_count()
    return total
