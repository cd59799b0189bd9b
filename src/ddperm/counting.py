"""Fast exact counters for permutations by double-descent set.

The workhorse is an insertion dynamic program: build a word left to
right by the relative rank of each new entry among the prefix.  The
state after i entries is (rank of the last entry, whether step i-1
descended); appending an entry of rank s creates a descent iff s is at
most the old last rank, and a double descent at position i iff both the
old and the new step descend.  One step function carries the states
from length i to i+1, requiring or forbidding a double descent at i;
every counter here loops over it, in O(n^2) exact big-integer work:

* :func:`dd_count` / :func:`dd_ascent_count`: one set at one length;
* :func:`dd_counts` / :func:`dd_ascent_counts`: one set at every length
  up to n_max, from a single forward pass;
* :func:`dd_singleton_row`: dd({m}; n) for every m at once, from the
  no-double-descent forward states, one requiring step at m and a
  backward pass of completion counts (the transposed step) - the
  transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7).

Also here: the convolution recursions for the no-double-descent
sequences, the singleton-set recursion that rebuilds dd({m}; n+1) from
smaller data, and the estimator that replaces initial-ascent counts by
limiting-ratio multiples.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded
from .perms import as_index_set

# Guard against accidental huge DP runs; the DP is O(n^2) and fine far
# beyond this, raise the cap per call if you mean it.
DP_CAP = 1000


def _suffix_sums(values: list[int]) -> list[int]:
    return list(accumulate(reversed(values)))[::-1]


def _step(asc: list[int], desc: list[int], must: bool) -> tuple[list[int], list[int]]:
    """Append one entry to prefixes of length i, creating step i.

    ``asc[r-1]`` / ``desc[r-1]`` count prefixes whose last entry has rank
    r among the prefix and whose last step ascends / descends.  The new
    entry of rank s descends iff s <= r.  With ``must`` position i has
    to be a double descent (both steps descend); otherwise it must not
    be one, so a new descent may only follow an ascent.
    """
    if must:
        return [0] * (len(asc) + 1), _suffix_sums(desc) + [0]
    return [0, *accumulate(map(add, asc, desc))], _suffix_sums(asc) + [0]


def _step_back(asc: list[int], desc: list[int]) -> tuple[list[int], list[int]]:
    """Transpose of a forbidding :func:`_step`: from the completion
    counts of each state at length i+1, those at length i."""
    after = _suffix_sums(asc)[1:]
    return list(map(add, accumulate(desc[:-1]), after)), after


def _prefix_states(dd_positions: frozenset[int], n: int,
                   initial_ascent: bool) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the states (asc, desc) of the prefixes of lengths 1..n whose
    double-descent set agrees with ``dd_positions`` so far."""
    if n < 1:
        return
    asc, desc = [1], [0]
    yield asc, desc
    for i in range(1, n):
        asc, desc = _step(asc, desc, i in dd_positions)
        if initial_ascent and i == 1:
            desc = [0, 0]
        yield asc, desc


@lru_cache(maxsize=None)
def _insertion_count(n: int, dd_positions: frozenset[int],
                     force_initial_ascent: bool) -> int:
    """Count words of length n whose double-descent set is exactly
    ``dd_positions``, optionally restricted to w_1 < w_2."""
    if n == 0:
        return 1
    for asc, desc in _prefix_states(dd_positions, n, force_initial_ascent):
        pass
    return sum(asc) + sum(desc)


def dd_count(dd_set: Iterable[int], n: int, cap: int = DP_CAP) -> int:
    """Number of w in S_n with double-descent set exactly ``dd_set``.

    Exact for any n up to ``cap``; agrees with
    :func:`ddperm.bruteforce.count_dd_exact` wherever both run.
    Sets not contained in [2, n-1] give 0.
    """
    indices = as_index_set(dd_set)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise CapExceeded(f"dd_count at n={n} exceeds the cap {cap}")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _insertion_count(n, frozenset(indices), False)


def dd_ascent_count(dd_set: Iterable[int], n: int, cap: int = DP_CAP) -> int:
    """Number of w in S_n with w_1 < w_2 and double-descent set ``dd_set``."""
    indices = as_index_set(dd_set)
    if n < 2:
        raise ValueError("initial-ascent counts need n >= 2")
    if n > cap:
        raise CapExceeded(f"dd_ascent_count at n={n} exceeds the cap {cap}")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _insertion_count(n, frozenset(indices), True)


def _column(dd_set: Iterable[int], n_max: int, cap: int,
            initial_ascent: bool) -> list[int]:
    indices = as_index_set(dd_set)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > cap:
        raise CapExceeded(f"dd column to n={n_max} exceeds the cap {cap}")
    if indices and indices[0] < 2:
        return [0] * (n_max + 1)
    top = max(indices, default=0)
    counts = [0 if indices else 1]
    states = _prefix_states(frozenset(indices), n_max, initial_ascent)
    for length, (asc, desc) in enumerate(states, start=1):
        counts.append(sum(asc) + sum(desc) if length > top else 0)
    return counts


def dd_counts(dd_set: Iterable[int], n_max: int, cap: int = DP_CAP) -> list[int]:
    """[dd(I; n) for n in 0..n_max] from one forward pass, O(n_max^2).

    Entries with n <= max(I) are 0; each entry equals :func:`dd_count`.
    """
    return _column(dd_set, n_max, cap, False)


def dd_ascent_counts(dd_set: Iterable[int], n_max: int,
                     cap: int = DP_CAP) -> list[int]:
    """The initial-ascent column: entry n equals :func:`dd_ascent_count`
    for n >= 2; lengths 0 and 1 follow the a(0) = a(1) = 1 convention of
    :func:`no_dd_ascent_counts`."""
    return _column(dd_set, n_max, cap, True)


def dd_singleton_row(n: int, cap: int = DP_CAP) -> dict[int, int]:
    """{m: dd({m}; n)} for m = 2..n-1 in O(n^2) exact work.

    dd({m}; n) is the number of ways to reach a no-double-descent
    prefix of length m, take one step that requires a double descent at
    m, and complete without double descents: a forward state dotted
    with a backward vector of completion counts.  Forward states are
    kept only up to length ceil(n/2); the other half of the row follows
    from the reverse-complement symmetry dd({m}; n) = dd({n+1-m}; n).
    """
    if n > cap:
        raise CapExceeded(f"singleton row at n={n} exceeds the cap {cap}")
    half = -(-n // 2)
    forward = list(_prefix_states(frozenset(), half, False))
    row = {}
    back_asc, back_desc = [1] * n, [1] * n
    for m in range(n - 1, 1, -1):
        # back_* now count the completions of each length-(m+1) state;
        # a requiring step leaves only descending states
        if m <= half:
            _, desc = _step(*forward[m - 1], True)
            row[m] = sum(map(mul, desc, back_desc))
        if m > 2:
            back_asc, back_desc = _step_back(back_asc, back_desc)
    return {m: row[min(m, n + 1 - m)] for m in range(2, n)}


@lru_cache(maxsize=None)
def _no_dd_ascent(n_max: int) -> tuple[int, ...]:
    if n_max < 1:
        return (1,)[: n_max + 1]
    values = [1, 1]
    for n in range(1, n_max):
        convo = sum(
            comb(n, k) * values[k] * values[n - k] for k in range(n + 1)
        )
        values.append(convo - values[n])
    return tuple(values)


def no_dd_ascent_counts(n_max: int) -> list[int]:
    """Counts of permutations with no double descents and no initial
    descent, for lengths 0..n_max.

    Computed by the convolution recursion
    a(n+1) = sum_k C(n,k) a(k) a(n-k) - a(n) seeded with a(0) = a(1) = 1;
    the seeds are the empty/singleton conventions.

    >>> no_dd_ascent_counts(5)
    [1, 1, 1, 3, 9, 39]
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(_no_dd_ascent(n_max))


@lru_cache(maxsize=None)
def _no_dd(n_max: int) -> tuple[int, ...]:
    blocks = _no_dd_ascent(n_max)
    values = [1]
    for n in range(n_max):
        values.append(
            sum(comb(n, k) * values[k] * blocks[n - k] for k in range(n + 1))
        )
    return tuple(values)


def no_dd_counts(n_max: int) -> list[int]:
    """Counts of permutations with no double descents at all, for
    lengths 0..n_max, via the convolution with the ascent-start counts.

    >>> no_dd_counts(5)
    [1, 1, 2, 5, 17, 70]
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(_no_dd(n_max))


CProvider = Callable[[tuple[int, ...], int], int]


def dd_singleton_parts(m: int, n: int,
                       c_provider: CProvider | None = None) -> tuple[int, int, int]:
    """The three summands whose total is dd({m}; n+1).

    Classifying w in S_{n+1} with a double descent at m by where the
    maximal entry n+1 sits gives three cases:

    * n+1 right of position m+1: choose k >= m+1 entries to its left
      keeping the double descent at m; the remainder has no double
      descents and no initial descent.
    * n+1 at position m-1: the m-2 entries to its left have no double
      descents; the rest starts with a descent (feeding the double
      descent) but has none itself.
    * n+1 left of position m-2: k <= m-4 entries right of it have no
      double descents; the remaining n-k start with an ascent and carry
      the double descent, now at m-1-k.

    ``c_provider(dd_set, length)`` supplies the initial-ascent counts for
    the third case (default: the exact DP).  m in {2, 3} relies on the
    length-0/1 conventions and is cross-checked against the DP.
    """
    if m < 2:
        raise ValueError(f"singleton position must be >= 2, got m={m}")
    if n < m:
        raise ValueError(f"need n >= m so that position m={m} exists in S_{n + 1}")
    if m < 4:
        warnings.warn(
            f"m={m} relies on length-0/1 conventions outside the stated "
            "range of the recursion; the result is cross-checked against "
            "the insertion count",
            stacklevel=3,
        )
    if c_provider is None:
        c_provider = dd_ascent_count
    blocks = no_dd_ascent_counts(n)
    free = no_dd_counts(n)
    column = dd_counts((m,), n)
    first = sum(
        comb(n, k) * column[k] * blocks[n - k]
        for k in range(m + 1, n + 1)
    )
    second = comb(n, m - 2) * free[m - 2] * (free[n - m + 2] - blocks[n - m + 2])
    third = sum(
        comb(n, k) * free[k] * c_provider((m - 1 - k,), n - k)
        for k in range(0, m - 3)
    )
    return first, second, third


def dd_singleton_recursion(m: int, n: int,
                           c_provider: CProvider | None = None) -> int:
    """dd({m}; n+1) assembled from smaller counts via
    :func:`dd_singleton_parts`; must agree with :func:`dd_count`."""
    first, second, third = dd_singleton_parts(m, n, c_provider)
    total = first + second + third
    if m < 4:
        direct = dd_count((m,), n + 1)
        if total != direct:
            raise ArithmeticError(
                f"small-m convention mismatch: recursion gives {total}, "
                f"direct count gives {direct} for dd({{{m}}};{n + 1})"
            )
    return total


#: Reference estimates of the limiting ratio
#: (initial-ascent count with double-descent set {m}) / dd({m}; n),
#: averaged over n <= 12 and rounded to four places; see
#: :func:`ascent_ratio_average`.  The m = 3 entry is exactly 1: a double
#: descent at 3 forces w_1 < w_2.
DEFAULT_RATIO_TABLE: dict[int, Fraction] = {
    3: Fraction(1),
    4: Fraction(3941, 10000),
    5: Fraction(6362, 10000),
    6: Fraction(5056, 10000),
    7: Fraction(5676, 10000),
    8: Fraction(5359, 10000),
    9: Fraction(5515, 10000),
}


def dd_singleton_estimate(m: int, n: int,
                          ratio_table: dict[int, Fraction] | None = None) -> Fraction:
    """Estimate dd({m}; n+1) by replacing the third-case initial-ascent
    counts with ratio-table multiples of the plain counts.

    Exact rational arithmetic over the table entries, so the published
    decimals reproduce digit for digit.
    """
    if ratio_table is None:
        ratio_table = DEFAULT_RATIO_TABLE
    needed = [m - 1 - k for k in range(0, m - 3)]
    missing = sorted(set(needed) - set(ratio_table))
    if missing:
        raise ValueError(f"ratio table is missing entries for m = {missing}")
    bad = {k: v for k, v in ratio_table.items() if not 0 < v <= 1}
    if bad:
        raise ValueError(f"ratio-table values must lie in (0, 1]: {bad}")
    first, second, _ = dd_singleton_parts(m, n, c_provider=dd_ascent_count)
    free = no_dd_counts(n)
    third = sum(
        (
            comb(n, k) * free[k] * dd_count((m - 1 - k,), n - k)
            * ratio_table[m - 1 - k]
            for k in range(0, m - 3)
        ),
        start=Fraction(0),
    )
    return Fraction(first + second) + third


def ascent_ratio_average(m: int, n_max: int = 12) -> Fraction:
    """Average of (initial-ascent dd({m}) count) / dd({m}; n) over
    n from m+1 (the first length with a nonzero count) to n_max.

    The per-n ratios oscillate but settle quickly; the average over
    n <= 12 is the tabulated estimate of the limit.
    """
    if m < 3:
        raise ValueError("ratio averages start at m = 3")
    if n_max < m + 2:
        raise ValueError("n_max too small to average anything")
    plain = dd_counts((m,), n_max)
    ascent = dd_ascent_counts((m,), n_max)
    ratios = [Fraction(ascent[n], plain[n]) for n in range(m + 1, n_max + 1)]
    return sum(ratios, start=Fraction(0)) / len(ratios)
