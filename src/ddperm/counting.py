"""Fast exact counters for permutations by double-descent set.

The workhorse is an insertion dynamic program: build a word left to
right by the relative rank of each new entry among the prefix.  The
state after i entries is (rank of the last entry, whether step i-1
descended); appending an entry of rank s creates a descent iff s is at
most the old last rank, and a double descent at position i iff both the
old and the new step descend.  One step function carries the states
from length i to i+1, requiring or forbidding a double descent at i.
:func:`dd_count` / :func:`dd_ascent_count` count one set at one length
in O(n^2) exact big-integer work; they are the oracle for the closed
forms below.

The empty-set columns F(n) = dd(empty; n) and a(n) (initial ascent)
grow on demand, once per process, from one pass: reverse-complement
keeps double descents and turns w_1 < w_2 into w_(n-1) < w_n, so a(n)
counts the no-double-descent words of length n ending in an ascent.

:func:`dd_singleton_values` gives dd({m}; n) for every m at once in O(n)
big-integer products, by a closed form in the two empty-set columns
(the cluster method of Goulden and Jackson, as used by Elizalde and
Noy, "Consecutive patterns in permutations", 2003).  Let F(k) =
dd(empty; k) and a(k) the initial-ascent count, a(0) = a(1) = 1.
Inclusion-exclusion over the sets J containing m groups the
permutations by the maximal forced decreasing run [m-i, m+j] around m:
a multinomial shuffles the run with its two sides, each side counted
by F, and the sets J inside the run have the signed count g(i) g(j),
g = -1, 1, 0 repeating.  Splitting g(i) g(j) over the cube roots of 1
leaves the transform sum_k C(s,k) w^(s-k) F(k), w a primitive cube
root of 1, and that is (1 + w) a(s) for s >= 1: w e^(wx) / D(x), with
D = 1/EGF(F), is (sqrt 3/2)(i - tan(sqrt 3 x/2 + pi/6)), while
1/2 + (sqrt 3/2) tan(sqrt 3 x/2 + pi/6) is the EGF of a.  So with
s = m - 1 and e_r(k) = [k = r mod 3],

    dd({m}; n) = sum_(t=1..s) C(n,t) (e_0(s-t) a(t) F(n-t)
                                      - e_2(s-t) F(t) a(n-t))
                 - e_1(s) F(n) - e_2(s) a(n),

summed for every m at once as running sums split by t mod 3.

:func:`dd_counts` / :func:`dd_ascent_counts` give the column of a
non-empty set I, M = max I, the same way.  Group the sets J containing
I by the maximal forced run [b, e] holding M's triple (b < M, and b - 1,
b not in I): C(n, b-1) C(n-b+1, e-b+1) shuffles the run with its sides,
entries 1..b-1 give the small insertion count dd(I & [2, b-2]; b-1),
entries e+1..n give F(n-e), and the sets J inside the run have the
signed count c(e-1), with c(b-1) = 1, c(b) = 0 and

    c(p) = s(p) (c(p-1) + [p-1 not in I] c(p-2)),   s = +1 on I, -1 off I.

Past M the weights repeat c(M), -c(M), 0, so the transform above sums
the run lengths u >= 0 to (P_0 + P_1) a(n-b+1), P_r the weight at
u = r mod 3; the runs too short to reach M are taken off against F.
For n > M, with integers alpha_I, beta_I,

    dd(I; n) = sum_(t=0..M) C(n,t) (alpha_I(t) F(n-t) + beta_I(t) a(n-t)).

The initial-ascent column takes its left factor from the initial-ascent
count, has no b = 1 term (that run starts with a descent), and at b = 2
also subtracts the runs [1, e] with the same weights: w_1 > w_2 merges
entry 1 into the run.  The coefficients take O(M^2) big-integer
additions: every left factor from one prefix pass of the insertion DP,
c(M) for every b from one backward sweep of the 2x2 steps of c, and the
binomial sums in alpha_I by Pascal's rule.  The column then takes one
pass per term t = 0..M over every n > M at once, carrying C(n, t) from
t - 1 by the hockey stick C(n, t) = C(M+1, t) + sum_(M<m<n) C(m, t-1)
(one running sum); only nonzero coefficients add products.  So a column
costs O((n - M) M) additions and products: far below the O(n^2)
additions of a DP pass while M is small, but above them once M is a
sizable share of n.

Also here: the convolution recursions for the no-double-descent
sequences, the singleton-set recursion that rebuilds dd({m}; n+1) from
smaller data, and the estimator that replaces initial-ascent counts by
limiting-ratio multiples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul, sub
from typing import Iterable, Iterator

from . import errors
from .perms import as_index_set


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


def dd_count(dd_set: Iterable[int], n: int) -> int:
    """Number of w in S_n with double-descent set exactly ``dd_set``.

    Exact for any n up to ``errors.DP_CAP``; agrees with
    :func:`ddperm.bruteforce.count_dd_exact` wherever both run.
    Sets not contained in [2, n-1] give 0.
    """
    indices = as_index_set(dd_set)
    errors.check_dp_size(n, "dd_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _insertion_count(n, frozenset(indices), False)


def dd_ascent_count(dd_set: Iterable[int], n: int) -> int:
    """Number of w in S_n with w_1 < w_2 and double-descent set ``dd_set``."""
    indices = as_index_set(dd_set)
    if n < 2:
        raise ValueError("initial-ascent counts need n >= 2")
    errors.check_dp_size(n, "dd_ascent_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _insertion_count(n, frozenset(indices), True)


# F and a for lengths 0..L-1 and the no-double-descent prefix state of
# length L, grown on demand and shared by every call of the process;
# a(L) = sum(asc) by reverse-complement (see the module docstring).
_EMPTY_COLUMNS = ([1], [1], ([1], [0]))


def _empty_columns(n_max: int) -> tuple[list[int], list[int]]:
    global _EMPTY_COLUMNS
    free, ascent, (asc, desc) = _EMPTY_COLUMNS
    while len(free) <= n_max:
        asc, desc = _step(asc, desc, False)
        # the prefix sums end in F(L), the suffix sums start with a(L)
        free.append(asc[-1])
        ascent.append(desc[0])
    _EMPTY_COLUMNS = free, ascent, (asc, desc)
    return free[: n_max + 1], ascent[: n_max + 1]


def _set_coefficients(indices: tuple[int, ...],
                      initial_ascent: bool) -> tuple[list[int], list[int]]:
    """alpha_I and beta_I at t = 0..max I, the coefficients of the
    general-set form in the module docstring, for a non-empty I that
    starts at 2 or later, in O(max(I)^2) additions."""
    top, inside = indices[-1], set(indices)
    # left[L] = dd(I & [2, L-1]; L) for L = 0..max I - 2, one prefix pass
    left = [1] + [sum(asc) + sum(desc) for asc, desc in
                  _prefix_states(frozenset(indices), top - 2, initial_ascent)]
    # weights[s]: the weights of the runs starting at s + 1.  (x, y) is
    # the row e_1 A_top ... A_(b+1), A_p the 2x2 step taking
    # (c(p-1), c(p-2)) to (c(p), c(p-1)), so the run from b has c(max I) = y
    weights, (x, y) = [0] * (top + 1), (1, 0)
    for b in range(top - 1, initial_ascent, -1):
        sign = 1 if b + 1 in inside else -1
        x, y = sign * x + y, sign * (b not in inside) * x
        if b - 1 not in inside and b not in inside:
            weights[b - 1] += left[b - 1] * y
            # under w_1 < w_2, a run starting at 2 loses its runs [1, e]
            weights[0] -= (initial_ascent and b == 2) * y
    # the run [s + 1, e] weighs (1, -1, 0)[(e - 1 - max I) mod 3]; every
    # e >= s sums to (P_0 + P_1) a(n - s) (beta), less the runs too short
    # to reach max I against F (alpha); after e rounds of Pascal's rule,
    # row[0] = sum_s C(e, s) weights[s]
    beta = [w * (0, -1, 1)[(s - 1 - top) % 3] for s, w in enumerate(weights)]
    alpha, row = [], weights
    while row:
        alpha.append(-row[0] * (1, -1, 0)[(len(alpha) - 1 - top) % 3])
        row = list(map(add, row, row[1:]))
    return alpha, beta


def _column(dd_set: Iterable[int], n_max: int, initial_ascent: bool) -> list[int]:
    indices = as_index_set(dd_set)
    errors.check_dp_size(n_max, "dd column")
    if not indices:
        return _empty_columns(n_max)[initial_ascent]
    if indices[0] < 2 or indices[-1] >= n_max:
        # a double descent at 1, or at max(I) >= n_max, fits no length
        return [0] * (n_max + 1)
    top = indices[-1]
    free, ascent = _empty_columns(n_max)
    # one pass per term t over every n = max I + 1 + k at once: totals[k]
    # sums the terms so far, binomials[k] = C(n, t) comes from t - 1 by
    # the hockey stick of the module docstring, starting from C(m, -1) = 0
    binomials = totals = [0] * (n_max - top)
    for t, (x, y) in enumerate(zip(*_set_coefficients(indices, initial_ascent))):
        binomials = list(accumulate(binomials[:-1], initial=comb(top + 1, t)))
        # zero coefficients, a third or more of each list, add no products;
        # neither do coefficients of +-1 (-1 subtracts) nor C(n, 0) = 1
        for coefficient, column in (x, free), (y, ascent):
            if coefficient:
                terms = column[top + 1 - t:n_max + 1 - t]
                if abs(coefficient) != 1:
                    terms = map(coefficient.__mul__, terms)
                if t:
                    terms = map(mul, binomials, terms)
                totals = list(map(sub if coefficient == -1 else add, totals, terms))
    return [0] * (top + 1) + totals


def dd_counts(dd_set: Iterable[int], n_max: int) -> list[int]:
    """[dd(I; n) for n in 0..n_max] by the closed form of the module
    docstring: once the empty-set columns are built, O(max(I)^2 +
    (n_max - max(I)) max(I)) additions and O((n_max - max(I)) max(I))
    products.

    Entries with n <= max(I) are 0; each entry equals :func:`dd_count`.
    """
    return _column(dd_set, n_max, False)


def dd_ascent_counts(dd_set: Iterable[int], n_max: int) -> list[int]:
    """The initial-ascent column: entry n equals :func:`dd_ascent_count`
    for n >= 2; lengths 0 and 1 follow the a(0) = a(1) = 1 convention of
    :func:`no_dd_ascent_counts`."""
    return _column(dd_set, n_max, True)


def _singleton_half_row(n: int, free: list[int], ascent: list[int]) -> list[int]:
    """[dd({m}; n) for m = 2..ceil(n/2)] from the closed form of the
    module docstring, given F = ``free`` and a = ``ascent`` to length n.

    u[r] and v[r] are the running sums over t = r mod 3 of
    C(n,t) a(t) F(n-t) and C(n,t) F(t) a(n-t); the row at s reads the
    residues t = s and t = s + 1 (s - t = 0 and 2 mod 3).
    """
    u, v, binomial = [0, 0, 0], [0, 0, 0], 1
    # the last term -e_1(s) F(n) - e_2(s) a(n), by s mod 3
    last = (0, free[n], ascent[n])
    row = []
    for s in range(1, -(-n // 2)):
        binomial = binomial * (n - s + 1) // s
        u[s % 3] += binomial * ascent[s] * free[n - s]
        v[s % 3] += binomial * free[s] * ascent[n - s]
        row.append(u[s % 3] - v[(s + 1) % 3] - last[s % 3])
    return row


def dd_singleton_values(n: int) -> list[int]:
    """[dd({m}; n) for m = 2..n-1] in O(n) big-integer products.

    The lower half comes from :func:`_singleton_half_row` over the
    empty-set columns (O(n^2) additions once per process), the upper
    half from the reverse-complement symmetry dd({m}; n) =
    dd({n+1-m}; n).  Each call returns a fresh list.
    """
    errors.check_dp_size(n, "singleton row")
    half = _singleton_half_row(n, *_empty_columns(n))
    # m > ceil(n/2) mirrors n + 1 - m; odd n keeps the middle entry once
    return half + half[-1 - n % 2::-1]


def no_dd_ascent_counts(n_max: int) -> list[int]:
    """Counts of permutations with no double descents and no initial
    descent, for lengths 0..n_max.

    Computed by the convolution recursion
    a(n+1) = sum_k C(n,k) a(k) a(n-k) - a(n) seeded with a(0) = a(1) = 1;
    the seeds are the empty/singleton conventions.  O(n_max^2) products
    of growing big integers: at the cap, :func:`no_dd_counts` takes
    16-19 s (about 1 s at n_max = 500).

    >>> no_dd_ascent_counts(5)
    [1, 1, 1, 3, 9, 39]
    """
    errors.check_dp_size(n_max, "convolution sequence")
    values = [1, 1]
    for n in range(1, n_max):
        convo = sum(
            comb(n, k) * values[k] * values[n - k] for k in range(n + 1)
        )
        values.append(convo - values[n])
    return values[: n_max + 1]


def no_dd_counts(n_max: int) -> list[int]:
    """Counts of permutations with no double descents at all, for
    lengths 0..n_max, via the convolution with the ascent-start counts.

    >>> no_dd_counts(5)
    [1, 1, 2, 5, 17, 70]
    """
    blocks = no_dd_ascent_counts(n_max)
    values = [1]
    for n in range(n_max):
        values.append(
            sum(comb(n, k) * values[k] * blocks[n - k] for k in range(n + 1))
        )
    return values


def _singleton_head(m: int, n: int) -> tuple[int, int, list[int]]:
    """The first two summands of :func:`dd_singleton_parts`, and the
    column F = dd(empty; 0..n) that the third sums over."""
    if m < 2:
        raise ValueError(f"singleton position must be >= 2, got m={m}")
    if n < m:
        raise ValueError(f"need n >= m so that position m={m} exists in S_{n + 1}")
    blocks = dd_ascent_counts((), n)
    free = dd_counts((), n)
    column = dd_counts((m,), n)
    first = sum(
        comb(n, k) * column[k] * blocks[n - k]
        for k in range(m + 1, n + 1)
    )
    second = comb(n, m - 2) * free[m - 2] * (free[n - m + 2] - blocks[n - m + 2])
    return first, second, free


def dd_singleton_parts(m: int, n: int) -> tuple[int, int, int]:
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

    The third case reads the initial-ascent counts off the exact DP.
    m in {2, 3} relies on the length-0/1 conventions, which hold exactly;
    :func:`dd_singleton_recursion` cross-checks them against the DP.
    """
    first, second, free = _singleton_head(m, n)
    third = sum(
        comb(n, k) * free[k] * dd_ascent_count((m - 1 - k,), n - k)
        for k in range(0, m - 3)
    )
    return first, second, third


def dd_singleton_recursion(m: int, n: int) -> int:
    """dd({m}; n+1) assembled from smaller counts via
    :func:`dd_singleton_parts`; must agree with :func:`dd_count`."""
    total = sum(dd_singleton_parts(m, n))
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


def dd_singleton_estimate(m: int, n: int) -> Fraction:
    """Estimate dd({m}; n+1) by replacing the third-case initial-ascent
    counts with :data:`DEFAULT_RATIO_TABLE` multiples of the plain counts.

    Exact rational arithmetic over the table entries, so the published
    decimals reproduce digit for digit.
    """
    needed = [m - 1 - k for k in range(0, m - 3)]
    missing = sorted(set(needed) - set(DEFAULT_RATIO_TABLE))
    if missing:
        raise ValueError(f"ratio table is missing entries for m = {missing}")
    first, second, free = _singleton_head(m, n)
    third = sum(
        (
            comb(n, k) * free[k] * dd_count((m - 1 - k,), n - k)
            * DEFAULT_RATIO_TABLE[m - 1 - k]
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
