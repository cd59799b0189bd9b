"""Rim hooks as descent-set encoders.

A rim hook is a connected skew shape with no 2x2 block.  Reading its
cells from the bottom-left to the top-right, horizontal steps are
ascents and vertical steps are descents, so a rim hook of length n
encodes one descent set in [n-1] and every standard filling read off
that way is a permutation with exactly that descent set.

The canonical representation here is the bottom-to-top tuple of row
lengths: the shape is rebuilt by letting each row start in the column
where the row below ends, which is exactly the no-2x2 overlap
condition, and the encoded descent positions are the partial sums of
the row lengths.  The outer/inner partition pair is derived.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator

from .errors import CapExceeded
from .perms import IndexSet, as_index_set

# enumerate/list operations materialize shapes; counting by formula goes
# much further, so the list cap stays modest
DEFAULT_LIST_CAP = 20
# inclusion-exclusion over subsets of the descent set
DEFAULT_DESCENT_CAP = 24


class SkewParseError(ValueError):
    """The text is not of the form (a1,a2,...)/(b1,...)."""


class SkewValidationError(ValueError):
    """The skew shape is not a rim hook (2x2 block, disconnected, or
    malformed partitions)."""


@dataclass(frozen=True)
class RimHook:
    """Row lengths from the bottom row to the top row."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a rim hook has at least one row")
        if any(not isinstance(r, int) or r < 1 for r in self.rows):
            raise ValueError(f"row lengths must be positive integers: {self.rows!r}")

    @property
    def length(self) -> int:
        return sum(self.rows)

    @property
    def height(self) -> int:
        return len(self.rows)

    def outer_inner(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (outer, inner) partition pair, rows listed top to bottom."""
        ends = []
        end = 0
        for i, r in enumerate(self.rows):
            start = 1 if i == 0 else end
            end = start + r - 1
            ends.append((start, end))
        outer = tuple(e for _, e in reversed(ends))
        inner = tuple(s - 1 for s, _ in reversed(ends))
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        return outer, inner

    def descent_positions(self) -> IndexSet:
        """Descent set encoded by the bottom-left to top-right reading:
        each boundary between rows is one vertical (descending) step."""
        total = 0
        out = []
        for r in self.rows[:-1]:
            total += r
            out.append(total)
        return tuple(out)

    def double_descents(self) -> IndexSet:
        """Positions i with i-1 and i both encoded descents; these are
        the double descents shared by every standard filling."""
        des = set(self.descent_positions())
        return tuple(sorted(i for i in des if i - 1 in des))

    def ascii(self) -> str:
        """Rows of '.' offsets and '#' cells, top row first."""
        outer, inner = self.outer_inner()
        inner = inner + (0,) * (len(outer) - len(inner))
        return "\n".join(
            "." * mu + "#" * (lam - mu) for lam, mu in zip(outer, inner)
        )

    def __str__(self) -> str:
        return format_skew(self)


def from_descents(des_set: Iterable[int], n: int) -> RimHook:
    """The rim hook of length n encoding the given descent set."""
    des = as_index_set(des_set)
    if n < 1:
        raise ValueError("rim hooks have length >= 1")
    if any(i < 1 or i > n - 1 for i in des):
        raise ValueError(f"descent positions must lie in [1, {n - 1}]: {des}")
    bounds = (0,) + des + (n,)
    return RimHook(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def from_skew(outer: Iterable[int], inner: Iterable[int]) -> RimHook:
    """Build from an outer/inner partition pair, validating the rim hook
    conditions: weakly decreasing partitions, nonempty rows, and the
    rows overlapping in exactly one column (no 2x2 block, connected)."""
    lam = tuple(outer)
    mu = tuple(inner)
    if not lam:
        raise SkewValidationError("outer partition is empty")
    if any(not isinstance(x, int) or x < 1 for x in lam):
        raise SkewValidationError(f"outer partition entries must be positive: {lam}")
    if any(not isinstance(x, int) or x < 1 for x in mu):
        raise SkewValidationError(f"inner partition entries must be positive: {mu}")
    if any(a < b for a, b in zip(lam, lam[1:])) or any(
        a < b for a, b in zip(mu, mu[1:])
    ):
        raise SkewValidationError("partitions must be weakly decreasing")
    if len(mu) > len(lam):
        raise SkewValidationError("inner partition has more rows than outer")
    mu = mu + (0,) * (len(lam) - len(mu))
    if any(m >= l for l, m in zip(lam, mu)):
        raise SkewValidationError("every row of the skew shape must be nonempty")
    for k in range(len(lam) - 1):
        overlap = lam[k + 1] - mu[k]
        if overlap < 1:
            raise SkewValidationError(
                f"rows {k + 1} and {k + 2} are disconnected"
            )
        if overlap > 1:
            raise SkewValidationError(
                f"rows {k + 1} and {k + 2} contain a 2x2 block"
            )
    rows = tuple(l - m for l, m in zip(reversed(lam), reversed(mu)))
    return RimHook(rows)


_SKEW_RE = re.compile(r"^\(([0-9]+(?:,[0-9]+)*)\)(?:/\(((?:[0-9]+(?:,[0-9]+)*)?)\))?$")


def parse_skew(text: str) -> RimHook:
    """Parse "(a1,a2,...)/(b1,...)"; "/()" may be omitted when the inner
    partition is empty.  No whitespace."""
    m = _SKEW_RE.match(text)
    if not m:
        raise SkewParseError(f"not a skew-shape expression: {text!r}")
    outer = tuple(int(x) for x in m.group(1).split(","))
    inner_text = m.group(2)
    inner = tuple(int(x) for x in inner_text.split(",")) if inner_text else ()
    return from_skew(outer, inner)


def format_skew(r: RimHook) -> str:
    outer, inner = r.outer_inner()
    text = "(" + ",".join(str(x) for x in outer) + ")"
    if inner:
        text += "/(" + ",".join(str(x) for x in inner) + ")"
    return text


def enumerate_rimhooks(dd_set: Iterable[int], n: int,
                       cap: int = DEFAULT_LIST_CAP) -> list[RimHook]:
    """All rim hooks of length n whose encoded double-descent set is
    exactly ``dd_set``, ordered by the descent set read as a binary
    number (ascending)."""
    indices = as_index_set(dd_set)
    if n < 1:
        raise ValueError("rim hooks have length >= 1")
    if n > cap:
        raise CapExceeded(
            f"listing rim hooks at n={n} scans 2^{n - 1} masks (cap n={cap})"
        )
    if any(i < 2 or i > n - 1 for i in indices):
        return []
    target = 0
    for i in indices:
        target |= 1 << i
    found = []
    for s in range(1 << (n - 1)):
        mask = s << 1
        if mask & (mask << 1) == target:
            des = tuple(i for i in range(1, n) if mask >> i & 1)
            found.append(from_descents(des, n))
    return found


@lru_cache(maxsize=None)
def fibonacci(k: int) -> int:
    """F_1 = F_2 = 1 convention; F_0 = 0."""
    if k < 0:
        raise ValueError("negative Fibonacci index")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def count_singleton(m: int, n: int) -> int:
    """Number of length-n rim hooks encoding double-descent set {m}:
    F_{n-m} * F_{m-1}."""
    if m < 2:
        raise ValueError("a double descent needs position m >= 2")
    if n < m + 1:
        raise ValueError(f"need n >= m+1 = {m + 1} for a double descent at {m}")
    return fibonacci(n - m) * fibonacci(m - 1)


def count_empty(n: int) -> int:
    """Number of length-n rim hooks with no encoded double descents:
    F_{n+1}.  The tests pin it to :func:`count_empty_binomial` and to
    the mask scan."""
    if n < 2:
        raise ValueError("the closed form starts at n = 2")
    return fibonacci(n + 1)


def count_empty_binomial(n: int) -> int:
    """Same count summed over heights: a height-h rim hook without
    double descents is the staircase minimal element plus a weak
    h-composition of the leftover squares, giving C(n-k+1, k-1) at
    height k, for k up to floor((n+2)/2)."""
    if n < 2:
        raise ValueError("the summation form starts at n = 2")
    top = (n + 2) // 2
    return sum(comb(n - k + 1, k - 1) for k in range(1, top + 1))


def minimal_empty(h: int) -> RimHook:
    """The fewest-squares rim hook of height h with no double descents:
    a single square, a domino, or the staircase with single-square top
    and bottom rows and two-square middle rows (2h-2 squares)."""
    if h < 1:
        raise ValueError("height must be >= 1")
    if h == 1:
        return RimHook((1,))
    if h == 2:
        return RimHook((1, 1))
    return RimHook((1,) + (2,) * (h - 2) + (1,))


def minimal_search(dd_set: Iterable[int], h: int,
                   max_len: int | None = None) -> RimHook | None:
    """Search for a minimal-length rim hook of height h with the given
    double-descent set; ties broken by lexicographically smallest row
    tuple.  Returns None when nothing exists up to ``max_len`` (callers
    cannot distinguish a cap miss from nonexistence; the default cap is
    generous for the sets that do exist)."""
    indices = as_index_set(dd_set)
    if h < 1:
        raise ValueError("height must be >= 1")
    if max_len is None:
        max_len = 2 * h + 2 * max(indices, default=0) + 2
    for n in range(h, max_len + 1):
        for rows in _compositions(n, h):
            hook = RimHook(rows)
            if hook.double_descents() == indices:
                return hook
    return None


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into ``parts`` positive parts, lexicographic."""
    if parts == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def add_square(r: RimHook, row: int) -> RimHook:
    """Append one square at the right end of the given row (1 = bottom)
    and shift all higher rows right by one column.  In row-length terms
    that is simply one more square in that row; the rebuilt shape does
    the shifting."""
    if not 1 <= row <= r.height:
        raise ValueError(f"row {row} out of range 1..{r.height}")
    rows = list(r.rows)
    rows[row - 1] += 1
    return RimHook(tuple(rows))


def extensions(r: RimHook, n: int) -> list[RimHook]:
    """All rim hooks obtained by distributing n - len(r) extra squares
    over the rows of r.  The result depends only on how many squares
    each row gets, so there are C(n - len(r) + h - 1, h - 1) of them."""
    extra = n - r.length
    if extra < 0:
        raise ValueError(f"cannot extend a length-{r.length} rim hook to {n}")
    h = r.height
    out = []
    for added in _weak_compositions(extra, h):
        out.append(RimHook(tuple(c + a for c, a in zip(r.rows, added))))
    return out


def _weak_compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def tableau_count(r: RimHook, descent_cap: int = DEFAULT_DESCENT_CAP) -> int:
    """Number of standard fillings of r (rows increase rightward,
    columns increase downward).

    Fillings correspond to permutations with descent set exactly the
    encoded one, counted by inclusion-exclusion over subsets of the
    descent set with exact multinomials.
    """
    des = r.descent_positions()
    if len(des) > descent_cap:
        raise CapExceeded(
            f"inclusion-exclusion over 2^{len(des)} subsets exceeds the "
            f"cap 2^{descent_cap}"
        )
    n = r.length
    total = 0
    size = len(des)
    for pick in range(1 << size):
        subset = tuple(des[j] for j in range(size) if pick >> j & 1)
        sign = -1 if (size - len(subset)) % 2 else 1
        total += sign * _compositions_multinomial(subset, n)
    return total


def _compositions_multinomial(des: tuple[int, ...], n: int) -> int:
    """Permutations whose descent set is contained in ``des``: the
    multinomial over the gap composition."""
    bounds = (0,) + des + (n,)
    value = factorial(n)
    for a, b in zip(bounds, bounds[1:]):
        value //= factorial(b - a)
    return value


def dd_count_via_rimhooks(dd_set: Iterable[int], n: int,
                          cap: int = DEFAULT_LIST_CAP) -> int:
    """dd(I; n) as the sum of tableau counts over all rim hooks of
    length n encoding I: every permutation with double-descent set I is
    the reading of exactly one filling of exactly one such rim hook."""
    return sum(tableau_count(r) for r in enumerate_rimhooks(dd_set, n, cap))


def dd_bounds(dd_set: Iterable[int], n: int,
              cap: int = DEFAULT_LIST_CAP) -> tuple[int, int]:
    """(min, max) of the tableau count over the encoding rim hooks,
    scaled by how many rim hooks there are; dd(I; n) lies between."""
    hooks = enumerate_rimhooks(dd_set, n, cap)
    if not hooks:
        raise ValueError("no rim hooks encode this set at this length")
    counts = [tableau_count(r) for r in hooks]
    return min(counts) * len(hooks), max(counts) * len(hooks)


@dataclass(frozen=True)
class RecurrenceRow:
    kind: str      # "step" or "initial"
    n: int
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def recurrence_report(dd_set: Iterable[int], n_max: int,
                      cap: int = DEFAULT_LIST_CAP) -> list[RecurrenceRow]:
    """Check the two-step recurrence #R_I(n) = #R_I(n-1) + #R_I(n-2)
    for m+3 <= n <= n_max (m = max(I), 0 for empty I) against direct
    enumeration, and for singletons {m} with m >= 4 the seed identity
    #R_{m}(m+1) = #R_{m-1}(m) + #R_{m-2}(m-1)."""
    indices = as_index_set(dd_set)
    m = max(indices, default=0)

    def size(i: tuple[int, ...], n: int) -> int:
        return len(enumerate_rimhooks(i, n, cap))

    rows = []
    for n in range(m + 3, n_max + 1):
        lhs = size(indices, n)
        rhs = size(indices, n - 1) + size(indices, n - 2)
        rows.append(RecurrenceRow("step", n, lhs, rhs))
    if len(indices) == 1 and m >= 4:
        lhs = size((m,), m + 1)
        rhs = size((m - 1,), m) + size((m - 2,), m - 1)
        rows.append(RecurrenceRow("initial", m + 1, lhs, rhs))
    return rows
