"""Exhaustive reference counters over full S_n enumeration.

Everything here counts by scanning all n! permutations (or all 2^(n-1)
descent-set masks) and applying the definitions directly; nothing is
shared with the dynamic-programming counters in :mod:`ddperm.counting`,
so the two routes check each other.

The permutation sweep is vectorized with numpy and partitioned by first
element to bound memory; the returned counts are independent of the
partitioning.  Values are int8 (fine for n <= 12), counts are Python
ints.  numpy is imported on the first sweep, not at import, so code that
never enumerates (the CLI's DP, series and rim-hook commands, cap
refusals) does not pay for loading it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import CapExceeded
from .perms import IndexSet, as_index_set

if TYPE_CHECKING:
    import numpy as np

# Default n! enumeration cap; the census of 11! = 39_916_800 rows takes a
# few seconds (1.6 to 5.8 s measured on a shared 2-vCPU VM).
DEFAULT_CAP = 11
# Hard ceiling for the override: 12! is a one-off-check scale, 13! is not.
HARD_CAP = 12
# Rim-hook counting iterates 2^(n-1) descent masks in pure Python.
DEFAULT_MASK_CAP = 24

# Blocks of at most 10! rows (~36 MB of int8 at n = 10) keep peak memory low.
_BLOCK_MAX = 10


def _check_cap(n: int, cap: int, what: str, hint: str) -> None:
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard enumeration ceiling {HARD_CAP}")
    if n > cap:
        raise CapExceeded(f"{what} at n={n} exceeds the cap {cap}; {hint}")


@lru_cache(maxsize=None)
def _perm_indices(k: int) -> np.ndarray:
    """All permutations of 0..k-1 as an int8 array, lexicographic rows.

    Built by prefixing each choice of first index to the permutations of
    the remaining indices, which is one fancy-indexing pass per choice.
    """
    import numpy as np
    if k == 0:
        return np.empty((1, 0), dtype=np.int8)
    sub = _perm_indices(k - 1)
    blocks = []
    for j in range(k):
        rest = np.delete(np.arange(k, dtype=np.int8), j)
        first = np.full((sub.shape[0], 1), j, dtype=np.int8)
        blocks.append(np.hstack([first, rest[sub]]))
    return np.vstack(blocks)


def _perm_array(values: tuple[int, ...]) -> np.ndarray:
    """All permutations of ``values`` as an int8 array, lexicographic rows."""
    import numpy as np
    return np.asarray(values, dtype=np.int8)[_perm_indices(len(values))]


def _perm_blocks(values: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Yield all permutations of ``values`` in memory-bounded blocks."""
    import numpy as np
    if len(values) <= _BLOCK_MAX:
        yield _perm_array(values)
        return
    for i, v in enumerate(values):
        rest = values[:i] + values[i + 1 :]
        for sub in _perm_blocks(rest):
            first = np.full((sub.shape[0], 1), v, dtype=np.int8)
            yield np.hstack([first, sub])


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _dd_masks(block: np.ndarray) -> np.ndarray:
    """Bitmask of double-descent positions per row (bit i = position i)."""
    import numpy as np
    rows, n = block.shape
    masks = np.zeros(rows, dtype=np.int32)
    if n >= 3:
        desc = block[:, :-1] > block[:, 1:]
        dd = desc[:, :-1] & desc[:, 1:]
        for j in range(dd.shape[1]):
            # column j marks a double descent at position j + 2
            masks |= dd[:, j].astype(np.int32) << (j + 2)
    return masks


@lru_cache(maxsize=8)
def _dd_census(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """(all permutations, initial-ascent permutations) keyed by DD mask."""
    import numpy as np
    if n <= 1:
        return {0: 1}, {}
    total: Counter[int] = Counter()
    ascent: Counter[int] = Counter()
    for block in _perm_blocks(tuple(range(1, n + 1))):
        masks = _dd_masks(block)
        counts = np.bincount(masks)
        for mask in np.nonzero(counts)[0]:
            total[int(mask)] += int(counts[mask])
        asc = block[:, 0] < block[:, 1]
        counts = np.bincount(masks[asc])
        for mask in np.nonzero(counts)[0]:
            ascent[int(mask)] += int(counts[mask])
    return dict(total), dict(ascent)


@lru_cache(maxsize=8)
def _descent_census(n: int) -> dict[int, int]:
    """All permutations keyed by descent-set mask (bit i = position i)."""
    import numpy as np
    if n <= 1:
        return {0: 1}
    table: Counter[int] = Counter()
    for block in _perm_blocks(tuple(range(1, n + 1))):
        desc = block[:, :-1] > block[:, 1:]
        masks = np.zeros(block.shape[0], dtype=np.int32)
        for j in range(desc.shape[1]):
            masks |= desc[:, j].astype(np.int32) << (j + 1)
        counts = np.bincount(masks)
        for mask in np.nonzero(counts)[0]:
            table[int(mask)] += int(counts[mask])
    return dict(table)


def count_dd_exact(dd_set: Iterable[int], n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of w in S_n whose double-descent set is exactly ``dd_set``.

    Sets not contained in [2, n-1] give 0 (the count really is zero).
    """
    indices = as_index_set(dd_set)
    _check_cap(n, cap, "brute-force double-descent count",
               "use ddperm.counting.dd_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _dd_census(n)[0].get(_mask_of(indices), 0)


def count_descents_exact(des_set: Iterable[int], n: int,
                         cap: int = DEFAULT_CAP) -> int:
    """Number of w in S_n whose descent set is exactly ``des_set``."""
    indices = as_index_set(des_set)
    _check_cap(n, cap, "brute-force descent count",
               "use ddperm.rimhooks.tableau_count for the matching shape")
    if any(i < 1 or i > n - 1 for i in indices):
        return 0
    return _descent_census(n).get(_mask_of(indices), 0)


def count_dd_ascent_exact(dd_set: Iterable[int], n: int,
                          cap: int = DEFAULT_CAP) -> int:
    """Number of w in S_n with w_1 < w_2 and double-descent set ``dd_set``."""
    if n < 2:
        raise ValueError("initial-ascent counts need n >= 2")
    indices = as_index_set(dd_set)
    _check_cap(n, cap, "brute-force initial-ascent count",
               "use ddperm.counting.dd_ascent_count")
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    return _dd_census(n)[1].get(_mask_of(indices), 0)


def count_no_dd_ascent_exact(n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of w in S_n with no double descents and no initial descent.

    By convention the n = 0 and n = 1 counts are 1.
    """
    if n <= 1:
        if n < 0:
            raise ValueError("n must be nonnegative")
        return 1
    _check_cap(n, cap, "brute-force count",
               "use ddperm.counting.no_dd_ascent_counts")
    return _dd_census(n)[1].get(0, 0)


def dd_census(n: int, cap: int = DEFAULT_CAP) -> dict[IndexSet, int]:
    """Full table {double-descent set: count} over S_n, by enumeration."""
    _check_cap(n, cap, "brute-force census", "reduce n")
    table = _dd_census(n)[0]
    out: dict[IndexSet, int] = {}
    for mask, cnt in sorted(table.items()):
        indices = tuple(i for i in range(2, n) if mask >> i & 1)
        out[indices] = cnt
    return out


def count_rimhooks_exact(dd_set: Iterable[int], n: int,
                         mask_cap: int = DEFAULT_MASK_CAP) -> int:
    """Number of length-n rim hooks whose encoded double-descent set is
    exactly ``dd_set``.

    A rim hook of length n corresponds to one descent set S in [n-1];
    the encoded double descents are the i with i-1 and i both in S.
    This scans all 2^(n-1) masks, so n is capped (default 24).
    """
    indices = as_index_set(dd_set)
    if n < 1:
        raise ValueError("rim hooks have length >= 1")
    if n - 1 > mask_cap:
        raise CapExceeded(
            f"counting rim hooks at n={n} scans 2^{n - 1} masks (cap 2^{mask_cap}); "
            "use ddperm.rimhooks.count_singleton/count_empty where they apply"
        )
    if any(i < 2 or i > n - 1 for i in indices):
        return 0
    target = _mask_of(indices)
    count = 0
    for s in range(1 << (n - 1)):
        mask = s << 1  # bit i = descent at position i
        if mask & (mask << 1) == target:
            count += 1
    return count


def count_circular_no_dd_exact(n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of rotation classes of S_n with no cyclic double descents.

    Enumerates the canonical representatives w_1 = n and tests all n
    positions cyclically (position 1 compares w_n > w_1 > w_2; position n
    compares w_{n-1} > w_n > w_1).
    """
    if n < 2:
        raise ValueError("circular double descents need n >= 2")
    _check_cap(n - 1, cap, "circular brute-force count",
               "use ddperm.circular.count_no_cyclic_dd")
    import numpy as np
    total = 0
    for block in _perm_blocks(tuple(range(1, n))):
        first = np.full((block.shape[0], 1), n, dtype=np.int8)
        w = np.hstack([first, block])
        nxt = np.roll(w, -1, axis=1)
        desc = w > nxt                      # column i-1: descent at i (cyclic)
        prev = np.roll(desc, 1, axis=1)     # column i-1: descent at i-1
        has_dd = (desc & prev).any(axis=1)
        total += int((~has_dd).sum())
    return total
