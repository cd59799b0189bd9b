"""Shared exception types, and the cap of the insertion-DP route with its guard."""

# The largest length of every insertion-DP count, column, row and series
# order; check_dp_size reads it here at call time.  The DP is O(n^2) and
# fine far beyond this, but one count at the cap already takes about 0.5 s.
DP_CAP = 1000


class CapExceeded(RuntimeError):
    """A computation was refused because it would exceed a resource cap.

    Raised instead of silently attempting an enumeration that cannot
    finish in reasonable time (e.g. 13! permutations).  The message says
    which cap was hit and, where one exists, which cheaper method to use.
    """


def check_dp_size(n: int, what: str) -> None:
    """The one size guard of the insertion-DP route: refuse a negative n,
    and an n past ``DP_CAP`` with a message naming ``what`` was asked."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DP_CAP:
        raise CapExceeded(f"{what} at n={n} exceeds the cap {DP_CAP}")
