"""Exact enumeration of permutations by double-descent set.

A double descent of a word w is a position i with w_{i-1} > w_i >
w_{i+1}.  This package counts permutations with a prescribed
double-descent set three independent ways (insertion dynamic
programming, brute-force enumeration, and summing standard fillings
over the rim hooks that encode the set), verifies the closed-form
exponential generating functions of the no-double-descent sequences in
exact Q(sqrt 3) arithmetic, realizes the Fibonacci counts of rim-hook
classes, and evaluates the open asymptotic conjectures numerically.

All counts are exact Python integers; no float ever enters a result.
"""

from .perms import (
    descent_set,
    double_descent_set,
    peak_set,
    has_initial_ascent,
    iterate_permutations,
)
from .counting import (
    dd_count,
    dd_ascent_count,
    dd_counts,
    dd_ascent_counts,
    dd_singleton_row,
    no_dd_counts,
    no_dd_ascent_counts,
    dd_singleton_recursion,
    dd_singleton_estimate,
    ascent_ratio_average,
)
from .rimhooks import RimHook, parse_skew, format_skew
from .errors import CapExceeded

__all__ = [
    "descent_set",
    "double_descent_set",
    "peak_set",
    "has_initial_ascent",
    "iterate_permutations",
    "dd_count",
    "dd_ascent_count",
    "dd_counts",
    "dd_ascent_counts",
    "dd_singleton_row",
    "no_dd_counts",
    "no_dd_ascent_counts",
    "dd_singleton_recursion",
    "dd_singleton_estimate",
    "ascent_ratio_average",
    "RimHook",
    "parse_skew",
    "format_skew",
    "CapExceeded",
]

__version__ = "0.1.0"
