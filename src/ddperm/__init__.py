"""Exact enumeration of permutations by double-descent set.

A double descent of a word w is a position i with w_{i-1} > w_i >
w_{i+1}.  This package counts permutations with a prescribed
double-descent set three independent ways (insertion dynamic
programming, brute-force enumeration, and summing standard fillings
over the rim hooks that encode the set), verifies the closed-form
exponential generating functions of the no-double-descent sequences in
exact integer arithmetic, realizes the Fibonacci counts of rim-hook
classes, and evaluates the open asymptotic conjectures numerically.

All counts are exact Python integers; no float ever enters a result.

``import ddperm`` loads no submodule: each public name below loads its
home module on first use (PEP 562), so a CLI run compiles only the
modules its subcommand needs.
"""

from importlib import import_module

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("descent_set", "double_descent_set", "peak_set"), "perms"),
    **dict.fromkeys(("dd_count", "dd_ascent_count", "dd_counts",
                     "dd_ascent_counts", "dd_singleton_values", "no_dd_counts",
                     "no_dd_ascent_counts", "dd_singleton_recursion",
                     "dd_singleton_estimate", "ascent_ratio_average"),
                    "counting"),
    **dict.fromkeys(("RimHook", "parse_skew", "format_skew"), "rimhooks"),
    "CapExceeded": "errors",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
