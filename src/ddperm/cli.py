"""Command-line interface.

Batch tool for researchers: every subcommand prints deterministic text
(byte-identical for identical invocations) and exits 0 on success, 1
when a cross-check fails, 2 when a resource cap refuses the
computation, 64 on usage errors, 73 when an ``--out`` file cannot be
written.

Exact integers in JSON output are encoded as strings so downstream
consumers cannot truncate them at 64 bits.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

# computing modules are imported where used: a run compiles only its own
from .errors import CapExceeded
from .render import csv_text, decimal_str, percent_str, set_str

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CAP = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64, not argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_set_option(text: str) -> tuple[int, ...]:
    """Index-set notation: "" is the empty set, "2,5" is {2,5}.
    Entries must be strictly increasing with no duplicates; argparse
    prints the message of the ``ArgumentTypeError`` a bad value raises."""
    if text == "":
        return ()
    parts = text.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated integer set: {text!r}") from None
    for a, b in zip(values, values[1:]):
        if a >= b:
            raise argparse.ArgumentTypeError(
                f"set entries must be strictly increasing: {text!r}"
            )
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"set entries must be positive: {text!r}")
    return tuple(values)


def _count_one(method: str, indices: tuple[int, ...], n: int) -> int:
    if method == "dp":
        from . import counting
        return counting.dd_count(indices, n)
    if method == "brute":
        from . import bruteforce
        return bruteforce.count_dd_exact(indices, n)
    from . import rimhooks  # method "rimhook"
    return rimhooks.dd_count_via_rimhooks(indices, n)


def cmd_count(args) -> int:
    methods = [args.method]
    if args.all_methods:
        from . import bruteforce, rimhooks
        methods = ["dp"]
        if args.n <= bruteforce.DEFAULT_CAP:
            methods.append("brute")
        if 1 <= args.n <= rimhooks.DEFAULT_LIST_CAP:
            methods.append("rimhook")
    values = set()
    for method in methods:
        value = _count_one(method, args.set, args.n)
        values.add(value)
        print(f"dd({set_str(args.set)};{args.n}) = {value}  [method: {method}]")
    if not args.all_methods:
        return EXIT_OK
    agreed = len(values) == 1
    print(f"agreement: {'OK' if agreed else 'MISMATCH'}")
    return EXIT_OK if agreed else EXIT_CHECK_FAILED


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_table(args) -> int:
    from . import counting
    size = args.size
    if args.family == "singleton":  # dd({i}; size) for i = 2..size-1
        columns = ("n", "i", "value")
        rows = [(size, i, v)
                for i, v in enumerate(counting.dd_singleton_values(size), 2)]
    else:  # the empty-set column to length size
        column = counting.dd_ascent_counts if args.family == "b" else counting.dd_counts
        columns = ("n", "value")
        rows = list(enumerate(column((), size)))
    if args.format == "csv":
        text = csv_text(columns, rows)
    else:
        import json
        if args.family == "singleton":
            body = {"n": size,
                    "entries": [{"i": i, "value": str(v)} for _, i, v in rows]}
        else:
            body = {"to": size, "values": [str(v) for _, v in rows]}
        text = json.dumps({"family": args.family, **body}, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_rimhook_list(args) -> int:
    """list the rim hooks of one length and double-descent set"""
    from . import rimhooks
    hooks = rimhooks.enumerate_rimhooks(args.set, args.length)
    for hook in hooks:
        print(rimhooks.format_skew(hook))
        if args.ascii:
            print(hook.ascii())
            print()
    print(f"total: {len(hooks)}")
    return EXIT_OK


def cmd_rimhook_count(args) -> int:
    """count the rim hooks by mask scan, or by formula past the scan's cap"""
    indices, n = args.set, args.length
    from . import bruteforce
    if n - 1 <= bruteforce.DEFAULT_MASK_CAP:
        value, method = bruteforce.count_rimhooks_exact(indices, n), "enumeration"
    elif len(indices) > 1:
        raise CapExceeded(
            f"no formula for {set_str(indices)} and n={n} is beyond the "
            "enumeration cap"
        )
    else:
        from . import rimhooks
        value = (rimhooks.count_singleton(indices[0], n) if indices
                 else rimhooks.count_empty(n))
        method = "formula"
    print(f"R({set_str(indices)};{n}) = {value}  [method: {method}]")
    return EXIT_OK


def cmd_rimhook_minimal(args) -> int:
    """the fewest-squares rim hook of one height"""
    from . import rimhooks
    hook = rimhooks.minimal_search(args.set, args.height)
    if hook is None:
        print(f"none found: no rim hook of height {args.height} has "
              f"double-descent set {set_str(args.set)}")
        return EXIT_OK
    print(rimhooks.format_skew(hook))
    if args.ascii:
        print(hook.ascii())
    return EXIT_OK


def cmd_rimhook_bounds(args) -> int:
    """bracket the exact count between rim-hook bounds"""
    from . import counting, rimhooks
    low, high = rimhooks.dd_bounds(args.set, args.length)
    exact = counting.dd_count(args.set, args.length)
    print(f"lower = {low}")
    print(f"exact dd({set_str(args.set)};{args.length}) = {exact}")
    print(f"upper = {high}")
    bracketed = low <= exact <= high
    print(f"bracketed: {'yes' if bracketed else 'NO'}")
    return EXIT_OK if bracketed else EXIT_CHECK_FAILED


def cmd_circular(args) -> int:
    if args.method == "formula":
        from . import circular
        value = circular.count_no_cyclic_dd(args.n)
    else:
        from . import bruteforce
        value = bruteforce.count_circular_no_dd_exact(args.n)
    print(f"circular-no-dd({args.n}) = {value}  [method: {args.method}]")
    return EXIT_OK


def cmd_egf_check(args) -> int:
    from . import counting, series
    order = args.order
    if args.which == "b":
        column, egf = counting.dd_ascent_counts, series.egf_no_dd_ascent
    else:
        column, egf = counting.dd_counts, series.egf_no_dd
    actual = series.integer_coefficients(egf(order))  # refuses past its cap at once
    expected = column((), order)
    failures = 0
    for n, (got, want) in enumerate(zip(actual, expected)):
        ok = got == want
        failures += 0 if ok else 1
        print(f"n={n}  n!*coeff={got}  sequence={want}  {'PASS' if ok else 'FAIL'}")
    print(f"{args.which}: {order + 1} coefficients, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_estimate(args) -> int:
    from . import counting
    estimate = counting.dd_singleton_estimate(args.m, args.n)
    print(f"estimate dd({{{args.m}}};{args.n + 1}) = {decimal_str(estimate, 3)}")
    exact = counting.dd_count((args.m,), args.n + 1)  # > 0 for 2 <= m <= n
    print(f"exact    dd({{{args.m}}};{args.n + 1}) = {exact}")
    print(f"relative error = {percent_str(abs(estimate - exact) / exact, 2)}")
    return EXIT_OK


def cmd_conjecture(args) -> int:
    owners = {"--alpha": "6.1", "--beta": "6.1",
              "--set-i": "6.4 6.5", "--set-j": "6.4 6.5"}
    for flag, ids in owners.items():  # refuse a flag this id would ignore
        given = getattr(args, flag[2:].replace("-", "_")) is not None
        if given and args.id not in ids.split():
            raise ValueError(f"conjecture {args.id} does not take {flag}")
    if args.id == "6.4" and any(s is not None and len(s) != 1
                                for s in (args.set_i, args.set_j)):
        raise ValueError("conjecture 6.4 takes singleton sets; use 6.5")
    from . import conjectures

    def size(default: int) -> int:
        return default if args.n is None else args.n

    if args.id == "6.1":
        report = conjectures.equidistribution_report(
            size(30),
            Fraction(1, 4) if args.alpha is None else Fraction(args.alpha),
            Fraction(3, 4) if args.beta is None else Fraction(args.beta),
        )
    elif args.id == "6.2":
        report = conjectures.down_up_report(size(30))
    elif args.id == "6.3":
        report = conjectures.ratio_monotonicity_report(size(30))
    elif args.id in ("6.4", "6.5"):
        default_i, default_j = ((2,), (4,)) if args.id == "6.4" else ((), (2, 5))
        set_i = default_i if args.set_i is None else args.set_i
        set_j = default_j if args.set_j is None else args.set_j
        report = conjectures.ratio_series_report(
            set_i, set_j, size(conjectures.DEFAULT_SWEEP_MAX),
            conjecture_id=args.id,
        )
    else:  # 3.2
        report = conjectures.ratio_table_report(size(12))
    _check_printable(report)
    _emit(conjectures.report_text(report, args.format), args.out)
    if args.out is not None:
        print(f"wrote {args.format} report to {args.out}")
    print(f"verdict: {report.verdict.value}", file=sys.stderr)
    return EXIT_CHECK_FAILED if report.verdict is conjectures.Verdict.VIOLATED else EXIT_OK


def _check_printable(report) -> None:
    """Refuse a report with an integer cell past the interpreter's
    integer-to-string digit limit (``PYTHONINTMAXSTRDIGITS``)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = max((abs(c) for row in report.rows for c in row if isinstance(c, int)),
              default=0)
    if limit and top >= 10**limit:
        digits = (top.bit_length() - 1) * 3 // 10  # at most the digit count
        while 10**digits <= top:
            digits += 1
        raise CapExceeded(
            f"conjecture {report.conjecture_id} at n={report.n_range[1]} has a "
            f"{digits}-digit cell, past the interpreter's limit of {limit} "
            "digits for integer-to-string conversion (PYTHONINTMAXSTRDIGITS)")


def cmd_selftest(args) -> int:
    from .checks import CHECKS  # here, so no other subcommand loads it

    failures = []
    for name, check in CHECKS.items():
        witness = check()
        print(f"PASS {name}" if witness is None else f"FAIL {name}: {witness}")
        if witness is not None:
            failures.append(f"{name}: {witness}")
    if failures:
        print(f"selftest failed, first witness: {failures[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ddperm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("count",
                       help="count permutations with an exact double-descent set")
    p.add_argument("--set", type=parse_set_option, required=True,
                   help='double-descent set, e.g. "2,5"; "" is the empty set')
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.add_argument("--method", choices=["dp", "brute", "rimhook"], default="dp")
    p.add_argument("--all-methods", action="store_true",
                   help="run every method within its cap and require agreement")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table",
                       help="emit count tables (csv or json)")
    p.add_argument("--family", choices=["b", "ddempty", "singleton"],
                   required=True)
    p.add_argument("--to", "--n", dest="size", type=int, required=True,
                   help="largest length for b/ddempty, the length for singleton")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_table)

    actions = sub.add_parser(
        "rimhook", help="list, count, and bound via rim hooks",
    ).add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action, func, size, draws in (
            ("list", cmd_rimhook_list, "--length", True),
            ("count", cmd_rimhook_count, "--length", False),
            ("minimal", cmd_rimhook_minimal, "--height", True),
            ("bounds", cmd_rimhook_bounds, "--length", False)):
        p = actions.add_parser(action, help=func.__doc__)
        p.add_argument("--set", type=parse_set_option, default="",
                       help="double-descent set")
        p.add_argument(size, type=int, required=True,
                       help="number of squares" if size == "--length" else "rows")
        if draws:
            p.add_argument("--ascii", action="store_true", help="draw shapes")
        p.set_defaults(func=func)

    p = sub.add_parser("circular",
                       help="rotation classes without cyclic double descents")
    p.add_argument("action", choices=["count"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["formula", "brute"], default="formula")
    p.set_defaults(func=cmd_circular)

    p = sub.add_parser("egf-check",
                       help="verify closed-form generating functions "
                            "coefficient by coefficient")
    p.add_argument("--which", choices=["b", "ddempty"], required=True)
    p.add_argument("--order", type=int, default=30)
    p.set_defaults(func=cmd_egf_check)

    p = sub.add_parser("estimate",
                       help="ratio-table estimate of a singleton count")
    p.add_argument("--m", type=int, required=True, help="double-descent position")
    p.add_argument("--n", type=int, required=True,
                   help="recursion depth; the estimated length is n+1")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("conjecture",
                       help="numeric evidence reports for the conjectures")
    p.add_argument("action", choices=["run"])
    p.add_argument("--id", required=True,
                   choices=["6.1", "6.2", "6.3", "6.4", "6.5", "3.2"])
    p.add_argument("--n", type=int, help="sweep limit (id-specific default)")
    p.add_argument("--alpha", help="window start for 6.1 (default 1/4)")
    p.add_argument("--beta", help="window end for 6.1 (default 3/4)")
    p.add_argument("--set-i", type=parse_set_option,
                   help="numerator set for 6.4/6.5")
    p.add_argument("--set-j", type=parse_set_option,
                   help="denominator set for 6.4/6.5")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("selftest",
                       help="run the acceptance cross-checks (no time budgets)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"ddperm: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError) as exc:
        print(f"ddperm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a failed identity inside a computation
        print(f"ddperm: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"ddperm: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
