"""The three benchmark workloads: seeded sessions of tasks, the calls
each task makes into ddperm, and the correctness check of every result.

A session is the list of tasks one fresh process runs, like one script
or shell loop of a user; a task is ``(kind, params)``.  ``setup``
imports what the tasks call and builds the session from the seed and
the session number; ``run`` performs one task and returns its raw
result; ``check`` runs after the timed part and returns None or a
message saying what is wrong.  Checks use a route that shares no code
with the timed call wherever the package has one: the brute-force
census, the convolution sequences, the singleton recursion, closed
forms, or the exact descent-set count below.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial, sqrt
from pathlib import Path

# Wall-clock limit of one task, in-process or as a CLI child.
TASK_TIMEOUT_S = 20.0
# Largest n the checks send to the brute-force census: 9! permutations
# take 0.02 s, 10! take 0.25 s and 300 MB in every session.
BRUTE_MAX = 9

# One step per slot group: square roots of distinct primes are linearly
# independent over the rationals, so the groups' sequences are jointly
# equidistributed instead of moving in lockstep.
_STEPS = tuple(sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


class TaskTimeout(Exception):
    """A task or check ran past its time limit."""


def slot_sizes(seed: int, session: int):
    """Sizes for one session.  The j-th call of the returned
    ``draw(lo, hi, parts)`` serves slot group j: ``parts`` sizes spread
    evenly over ``lo..hi`` (one size when ``parts`` is 1).

    A group's spread rotates by a fixed irrational step from session to
    session, from a seeded start, so each session holds about the same
    work and the sessions of a run cover every range evenly however
    many of them the run completes."""
    offsets = random.Random(seed)
    steps = iter(_STEPS)

    def draw(lo: int, hi: int, parts: int = 1):
        x = offsets.random() + session * next(steps)
        sizes = [lo + int((x + j / parts) % 1.0 * (hi - lo + 1)) for j in range(parts)]
        return sizes if parts > 1 else sizes[0]

    return draw


def realizable(indices) -> bool:
    """Whether some permutation has exactly this double-descent set:
    double descents at i and i+2 force one at i+1."""
    s = set(indices)
    return all(i + 1 in s for i in s if i + 2 in s)


def random_set(rng: random.Random, size: int, top: int) -> tuple[int, ...]:
    """A realizable set of ``size`` positions in [2, top]."""
    while True:
        s = tuple(sorted(rng.sample(range(2, top + 1), size)))
        if realizable(s):
            return s


def min_descents(indices) -> int:
    """Fewest descents that encode the set: a run of r consecutive
    double descents needs r+1 consecutive descents."""
    s = sorted(indices)
    runs = sum(1 for k, i in enumerate(s) if k == 0 or s[k - 1] != i - 1)
    return len(s) + runs


def descent_set_count(des, n: int) -> int:
    """Permutations of [n] with descent set exactly ``des``, by the
    standard dynamic program over the rank of the last entry (an oracle
    for ``tableau_count`` that shares none of its inclusion-exclusion)."""
    des = set(des)
    f = [1]
    for i in range(1, n):
        run, g = 0, [0] * (i + 1)
        if i in des:
            for s in range(i, -1, -1):
                run += f[s] if s < i else 0
                g[s] = run
        else:
            for s in range(i + 1):
                g[s] = run
                run += f[s] if s < i else 0
        f = g
    return sum(f)


def _all_sets(n: int):
    positions = range(2, n)
    for r in range(len(positions) + 1):
        yield from itertools.combinations(positions, r)


class _Workload:
    """Shared parts of the workloads: dispatch by task kind, and the
    library routes the checks use."""

    modules: tuple[str, ...] = ()
    # Whose peak RSS the workload reports: its own process, or the
    # largest child it ran.
    rss_of_children = False

    def __init__(self, root: Path, tracer=None) -> None:
        self.root = root
        self.tracer = tracer

    def setup(self, seed: int, session: int) -> list[tuple]:
        for name in self.modules:
            setattr(self, name, importlib.import_module(f"ddperm.{name}"))
        return self.session(seed, session)

    def run(self, task):
        kind, params = task
        return getattr(self, "task_" + kind)(*params)

    def check(self, task, result) -> str | None:
        kind, params = task
        return getattr(self, "check_" + kind)(params, result)

    def lib(self, name: str):
        return importlib.import_module(f"ddperm.{name}")

    def census(self, n: int) -> dict:
        return self.lib("bruteforce").dd_census(n)

    def singleton(self, m: int, n: int) -> int:
        """dd({m}; n) by the singleton recursion (m >= 4, n > m).  Its
        O(n) smaller counts are cached, so one m per session keeps the
        checks cheap."""
        return self.lib("counting").dd_singleton_recursion(m, n - 1)


class EvidenceSweep(_Workload):
    """Conjecture reports 6.1-6.5 and singleton tables at large n."""

    name = "evidence_sweep"
    modules = ("counting", "conjectures")
    WINDOWS = (("1/4", "3/4"), ("1/3", "2/3"), ("1/5", "4/5"))

    def setup(self, seed: int, session: int) -> list[tuple]:
        # The singleton position this session's entries are checked at.
        self.m = random.Random(f"{seed}/{session}/check").randint(4, 6)
        return super().setup(seed, session)

    def session(self, seed: int, k: int) -> list[tuple]:
        draw, rng = slot_sizes(seed, k), random.Random(f"{seed}/{k}")
        # shared: a 6.2 and a 6.3 report at the same n
        shared, table1, table2, down_up, ratio_mono = draw(60, 200, 5)
        sets = [random_set(rng, size, 12) for size in draw(1, 3, 4)]
        tops = draw(100, 150, 3)
        return [
            ("table", (table1,)),
            ("table", (table2,)),
            ("down_up", (down_up,)),
            ("ratio_mono", (ratio_mono,)),
            ("down_up", (shared,)),
            ("ratio_mono", (shared,)),
            ("equidist", (draw(40, 70), *self.WINDOWS[draw(0, len(self.WINDOWS) - 1)])),
            ("ratio_series", (sets[0], (), tops[0])),
            ("ratio_series", (sets[1], sets[2], tops[1])),
            ("ratio_series", ((), sets[3], tops[2])),
        ]

    def task_table(self, n):
        return self.conjectures.singleton_table(n)

    def task_down_up(self, n):
        return self.conjectures.down_up_report(n)

    def task_ratio_mono(self, n):
        return self.conjectures.ratio_monotonicity_report(n)

    def task_equidist(self, n, alpha, beta):
        return self.conjectures.equidistribution_report(n, Fraction(alpha), Fraction(beta))

    def task_ratio_series(self, set_i, set_j, n_max):
        return self.conjectures.ratio_series_report(set_i, set_j, n_max)

    def check_table(self, params, table):
        (n,) = params
        if list(table) != list(range(2, n)):
            return f"keys of singleton_table({n}) are not 2..{n - 1}"
        if min(table.values()) <= 0:
            return f"singleton_table({n}) has a zero entry"
        m = self.m
        if table[m] != self.singleton(m, n):
            return f"dd({{{m}}};{n}) = {table[m]} disagrees with the recursion"
        return None

    def _verdict(self, report, want):
        if report.verdict.value != want:
            return f"report {report.conjecture_id} verdict {report.verdict.value}, expected {want}"
        return None

    def check_down_up(self, params, report):
        (n,) = params
        # Conjecture 6.2 holds for every n in 60..200 (checked exhaustively
        # when the benchmark was defined), so the verdict is pinned.
        bad = self._verdict(report, "HOLDS-IN-RANGE")
        if bad or len(report.rows) != -(-n // 2) - 2:
            return bad or f"6.2 at n={n} has {len(report.rows)} rows"
        row = report.rows[self.m - 2]
        if (row[1], int(row[2])) != (self.m, self.singleton(self.m, n)):
            return f"6.2 row i={self.m} at n={n} disagrees with the recursion"
        return None

    def check_ratio_mono(self, params, report):
        (n,) = params
        bad = self._verdict(report, "HOLDS-IN-RANGE")
        if bad or len(report.rows) != -(-n // 2) - 3:
            return bad or f"6.3 at n={n} has {len(report.rows)} rows"
        # dd_m is a factor of cross_left in row m and of cross_right in row m-2.
        m, dd_m = self.m, self.singleton(self.m, n)
        if int(report.rows[m - 2][2]) % dd_m or int(report.rows[m - 4][3]) % dd_m:
            return f"6.3 rows at n={n} are not multiples of dd({{{m}}};{n}) by the recursion"
        return None

    def check_equidist(self, params, report):
        n, alpha, beta = params
        alpha, beta = Fraction(alpha), Fraction(beta)
        # Pinned like 6.2: the verdict holds for these windows at n in 40..70.
        bad = self._verdict(report, "HOLDS-IN-RANGE")
        if bad or len(report.rows) != n - 3:
            return bad or f"6.1 at n={n} has {len(report.rows)} rows"
        for row in report.rows:
            m = row[0]
            if m > BRUTE_MAX:
                break
            census = self.census(m)
            singles = {i: census.get((i,), 0) for i in range(2, m)}
            inside = sum(v for i, v in singles.items() if alpha * m < i < beta * m)
            share = (beta - alpha) * sum(singles.values())
            if row[1] != "" and (int(row[1]), Fraction(int(row[2]), int(row[3]))) != (inside, share):
                return f"6.1 row m={m} disagrees with the brute-force census"
        return None

    def check_ratio_series(self, params, report):
        set_i, set_j, n_max = params
        start, stop = report.n_range
        if report.verdict.value != "INCONCLUSIVE" or stop != n_max:
            return f"6.5 report for {set_i}/{set_j} has verdict {report.verdict.value}"
        if [row[0] for row in report.rows] != list(range(start, n_max + 1)):
            return f"6.5 rows for {set_i}/{set_j} do not cover {start}..{n_max}"
        empty = self.lib("counting").no_dd_counts(n_max)
        for row in report.rows:
            n = row[0]
            for s, cell in ((set_i, row[1]), (set_j, row[2])):
                if n <= BRUTE_MAX:
                    want = self.census(n).get(s, 0)
                elif not s:
                    want = empty[n]
                else:
                    continue
                if int(cell) != want:
                    return f"dd({s};{n}) = {cell} in the 6.5 report, expected {want}"
        return None


class OracleCrosscheck(_Workload):
    """Many short agreement checks between the independent routes."""

    name = "oracle_crosscheck"
    modules = ("counting", "bruteforce", "rimhooks", "series")
    UNREALIZABLE = ((2, 4), (3, 5))

    def session(self, seed: int, k: int) -> list[tuple]:
        draw, rng = slot_sizes(seed, k), random.Random(f"{seed}/{k}")

        def via(n):
            return ("via_rimhooks", (random_set(rng, rng.randint(0, 3), n - 1), n))

        def hook_count(length):
            indices = (rng.randint(2, length - 1),) if rng.random() < 0.7 else ()
            return ("rimhook_count", (indices, length))

        def tableau(d):
            length = d + 1 + rng.randint(0, 6)
            des = sorted(rng.sample(range(1, length), d))
            bounds = [0] + des + [length]
            return ("tableau", (tuple(b - a for a, b in zip(bounds, bounds[1:])),))

        def minimal(height):
            while True:
                s = random_set(rng, rng.randint(0, 2), 7)
                if min_descents(s) < height:
                    return ("minimal", (s, height))

        # Every session runs each size of the exponential kinds once: a
        # size step doubles a task's cost or more, so sizes drawn per
        # session would let the run's median and 90th percentile jump
        # from one step to the next with the seed.  With the five cheap
        # realizable searches, the median task lies inside a group of
        # near-equal latencies (on a 2-vCPU VM, 11-13 ms: the length-19
        # mask scan, the n = 10 circular scan, the 13-descent tableau),
        # not on the edge between two groups.
        return [
            *(("census", (n,)) for n in (9, 10)),
            *map(via, range(10, 15)),
            *map(hook_count, range(18, 23)),
            *map(tableau, range(12, 19)),
            *map(minimal, range(3, 8)),
            *(("minimal", (s, h)) for s in self.UNREALIZABLE for h in range(3, 7)),
            ("egf", (rng.choice(("b", "ddempty")), draw(60, 100))),
            *(("circular", (n,)) for n in (9, 10, 11)),
        ]

    def task_census(self, n):
        census = self.bruteforce.dd_census(n)
        return census, {s: self.counting.dd_count(s, n) for s in _all_sets(n)}

    def task_via_rimhooks(self, indices, n):
        return (self.rimhooks.dd_count_via_rimhooks(indices, n),
                self.counting.dd_count(indices, n))

    def task_rimhook_count(self, indices, length):
        return self.bruteforce.count_rimhooks_exact(indices, length)

    def task_tableau(self, rows):
        return self.rimhooks.tableau_count(self.rimhooks.RimHook(rows))

    def task_minimal(self, indices, height):
        return self.rimhooks.minimal_search(indices, height)

    def task_egf(self, which, order):
        if which == "b":
            egf, seq = self.series.egf_no_dd_ascent(order), self.counting.no_dd_ascent_counts(order)
        else:
            egf, seq = self.series.egf_no_dd(order), self.counting.no_dd_counts(order)
        return self.series.integer_coefficients(egf), seq

    def task_circular(self, n):
        return self.bruteforce.count_circular_no_dd_exact(n)

    def check_census(self, params, result):
        (n,) = params
        census, dp = result
        if sum(census.values()) != factorial(n):
            return f"census at n={n} does not sum to {n}!"
        for s, value in dp.items():
            if census.get(s, 0) != value:
                return f"dd({s};{n}): dp {value} != brute {census.get(s, 0)}"
        if set(census) - set(dp):
            return f"census at n={n} has sets outside [2, {n - 1}]"
        return None

    def check_via_rimhooks(self, params, result):
        indices, n = params
        via, dp = result
        if via != dp:
            return f"dd({indices};{n}): rim hooks {via}, dp {dp}"
        return None

    def check_rimhook_count(self, params, count):
        indices, length = params
        rim = self.lib("rimhooks")
        want = rim.count_singleton(indices[0], length) if indices else rim.count_empty(length)
        if count != want:
            return f"R({indices};{length}) = {count}, Fibonacci formula gives {want}"
        return None

    def check_tableau(self, params, count):
        hook = self.lib("rimhooks").RimHook(params[0])
        want = descent_set_count(hook.descent_positions(), hook.length)
        if count != want:
            return f"tableau_count{hook.rows} = {count}, descent-set count {want}"
        return None

    def check_minimal(self, params, hook):
        indices, height = params
        if not realizable(indices):
            return None if hook is None else f"{indices} is unrealizable but got {hook}"
        if hook is None or hook.height != height or hook.double_descents() != indices:
            return f"minimal_search({indices}, {height}) returned {hook}"
        if not indices and hook.length != self.lib("rimhooks").minimal_empty(height).length:
            return f"minimal empty hook of height {height} has length {hook.length}"
        return None

    def check_egf(self, params, result):
        coeffs, seq = result
        if coeffs != seq:
            return f"egf {params[0]} to order {params[1]} disagrees with the sequence"
        return None

    def check_circular(self, params, count):
        (n,) = params
        want = self.lib("circular").count_no_cyclic_dd(n)
        if count != want:
            return f"circular brute force at n={n} gives {count}, formula {want}"
        return None


USAGE_ERRORS = (
    ["count", "--set", "5,3", "--n", "8"],
    ["count", "--set", "two", "--n", "8"],
    ["count", "--n", "5"],
    ["table", "--family", "b"],
    ["rimhook", "list", "--set", "3"],
    ["conjecture", "run", "--id", "6.4", "--set-i", "2,5"],
    ["estimate", "--m", "1", "--n", "5"],
    ["frobnicate"],
)
CAP_REFUSALS = (
    ["count", "--set", "2", "--n", "13", "--method", "brute"],
    ["count", "--set", "", "--n", "1200"],
    ["rimhook", "list", "--set", "3", "--length", "24"],
    ["rimhook", "count", "--set", "2,5", "--length", "40"],
    ["circular", "count", "--n", "14", "--method", "brute"],
)

def child_env(root: Path) -> dict[str, str]:
    """Environment of a CLI child: the checkout's package, default caps."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("DDPERM_BRUTE_CAP", None)
    return env


_VALUE_LINE = re.compile(r"^\S+\(.*\) = (\d+)  \[method: (\w+)\]$")


def _set_text(indices) -> str:
    return ",".join(str(i) for i in indices)


class CliBatch(_Workload):
    """Sequential ``python -m ddperm`` runs, one child at a time."""

    name = "cli_batch"
    modules = ()
    rss_of_children = True

    def __init__(self, root: Path, tracer=None) -> None:
        super().__init__(root, tracer)
        self.env = child_env(root)

    def session(self, seed: int, k: int) -> list[tuple]:
        draw, rng = slot_sizes(seed, k), random.Random(f"{seed}/{k}")
        n, small, hook, listed, m = (draw(10, 60), draw(5, 9), draw(8, 16),
                                     draw(6, 12), draw(4, 9))

        def hook_set(length):
            return random_set(rng, rng.randint(0, 2), min(length - 1, 9))

        return [
            ("count", (random_set(rng, rng.randint(0, 3), min(n - 1, 15)), n)),
            ("count_all", (random_set(rng, rng.randint(0, 2), small - 1), small)),
            ("table", (rng.choice(("b", "ddempty")), draw(10, 40), rng.choice(("csv", "json")))),
            ("table_singleton", (draw(10, 60),)),
            ("egf_check", (rng.choice(("b", "ddempty")),)),
            ("rimhook_count", (hook_set(hook), hook)),
            ("rimhook_list", (hook_set(listed), listed)),
            ("circular", (draw(3, 9), rng.choice(("formula", "brute")))),
            ("estimate", (m, m + rng.randint(0, 5))),
            ("conjecture", (rng.choice(("6.1", "6.2", "6.3")), draw(10, 30))),
            ("usage", (draw(0, len(USAGE_ERRORS) - 1),)),
            ("cap", (draw(0, len(CAP_REFUSALS) - 1),)),
        ]

    @staticmethod
    def argv(kind: str, params) -> list[str]:
        if kind == "count":
            return ["count", "--set", _set_text(params[0]), "--n", str(params[1])]
        if kind == "count_all":
            return ["count", "--set", _set_text(params[0]), "--n", str(params[1]),
                    "--all-methods"]
        if kind == "table":
            return ["table", "--family", params[0], "--to", str(params[1]),
                    "--format", params[2]]
        if kind == "table_singleton":
            return ["table", "--family", "singleton", "--n", str(params[0])]
        if kind == "egf_check":
            return ["egf-check", "--which", params[0], "--order", "30"]
        if kind in ("rimhook_count", "rimhook_list"):
            return ["rimhook", kind.split("_")[1], "--set", _set_text(params[0]),
                    "--length", str(params[1])]
        if kind == "circular":
            return ["circular", "count", "--n", str(params[0]), "--method", params[1]]
        if kind == "estimate":
            return ["estimate", "--m", str(params[0]), "--n", str(params[1])]
        if kind == "conjecture":
            return ["conjecture", "run", "--id", params[0], "--n", str(params[1])]
        if kind == "usage":
            return list(USAGE_ERRORS[params[0]])
        return list(CAP_REFUSALS[params[0]])

    def run(self, task):
        kind, params = task
        argv = self.argv(kind, params)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ddperm", *argv]
        else:
            span_file = Path(__file__).resolve().parent / "out" / f"spans-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
                   str(span_file), *argv]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=TASK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise TaskTimeout(f"{' '.join(argv)} ran past {TASK_TIMEOUT_S} s") from None
        if self.tracer is not None:
            with open(span_file) as fh:
                self.tracer.adopt(json.load(fh)["spans"])
            span_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, task, result):
        kind, params = task
        code, out, err = result
        if "Traceback" in err:
            return f"{kind}: traceback on stderr"
        want_code = {"usage": 64, "cap": 2}.get(kind, 0)
        if code != want_code:
            return f"{' '.join(self.argv(kind, params))}: exit {code}, expected {want_code}"
        if kind == "usage":
            return None if out == "" and "error" in err else "usage error without message"
        if kind == "cap":
            return None if out == "" and "resource cap" in err else "cap refusal without message"
        if kind == "conjecture":
            return self.check_conjecture(params, out.splitlines(), err)
        if err:
            return f"{kind}: unexpected stderr {err!r}"
        return getattr(self, "check_" + kind)(params, out.splitlines())

    def dd(self, indices, n: int) -> int:
        """dd(I; n) by brute force where it is cheap, else the DP."""
        if n <= BRUTE_MAX:
            return self.census(n).get(indices, 0)
        if not indices:
            return self.lib("counting").no_dd_counts(n)[n]
        return self.lib("counting").dd_count(indices, n)

    def _value(self, line: str, method: str) -> int | None:
        match = _VALUE_LINE.match(line)
        if match is None or match.group(2) != method:
            return None
        return int(match.group(1))

    def check_count(self, params, lines):
        indices, n = params
        want = self.dd(indices, n)
        got = self._value(lines[0], "dp") if len(lines) == 1 else None
        return None if got == want else f"count {indices} {n}: {lines!r}, expected {want}"

    def check_count_all(self, params, lines):
        indices, n = params
        want = self.dd(indices, n)
        got = [self._value(line, m) for line, m in zip(lines, ("dp", "brute", "rimhook"))]
        if got != [want] * 3 or lines[3:] != ["agreement: OK"]:
            return f"count --all-methods {indices} {n}: {lines!r}, expected {want}"
        return None

    def check_table(self, params, lines):
        family, top, fmt = params
        series = self.lib("series")
        egf = series.egf_no_dd_ascent(top) if family == "b" else series.egf_no_dd(top)
        want = series.integer_coefficients(egf)
        if fmt == "csv":
            rows = list(csv.reader(lines))
            got = [int(v) for _, v in rows[1:]] if rows[0] == ["n", "value"] else None
        else:
            got = [int(v) for v in json.loads("\n".join(lines))["values"]]
        return None if got == want else f"table {family} to {top} disagrees with the egf"

    def check_table_singleton(self, params, lines):
        (n,) = params
        want = [[str(n), str(i), str(self.dd((i,), n))] for i in range(2, n)]
        rows = list(csv.reader(lines))
        if rows != [["n", "i", "value"]] + want:
            return f"table singleton n={n} disagrees with the library"
        return None

    def check_egf_check(self, params, lines):
        (which,) = params
        counting = self.lib("counting")
        seq = counting.no_dd_ascent_counts(30) if which == "b" else counting.no_dd_counts(30)
        want = [f"n={n}  n!*coeff={v}  sequence={v}  PASS" for n, v in enumerate(seq)]
        if lines != want + [f"{which}: 31 coefficients, 0 failures"]:
            return f"egf-check {which} output disagrees with the sequence"
        return None

    def check_rimhook_count(self, params, lines):
        indices, length = params
        rim = self.lib("rimhooks")
        if not indices:
            want = rim.count_empty(length)
        elif len(indices) == 1:
            want = rim.count_singleton(indices[0], length)
        else:
            want = len(rim.enumerate_rimhooks(indices, length))
        got = self._value(lines[0], "enumeration") if len(lines) == 1 else None
        return None if got == want else f"rimhook count {indices} {length}: {lines!r}"

    def check_rimhook_list(self, params, lines):
        indices, length = params
        rim = self.lib("rimhooks")
        want = self.lib("bruteforce").count_rimhooks_exact(indices, length)
        shapes = [rim.parse_skew(line) for line in lines[:-1]]
        if (lines[-1:] != [f"total: {want}"] or len(set(shapes)) != want
                or any(s.length != length or s.double_descents() != indices
                       for s in shapes)):
            return f"rimhook list {indices} {length} disagrees with the mask scan"
        return None

    def check_circular(self, params, lines):
        n, method = params
        if method == "formula":
            want = self.lib("bruteforce").count_circular_no_dd_exact(n)
        else:
            want = self.lib("circular").count_no_cyclic_dd(n)
        got = self._value(lines[0], method) if len(lines) == 1 else None
        return None if got == want else f"circular {n} {method}: {lines!r}, expected {want}"

    def check_estimate(self, params, lines):
        m, n = params
        estimate = self.lib("counting").dd_singleton_estimate(m, n)
        render = self.lib("render")
        want = [f"estimate dd({{{m}}};{n + 1}) = {render.decimal_str(estimate, 3)}",
                f"exact    dd({{{m}}};{n + 1}) = {self.dd((m,), n + 1)}"]
        return None if lines[:2] == want and len(lines) == 3 else f"estimate {m} {n}: {lines!r}"

    def check_conjecture(self, params, lines, err):
        cid, n = params
        conj = self.lib("conjectures")
        if cid == "6.1":
            report = conj.equidistribution_report(n, Fraction(1, 4), Fraction(3, 4))
        elif cid == "6.2":
            report = conj.down_up_report(n)
        else:
            report = conj.ratio_monotonicity_report(n)
        want = [list(report.columns)] + [[str(c) for c in row] for row in report.rows]
        if list(csv.reader(lines)) != want:
            return f"conjecture {cid} n={n} rows disagree with the library"
        if err != f"verdict: {report.verdict.value}\n":
            return f"conjecture {cid} n={n}: stderr {err!r}"
        return None


WORKLOADS = {w.name: w for w in (EvidenceSweep, OracleCrosscheck, CliBatch)}
