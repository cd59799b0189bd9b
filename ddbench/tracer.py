"""Outside-in tracing of the ddperm modules.

``Tracer.install`` replaces every public function of the traced modules
by a wrapper at module-attribute level.  Library code calls its
neighbours through module globals (``counting.dd_count``,
``singleton_table``), so the wrappers also see calls between modules,
and a public function added later is traced without editing this file.

A span is ``[name, start, end, parent, task, work]``: ``parent`` is the
index of the enclosing span (-1 for none), ``task`` the id
(``session/index``) of the benchmark task that caused it, and ``work`` a
dict of counters derived from the call's arguments and result (see
``_work_model``).  Spans are only recorded while ``task`` is set, so
correctness checks run untraced, and they stay in memory until the run
ends and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from math import factorial

TRACED_MODULES = ("counting", "conjectures", "bruteforce", "rimhooks", "series")
# The layers reported per module; ``cli`` spans come from cli_shim.py.
LAYERS = TRACED_MODULES + ("cli",)

NAME, START, END, PARENT, TASK, WORK = range(6)


def _index_key(value):
    """A hashable form of a double-descent set argument, or None when
    it is not a container (reading an iterator would consume it)."""
    if isinstance(value, (tuple, list, set, frozenset)):
        return sorted(value)
    return None


def _work_model(name: str):
    """The counters a successful call of ``name`` implies, as a function
    of its bound arguments and result, or None when it has none.

    Counts are computed from the arguments, whether or not a cache
    inside the program served the call."""
    module, func = name.split(".", 1)
    if module == "counting" and func in ("dd_count", "dd_ascent_count"):
        # The key includes the process: the package's caches live that long.
        return lambda a, r: {"dp_cells": a["n"] * (a["n"] - 1) // 2,
                             "key": [os.getpid(), func, _index_key(a["dd_set"]), a["n"]]}
    if module == "bruteforce" and "rimhooks" in func:
        return lambda a, r: {"masks": 1 << (a["n"] - 1)}
    if module == "bruteforce" and "circular" in func:
        return lambda a, r: {"perms": factorial(a["n"] - 1)}
    if module == "bruteforce" and ("exact" in func or func == "dd_census"):
        return lambda a, r: {"perms": factorial(a["n"])}
    if module == "rimhooks" and func == "enumerate_rimhooks":
        return lambda a, r: {"masks": 1 << (a["n"] - 1), "hooks": len(r)}
    if module == "rimhooks" and func == "tableau_count":
        return lambda a, r: {"ie_subsets": 1 << len(a["r"].descent_positions())}
    if module == "series":
        return _coefficients
    return None


def _coefficients(arguments, result) -> dict:
    coeffs = getattr(result, "coeffs", result)
    return {"coefficients": len(coeffs) if isinstance(coeffs, (list, tuple)) else 0}


class Tracer:
    """Span recorder for one process; create one, ``install`` it, and
    set ``task`` around each benchmark task."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task: int | None = None

    def install(self) -> None:
        for short in TRACED_MODULES:
            module = importlib.import_module(f"ddperm.{short}")
            for attr, obj in list(vars(module).items()):
                target = inspect.unwrap(obj)
                if (attr.startswith("_") or not inspect.isfunction(target)
                        or target.__module__ != module.__name__):
                    continue
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def _wrap(self, name: str, fn):
        model = _work_model(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if model is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index][WORK] = model(bound.arguments, result)
            return result

        return traced

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a child process under the open span."""
        parent, offset = self._stack[-1], len(self.spans)
        for span in spans:
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            span[TASK] = self.task
            self.spans.append(span)

def dump(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "task", "work"],
                   "spans": spans}, fh, separators=(",", ":"))


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate the spans of several processes, rebasing parents."""
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            merged.append(span)
    return merged


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module metrics of a traced run.

    ``calls`` counts every span of the module, nested ones included;
    ``busy_s`` is the time covered by the module's outermost spans;
    ``self_s`` is span time minus the time covered by child spans.
    Work counters are summed over the module's spans, except that
    series coefficients count only the outermost series call.
    """
    module_of = [span[NAME].split(".", 1)[0] for span in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    stats = {m: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for m in LAYERS}
    work: dict[str, int] = defaultdict(int)
    seen_keys: set[str] = set()
    dp_calls = repeats = reports = counting_in_reports = 0
    for i, span in enumerate(spans):
        module = module_of[i]
        if module not in stats:
            continue
        above = set()
        j = span[PARENT]
        while j >= 0:
            above.add(module_of[j])
            j = spans[j][PARENT]
        duration = span[END] - span[START]
        s = stats[module]
        s["calls"] += 1
        s["self_s"] += duration - child_time[i]
        if module not in above:
            s["busy_s"] += duration
            reports += module == "conjectures"
        counting_in_reports += module == "counting" and "conjectures" in above
        for counter, value in (span[WORK] or {}).items():
            if counter == "key":
                dp_calls += 1
                key = json.dumps(value)
                repeats += key in seen_keys
                seen_keys.add(key)
            elif not (module == "series" and module in above):
                work[f"{module}.{counter}"] += value

    out: dict[str, float] = {}
    for module, s in stats.items():
        for metric, value in s.items():
            out[f"{module}.{metric}"] = value
    out["counting.dp_cells"] = work["counting.dp_cells"]
    out["counting.repeat_frac"] = repeats / dp_calls if dp_calls else 0.0
    out["conjectures.counting_calls_per_report"] = (
        counting_in_reports / reports if reports else 0.0)
    out["bruteforce.perms_scanned"] = work["bruteforce.perms"]
    out["bruteforce.masks_scanned"] = work["bruteforce.masks"]
    out["rimhooks.masks_scanned"] = work["rimhooks.masks"]
    out["rimhooks.ie_subsets"] = work["rimhooks.ie_subsets"]
    out["rimhooks.hook_yield"] = (work["rimhooks.hooks"] / work["rimhooks.masks"]
                                  if work["rimhooks.masks"] else 0.0)
    out["series.coefficients"] = work["series.coefficients"]
    out["cli.refusals"] = work["cli.refusals"]
    return out
