"""ddperm benchmark: one seeded workload, measured for a fixed time.

    python3 ddbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

A run is a closed loop with one client.  It runs sessions one after the
other, each in a fresh worker process (this script with ``--session``),
as a user runs one script after another: the package's caches start
cold in every session.  A session sets up (imports, inputs from the
seed), runs its tasks one at a time on one thread, and then checks every
result outside the timed part.

An untraced run times every session ``REPEATS`` times, each time in a
fresh worker, in passes over the same sessions: the first pass starts
sessions until its share of ``--seconds`` of task time has been
measured, the later passes rerun exactly those sessions' tasks.  A
task's latency is the best of its repeats and a session's set-up time
the best of its starts: load from outside the benchmark on a shared
host only ever slows a task, and the best of repeats some seconds apart
drops the short slowdowns.  Every repeat is checked.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics of a traced run with ``--trace
1``.  A fuller record (environment, sample counts, per-kind latencies,
failures) goes to ``ddbench/out/``.  ``ddbench/README.md`` describes
the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from workloads import TASK_TIMEOUT_S, WORKLOADS, TaskTimeout, child_env  # noqa: E402

# A session may run past the run's remaining task time by this much
# before it stops starting tasks; normal sessions take one or two seconds.
SESSION_GRACE_S = 10.0
# No session starts after this much wall time, whatever was measured.
WALL_LIMIT_S = 90.0
# Limits of one worker: its correctness checks, and its whole life.
GATE_BUDGET_S = 30.0
WORKER_TIMEOUT_S = 150.0
# Bare-interpreter and import probes behind cli.startup_s and cli.import_s.
CLI_PROBES = 9
# Timings of each session in an untraced run; each figure is the best.
REPEATS = 3


@contextmanager
def time_limit(seconds: float):
    """Raise TaskTimeout in this thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TaskTimeout(f"ran past {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (a
    checkout without ``.git`` has no commit to report)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "seed": seed,
    }


# ---------------------------------------------------------------- worker

def run_tasks(workload, tasks, tracer, session: int, budget=None, limit=None):
    """Closed loop over one session's tasks, stopping early after
    ``budget`` seconds or ``limit`` tasks.  Returns (records, seconds)."""
    records = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if limit is not None and i >= limit:
            break
        if budget is not None and i and time.perf_counter() - start >= budget:
            break
        if tracer is not None:
            tracer.task = f"{session}/{i}"
            span = tracer.open("task." + task[0])
        t0 = time.perf_counter()
        result, error = None, None
        try:
            with time_limit(TASK_TIMEOUT_S):
                result = workload.run(task)
        except TaskTimeout as exc:
            error = f"timeout: {exc}"
        except Exception as exc:  # a failed task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.task = None
        records.append({"task": task, "result": result, "error": error,
                        "latency": latency})
    return records, time.perf_counter() - start


def gate(workload, records, session: int) -> list[str]:
    """Check every result; returns one message per failed task."""
    failures = []
    deadline = time.perf_counter() + GATE_BUDGET_S
    for i, rec in enumerate(records):
        message = rec["error"]
        if message is None:
            remaining = deadline - time.perf_counter()
            try:
                if remaining <= 0:
                    raise TaskTimeout("correctness budget used up")
                with time_limit(min(TASK_TIMEOUT_S, remaining)):
                    message = workload.check(rec["task"], rec["result"])
            except TaskTimeout as exc:
                message = f"unchecked: {exc}"
            except Exception as exc:  # a malformed result fails its task
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append(f"session {session} task {i} {rec['task']}: {message}")
    return failures


def worker(args) -> int:
    """One session: set up, say ``ready``, run the tasks, check them, and
    print a JSON report as the last line."""
    tracer = None
    if args.trace:
        from tracer import Tracer, dump

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](ROOT, tracer)
    tasks = workload.setup(args.seed, args.session)
    print("ready", flush=True)
    records, loop_s = run_tasks(workload, tasks, tracer, args.session,
                                budget=args.budget, limit=args.tasks)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    report = {
        "loop_s": loop_s,
        "rss_kib": resource.getrusage(who).ru_maxrss,
        "attempted": len(records),
        "tasks": [[rec["task"][0], rec["latency"]] for rec in records],
        "failures": gate(workload, records, args.session) if args.check else [],
    }
    if tracer is not None:
        report["spans"] = str(OUT / f"spans-{os.getpid()}.json")
        dump(tracer.spans, report["spans"])
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------- parent

def self_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def run_session(args, k: int, trace: int, extra: list[str]) -> dict:
    """Run session ``k`` in a worker; its set-up time is the time until
    it says ``ready``.  A worker that fails fails all its tasks."""
    t0 = time.perf_counter()
    first, out = "", ""
    with subprocess.Popen(self_cmd(args, "--session", str(k), "--trace", str(trace), *extra),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if first.strip() == "ready" and proc.returncode == 0 and lines:
        report = json.loads(lines[-1])
        report["setup_s"] = setup_s
        return report
    planned = len(WORKLOADS[args.workload](ROOT).session(args.seed, k))
    return {"setup_s": None, "loop_s": time.perf_counter() - t0, "rss_kib": 0,
            "attempted": planned, "tasks": [],
            "failures": [f"session {k}: worker exited with {proc.returncode}"] * planned}


def run_sessions(args, seconds: float, wall_limit: float) -> tuple[list[dict], list[dict]]:
    """Sessions 0, 1, ... until ``seconds`` of task time.  A traced run
    follows each session with an untraced, unchecked rerun of the same
    tasks, so both see the machine in the same state; returns both
    lists."""
    reports: list[dict] = []
    reruns: list[dict] = []
    loop_total, start = 0.0, time.perf_counter()
    while not reports or (loop_total < seconds
                          and time.perf_counter() - start < wall_limit):
        budget = seconds - loop_total + SESSION_GRACE_S
        k = len(reports)
        reports.append(run_session(args, k, args.trace, ["--budget", str(budget)]))
        if args.trace:
            reruns.append(run_session(args, k, 0, ["--tasks", str(reports[-1]["attempted"]),
                                                   "--check", "0"]))
        loop_total += reports[-1]["loop_s"]
    return reports, reruns


def run_passes(args) -> list[list[dict]]:
    """``REPEATS`` passes over the same sessions, each session of each
    pass in a fresh worker that runs the first pass's tasks again."""
    first, _ = run_sessions(args, args.seconds / REPEATS, WALL_LIMIT_S / REPEATS)
    passes = [first]
    for _ in range(1, REPEATS):
        passes.append([run_session(args, k, 0, ["--tasks", str(r["attempted"])])
                       for k, r in enumerate(first)])
    return passes


def best_of(passes) -> list[dict]:
    """One report per session with the best set-up time and, task by
    task, the best latency of its repeats; a failed worker reports no
    latencies and is left out of the best."""
    best = []
    for k, first in enumerate(passes[0]):
        repeats = [p[k] for p in passes]
        setups = [r["setup_s"] for r in repeats if r["setup_s"] is not None]
        tasks: list[list] = []
        for r in repeats:
            for i, (kind, latency) in enumerate(r["tasks"]):
                if i == len(tasks):
                    tasks.append([kind, latency])
                tasks[i][1] = min(tasks[i][1], latency)
        best.append({"setup_s": min(setups) if setups else None,
                     "loop_s": sum(latency for _, latency in tasks),
                     "rss_kib": max(r["rss_kib"] for r in repeats),
                     "attempted": first["attempted"], "tasks": tasks})
    return best


def timed_child(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=TASK_TIMEOUT_S)
    return time.perf_counter() - t0


def percentiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies) or [0.0]
    p90 = (statistics.quantiles(ordered, n=10, method="inclusive")[8]
           if len(ordered) > 1 else ordered[0])
    return {
        "task_p50_s": statistics.median(ordered),
        "task_p90_s": p90,
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in ordered if x > p90),
    }


def end_to_end(reports) -> tuple[dict, dict]:
    setups = [r["setup_s"] for r in reports if r["setup_s"] is not None] or [0.0]
    latencies = [lat for r in reports for _, lat in r["tasks"]]
    pct = percentiles(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "task_p50_s": pct["task_p50_s"],
        "task_p90_s": pct["task_p90_s"],
        "peak_rss_mb": max(r["rss_kib"] for r in reports) / 1024,
    }
    return metrics, {"setup_samples_s": setups, "percentiles": pct}


def per_layer(args, reports, reruns) -> tuple[dict, dict]:
    from tracer import dump, layer_metrics, merge

    span_lists = []
    for r in reports:
        if "spans" in r:
            path = Path(r["spans"])
            span_lists.append(json.loads(path.read_text())["spans"])
            path.unlink()
    spans = merge(span_lists)
    dump(spans, OUT / f"{args.workload}-seed{args.seed}-spans.json")
    metrics = layer_metrics(spans)

    traced_s = sum(r["loop_s"] for r in reports)
    untraced_s = sum(r["loop_s"] for r in reruns)
    env = child_env(ROOT)
    bare, imported = [], []
    for _ in range(CLI_PROBES):
        bare.append(timed_child([sys.executable, "-c", "pass"], env))
        imported.append(timed_child([sys.executable, "-c", "import ddperm.cli"], env))
    metrics["cli.startup_s"] = statistics.median(bare)
    metrics["cli.import_s"] = statistics.median(imported) - metrics["cli.startup_s"]
    metrics["tasks.busy_s"] = sum(lat for r in reports for _, lat in r["tasks"])
    metrics["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    detail = {"traced_loop_s": traced_s, "untraced_loop_s": untraced_s,
              "cli_bare_probes_s": bare, "cli_import_probes_s": imported,
              "spans": len(spans)}
    return metrics, detail


def by_kind(reports) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in reports:
        for kind, latency in r["tasks"]:
            kinds.setdefault(kind, []).append(latency)
    return {k: {"tasks": len(v), "p50_s": statistics.median(v), "total_s": sum(v)}
            for k, v in sorted(kinds.items())}


def parent(args) -> int:
    env = environment(args.seed)
    if args.trace:
        reports, reruns = run_sessions(args, args.seconds, WALL_LIMIT_S)
        executed = reports
        metrics, detail = per_layer(args, reports, reruns)
    else:
        passes = run_passes(args)
        executed = [r for p in passes for r in p]
        reports = best_of(passes)
        metrics, detail = end_to_end(reports)
    attempted = sum(r["attempted"] for r in executed)
    failures = [f for r in executed for f in r["failures"]]
    metrics["failed_frac"] = len(failures) / attempted
    env["loadavg_end"] = loadavg()

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "attempted": attempted, "failed": len(failures),
        "task_time_s": sum(r["loop_s"] for r in executed),
        "repeats": 1 if args.trace else REPEATS,
        "sessions": [{"setup_s": r["setup_s"], "loop_s": r["loop_s"], "tasks": r["attempted"],
                      "p50_s": statistics.median([t for _, t in r["tasks"]] or [0.0]),
                      "latencies_s": [t for _, t in r["tasks"]]}
                     for r in reports],
        "metrics": metrics, "detail": detail, "kinds": by_kind(reports),
        "failures": failures[:50],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:5]:
        print(line, file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Worker-only: the session to run, when it stops early, whether it is checked.
    p.add_argument("--session", type=int, help=argparse.SUPPRESS)
    p.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    p.add_argument("--tasks", type=int, help=argparse.SUPPRESS)
    p.add_argument("--check", type=int, default=1, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ddperm" / "__init__.py").is_file():
        print(f"ddbench: no ddperm package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    return worker(args) if args.session is not None else parent(args)


if __name__ == "__main__":
    sys.exit(main())
