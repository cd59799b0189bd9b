"""Self-test of the benchmark: its own oracles, and a tiny run of every
workload in both modes.

    python3 -m pytest -q ddbench/test_smoke.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import (WORKLOADS, descent_set_count, min_descents,  # noqa: E402
                       realizable)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_descent_set_count_matches_brute_force():
    from ddperm import bruteforce

    for n in range(1, 8):
        for r in range(n):
            for des in itertools.combinations(range(1, n), r):
                assert descent_set_count(des, n) == bruteforce.count_descents_exact(des, n)


def test_realizable_sets_are_exactly_the_census_keys():
    from ddperm import bruteforce

    for n in range(3, 9):
        positions = range(2, n)
        sets = [s for r in range(n - 1) for s in itertools.combinations(positions, r)]
        assert {s for s in sets if realizable(s)} == set(bruteforce.dd_census(n))


def test_min_descents():
    assert min_descents(()) == 0
    assert min_descents((3,)) == 2
    assert min_descents((2, 3, 7)) == 5


def test_sessions_are_seeded():
    for cls in WORKLOADS.values():
        workload = cls(ROOT)
        assert workload.session(5, 3) == workload.session(5, 3)
        assert workload.session(5, 3) != workload.session(6, 3)
        assert workload.session(5, 3) != workload.session(5, 4)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    record = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["metrics"]["failed_frac"] == 0
    assert record["environment"]["seed"] == 7


def test_refuses_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "ddbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "cli_batch", 0)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
