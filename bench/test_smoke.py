"""Tiny-size smoke test of the benchmark itself.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench/test_smoke.py)

Runs each workload's cheapest command untraced and traced and checks that
the result line names every metric of BENCHMARK.json with its unit, that
the readable lines above it print each one with its unit, that exact
counts repeat between two runs, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
               "--seconds", "0", "--trace", str(trace)]
    if cwd == ROOT:
        command.append("--tiny")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_prints_with_its_unit():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in WORKLOADS:
            proc = run(workload, trace)
            result = result_of(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, proc.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            readable = proc.stdout.splitlines()[:-1]
            for name, unit in wanted.items():
                assert any(line.split()[1:2] == [name] and line.split()[-1] == unit
                           for line in readable), (workload, name)


def test_counts_repeat_between_runs():
    first, second = (result_of(run("closed-form", 1))["metrics"] for _ in range(2))
    counts = [name for name in first if not name.endswith("_s")]
    assert counts and all(first[n]["value"] == second[n]["value"] for n in counts)


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_every_metric_prints_with_its_unit, test_counts_repeat_between_runs,
                 test_refuses_to_run_without_the_program):
        test()
        print(f"ok {test.__name__}")
