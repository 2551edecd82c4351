#!/usr/bin/env python3
"""catqkd benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload fixed-t --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; ``catqkd`` is imported from its ``src``.
Each pass of the workload runs in a fresh Python process with BLAS
threads pinned to 1, started only after the previous pass ended (closed
loop, one client).  Passes repeat while the next one should still end
within ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
wall and CPU time of a pass, set-up time (process start to CLI ready,
also taken from a few set-up-only processes) and peak resident memory.
``--trace 1`` alternates untraced and traced passes, at least one of
each, and reports the per-layer counts and self times of the traced
passes together with the tracing overhead.  Times are in reference
seconds: each worker samples the machine's speed as it runs (see
``Pass`` and README.md), and raw seconds are printed as well.

Every row is checked (see check.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give each metric's median, quartiles, sample count and
unit, and the environment.  The same record goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``; traced runs
also save their spans to ``bench/results/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5        # set-up-only processes per run, besides every pass's own
RUN_BUDGET_S = 170.0    # a run ends well within 180 s even when a pass hangs
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
REFERENCE_SAMPLE_S = 0.0005  # kernel sample time that defines the reference speed
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Pass:
    """One worker process: its report and its times in reference seconds.

    The machine's speed drifts: on a shared 2-vCPU VM it flips between two
    speeds a factor 2 apart within seconds, and 20 s runs a minute apart
    differ by up to 1.8x.  So every time is scaled by the mean speed the
    worker's kernel samples saw (REFERENCE_SAMPLE_S over each sample's
    time), after the samples' own time is taken out.  Raw seconds are
    kept in ``raw``.
    """

    def __init__(self, report: dict | None, wall_s: float, cpu_s: float) -> None:
        self.report = report or {}
        self.elapsed = wall_s
        samples = self.report.get("samples", [])
        self.ok = bool(samples)  # a finished worker always reports a sample
        setup_samples = samples[:self.report.get("setup_samples", 0)]
        self.raw = {"wall_s": wall_s - sum(samples), "cpu_s": cpu_s - sum(samples),
                    "setup_s": self.report.get("setup_s", math.nan) - sum(setup_samples)}
        self.speed = statistics.fmean(REFERENCE_SAMPLE_S / d for d in samples) \
            if samples else math.nan
        self.wall_s = self.raw["wall_s"] * self.speed
        self.cpu_s = self.raw["cpu_s"] * self.speed
        self.setup_s = self.raw["setup_s"] * self.speed


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_worker(args, env: dict, deadline: float, *, setup_only: bool = False,
               spans: Path | None = None) -> Pass:
    """Start one worker, wait for it to end and time it."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    cpu0 = _children_cpu()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: worker exceeded the run budget: {' '.join(cmd)}", file=sys.stderr)
        return Pass(None, time.clock_gettime(time.CLOCK_MONOTONIC) - t0, _children_cpu() - cpu0)
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
    if report is None:
        print(f"bench: worker failed (exit {proc.returncode}): {' '.join(cmd)}", file=sys.stderr)
    return Pass(report, wall, _children_cpu() - cpu0)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: Path) -> str:
    git = root / ".git"
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
    return "unknown"


def code_digest() -> str:
    """Hash of the program and the benchmark, to tell runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "catqkd").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _is_count(metric: str) -> bool:
    return not metric.endswith("_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="only each workload's cheapest command (smoke test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "catqkd" / "__init__.py").is_file():
        print(f"bench: no catqkd sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    deadline = start + RUN_BUDGET_S
    env = {**os.environ, **BLAS_THREADS}
    reference = check.load_reference()
    spans_path = RESULTS / f"spans-{args.workload}.npz"

    setups = [run_worker(args, env, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    attempted, failures = 0, []
    measure_start = time.clock_gettime(time.CLOCK_MONOTONIC)
    last_wall = 0.0
    while True:
        # A traced run needs one pass of each kind; after that, a pass starts
        # only if it should end within --seconds of measuring.
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        minimum = bool(plain) and (not args.trace or bool(traced))
        if minimum and (now - measure_start + last_wall > args.seconds or now >= deadline):
            break
        tracing = bool(args.trace) and bool(plain) and len(traced) < len(plain)
        p = run_worker(args, env, deadline, spans=spans_path if tracing else None)
        (traced if tracing else plain).append(p)
        last_wall = p.elapsed
        if not p.ok:
            commands = workloads.commands(args.workload, args.seed, args.tiny)
            attempted += len(commands)
            failures += ["worker failed; its commands count as failed"] * len(commands)
            break
        baseline = plain[0].report["outputs"] if tracing and plain[0].ok else None
        n, failed = check.check_pass(args.workload, args.seed, p.report["outputs"],
                                     reference, baseline)
        attempted += n
        failures += failed

    good = [p for p in plain if p.ok]
    metrics: dict[str, dict] = {}
    raw: dict[str, dict] = {}  # the same times in measured seconds
    if args.trace == 0:
        probes = [p for p in setups + good if p.ok]
        samples = {
            "wall_s": [p.wall_s for p in good],
            "cpu_s": [p.cpu_s for p in good],
            "setup_s": [p.setup_s for p in probes],
            "peak_rss_mb": [p.report["maxrss_kb"] / 1024.0 for p in good],
        }
        for name, values in samples.items():
            if values:
                metrics[name] = {**summary(values), "unit": UNITS[name]}
        for name in ("wall_s", "cpu_s", "setup_s"):
            values = [p.raw[name] for p in (probes if name == "setup_s" else good)]
            if values:
                raw[f"raw.{name}"] = {**summary(values), "unit": "s"}
    else:
        passes = [p for p in traced if p.ok]
        if passes and good:
            for name in passes[0].report["layers"]:
                values = [p.report["layers"][name] for p in passes]
                if _is_count(name) and any(v != values[0] for v in values):
                    failures.append(f"count {name} differs between traced passes: {values}")
                unit = "count"
                if name.endswith("_s"):
                    values, unit = [v * p.speed for v, p in zip(values, passes)], "s"
                elif name.endswith("_frac"):
                    unit = "ratio"
                metrics[name] = {**summary(values), "unit": unit}
            rows = [sum(max(len(o["text"].splitlines()) - 1, 0) for o in p.report["outputs"])
                    for p in passes]
            metrics["cli.rows"] = {**summary(rows), "unit": "count"}
            walls = {"untraced": [p.wall_s for p in good], "traced": [p.wall_s for p in passes]}
            for kind, values in walls.items():
                metrics[f"trace.{kind}_wall_s"] = {**summary(values), "unit": "s"}
            overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
            metrics["trace.overhead_s"] = {**summary([overhead]), "unit": "s"}
    speeds = [p.speed for p in plain + traced if p.ok]
    if speeds:
        raw["speed"] = {**summary(speeds), "unit": "ratio"}

    digest = code_digest()
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace and record_path.is_file():
        # Counts are exact: a rerun of the same code must reproduce them.
        try:
            previous = json.loads(record_path.read_text())
        except ValueError:
            previous = {}
        if previous.get("env", {}).get("code_digest") == digest \
                and previous.get("tiny") == args.tiny:
            for name, value in previous.get("metrics", {}).items():
                if _is_count(name) and name in metrics \
                        and metrics[name]["median"] != value["median"]:
                    failures.append(f"count {name} is {metrics[name]['median']}, "
                                    f"an earlier run of this code had {value['median']}")

    numpy_version = next((p.report["numpy"] for p in setups + plain if p.ok), "unknown")
    env_record = {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "git_commit": git_commit(ROOT), "code_digest": digest,
        "seed": args.seed, "blas_threads": BLAS_THREADS,
    }
    failed = len(failures)
    attempted = max(attempted, failed, 1)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "seconds": args.seconds, "env": env_record, "metrics": metrics, "raw": raw,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures[:50],
        "passes": {"untraced_wall_s": [p.wall_s for p in plain],
                   "traced_wall_s": [p.wall_s for p in traced],
                   "setup_probe_s": [p.setup_s for p in setups],
                   "speed": [p.speed for p in setups + plain + traced]},
    }
    RESULTS.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for message in failures[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(traced)} env={json.dumps(env_record)}")
    print(f"# {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, m in {**metrics, **raw}.items():
        print(f"# {name:32s} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} {m['n']:3d}  "
              f"{m['unit']}")
    print(f"# {'failed_frac':32s} {failed / attempted:14.6g} "
          f"{'':>14s} {'':>14s} {attempted:3d}  ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
