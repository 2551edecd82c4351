#!/usr/bin/env python3
"""Compare the benchmark on two versions of the code, in alternating pairs.

    python3 scripts/bench_compare.py --parent HEAD --out BENCH_6.json \\
        --workload closed-form --pairs 10 --workload limits --pairs 5

Each side is a fresh directory: the parent is ``git archive`` of a
revision, the change is the files of this checkout that git tracks or
would add.  Neither is compiled ahead: under ``PYTHONDONTWRITEBYTECODE``
every pass compiles ``catqkd`` as it imports it, as a benchmark run on a
fresh checkout does.  The compile counts in ``setup_s`` and, in steps
that follow the size of the largest module, in ``peak_rss_mb``, so a
change to what the sweeps import shows there.  An
unrecorded ``--tiny`` run on each side comes first.  The environment is
passed on as it is.  For every
workload, pair k runs ``bench/run.py --trace 0`` once on each side with
seed ``seeds[k]``, the parent first in even pairs and the change first
in odd ones, each for ``run_seconds`` of ``BENCHMARK.json``.  The
directories are removed at the end.

The output names the parent revision and the ``code_digest`` that
``bench/run.py`` records for each side.  It holds both runs of every
pair (each run's medians) and, per workload and metric, each side's
median and quartiles over the pairs, how many pairs the change won and
lost, the change's relative difference against the benchmark's bound,
and whether a gain could be claimed: at least nine tenths of the pairs
won and the medians further apart than the parent's quartiles.  Metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` plus the raw seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("raw.wall_s", "raw.cpu_s", "raw.setup_s")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def archive(rev: str, dest: Path) -> None:
    """The files of ``rev``, as git stores them, in a new directory."""
    dest.mkdir()
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def copy_checkout(dest: Path) -> None:
    """The files of this checkout that git tracks or would add, in a new directory."""
    names = git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench(side: Path, workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """One ``bench/run.py`` run: its closing JSON line, the raw seconds of its record
    and the digest of the code it ran."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *(["--tiny"] if tiny else [])]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench failed in {side} ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((side / "bench" / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({name: m["median"] for name, m in record["raw"].items()})
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": values,
            "code_digest": record["env"]["code_digest"]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(pairs: list[dict], metric: str, better: str, bound: float | None) -> dict:
    parent = [p["parent"]["metrics"][metric] for p in pairs]
    change = [p["change"]["metrics"][metric] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    worse_by = sign * (after["median"] - before["median"]) / before["median"]
    gain = wins >= 0.9 * len(pairs) and \
        -sign * (after["median"] - before["median"]) > before["q3"] - before["q1"]
    return {"better": better, "parent": before, "change": after, "wins": wins,
            "losses": losses, "pairs": len(pairs), "worse_by": worse_by, "bound": bound,
            "within_bound": None if bound is None else worse_by <= bound,
            "gain_claimable": gain}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--pairs", type=int, action="append",
                        help="pairs for the matching --workload (default 5)")
    parser.add_argument("--seeds", default="0,7,1,2,3,4,5,6,8,9,10,11",
                        help="comma-separated seeds, used in order, one per pair")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    counts = args.pairs or []
    counts += [5] * (len(args.workload) - len(counts))
    seeds = [int(s) for s in args.seeds.split(",")]
    if max(counts) > len(seeds):
        parser.error(f"{max(counts)} pairs need as many seeds, got {len(seeds)}")
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({name: ("lower", None) for name in RAW})

    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive(args.parent, sides["parent"])
        copy_checkout(sides["change"])
        report = {"parent": git("rev-parse", args.parent).strip(), "code_digest": {},
                  "seconds": seconds,
                  "versions": {"python": platform.python_version(),
                               "platform": platform.platform(), "nproc": os.cpu_count(),
                               "PYTHONDONTWRITEBYTECODE":
                                   os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
                  "workloads": {}}
        for workload, count in zip(args.workload, counts):
            for name, side in sides.items():  # warm-up, not recorded
                report["code_digest"][name] = \
                    bench(side, workload, seeds[0], seconds, tiny=True)["code_digest"]
            pairs = []
            for k, seed in enumerate(seeds[:count]):
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "first": order[0]}
                for name in order:
                    pair[name] = bench(sides[name], workload, seed, seconds)
                    print(f"{workload} seed {seed} {name}: wall_s "
                          f"{pair[name]['metrics']['wall_s']:.4f}", file=sys.stderr, flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {
                "seeds": seeds[:count],
                "correct": all(p[s]["correct"] for p in pairs for s in sides),
                "metrics": {m: summarise(pairs, m, *metrics[m]) for m in metrics},
                "pairs": pairs,
            }
        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                               capture_output=True, text=True).stdout.strip()
        report["versions"]["numpy"] = numpy
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload:12s} {name:12s} {m['parent']['median']:10.4f} -> "
                  f"{m['change']['median']:10.4f}  won {m['wins']}/{m['pairs']}  "
                  f"worse_by {m['worse_by']:+.3f}  gain {m['gain_claimable']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
