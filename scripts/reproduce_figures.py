#!/usr/bin/env python3
"""Regenerate every dataset behind the study's figures as CSV files.

Each dataset is produced through the installed CLI so that the files
match what `catqkd <subcommand>` prints; run with --quick for coarse
grids when smoke-testing the pipeline.
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from catqkd.cli import _grid, main as cli


def run(argv: list[str], out: Path, echo: bool = True) -> None:
    if echo:
        print(f"  {out.name}: catqkd {' '.join(argv)}", flush=True)
    code = cli([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"catqkd exited with {code} for {argv}")


def merge(parts: list[Path], out: Path) -> None:
    """Concatenate CSVs that share a header into one file."""
    rows: list[list[str]] = []
    header: list[str] | None = None
    for part in parts:
        with part.open(newline="") as stream:
            reader = csv.reader(stream)
            head = next(reader)
            if header is None:
                header = head
            elif head != header:
                raise SystemExit(f"cannot merge {part}: header mismatch")
            rows.extend(reader)
    with out.open("w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"),
                        help="directory for the CSV files (default: results/)")
    parser.add_argument("--quick", action="store_true",
                        help="coarse grids for a fast smoke run")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    alpha_step = "0.5" if args.quick else "0.05"
    alpha_step_opt = "0.5" if args.quick else "0.1"
    d_step = "25" if args.quick else "5"
    noise_step = "125" if args.quick else "25"
    t_step = 0.05 if args.quick else 0.0025

    print("heralding probability versus squeezing", flush=True)
    run(["success-prob", "--alpha-step", alpha_step], args.outdir / "success_prob_catalysis.csv")
    run(["success-prob", "--scheme", "subtraction", "--alpha-step", alpha_step],
        args.outdir / "success_prob_subtraction.csv")

    print("log negativity versus squeezing", flush=True)
    run(["entanglement", "--alpha-step", alpha_step], args.outdir / "entanglement_fixed_t.csv")
    run(["entanglement", "--t", "optimal", "--alpha-step", alpha_step_opt],
        args.outdir / "entanglement_optimal_t.csv")

    print("key rate versus distance, fixed transmittance 0.95", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        parts = [Path(tmp) / "catalysis.csv", Path(tmp) / "subtraction.csv"]
        run(["keyrate", "--d-step", d_step], parts[0])
        run(["keyrate", "--scheme", "subtraction", "--d-step", d_step], parts[1])
        merge(parts, args.outdir / "keyrate_fixed_t.csv")

    print("key rate versus distance, optimal transmittance", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        parts = [Path(tmp) / "catalysis.csv", Path(tmp) / "subtraction.csv"]
        run(["keyrate", "--t", "optimal", "--d-step", d_step], parts[0])
        run(["keyrate", "--t", "optimal", "--scheme", "subtraction", "--d-step", d_step],
            parts[1])
        merge(parts, args.outdir / "keyrate_optimal_t.csv")

    print("key rate versus catalyser transmittance, bsqc1", flush=True)
    case = ["keyrate", "--scheme", "bsqc", "--n", "1"]
    distances = ["--d-min", "25", "--d-max", "200", "--d-step", "25"]
    ts = _grid(0.5, 1.0, t_step, "t")
    out = args.outdir / "keyrate_vs_t.csv"
    print(f"  {out.name}: catqkd {' '.join([*case, '--t', 'T', *distances])}"
          f" for {len(ts)} T in [0.5, 1]", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        parts = [Path(tmp) / f"{k}.csv" for k in range(len(ts))]
        for t, part in zip(ts, parts):
            run([*case, "--t", str(t), *distances], part, echo=False)
        merge(parts, out)

    print("tolerable excess noise versus distance", flush=True)
    run(["excess-noise", "--d-step", noise_step], args.outdir / "excess_noise.csv")

    print("maximal distances above the key-rate floor", flush=True)
    run(["max-distance"], args.outdir / "max_distance.csv")

    print(f"done: {args.outdir}/", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
