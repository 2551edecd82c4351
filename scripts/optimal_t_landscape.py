#!/usr/bin/env python3
"""Key rate as a function of the catalyser transmittance at fixed distances.

Shows why the rate optimum drifts toward transparency on short links and
into the interior on long ones.  Writes one CSV row per (distance, t)
pair and prints the per-distance optimum found on the same grid.  Every
input is checked, and every rate computed, before the CSV is opened: a
refused input or a numerical error exits 2 with a one-line message and
writes no file.
"""

import argparse
import csv
import sys
from pathlib import Path

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams, secret_key_rate
from catqkd.cli import _grid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", choices=("bsqc", "ssqc", "subtraction"), default="bsqc")
    parser.add_argument("--photons", type=int, default=None,
                        help="catalysed photon number of bsqc or ssqc (default 1)")
    parser.add_argument("--variance", type=float, default=20.0, help="source quadrature variance")
    parser.add_argument("--beta", type=float, default=0.95)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--distances", type=float, nargs="+",
                        default=[25.0, 50.0, 100.0, 150.0, 200.0])
    parser.add_argument("--t-min", type=float, default=0.5, dest="t_min")
    parser.add_argument("--t-step", type=float, default=0.0025, dest="t_step")
    parser.add_argument("--out", type=Path, default=Path("optimal_t_landscape.csv"))
    args = parser.parse_args(argv)

    if args.photons is None:
        args.photons = 0 if args.scheme == "subtraction" else 1
    elif args.scheme == "subtraction":
        parser.error("--photons applies to --scheme bsqc or ssqc only")
    if not 0.0 < args.t_min <= 1.0:
        parser.error(f"--t-min {args.t_min} outside (0, 1]")
    try:
        family = SchemeFamily(args.scheme, args.photons)
        grid = _grid(args.t_min, 1.0, args.t_step, "t")
        src = SourceParams.from_variance(args.variance)
        # subtraction heralds nothing at t = 1, so its rate there is 0
        params = [ProtocolParams(src, family.at(t), beta=args.beta) if family.heralds(t) else None
                  for t in grid]
        channels = [ChannelParams.from_distance(d, epsilon=args.epsilon) for d in args.distances]
    except ValueError as exc:
        parser.error(str(exc))

    rows, optima = [], []
    for d, ch in zip(args.distances, channels):
        best = (0.0, 0.0)
        for t, p in zip(grid, params):
            try:
                rate = 0.0 if p is None else secret_key_rate(p, ch).key_rate
            except ArithmeticError as exc:
                parser.exit(2, f"{parser.prog}: numerical error: {exc}\n")
            rows.append([f"{d:.9g}", f"{t:.9g}", f"{rate:.9g}"])
            if rate > best[1]:
                best = (t, rate)
        optima.append(f"d = {d:6.1f} km: " + (
            f"best t = {best[0]:.4f}, rate = {best[1]:.3e} bits/pulse" if best[1] > 0.0
            else "no grid point has a positive rate"))

    with args.out.open("w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["distance_km", "t", "key_rate"])
        writer.writerows(rows)
    print(*optima, sep="\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
