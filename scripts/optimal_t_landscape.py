#!/usr/bin/env python3
"""Key rate as a function of the catalyser transmittance at fixed distances.

Shows why the rate optimum drifts toward transparency on short links and
into the interior on long ones.  Writes one CSV row per (distance, t)
pair and prints the per-distance optimum found on the same grid.
"""

import argparse
import csv
import sys
from pathlib import Path

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams, secret_key_rate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", choices=("bsqc", "ssqc", "subtraction"), default="bsqc")
    parser.add_argument("--photons", type=int, default=1, help="catalysed photon number")
    parser.add_argument("--variance", type=float, default=20.0, help="source quadrature variance")
    parser.add_argument("--beta", type=float, default=0.95)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--distances", type=float, nargs="+",
                        default=[25.0, 50.0, 100.0, 150.0, 200.0])
    parser.add_argument("--t-min", type=float, default=0.5, dest="t_min")
    parser.add_argument("--t-step", type=float, default=0.0025, dest="t_step")
    parser.add_argument("--out", type=Path, default=Path("optimal_t_landscape.csv"))
    args = parser.parse_args(argv)

    family = SchemeFamily(args.scheme, 0 if args.scheme == "subtraction" else args.photons)
    src = SourceParams.from_variance(args.variance)
    steps = int(round((1.0 - args.t_min) / args.t_step))
    grid = [args.t_min + k * args.t_step for k in range(steps + 1)]

    with args.out.open("w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["distance_km", "t", "key_rate"])
        for d in args.distances:
            ch = ChannelParams.from_distance(d, epsilon=args.epsilon)
            best = (0.0, 0.0)
            for t in grid:
                rate = 0.0
                if family.heralds(t):
                    rate = secret_key_rate(
                        ProtocolParams(src, family.at(t), beta=args.beta), ch).key_rate
                writer.writerow([f"{d:.9g}", f"{t:.9g}", f"{rate:.9g}"])
                if rate > best[1]:
                    best = (t, rate)
            if best[1] > 0.0:
                print(f"d = {d:6.1f} km: best t = {best[0]:.4f}, rate = {best[1]:.3e} bits/pulse")
            else:
                print(f"d = {d:6.1f} km: no grid point has a positive rate")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
