#!/usr/bin/env python3
"""Fixed-input timings of each layer of catqkd: one line per entry, best of N.

    python3 scripts/layer_timings.py

Run from the root of a checkout; it imports ``catqkd`` from that
checkout's ``src``.  The inputs are fixed: V = 20, 200 km and
epsilon = 0.01 (the noise search at 300 km).  Times are raw seconds of
the machine it runs on, the best over N repeats (N is printed); they are
not the reference seconds of ``bench/``.  BLAS threads are pinned to 1.

- start-up: a fresh interpreter imports numpy, then ``import catqkd.cli``
  and ``build_parser()`` are timed.  It runs with
  ``PYTHONDONTWRITEBYTECODE=1``, and the line says whether a bytecode
  cache of ``cli.py`` was present, since without one every module is
  compiled as it is imported.  The smallest peak RSS of those processes
  is printed with it.
- one ``_moments`` call for bsqc at t = 0.95, with its memo cleared;
- ``secret_key_rate`` of the original protocol, subtraction and bsqc1 at
  t = 0.95, with the moment memo warm;
- one ``grid_best`` pass over the cached bsqc1 grid states, for 1 channel
  (200 km) and for 51 (50 to 300 km in 5 km steps), and one at 1e-9 km
  and epsilon = 0, where the scalar rate formula decides 8 of the 101
  near-pure cells;
- ``optimize_transmittance`` for bsqc1, with the grid states cached, and
  with the grid cache and the moment memo cleared before each call;
- ``max_distance`` and ``max_tolerable_excess_noise`` (300 km) for bsqc1,
  with every cache warm after the first repeat;
- ``max_tolerable_excess_noise`` for subtraction over 601 distances (0 to
  300 km in 0.5 km steps), timed as above, with the peak RSS of a fresh
  interpreter that imports ``catqkd`` and runs the sweep once.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(SRC))

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams  # noqa: E402
from catqkd import catalysis, optimize  # noqa: E402
from catqkd.catalysis import CatalysisConfig  # noqa: E402
from catqkd.keyrate import grid_best, secret_key_rate  # noqa: E402
from catqkd.subtraction import SubtractionConfig  # noqa: E402

STARTUP_RUNS = 5
_STARTUP = """
import resource, time
import numpy
start = time.perf_counter()
import catqkd.cli
catqkd.cli.build_parser()
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
SWEEP_KM = [0.5 * k for k in range(601)]
_NOISE_SWEEP = """
import resource
from catqkd import ProtocolParams, SchemeFamily, SourceParams, max_tolerable_excess_noise
p = ProtocolParams(SourceParams.from_variance(20.0), SchemeFamily("subtraction"))
max_tolerable_excess_noise(p, [0.5 * k for k in range(601)])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def best(func, repeats: int, before=None) -> float:
    """The shortest of ``repeats`` timed calls of ``func``; ``before`` runs untimed ahead of each."""
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def startup() -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for _ in range(STARTUP_RUNS):
        out = subprocess.run([sys.executable, "-c", _STARTUP], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        runs.append((float(out[0]), int(out[1]) / 1024.0))
    cached = os.path.exists(importlib.util.cache_from_source(str(SRC / "catqkd" / "cli.py")))
    return (f"{min(s for s, _ in runs):.6f} s  peak RSS {min(m for _, m in runs):.2f} MB  "
            f"bytecode cache {'present' if cached else 'absent'}")


def sweep_peak_rss() -> str:
    """Peak RSS of a fresh interpreter that runs the 601-distance noise sweep once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _NOISE_SWEEP], env=env, check=True,
                         capture_output=True, text=True).stdout
    return f"peak RSS {int(out) / 1024.0:.2f} MB"


def main() -> int:
    print(f"{'start-up: import catqkd.cli + build_parser()':58s} N={STARTUP_RUNS:<4d} {startup()}")
    src = SourceParams.from_variance(20.0)
    ch = ChannelParams.from_distance(200.0, 0.01)
    bsqc1 = SchemeFamily("bsqc", 1)
    entries = []
    for m in (0, 1, 2, 5):
        cfg = CatalysisConfig.bsqc(m, 0.95)
        entries.append((f"catalysis._moments bsqc{m}, memo cleared", 51,
                        lambda cfg=cfg: catalysis._moments(cfg, src),
                        catalysis._exact_moments.cache_clear))
    for label, scheme in (("original", None), ("subtraction", SubtractionConfig(t=0.95)),
                          ("bsqc1", CatalysisConfig.bsqc(1, 0.95))):
        p = ProtocolParams(source=src, scheme=scheme)
        entries.append((f"secret_key_rate {label}", 201, lambda p=p: secret_key_rate(p, ch), None))
    t, *state = optimize._grid_states(bsqc1, src)
    for channels in ([ch], [ChannelParams.from_distance(50.0 + 5.0 * k, 0.01) for k in range(51)]):
        entries.append((f"keyrate.grid_best bsqc1, {len(channels)} channel(s)", 51,
                        lambda channels=channels: grid_best(t, *state, channels, 0.95), None))
    edge = [ChannelParams.from_distance(1e-9)]
    entries.append(("keyrate.grid_best bsqc1, 1e-9 km, epsilon 0", 51,
                    lambda: grid_best(t, *state, edge, 0.95), None))
    p = ProtocolParams(source=src, scheme=bsqc1)

    def clear_caches():
        optimize._grid_states.cache_clear()
        catalysis._exact_moments.cache_clear()

    entries += [
        ("optimize_transmittance bsqc1, grid cached", 21,
         lambda: optimize.optimize_transmittance(p, ch), None),
        ("optimize_transmittance bsqc1, grid and memo cleared", 21,
         lambda: optimize.optimize_transmittance(p, ch), clear_caches),
        ("max_distance bsqc1", 5, lambda: optimize.max_distance(p, epsilon=0.01), None),
        ("max_tolerable_excess_noise bsqc1, 300 km", 5,
         lambda: optimize.max_tolerable_excess_noise(p, 300.0), None),
    ]
    for label, repeats, func, before in entries:
        print(f"{label:58s} N={repeats:<4d} {best(func, repeats, before):.6f} s", flush=True)
    sub = ProtocolParams(source=src, scheme=SchemeFamily("subtraction"))
    label, repeats = f"max_tolerable_excess_noise subtraction, {len(SWEEP_KM)} distances", 5
    seconds = best(lambda: optimize.max_tolerable_excess_noise(sub, SWEEP_KM), repeats)
    print(f"{label:58s} N={repeats:<4d} {seconds:.6f} s  {sweep_peak_rss()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
