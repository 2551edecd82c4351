#!/usr/bin/env python3
"""Fixed-input timings of each layer of catqkd: one line per entry, best of N.

    python3 scripts/layer_timings.py

Run from the root of a checkout; it imports ``catqkd`` from that
checkout's ``src``.  The inputs are fixed: V = 20, 200 km and
epsilon = 0.01 (the noise search at 300 km).  Times are raw seconds of
the machine it runs on, the best over N repeats (N is printed), each
repeat one call timed by ``timeit``, which pauses garbage collection
during it; they are not the reference seconds of ``bench/``.  BLAS
threads are pinned to 1.

- start-up: a fresh interpreter imports numpy, then ``import catqkd.cli``
  and ``build_parser()`` are timed.  It runs with
  ``PYTHONDONTWRITEBYTECODE=1``, and the line says whether a bytecode
  cache of ``cli.py`` was present, since without one every module is
  compiled as it is imported.  The smallest peak RSS of those processes
  is printed with it.
- ``build_parser()`` alone, in this process, with its cache cleared
  before each call: the part of the start-up that builds the parser of
  every subcommand from ``cli``'s flag table;
- ``compile()`` of each module that ``import catqkd.cli`` compiles (not
  the lazily bound ``oracle`` and ``series``), as the import system does
  without a bytecode cache: the compilation part of the start-up above,
  one line per module and their sum;
- one ``_moments`` call for bsqc at t = 0.95, with its memo cleared;
- ``secret_key_rate`` of the original protocol, subtraction and bsqc1 at
  t = 0.95, with the moment memo warm;
- one ``grid_best`` pass over the cached bsqc1 grid states, for 1 channel
  (200 km) and for 51 (50 to 300 km in 5 km steps), and one at 1e-9 km
  and epsilon = 0, where the rate's float path decides 8 of the 101
  near-pure cells;
- ``optimal_transmittances`` for bsqc1 on the one 200 km channel, with
  the grid states cached, and with the grid cache and the moment memo
  cleared before each call;
- ``max_distance`` and ``max_tolerable_excess_noise`` (300 km) for bsqc1,
  with every cache warm after the first repeat;
- ``optimal_log_negativity`` for bsqc1 at alpha 0.1, whose peak is inside
  (0, 1), and at alpha 1.5, where it is t = 1, with the moment memo cleared
  before each call;
- ``max_tolerable_excess_noise`` for subtraction over 601 distances (0 to
  300 km in 0.5 km steps), timed as above, with the peak RSS of a fresh
  interpreter that imports ``catqkd`` and runs the sweep once;
- ``catqkd verify`` (``cli.main(["verify"])``, its table discarded), with
  the oracle's ladder memo and the moment memo cleared before each
  repeat, and the peak RSS of a fresh interpreter that runs it once.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(SRC))

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams  # noqa: E402
from catqkd import catalysis, cli, optimize, oracle  # noqa: E402
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
COMPILE_RUNS = 21
_LOADED = """
import sys, types
import catqkd.cli
# a lazily bound module is not compiled before its first use; reading its __file__ would do that
print(*sorted(m.__file__ for name, m in sys.modules.items()
              if name.split(".")[0] == "catqkd" and type(m) is types.ModuleType))
"""
SWEEP_KM = [0.5 * k for k in range(601)]
_NOISE_SWEEP = """
import resource
from catqkd import ProtocolParams, SchemeFamily, SourceParams, max_tolerable_excess_noise
p = ProtocolParams(SourceParams.from_variance(20.0), SchemeFamily("subtraction"))
max_tolerable_excess_noise(p, [0.5 * k for k in range(601)])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
_VERIFY = """
import contextlib, io, resource
from catqkd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


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


def compile_times() -> list[tuple[str, float]]:
    """Best-of-N ``compile()`` seconds of each module that ``import catqkd.cli`` compiles."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    paths = subprocess.run([sys.executable, "-c", _LOADED], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    times = []
    for path in paths:
        source = Path(path).read_bytes()
        times.append((f"catqkd/{Path(path).name}", min(timeit.repeat(
            lambda: compile(source, path, "exec", dont_inherit=True),
            number=1, repeat=COMPILE_RUNS))))
    return times


def fresh_peak_rss(script: str) -> str:
    """Peak RSS of a fresh interpreter that runs ``script``, which prints its ru_maxrss."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return f"peak RSS {int(out) / 1024.0:.2f} MB"


def main() -> int:
    print(f"{'start-up: import catqkd.cli + build_parser()':58s} N={STARTUP_RUNS:<4d} {startup()}")
    label, repeats = "cli.build_parser(), cache cleared", 51
    seconds = min(timeit.repeat(cli.build_parser, setup=cli.build_parser.cache_clear,
                                number=1, repeat=repeats))
    print(f"{label:58s} N={repeats:<4d} {seconds:.6f} s", flush=True)
    times = compile_times()
    times.append((f"catqkd, all {len(times)} modules", sum(s for _, s in times)))
    for label, seconds in times:
        print(f"{'compile() ' + label:58s} N={COMPILE_RUNS:<4d} {seconds:.6f} s", flush=True)
    src = SourceParams.from_variance(20.0)
    ch = ChannelParams.from_distance(200.0, 0.01)
    bsqc1 = SchemeFamily("bsqc", 1)
    entries = []
    for m in (0, 1, 2, 5):
        cfg = SchemeFamily("bsqc", m).at(0.95)
        entries.append((f"catalysis._moments bsqc{m}, memo cleared", 51,
                        lambda cfg=cfg: catalysis._moments(cfg, src),
                        catalysis._exact_moments.cache_clear))
    for label, scheme in (("original", None), ("subtraction", SubtractionConfig(t=0.95)),
                          ("bsqc1", bsqc1.at(0.95))):
        p = ProtocolParams(source=src, scheme=scheme)
        entries.append((f"secret_key_rate {label}", 201, lambda p=p: secret_key_rate(p, ch), None))
    t, states = optimize._grid_states(bsqc1, src)
    for channels in ([ch], [ChannelParams.from_distance(50.0 + 5.0 * k, 0.01) for k in range(51)]):
        entries.append((f"keyrate.grid_best bsqc1, {len(channels)} channel(s)", 51,
                        lambda channels=channels: grid_best(t, *states, channels, 0.95), None))
    edge = [ChannelParams.from_distance(1e-9)]
    entries.append(("keyrate.grid_best bsqc1, 1e-9 km, epsilon 0", 51,
                    lambda: grid_best(t, *states, edge, 0.95), None))
    p = ProtocolParams(source=src, scheme=bsqc1)

    def clear_caches():
        optimize._grid_states.cache_clear()
        catalysis._exact_moments.cache_clear()

    entries += [
        ("optimal_transmittances bsqc1, grid cached", 21,
         lambda: optimize.optimal_transmittances(p, [ch]), None),
        ("optimal_transmittances bsqc1, grid and memo cleared", 21,
         lambda: optimize.optimal_transmittances(p, [ch]), clear_caches),
        ("max_distance bsqc1", 5, lambda: optimize.max_distance(p, epsilon=0.01), None),
        ("max_tolerable_excess_noise bsqc1, 300 km", 5,
         lambda: optimize.max_tolerable_excess_noise(p, [300.0]), None),
    ]
    for alpha in (0.1, 1.5):
        entries.append((f"optimal_log_negativity bsqc1, alpha {alpha}, memo cleared", 11,
                        lambda alpha=alpha: optimize.optimal_log_negativity(bsqc1,
                                                                            SourceParams(alpha)),
                        catalysis._exact_moments.cache_clear))
    for label, repeats, func, before in entries:
        seconds = min(timeit.repeat(func, setup=before or "pass", number=1, repeat=repeats))
        print(f"{label:58s} N={repeats:<4d} {seconds:.6f} s", flush=True)
    sub = ProtocolParams(source=src, scheme=SchemeFamily("subtraction"))
    label, repeats = f"max_tolerable_excess_noise subtraction, {len(SWEEP_KM)} distances", 5
    seconds = min(timeit.repeat(lambda: optimize.max_tolerable_excess_noise(sub, SWEEP_KM),
                                number=1, repeat=repeats))
    print(f"{label:58s} N={repeats:<4d} {seconds:.6f} s  {fresh_peak_rss(_NOISE_SWEEP)}",
          flush=True)

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify"])

    def clear_memos():
        oracle._ladder.cache_clear()
        catalysis._exact_moments.cache_clear()

    label, repeats = "catqkd verify, ladder and moment memos cleared", 11
    seconds = min(timeit.repeat(verify, setup=clear_memos, number=1, repeat=repeats))
    print(f"{label:58s} N={repeats:<4d} {seconds:.6f} s  {fresh_peak_rss(_VERIFY)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
