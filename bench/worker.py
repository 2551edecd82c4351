"""One pass of a workload in a fresh process; run by ``run.py``, not by hand.

The process imports ``catqkd`` from the checkout's ``src`` and builds the
CLI parser, which is its set-up, then runs the workload's commands through
``catqkd.cli.main`` with standard output captured.  Every 50 ms of wall
time a timer signal runs a small fixed kernel and records how long it
took, which tracks how fast the machine runs from moment to moment.  The
process prints one JSON object: set-up time, the kernel samples, each
command's exit code and output, its own peak resident memory and, when
traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

SAMPLE_INTERVAL_S = 0.05
SAMPLE_ROUNDS = 200
SETUP_PROBE_SAMPLING_S = 0.15  # a set-up-only process stays this long to sample its speed


class SpeedSampler:
    """Times a fixed kernel on every SIGALRM of a wall-clock interval timer.

    The kernel mixes bytecode with small numpy operations, like the
    program's own work, and never touches ``catqkd``, so no change to the
    program moves it.  The handler runs in the main thread between
    bytecodes; its total time is known and is taken out of the pass.
    """

    def __init__(self, np) -> None:
        self.np = np
        self.durations: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        block = self.np.zeros((3, 3, 3))
        acc = 0
        for i in range(SAMPLE_ROUNDS):
            step = block[1:] * 1.5
            block = block.copy()
            block[1:] += step
            acc += (i * 7) % 11
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop the timer after one last sample, so no list is empty."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()
        return self.durations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the pass and save its spans to this file")
    args = parser.parse_args()

    import numpy

    sampler = SpeedSampler(numpy)
    sampler.start()
    sys.path.insert(0, str(args.root / "src"))
    import catqkd.cli

    catqkd.cli.build_parser()
    result: dict = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0,
                    "setup_samples": len(sampler.durations), "numpy": numpy.__version__}

    if args.setup_only:
        time.sleep(SETUP_PROBE_SAMPLING_S)
    else:
        import workloads

        tracer = None
        if args.spans is not None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        outputs = []
        for argv in workloads.commands(args.workload, args.seed, args.tiny):
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    code = catqkd.cli.main(list(argv))
            except Exception:  # a crash fails this command's rows, not the pass
                traceback.print_exc()
                code = None
            outputs.append({"argv": argv, "code": code, "text": captured.getvalue()})
        result["outputs"] = outputs
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write(args.spans)

    result["samples"] = sampler.stop()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
