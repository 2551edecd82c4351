"""The benchmark's four workloads, as lists of ``catqkd`` command lines.

Every workload is closed-loop with one client: the commands run one after
another in a single process, each starting when the previous one ends.
The seed picks the inputs and nothing else.  The default seed is the
paper's point (V = 20, epsilon = 0.01, T = 0.95, 300 km); any other seed
jitters the source variance, the excess noise and the distance and alpha
grids inside the documented domain.  Jitter shifts grids but never changes
their length, so every seed does the same number of rows and nearly the
same work, and wall times from different seeds are comparable.

The first command of each workload is its cheapest; ``tiny`` keeps only
that one, for the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Point:
    """Inputs chosen by one seed."""

    variance: float
    epsilon: float
    d_shift: float      # km added to every distance grid
    alpha_shift: float  # added to every alpha grid


def point(seed: int) -> Point:
    if seed == DEFAULT_SEED:
        return Point(variance=20.0, epsilon=0.01, d_shift=0.0, alpha_shift=0.0)
    rng = random.Random(seed)
    return Point(
        variance=rng.uniform(19.0, 21.0),
        epsilon=rng.uniform(0.009, 0.011),
        d_shift=rng.uniform(0.0, 5.0),
        alpha_shift=rng.uniform(-0.05, 0.05),
    )


def _num(value: float) -> str:
    return repr(float(value))


def _fixed_t(p: Point, seed: int) -> list[list[str]]:
    # The optimiser is bypassed and one (config, source) pair recurs at
    # every distance: moments, Schmidt spectra and the oracle dominate.
    a, d = p.alpha_shift, p.d_shift
    return [
        ["success-prob", "--t", "0.95", "--alpha-min", _num(0.1 + a),
         "--alpha-max", _num(3.0 + a), "--alpha-step", "0.1"],
        ["entanglement", "--t", "0.95", "--alpha-min", _num(0.2 + a),
         "--alpha-max", _num(3.0 + a), "--alpha-step", "0.2"],
        ["keyrate", "--t", "0.95", "--variance", _num(p.variance), "--epsilon", _num(p.epsilon),
         "--d-min", _num(d), "--d-max", _num(300.0 + d), "--d-step", "10"],
        ["verify", "--seed", str(seed)],
    ]


_OPTIMAL_SET = [("bsqc", 0), ("ssqc", 0), ("bsqc", 1), ("ssqc", 1), ("bsqc", 2), ("ssqc", 2)]


def _optimal_t(p: Point, seed: int) -> list[list[str]]:
    # One optimisation per row, about 114 rate evaluations at distinct T on
    # one channel; the entanglement slice runs the CLI's own grid-and-golden.
    d = p.d_shift
    commands = [
        ["keyrate", "--t", "optimal", "--scheme", scheme, "--n", str(photons),
         "--variance", _num(p.variance), "--epsilon", _num(p.epsilon),
         "--d-min", _num(200.0 + d), "--d-max", _num(300.0 + d), "--d-step", "100"]
        for scheme, photons in _OPTIMAL_SET
    ]
    alpha = _num(1.5 + p.alpha_shift)
    commands.append(["entanglement", "--t", "optimal", "--scheme", "bsqc", "--n", "1",
                     "--alpha-min", alpha, "--alpha-max", alpha])
    return commands


def _limits(p: Point, seed: int) -> list[list[str]]:
    # The paper's anchors: every bisection probe reruns the whole optimiser.
    d = _num(300.0 + p.d_shift)
    commands = []
    for scheme, photons in (("bsqc", 0), ("bsqc", 1), ("ssqc", 1)):
        common = ["--scheme", scheme, "--n", str(photons), "--variance", _num(p.variance)]
        commands.append(["max-distance", *common, "--epsilon", _num(p.epsilon)])
        commands.append(["excess-noise", *common, "--d-min", d, "--d-max", d])
    return commands


def _closed_form(p: Point, seed: int) -> list[list[str]]:
    # The optimal-T and limit commands again, for the schemes whose moments
    # are closed forms: the bypass workload for catalysis and series work.
    d = p.d_shift
    src = ["--variance", _num(p.variance)]
    eps = ["--epsilon", _num(p.epsilon)]
    commands = []
    for scheme in ("subtraction", "original"):
        commands.append(["max-distance", "--scheme", scheme, *src, *eps])
    for scheme in ("subtraction", "original"):
        commands.append(["keyrate", "--t", "optimal", "--scheme", scheme, *src, *eps,
                         "--d-min", _num(d), "--d-max", _num(300.0 + d), "--d-step", "2"])
    for scheme in ("subtraction", "original"):
        commands.append(["excess-noise", "--scheme", scheme, *src,
                         "--d-min", _num(50.0 + d), "--d-max", _num(300.0 + d), "--d-step", "5"])
    return commands


WORKLOADS = {
    "fixed-t": _fixed_t,
    "optimal-t": _optimal_t,
    "limits": _limits,
    "closed-form": _closed_form,
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """Command lines of one pass of ``workload`` for ``seed``."""
    argvs = WORKLOADS[workload](point(seed), seed)
    return argvs[:1] if tiny else argvs
