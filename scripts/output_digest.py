#!/usr/bin/env python3
"""Print one sha256 per command output, to check that a change keeps every byte.

    cd <checkout> && python3 scripts/output_digest.py > digests.txt

Run it from the root of a checkout; it imports ``catqkd`` from that
checkout's ``src`` and reads its ``bench/workloads.py``.  It runs, in this
process, every command of the four benchmark workloads at seeds 0, 7 and
4242 (``verify`` is one of them), twenty edge commands (subtraction's
success probability down to a vacuum source, its vacuum refusal, a noise
sweep whose far rows are round-off (ROADMAP item 2), an
optimal-transmittance sweep of the default schemes over 61 distances,
with rows where no transmittance gives a key, one
at V = 1e6 where four schemes give none, a noise search and an
optimal-transmittance sweep that the grid pass refuses at V = 1e6, ``verify``
with the mirrored beam-splitter sign, and the optimal-transmittance
entanglement of ssqc2 on a vacuum source, whose Schmidt spectra have
``x = 0``, an optimal-transmittance sweep at V = 1.5 and 640-670 km whose
best grid rates are of round-off size, so exact logarithms decide every
grid cell, one with an excess noise of 1e150 whose squares overflow
and which the grid pass refuses, subtraction's optimal transmittance at
V = 1e20, where lam**2 rounds to 1, the refusals of a source whose
covariance or variance overflows, the entanglement of a source whose lam
rounds to 1, a catalysed covariance whose z**2 overflows, and a noise
sweep of the default schemes over 70 distances, which crosses two
boundaries of the 32-distance blocks that the search bisects, and an
optimal-transmittance sweep and a noise sweep of the default schemes at
0 and 1e-9 km, whose near-pure grid cells the scalar rate formula
decides), and
``scripts/reproduce_figures.py`` with and without ``--quick``.  A CLI command's digest covers its exit code,
standard output, standard error and the category and message of each
warning it raises (recorded, as their printed form names the file and line
of the call site); a figure's covers the CSV file it writes.  To compare two
versions, run it in both checkouts and diff the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path.cwd()
SEEDS = (0, 7, 4242)
EDGE_COMMANDS = [
    ["success-prob", "--scheme", "subtraction"],
    ["keyrate", "--scheme", "subtraction", "--alpha", "0"],
    ["excess-noise", "--variance", "1.5", "--d-min", "550", "--d-max", "750", "--d-step", "5"],
    ["keyrate", "--t", "optimal", "--d-min", "0", "--d-max", "600", "--d-step", "10"],
    ["keyrate", "--t", "optimal", "--variance", "1e6", "--d-min", "100", "--d-max", "100"],
    ["excess-noise", "--scheme", "bsqc", "--n", "0", "--variance", "1e6", "--d-min", "1e-9",
     "--d-max", "1e-9"],
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "0", "--variance", "1e6",
     "--epsilon", "0", "--d-min", "0", "--d-max", "1e-9", "--d-step", "1e-9"],
    ["verify", "--flip-bs-sign"],
    ["entanglement", "--t", "optimal", "--scheme", "ssqc", "--n", "2", "--alpha-min", "0",
     "--alpha-max", "0.1", "--alpha-step", "0.1"],
    ["keyrate", "--t", "optimal", "--variance", "1.5", "--d-min", "640", "--d-max", "670",
     "--d-step", "5"],
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--epsilon", "1e150",
     "--d-min", "100", "--d-max", "100"],
    ["keyrate", "--t", "optimal", "--scheme", "subtraction", "--variance", "1e20",
     "--d-min", "100", "--d-max", "100"],
    ["keyrate", "--scheme", "original", "--variance", "1e155", "--d-min", "100", "--d-max", "100"],
    ["keyrate", "--scheme", "original", "--alpha", "1e200", "--d-min", "100", "--d-max", "100"],
    ["entanglement", "--alpha-min", "1e200", "--alpha-max", "1e200"],
    ["entanglement", "--alpha-min", "1e9", "--alpha-max", "1e9"],
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--alpha", "1e100",
     "--d-min", "100", "--d-max", "100"],
    ["excess-noise", "--d-min", "0", "--d-max", "345", "--d-step", "5"],
    ["keyrate", "--t", "optimal", "--epsilon", "0", "--d-min", "0", "--d-max", "1e-9",
     "--d-step", "1e-9"],
    ["excess-noise", "--d-min", "0", "--d-max", "1e-9", "--d-step", "1e-9"],
]


def load(path: Path):
    """The module at ``path``, imported under its file stem."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def run_cli(argv: list[str]) -> str:
    from catqkd.cli import main

    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(list(argv))
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return digest(str(code).encode(), out.getvalue().encode(), err.getvalue().encode(),
                  warned.encode())


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workloads = load(ROOT / "bench" / "workloads.py")
    figures = load(ROOT / "scripts" / "reproduce_figures.py")
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for argv in workloads.commands(name, seed):
                print(run_cli(argv), f"seed={seed}", name, *argv, flush=True)
    for argv in EDGE_COMMANDS:
        print(run_cli(argv), "edge", *argv, flush=True)
    for mode in (["--quick"], []):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                figures.main([*mode, "--outdir", tmp])
            for path in sorted(Path(tmp).iterdir()):
                print(digest(path.read_bytes()), "figures", *mode, path.name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
