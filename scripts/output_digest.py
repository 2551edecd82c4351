#!/usr/bin/env python3
"""Print one sha256 per command output, to check that a change keeps every byte.

    python3 scripts/output_digest.py > digests.txt   # print the digests
    python3 scripts/output_digest.py --write         # record them in tests/golden_digests.txt

It imports ``catqkd`` from the ``src`` of the checkout that holds it and
reads that checkout's ``bench/workloads.py``.  It runs, in this
process, every command of the four benchmark workloads at seeds 0, 7 and
4242 (``verify`` is one of them), the edge commands of ``EDGE_COMMANDS``
(each with the reason it is there), and ``scripts/reproduce_figures.py``
with and without ``--quick``.  A CLI command's digest covers its exit code,
standard output, standard error and the category and message of each
warning it raises (recorded, as their printed form names the file and line
of the call site); a figure's covers the CSV file it writes.  To compare two
versions, run it in both checkouts and diff the outputs.

``--write`` records the digests in ``tests/golden_digests.txt``, after two
comment lines with the Python and numpy versions that made them.
``tests/test_golden_outputs.py`` runs the same commands through
:func:`digest_lines` and compares them with that file line by line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_digests.txt"
SEEDS = (0, 7, 4242)
EDGE_COMMANDS = [
    # subtraction's success probability down to a vacuum source
    ["success-prob", "--scheme", "subtraction"],
    # subtraction's vacuum refusal
    ["keyrate", "--scheme", "subtraction", "--variance", "1"],
    # a noise sweep whose far rows are round-off (ROADMAP item 2)
    ["excess-noise", "--variance", "1.5", "--d-min", "550", "--d-max", "750", "--d-step", "5"],
    # the default schemes over 61 distances, with rows where no transmittance gives a key
    ["keyrate", "--t", "optimal", "--d-min", "0", "--d-max", "600", "--d-step", "10"],
    # V = 1e6, where four schemes give no key
    ["keyrate", "--t", "optimal", "--variance", "1e6", "--d-min", "100", "--d-max", "100"],
    # a noise search that the grid pass refuses at V = 1e6
    ["excess-noise", "--scheme", "bsqc", "--n", "0", "--variance", "1e6", "--d-min", "1e-9",
     "--d-max", "1e-9"],
    # an optimal-transmittance sweep that the grid pass refuses at V = 1e6
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "0", "--variance", "1e6",
     "--epsilon", "0", "--d-min", "0", "--d-max", "1e-9", "--d-step", "1e-9"],
    # ssqc2 on a vacuum source, whose Schmidt spectra have x = 0
    ["entanglement", "--t", "optimal", "--scheme", "ssqc", "--n", "2", "--alpha-min", "0",
     "--alpha-max", "0.1", "--alpha-step", "0.1"],
    # best grid rates of round-off size at V = 1.5, so exact logarithms decide every grid cell
    ["keyrate", "--t", "optimal", "--variance", "1.5", "--d-min", "640", "--d-max", "670",
     "--d-step", "5"],
    # an excess noise whose squares overflow, which the grid pass refuses
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--epsilon", "1e150",
     "--d-min", "100", "--d-max", "100"],
    # subtraction's optimal transmittance at V = 1e20, where lam**2 rounds to 1
    ["keyrate", "--t", "optimal", "--scheme", "subtraction", "--variance", "1e20",
     "--d-min", "100", "--d-max", "100"],
    # the refusal of a source whose covariance overflows
    ["keyrate", "--scheme", "original", "--variance", "1e155", "--d-min", "100", "--d-max", "100"],
    # the refusal of a source variance that is not finite
    ["keyrate", "--scheme", "original", "--variance", "inf", "--d-min", "100", "--d-max", "100"],
    # the entanglement of a source whose lam rounds to 1
    ["entanglement", "--alpha-min", "1e200", "--alpha-max", "1e200"],
    ["entanglement", "--alpha-min", "1e9", "--alpha-max", "1e9"],
    # a catalysed covariance whose z**2 overflows
    ["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--variance", "2e200",
     "--d-min", "100", "--d-max", "100"],
    # 70 distances, which cross two boundaries of the 32-distance blocks the search bisects
    ["excess-noise", "--d-min", "0", "--d-max", "345", "--d-step", "5"],
    # near-pure grid cells at 0 and 1e-9 km, which the scalar rate formula decides
    ["keyrate", "--t", "optimal", "--epsilon", "0", "--d-min", "0", "--d-max", "1e-9",
     "--d-step", "1e-9"],
    ["excess-noise", "--d-min", "0", "--d-max", "1e-9", "--d-step", "1e-9"],
    # bsqc0 at t = 0.99 and 1e-9 km, whose discriminant cancels below 0
    ["keyrate", "--scheme", "bsqc", "--n", "0", "--t", "0.99", "--epsilon", "0", "--d-min", "1e-9",
     "--d-max", "1e-9"],
    # the JSON writer; plob is inf at 0 km, so a cell is written as null
    ["keyrate", "--format", "json", "--scheme", "original", "--d-min", "0", "--d-max", "10",
     "--d-step", "10"],
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


def digest_lines():
    """Every digest line, ``<sha256> <label>``, in the order the script prints them."""
    workloads = load(ROOT / "bench" / "workloads.py")
    figures = load(ROOT / "scripts" / "reproduce_figures.py")
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for argv in workloads.commands(name, seed):
                yield " ".join([run_cli(argv), f"seed={seed}", name, *argv])
    for argv in EDGE_COMMANDS:
        yield " ".join([run_cli(argv), "edge", *argv])
    for mode in (["--quick"], []):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                figures.main([*mode, "--outdir", tmp])
            for path in sorted(Path(tmp).iterdir()):
                yield " ".join([digest(path.read_bytes()), "figures", *mode, path.name])


def versions() -> list[str]:
    """The comment lines that name the Python and numpy versions running this process."""
    return [f"# python {platform.python_version()}", f"# numpy {numpy.__version__}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the digests in {GOLDEN.relative_to(ROOT)} instead")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.write:
        GOLDEN.write_text("\n".join([*versions(), *digest_lines()]) + "\n")
        return 0
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
