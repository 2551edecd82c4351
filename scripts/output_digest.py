#!/usr/bin/env python3
"""Print one sha256 per command output, to check that a change keeps every byte.

    cd <checkout> && python3 scripts/output_digest.py > digests.txt

Run it from the root of a checkout; it imports ``catqkd`` from that
checkout's ``src`` and reads its ``bench/workloads.py``.  It runs, in this
process, every command of the four benchmark workloads at seeds 0, 7 and
4242 (``verify`` is one of them), five edge commands (subtraction's success
probability down to a vacuum source, its vacuum refusal, a noise sweep whose
search warns of a revival, an optimal-transmittance sweep of the default
schemes over 61 distances, with rows where no transmittance gives a key, and
one at V = 1e6 where four schemes give none), and
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
