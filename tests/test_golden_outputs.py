"""Golden outputs: every command of ``scripts/output_digest.py`` keeps its recorded bytes.

``tests/golden_digests.txt`` holds the script's digests, one line per
command (``<sha256> <label>``), after the Python and numpy versions that
wrote them.  A change that moves an output on purpose rewrites the file
with ``python scripts/output_digest.py --write``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_prints_its_recorded_bytes():
    script = _script()
    lines = script.GOLDEN.read_text().splitlines()
    recorded_versions = [line for line in lines if line.startswith("#")]
    recorded = [line for line in lines if not line.startswith("#")]
    fresh = list(script.digest_lines())
    if fresh == recorded:
        return
    old = dict(line.split(" ", 1)[::-1] for line in recorded)
    new = dict(line.split(" ", 1)[::-1] for line in fresh)
    report = [f"moved: {label}" for label in old if label in new and new[label] != old[label]]
    report += [f"gone: {label}" for label in old if label not in new]
    report += [f"new: {label}" for label in new if label not in old]
    if not report:
        report = ["the commands ran in another order"]
    raise AssertionError(
        f"{len(report)} of {len(recorded)} recorded digests differ\n"
        f"recorded with: {', '.join(v.lstrip('# ') for v in recorded_versions)}\n"
        f"running:       {', '.join(v.lstrip('# ') for v in script.versions())}\n"
        + "\n".join(report))
