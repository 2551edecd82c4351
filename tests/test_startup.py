"""Start-up: the sweep commands do not run the verification stack's modules."""

import os
import subprocess
import sys
from pathlib import Path

import catqkd

PACKAGE = Path(catqkd.__file__).parent

# Records the file of every module body the interpreter runs.
_PROBE = """
import sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
{statement}
print("\\n".join(ran))
"""


def _run(code: str) -> str:
    """The standard output of a fresh interpreter that runs ``code`` with this ``catqkd``."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60).stdout


def _modules_run(statement: str) -> set[str]:
    """The ``catqkd`` modules whose code runs when a fresh interpreter executes ``statement``."""
    files = [Path(line) for line in _run(_PROBE.format(statement=statement)).splitlines()]
    return {f"catqkd.{f.stem}" for f in files if f.parent == PACKAGE}


def test_cli_import_runs_no_verification_module():
    ran = _modules_run("import catqkd.cli")
    assert "catqkd.cli" in ran
    assert ran & {"catqkd.oracle", "catqkd.series", "catqkd.verify"} == set()


def test_cli_and_parser_import_no_json():
    # only --format json output needs the json package
    code = "import sys, catqkd.cli\ncatqkd.cli.build_parser()\nprint('json' in sys.modules)"
    assert _run(code) == "False\n"


def test_oracle_import_runs_no_jets():
    # catqkd binds the oracle lazily, so a name taken from it makes its code run
    ran = _modules_run("from catqkd.oracle import simulate_catalysis")
    assert "catqkd.oracle" in ran
    assert "catqkd.series" not in ran


def test_lazy_modules_resolve_after_the_cli_import():
    # what bench/tracing.py reads right after ``import catqkd.cli``
    ran = _modules_run("import catqkd.cli\n"
                       "sys.modules['catqkd.series'].jet_mul\n"
                       "sys.modules['catqkd.oracle'].bs_fock_amplitude")
    assert {"catqkd.oracle", "catqkd.series"} <= ran
