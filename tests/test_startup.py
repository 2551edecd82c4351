"""Start-up: the sweep commands do not run the verification stack's modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _interpreter(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` and this ``catqkd``, its output captured."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _run(code: str) -> str:
    """The standard output of a fresh interpreter that runs ``code`` with this ``catqkd``."""
    done = _interpreter("-c", code)
    done.check_returncode()
    return done.stdout


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


def test_verify_import_does_not_load_the_cli():
    # the library takes the catalysis families from keyrate, not from its own front end
    assert _run("import sys, catqkd.verify\nprint('catqkd.cli' in sys.modules)") == "False\n"


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


def test_module_entry_point_prints_the_version():
    done = _interpreter("-m", "catqkd", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"catqkd {catqkd.__version__}\n", "")


@pytest.mark.parametrize("command", ["success-prob", "entanglement", "keyrate", "excess-noise",
                                     "max-distance", "verify"])
def test_module_entry_point_prints_each_subcommand_help(command):
    done = _interpreter("-m", "catqkd", command, "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(f"usage: catqkd {command} [-h]")


def test_module_entry_point_maps_a_usage_error_to_exit_one():
    done = _interpreter("-m", "catqkd", "success-prob", "--t", "optimal")
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "catqkd: error: success-prob needs a fixed --t, not 'optimal'\n")
