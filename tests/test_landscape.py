"""scripts/optimal_t_landscape.py: the rate-versus-transmittance table and its printed optima."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams
from catqkd.optimize import optimal_transmittances

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "optimal_t_landscape.py"
_spec = importlib.util.spec_from_file_location("optimal_t_landscape", _SCRIPT)
landscape = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(landscape)

DISTANCES = (50.0, 100.0)
STEP = 0.05


@pytest.mark.parametrize("family", [SchemeFamily("bsqc", 1), SchemeFamily("ssqc", 1),
                                    SchemeFamily("subtraction")])
def test_landscape_rows_and_printed_optima(family, tmp_path, capsys):
    out = tmp_path / "landscape.csv"
    argv = ["--scheme", family.kind, "--distances", *map(str, DISTANCES),
            "--t-step", str(STEP), "--out", str(out)]
    if family.kind != "subtraction":
        argv += ["--photons", str(family.photons)]
    assert landscape.main(argv) == 0
    with out.open(newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == len(DISTANCES) * 11  # t = 0.5, 0.55, ..., 1
    if family.kind == "subtraction":
        assert [r["key_rate"] for r in rows if r["t"] == "1"] == ["0"] * len(DISTANCES)

    printed = [float(t) for t in re.findall(r"best t = ([0-9.]+)", capsys.readouterr().out)]
    assert len(printed) == len(DISTANCES)
    for d, t in zip(DISTANCES, printed):
        (opt,) = optimal_transmittances(ProtocolParams(SourceParams.from_variance(20.0), family),
                                        [ChannelParams.from_distance(d, 0.01)])
        assert abs(t - opt.t) <= STEP


def test_landscape_without_a_positive_rate_prints_no_optimum(tmp_path, capsys):
    # ssqc1 at 150 km is positive only between the grid points (t = 0.977)
    argv = ["--scheme", "ssqc", "--photons", "1", "--distances", "50", "150",
            "--t-step", str(STEP), "--out", str(tmp_path / "landscape.csv")]
    assert landscape.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"d = +50\.0 km: best t = ", lines[0])
    assert lines[1] == "d =  150.0 km: no grid point has a positive rate"


def test_landscape_grid_ends_on_one(tmp_path):
    out = tmp_path / "landscape.csv"
    assert landscape.main(["--distances", "50", "--t-step", "0.3", "--out", str(out)]) == 0
    with out.open(newline="") as stream:
        assert [row["t"] for row in csv.DictReader(stream)] == ["0.5", "0.8", "1"]


@pytest.mark.parametrize("flags,error", [
    (["--t-min", "0"], "--t-min 0.0 outside (0, 1]"),
    (["--t-min", "1.5"], "--t-min 1.5 outside (0, 1]"),
    (["--t-step", "0"], "bad t grid: [0.5, 1.0] step 0.0"),
    (["--t-step", "nan"], "bad t grid: [0.5, 1.0] step nan"),
    (["--photons", "9"], "photon number 9 outside 0..5"),
    (["--photons", "-1"], "photon number -1 outside 0..5"),
    (["--scheme", "subtraction", "--photons", "3"],
     "--photons applies to --scheme bsqc or ssqc only"),
    (["--scheme", "subtraction", "--photons", "0"],
     "--photons applies to --scheme bsqc or ssqc only"),
    (["--variance", "0.5"], "quadrature variance must be finite and >= 1, got 0.5"),
    (["--variance", "inf"], "quadrature variance must be finite and >= 1, got inf"),
    (["--beta", "2"], "reconciliation efficiency 2.0 outside (0, 1]"),
    (["--epsilon", "nan"], "excess noise must be finite and non-negative, got nan"),
    (["--distances", "-5"], "distance must be non-negative, got -5.0"),
    (["--distances", "50", "-5"], "distance must be non-negative, got -5.0"),
])
def test_landscape_refuses_a_bad_input(tmp_path, capsys, flags, error):
    out = tmp_path / "landscape.csv"
    with pytest.raises(SystemExit) as exc:
        landscape.main(["--distances", "50", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,error", [
    (["--variance", "1e155"], "the covariance overflows a float: z**2 is out of range"),
    (["--epsilon", "1e150"], "symplectic invariant overflows a float"),
    (["--variance", "1e20"], "unphysical covariance"),
])
def test_landscape_numerical_error_exits_two_with_one_line(tmp_path, capsys, flags, error):
    # the library refuses a rate as it would in `catqkd keyrate`: no traceback, no file
    out = tmp_path / "landscape.csv"
    with pytest.raises(SystemExit) as exc:
        landscape.main(["--distances", "50", "--out", str(out), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f": numerical error: {error}" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["bsqc", "ssqc"])
def test_landscape_photons_default_to_one(tmp_path, scheme):
    argv = ["--scheme", scheme, "--distances", "100", "--t-step", "0.1"]
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert landscape.main([*argv, "--out", str(default)]) == 0
    assert landscape.main([*argv, "--photons", "1", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
