"""scripts/optimal_t_landscape.py: the rate-versus-transmittance table and its printed optima."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams
from catqkd.optimize import optimize_transmittance

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
        opt = optimize_transmittance(ProtocolParams(SourceParams.from_variance(20.0), family),
                                     ChannelParams.from_distance(d, 0.01))
        assert abs(t - opt.t) <= STEP


def test_landscape_without_a_positive_rate_prints_no_optimum(tmp_path, capsys):
    # ssqc1 at 150 km is positive only between the grid points (t = 0.977)
    argv = ["--scheme", "ssqc", "--photons", "1", "--distances", "50", "150",
            "--t-step", str(STEP), "--out", str(tmp_path / "landscape.csv")]
    assert landscape.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"d = +50\.0 km: best t = ", lines[0])
    assert lines[1] == "d =  150.0 km: no grid point has a positive rate"
