"""scripts/reproduce_figures.py: merging the parts of a dataset, and the rate-versus-T table."""

import contextlib
import csv
import importlib.util
import io
import re
from pathlib import Path

import pytest

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams
from catqkd.cli import _cell, main as cli
from catqkd.optimize import optimal_transmittances

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
_spec = importlib.util.spec_from_file_location("reproduce_figures", _SCRIPT)
figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures)

DISTANCES = ["25", "50", "75", "100", "125", "150", "175", "200"]
QUICK_STEP = 0.05


def _write(path: Path, rows: list[list[str]]) -> Path:
    with path.open("w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)
    return path


def test_merge_joins_parts_that_share_a_header_under_one_header(tmp_path):
    parts = [_write(tmp_path / f"{k}.csv", [["d", "rate"], [str(k), "0.5"], [str(k), "0.25"]])
             for k in range(3)]
    figures.merge(parts, tmp_path / "merged.csv")
    assert (tmp_path / "merged.csv").read_text() == (
        "d,rate\n0,0.5\n0,0.25\n1,0.5\n1,0.25\n2,0.5\n2,0.25\n")


def test_merge_refuses_a_part_whose_header_differs(tmp_path):
    parts = [_write(tmp_path / "a.csv", [["d", "rate"], ["0", "1"]]),
             _write(tmp_path / "b.csv", [["d", "rate"], ["1", "1"]]),
             _write(tmp_path / "c.csv", [["d", "key_rate"], ["2", "1"]])]
    with pytest.raises(SystemExit, match=re.escape(f"cannot merge {parts[2]}: header mismatch")):
        figures.merge(parts, tmp_path / "merged.csv")
    assert not (tmp_path / "merged.csv").exists()


@pytest.fixture(scope="module")
def quick_outdir(tmp_path_factory):
    # the directory of a --quick run and its printout
    outdir, printed = tmp_path_factory.mktemp("figures"), io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert figures.main(["--quick", "--outdir", str(outdir)]) == 0
    return outdir, printed.getvalue().splitlines()


@pytest.fixture(scope="module")
def quick_run(quick_outdir):
    # the rows of keyrate_vs_t.csv and the run's printout
    outdir, lines = quick_outdir
    with (outdir / "keyrate_vs_t.csv").open(newline="") as stream:
        return list(csv.DictReader(stream)), lines


def test_rate_versus_t_rows_are_t_major_with_the_cli_columns(quick_run):
    rows, _ = quick_run
    assert len(rows) == len(DISTANCES) * 11  # t = 0.5, 0.55, ..., 1
    assert list(rows[0]) == ["distance_km", "scheme", "m", "n", "t", "p_success", "i_ab",
                             "holevo", "key_rate", "plob"]
    assert {(r["scheme"], r["m"], r["n"]) for r in rows} == {("bsqc", "1", "1")}
    assert [r["distance_km"] for r in rows] == DISTANCES * 11
    ts = [r["t"] for r in rows[::len(DISTANCES)]]
    assert ts[0] == "0.5" and ts[-1] == "1"
    assert [float(t) for t in ts] == sorted({float(t) for t in ts})
    assert [r["t"] for r in rows] == [t for t in ts for _ in DISTANCES]


def test_rate_versus_t_grid_optimum_is_the_optimisers_within_a_step(quick_run):
    rows, _ = quick_run
    p = ProtocolParams(SourceParams.from_variance(20.0), SchemeFamily("bsqc", 1))
    optima = optimal_transmittances(
        p, [ChannelParams.from_distance(float(d), 0.01) for d in DISTANCES])
    for d, opt in zip(DISTANCES, optima):
        at_d = [r for r in rows if r["distance_km"] == d]
        best = max(at_d, key=lambda r: float(r["key_rate"]))
        assert float(best["key_rate"]) > 0.0
        assert abs(float(best["t"]) - opt.t) <= QUICK_STEP


def test_rate_versus_t_prints_one_progress_line(quick_run):
    _, lines = quick_run
    assert sum("keyrate_vs_t.csv" in line for line in lines) == 1
    assert not any(re.search(r"--t 0\.", line) for line in lines)


def test_merge_of_one_part_copies_it(tmp_path):
    part = _write(tmp_path / "only.csv", [["d", "rate"], ["25", "0.5"], ["50", "0.25"]])
    figures.merge([part], tmp_path / "merged.csv")
    assert (tmp_path / "merged.csv").read_bytes() == part.read_bytes()


def test_merge_keeps_a_part_without_rows_as_no_rows(tmp_path):
    parts = [_write(tmp_path / "a.csv", [["d", "rate"], ["0", "1"]]),
             _write(tmp_path / "b.csv", [["d", "rate"]]),
             _write(tmp_path / "c.csv", [["d", "rate"], ["2", "1"]])]
    figures.merge(parts, tmp_path / "merged.csv")
    assert (tmp_path / "merged.csv").read_text() == "d,rate\n0,1\n2,1\n"


def test_run_echoes_its_command_unless_told_not_to(tmp_path, capsys):
    argv = ["success-prob", "--alpha-min", "1", "--alpha-max", "1", "--alpha-step", "1"]
    loud, quiet = tmp_path / "loud.csv", tmp_path / "quiet.csv"
    figures.run(argv, loud)
    assert capsys.readouterr().out == f"  loud.csv: catqkd {' '.join(argv)}\n"
    figures.run(argv, quiet, echo=False)
    assert capsys.readouterr().out == ""
    assert quiet.read_bytes() == loud.read_bytes()


@pytest.mark.parametrize("flags,error", [
    (["--t", "1", "--variance", "1e155"], "the covariance overflows a float: z**2 is out of range"),
    (["--t", "0.9", "--epsilon", "1e150"], "symplectic invariant overflows a float"),
    (["--t", "1", "--variance", "1e20"], "unphysical covariance"),
])
def test_run_stops_on_a_numerical_error_and_names_the_command(tmp_path, capsys, flags, error):
    # a T of the table whose rate the library refuses ends the figure run, with no file
    argv = ["keyrate", "--scheme", "bsqc", "--n", "1", *flags, "--d-min", "50", "--d-max", "50"]
    out = tmp_path / "part.csv"
    with pytest.raises(SystemExit, match=re.escape(f"catqkd exited with 2 for {argv}")):
        figures.run(argv, out, echo=False)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f": numerical error: {error}" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("step,count", [(0.3, 3), (QUICK_STEP, 11), (0.0025, 201)])
def test_t_grid_ends_on_one_and_prints_its_own_decimals(step, count):
    ts = figures._grid(0.5, 1.0, step, "t")
    assert len(ts) == count and ts[0] == 0.5 and ts[-1] == 1.0
    # each T reaches the CLI as str(T); its row's t cell is T to four decimals
    assert [float(_cell(float(str(t)))) for t in ts] == [round(t, 4) for t in ts]


@pytest.mark.parametrize("k", [0, 5, 10])  # T = 0.5, 0.75, 1
def test_rate_versus_t_rows_equal_a_direct_keyrate_run(quick_run, tmp_path, k):
    rows, _ = quick_run
    at_t = rows[k * len(DISTANCES):(k + 1) * len(DISTANCES)]
    out = tmp_path / "direct.csv"
    assert cli(["keyrate", "--scheme", "bsqc", "--n", "1", "--t", at_t[0]["t"],
                "--d-min", "25", "--d-max", "200", "--d-step", "25", "--out", str(out)]) == 0
    with out.open(newline="") as stream:
        assert list(csv.DictReader(stream)) == at_t


def test_rate_versus_t_progress_line_names_the_case_and_the_grid(quick_run):
    _, lines = quick_run
    assert "  keyrate_vs_t.csv: catqkd keyrate --scheme bsqc --n 1 --t T --d-min 25 --d-max 200"\
           " --d-step 25 for 11 T in [0.5, 1]" in lines


def test_quick_run_writes_the_nine_datasets(quick_outdir):
    outdir, _ = quick_outdir
    assert sorted(p.name for p in outdir.iterdir()) == sorted([
        "success_prob_catalysis.csv", "success_prob_subtraction.csv",
        "entanglement_fixed_t.csv", "entanglement_optimal_t.csv", "keyrate_fixed_t.csv",
        "keyrate_optimal_t.csv", "keyrate_vs_t.csv", "excess_noise.csv", "max_distance.csv"])
    for path in outdir.iterdir():
        assert len(path.read_text().splitlines()) >= 2, path.name


def _keyrate_at(family: SchemeFamily, t: float, distances: list[str], tmp_path: Path) -> list[dict]:
    # one `catqkd keyrate --t T` run, as README gives for another scheme's table
    scheme = ["--scheme", family.kind]
    if family.kind != "subtraction":
        scheme += ["--n", str(family.photons)]
    out = tmp_path / f"{t}.csv"
    assert cli(["keyrate", *scheme, "--t", str(t), "--d-min", distances[0],
                "--d-max", distances[-1], "--d-step", "50", "--out", str(out)]) == 0
    with out.open(newline="") as stream:
        return list(csv.DictReader(stream))


# bsqc2 and ssqc2 are left out: at 100 km their optima (0.991, 0.987) lie past the last
# grid point below 1, and no grid point has a positive rate
@pytest.mark.parametrize("family", [SchemeFamily("bsqc", 0), SchemeFamily("bsqc", 1),
                                    SchemeFamily("ssqc", 1), SchemeFamily("subtraction")],
                         ids=["bsqc0", "bsqc1", "ssqc1", "subtraction"])
def test_another_schemes_grid_optimum_is_the_optimisers_within_a_step(family, tmp_path):
    distances = ["50", "100"]
    ts = figures._grid(0.5, 1.0, QUICK_STEP, "t")
    if family.kind == "subtraction":
        ts = ts[:-1]  # subtraction heralds nothing at t = 1, and keyrate refuses it
    rows = [row for t in ts for row in _keyrate_at(family, t, distances, tmp_path)]
    p = ProtocolParams(SourceParams.from_variance(20.0), family)
    optima = optimal_transmittances(
        p, [ChannelParams.from_distance(float(d), 0.01) for d in distances])
    for d, opt in zip(distances, optima):
        best = max((r for r in rows if r["distance_km"] == d), key=lambda r: float(r["key_rate"]))
        assert float(best["key_rate"]) > 0.0
        assert abs(float(best["t"]) - opt.t) <= QUICK_STEP


def test_ssqc1_at_150_km_is_positive_only_between_the_grid_points(tmp_path):
    family = SchemeFamily("ssqc", 1)
    rows = [row for t in figures._grid(0.5, 1.0, QUICK_STEP, "t")
            for row in _keyrate_at(family, t, ["150"], tmp_path)]
    assert len(rows) == 11 and all(r["key_rate"] == "0" for r in rows)
    p = ProtocolParams(SourceParams.from_variance(20.0), family)
    (opt,) = optimal_transmittances(p, [ChannelParams.from_distance(150.0, 0.01)])
    assert opt.key_rate > 0.0 and 0.95 < opt.t < 1.0
