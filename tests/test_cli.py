"""Command-line interface: schemas, determinism, exit codes, flag files."""

import argparse
import csv
import io
import json
import math
import warnings

import pytest

from catqkd import (ChannelParams, ConsistencyError, ProtocolParams, SchemeFamily,
                    SourceParams, catalysis, optimize)
from catqkd.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _cell,
    build_parser,
    main,
)
from catqkd.optimize import _EN_GRID, max_tolerable_excess_noise, optimal_transmittances

SINGLE_ALPHA = ["--alpha-min", "1", "--alpha-max", "1", "--alpha-step", "1"]


def read_csv(path):
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


def test_usage_errors_exit_code_one():
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--bogus"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--t", "1.5"])
    assert exc.value.code == EXIT_USAGE


_OUTPUT = {"out", "format"}
_SCHEME = {"scheme", "n"}
_LINK = {"variance", "beta", "atten_db_km"}
_ALPHA_GRID = {"alpha_min", "alpha_max", "alpha_step"}
_DISTANCE_GRID = {"d_min", "d_max", "d_step"}
FLAGS = {  # every subcommand takes exactly the flags it reads
    "success-prob": _SCHEME | {"t"} | _ALPHA_GRID | _OUTPUT,
    "entanglement": _SCHEME | {"t"} | _ALPHA_GRID | _OUTPUT,
    "keyrate": _SCHEME | {"t", "epsilon"} | _LINK | _DISTANCE_GRID | _OUTPUT,
    "excess-noise": _SCHEME | _LINK | _DISTANCE_GRID | _OUTPUT,
    "max-distance": _SCHEME | {"epsilon", "floor"} | _LINK | _OUTPUT,
    "verify": {"seed"} | _OUTPUT,
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in sp._actions if a.dest != "help"}
             for name, sp in subs.choices.items()}
    assert dests == FLAGS
    assert sum(map(len, dests.values())) == 50


@pytest.mark.parametrize("argv", [
    ["verify", "--variance", "5"],
    ["excess-noise", "--epsilon", "0.02"],
    ["max-distance", "--t", "0.9"],
    ["keyrate", "--floor", "1e-6"],
    ["success-prob", "--beta", "0.9"],
    # bsqc puts --n photons on both arms and ssqc none on the signal arm: no command takes --m
    *([command, "--scheme", "bsqc", "--m", "1"]
      for command in ("success-prob", "entanglement", "keyrate", "excess-noise", "max-distance")),
    # the link commands take their source as --variance alone
    *([command, "--alpha", "2"] for command in ("keyrate", "excess-noise", "max-distance")),
    ["keyrate", "--config", "run.cfg"],  # a flag file is passed as @FILE
    ["verify", "--flip-bs-sign"],  # reflection-phase-invariance compares both phases
    ["verify", "--cutoff", "600"],  # the oracle works out its own Fock cutoff
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    message = _usage_error(capsys, argv)
    assert message.startswith("catqkd: error: unrecognized arguments: --")
    assert message.endswith(argv[-1])


def test_subtraction_at_unit_transmittance_is_refused(capsys):
    for argv in (["keyrate", "--d-min", "0", "--d-max", "0", "--d-step", "1"],
                 ["success-prob", *SINGLE_ALPHA]):
        assert main([*argv, "--scheme", "subtraction", "--t", "1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "t=1.0 outside (0, 1)" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_success_prob_schema_and_determinism(tmp_path):
    args = ["success-prob", "--scheme", "bsqc", "--n", "0", "--t", "0.9",
            *SINGLE_ALPHA]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(first)]) == EXIT_OK
    assert main([*args, "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    rows = read_csv(first)
    assert list(rows[0]) == ["alpha", "scheme", "m", "n", "t", "p_success"]
    assert len(rows) == 1
    # zero-photon closed form at alpha=1, t=0.9, printed at 9 significant digits
    expected = 0.5 / (1.0 - 0.5 * 0.81)
    assert rows[0]["p_success"] == format(expected, ".9g")
    assert rows[0]["scheme"] == "bsqc"


def test_success_prob_covers_all_schemes_by_default(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["success-prob", *SINGLE_ALPHA, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    seen = {(r["scheme"], r["n"]) for r in rows}
    assert seen == {(s, str(n)) for s in ("bsqc", "ssqc") for n in (0, 1, 2)}


@pytest.mark.parametrize("argv, row", [
    # a vacuum source never heralds a subtracted photon
    (["--scheme", "subtraction", "--alpha-min", "0", "--alpha-max", "0"],
     "0,subtraction,,,0.95,0"),
    # V = 1e6: p is defined where the heralded covariance is refused
    (["--scheme", "bsqc", "--n", "0", "--t", "0.99975", "--alpha-min", repr(math.sqrt(499999.5)),
      "--alpha-max", repr(math.sqrt(499999.5))],
     "707.106428,bsqc,0,0,0.99975,0.0039845638"),
])
def test_success_prob_needs_no_covariance(capsys, argv, row):
    assert main(["success-prob", *argv]) == EXIT_OK
    assert capsys.readouterr() == ("alpha,scheme,m,n,t,p_success\n" + row + "\n", "")


def test_entanglement_rejects_non_catalysis_schemes(capsys):
    assert main(["entanglement", "--scheme", "subtraction", *SINGLE_ALPHA]) == EXIT_USAGE
    assert "catalysis" in capsys.readouterr().err


def test_entanglement_includes_reference_rows(tmp_path):
    out = tmp_path / "ent.csv"
    args = ["entanglement", "--scheme", "bsqc", "--n", "1", "--t", "0.9",
            *SINGLE_ALPHA, "--out", str(out)]
    assert main(args) == EXIT_OK
    schemes = [r["scheme"] for r in read_csv(out)]
    assert schemes == ["bsqc", "tmsv", "tmsv-closed-form"]


def test_entanglement_at_the_optimal_transmittance(tmp_path):
    out = tmp_path / "ent.csv"
    assert main(["entanglement", "--t", "optimal", "--scheme", "bsqc", "--n", "1",
                 "--alpha-min", "1.5", "--alpha-max", "1.5", "--out", str(out)]) == EXIT_OK
    row = read_csv(out)[0]
    src = SourceParams(alpha=1.5)

    def value(t):
        return catalysis.log_negativity(catalysis.schmidt_spectrum(SchemeFamily("bsqc", 1).at(t),
                                                                   src))

    assert float(row["log_negativity"]) == pytest.approx(value(float(row["t"])), rel=1e-8)
    # the refinement never does worse than the command's 61-point grid on [1e-3, 1]
    best = max(value(t) for t in _EN_GRID)
    assert float(row["log_negativity"]) >= float(format(best, ".9g"))


def test_entanglement_of_the_vacuum_prints_t_one_and_no_negative_zero(capsys):
    # alpha = 0: every t gives E_N 0, and t = 1 catalyses nothing
    assert main(["entanglement", "--t", "optimal", "--alpha-min", "0",
                 "--alpha-max", "0"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["scheme"], r["t"], r["log_negativity"]) for r in rows] == [
        *((kind, "1", "0") for kind in ["bsqc"] * 3 + ["ssqc"] * 3),
        ("tmsv", "", "0"), ("tmsv-closed-form", "", "0")]


@pytest.mark.parametrize("scheme,t_peak", [("bsqc", 0.074), ("ssqc", 0.0099)])
def test_optimal_entanglement_beats_the_bare_source_at_low_squeezing(capsys, scheme, t_peak):
    # at alpha 0.1 bsqc1 reaches E_N 1.045 at t = 0.074 and ssqc1 1.028 at t = 0.0099,
    # against the bare source's 0.288; neither peak lies in the grid's lowest cell
    assert main(["entanglement", "--t", "optimal", "--scheme", scheme, "--n", "1",
                 "--alpha-min", "0.1", "--alpha-max", "0.1"]) == EXIT_OK
    rows = {r["scheme"]: r for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}
    scan = catalysis.log_negativity(catalysis.schmidt_spectrum(
        SchemeFamily(scheme, 1).at(t_peak), SourceParams(0.1)))
    assert float(rows[scheme]["log_negativity"]) >= scan - 1e-8
    assert float(rows[scheme]["log_negativity"]) > float(rows["tmsv"]["log_negativity"])
    assert _EN_GRID[1] < float(rows[scheme]["t"]) < 0.5


@pytest.mark.parametrize("argv, header", [
    (["success-prob", "--scheme", "original", *SINGLE_ALPHA], "alpha,scheme,m,n,t,p_success"),
    (["entanglement", "--scheme", "bsqc", "--n", "1", *SINGLE_ALPHA],
     "alpha,scheme,m,n,t,log_negativity"),
    (["keyrate", "--scheme", "original", "--d-min", "100", "--d-max", "100"],
     "distance_km,scheme,m,n,t,p_success,i_ab,holevo,key_rate,plob"),
    (["excess-noise", "--scheme", "original", "--d-min", "100", "--d-max", "100"],
     "distance_km,scheme,m,n,eps_max"),
    (["max-distance", "--scheme", "original"], "scheme,m,n,epsilon,floor,max_distance_km"),
    (["verify"], "check,max_abs_deviation,tolerance,status"),
])
def test_csv_headers(capsys, argv, header):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.split("\n", 1)[0] == header


def test_json_columns_keep_the_csv_order(capsys):
    argv = ["max-distance", "--scheme", "original", "--format", "json"]
    assert main(argv) == EXIT_OK
    columns = json.loads(capsys.readouterr().out)["columns"]
    assert list(columns) == ["scheme", "m", "n", "epsilon", "floor", "max_distance_km"]


def test_keyrate_json_structure(tmp_path):
    out = tmp_path / "rates.json"
    args = ["keyrate", "--scheme", "original", "--d-min", "0", "--d-max", "0",
            "--d-step", "1", "--format", "json", "--out", str(out)]
    assert main(args) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"metadata", "columns"}
    assert payload["metadata"]["version"]
    assert payload["metadata"]["epsilon"] == 0.01
    cols = payload["columns"]
    assert list(cols["distance_km"]) == [0.0]
    # the repeaterless bound is infinite on a lossless channel: JSON gets null
    assert cols["plob"] == [None]
    assert cols["key_rate"][0] > 0.0


def test_keyrate_respects_the_plob_bound(tmp_path):
    out = tmp_path / "rates.csv"
    args = ["keyrate", "--d-min", "10", "--d-max", "60", "--d-step", "25",
            "--out", str(out)]
    assert main(args) == EXIT_OK
    for row in read_csv(out):
        assert float(row["key_rate"]) <= float(row["plob"])
        if row["scheme"] == "original":
            assert row["m"] == "" and row["t"] == ""


def test_keyrate_optimal_transmittance(tmp_path):
    out = tmp_path / "opt.csv"
    args = ["keyrate", "--scheme", "bsqc", "--n", "1", "--t", "optimal",
            "--d-min", "50", "--d-max", "50", "--d-step", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    (row,) = read_csv(out)
    assert 0.5 <= float(row["t"]) <= 1.0
    assert float(row["key_rate"]) > 0.0


def test_keyrate_optimal_rows_follow_the_distance_grid(tmp_path):
    # the sweep searches scheme by scheme; the rows still come distance by distance
    out = tmp_path / "opt.csv"
    assert main(["keyrate", "--t", "optimal", "--d-min", "0", "--d-max", "500",
                 "--d-step", "100", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 6 * 7
    source = SourceParams.from_variance(20.0)
    for row in rows:
        assert row["distance_km"] == str(int(row["distance_km"]))
        if row["scheme"] == "original":
            assert row["t"] == ""
            continue
        family = SchemeFamily(row["scheme"], int(row["n"]))
        ch = ChannelParams.from_distance(float(row["distance_km"]), 0.01)
        opt = optimal_transmittances(ProtocolParams(source, family), [ch])[0]
        assert row["t"] == format(opt.t, ".9g")
    assert [r["distance_km"] for r in rows[::7]] == ["0", "100", "200", "300", "400", "500"]


_FAR = ["--variance", "1e6", "--d-min", "1e-9", "--d-max", "20000", "--d-step", "19999"]


@pytest.mark.parametrize("argv, message", [
    # 1e-9 km alone fails numerically at V = 1e6, and the fibre at 20000 km has transmittance 0
    (["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--epsilon", "0", *_FAR],
     "channel transmittance 0.0 outside (0, 1]"),
    (["excess-noise", *_FAR], "channel transmittance 0.0 outside (0, 1]"),
    # at 15500 km the channel noise (1 - tc)/tc overflows; 15000 km alone has a row
    (["keyrate", "--t", "optimal", "--scheme", "subtraction", "--d-min", "15000",
      "--d-max", "15800", "--d-step", "500"],
     "channel noise (1 - tc)/tc + epsilon overflows at tc=1e-310, epsilon=0.01"),
    (["excess-noise", "--d-min", "0", "--d-max", "20000", "--d-step", "10000"],
     "channel transmittance 0.0 outside (0, 1]"),
    # an attenuation that is no fibre's is refused by name, not by the transmittance it gives
    (["keyrate", "--atten-db-km=-0.2", "--d-min", "0", "--d-max", "10"],
     "attenuation must be finite and non-negative, got -0.2 dB/km"),
    (["excess-noise", "--atten-db-km=nan", "--d-min", "0", "--d-max", "10"],
     "attenuation must be finite and non-negative, got nan dB/km"),
    (["max-distance", "--atten-db-km=-0.2"],
     "attenuation must be finite and non-negative, got -0.2 dB/km"),
], ids=["keyrate-near-failure", "excess-noise-near-failure", "keyrate-noise-overflow",
        "excess-noise-zero-transmittance", "keyrate-negative-attenuation",
        "excess-noise-nan-attenuation", "max-distance-negative-attenuation"])
def test_a_refused_distance_fails_the_sweep_before_any_search(monkeypatch, capsys, argv,
                                                               message):
    def no_search(p):
        raise AssertionError("searched before every channel was built")

    monkeypatch.setattr(optimize, "_grid", no_search)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"catqkd: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # Bob's variance 1e198 after the channel: its square overflows a float
    (["keyrate", "--epsilon", "1e200", "--d-min", "100", "--d-max", "100"],
     "catqkd: numerical error: symplectic invariant overflows a float at Bob's variance "
     "1e+198 after the channel\n"),
    # tc = 1e-308 and xi = 1e308, one step before the channel is refused
    (["keyrate", "--scheme", "original", "--d-min", "15400", "--d-max", "15400"],
     "catqkd: numerical error: mutual information overflows a float: (x + 1)(y + xi) is inf "
     "at x=19.999999999999996, y=19.999999999999996, xi=1e+308\n"),
    # both checks fail at xi = 1e307: (x + 1)(y + xi) is inf, and so would be the square of
    # Bob's variance 1e307; the mutual information is checked first
    (["keyrate", "--scheme", "original", "--epsilon", "1e307", "--d-min", "0", "--d-max", "0"],
     "catqkd: numerical error: mutual information overflows a float: (x + 1)(y + xi) is inf "
     "at x=19.999999999999996, y=19.999999999999996, xi=1e+307\n"),
    # at bsqc1's t = 0.5 on the same channel x is small enough for (x + 1)(y + xi) to stay
    # finite, so the symplectic invariant's square is the first to overflow
    (["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--epsilon", "1e307",
      "--d-min", "0", "--d-max", "0"],
     "catqkd: numerical error: symplectic invariant overflows a float at Bob's variance "
     "1e+307 after the channel at t=0.5 on ChannelParams(tc=1.0, epsilon=1e+307)\n"),
    # the bare source's covariance squares V
    (["keyrate", "--scheme", "original", "--variance", "1e155", "--d-min", "100", "--d-max", "100"],
     "catqkd: numerical error: the covariance of the two-mode squeezed vacuum "
     "overflows a float: V**2 is inf at V=9.999999999999999e+154\n"),
    # a source variance that is not finite is refused as input, and so is an alpha whose
    # variance 2 alpha**2 + 1 overflows
    (["keyrate", "--scheme", "original", "--variance", "inf", "--d-min", "100", "--d-max", "100"],
     "catqkd: error: quadrature variance must be finite and >= 1, got inf\n"),
    (["max-distance", "--scheme", "original", "--variance", "nan"],
     "catqkd: error: quadrature variance must be finite and >= 1, got nan\n"),
    (["entanglement", "--alpha-min", "1e200", "--alpha-max", "1e200"],
     "catqkd: error: alpha=1e+200 overflows the variance 2*alpha**2 + 1\n"),
    # at the grid's t = 1 the catalyser returns the source, whose z**2 overflows
    (["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--variance", "2e200",
      "--d-min", "100", "--d-max", "100"],
     "catqkd: numerical error: the covariance overflows a float: z**2 is out of range "
     "at z=2e+200 (x=2e+200, y=2e+200)\n"),
])
def test_overflows_are_refused_with_the_quantity(capsys, argv, message):
    assert main(argv) == (EXIT_NUMERIC if "numerical error" in message else EXIT_USAGE)
    assert capsys.readouterr() == ("", message)


def test_entanglement_of_a_source_whose_lam_rounds_to_one(tmp_path):
    out = tmp_path / "en.csv"
    assert main(["entanglement", "--alpha-min", "1e9", "--alpha-max", "1e9",
                 "--out", str(out)]) == EXIT_OK
    rows = {row["scheme"]: row["log_negativity"] for row in read_csv(out)}
    assert rows["tmsv"] == "61.7947057"
    assert rows["tmsv-closed-form"] == "2"


def test_subtraction_keeps_its_key_on_a_strong_source(tmp_path):
    # at V = 1e20, lam**2 rounds to 1: the success probability used to read 0
    out = tmp_path / "sub.csv"
    assert main(["keyrate", "--t", "optimal", "--scheme", "subtraction", "--variance", "1e20",
                 "--d-min", "100", "--d-max", "100", "--out", str(out)]) == EXIT_OK
    (row,) = read_csv(out)
    assert row["t"] == "0.657517361"
    assert float(row["p_success"]) == pytest.approx(5.84e-20, rel=1e-3)
    assert float(row["key_rate"]) == pytest.approx(9.33e-23, rel=1e-3)


def test_grid_pass_refuses_an_overflow_without_numpy_warnings(capsys):
    # Bob's variance 1e148 after the channel: the grid pass's squares overflow
    # under numpy, which must not warn before the scalar formula's refusal
    p = ProtocolParams(SourceParams.from_variance(20.0), SchemeFamily("bsqc", 1))
    ch = ChannelParams.from_distance(100.0, 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError) as grid:
            optimal_transmittances(p, [ch])
        assert main(["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--epsilon",
                     "1e150", "--d-min", "100", "--d-max", "100"]) == EXIT_NUMERIC
    assert str(grid.value) == ("symplectic invariant overflows a float at Bob's variance 1e+148 "
                               f"after the channel at t=0.5 on {ch}")
    assert capsys.readouterr() == ("", f"catqkd: numerical error: {grid.value}\n")


def test_fixed_t_commands_reject_optimal(capsys):
    assert main(["success-prob", "--t", "optimal", *SINGLE_ALPHA]) == EXIT_USAGE
    assert "fixed --t" in capsys.readouterr().err


def test_scheme_flag_validation(capsys):
    refusal = ("", "catqkd: error: --n applies to --scheme bsqc or ssqc only\n")
    for scheme in ([], ["--scheme", "original"], ["--scheme", "subtraction"]):
        assert main(["success-prob", *scheme, "--n", "1", *SINGLE_ALPHA]) == EXIT_USAGE
        assert capsys.readouterr() == refusal
    assert main(["keyrate", "--scheme", "subtraction", "--n", "1"]) == EXIT_USAGE
    assert capsys.readouterr() == refusal


@pytest.mark.parametrize("n", ["9", "-1"])
@pytest.mark.parametrize("scheme", ["bsqc", "ssqc"])
def test_photon_number_out_of_range_is_named(capsys, scheme, n):
    assert main(["success-prob", "--scheme", scheme, "--n", n, *SINGLE_ALPHA]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"catqkd: error: photon number {n} outside 0..5\n")


def test_excess_noise_matches_library(tmp_path):
    out = tmp_path / "noise.csv"
    args = ["excess-noise", "--scheme", "original", "--d-min", "50",
            "--d-max", "50", "--d-step", "50", "--out", str(out)]
    assert main(args) == EXIT_OK
    (row,) = read_csv(out)
    direct = max_tolerable_excess_noise(
        ProtocolParams(SourceParams.from_variance(20.0)), 50.0
    )
    assert float(row["eps_max"]) == pytest.approx(direct, abs=1e-6)


def test_excess_noise_sweep_rows_follow_the_distance_grid(tmp_path):
    out = tmp_path / "noise.csv"
    assert main(["excess-noise", "--d-min", "0", "--d-max", "100", "--d-step", "50",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert [(r["distance_km"], r["scheme"], r["n"]) for r in rows[:7]] == [
        ("0", "original", ""), ("0", "bsqc", "0"), ("0", "bsqc", "1"), ("0", "ssqc", "0"),
        ("0", "ssqc", "1"), ("0", "subtraction", ""), ("50", "original", "")]
    assert len(rows) == 18


def _stdout_rows(capsys, argv):
    assert main(argv) == EXIT_OK
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


@pytest.mark.parametrize("command", ["keyrate", "excess-noise"])
@pytest.mark.parametrize("scheme", [["original"], ["ssqc", "--n", "1"]])
def test_attenuation_and_distance_enter_as_their_product(capsys, command, scheme):
    # 0.4 dB/km x 50 km and the default 0.2 dB/km x 100 km both round to 20.0 dB
    (doubled,) = _stdout_rows(capsys, [command, "--scheme", *scheme, "--atten-db-km", "0.4",
                                       "--d-min", "50", "--d-max", "50"])
    (default,) = _stdout_rows(capsys, [command, "--scheme", *scheme,
                                       "--d-min", "100", "--d-max", "100"])
    assert (doubled.pop("distance_km"), default.pop("distance_km")) == ("50", "100")
    assert doubled == default


def test_halving_the_attenuation_doubles_the_reach(capsys):
    def reach(*flags):
        (row,) = _stdout_rows(capsys, ["max-distance", "--scheme", "bsqc", "--n", "1", *flags])
        return float(row["max_distance_km"])

    assert reach("--atten-db-km", "0.1") == pytest.approx(2 * reach(), abs=2 * 0.1)

def test_max_distance_subcommand(tmp_path):
    out = tmp_path / "reach.csv"
    args = ["max-distance", "--scheme", "original", "--epsilon", "0.01",
            "--floor", "1e-6", "--out", str(out)]
    assert main(args) == EXIT_OK
    (row,) = read_csv(out)
    assert 85.0 < float(row["max_distance_km"]) < 95.0


@pytest.mark.parametrize("floor", ["nan", "inf", "0"])
def test_max_distance_refuses_a_floor_that_is_not_positive_and_finite(capsys, floor):
    assert main(["max-distance", "--scheme", "original", "--floor", floor]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "key-rate floor must be positive and finite" in err


@pytest.mark.parametrize("argv,what", [
    (["keyrate", "--d-max", "inf"], "distance"),
    (["keyrate", "--d-min=-inf"], "distance"),
    (["keyrate", "--d-step", "nan"], "distance"),
    (["keyrate", "--d-step", "inf"], "distance"),
    (["keyrate", "--d-min", "0", "--d-max", "1", "--d-step", "1e-300"], "distance"),
    (["excess-noise", "--d-min", "0", "--d-max", "1e7", "--d-step", "1"], "distance"),
    (["keyrate", "--d-min", "5", "--d-max", "1"], "distance"),
    (["success-prob", "--alpha-step", "nan"], "alpha"),
    (["entanglement", "--alpha-max", "nan"], "alpha"),
])
def test_bad_sweep_grids_are_usage_errors(capsys, argv, what):
    # refused before a single point is built: no float-to-int error, no endless list
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"bad {what} grid" in err


def _usage_error(capsys, argv):
    """The last line argparse prints for a usage error, which exits 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    return capsys.readouterr().err.splitlines()[-1]


def test_flag_file_prints_the_bytes_of_its_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep defaults\n"
        "variance = 9  # alpha = 2\n"
        "\n"
        "epsilon = 0.05\n"
        "d-min = 10\n"
        "d_max = 10\n"
        "d-step = 1\n"
    )
    base = ["keyrate", "--scheme", "original"]
    flags = ["--variance", "9", "--epsilon", "0.05", "--d-min", "10", "--d-max", "10",
             "--d-step", "1"]
    for output in ([], ["--format", "json"]):  # the JSON metadata echoes every flag
        assert main([*base, *flags, *output]) == EXIT_OK
        given = capsys.readouterr()
        assert main([*base, f"@{config}", *output]) == EXIT_OK
        assert capsys.readouterr() == given


def test_flag_file_precedence_goes_by_position(tmp_path, capsys):
    first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
    first.write_text("variance = 5\nd-min = 10\nd-max = 10\n")
    last.write_text("variance = 7\n")
    base = ["keyrate", "--scheme", "original", "--d-min", "10", "--d-max", "10"]
    assert main([*base, "--variance", "7"]) == EXIT_OK
    seven = capsys.readouterr()
    assert main([*base, "--variance", "5"]) == EXIT_OK
    five = capsys.readouterr()
    assert five != seven
    for argv, expected in (([f"@{first}", "--variance", "7"], seven),  # a later flag wins
                           (["--variance", "7", f"@{first}"], five),  # an earlier one loses
                           ([f"@{first}", f"@{last}"], seven),
                           ([f"@{last}", f"@{first}"], five)):
        assert main([*base, *argv]) == EXIT_OK
        assert capsys.readouterr() == expected


def test_flag_file_value_may_start_with_a_minus(tmp_path, capsys):
    # the file's line reaches argparse as the one token --d-min=-1e3, not as a flag of its own
    config = tmp_path / "run.cfg"
    config.write_text("d-min = -1e3\n")
    base = ["keyrate", "--scheme", "original", "--d-max", "10"]
    assert main([*base, "--d-min=-1e3"]) == EXIT_USAGE
    given = capsys.readouterr()
    assert given == ("", "catqkd: error: distance must be non-negative, got -1000.0\n")
    assert main([*base, f"@{config}"]) == EXIT_USAGE
    assert capsys.readouterr() == given


@pytest.mark.parametrize("argv,entries,message", [
    (["keyrate"], "no_such_option = 1\n", "catqkd: error: unrecognized arguments: "
                                          "--no-such-option=1"),
    # excess-noise searches over the excess noise
    (["excess-noise"], "epsilon = 0.02\n", "catqkd: error: unrecognized arguments: "
                                           "--epsilon=0.02"),
    # one file cannot name another
    (["keyrate"], "config = other.cfg\n", "catqkd: error: unrecognized arguments: "
                                          "--config=other.cfg"),
    (["keyrate"], "= 5\n", "catqkd: error: unrecognized arguments: = 5"),
    # a bare key is the flag alone, and every flag takes a value
    (["keyrate"], "variance = 9\nepsilon\n", "catqkd keyrate: error: argument --epsilon: "
                                              "expected one argument"),
    (["verify"], "seed\n", "catqkd verify: error: argument --seed: expected one argument"),
    # no signal-arm photon number: --n names the family's photons
    (["success-prob", *SINGLE_ALPHA], "scheme = bsqc\nm = 1\n",
     "catqkd: error: unrecognized arguments: --m=1"),
    # the link commands take their source as --variance alone
    *(([command], "alpha = 2\n", "catqkd: error: unrecognized arguments: --alpha=2")
      for command in ("keyrate", "excess-noise", "max-distance")),
])
def test_flag_file_entries_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, argv,
                                                                       entries, message):
    config = tmp_path / "run.cfg"
    config.write_text(entries)
    assert _usage_error(capsys, [*argv, f"@{config}"]) == message


def test_misplaced_or_unreadable_flag_file_is_a_usage_error(tmp_path, capsys):
    config, missing = tmp_path / "run.cfg", tmp_path / "missing.cfg"
    config.write_text("variance = 9\n")
    # before the subcommand, the file's flags reach the top-level parser
    assert _usage_error(capsys, [f"@{config}", "keyrate"]) == (
        "catqkd: error: unrecognized arguments: --variance=9")
    unread = f"catqkd: error: [Errno 2] No such file or directory: '{missing}'"
    assert _usage_error(capsys, ["keyrate", f"@{missing}"]) == unread
    assert _usage_error(capsys, ["keyrate", "@"]) == (
        "catqkd: error: [Errno 2] No such file or directory: ''")
    # every argument that starts with '@' names a file, a flag's value too
    assert _usage_error(capsys, ["keyrate", "--out", f"@{missing}"]) == unread


@pytest.mark.parametrize("scheme", ["bsqc", "ssqc"])
def test_catalysis_scheme_without_photon_number_catalyses_none(capsys, scheme):
    argv = ["success-prob", "--scheme", scheme, *SINGLE_ALPHA]
    assert main([*argv, "--n", "0"]) == EXIT_OK
    explicit = capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == explicit


def test_errors_print_one_line_and_exit_with_their_code(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["success-prob", *SINGLE_ALPHA, "--out", str(target)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"catqkd: error: [Errno 2] No such file or directory: '{target}'\n")
    # big - root cancels to 0 at this noise
    assert main(["keyrate", "--scheme", "original", "--epsilon", "1e12", "--d-min", "100",
                 "--d-max", "100"]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", "catqkd: numerical error: unphysical state: "
                                       "symplectic eigenvalue 0.0 < 1\n")


def test_cells_print_floats_at_nine_digits():
    assert [_cell(v) for v in (None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 3,
                               1.0 / 3.0)] == ["", "nan", "inf", "-inf", "-0", "4.94065646e-324",
                                               "3", "0.333333333"]


def test_unwritable_output_exits_one(tmp_path):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["success-prob", *SINGLE_ALPHA, "--out", str(target)]) == EXIT_USAGE


def test_verify_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    capsys.readouterr()


def test_verify_failure_exits_three_and_names_the_check(monkeypatch, capsys):
    from catqkd import verify

    rows = [("symplectic-eigenvalues", 2.5e-9, 1e-9), ("beamsplitter-orthogonality", 0.0, 1e-10)]
    monkeypatch.setattr(verify, "checks", lambda seed: rows)
    assert main(["verify"]) == EXIT_VERIFY
    out, err = capsys.readouterr()
    table = list(csv.DictReader(io.StringIO(out)))
    assert [(r["check"], r["status"]) for r in table] == [
        ("symplectic-eigenvalues", "FAIL"), ("beamsplitter-orthogonality", "PASS")]
    assert err == "FAIL symplectic-eigenvalues: 2.5e-09 > 1e-09\n"


def test_verify_negative_seed_is_a_usage_error(capsys):
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "catqkd: error: seed must be non-negative, got -1\n"


def test_the_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    argv = ["success-prob", "--t", "0.9", *SINGLE_ALPHA]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--t", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "outside (0, 1]" in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == first
