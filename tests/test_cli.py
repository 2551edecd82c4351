"""Command-line interface: schemas, determinism, exit codes, config files."""

import csv
import json
import math

import pytest

from catqkd import ChannelParams, ProtocolParams, SchemeFamily, SourceParams
from catqkd.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from catqkd.optimize import max_tolerable_excess_noise, optimize_transmittance

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


_OUTPUT = {"out", "format", "config"}
_SCHEME = {"scheme", "m", "n"}
_LINK = {"alpha", "variance", "beta", "atten_db_km"}
_ALPHA_GRID = {"alpha_min", "alpha_max", "alpha_step"}
_DISTANCE_GRID = {"d_min", "d_max", "d_step"}
FLAGS = {  # every subcommand takes exactly the flags it reads
    "success-prob": _SCHEME | {"t"} | _ALPHA_GRID | _OUTPUT,
    "entanglement": _SCHEME | {"t"} | _ALPHA_GRID | _OUTPUT,
    "keyrate": _SCHEME | {"t", "epsilon"} | _LINK | _DISTANCE_GRID | _OUTPUT,
    "excess-noise": _SCHEME | _LINK | _DISTANCE_GRID | _OUTPUT,
    "max-distance": _SCHEME | {"epsilon", "floor"} | _LINK | _OUTPUT,
    "verify": {"seed", "cutoff", "flip_bs_sign"} | _OUTPUT,
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    _, registry = build_parser()
    dests = {name: {a.dest for a in sp._actions if a.dest != "help"}
             for name, sp in registry.items()}
    assert dests == FLAGS
    assert sum(map(len, dests.values())) == 66


@pytest.mark.parametrize("argv", [
    ["verify", "--variance", "5"],
    ["excess-noise", "--epsilon", "0.02"],
    ["max-distance", "--t", "0.9"],
    ["keyrate", "--floor", "1e-6"],
    ["success-prob", "--beta", "0.9"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


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
        opt = optimize_transmittance(ProtocolParams(source, family), ch)
        assert row["t"] == format(opt.t, ".9g")
    assert [r["distance_km"] for r in rows[::7]] == ["0", "100", "200", "300", "400", "500"]


# the nearer channels have subnormal transmittances, whose rates take inf - inf
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_keyrate_optimal_refused_channel_fails_after_nearer_distances(capsys):
    # 16200 km has transmittance 0; 16000 and 16100 km are swept first
    assert main(["keyrate", "--t", "optimal", "--scheme", "subtraction", "--d-min", "16000",
                 "--d-max", "16400", "--d-step", "100"]) == EXIT_USAGE
    assert capsys.readouterr().err == "catqkd: error: channel transmittance 0.0 outside (0, 1]\n"
    # a numerical refusal at a nearer distance comes first
    assert main(["keyrate", "--t", "optimal", "--scheme", "bsqc", "--n", "1", "--variance", "1e6",
                 "--epsilon", "0", "--d-min", "0", "--d-max", "1e-6",
                 "--d-step", "1e-7"]) == EXIT_NUMERIC
    assert "symplectic eigenvalue" in capsys.readouterr().err


def test_fixed_t_commands_reject_optimal(capsys):
    assert main(["success-prob", "--t", "optimal", *SINGLE_ALPHA]) == EXIT_USAGE
    assert "fixed --t" in capsys.readouterr().err


def test_scheme_flag_validation(capsys):
    assert main(["success-prob", "--scheme", "bsqc", "--m", "1", "--n", "2",
                 *SINGLE_ALPHA]) == EXIT_USAGE
    assert "symmetric" in capsys.readouterr().err
    assert main(["success-prob", "--scheme", "ssqc", "--m", "1",
                 *SINGLE_ALPHA]) == EXIT_USAGE
    assert main(["success-prob", "--m", "1", *SINGLE_ALPHA]) == EXIT_USAGE
    assert main(["keyrate", "--scheme", "subtraction", "--n", "1"]) == EXIT_USAGE


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


def test_excess_noise_refused_channel_fails_after_nearer_distances(capsys):
    # the fibre at 19999 km has transmittance 0; the nearer distance's
    # numerical error comes first, as in a distance-by-distance sweep
    near_error = ["excess-noise", "--variance", "1e6", "--d-min", "1e-9",
                  "--d-max", "20000", "--d-step", "19999"]
    assert main(near_error) == EXIT_NUMERIC
    assert "symplectic eigenvalue" in capsys.readouterr().err
    assert main(["excess-noise", "--d-min", "0", "--d-max", "20000",
                 "--d-step", "10000"]) == EXIT_USAGE
    assert "channel transmittance 0.0" in capsys.readouterr().err


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


def test_config_file_splice_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep defaults\n"
        "alpha = 2\n"
        "epsilon = 0.05\n"
        "d-min = 10\n"
        "d_max = 10\n"
        "d-step = 1\n"
    )
    out = tmp_path / "rates.json"
    args = ["keyrate", "--scheme", "original", "--config", str(config),
            "--epsilon", "0.02", "--format", "json", "--out", str(out)]
    assert main(args) == EXIT_OK
    meta = json.loads(out.read_text())["metadata"]
    assert meta["alpha"] == 2.0
    assert meta["epsilon"] == 0.02  # explicit flag wins over the file
    assert meta["d_min"] == 10.0


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_option = 1\n")
    assert main(["keyrate", "--config", str(bad)]) == EXIT_USAGE
    assert "unknown option" in capsys.readouterr().err
    unread = tmp_path / "unread.cfg"
    unread.write_text("epsilon = 0.02\n")  # excess-noise searches over the excess noise
    assert main(["excess-noise", "--config", str(unread)]) == EXIT_USAGE
    assert "unknown option 'epsilon'" in capsys.readouterr().err
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {bad}\n")
    assert main(["keyrate", "--config", str(nested)]) == EXIT_USAGE
    assert "nest" in capsys.readouterr().err
    assert main(["keyrate", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_unwritable_output_exits_one(tmp_path):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["success-prob", *SINGLE_ALPHA, "--out", str(target)]) == EXIT_USAGE


def test_verify_passes_both_sign_conventions(capsys):
    assert main(["verify"]) == EXIT_OK
    assert main(["verify", "--flip-bs-sign"]) == EXIT_OK
    capsys.readouterr()


def test_verify_with_starved_cutoff_is_a_numeric_error(capsys):
    assert main(["verify", "--cutoff", "20"]) == EXIT_NUMERIC
    assert "cutoff" in capsys.readouterr().err


def test_verify_negative_cutoff_is_a_usage_error(capsys):
    assert main(["verify", "--cutoff", "-1"]) == EXIT_USAGE
    assert "cutoff must be non-negative" in capsys.readouterr().err
