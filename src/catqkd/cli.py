"""Command-line sweeps and verification for the heralded-source key-rate study.

Subcommands
-----------
success-prob   heralding probability versus squeezing amplitude
entanglement   logarithmic negativity versus squeezing amplitude
keyrate        key rate versus distance, fixed or optimised transmittance
excess-noise   maximal tolerable excess noise versus distance (optimal T)
max-distance   largest distance keeping the optimised rate above a floor
verify         closed forms against the Fock-space oracle; exit 3 on failure

Output is a CSV table (header always present, floats at 9 significant
digits) or a JSON object with the same columns plus echoed inputs.  Rows
are computed and written in grid order, so runs with equal inputs are
byte-identical.  Exit codes: 0 ok, 1 usage error, 2 numerical failure,
3 verification failure.  A refused distance anywhere in a sweep's grid
exits 1 before anything is computed.  The searches run scheme by scheme
over the whole grid, so where several fail the numerical error reported
is the first failing scheme's.

An argument ``@FILE`` after the subcommand stands for the flags of FILE,
one a line: ``key = value`` is ``--key=value`` (``_`` in a key reads as
``-``), a bare ``key`` is ``--key`` and ``#`` starts a comment.
argparse reads them in place, so of a flag given twice the later one wins.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from collections.abc import Sequence

from . import __version__, catalysis, subtraction
from .catalysis import SourceParams
from .keyrate import (CATALYSIS_FAMILIES, DEFAULT_ATTENUATION_DB_PER_KM, ChannelParams,
                      ProtocolParams, SchemeFamily, plob_bound, secret_key_rate)
from .optimize import (max_distance, max_tolerable_excess_noise, optimal_log_negativity,
                       optimal_transmittances)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

_SCHEME_CHOICES = ("bsqc", "ssqc", "subtraction", "original")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 and ``@FILE`` lines read as flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def convert_arg_line_to_args(self, arg_line):
        """``key = value`` as the one token ``--key=value``, so a value may start with '-'."""
        entry = arg_line.split("#", 1)[0].strip()
        key, eq, value = (part.strip() for part in entry.partition("="))
        if not key:  # argparse refuses a line with no key, so it gets it as it is
            return [entry] if entry else []
        flag = "--" + key.replace("_", "-")
        return [f"{flag}={value}"] if eq else [flag]


def _t_value(text: str):
    if text.lower() == "optimal":
        return "optimal"
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"transmittance {value} outside (0, 1]")
    return value


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_scheme(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scheme", choices=_SCHEME_CHOICES, default=None,
                    help="single scheme instead of the command's default set")
    sp.add_argument("--n", type=int, default=None,
                    help="catalysed photon number of bsqc or ssqc (default 0)")


def _add_t(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", type=_t_value, default=0.95,
                    help="beam-splitter transmittance, a float or 'optimal'")


def _add_link(sp: argparse.ArgumentParser) -> None:
    """The source, the reconciliation efficiency and the fibre attenuation."""
    sp.add_argument("--variance", type=float, default=20.0,
                    help="source quadrature variance in shot-noise units")
    sp.add_argument("--beta", type=float, default=0.95, help="reconciliation efficiency")
    sp.add_argument("--atten-db-km", type=float, default=DEFAULT_ATTENUATION_DB_PER_KM,
                    dest="atten_db_km", help="fibre attenuation in dB/km")


def _add_epsilon(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--epsilon", type=float, default=0.01, help="channel excess noise")


def _add_floor(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--floor", type=float, default=1e-6,
                    help="minimal usable key rate in bits per pulse")


def _add_verify(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0, help="seed for randomised spot checks")


def _add_alpha_grid(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha-min", type=float, default=0.0, dest="alpha_min")
    sp.add_argument("--alpha-max", type=float, default=3.0, dest="alpha_max")
    sp.add_argument("--alpha-step", type=float, default=0.1, dest="alpha_step")


def _add_distance_grid(sp: argparse.ArgumentParser, d_min: float, d_max: float, d_step: float) -> None:
    sp.add_argument("--d-min", type=float, default=d_min, dest="d_min")
    sp.add_argument("--d-max", type=float, default=d_max, dest="d_max")
    sp.add_argument("--d-step", type=float, default=d_step, dest="d_step")


_MAX_GRID_STEPS = 10**6  # a sweep grid has at most this many points, plus its end point


def _grid(lo: float, hi: float, step: float, what: str) -> list[float]:
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0.0
            and 0.0 <= (hi - lo) / step <= _MAX_GRID_STEPS):
        raise ValueError(f"bad {what} grid: [{lo}, {hi}] step {step}")
    count = int(round((hi - lo) / step)) + 1 if hi > lo else 1
    points = [lo + k * step for k in range(count)]
    if points[-1] > hi + 1e-12:
        points.pop()
    if points[-1] < hi - 1e-12:
        points.append(hi)
    return points


def _fixed_t(args) -> float:
    if args.t == "optimal":
        raise ValueError(f"{args.command} needs a fixed --t, not 'optimal'")
    return args.t


def _scheme_entries(args, default: Sequence[SchemeFamily | None]) -> Sequence[SchemeFamily | None]:
    """Scheme families for the sweep; None is the original, unheralded protocol."""
    if args.n is not None and args.scheme not in ("bsqc", "ssqc"):
        raise ValueError("--n applies to --scheme bsqc or ssqc only")
    if args.scheme is None:
        return default
    if args.scheme == "original":
        return [None]
    return [SchemeFamily(args.scheme, args.n or 0)]


def _labels(family: SchemeFamily | None) -> dict:
    """The scheme, m and n columns of a row."""
    if family is None:
        return {"scheme": "original", "m": None, "n": None}
    m, n = family.photon_columns
    return {"scheme": family.kind, "m": m, "n": n}


# ---------------------------------------------------------------------------
# output


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(args, rows: list[dict]) -> int:
    """Write the rows, whose columns are the first row's keys, and return ``EXIT_OK``."""
    columns = list(rows[0])
    if args.format == "csv":
        def write(stream):
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row[c]) for c in columns])
    else:
        import json  # only JSON output needs it; CSV sweeps skip its import

        meta = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        meta["version"] = __version__
        payload = {
            "metadata": meta,
            "columns": {c: [_json_safe(row[c]) for row in rows] for c in columns},
        }

        def write(stream):
            json.dump(payload, stream, indent=2)
            stream.write("\n")

    if args.out == "-":
        write(sys.stdout)
    else:
        with open(args.out, "w", newline="") as stream:
            write(stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands


_NOISE_SET = [None, SchemeFamily("bsqc", 0), SchemeFamily("bsqc", 1), SchemeFamily("ssqc", 0),
              SchemeFamily("ssqc", 1), SchemeFamily("subtraction")]


def cmd_success_prob(args) -> int:
    t = _fixed_t(args)
    entries = _scheme_entries(args, CATALYSIS_FAMILIES)
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_step, "alpha")
    rows = []
    for alpha in alphas:
        src = SourceParams(alpha=alpha)
        for family in entries:
            # p alone, not source_state: p is defined where the covariance refuses
            pd = 1.0 if family is None else (
                subtraction if family.kind == "subtraction" else catalysis
            ).success_probability(family.at(t), src)
            rows.append({"alpha": alpha, **_labels(family), "t": t, "p_success": pd})
    return _emit(args, rows)


def cmd_entanglement(args) -> int:
    entries = _scheme_entries(args, CATALYSIS_FAMILIES)
    if any(family is None or family.kind == "subtraction" for family in entries):
        raise ValueError("entanglement sweeps cover catalysis schemes only")
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_step, "alpha")
    rows = []
    for alpha in alphas:
        src = SourceParams(alpha=alpha)
        for family in entries:
            if args.t == "optimal":
                t_used, e_n = optimal_log_negativity(family, src)
            else:
                t_used = args.t
                e_n = catalysis.log_negativity(catalysis.schmidt_spectrum(family.at(t_used), src))
            rows.append({"alpha": alpha, **_labels(family), "t": t_used, "log_negativity": e_n})
        rows.append({"alpha": alpha, "scheme": "tmsv", "m": None, "n": None, "t": None,
                     "log_negativity": catalysis.log_negativity_tmsv(src)})
        rows.append({"alpha": alpha, "scheme": "tmsv-closed-form", "m": None, "n": None,
                     "t": None,
                     "log_negativity": catalysis.log_negativity_tmsv_closed_form(src)})
    return _emit(args, rows)


def cmd_keyrate(args) -> int:
    entries = _scheme_entries(args, [None, *CATALYSIS_FAMILIES])
    distances = _grid(args.d_min, args.d_max, args.d_step, "distance")
    src = SourceParams.from_variance(args.variance)
    channels = [ChannelParams.from_distance(d, epsilon=args.epsilon,
                                            atten_db_per_km=args.atten_db_km) for d in distances]

    def transmittances(family: SchemeFamily | None) -> list:
        if family is None or args.t != "optimal":
            return [None if family is None else args.t] * len(channels)
        p = ProtocolParams(source=src, beta=args.beta, scheme=family)
        return [opt.t for opt in optimal_transmittances(p, channels)]

    t_used = [transmittances(family) for family in entries]
    rows = []
    for k, (d, ch) in enumerate(zip(distances, channels)):
        plob = plob_bound(ch.tc) if ch.tc < 1.0 else math.inf
        for family, ts in zip(entries, t_used):
            scheme = None if family is None else family.at(ts[k])
            result = secret_key_rate(ProtocolParams(source=src, beta=args.beta, scheme=scheme), ch)
            rows.append({
                "distance_km": d, **_labels(family), "t": ts[k],
                "p_success": result.p_success, "i_ab": result.i_ab,
                "holevo": result.holevo, "key_rate": result.key_rate, "plob": plob,
            })
    return _emit(args, rows)


def cmd_excess_noise(args) -> int:
    entries = _scheme_entries(args, _NOISE_SET)
    distances = _grid(args.d_min, args.d_max, args.d_step, "distance")
    src = SourceParams.from_variance(args.variance)
    limits = [max_tolerable_excess_noise(ProtocolParams(source=src, beta=args.beta, scheme=family),
                                         distances, atten_db_per_km=args.atten_db_km)
              for family in entries]
    rows = [{"distance_km": d, **_labels(family), "eps_max": eps[k]}
            for k, d in enumerate(distances) for family, eps in zip(entries, limits)]
    return _emit(args, rows)


def cmd_max_distance(args) -> int:
    entries = _scheme_entries(args, _NOISE_SET)
    src = SourceParams.from_variance(args.variance)
    rows = []
    for family in entries:
        p = ProtocolParams(source=src, beta=args.beta, scheme=family)
        d = max_distance(p, epsilon=args.epsilon, floor=args.floor,
                         atten_db_per_km=args.atten_db_km)
        rows.append({**_labels(family), "epsilon": args.epsilon, "floor": args.floor,
                     "max_distance_km": d})
    return _emit(args, rows)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    from . import verify  # imported here so the sweep commands never compile the oracle

    rows = [{"check": name, "max_abs_deviation": dev, "tolerance": tol,
             "status": "PASS" if dev <= tol else "FAIL"}
            for name, dev, tol in verify.checks(args.seed)]
    _emit(args, rows)
    failed = [r for r in rows if r["status"] == "FAIL"]
    if failed:
        for r in failed:
            print(f"FAIL {r['check']}: {r['max_abs_deviation']:.3g} > {r['tolerance']:.3g}",
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process for every ``main``."""
    parser = _Parser(prog="catqkd", description=__doc__, fromfile_prefix_chars="@",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"catqkd {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    commands = [  # name, handler, help, and the flag groups it reads besides the output flags
        ("success-prob", cmd_success_prob, "heralding probability versus alpha",
         [_add_scheme, _add_t, _add_alpha_grid]),
        ("entanglement", cmd_entanglement, "log negativity versus alpha",
         [_add_scheme, _add_t, _add_alpha_grid]),
        ("keyrate", cmd_keyrate, "key rate versus distance",
         [_add_scheme, _add_t, _add_link, _add_epsilon,
          lambda sp: _add_distance_grid(sp, 0.0, 300.0, 5.0)]),
        ("excess-noise", cmd_excess_noise, "maximal tolerable excess noise versus distance",
         [_add_scheme, _add_link, lambda sp: _add_distance_grid(sp, 50.0, 300.0, 50.0)]),
        ("max-distance", cmd_max_distance, "largest distance above the key-rate floor",
         [_add_scheme, _add_link, _add_epsilon, _add_floor]),
        ("verify", cmd_verify, "closed forms against the Fock-space oracle", [_add_verify]),
    ]
    for name, func, text, groups in commands:
        sp = subs.add_parser(name, help=text)
        for add in (*groups, _add_output):
            add(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:  # parse_args reports its own errors through SystemExit
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"catqkd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"catqkd: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
