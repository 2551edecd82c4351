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
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__, catalysis, oracle, subtraction
from .catalysis import CatalysisConfig, SourceParams
from .errors import ConsistencyError
from .keyrate import (
    DEFAULT_ATTENUATION_DB_PER_KM,
    ChannelParams,
    ProtocolParams,
    SchemeFamily,
    plob_bound,
    propagate_covariance,
    secret_key_rate,
    symplectic_eigenvalues,
)
from .optimize import max_distance, max_tolerable_excess_noise, optimal_transmittances, refine_grid_max
from .subtraction import SubtractionConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

_SCHEME_CHOICES = ("bsqc", "ssqc", "subtraction", "original")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    sp.add_argument("--config", default=None,
                    help="key=value file supplying defaults; flags override")


def _add_scheme(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scheme", choices=_SCHEME_CHOICES, default=None,
                    help="single scheme instead of the command's default set")
    sp.add_argument("--m", type=int, default=None, help="catalysed photons, signal arm")
    sp.add_argument("--n", type=int, default=None, help="catalysed photons, idler arm")


def _add_t(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", type=_t_value, default=0.95,
                    help="beam-splitter transmittance, a float or 'optimal'")


def _add_link(sp: argparse.ArgumentParser) -> None:
    """The source, the reconciliation efficiency and the fibre attenuation."""
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float, default=None,
                       help="source squeezing amplitude (default: variance 20)")
    group.add_argument("--variance", type=float, default=None,
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
    sp.add_argument("--cutoff", type=int, default=None,
                    help="override the adaptive Fock cutoff")
    sp.add_argument("--flip-bs-sign", action="store_true", dest="flip_bs_sign",
                    help="run with the opposite reflected-beam phase")


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


def _source(args) -> SourceParams:
    if args.alpha is not None:
        return SourceParams(alpha=args.alpha)
    return SourceParams.from_variance(args.variance if args.variance is not None else 20.0)


def _fixed_t(args) -> float:
    if args.t == "optimal":
        raise ValueError(f"{args.command} needs a fixed --t, not 'optimal'")
    return args.t


def _photon_number(args) -> int:
    if args.scheme == "bsqc" and args.m is not None and args.n is not None and args.m != args.n:
        raise ValueError("bsqc is symmetric: give one photon number via --m or --n")
    if args.scheme == "ssqc" and args.m not in (None, 0):
        raise ValueError("ssqc catalyses the idler arm only; --m does not apply")
    for value in (args.n, args.m):
        if value is not None:
            return value
    return 0


def _scheme_entries(args, default: list[SchemeFamily | None]) -> list[SchemeFamily | None]:
    """Scheme families for the sweep; None is the original, unheralded protocol."""
    if args.scheme is None:
        if args.m is not None or args.n is not None:
            raise ValueError("--m/--n need an explicit --scheme")
        return default
    if args.scheme in ("subtraction", "original"):
        if args.m is not None or args.n is not None:
            raise ValueError("--m/--n only apply to catalysis schemes")
        return [SchemeFamily("subtraction") if args.scheme == "subtraction" else None]
    return [SchemeFamily(args.scheme, _photon_number(args))]


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
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".9g")
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(args, columns: list[str], rows: list[dict]) -> None:
    if args.format == "csv":
        def write(stream):
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in columns])
    else:
        meta = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
        meta["version"] = __version__
        payload = {
            "metadata": meta,
            "columns": {c: [_json_safe(row.get(c)) for row in rows] for c in columns},
        }

        def write(stream):
            json.dump(payload, stream, indent=2)
            stream.write("\n")

    if args.out == "-":
        write(sys.stdout)
    else:
        with open(args.out, "w", newline="") as stream:
            write(stream)


# ---------------------------------------------------------------------------
# commands


_FULL_SET = [SchemeFamily(kind, k) for kind in ("bsqc", "ssqc") for k in (0, 1, 2)]
_NOISE_SET = [None, SchemeFamily("bsqc", 0), SchemeFamily("bsqc", 1), SchemeFamily("ssqc", 0),
              SchemeFamily("ssqc", 1), SchemeFamily("subtraction")]


def cmd_success_prob(args) -> int:
    t = _fixed_t(args)
    entries = _scheme_entries(args, _FULL_SET)
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_step, "alpha")
    rows = []
    for alpha in alphas:
        src = SourceParams(alpha=alpha)
        for family in entries:
            pd = 1.0 if family is None else (
                subtraction if family.kind == "subtraction" else catalysis
            ).success_probability(family.at(t), src)
            rows.append({"alpha": alpha, **_labels(family), "t": t, "p_success": pd})
    _emit(args, ["alpha", "scheme", "m", "n", "t", "p_success"], rows)
    return EXIT_OK


def _best_log_negativity(cfg_at, src) -> tuple[float, float]:
    """Maximise the heralded log negativity over the transmittance."""

    def value(t: float) -> float:
        return catalysis.log_negativity(catalysis.schmidt_spectrum(cfg_at(t), src))

    grid = [0.5 + k * 0.01 for k in range(51)]
    return refine_grid_max(value, grid, [value(t) for t in grid], 1e-3)


def cmd_entanglement(args) -> int:
    entries = _scheme_entries(args, _FULL_SET)
    if any(family is None or family.kind == "subtraction" for family in entries):
        raise ValueError("entanglement sweeps cover catalysis schemes only")
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_step, "alpha")
    rows = []
    for alpha in alphas:
        src = SourceParams(alpha=alpha)
        for family in entries:
            if args.t == "optimal":
                t_used, e_n = _best_log_negativity(family.at, src)
            else:
                t_used = args.t
                e_n = catalysis.log_negativity(catalysis.schmidt_spectrum(family.at(t_used), src))
            rows.append({"alpha": alpha, **_labels(family), "t": t_used, "log_negativity": e_n})
        rows.append({"alpha": alpha, "scheme": "tmsv", "m": None, "n": None, "t": None,
                     "log_negativity": catalysis.log_negativity_tmsv(src)})
        rows.append({"alpha": alpha, "scheme": "tmsv-closed-form", "m": None, "n": None,
                     "t": None,
                     "log_negativity": catalysis.log_negativity_tmsv_closed_form(src)})
    _emit(args, ["alpha", "scheme", "m", "n", "t", "log_negativity"], rows)
    return EXIT_OK


def _channels(distances: list[float], **kwargs) -> tuple[list[ChannelParams], ValueError | None]:
    """The channels of the distances up to the first refused one, and its refusal."""
    channels = []
    for d in distances:
        try:
            channels.append(ChannelParams.from_distance(d, **kwargs))
        except ValueError as exc:
            return channels, exc
    return channels, None


def cmd_keyrate(args) -> int:
    entries = _scheme_entries(args, [None, *_FULL_SET])
    distances = _grid(args.d_min, args.d_max, args.d_step, "distance")
    src = _source(args)
    # A refused channel fails the sweep only after every nearer distance has
    # been swept, so the exit code is the one of a distance-by-distance sweep.
    # The optimal transmittances are searched scheme by scheme over all those
    # distances at once, so where several fail the numerical error reported
    # may name another distance or scheme.
    channels, refused = _channels(distances, epsilon=args.epsilon,
                                  atten_db_per_km=args.atten_db_km)

    def transmittances(family: SchemeFamily | None) -> list:
        if family is None or args.t != "optimal":
            return [None if family is None else args.t] * len(channels)
        p = ProtocolParams(source=src, beta=args.beta, scheme=family)
        return [opt.t for opt in optimal_transmittances(p, channels)]

    # with no channel left nothing is searched, so the channel's refusal is the error
    t_used = [transmittances(family) for family in entries] if channels else []
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
    if refused is not None:
        raise refused
    _emit(args, ["distance_km", "scheme", "m", "n", "t", "p_success", "i_ab", "holevo",
                 "key_rate", "plob"], rows)
    return EXIT_OK


def cmd_excess_noise(args) -> int:
    entries = _scheme_entries(args, _NOISE_SET)
    distances = _grid(args.d_min, args.d_max, args.d_step, "distance")
    src = _source(args)
    # A refused channel fails the sweep only after every nearer distance has
    # been searched, so the exit code is the one of a distance-by-distance
    # sweep.  The search runs scheme by scheme with the distances in
    # lockstep, so where several probes fail the error reported may name
    # another distance or scheme, and warnings come in another order.
    channels, refused = _channels(distances, atten_db_per_km=args.atten_db_km)
    searched = distances[:len(channels)]
    limits = [max_tolerable_excess_noise(ProtocolParams(source=src, beta=args.beta, scheme=family),
                                         searched, atten_db_per_km=args.atten_db_km)
              for family in entries] if searched else []
    if refused is not None:
        raise refused
    rows = [{"distance_km": d, **_labels(family), "eps_max": eps[k]}
            for k, d in enumerate(distances) for family, eps in zip(entries, limits)]
    _emit(args, ["distance_km", "scheme", "m", "n", "eps_max"], rows)
    return EXIT_OK


def cmd_max_distance(args) -> int:
    entries = _scheme_entries(args, _NOISE_SET)
    src = _source(args)
    rows = []
    for family in entries:
        p = ProtocolParams(source=src, beta=args.beta, scheme=family)
        d = max_distance(p, epsilon=args.epsilon, floor=args.floor,
                         atten_db_per_km=args.atten_db_km)
        rows.append({**_labels(family), "epsilon": args.epsilon, "floor": args.floor,
                     "max_distance_km": d})
    _emit(args, ["scheme", "m", "n", "epsilon", "floor", "max_distance_km"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


def _verify_catalysis(rows, sign, cutoff):
    devs = {"p_success": 0.0, "cov_x": 0.0, "cov_z": 0.0, "log_negativity": 0.0,
            "schmidt_norm": 0.0}
    for family in _FULL_SET:
        for t in (0.7, 0.9, 0.95):
            for alpha in (0.5, 1.0, 3.0):
                cfg = family.at(t)
                src = SourceParams(alpha=alpha)
                sim = oracle.simulate_catalysis(cfg, src, cutoff=cutoff, sign=sign)
                pd, cov = catalysis.pd_and_covariance(cfg, src)
                spec = catalysis.schmidt_spectrum(cfg, src)
                devs["p_success"] = max(devs["p_success"], abs(pd - sim.p_success))
                devs["cov_x"] = max(devs["cov_x"], abs(cov.x - sim.cov.x))
                devs["cov_z"] = max(devs["cov_z"], abs(cov.z - sim.cov.z))
                devs["log_negativity"] = max(
                    devs["log_negativity"],
                    abs(catalysis.log_negativity(spec) - sim.log_negativity))
                devs["schmidt_norm"] = max(devs["schmidt_norm"], abs(spec.squared_sum - 1.0))
    for key in ("p_success", "cov_x", "cov_z", "log_negativity"):
        rows.append(("catalysis-" + key, devs[key], 1e-6))
    rows.append(("schmidt-normalisation", devs["schmidt_norm"], 1e-8))


def _verify_subtraction(rows, sign):
    dev = 0.0
    for alpha in (0.5, 1.0, 3.0):
        for t in (0.5, 0.8, 0.95):
            cfg = SubtractionConfig(t=t)
            src = SourceParams(alpha=alpha)
            sim = oracle.simulate_subtraction(cfg, src, sign=sign)
            p1, cov = subtraction.p1_and_covariance(cfg, src)
            dev = max(dev, abs(p1 - sim.p_success), abs(cov.x - sim.cov.x),
                      abs(cov.y - sim.cov.y), abs(cov.z - sim.cov.z))
    rows.append(("subtraction-closed-forms", dev, 1e-6))


def _verify_orthogonality(rows, sign):
    dev = 0.0
    for t in (0.3, 0.7, 0.95):
        for total in range(0, 7):
            j = np.arange(total + 1)[:, None]
            p = np.arange(total + 1)
            block = oracle.bs_fock_amplitude(t, j, total - j, p, total - p, sign)
            dev = max(dev, float(np.abs(block.T @ block - np.eye(total + 1)).max()))
    rows.append(("beamsplitter-orthogonality", dev, 1e-10))


def _verify_symplectic(rows, rng):
    dev = 0.0
    for _ in range(20):
        src = SourceParams(alpha=float(rng.uniform(0.2, 3.0)))
        kind = rng.integers(0, 3)
        if kind == 0:
            cov = catalysis.tmsv_covariance(src)
        elif kind == 1:
            cfg = CatalysisConfig.bsqc(int(rng.integers(0, 3)), float(rng.uniform(0.6, 0.99)))
            cov = catalysis.output_covariance(cfg, src)
        else:
            cov = subtraction.output_covariance(
                SubtractionConfig(t=float(rng.uniform(0.5, 0.99))), src)
        ch = ChannelParams(tc=float(rng.uniform(1e-3, 1.0)), epsilon=float(rng.uniform(0.0, 0.1)))
        l1, l2, l3 = symplectic_eigenvalues(cov, ch)
        matrix = propagate_covariance(cov, ch).as_matrix()
        n1, n2 = oracle.two_mode_symplectic_numeric(matrix)
        # conditional state after a homodyne of Bob's x quadrature
        a = matrix[:2, :2]
        b = matrix[2:, 2:]
        c = matrix[:2, 2:]
        proj = np.diag([1.0, 0.0])
        cond = a - c @ np.linalg.pinv(proj @ b @ proj) @ c.T
        n3 = math.sqrt(max(np.linalg.det(cond), 0.0))
        dev = max(dev, abs(l1 - n1), abs(l2 - n2), abs(l3 - n3))
    rows.append(("symplectic-eigenvalues", dev, 1e-9))


def _verify_flip(rows, cutoff):
    dev = 0.0
    for cfg in (CatalysisConfig.bsqc(1, 0.9), CatalysisConfig.ssqc(2, 0.9)):
        src = SourceParams(alpha=1.0)
        plus = oracle.simulate_catalysis(cfg, src, cutoff=cutoff, sign=1.0)
        minus = oracle.simulate_catalysis(cfg, src, cutoff=cutoff, sign=-1.0)
        dev = max(dev, abs(plus.p_success - minus.p_success),
                  abs(plus.cov.x - minus.cov.x), abs(plus.cov.z - minus.cov.z),
                  abs(plus.log_negativity - minus.log_negativity))
    rows.append(("reflection-phase-invariance", dev, 1e-12))


def cmd_verify(args) -> int:
    sign = 1.0 if args.flip_bs_sign else -1.0
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, float, float]] = []
    _verify_orthogonality(checks, sign)
    _verify_catalysis(checks, sign, args.cutoff)
    _verify_subtraction(checks, sign)
    _verify_symplectic(checks, rng)
    _verify_flip(checks, args.cutoff)
    rows = [{"check": name, "max_abs_deviation": dev, "tolerance": tol,
             "status": "PASS" if dev <= tol else "FAIL"}
            for name, dev, tol in checks]
    _emit(args, ["check", "max_abs_deviation", "tolerance", "status"], rows)
    failed = [r for r in rows if r["status"] == "FAIL"]
    if failed:
        for r in failed:
            print(f"FAIL {r['check']}: {r['max_abs_deviation']:.3g} > {r['tolerance']:.3g}",
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="catqkd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"catqkd {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, argparse.ArgumentParser] = {}

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
        registry[name] = sp
    return parser, registry


def _expand_config(argv: list[str], registry: dict[str, argparse.ArgumentParser]) -> list[str]:
    """Splice config-file entries right after the subcommand, before user flags."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                return argv  # let argparse report the missing value
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None or not argv or argv[0] not in registry:
        return argv
    actions = {}
    for action in registry[argv[0]]._actions:
        for opt in action.option_strings:
            actions[opt.lstrip("-")] = action
    tokens: list[str] = []
    with open(path) as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "config":
                raise ValueError(f"{path}:{lineno}: config files cannot nest")
            action = actions.get(key) or actions.get(key.replace("_", "-"))
            if action is None:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            flag = action.option_strings[-1]
            if isinstance(action, argparse._StoreTrueAction):
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append(flag)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: boolean flag {key!r} got {value!r}")
            else:
                tokens.extend([flag, value])
    return [argv[0], *tokens, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        argv = _expand_config(argv, registry)
    except (OSError, ValueError) as exc:
        print(f"catqkd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"catqkd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"catqkd: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"catqkd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
