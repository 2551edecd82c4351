"""Output checks for the benchmark's workloads.

Every row of every command is checked on every seed:

* the command exited 0, printed the reference header and as many rows as
  the reference command at the same position (grids keep their length
  under jitter);
* every number is finite (PLOB may be infinite at zero distance), every
  probability lies in (0, 1], every key rate in [0, PLOB], every
  transmittance in (0, 1], every limit inside its search interval, and
  every ``verify`` check passes;
* on the default seed, every cell matches the committed reference within
  the repository's own tolerances, and the paper's anchors hold;
* in a traced pass, every row equals the untraced pass's row.

A row that misses any check counts once as failed.  Run this file to
record ``reference.json`` again from the program in this checkout.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

_TEXT = {"scheme", "m", "n", "check", "status"}
# Reference tolerances: 1e-6 as in ``catqkd verify`` for moments and rates,
# the bisection resolutions for the limits and the optimisers' refine
# tolerances for an optimal transmittance.
_REL = 1e-6
_ABS = {"eps_max": 1e-5, "max_distance_km": 0.1}
_T_OPT = {"keyrate": 1e-4, "entanglement": 1e-3}
# Depend to first order on where the optimiser landed; covered through t.
_AT_OPTIMAL_T = {"p_success", "i_ab", "holevo"}
# (workload, subcommand, scheme, n) -> (column, paper value, tolerance):
# half a unit of the quoted digit plus the bisection resolution.
ANCHORS = {
    ("limits", "excess-noise", "bsqc", "0"): ("eps_max", 0.0293, 6e-5),
    ("limits", "excess-noise", "bsqc", "1"): ("eps_max", 0.0261, 6e-5),
    ("limits", "excess-noise", "ssqc", "1"): ("eps_max", 0.0187, 6e-5),
    ("limits", "max-distance", "bsqc", "1"): ("max_distance_km", 248.7, 0.15),
    ("limits", "max-distance", "ssqc", "1"): ("max_distance_km", 244.4, 0.15),
    ("closed-form", "max-distance", "subtraction", ""): ("max_distance_km", 218.6, 0.15),
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _table(text: str) -> tuple[list[str], list[dict[str, str] | None]]:
    """Header and rows; a row with the wrong number of cells is None."""
    lines = list(csv.reader(text.splitlines()))
    if not lines:
        return [], []
    header = lines[0]
    return header, [dict(zip(header, line)) if len(line) == len(header) else None
                    for line in lines[1:]]


def _domain(row: dict[str, str]) -> str | None:
    """First physical or numerical violation in one row, or None."""
    values = {}
    for column, cell in row.items():
        if column in _TEXT or cell == "":
            continue
        try:
            value = float(cell)
        except ValueError:
            return f"{column}={cell!r} is not a number"
        if not math.isfinite(value) and not (column == "plob" and value == math.inf
                                             and float(row["distance_km"]) == 0.0):
            return f"{column}={cell} is not finite"
        values[column] = value
    bounds = {"p_success": (0.0, 1.0), "t": (0.0, 1.0), "eps_max": (0.0, 0.2),
              "max_distance_km": (0.0, 1500.0)}
    for column, (lo, hi) in bounds.items():
        if column in values and not lo <= values[column] <= hi:
            return f"{column}={values[column]} outside [{lo}, {hi}]"
    if values.get("p_success", 1.0) <= 0.0 or values.get("t", 1.0) <= 0.0:
        return "zero success probability or transmittance"
    for column in ("i_ab", "holevo", "key_rate", "log_negativity"):
        if values.get(column, 0.0) < -1e-12:
            return f"{column}={values[column]} negative"
    if values.get("key_rate", 0.0) > values.get("plob", math.inf):
        return f"key rate {values['key_rate']} above PLOB {values['plob']}"
    if "status" in row and (row["status"] != "PASS" or not values.get(
            "max_abs_deviation", math.inf) <= values.get("tolerance", -math.inf)):
        return f"verify check {row['check']} failed"
    return None


def _against_reference(argv: list[str], row: dict[str, str], ref: dict[str, str]) -> str | None:
    optimal = "optimal" in argv
    for column, want in ref.items():
        got = row.get(column)
        if column == "max_abs_deviation" or (optimal and column in _AT_OPTIMAL_T):
            continue
        if column in _TEXT or want == "" or got == "":
            if got != want:
                return f"{column}={got!r}, reference {want!r}"
            continue
        a, b = float(got), float(want)
        if column == "t" and optimal:
            ok = abs(a - b) <= _T_OPT[argv[0]]
        elif column in _ABS:
            ok = abs(a - b) <= _ABS[column]
        else:
            ok = a == b or math.isclose(a, b, rel_tol=_REL, abs_tol=1e-12)
        if not ok:
            return f"{column}={got}, reference {want}"
    return None


def _anchor(workload: str, argv: list[str], row: dict[str, str]) -> str | None:
    key = (workload, argv[0], row.get("scheme"), row.get("n"))
    if key not in ANCHORS:
        return None
    column, value, tol = ANCHORS[key]
    got = float(row[column])
    if abs(got - value) > tol:
        return f"{column}={got} misses the paper's {value} by more than {tol}"
    return None


def check_pass(workload: str, seed: int, outputs: list[dict], reference: dict,
               baseline: list[dict] | None = None) -> tuple[int, list[str]]:
    """Rows attempted in one pass and one message per failed row.

    ``outputs`` holds the pass's commands in order (argv, exit code, text);
    ``baseline``, when given, is an untraced pass that every row must equal.
    """
    attempted, failures = 0, []
    expected = reference[workload]
    for index, out in enumerate(outputs):
        argv = out["argv"]
        ref_header, ref_rows = _table(expected[index]["text"])
        header, rows = _table(out["text"])
        where = " ".join(argv)
        attempted += max(len(rows), len(ref_rows), 1)
        if out["code"] != 0 or header != ref_header:
            failures += [f"{where}: exit {out['code']}, header {header}"] \
                * max(len(rows), len(ref_rows), 1)
            continue
        if len(rows) < len(ref_rows):
            failures += [f"{where}: {len(rows)} rows, reference {len(ref_rows)}"] \
                * (len(ref_rows) - len(rows))
        base_lines = baseline[index]["text"].splitlines()[1:] if baseline else None
        lines = out["text"].splitlines()[1:]
        compare = seed == DEFAULT_SEED and argv == expected[index]["argv"]
        for k, row in enumerate(rows):
            if k >= len(ref_rows):
                problem = "row beyond the reference's row count"
            elif row is None:
                problem = "row has the wrong number of cells"
            else:
                problem = _domain(row)
                if problem is None and compare:
                    problem = _against_reference(argv, row, ref_rows[k]) \
                        or _anchor(workload, argv, row)
            if problem is None and base_lines is not None \
                    and (k >= len(base_lines) or lines[k] != base_lines[k]):
                problem = "traced row differs from the untraced row"
            if problem is not None:
                failures.append(f"{where}: row {k + 1}: {problem}")
    return attempted, failures


def record() -> None:
    """Write reference.json from the program in this checkout, default seed."""
    import contextlib
    import io
    import sys

    import workloads

    sys.path.insert(0, str(BENCH.parent / "src"))
    from catqkd.cli import main

    reference = {}
    for workload in workloads.WORKLOADS:
        entries = []
        for argv in workloads.commands(workload, DEFAULT_SEED):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = main(list(argv))
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            entries.append({"argv": argv, "text": captured.getvalue()})
        reference[workload] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    record()
