"""The state layer's contract on a fixed grid of edge inputs.

Every heralded state either comes out finite, with a success probability
in [0, 1], or is refused with ``ValueError`` or ``ConsistencyError``: no
other exception, and no inf or nan, for any family, transmittance and
source variance below.
"""

import math

import numpy as np
import pytest

from catqkd import catalysis, subtraction
from catqkd.catalysis import MAX_PHOTONS, SourceParams
from catqkd.errors import ConsistencyError
from catqkd.keyrate import SchemeFamily, source_state

EDGE_T = [5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0]
EDGE_V = [1.0, 1.0 + 1e-12, 20.0, 1e6]
FAMILIES = [SchemeFamily(kind, k) for kind in ("bsqc", "ssqc") for k in range(MAX_PHOTONS + 1)]


def _finite_probability(p):
    return math.isfinite(p) and 0.0 <= p <= 1.0


def _broken(call, ok):
    """None when ``call`` returns a value that ``ok`` accepts or refuses as the contract allows."""
    try:
        value = call()
    except (ValueError, ConsistencyError):
        return None
    except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
        return repr(exc)
    return None if ok(value) else repr(value)


@pytest.mark.parametrize("family", [*FAMILIES, SchemeFamily("subtraction")],
                         ids=lambda f: f.kind + ("" if f.kind == "subtraction" else str(f.photons)))
def test_every_edge_state_is_finite_or_refused(family):
    module = subtraction if family.kind == "subtraction" else catalysis
    broken = []
    for t in EDGE_T:
        if not family.heralds(t):
            continue
        scheme = family.at(t)
        for variance in EDGE_V:
            src = SourceParams.from_variance(variance)
            checks = {
                "source_state": (lambda: source_state(scheme, src),
                                 lambda state: _finite_probability(state[0])),
                "success_probability": (lambda: module.success_probability(scheme, src),
                                        _finite_probability),
            }
            if module is catalysis:
                checks["schmidt_spectrum"] = (
                    lambda: catalysis.schmidt_spectrum(scheme, src),
                    lambda spec: (bool(np.isfinite(spec.weights).all())
                                  and math.isfinite(spec.tail_bound)))
            for name, (call, ok) in checks.items():
                if (error := _broken(call, ok)) is not None:
                    broken.append(f"{name} at t={t!r}, V={variance!r}: {error}")
    assert broken == []
