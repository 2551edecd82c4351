"""Spans around the public functions of each ``catqkd`` module.

A :class:`Tracer` replaces each traced function with a wrapper that
records one span per call: a name, a start and end time and the id of
the enclosing span.  The wrapper is bound under every name by which a
loaded ``catqkd`` module refers to the function, so names a module took
with ``from .series import jet_mul`` are traced too, and so are calls a
module makes to its own functions.  Spans stay in memory until
:meth:`Tracer.write` saves them.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so the children cover
disjoint parts of the parent.  The layers below group span names into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> traced public functions
TRACED = {
    "catqkd.cli": ["main"],
    "catqkd.optimize": ["max_distance", "max_tolerable_excess_noise", "optimize_transmittance"],
    "catqkd.keyrate": ["secret_key_rate"],
    "catqkd.catalysis": ["pd_and_covariance", "success_probability", "schmidt_spectrum"],
    "catqkd.series": ["jet_const", "jet_var", "jet_add", "jet_sub", "jet_mul", "jet_div",
                      "jet_exp", "mixed_partial_at_zero"],
    "catqkd.subtraction": ["success_probability", "p1_and_covariance", "output_covariance"],
    "catqkd.oracle": ["bs_fock_amplitude", "adaptive_cutoff", "simulate_catalysis",
                      "simulate_subtraction", "two_mode_symplectic_numeric"],
}

BISECT = ("optimize.max_distance", "optimize.max_tolerable_excess_noise")
OPT = ("optimize.optimize_transmittance",)
MOMENTS = ("catalysis.pd_and_covariance", "catalysis.success_probability")


def _span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('catqkd.')}.{func}"


class Tracer:
    """In-memory span recorder plus the counters read off return values."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.all_zero = 0
        self.positive = 0
        self.schmidt_terms = 0
        self.moment_inputs: set = set()

    # -- recording ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` inside the loaded package."""
        import catqkd.cli  # noqa: F401  (loads every traced module)

        observers = {
            "optimize.optimize_transmittance": self._observe_opt,
            "keyrate.secret_key_rate": self._observe_rate,
            "catalysis.pd_and_covariance": self._observe_moments,
            "catalysis.success_probability": self._observe_moments,
            "catalysis.schmidt_spectrum": self._observe_schmidt,
        }
        package = [m for n, m in sys.modules.items() if n == "catqkd" or n.startswith("catqkd.")]
        for module_name, funcs in TRACED.items():
            module = sys.modules[module_name]
            for func in funcs:
                name = _span_name(module_name, func)
                original = getattr(module, func)
                wrapped = self._wrap(original, name, observers.get(name))
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, func, name: str, observe):
        label = len(self.labels)
        self.labels.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_opt(self, args, result) -> None:
        self.all_zero += bool(result.all_zero)

    def _observe_rate(self, args, result) -> None:
        self.positive += result.raw > 0.0

    def _observe_moments(self, args, result) -> None:
        self.moment_inputs.add((args[0], args[1]))

    def _observe_schmidt(self, args, result) -> None:
        self.schmidt_terms += len(result.weights)

    # -- reporting ---------------------------------------------------------

    def _arrays(self):
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        duration = np.asarray(self._end) - np.asarray(self._start)
        return name, parent, duration

    def write(self, path: Path) -> None:
        """Save every span (name id, parent id, start, end) and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, labels=np.array(self.labels), name=np.asarray(self._name),
                 parent=np.asarray(self._parent), start=np.asarray(self._start),
                 end=np.asarray(self._end))

    def summary(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed by metric name."""
        name, parent, duration = self._arrays()
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = duration - children
        ids = {label: i for i, label in enumerate(self.labels)}

        def select(prefixes) -> np.ndarray:
            wanted = [ids[label] for label in self.labels if label.startswith(prefixes)]
            return np.isin(name, wanted)

        def under(inner, outer) -> int:
            # spans of `inner` with some span of `outer` among their ancestors
            found = np.zeros(len(name), dtype=bool)
            ancestor = np.where(inner, parent, -1)
            while (ancestor >= 0).any():
                live = ancestor >= 0
                found[live] |= outer[ancestor[live]]
                ancestor[live] = parent[ancestor[live]]
            return int((found & inner).sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        cli, bisect, opt = select(("cli.",)), select(BISECT), select(OPT)
        rate, moments = select(("keyrate.",)), select(MOMENTS)
        schmidt, series = select(("catalysis.schmidt_spectrum",)), select(("series.",))
        sub, orc = select(("subtraction.",)), select(("oracle.",))
        bs_amp = select(("oracle.bs_fock_amplitude",))
        n_bisect, n_opt = int(bisect.sum()), int(opt.sum())
        n_rate, n_moments, n_schmidt = int(rate.sum()), int(moments.sum()), int(schmidt.sum())
        return {
            "cli.self_s": float(self_time[cli].sum()),
            "optimize.bisect.calls": n_bisect,
            "optimize.bisect.self_s": float(self_time[bisect].sum()),
            "optimize.opt_per_bisect": ratio(under(opt, bisect), n_bisect),
            "optimize.opt.calls": n_opt,
            "optimize.opt.self_s": float(self_time[opt].sum()),
            "optimize.evals_per_opt": ratio(under(rate, opt), n_opt),
            "optimize.all_zero_frac": ratio(self.all_zero, n_opt),
            "keyrate.evals": n_rate,
            "keyrate.self_s": float(self_time[rate].sum()),
            "keyrate.positive_frac": ratio(self.positive, n_rate),
            "catalysis.moments.calls": n_moments,
            "catalysis.moments.self_s": float(self_time[moments].sum()),
            "catalysis.moments.distinct_frac": ratio(len(self.moment_inputs), n_moments),
            "catalysis.schmidt.calls": n_schmidt,
            "catalysis.schmidt.self_s": float(self_time[schmidt].sum()),
            "catalysis.schmidt.terms": ratio(self.schmidt_terms, n_schmidt),
            "series.jet_mul.calls": int(select(("series.jet_mul",)).sum()),
            "series.self_s": float(self_time[series].sum()),
            "subtraction.calls": int(sub.sum()),
            "subtraction.self_s": float(self_time[sub].sum()),
            "oracle.calls": int((orc & ~bs_amp).sum()),
            "oracle.bs_amp.calls": int(bs_amp.sum()),
            "oracle.self_s": float(self_time[orc].sum()),
        }
