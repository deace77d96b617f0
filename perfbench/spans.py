"""Span and count tracing of bvcalc's layers, installed from outside the package.

`Tracer.install()` replaces each public function listed in `LAYERS` with a
wrapper that records a span (calls, inclusive seconds, self seconds) and the
layer's work counts.  The replacement is made at every place the original
object is bound: the defining module, every `bvcalc` module that imported the
name, and the class for methods.  Wrappers call the original with the same
arguments and let every exception pass through untouched, so fallbacks that
rely on an exception (such as the scalar path in `cantor._apply`) behave as
before.

Self time is a span's duration minus the time covered by spans it caused.
Inclusive time of a recursive layer counts only the outermost call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Span name -> (module, attribute path) of each wrapped callable.  Several
# callables may share one span name (the coarea pair, the case suites).
LAYERS = {
    "quadrature.build_cells": [("quadrature", "build_cells")],
    "quadrature.integrate_cells": [("quadrature", "integrate_cells")],
    "quadrature.integrate_interval": [("quadrature", "integrate_interval")],
    "cantor.integrate_cantor_std": [("cantor", "integrate_cantor_std")],
    "cantor.integrate_cantor_std_restricted": [("cantor", "integrate_cantor_std_restricted")],
    "cantor.cantor_function_eval": [("cantor", "cantor_function_eval")],
    "measures.PiecewisePolynomial.call": [("measures", "PiecewisePolynomial.__call__")],
    "bvfunction.BVFunction.eval": [("bvfunction", "BVFunction.eval")],
    "bvfunction.BVFunction.values": [("bvfunction", "BVFunction.values")],
    "bvfunction.coarea": [("bvfunction", "coarea_lhs"), ("bvfunction", "coarea_rhs")],
    "chainrule.chainrule_terms": [("chainrule", "chainrule_terms")],
    "chainrule.FluxModel.eval": [("chainrule", "FluxModel.eval")],
    "chainrule.FluxModel.value_on_grid": [("chainrule", "FluxModel.value_on_grid")],
    "chainrule.levelset_comparison_pwc": [("chainrule", "levelset_comparison_pwc")],
    "claw.solve_claw": [("claw", "solve_claw")],
    "claw.ScalarFlux.value": [("claw", "ScalarFlux.value")],
    "claw.entropy_residual": [("claw", "entropy_residual")],
    "claw.c_alpha_values": [("claw", "c_alpha_values")],
    "pwconst.approximate_vector": [("pwconst", "approximate_vector")],
    "cases.suite": [
        ("cases", "chainrule_suite"),
        ("cases", "pwc_suite"),
        ("cases", "coarea_suite"),
        ("cases", "comparison_suite"),
    ],
    "scenario.parse_scenario": [("scenario", "parse_scenario")],
    "scenario.run_scenario": [("scenario", "run_scenario")],
}

# Spans whose integrand argument (position 0 or keyword ``f``) is counted.
_INTEGRANDS = {
    "quadrature.integrate_cells",
    "cantor.integrate_cantor_std",
    "cantor.integrate_cantor_std_restricted",
}
# Spans that keep every call's duration, for percentiles.
_DURATIONS = {"chainrule.chainrule_terms"}

SCALAR_FALLBACK = "cantor.scalar_fallback_evals"


class _Stat:
    __slots__ = ("calls", "s", "self_s", "counts", "durations", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)
        self.durations = []
        self.active = 0


def _resolve(owner, path):
    """(object holding the attribute, attribute name) for 'f' or 'Cls.meth'."""
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Collects spans and counts from the wrapped bvcalc layers."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []  # (holder, attribute, original) to undo

    # -- wrapping ---------------------------------------------------------
    def _count_integrand(self, stat, f):
        tracer = self
        innermost = not getattr(f, "_perfbench_counted", False)

        def counted(xs, *args, **kwargs):
            n = np.size(xs)
            stat.counts["evals"] += n
            if innermost and np.ndim(xs) == 0:
                tracer.counters[SCALAR_FALLBACK] += 1
            return f(xs, *args, **kwargs)

        counted._perfbench_counted = True
        return counted

    def _before(self, name, stat, args, kwargs):
        """Count the work a call is handed; may replace the integrand."""
        if name in _INTEGRANDS:
            if "f" in kwargs:
                kwargs["f"] = self._count_integrand(stat, kwargs["f"])
            else:
                args = (self._count_integrand(stat, args[0]),) + args[1:]
        if name == "cantor.integrate_cantor_std":
            from bvcalc import cantor

            depth = args[1] if len(args) > 1 else kwargs["depth"]
            eff = max(1, min(int(depth), cantor._MAX_DEPTH))
            stat.counts["depth_max"] = max(stat.counts["depth_max"], eff)
        elif name in ("bvfunction.BVFunction.values", "chainrule.FluxModel.value_on_grid"):
            xs = args[1] if len(args) > 1 else kwargs["xs"]
            stat.counts["points"] += int(np.size(xs))
        return args, kwargs

    def _after(self, name, stat, result):
        """Count the work a call returned."""
        if name == "quadrature.build_cells":
            smooth, mids = result
            stat.counts["cells"] += len(smooth) + len(mids)
        elif name == "claw.solve_claw":
            stat.counts["steps"] += len(result.times) - 1

    def _wrap(self, name, fn):
        tracer = self
        stat = self.stats[name]
        stack = self._stack
        keep_durations = name in _DURATIONS
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs = tracer._before(name, stat, args, kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if stat.active == 0:
                    stat.s += dt
                if keep_durations:
                    stat.durations.append(dt)
            tracer._after(name, stat, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer in ``LAYERS`` at each place it is bound."""
        import bvcalc  # noqa: F401  (loads every submodule)

        modules = [m for k, m in list(sys.modules.items()) if k == "bvcalc" or k.startswith("bvcalc.")]
        for name, targets in LAYERS.items():
            for mod_name, path in targets:
                holder, attr = _resolve(sys.modules[f"bvcalc.{mod_name}"], path)
                original = holder.__dict__[attr]
                wrapper = self._wrap(name, original)
                if isinstance(holder, type):
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def snapshot(self):
        """Plain-data view of every span: {name: {calls, s, self_s, counts,
        durations}} plus the global counters."""
        spans = {}
        for name in LAYERS:
            st = self.stats[name]
            spans[name] = {
                "calls": st.calls,
                "s": st.s,
                "self_s": st.self_s,
                "counts": dict(st.counts),
                "durations": list(st.durations),
            }
        return {"spans": spans, "counters": dict(self.counters)}
