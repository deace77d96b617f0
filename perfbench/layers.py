"""Per-layer metrics of the traced run and the workloads predicted to reach them.

Names are ``<module>.<function>.<stat>``.  For a span, ``calls`` and ``s``
(inclusive seconds), ``self_s`` (seconds not covered by child spans),
``p50_ms``/``p90_ms`` (per-call percentiles) are read from its timings; any
other stat is one of its work counts.  ``PREDICTED`` lists the workloads on
which the metric must read above zero; the benchmark's own test holds it to
that, so that a renamed function shows up as a missing metric.
"""

from __future__ import annotations

import statistics

CB, CA = "chainrule-battery", "claw-approx"
ALL = (CB, CA)

# (name, unit, workloads predicted to read above zero)
WORKLOAD_LAYERS = [
    ("quadrature.build_cells.calls", "count", (CB, CA)),
    ("quadrature.build_cells.self_s", "s", (CB, CA)),
    ("quadrature.build_cells.cells", "count", (CB, CA)),
    ("quadrature.integrate_cells.calls", "count", (CB, CA)),
    ("quadrature.integrate_cells.self_s", "s", (CB, CA)),
    ("quadrature.integrate_cells.evals", "count", (CB, CA)),
    ("quadrature.integrate_interval.calls", "count", (CB, CA)),
    ("quadrature.integrate_interval.s", "s", (CB, CA)),
    ("cantor.integrate_cantor_std.calls", "count", (CB, CA)),
    ("cantor.integrate_cantor_std.self_s", "s", (CB, CA)),
    ("cantor.integrate_cantor_std.evals", "count", (CB, CA)),
    ("cantor.integrate_cantor_std.depth_max", "levels", (CB, CA)),
    ("cantor.integrate_cantor_std_restricted.calls", "count", (CB,)),
    ("cantor.integrate_cantor_std_restricted.self_s", "s", (CB,)),
    ("cantor.integrate_cantor_std_restricted.evals", "count", (CB,)),
    ("cantor.scalar_fallback_evals", "count", ()),
    ("cantor.cantor_function_eval.calls", "count", (CB, CA)),
    ("measures.PiecewisePolynomial.call.calls", "count", ALL),
    ("measures.PiecewisePolynomial.call.self_s", "s", ALL),
    ("bvfunction.BVFunction.eval.calls", "count", ALL),
    ("bvfunction.BVFunction.eval.self_s", "s", ALL),
    ("bvfunction.BVFunction.values.calls", "count", ALL),
    ("bvfunction.BVFunction.values.points", "count", ALL),
    ("bvfunction.BVFunction.values.self_s", "s", ALL),
    ("bvfunction.coarea.s", "s", (CA,)),
    ("chainrule.chainrule_terms.calls", "count", (CB,)),
    ("chainrule.chainrule_terms.s", "s", (CB,)),
    ("chainrule.chainrule_terms.p50_ms", "ms", (CB,)),
    ("chainrule.chainrule_terms.p90_ms", "ms", (CB,)),
    ("chainrule.FluxModel.eval.calls", "count", (CB, CA)),
    ("chainrule.FluxModel.eval.self_s", "s", (CB, CA)),
    ("chainrule.FluxModel.value_on_grid.calls", "count", ALL),
    ("chainrule.FluxModel.value_on_grid.points", "count", ALL),
    ("chainrule.levelset_comparison_pwc.s", "s", (CA,)),
    ("claw.solve_claw.s", "s", (CA,)),
    ("claw.solve_claw.steps", "count", (CA,)),
    ("claw.ScalarFlux.value.calls", "count", (CA,)),
    ("claw.entropy_residual.s", "s", (CA,)),
    ("claw.c_alpha_values.calls", "count", (CA,)),
    ("claw.c_alpha_values.s", "s", (CA,)),
    ("pwconst.approximate_vector.calls", "count", (CA,)),
    ("pwconst.approximate_vector.s", "s", (CA,)),
    ("cases.suite.s", "s", (CB, CA)),
    ("scenario.parse_scenario.s", "s", ALL),
    ("scenario.run_scenario.self_s", "s", ALL),
    ("scenario.bytes_written", "bytes", ALL),
]

# Microbenchmarks (micro.py) and the tracing overhead; reached on every workload.
OTHER_LAYERS = [
    ("quadrature.build_cells.tol1e-6.s", "s", ALL),
    ("quadrature.build_cells.tol1e-6.cells", "count", ALL),
    ("quadrature.build_cells.tol1e-8.s", "s", ALL),
    ("quadrature.build_cells.tol1e-8.cells", "count", ALL),
    ("quadrature.build_cells.tol1e-10.s", "s", ALL),
    ("quadrature.build_cells.tol1e-10.cells", "count", ALL),
    ("cantor.integrate_cantor_std.depth10.s", "s", ALL),
    ("cantor.integrate_cantor_std.depth17.s", "s", ALL),
    ("cantor.integrate_cantor_std.depth24.s", "s", ALL),
    ("claw.solve_claw.step200.s", "s", ALL),
    ("claw.entropy_residual.slice200.s", "s", ALL),
    ("trace.overhead_s", "s", ()),
]

PER_LAYER = WORKLOAD_LAYERS + OTHER_LAYERS
TIME_UNITS = ("s", "ms")
UNITS = {name: unit for name, unit, _ in PER_LAYER}
PREDICTED = {name: workloads for name, _, workloads in PER_LAYER}


def _percentile_ms(durations, which):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000.0 * durations[0]
    if which == "p50_ms":
        return 1000.0 * statistics.median(durations)
    return 1000.0 * statistics.quantiles(durations, n=10)[8]


def workload_layer_values(snapshot):
    """Every workload-layer metric of one traced pass, from its snapshot."""
    out = {}
    for name, _, _ in WORKLOAD_LAYERS:
        if name.count(".") == 1:  # a counter, not a span stat
            out[name] = snapshot["counters"].get(name, 0)
            continue
        span, stat = name.rsplit(".", 1)
        sp = snapshot["spans"][span]
        if stat in ("calls", "s", "self_s"):
            out[name] = sp[stat]
        elif stat in ("p50_ms", "p90_ms"):
            out[name] = _percentile_ms(sp["durations"], stat)
        else:
            out[name] = sp["counts"].get(stat, 0)
    return out
