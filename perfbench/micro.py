"""Layer microbenchmarks, run in a fresh process by the traced run.

    python3 perfbench/micro.py <result.json>

Each layer call is made once untimed and its result checked; that call also
fills the Cantor cell caches.  It is then timed several times and reported
as the median.  Failed checks are reported with the timings.
"""

import json
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import scenario_path  # noqa: E402

from bvcalc import cantor, claw, quadrature  # noqa: E402
from bvcalc.scenario import parse_scenario  # noqa: E402

CLAW_CELLS = 200
REPEATS = 5


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build_cells_layer(out, problems):
    """Cell layout on ]0,1[ with breakpoints 0.3, 0.5 and Cantor support (0,1)."""
    for label, tol in (("tol1e-6", 1e-6), ("tol1e-8", 1e-8), ("tol1e-10", 1e-10)):
        def call(tol=tol):
            return quadrature.build_cells(0.0, 1.0, (0.3, 0.5), ((0.0, 1.0),), tol)

        smooth, mids = call()
        covered = sum(b - a for a, b in smooth) + sum(b - a for a, b in mids)
        if abs(covered - 1.0) > 1e-9:
            problems.append(f"build_cells {label}: cells cover {covered!r}, not 1")
        out[f"quadrature.build_cells.{label}.cells"] = len(smooth) + len(mids)
        out[f"quadrature.build_cells.{label}.s"] = _median_time(call)


def cantor_layer(out, problems):
    """Midpoint rule for the Cantor measure at three depths; the exact
    second moment of the Cantor measure on [0,1] is 3/8."""
    for depth, repeats in ((10, REPEATS), (17, REPEATS), (24, 3)):
        def call(depth=depth):
            return cantor.integrate_cantor_std(lambda t: t * t, depth)

        value = call()
        if abs(value - 0.375) > 1e-4:
            problems.append(f"integrate_cantor_std depth {depth}: {value!r} != 3/8")
        out[f"cantor.integrate_cantor_std.depth{depth}.s"] = _median_time(call, repeats)


def claw_layer(out, problems):
    """One upwind step and one entropy-residual slice at 200 cells."""
    burgers = parse_scenario(scenario_path("claw_burgers"))
    flux = claw.ScalarFlux(burgers.flux, *burgers.claw["range"])
    # short enough that the CFL condition allows a single step
    step_t = 1e-4

    def step():
        return claw.solve_claw(flux, burgers.state, step_t, CLAW_CELLS)

    fld = step()
    if len(fld.times) != 2 or abs(fld.mass_defects()[0]) > 1e-12:
        problems.append("solve_claw: expected one mass-conserving step")
    out["claw.solve_claw.step200.s"] = _median_time(step)

    ent = parse_scenario(scenario_path("entropy_check"))
    eflux = claw.ScalarFlux(ent.flux, *ent.claw["range"])
    efld = claw.solve_claw(eflux, ent.state, step_t, CLAW_CELLS)
    phi = claw.SpaceTimeTest.bump((0.1, 0.9), (0.0, 2 * step_t))
    alpha = ent.claw["alpha"][0]

    # a fresh entropy pair per call, so each slice fills its own caches
    def slice_():
        return claw.entropy_residual(efld, claw.adapted_entropy_pair(eflux, alpha), phi)

    res = slice_()
    if not np.isfinite(res) or res > ent.tolerance:
        problems.append(f"entropy_residual slice: {res!r} above {ent.tolerance}")
    out["claw.entropy_residual.slice200.s"] = _median_time(slice_, 2)


def main():
    out, problems = {}, []
    build_cells_layer(out, problems)
    cantor_layer(out, problems)
    claw_layer(out, problems)
    with open(sys.argv[1], "w") as fh:
        json.dump({"metrics": out, "problems": problems}, fh)


if __name__ == "__main__":
    main()
