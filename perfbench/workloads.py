"""The benchmark's workloads: which scenario files one pass runs.

A pass parses each scenario file, then calls ``run_scenario`` on it with
``jobs=1`` and the pass seed, the way ``bvcalc run`` does.  Each scenario maps
to the number of report rows it must produce; a pass with another count is
counted as failed.
"""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")

WORKLOADS = {
    # Quadrature cell layout, Gauss panels and Cantor rules through the
    # vectorized BVFunction.values path; no claw, no pwconst.
    "chainrule-battery": {"chainrule_battery": 12 * 5},
    # Scalar evaluation in two forms.  The Burgers claw-run and the
    # entropy-check load scalar sided flux evaluation (upwind solver,
    # field.csv writer) and the entropy residual, and have no generated
    # inputs: the scenario files fix them.  The approx-demo, coarea-check and
    # comparison-check suites are generated from the seed and load pwconst,
    # scalar precise evaluation with Cantor summands, coarea quadrature and
    # the stairs_case00.csv writer.  One workload rather than two, so that
    # each gets a longer run; the fixed half also damps the cost variance of
    # the generated half.
    "claw-approx": {
        "claw_burgers": 1,
        "entropy_check": 2,
        "approx_demo": 8,
        "coarea_check": 10,
        "comparison_check": 10,
    },
}


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, f"{name}.ini")


def expected_rows(workload):
    return sum(WORKLOADS[workload].values())
