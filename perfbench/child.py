"""One benchmark pass in a fresh process.

    python3 perfbench/child.py '<json config>'

The config names the workload, the seed, the output directory, whether to
trace, and ``t0``: the parent's CLOCK_MONOTONIC reading just before it
started this process, so that set-up time covers interpreter start,
``import bvcalc`` and ``parse_scenario``.  The result goes to
``<out>/result.json``; report files go to ``<out>/<scenario>/``.
"""

import json
import os
import resource
import sys
import time
import traceback


def _versions():
    import numpy as np

    out = {"python": sys.version.split()[0], "numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return out


def run_pass(cfg):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, scenario_path

    import bvcalc  # noqa: F401

    tracer = None
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    from bvcalc.scenario import parse_scenario, run_scenario

    names = list(WORKLOADS[cfg["workload"]])
    parsed = [parse_scenario(scenario_path(name)) for name in names]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - cfg["t0"]

    rows = {}
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for name, sc in zip(names, parsed):
        _, n_pass, n_total = run_scenario(
            sc, os.path.join(cfg["out"], name), seed=cfg["seed"], jobs=1
        )
        rows[name] = [n_pass, n_total]
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.snapshot()
    return result


def main():
    cfg = json.loads(sys.argv[1])
    try:
        result = run_pass(cfg)
        code = 0
    except Exception:  # report any failure of the program to the parent
        result = {"error": traceback.format_exc()}
        code = 1
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
