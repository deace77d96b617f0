"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They check that tracing changes nothing the program does, that every layer
metric is emitted, and that each reads above zero on the workloads predicted
to reach it (so a renamed function shows up as a missing metric, not as a
silent zero).  The workload test runs traced passes and takes about a
minute.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import (  # noqa: E402
    PER_LAYER,
    PREDICTED,
    TIME_UNITS,
    UNITS,
    WORKLOAD_LAYERS,
    workload_layer_values,
)
from spans import LAYERS, SCALAR_FALLBACK, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from bvcalc import bvfunction, chainrule, claw, measures, quadrature  # noqa: E402
from bvcalc.errors import DomainError, QuadratureError  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_of_a_layer_is_wrapped(tracer):
    for mod in (chainrule, claw, bvfunction, measures, quadrature):
        assert hasattr(mod.integrate_interval, "__wrapped__"), mod.__name__
    assert hasattr(bvfunction.BVFunction.eval, "__wrapped__")
    tracer.uninstall()
    for mod in (chainrule, claw, bvfunction, measures, quadrature):
        assert not hasattr(mod.integrate_interval, "__wrapped__"), mod.__name__


def test_scalar_fallback_runs_and_is_counted(tracer):
    # math.sin rejects arrays, so cantor._apply falls back to scalar calls
    traced = quadrature.integrate_interval(math.sin, 0.0, 1.0, tol=1e-10)
    tracer.uninstall()
    plain = quadrature.integrate_interval(math.sin, 0.0, 1.0, tol=1e-10)
    assert traced == plain
    assert tracer.counters[SCALAR_FALLBACK] > 0
    assert tracer.stats["quadrature.integrate_cells"].counts["evals"] > 0


def test_wrappers_reraise_unchanged(tracer):
    u = bvfunction.BVFunction.from_poly(0.0, 1.0, (1.0,))
    with pytest.raises(DomainError) as traced:
        u.eval(0.5, side="sideways")
    with pytest.raises(QuadratureError) as traced_q:
        quadrature.integrate_interval(lambda xs: xs * np.nan, 0.0, 1.0)
    tracer.uninstall()
    with pytest.raises(DomainError) as plain:
        u.eval(0.5, side="sideways")
    with pytest.raises(QuadratureError) as plain_q:
        quadrature.integrate_interval(lambda xs: xs * np.nan, 0.0, 1.0)
    assert str(traced.value) == str(plain.value)
    assert str(traced_q.value) == str(plain_q.value)
    assert tracer.stats["bvfunction.BVFunction.eval"].calls == 1


def test_benchmark_json_lists_the_layers_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [unit for _, unit, _ in PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    assert {name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER} >= set(LAYERS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_layers(workload, tmp_path):
    end = run._now() + run.HARD_LIMIT_S
    plain = run.one_pass(workload, 3, str(tmp_path / "plain"), False, end)
    traced = [run.one_pass(workload, 3, str(tmp_path / f"t{k}"), True, end) for k in range(2)]
    for p in [plain, *traced]:
        assert "error" not in p, p["error"]
    # tracing leaves the output files byte for byte the same
    assert {p["digest"] for p in [plain, *traced]} == {plain["digest"]}

    values = []
    for p in traced:
        p["layers"]["counters"]["scenario.bytes_written"] = p["bytes_written"]
        values.append(workload_layer_values(p["layers"]))
    for name, value in values[0].items():
        if UNITS[name] not in TIME_UNITS:
            assert values[1][name] == value, f"{name} differs between traced passes"
        if workload in PREDICTED[name]:
            assert value > 0, f"{name} reads zero on {workload}"


def test_microbenchmarks(tmp_path):
    out = str(tmp_path / "micro.json")
    code, err = run.run_child([os.path.join(HERE, "micro.py"), out], run._now() + run.HARD_LIMIT_S)
    assert code == 0, err
    with open(out) as fh:
        micro = json.load(fh)
    assert micro["problems"] == []
    micro_names = {name for name, _, _ in PER_LAYER} - {name for name, _, _ in WORKLOAD_LAYERS}
    assert micro_names - {"trace.overhead_s"} == set(micro["metrics"])
    for name, value in micro["metrics"].items():
        assert value > 0, name



@pytest.mark.xfail(raises=QuadratureError, strict=True)
def test_coarea_check_on_a_seed_that_raises(tmp_path):
    """A known defect of the program, not of the benchmark: coarea-check
    computes at a fixed internal tolerance of 1e-9, whatever the scenario
    asks, and gives up on this seed's inputs.  The seed is the 12th pass
    seed of ``--seed 5``, so a claw-approx run that gets that far reports
    failed rows.  When the program is fixed this test passes and the marker goes."""
    from bvcalc.scenario import parse_scenario, run_scenario
    from workloads import scenario_path

    sc = parse_scenario(scenario_path("coarea_check"))
    assert run.pass_seed(5, 11) == 2439395683
    run_scenario(sc, str(tmp_path), seed=2439395683)
