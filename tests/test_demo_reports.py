"""Byte identity of the demo scenarios' outputs.

Each ``demos/scenarios/*.ini`` is run through the command line driver and
the sha256 of every file it writes, except the wall-clock ``timing.csv``, is
compared with the digest pinned here.  A change that moves a reported value
by one ulp fails this test; if the move is intended, explain it and pin the
new digest.
"""

import hashlib
from pathlib import Path

import pytest

from bvcalc import cantor
from bvcalc.cli import main
from bvcalc.scenario import parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

DIGESTS = {
    "approx_demo": {
        "report.csv": "76d662f68e8a43d9851bb2d02764f9abb24341385b7492380fee0d01600b6185",
        "stairs_case00.csv": "a016d7f8d41a336383627ab314a150869d4c3027e1adc43104c078dcb0fdcff5",
    },
    "chainrule_heaviside": {
        "report.csv": "e71c52a172061bf305f71e5dc08f6a5274e24a495054a33555f895cb0c5f4536",
    },
    "chainrule_suite": {
        "report.csv": "b7a4ac3fd87f0f18b9e02c8fa4d1a4886953f7e1e2e177fa6d0a72c230b37fbb",
    },
    "claw_burgers": {
        "field.csv": "58673c9513fa65e39aa6f6ebb716eed25235e8fdf07442b24cd94bb8fb3499c0",
        "report.csv": "18728f67133f8738607f88b1a84add02dc75100b07199b42457cf5bd8f7de4b2",
    },
    "coarea_check": {
        "report.csv": "a1c07c31a11409208b4964696697c8c4877e2ac52e019e13e0ffe22d4938d25f",
    },
    "comparison_check": {
        "report.csv": "df7fd355f260bc4bae0b349f04ff6e25619ad0d18117ddd2d1ccc260c711a971",
    },
    "entropy_check": {
        "report.csv": "86c81d27be3c8c0f7c2f17efce1eeac1c48e20d17ebf6e30daa2bd2ebf022a9d",
    },
}


def test_every_demo_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.ini")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_outputs_are_byte_identical(name, tmp_path, capsys):
    assert main(["run", str(SCENARIOS / f"{name}.ini"), "--out", str(tmp_path)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if p.name != "timing.csv"
    }
    assert written == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_scenarios_make_no_pointwise_calls(name, tmp_path, monkeypatch):
    """Every integrand of the demos takes node arrays of any shape, so the
    one-point-at-a-time fallback of ``cantor._apply`` is never reached."""
    hits = []
    fallback = cantor._pointwise

    def spy(f, xs):
        hits.append(xs.size)
        return fallback(f, xs)

    monkeypatch.setattr(cantor, "_pointwise", spy)
    run_scenario(parse_scenario(SCENARIOS / f"{name}.ini"), str(tmp_path))
    assert hits == []


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_generated_suites_make_no_pointwise_calls(seed, tmp_path, monkeypatch):
    """Nor do the generated coarea, approximation and comparison suites at
    other seeds: an integrand that raised TypeError on node arrays would
    reach the one-point fallback and still pass, only slower."""
    hits = []
    fallback = cantor._pointwise
    monkeypatch.setattr(cantor, "_pointwise", lambda f, xs: hits.append(xs.size) or fallback(f, xs))
    for name in ("coarea_check", "approx_demo", "comparison_check"):
        run_scenario(parse_scenario(SCENARIOS / f"{name}.ini"), str(tmp_path / name), seed=seed)
    assert hits == []


def test_chainrule_suite_passes_at_a_tight_tolerance(tmp_path):
    """At --tol 1e-12 every case of the pinned chain-rule battery closes,
    the mu_C slots included: the adaptive rules refine each Cantor cell to
    its share of the tolerance instead of stopping at a fixed depth."""
    sc = parse_scenario(SCENARIOS / "chainrule_suite.ini")
    assert run_scenario(sc, str(tmp_path), tol=1e-12) == (True, 60, 60)
