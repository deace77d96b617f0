"""Scenario files and the command line driver."""

import textwrap
from pathlib import Path

import numpy as np
import pytest

from bvcalc import scenario
from bvcalc.claw import ClawField
from bvcalc.cli import main
from bvcalc.errors import ScenarioError
from bvcalc.scenario import KINDS, REPORT_COLUMNS, parse_scenario, run_scenario

EXPLICIT_CHAINRULE = """
    [scenario]
    kind = chainrule-verify
    tolerance = 1e-9
    label = step-check

    [flux]
    term1.f = poly 0 1
    term1.K = poly 1 + jump 0.5 1

    [u]
    component1 = poly 0.5 1 + jump 0.5 -0.25

    [test_functions]
    phi1 = bump 0.1 0.9 1.0
    phi2 = bump 0.2 0.8 0.7
"""

SUITE_CHAINRULE = """
    [scenario]
    kind = chainrule-verify
    cases = 3
    label = mini-suite
"""

TINY_CLAW = """
    [scenario]
    kind = claw-run
    label = tiny-claw

    [flux]
    term1.f = poly 0 1
    term1.K = poly 1 + jump 0.5 1

    [u]
    initial = poly 1.0

    [claw]
    cells = 24
    time = 0.1
    range = 0.1 2.5
"""

TINY_ENTROPY = """
    [scenario]
    kind = entropy-check
    label = tiny-entropy

    [flux]
    term1.f = poly 0 1
    term1.K = poly 1 + jump 0.5 1

    [u]
    initial = poly 1.3 + jump 0.35 -0.9

    [test_functions]
    phi1 = bump 0.1 0.9 0.05 0.35 1.0

    [claw]
    cells = 32
    time = 0.4
    range = 0.1 2.5
    alpha = 0.6 1.0
"""


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_report(out_dir):
    lines = (out_dir / "report.csv").read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# -- parse errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "name,body,fragment",
    [
        ("no-scenario-section", "[flux]\nterm1.f = poly 0 1\n", "[scenario]"),
        ("missing-kind", "[scenario]\nseed = 1\n", "[scenario] kind"),
        ("bad-kind", "[scenario]\nkind = warp\n", "[scenario] kind"),
        (
            "bad-domain",
            "[scenario]\nkind = coarea-check\ndomain = 0 one\n",
            "[scenario] domain",
        ),
        (
            "bad-cases",
            "[scenario]\nkind = coarea-check\ncases = few\n",
            "[scenario] cases",
        ),
        (
            "negative-seed",
            "[scenario]\nkind = coarea-check\nseed = -1\n",
            "[scenario] seed",
        ),
        (
            "negative-tolerance",
            "[scenario]\nkind = coarea-check\ntolerance = -1\n",
            "[scenario] tolerance",
        ),
        (
            "unknown-key",
            "[scenario]\nkind = coarea-check\nflux_capacitor = 1\n",
            "[scenario] flux_capacitor",
        ),
        (
            "missing-flux-K",
            "[scenario]\nkind = chainrule-verify\n\n[flux]\nterm1.f = poly 0 1\n",
            "[flux] term1.K",
        ),
        (
            "jump-on-boundary",
            TINY_CLAW.replace("poly 1.0", "poly 1.0 + jump 0.0 1"),
            "[u] initial",
        ),
        (
            "claw-missing-range",
            TINY_CLAW.replace("    range = 0.1 2.5\n", ""),
            "[claw] range",
        ),
        (
            "entropy-missing-alpha",
            TINY_ENTROPY.replace("    alpha = 0.6 1.0\n", ""),
            "[claw] alpha",
        ),
        (
            "phi-outside-domain",
            EXPLICIT_CHAINRULE.replace("bump 0.1 0.9 1.0", "bump -0.5 0.9 1.0"),
            "[test_functions] phi1",
        ),
        (
            "nan-tolerance",
            "[scenario]\nkind = coarea-check\ntolerance = nan\n",
            "[scenario] tolerance",
        ),
        (
            "infinite-domain",
            "[scenario]\nkind = coarea-check\ndomain = 0 inf\n",
            "[scenario] domain",
        ),
        ("negative-time", TINY_CLAW.replace("time = 0.1", "time = -1"), "[claw] time"),
        ("zero-time", TINY_CLAW.replace("time = 0.1", "time = 0"), "[claw] time"),
        ("too-few-cells", TINY_CLAW.replace("cells = 24", "cells = 3"), "[claw] cells"),
        ("zero-cfl", TINY_CLAW + "    cfl = 0\n", "[claw] cfl"),
        ("large-cfl", TINY_CLAW + "    cfl = 0.6\n", "[claw] cfl"),
        ("nan-range", TINY_CLAW.replace("range = 0.1 2.5", "range = 0.1 nan"), "[claw] range"),
        (
            "domain-of-generated-suite",
            "[scenario]\nkind = coarea-check\ncases = 3\ndomain = 0 5\n",
            "[scenario] domain",
        ),
        (
            "claw-run-cases",
            TINY_CLAW.replace("label = tiny-claw", "label = tiny-claw\n    cases = 7"),
            "[scenario] cases",
        ),
        ("claw-run-alpha", TINY_CLAW + "    alpha = 0.5\n", "[claw] alpha"),
        (
            "unknown-flux-part",
            EXPLICIT_CHAINRULE.replace("term1.K =", "term1.g = poly 5\n    term1.K ="),
            "[flux] term1.g",
        ),
        (
            "test-functions-alone",
            "[scenario]\nkind = chainrule-verify\n\n[test_functions]\nphi1 = bump 0.1 0.9 1\n",
            "[flux]",
        ),
        (
            "explicit-chainrule-seed",
            EXPLICIT_CHAINRULE.replace("tolerance = 1e-9", "tolerance = 1e-9\n    seed = 3"),
            "[scenario] seed",
        ),
        ("coarea-with-claw", "[scenario]\nkind = coarea-check\n\n[claw]\ncells = 8\n", "[claw]"),
        # [claw] values that only the flux or the initial data refute
        ("unattained-alpha", TINY_ENTROPY.replace("alpha = 0.6 1.0", "alpha = 100"), "[claw] alpha"),
        (
            "initial-leaves-range",
            TINY_ENTROPY.replace("range = 0.1 2.5", "range = 1.0 2.5"),
            "[u] initial: initial data leaves the working range ([claw] range",
        ),
        (
            "flux-range-not-certified",
            TINY_CLAW.replace("poly 1 + jump 0.5 1", "poly 1 -0.5 + cantor 0.2 0.8 0.3"),
            "[flux]: cannot certify monotonicity",
        ),
        (
            "solution-leaves-range",
            TINY_CLAW.replace("range = 0.1 2.5", "range = 0.8 2.5"),
            "[claw] range: the solution leaves the working range at t=",
        ),
        (
            "flux-not-monotone-on-range",
            TINY_CLAW.replace("term1.f = poly 0 1", "term1.f = poly 0 0 1").replace(
                "range = 0.1 2.5", "range = -1 1"
            ),
            "[claw] range",
        ),
    ],
)
def test_parse_errors_name_the_field(tmp_path, capsys, name, body, fragment):
    path = write_ini(tmp_path, body, f"{name}.ini")
    rc = main(["run", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("bvcalc: scenario error:")
    assert fragment in err
    assert not (tmp_path / "out").exists()


# one file each kind reads, and a section that kind does not read
KIND_FILES = {
    "chainrule-verify": (EXPLICIT_CHAINRULE, "claw"),
    "approx-demo": ("[scenario]\nkind = approx-demo\n", "flux"),
    "coarea-check": ("[scenario]\nkind = coarea-check\n", "test_functions"),
    "comparison-check": ("[scenario]\nkind = comparison-check\n", "u"),
    "claw-run": (TINY_CLAW, "test_functions"),
    "entropy-check": (TINY_ENTROPY, "solver"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_each_kind_rejects_a_section_it_does_not_read(tmp_path, capsys, kind):
    body, unread = KIND_FILES[kind]
    body = textwrap.dedent(body)
    assert parse_scenario(write_ini(tmp_path, body)).kind == kind
    path = write_ini(tmp_path, body + f"\n[{unread}]\nx = 1\n", "extra.ini")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"[{unread}]: section not read by" in err
    assert not (tmp_path / "out").exists()


def test_readme_scenario_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_scenario(write_ini(tmp_path, example)).kind == "entropy-check"


def test_library_error_exits_2_before_any_output(tmp_path, capsys):
    """Two flux jumps that snap to one edge of a 4-cell grid: the solver's
    DomainError reaches the command line as exit 2 naming ``[claw] cells``,
    with no report."""
    body = TINY_CLAW.replace("jump 0.5 1", "jump 0.3 0.5 + jump 0.32 0.5")
    body = body.replace("cells = 24", "cells = 4")
    path = write_ini(tmp_path, body)
    rc = main(["run", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "bvcalc: scenario error: [claw] cells: two flux jumps share their nearest grid edge"
    )
    assert not (tmp_path / "out" / "report.csv").exists()


def test_missing_file_is_a_scenario_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_flag_values(tmp_path, capsys):
    path = write_ini(tmp_path, EXPLICIT_CHAINRULE)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["run", path, "--tol", "-3"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_negative_seed_flag_is_rejected_before_any_output(tmp_path, capsys):
    path = write_ini(tmp_path, EXPLICIT_CHAINRULE)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seed", "-5"]) == 2
    assert "--seed: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_flag_is_rejected_before_any_output(tmp_path, capsys, value):
    path = write_ini(tmp_path, SUITE_CHAINRULE)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--tol", value]) == 2
    assert "--tol: expected finite numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override,value",
    [("seed", -1), ("tol", 0.0), ("tol", float("inf")), ("tol", float("nan")), ("jobs", 2)],
)
def test_run_scenario_checks_overrides_before_any_output(tmp_path, override, value):
    sc = parse_scenario(write_ini(tmp_path, SUITE_CHAINRULE))
    out = tmp_path / "out"
    with pytest.raises(ScenarioError, match=override):
        run_scenario(sc, str(out), **{override: value})
    assert not out.exists()


# -- end-to-end runs ---------------------------------------------------------


def test_explicit_chainrule_run(tmp_path, capsys):
    path = write_ini(tmp_path, EXPLICIT_CHAINRULE)
    out = tmp_path / "out"
    rc = main(["run", path, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith(
        "step-check [chainrule-verify]: 2/2 cases passed"
    )
    header, rows = read_report(out)
    assert header == ",".join(REPORT_COLUMNS)
    assert [r[1] for r in rows] == ["explicit/phi1", "explicit/phi2"]
    for row in rows:
        assert len(row) == len(REPORT_COLUMNS)
        assert row[0] == "step-check"
        assert row[-1] == "pass"
        residual = float(row[-3])
        assert residual <= 1e-9 * (1.0 + abs(float(row[2])))
    assert (out / "timing.csv").exists()


@pytest.mark.parametrize(
    "kind,cases,n_rows",
    [("approx-demo", 2, 2), ("coarea-check", 3, 3), ("comparison-check", 2, 2)],
)
def test_suite_kinds_run_clean(tmp_path, kind, cases, n_rows):
    body = f"[scenario]\nkind = {kind}\ncases = {cases}\nlabel = t-{kind}\n"
    path = write_ini(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    header, rows = read_report(out)
    assert len(rows) == n_rows
    assert all(r[-1] == "pass" for r in rows)


def test_approx_demo_writes_staircase(tmp_path):
    path = write_ini(tmp_path, "[scenario]\nkind = approx-demo\ncases = 1\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    lines = (out / "stairs_case00.csv").read_text().splitlines()
    assert lines[0].startswith("x,exact1,approx1")
    assert len(lines) > 700


def test_claw_run_writes_field(tmp_path):
    path = write_ini(tmp_path, TINY_CLAW)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    header, rows = read_report(out)
    assert len(rows) == 1 and rows[0][-1] == "pass"
    lines = (out / "field.csv").read_text().splitlines()
    assert lines[0] == "x,t,u,mass_drift"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) % 24 == 0
    steps = len(body) // 24
    assert steps >= 1
    assert max(float(r[3]) for r in body) <= 1e-12
    times = sorted({float(r[1]) for r in body})
    assert len(times) == steps


def test_field_csv_is_the_row_by_row_writer(tmp_path):
    """The per-step joined writer gives the bytes of one line per (cell,
    step) in order, on -0.0, repeated values and subnormals."""
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    times = np.array([0.0, 0.5, 1.0, 1.5])
    states = np.array(
        [
            [0.0, 1.0, 1.0, -2.5],
            [-0.0, 5e-324, 1.0, 1.0],
            [2.2250738585072014e-308, -0.0, -0.0, 1e300],
            [1.0 / 3.0, 1.0 / 3.0, -4e-320, 0.1],
        ]
    )
    traces = np.array([[0.0, 0.0, 0.0, 0.0, 1e-3], [-0.0] * 5, [0.25, 0.0, 0.0, 0.0, 5e-324]])
    fld = ClawField(None, edges, times, states, traces)
    scenario._write_field_csv(tmp_path / "field.csv", fld)
    defects = fld.mass_defects()
    want = ["x,t,u,mass_drift\n"]
    for n in range(1, len(times)):
        for x, u in zip(fld.centers.tolist(), states[n].tolist()):
            want.append(f"{x!r},{float(times[n])!r},{u!r},{float(abs(defects[n - 1]))!r}\n")
    assert (tmp_path / "field.csv").read_bytes() == "".join(want).encode()


def test_entropy_check_run(tmp_path):
    path = write_ini(tmp_path, TINY_ENTROPY)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    header, rows = read_report(out)
    assert len(rows) == 2  # two levels x one test function
    for row in rows:
        assert row[-1] == "pass"
        assert float(row[2]) <= 1e-3  # signed production stays dissipative


def test_tolerance_override_fails_cases_but_writes_report(tmp_path, capsys):
    path = write_ini(tmp_path, SUITE_CHAINRULE)
    out = tmp_path / "out"
    rc = main(["run", path, "--out", str(out), "--tol", "1e-17"])
    assert rc == 1
    header, rows = read_report(out)
    assert any(r[-1] == "fail" for r in rows)
    assert all(r[-2] == repr(1e-17) for r in rows)


CANTOR_CHAINRULE = """
    [scenario]
    kind = chainrule-verify
    tolerance = 1e-11
    label = cantor-tight

    [flux]
    term1.f = poly 0 0 1
    term1.K = poly 1 + cantor 0.2 0.8 0.5

    [u]
    component1 = poly 0.5 1 + jump 0.5 -0.25 + cantor 0.2 0.8 0.3

    [test_functions]
    phi1 = bump 0.1 0.9 1.0
    phi2 = bump 0.3 0.7 0.7
"""


def test_requested_tolerance_reaches_the_chainrule_quadrature(tmp_path, capsys):
    # computed at 1e-8 whatever the gate, the residuals are about 6e-9 and 1.3e-9
    path = write_ini(tmp_path, CANTOR_CHAINRULE)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    _, rows = read_report(out)
    assert [r[-1] for r in rows] == ["pass", "pass"]
    col = REPORT_COLUMNS.index("residual")
    assert all(float(r[col]) <= 1e-11 for r in rows)


def test_reports_are_deterministic_across_runs(tmp_path):
    path = write_ini(tmp_path, SUITE_CHAINRULE)
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert main(["run", path, "--out", str(outs[0])]) == 0
    assert main(["run", path, "--out", str(outs[1])]) == 0
    blobs = [(o / "report.csv").read_bytes() for o in outs]
    assert blobs[0] == blobs[1]


def test_seed_override_changes_suite(tmp_path):
    path = write_ini(tmp_path, SUITE_CHAINRULE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(a)]) == 0
    assert main(["run", path, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "report.csv").read_bytes() != (b / "report.csv").read_bytes()


def test_output_dir_from_environment(tmp_path, monkeypatch, capsys):
    path = write_ini(tmp_path, EXPLICIT_CHAINRULE)
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("BVCALC_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["run", path]) == 0
    assert (env_out / "report.csv").exists()
    assert str(env_out) in capsys.readouterr().out
