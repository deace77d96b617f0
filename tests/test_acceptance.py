"""Acceptance battery: the package-level guarantees, one line per check.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
of every criterion including the measured worst numbers.
"""

import time

import numpy as np
import pytest

from bvcalc import (
    BVFunction,
    ClawField,
    SpaceTimeTest,
    adapted_entropy_pair,
    affine_entropy_approx,
    chainrule_star_form,
    chainrule_terms,
    coarea_lhs,
    coarea_rhs,
    entropy_residual,
    leibniz_weak_residual,
    levelset_comparison_pwc,
    measure_total_variation,
    solve_claw,
)
from bvcalc.cases import (
    a2_suite,
    chainrule_suite,
    coarea_suite,
    comparison_suite,
    leibniz_suite,
    mollifier_suite,
    pwc_suite,
)
from bvcalc.chainrule import FluxModel, SmoothFunction
from bvcalc.claw import ScalarFlux
from bvcalc.pwconst import approximate_vector


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared expensive fixtures ----------------------------------------------


@pytest.fixture(scope="module")
def chainrule_battery():
    """50 cases x 5 test functions, evaluated once; reused by the starred
    criterion so the residual timing covers exactly one pass."""
    suite = chainrule_suite(n_cases=50, n_phi=5)
    t0 = time.perf_counter()
    evaluated = []
    for label, B, u, phis in suite:
        for phi in phis:
            evaluated.append((label, B, u, phi, chainrule_terms(B, u, phi)))
    elapsed = time.perf_counter() - t0
    return evaluated, elapsed


@pytest.fixture(scope="module")
def burgers_run():
    lo, hi = -1.0, 2.0
    K = BVFunction.constant(lo, hi, 1.0)
    model = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 0.5), "w^2/2")),))
    flux = ScalarFlux(model, 0.1, 2.0)
    u0 = BVFunction.from_poly(lo, hi, (1.5,))
    u0 = u0 + BVFunction.heaviside(lo, hi, 0.3, 0.0, -1.0)
    return flux, solve_claw(flux, u0, 0.5, 200)


def step_flux(w_lo=0.1, w_hi=2.5):
    K = BVFunction.constant(0.0, 1.0, 1.0)
    K = K + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0)
    return ScalarFlux(
        FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), w_lo, w_hi
    )


# -- criteria ----------------------------------------------------------------


def test_criterion_1_chainrule_residuals(chainrule_battery):
    evaluated, elapsed = chainrule_battery
    worst = max(abs(rep.residual) / (1.0 + abs(rep.lhs)) for *_, rep in evaluated)
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(
        "criterion 1 (chain-rule residuals, 50 cases x 5 tests)",
        ok,
        f"worst scaled residual {worst:.3e} <= 1e-06, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_starred_form(chainrule_battery):
    evaluated, _ = chainrule_battery
    worst = 0.0
    for label, B, u, phi, rep in evaluated:
        star = chainrule_star_form(B, u, phi, rep)
        worst = max(worst, abs(rep.lhs + star) / (1.0 + abs(rep.lhs)))
    ok = worst <= 2e-6
    report(
        "criterion 2 (starred rewriting, same suite)",
        ok,
        f"worst scaled residual {worst:.3e} <= 2e-06",
    )


def test_criterion_3_pwc_properties():
    worst_ratio = 0.0
    ok = True
    for label, u, n, exc in pwc_suite(n_cases=20):
        approx = approximate_vector(u, n, exc)
        d = len(u.components)
        xs = np.linspace(0.0, 1.0, 901)[1:-1]
        err2 = np.zeros(xs.size)
        for comp, ap in zip(u.components, approx):
            star = np.array([comp.eval(float(x), "precise") for x in xs])
            err2 += (ap.eval_array(xs) - star) ** 2
        sup = float(np.sqrt(err2).max())
        worst_ratio = max(worst_ratio, sup * n / (3.0 * np.sqrt(d)))
        ok &= sup <= 3.0 * np.sqrt(d) / n
        for comp, ap in zip(u.components, approx):
            for x, l, r in comp.jumps():
                if abs(r - l) > 3.0 / n:
                    ok &= x in ap.partition
                    ok &= abs(ap.left_limit(x) - l) <= 1e-12
                    ok &= abs(ap.right_limit(x) - r) <= 1e-12
            ok &= ap.total_variation() <= comp.total_variation() + 1e-9
            ok &= all(
                abs(node - p) > 1e-13
                for node in ap.partition[1:-1]
                for p in exc.points
            )
            ok &= all(
                abs(ap(p) - comp.eval(p, "precise")) <= 1e-12
                for p in exc.points[: exc.prefix_len]
            )
    report(
        "criterion 3 (piecewise-constant approximation, 20 inputs)",
        ok,
        f"all five properties, worst sup-error at {worst_ratio:.3f} of 3 sqrt(d)/n",
    )


def test_criterion_4_coarea_and_leibniz():
    worst_c = 0.0
    for label, g, u, bps in coarea_suite(n_cases=20):
        lhs = coarea_lhs(g, u, g_breakpoints=bps)
        rhs = coarea_rhs(g, u, g_breakpoints=bps)
        worst_c = max(worst_c, abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst_l = 0.0
    for label, v, w, phis in leibniz_suite(n_cases=20):
        for phi in phis:
            worst_l = max(worst_l, abs(leibniz_weak_residual(v, w, phi)))
    ok = worst_c <= 1e-6 and worst_l <= 1e-6
    report(
        "criterion 4 (coarea + product rule, 20 cases each)",
        ok,
        f"coarea worst {worst_c:.3e}, product-rule worst {worst_l:.3e}, both <= 1e-06",
    )


def test_criterion_5_mollifier_convergence():
    ok = True
    worst_final = 0.0
    for label, u, probes in mollifier_suite():
        osc = u.oscillation()
        floor = 1e-12 * (1.0 + osc)
        assert len(probes) == 10
        for p in probes:
            star = u.eval(p, "precise")
            errs = [abs(u.mollify(2.0 **-k, p) - star) for k in range(3, 11)]
            for e0, e1 in zip(errs, errs[1:]):
                ok &= e1 <= max(e0 * (1.0 + 1e-9), floor)
            ok &= errs[-1] <= 1e-2 * osc
            worst_final = max(worst_final, errs[-1] / osc)
    report(
        "criterion 5 (mollifier convergence, 10 probes per function)",
        ok,
        f"monotone along eps = 2^-k, k=3..10; worst final error {worst_final:.2e} "
        "of oscillation <= 1e-02",
    )


def test_criterion_6_levelset_comparison():
    worst = 0.0
    for label, B, u, phi in comparison_suite(n_cases=10):
        left, right = levelset_comparison_pwc(B, u, phi)
        worst = max(worst, abs(left - right))
    ok = worst <= 1e-8
    report(
        "criterion 6 (level-set comparison, 10 cases)",
        ok,
        f"worst side difference {worst:.3e} <= 1e-08",
    )


def test_criterion_7a_mass_conservation(burgers_run):
    _, field = burgers_run
    worst = float(np.abs(field.mass_defects()).max())
    ok = worst <= 1e-12
    report(
        "criterion 7a (per-step mass defect)",
        ok,
        f"worst boundary-corrected defect {worst:.3e} <= 1e-12 over "
        f"{len(field.times) - 1} steps",
    )


def test_criterion_7b_shock_error_band(burgers_run):
    _, field = burgers_run
    dx = float(field.widths.max())
    exact = np.where(field.centers < 0.8, 1.5, 0.5)
    err = float(np.dot(np.abs(field.slice_values(-1) - exact), field.widths))
    ok = err <= 2.0 * dx
    report(
        "criterion 7b (single-shock accuracy at T = 0.5)",
        ok,
        f"L1 error {err:.3e} <= 2 dx = {2.0 * dx:.3e}",
    )


def test_criterion_7c_stationary_profile():
    flux = step_flux(w_lo=0.1, w_hi=2.0)
    u0 = BVFunction.from_poly(0.0, 1.0, (1.0,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, -0.5)
    field = solve_claw(flux, u0, 0.3, 50)
    drift = float(np.abs(field.states[-1] - field.states[0]).max())
    ok = drift == 0.0
    report(
        "criterion 7c (flux-level profile preserved)",
        ok,
        f"max |u(T) - u(0)| = {drift:.1e} (exact zero required)",
    )


def test_criterion_7d_entropy_residual_signs(burgers_run):
    flux, entropic = burgers_run
    phi = SpaceTimeTest.bump((0.0, 1.2), (0.05, 0.45), 1.0)
    worst_entropic = -np.inf
    for alpha in (0.3, 0.45, 0.7, 1.0):
        res = entropy_residual(entropic, adapted_entropy_pair(flux, alpha), phi)
        worst_entropic = max(worst_entropic, res)

    step = step_flux()
    u0 = BVFunction.from_poly(0.0, 1.0, (1.3,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.35, 0.0, -0.9)
    crossing = solve_claw(step, u0, 0.4, 60)
    phi_s = SpaceTimeTest.bump((0.1, 0.9), (0.05, 0.35), 1.0)
    for alpha in (0.6, 1.0):
        res = entropy_residual(crossing, adapted_entropy_pair(step, alpha), phi_s)
        worst_entropic = max(worst_entropic, res)

    def expand(xs, t):
        return np.where(xs < 0.3 + t, 0.5, 1.5)

    injected = ClawField.from_function(flux, expand, 0.5, 150, 120)
    best_violation = max(
        entropy_residual(injected, adapted_entropy_pair(flux, alpha), phi)
        for alpha in (0.3, 0.45, 0.7, 1.0)
    )
    ok = worst_entropic <= 1e-3 and best_violation > 1e-2
    report(
        "criterion 7d (adapted entropy residuals)",
        ok,
        f"entropic worst {worst_entropic:.3e} <= 1e-03, injected expansion "
        f"best {best_violation:.3e} > 1e-02",
    )


def test_criterion_7e_affine_entropy_coefficients():
    flux = step_flux(w_lo=-2.5, w_hi=2.5)
    pair = adapted_entropy_pair(flux, 0.9)
    ok = True
    worst_interp = 0.0
    for N in (4, 16, 64):
        for x, side in ((0.25, "precise"), (0.5, "left"), (0.5, "right")):
            ae = affine_entropy_approx(pair, flux, N, x, side)
            ok &= min(ae.kink_coeffs, default=0.0) >= 0.0
            knots = np.asarray(ae.grid_knots)
            gap = np.abs(ae.eta(knots) - pair.eta(x, knots, side)).max()
            worst_interp = max(worst_interp, float(gap))
            ok &= gap <= 1e-10
    report(
        "criterion 7e (piecewise-affine entropy coefficients, N in {4,16,64})",
        ok,
        f"kink weights >= 0, worst node interpolation error {worst_interp:.2e} <= 1e-10",
    )


def test_criterion_8_modulus_bound():
    worst_slack = np.inf
    n_checked = 0
    for label, B, blo, bhi, pairs in a2_suite(n_models=6, n_pairs=100):
        mu_mass = measure_total_variation(B.modulus_measure(blo, bhi))
        for w1, w2 in pairs:
            diff = B.x_measure(w1) + B.x_measure(w2).scale(-1.0)
            dist = float(np.linalg.norm(np.asarray(w1) - np.asarray(w2)))
            slack = dist * mu_mass - measure_total_variation(diff)
            worst_slack = min(worst_slack, slack)
            n_checked += 1
    ok = worst_slack >= 0.0 and n_checked == 600
    report(
        "criterion 8 (state-modulus bound, 100 pairs per model)",
        ok,
        f"minimum slack {worst_slack:.3e} >= 0 over {n_checked} pairs",
    )
