"""Term-by-term verification of the derivative of x -> B(x, u(x))."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bvcalc import (
    BVFunction,
    BVVector,
    CompositeFlux,
    DomainError,
    FluxModel,
    PiecewiseConstant,
    ScalarFlux,
    SmoothFunction,
    TestFunction,
    chainrule_star_form,
    chainrule_terms,
    flux_derivatives,
    levelset_comparison_pwc,
    pwc_direct_assembly,
    weighted_chainrule,
)
from bvcalc import quadrature
from bvcalc.cases import chainrule_suite, comparison_suite, monomial
from bvcalc.scenario import parse_scenario

import oracle

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

PHI = TestFunction.poly_bump((0.1, 0.9), (1.0,))


def phi_at(phi, x):
    return float(phi(np.array([x]))[0])


def phi_prime_at(phi, x):
    return float(phi.prime(np.array([x]))[0])


def identity_flux(K):
    return FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),))


# -- closed-form cases -------------------------------------------------------


def test_constant_state_step_flux_is_pure_jump():
    """B = H(x - 1/2) w with constant state: everything sits in the jump sum."""
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0))
    u = BVFunction.constant(0.0, 1.0, 0.75)
    rep = chainrule_terms(B, u, PHI)
    t1, t2, t3, t4, t5 = rep.terms
    assert t5 == pytest.approx(0.75 * phi_at(PHI, 0.5), abs=1e-13)
    assert max(abs(t1), abs(t2), abs(t3), abs(t4)) < 1e-12
    assert rep.lhs == pytest.approx(-t5, abs=1e-10)
    assert abs(rep.residual) < 1e-10


def test_smooth_flux_terms_match_quadrature():
    """B = x w^2, u = x: each slot is a classical integral."""
    K = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),))
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    rep = chainrule_terms(B, u, PHI)
    t1, t2, t3, t4, t5 = rep.terms
    lhs_ref = quad(lambda x: phi_prime_at(PHI, x) * x**3, 0.1, 0.9)[0]
    t1_ref = quad(lambda x: phi_at(PHI, x) * x**2, 0.1, 0.9)[0]
    assert rep.lhs == pytest.approx(lhs_ref, abs=1e-10)
    assert t1 == pytest.approx(t1_ref, abs=1e-10)
    assert t3 == pytest.approx(2.0 * t1_ref, abs=1e-10)
    assert max(abs(t2), abs(t4), abs(t5)) < 1e-13
    assert rep.singular_vacuous
    assert abs(rep.residual) < 1e-9


def test_coinciding_flux_and_state_jump():
    """Flux and state jumping at the same point: plain one-sided bracket."""
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0))
    u = BVFunction.heaviside(0.0, 1.0, 0.5, 2.0, 3.0)
    rep = chainrule_terms(B, u, PHI)
    pa = phi_at(PHI, 0.5)
    assert rep.lhs == pytest.approx(-3.0 * pa, rel=1e-10)
    assert rep.terms[4] == pytest.approx(3.0 * pa, rel=1e-13)
    assert abs(rep.residual) < 1e-9
    # starred split: mean sided flux bracket (2.5 pa) + starred state
    # bracket (0.5 pa) add back up to the same total
    star = chainrule_star_form(B, u, PHI, rep)
    assert star == pytest.approx(3.0 * pa, rel=1e-12)
    assert star == pytest.approx(rep.total, rel=1e-12)


def test_cantor_coefficient_case():
    K = BVFunction.cantor_fn(0.0, 1.0, support=(0.0, 1.0), coefficient=0.8)
    K = K + BVFunction.constant(0.0, 1.0, 0.4)
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),))
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 1.0))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, -0.5)
    rep = chainrule_terms(B, u, PHI, tol=1e-10)
    assert not rep.singular_vacuous
    assert abs(rep.terms[1]) > 1e-3  # the Cantor mass of DK really lands here
    assert abs(rep.residual) <= 1e-9
    star = chainrule_star_form(B, u, PHI, rep)
    assert abs(rep.lhs + star) <= 2e-9


def test_two_component_state():
    """d = 2 with f = w1 w2: oracle integrals split at the state jump."""
    K = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    B = FluxModel(((K, monomial((1, 1), label="w1 w2")),), dim=2)
    u1 = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    u2 = BVFunction.constant(0.0, 1.0, 1.0)
    u2 = u2 + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, 0.5)
    u = BVVector((u1, u2))
    rep = chainrule_terms(B, u, PHI)

    def xu2(x):
        return phi_at(PHI, x) * x * (1.0 if x < 0.6 else 1.5)

    ref = quad(xu2, 0.1, 0.6)[0] + quad(xu2, 0.6, 0.9)[0]
    assert rep.terms[0] == pytest.approx(ref, abs=1e-9)
    assert rep.terms[2] == pytest.approx(ref, abs=1e-9)
    assert rep.terms[4] == pytest.approx(0.18 * phi_at(PHI, 0.6), rel=1e-12)
    assert abs(rep.residual) < 1e-8


@pytest.mark.parametrize(
    "case", chainrule_suite(seed=424242, n_cases=4, n_phi=2), ids=lambda c: c[0]
)
def test_random_cases_close(case):
    label, B, u, phis = case
    for phi in phis:
        rep = chainrule_terms(B, u, phi, tol=1e-8)
        bound = 1e-6 * (1.0 + abs(rep.lhs))
        assert abs(rep.residual) <= bound
        star = chainrule_star_form(B, u, phi, rep)
        assert abs(rep.lhs + star) <= 2.0 * bound
        assert chainrule_terms(B, u, phi, tol=1e-8) == rep


def golden_cases():
    """One case each: a Cantor-coefficient flux, a two-component state with
    a Cantor part, coinciding flux and state jumps, and a test function
    whose support touches the domain edge (cutting into a Cantor support)."""
    K = BVFunction.cantor_fn(0.0, 1.0, support=(0.0, 1.0), coefficient=0.8)
    K = K + BVFunction.constant(0.0, 1.0, 0.4)
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),))
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 1.0))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, -0.5)
    yield "cantor-flux", B, u, PHI
    K = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    B = FluxModel(((K, monomial((1, 1), label="w1 w2")),), dim=2)
    u1 = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    u1 = u1 + BVFunction.cantor_fn(0.0, 1.0, support=(0.2, 0.5), coefficient=0.3)
    u2 = BVFunction.constant(0.0, 1.0, 1.0)
    u2 = u2 + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, 0.5)
    yield "two-component", B, BVVector((u1, u2)), PHI
    B = FluxModel(
        ((BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0),
          SmoothFunction.poly1d((0.0, 1.0, 0.5), "w + w^2/2")),)
    )
    u = BVFunction.from_poly(0.0, 1.0, (0.3, 0.4))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.5, 2.0, 3.0)
    yield "coinciding-jumps", B, u, PHI
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 0.5))
    K = K + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.7)
    K = K + BVFunction.cantor_fn(0.0, 1.0, support=(2.0 / 3.0, 1.0), coefficient=0.4)
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0, 0.0, 0.2), "w + w^3/5")),))
    u = BVFunction.from_poly(0.0, 1.0, (0.1, -0.6, 0.9))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.45, 0.0, 0.35)
    yield "phi-at-edge", B, u, TestFunction.poly_bump((0.0, 0.8), (1.0, 0.5))


# repr of (lhs, terms) at the default tolerance, pinned so that any change
# to the assembly that moves a single bit shows here
GOLDEN = {
    "cantor-flux": (
        "-0.03658463772396033",
        "(0.0, 0.03920457721569269, 0.38409881050842476, 0.0, -0.3867187500000001)",
    ),
    "two-component": (
        "-0.9414668375650986",
        "(0.3711208699544164, 0.0, 0.25367513020833143, 0.07936614990234375, "
        "0.23730468750000003)",
    ),
    "coinciding-jumps": (
        "-10.013266666666667",
        "(0.0, 0.0, 0.38826666666666676, 0.0, 9.625)",
    ),
    "phi-at-edge": (
        "-0.9525470432917053",
        "(0.04150747175094201, 0.0188742488089982, 0.17912179074567555, 0.0, "
        "0.7130435319868145)",
    ),
}


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c[0])
def test_chainrule_terms_golden_values(case):
    name, B, u, phi = case
    rep = chainrule_terms(B, u, phi)
    assert (repr(rep.lhs), repr(rep.terms)) == GOLDEN[name]


def singular_jump_case():
    """A flux and a state that both carry a Cantor part on [1/4, 3/4], a
    state jump on the flux's jump set and one off it, and five test
    functions: three reach every part, two of them with a support end on a
    Cantor point (x = 3/8 and 5/8 are t = 1/4 and 3/4 of the support), one
    misses the Cantor support, one holds no jump."""
    K = BVFunction.from_poly(0.0, 1.0, (0.5, 0.3))
    K = K + BVFunction.cantor_fn(0.0, 1.0, support=(0.25, 0.75), coefficient=0.6)
    K = K + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 0.4)
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.7))
    u = u + BVFunction.cantor_fn(0.0, 1.0, support=(0.25, 0.75), coefficient=0.4)
    u = u + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, -0.3)
    u = u + BVFunction.heaviside(0.0, 1.0, 0.85, 0.0, 0.25)
    phis = tuple(
        TestFunction.poly_bump(sup, (1.0, 0.4))
        for sup in ((0.05, 0.95), (0.375, 0.9), (0.1, 0.625), (0.78, 0.97), (0.3, 0.45))
    )
    return K, u, phis


def _batch_cases():
    for seed in (1, 2):
        for label, B, u, phis in chainrule_suite(seed, 4):
            yield pytest.param(B, u, phis, id=f"seed{seed}-{label}")
    sc = parse_scenario(SCENARIOS / "chainrule_heaviside.ini")
    yield pytest.param(sc.flux, sc.state, sc.phis, id="chainrule_heaviside")
    K, u, phis = singular_jump_case()
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0, 0.5), "w + w^2/2")),))
    yield pytest.param(B, u, phis, id="singular-jump-product")
    yield pytest.param(CompositeFlux(monomial((1, 2), label="y w^2"), K), u, phis, id="singular-jump-composite")


@pytest.mark.parametrize("B, u, phis", _batch_cases())
def test_many_phis_in_one_call_give_the_bits_of_one_call_each(B, u, phis):
    """The test functions of a case share each node's u and B, each Cantor
    node's too, and each jump bracket, but each keeps its own layout, cuts
    and points, so each report has the bits of its own call."""
    batched = chainrule_terms(B, u, tuple(phis), tol=1e-9)
    assert [repr(r) for r in batched] == [repr(chainrule_terms(B, u, p, tol=1e-9)) for p in phis]


def test_singular_jump_case_reaches_every_slot():
    """In the explicit batch case t2, t4 and t5 are all nonzero where the
    support reaches the Cantor part and a jump, and t2 and t4 vanish for
    the test function that misses the Cantor support."""
    K, u, phis = singular_jump_case()
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0, 0.5), "w + w^2/2")),))
    reports = chainrule_terms(B, u, phis, tol=1e-9)
    for rep in reports[:3]:
        _, t2, _, t4, t5 = rep.terms
        assert t2 != 0.0 and t4 != 0.0 and t5 != 0.0
    _, t2, _, t4, t5 = reports[3].terms
    assert t2 == t4 == 0.0 and t5 != 0.0
    assert reports[4].terms[4] == 0.0
    for rep in reports:
        assert abs(rep.residual) <= 1e-8


def _poly_mul(p, q):
    """The product of two polynomials in (x, C), dicts by (i, j)."""
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return out


def _poly_sum(*ps):
    out = {}
    for p in ps:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return out


def _poly_of(coeffs, u):
    """sum_k coeffs[k] u^k for a polynomial u in (x, C), by Horner."""
    out = {}
    for c in reversed(coeffs):
        out = _poly_sum(_poly_mul(out, u), {(0, 0): Fraction(c)})
    return out


def _phi_poly(phi):
    """phi on its support as a polynomial in x, from its float centre,
    half-width and coefficients read exactly."""
    t = {(0, 0): -Fraction(phi._c) / Fraction(phi._h), (1, 0): 1 / Fraction(phi._h)}
    return _poly_of([Fraction(c) for c in phi._p], t)


def joint_cases():
    """The paper's joint case, a flux and a state that carry Cantor parts on
    one support, as (name, B, u, phis, support, pieces): per piece of the
    support between jumps, its ends and the t2 and t4 densities against the
    support's mu_C as polynomials in (x, C), for the oracle.

    ``singular_jump_case`` has the support [1/4, 3/4] and its K and u jump
    at 1/2, in the middle gap; its flux is K (w + w^2/2) or y w^2 of
    (y, w) = (K, u).  The quartic case is B = K (1 + w + w^2/2 + w^3/6 +
    w^4/24) with K = 0.5 + 0.3x + 0.6 C and u = 0.2 + 0.7x + 0.8 C, both C
    on ]0.2, 0.8[; one of its test functions ends at x = 0.35, the Cantor
    point t = 1/4 of the support."""
    F = Fraction
    K, u, phis = singular_jump_case()
    halves = []
    for jump in (0, 1):
        k = {(0, 0): F("0.5") + F("0.4") * jump, (1, 0): F("0.3"), (0, 1): F("0.6")}
        w = {(0, 0): F("0.2") - F("0.3") * jump, (1, 0): F("0.7"), (0, 1): F("0.4")}
        halves.append((k, w))
    support, cuts = (F(1, 4), F(3, 4)), (F(1, 4), F(1, 2), F(3, 4))
    for name, B, f, df in (
        ("product", FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0, 0.5), "w + w^2/2")),)),
         (0, 1, F(1, 2)), (1, 1)),
        ("composite", CompositeFlux(monomial((1, 2), label="y w^2"), K), (0, 0, 1), (0, 2)),
    ):
        pieces = [
            (a, b, _poly_mul({(0, 0): F("0.6")}, _poly_of(f, w)),
             _poly_mul({(0, 0): F("0.4")}, _poly_mul(k, _poly_of(df, w))))
            for a, b, (k, w) in zip(cuts, cuts[1:], halves)
        ]
        yield name, B, u, phis, support, pieces
    K = BVFunction.from_poly(0.0, 1.0, (0.5, 0.3))
    K = K + BVFunction.cantor_fn(0.0, 1.0, support=(0.2, 0.8), coefficient=0.6)
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.7))
    u = u + BVFunction.cantor_fn(0.0, 1.0, support=(0.2, 0.8), coefficient=0.8)
    f = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24)
    B = FluxModel(((K, SmoothFunction.poly1d(f, "quartic")),))
    k = {(0, 0): F("0.5"), (1, 0): F("0.3"), (0, 1): F("0.6")}
    w = {(0, 0): F("0.2"), (1, 0): F("0.7"), (0, 1): F("0.8")}
    f = [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)]
    pieces = [(F("0.2"), F("0.8"), _poly_mul({(0, 0): F("0.6")}, _poly_of(f, w)),
               _poly_mul({(0, 0): F("0.8")}, _poly_mul(k, _poly_of(f[:4], w))))]
    phis = (PHI, TestFunction.poly_bump((0.35, 0.9), (1.0, 0.4)))
    yield "quartic", B, u, phis, (F("0.2"), F("0.8")), pieces


def _singular_oracle(phi, support, pieces):
    """The exact t2 and t4 of ``phi`` from the densities of ``pieces``."""
    a, b = Fraction(repr(phi.support.a)), Fraction(repr(phi.support.b))
    poly = _phi_poly(phi)
    exact = [Fraction(0), Fraction(0)]
    for lo, hi, *densities in pieces:
        lo, hi = max(lo, a), min(hi, b)
        if hi > lo:
            for slot, dens in enumerate(densities):
                exact[slot] += oracle.window_integral(_poly_mul(poly, dens), support, lo, hi)
    return exact


@pytest.mark.parametrize("case", joint_cases(), ids=lambda c: c[0])
def test_joint_cases_meet_the_tolerance(case):
    """In the joint case each report closes to tol (1 + |lhs|) for tol from
    1e-8 to 1e-12, and its two mu_C slots, whose densities are polynomial
    in (x, C) on each piece, are each within tol of the oracle's exact
    rationals.  The window ends of the oracle are the decimal ends of the
    test functions' supports (0.3 is a Cantor point of [1/4, 3/4]), where
    phi vanishes to second order."""
    _, B, u, phis, support, pieces = case
    exact = [_singular_oracle(phi, support, pieces) for phi in phis]
    for tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        for rep, (t2, t4) in zip(chainrule_terms(B, u, tuple(phis), tol=tol), exact):
            assert abs(rep.residual) <= tol * (1.0 + abs(rep.lhs)), tol
            assert abs(rep.terms[1] - float(t2)) <= tol, tol
            assert abs(rep.terms[3] - float(t4)) <= tol, tol


def test_singular_and_jump_costs_do_not_grow_with_the_test_functions(monkeypatch):
    """A five-phi call makes as many integrand calls on the mu_C rules as
    the one-phi call that makes the most: each refinement pass evaluates
    the union of the phis' live Cantor cells once.  It takes each jump
    bracket once: two sided flux values per distinct jump point inside
    some window."""
    calls = {"mu": 0, "eval": 0}
    evaluate, flux_eval = quadrature._evaluate, FluxModel.eval

    def counted_evaluate(f, parts):
        if any(nodes is quadrature._MU or nodes is quadrature._CENTRE for _, _, nodes, _ in parts):
            def counted(xs):
                calls["mu"] += 1
                return f(xs)

            return evaluate(counted, parts)
        return evaluate(f, parts)

    def counted_eval(self, *args, **kwargs):
        calls["eval"] += 1
        return flux_eval(self, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_evaluate", counted_evaluate)
    monkeypatch.setattr(FluxModel, "eval", counted_eval)
    K, u, phis = singular_jump_case()
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0, 0.5), "w + w^2/2")),))

    def counts(arg):
        calls.update(mu=0, eval=0)
        chainrule_terms(B, u, arg, tol=1e-9)
        return dict(calls)

    each = [counts(p) for p in phis]
    five = counts(phis)
    assert five["mu"] == max(c["mu"] for c in each) > 1
    # jump points 0.5 and 0.85: one call takes 2 brackets of 2 sided values,
    # one call per phi 2 + 2 + 1 + 1 + 0 brackets
    assert five["eval"] == 4
    assert sum(c["eval"] for c in each) == 12


def test_one_cell_layout_per_case_and_sided_jump_brackets(monkeypatch):
    """lhs, term 1 and term 3 share one mandatory decomposition, and the jump
    sum is built from the sided pointwise flux values."""
    calls = {"build_cells": 0, "eval": 0}
    build_cells, flux_eval = quadrature.build_cells, FluxModel.eval

    def counted_build_cells(*args, **kwargs):
        calls["build_cells"] += 1
        return build_cells(*args, **kwargs)

    def counted_eval(self, *args, **kwargs):
        calls["eval"] += 1
        return flux_eval(self, *args, **kwargs)

    monkeypatch.setattr(quadrature, "build_cells", counted_build_cells)
    monkeypatch.setattr(FluxModel, "eval", counted_eval)
    _, B, u, phi = next(c for c in golden_cases() if c[0] == "phi-at-edge")
    chainrule_terms(B, u, phi)
    assert calls["build_cells"] == 1
    assert calls["eval"] >= 1


def test_cantor_case_lebesgue_point_count(monkeypatch):
    """The Lebesgue quadrature of a case with a Cantor flux coefficient on
    [0, 1/3], for both its test functions at tol 1e-8, passes 504 points to
    the integrand with the fitted leftover rules (41,064 when every support
    was tiled to a fixed level 12 with one midpoint per leftover cell).
    The count is deterministic; the bound is 1.5 times it.  The points
    come in 4 integrand calls, two per test function, one pass each: one
    call on the K7 nodes of its smooth cells and the nodes of its leftover
    cells, which all pass, and one on the other nodes of the cells that
    fail K7.  Only the points of ``integrate_interval`` count: the mu_C
    slots go through the same driver."""
    from bvcalc import chainrule

    points, lebesgue = [], []
    apply, integrate = quadrature._apply, chainrule.integrate_interval

    def counted(f, xs, stacked=False):
        if lebesgue:
            points.append(xs.size)
        return apply(f, xs, stacked)

    def flagged(*args, **kwargs):
        lebesgue.append(True)
        try:
            return integrate(*args, **kwargs)
        finally:
            lebesgue.pop()

    monkeypatch.setattr(quadrature, "_apply", counted)
    monkeypatch.setattr(chainrule, "integrate_interval", flagged)
    label, B, u, phis = chainrule_suite(seed=424242, n_cases=4, n_phi=2)[0]
    assert B.cantor_supports() == ((0.0, 1.0 / 3.0),)
    for phi in phis:
        chainrule_terms(B, u, phi, tol=1e-8)
    assert sum(points) <= 756
    assert len(points) == 4


def test_one_piece_lookup_per_state_component_and_flux_term(monkeypatch):
    """The diffuse integrand looks up the pieces of each state component
    once for u and u', and of each flux coefficient once for K and K'."""
    from bvcalc import chainrule
    from bvcalc.measures import PiecewisePolynomial

    integrands = []

    def capture(f, lo, hi, **kwargs):
        integrands.append(f)
        return np.zeros(3 * len(lo))

    monkeypatch.setattr(chainrule, "integrate_interval", capture)
    bent = BVFunction.from_poly(0.0, 1.0, (0.2, 1.0, -0.5))
    u = BVVector((
        bent + BVFunction.heaviside(0.0, 1.0, 0.4, 0.0, 0.3),
        bent + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, -0.2) + BVFunction.cantor_fn(0.0, 1.0),
    ))
    B = FluxModel((
        (bent + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0), monomial((1, 1))),
        (BVFunction.from_poly(0.0, 1.0, (1.0, 2.0)), monomial((0, 2))),
    ), dim=2)
    chainrule_terms(B, u, PHI)
    (diffuse,) = integrands

    lookups = []
    for name in ("at", "with_slope"):
        method = getattr(PiecewisePolynomial, name, None)
        if method is not None:
            def counted(self, *args, _method=method, **kwargs):
                lookups.append(self)
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(PiecewisePolynomial, name, counted)
    rows = np.sort(np.random.default_rng(3).uniform(0.1, 0.9, (40, 7)), axis=1)
    for xs in (rows, rows[:, 3]):
        lookups.clear()
        diffuse(xs)
        assert len(lookups) == len(u.components) + len(B.terms)


def test_diffuse_evaluates_each_bump_once_per_block(monkeypatch):
    """The diffuse integrand takes phi and phi' of each test function from
    one ``with_slope`` call per block, and no separate phi or phi' call."""
    from bvcalc import chainrule

    integrands = []

    def capture(f, lo, hi, **kwargs):
        integrands.append(f)
        return np.zeros(3 * len(lo))

    monkeypatch.setattr(chainrule, "integrate_interval", capture)
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 1.0, -0.5)) + BVFunction.heaviside(0.0, 1.0, 0.4, 0.0, 0.3)
    B = identity_flux(BVFunction.from_poly(0.0, 1.0, (1.0, 2.0)))
    phis = (PHI, TestFunction.poly_bump((0.3, 0.7), (1.0, 0.5)), TestFunction.poly_bump((0.0, 1.0), (0.5,)))
    chainrule_terms(B, u, phis)
    (diffuse,) = integrands

    calls = []
    for name in ("__call__", "prime", "with_slope"):
        def counted(self, *args, _name=name, _method=getattr(TestFunction, name), **kwargs):
            calls.append((_name, id(self)))
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(TestFunction, name, counted)
    rows = np.sort(np.random.default_rng(5).uniform(0.05, 0.95, (40, 7)), axis=1)
    for xs in (rows, rows[:, 3]):
        calls.clear()
        diffuse(xs)
        assert sorted(calls) == sorted(("with_slope", id(phi)) for phi in phis)


# -- specialized assemblies --------------------------------------------------


def test_product_form_matches_general_report():
    """A product flux K f split as K1 f + K2 f with K1 + K2 = K reproduces
    every slot of the one-term flux, the Cantor slot included."""
    K1 = BVFunction.heaviside(0.0, 1.0, 0.35, 0.6, 1.4)
    K2 = BVFunction.cantor_fn(0.0, 1.0, support=(0.5, 1.0), coefficient=0.7)
    f = SmoothFunction.poly1d((0.0, 1.0, 0.3), "w + 0.3 w^2")
    u = BVFunction.from_poly(0.0, 1.0, (0.1, 0.8))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.7, 0.0, 0.45)
    summed = chainrule_terms(FluxModel(((K1 + K2, f),)), u, PHI, tol=1e-9)
    split = chainrule_terms(FluxModel(((K1, f), (K2, f))), u, PHI, tol=1e-9)
    assert abs(summed.terms[1]) > 1e-2
    assert split.lhs == pytest.approx(summed.lhs, abs=1e-9)
    for got, want in zip(split.terms, summed.terms):
        assert got == pytest.approx(want, abs=2e-9)
    assert abs(split.residual) <= 1e-8


def test_composite_form_matches_product_flux():
    """f2(y, w) = y w^2 through y = K(x) is the product flux K(x) w^2."""
    K = BVFunction.constant(0.0, 1.0, 0.8)
    K = K + BVFunction.heaviside(0.0, 1.0, 0.45, 0.0, 0.6)
    u = BVFunction.from_poly(0.0, 1.0, (0.3, 0.5))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.7, 0.0, -0.4)
    f2 = monomial((1, 2), label="y w^2")
    composite = chainrule_terms(CompositeFlux(f2, K), u, PHI, tol=1e-9)
    total, lhs = composite.total, composite.lhs
    assert abs(lhs + total) <= 1e-8
    rep = chainrule_terms(
        FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)),
        u, PHI, tol=1e-9,
    )
    assert total == pytest.approx(rep.total, abs=1e-8)
    assert lhs == pytest.approx(rep.lhs, abs=1e-8)


def test_composite_form_with_a_cantor_coefficient():
    """The composite flux's Cantor branch: f2(y, w) = y w^2 through a K with
    a Cantor part equals the product flux K(x) w^2, singular slot included."""
    K = BVFunction.constant(0.0, 1.0, 0.5)
    K = K + BVFunction.heaviside(0.0, 1.0, 0.2, 0.0, 0.3)
    K = K + BVFunction.cantor_fn(0.0, 1.0, support=(1.0 / 3.0, 1.0), coefficient=0.6)
    u = BVFunction.from_poly(0.0, 1.0, (0.4, 0.5))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.7, 0.0, -0.3)
    f2 = monomial((1, 2), label="y w^2")
    rep = chainrule_terms(
        FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)),
        u, PHI, tol=1e-9,
    )
    assert abs(rep.terms[1]) > 1e-2
    composite = chainrule_terms(CompositeFlux(f2, K), u, PHI, tol=1e-9)
    assert composite.total == pytest.approx(rep.total, abs=1e-8)
    assert composite.lhs == pytest.approx(rep.lhs, abs=1e-8)
    for got, want in zip(composite.terms, rep.terms):
        assert got == pytest.approx(want, abs=1e-8)
    assert not composite.singular_vacuous


def test_weighted_identity_unit_weight():
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.3, 1.1))
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.7))
    g = BVFunction.constant(0.0, 1.0, 1.0)
    pairing, total = weighted_chainrule(B, u, g, PHI)
    rep = chainrule_terms(B, u, PHI)
    assert pairing == pytest.approx(rep.total, abs=1e-9)
    assert total == pytest.approx(rep.total, abs=1e-9)


def test_weighted_identity_step_weight():
    """Weight jumping on the exceptional set: both assemblies agree."""
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.3, 1.1))
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.7))
    u = u + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.4)
    g = BVFunction.constant(0.0, 1.0, 1.0)
    g = g + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 0.5)
    pairing, total = weighted_chainrule(B, u, g, PHI)
    assert pairing == pytest.approx(total, abs=1e-9)


def test_weight_jump_off_exceptional_set_rejected():
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.3, 1.1))
    u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.7))
    g = BVFunction.heaviside(0.0, 1.0, 0.2, 1.0, 1.5)
    with pytest.raises(DomainError):
        weighted_chainrule(B, u, g, PHI)


def test_direct_assembly_constant_state():
    B = FluxModel(
        ((BVFunction.heaviside(0.0, 1.0, 0.5, 0.2, 1.0),
          SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)
    )
    u = PiecewiseConstant((0.0, 1.0), (0.8,), ())
    direct = pwc_direct_assembly(B, u, PHI)
    t = chainrule_terms(B, u.to_bv(), PHI).terms
    assert direct == pytest.approx(t[0] + t[1] + t[4], abs=1e-9)


def test_direct_assembly_chord_correction():
    """State jump where the flux depends on the state: the starred chord
    sum accounts for the difference from the report's x-derivative slots."""
    B = FluxModel(
        ((BVFunction.from_poly(0.0, 1.0, (1.0, 1.0)),
          SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)
    )
    u = PiecewiseConstant((0.0, 0.4, 1.0), (0.5, 1.2), (0.85,))
    direct = pwc_direct_assembly(B, u, PHI)
    chord = phi_at(PHI, 0.4) * 1.4 * (1.2**2 - 0.5**2)
    t = chainrule_terms(B, u.to_bv(), PHI).terms
    assert t[0] + t[1] + t[4] == pytest.approx(direct + chord, abs=1e-9)


def test_direct_assembly_zero_mean_flux_jump():
    """A state jump placed at a zero-mean flux jump: the starred flux there
    is state-independent, so the chord correction vanishes identically."""
    B = FluxModel(
        ((BVFunction.heaviside(0.0, 1.0, 0.5, -0.5, 0.5),
          SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)
    )
    u = PiecewiseConstant((0.0, 0.5, 1.0), (0.6, 1.1), (0.85,))
    direct = pwc_direct_assembly(B, u, PHI)
    t = chainrule_terms(B, u.to_bv(), PHI).terms
    assert direct == pytest.approx(t[0] + t[1] + t[4], abs=1e-9)
    # hand value of the shared interface bracket
    assert direct == pytest.approx(0.785 * phi_at(PHI, 0.5), abs=1e-9)


def cantor_coefficient():
    """K = 0.7 + a jump at 0.6 + 0.8 C on ]0, 1/3[."""
    K = BVFunction.constant(0.0, 1.0, 0.7)
    K = K + BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, 0.4)
    return K + BVFunction.cantor_fn(0.0, 1.0, support=(0.0, 1.0 / 3.0), coefficient=0.8)


@pytest.mark.parametrize("composite", [False, True], ids=["model", "composite"])
def test_direct_assembly_cantor_coefficient(composite):
    """The Cantor branch of the direct assembly, for either protocol flux:
    with a constant state it equals terms 1 + 2 + 5 of the report."""
    K = cantor_coefficient()
    if composite:
        B = CompositeFlux(monomial((1, 2), label="y w^2"), K)
    else:
        B = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),))
    u = PiecewiseConstant((0.0, 1.0), (0.8,), ())
    direct = pwc_direct_assembly(B, u, PHI)
    t = chainrule_terms(B, u.to_bv(), PHI).terms
    assert abs(t[1]) > 1e-2
    assert direct == pytest.approx(t[0] + t[1] + t[4], abs=1e-9)


def test_direct_assembly_needs_one_value_per_cell():
    """The assembly takes a PiecewiseConstant, which refuses a partition
    with a value count that does not match its cells."""
    with pytest.raises(DomainError, match="one value per cell"):
        PiecewiseConstant((0.0, 0.5, 1.0), (1.0,), (0.5,))


# -- level-set comparison ----------------------------------------------------


def test_levelset_comparison_hand_case():
    B = identity_flux(BVFunction.heaviside(0.0, 1.0, 0.5, 0.4, 1.0))
    u = PiecewiseConstant((0.0, 0.3, 1.0), (1.0, 2.0), (1.5,))
    left, right = levelset_comparison_pwc(B, u, PHI)
    assert left == pytest.approx(right, abs=1e-10)
    assert right == pytest.approx(1.2 * phi_at(PHI, 0.5), rel=1e-10)


@pytest.mark.parametrize("case", comparison_suite(seed=7, n_cases=4),
                         ids=lambda c: c[0])
def test_levelset_comparison_random(case):
    label, B, u, phi = case
    left, right = levelset_comparison_pwc(B, u, phi)
    assert abs(left - right) <= 1e-8 * (1.0 + abs(left))


def test_levelset_comparison_guards():
    u = PiecewiseConstant((0.0, 0.3, 1.0), (1.0, 2.0), (1.5,))
    affine = FluxModel(
        ((BVFunction.heaviside(0.0, 1.0, 0.5, 0.4, 1.0),
          SmoothFunction.poly1d((1.0, 1.0), "1 + w")),)
    )
    with pytest.raises(DomainError):
        levelset_comparison_pwc(affine, u, PHI)
    planar = FluxModel(
        ((BVFunction.heaviside(0.0, 1.0, 0.5, 0.4, 1.0), monomial((1, 1))),),
        dim=2,
    )
    with pytest.raises(DomainError):
        levelset_comparison_pwc(planar, u, PHI)


def test_factored_flux_machinery_rejects_a_composite_flux():
    """The comparison identity and the conservation-law flux factor B as
    sum K_k f_k, which a CompositeFlux f2(K, w) does not give."""
    K = BVFunction.heaviside(0.0, 1.0, 0.5, 0.4, 1.0)
    B = CompositeFlux(monomial((1, 1)), K)
    u = PiecewiseConstant((0.0, 0.3, 1.0), (1.0, 2.0), (1.5,))
    with pytest.raises(DomainError, match="needs a scalar-state FluxModel"):
        ScalarFlux(B, 0.1, 2.0)
    with pytest.raises(DomainError, match="needs a scalar-state FluxModel"):
        levelset_comparison_pwc(B, u, PHI)


# -- pointwise handles -------------------------------------------------------


def test_pointwise_flux_value_evaluates_the_state_as_given():
    """FluxModel.eval feeds the state vector itself to each f_k: numpy
    rounds w**3 differently for a float and for a length-1 array, and the
    sided chain-rule brackets must keep the float rounding."""
    w = np.array([0.1, 1.3241490693671225])
    assert w[1] ** 3 != (w[1:, None] ** 3)[0, 0]
    K = BVFunction.constant(0.0, 1.0, 1.0) + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 2.0)
    B = FluxModel(((K, monomial((0, 3))),), dim=2)
    for side, k in (("left", 1.0), ("right", 3.0), ("precise", 2.0)):
        assert B.eval(0.5, w, side) == k * float(w[1] ** 3)


def test_pointwise_derivatives_and_exceptional_guard():
    K = BVFunction.from_poly(0.0, 1.0, (0.0, 2.0))
    K = K + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0)
    B = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),))
    gx, gw, psi = flux_derivatives(B, 0.25, (0.6,))
    assert gx == pytest.approx(2.0 * 0.36)
    assert gw[0] == pytest.approx(0.5 * 1.2)
    assert psi == {}
    with pytest.raises(DomainError):
        flux_derivatives(B, 0.5, (0.6,))


def test_pointwise_singular_density_of_either_flux():
    """psi maps each Cantor base to the density of the singular x-part
    against that base: c f(w) for a one-term flux K(x) f(w), the value
    singular_densities() gives at (x, w), and c df2/dy(K(x), w) for a
    composite flux."""
    K = cantor_coefficient()
    f = SmoothFunction.poly1d((0.2, 0.0, 1.0), "0.2 + w^2")
    w = np.array([0.6])
    (base, dens), = FluxModel(((K, f),)).singular_densities()
    _, _, psi = flux_derivatives(FluxModel(((K, f),)), 0.25, w)
    assert psi == {base: 0.8 * f(w)}
    assert psi[base] == float(dens(np.array([0.25]), w[:, None])[0])
    _, gw, psi = flux_derivatives(CompositeFlux(monomial((1, 2), label="y w^2"), K), 0.25, w)
    y = float(K.values(np.array([0.25]))[0])
    assert gw[0] == pytest.approx(2.0 * y * 0.6)
    assert psi == {base: pytest.approx(0.8 * 0.36)}


def test_smooth_function_gradient_probe():
    f = monomial((2, 1), coeff=0.7)
    ok, worst = f.check_gradient([(0.4, 1.2), (0.8, -0.3), (1.1, 0.5)])
    assert ok
    assert worst < 1e-5
