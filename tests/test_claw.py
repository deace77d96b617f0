"""Conservation laws with space-discontinuous flux: solver + entropy tools."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bvcalc.claw as claw
from bvcalc import (
    BVFunction,
    CFLError,
    ClawField,
    DomainError,
    FluxModel,
    RangeError,
    RepresentationError,
    ScalarFlux,
    SmoothFunction,
    SpaceTimeTest,
    adapted_entropy_pair,
    affine_entropy_approx,
    affine_pair,
    c_alpha_values,
    entropy_residual,
    is_rankine_hugoniot,
    solve_claw,
)
from bvcalc.cases import monomial
from bvcalc.quadrature import _ROOT_TOL, _bisect, integrate_interval


def test_gauss_legendre_12_literals_are_numpys_bits():
    """The entropy residual's GL-12 rule is written out as literals, so no
    LAPACK call runs at import; its bits are those of numpy's rule."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert claw._GL_NODES.tobytes() == nodes.tobytes()
    assert claw._GL_WEIGHTS.tobytes() == weights.tobytes()


def step_flux(lo=0.0, hi=1.0, w_lo=0.1, w_hi=2.5):
    """B(x, w) = (1 + H(x - 1/2)) w: linear state, one flux jump."""
    K = BVFunction.constant(lo, hi, 1.0) + BVFunction.heaviside(lo, hi, 0.5, 0.0, 1.0)
    model = FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),))
    return ScalarFlux(model, w_lo, w_hi)


def falling_step_flux():
    """B(x, w) = -(2 - H(x - 1/2)) w: decreasing in the state, one jump."""
    K = BVFunction.constant(0.0, 1.0, -2.0) + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0)
    return ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)


def power_flux(sign=1.0):
    """B(x, w) = sign ((1 + H(x - 1/2)) w^3/2 + 0.8 w): two terms whose
    state functions take numpy powers (``cases.monomial``)."""
    K = BVFunction.constant(0.0, 1.0, 1.0) + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0)
    terms = ((K, monomial((3,), 0.5 * sign)), (BVFunction.constant(0.0, 1.0, 0.8), monomial((1,), sign)))
    return ScalarFlux(FluxModel(terms), 0.1, 2.5)


def burgers_flux(lo=-1.0, hi=2.0, w_lo=0.1, w_hi=2.0):
    K = BVFunction.constant(lo, hi, 1.0)
    model = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 0.5), "w^2/2")),))
    return ScalarFlux(model, w_lo, w_hi)


# -- flux certification and level inversion ----------------------------------


def test_monotone_certificate_accepts_and_orients():
    assert step_flux().direction == 1
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 1.0))
    cubic = FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 0.0, 1.0), "w^3")),))
    assert ScalarFlux(cubic, 0.5, 2.5).direction == 1
    falling = FluxModel(
        ((BVFunction.constant(0.0, 1.0, -1.0), SmoothFunction.poly1d((0.0, 1.0))),)
    )
    assert ScalarFlux(falling, 0.1, 2.0).direction == -1


def test_monotone_certificate_rejects_parabola():
    """w^2 changes monotonicity inside (-2, 2): value-based check trips."""
    model = FluxModel(
        ((BVFunction.constant(0.0, 1.0, 1.0),
          SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),)
    )
    with pytest.raises(DomainError):
        ScalarFlux(model, -2.0, 2.0)


def test_level_inversion_closed_forms():
    flux = step_flux()
    assert c_alpha_values(flux, [0.25], 1.0, "precise")[0] == pytest.approx(1.0, abs=1e-12)
    assert c_alpha_values(flux, [0.5], 1.0, "left")[0] == pytest.approx(1.0, abs=1e-12)
    assert c_alpha_values(flux, [0.5], 1.0, "right")[0] == pytest.approx(0.5, abs=1e-12)
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 1.0))
    cubic = ScalarFlux(
        FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 0.0, 1.0), "w^3")),)),
        0.5, 2.5,
    )
    assert c_alpha_values(cubic, [0.6], 12.8, "precise")[0] == pytest.approx(2.0, abs=1e-11)
    with pytest.raises(RangeError):
        c_alpha_values(flux, [0.25], 100.0, "precise")


def test_level_inversion_vectorized_matches_pointwise():
    flux = step_flux()
    xs = np.array([0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
    got = c_alpha_values(flux, xs, 1.2)
    want = np.array([c_alpha_values(flux, [x], 1.2, "precise")[0] for x in xs])
    assert np.abs(got - want).max() < 1e-11


def _reference_c_alpha(flux, x, alpha, side="precise", tol=1e-14):
    """The one-point bisection the library used before the inversion was
    vectorized, one flux evaluation per pass."""
    lo, hi = flux.w_lo, flux.w_hi
    flo = flux.value(x, lo, side) - alpha
    fhi = flux.value(x, hi, side) - alpha
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RangeError(f"level {alpha} not attained by the flux at x={x} ({side})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = flux.value(x, mid, side) - alpha
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _pointwise_gap(flux, x, alpha, side):
    """w -> (B(x_side, w) - alpha, its state slope), one state at a time:
    ``flux.value``, and sum_k K_k(x_side) f_k'(w) in term order."""

    def gap(w):
        slope = sum(K.eval(x, side) * float(f.gradient(np.array([w]))[0]) for K, f in flux.model.terms)
        return flux.value(x, w, side) - alpha, slope

    return gap


def _pointwise_c_alpha(flux, x, alpha, side="precise"):
    """c_alpha at one point: the range ends as the library reads them, then
    the root search driven by ``_pointwise_gap``."""
    gap = _pointwise_gap(flux, x, alpha, side)
    lo, hi = flux.w_lo, flux.w_hi
    flo, fhi = gap(lo)[0], gap(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RangeError(f"level {alpha} not attained by the flux at x={x} ({side})")

    def g(ws, idx):
        return tuple(np.array(v) for v in zip(*(gap(w) for w in ws.tolist())))

    return float(_bisect(g, [lo], [hi], [fhi])[0])


def _spy_searches(monkeypatch):
    """Per ``_bisect`` call of claw: its hi-end gaps, and per pass of the
    search every (bracket, w, g, g') it asks for, as hex strings."""
    calls = []

    def spy(g, lo, hi, ghi):
        asked = []

        def rec(w, i):
            v, dv = g(w, i)
            asked.append(list(zip(i.tolist(), *([t.hex() for t in a.tolist()] for a in (w, v, dv)))))
            return v, dv

        calls.append(([t.hex() for t in np.asarray(ghi).tolist()], asked))
        return _bisect(rec, lo, hi, ghi)

    monkeypatch.setattr(claw, "_bisect", spy)
    return calls


def _check_inversion(flux, xs, alphas, side, got, calls):
    """``got`` is c_alpha_values at ``xs`` from one root search (``calls``,
    from ``_spy_searches``).  Every (w, g, g') it asked for is bit for bit
    the pointwise gap and slope at its point; each state is, bit for bit,
    the root search driven by those pointwise values; and each is within
    the stop width of the reference bisection, with g changing sign across
    it unless it is an exact zero."""
    alphas = np.broadcast_to(alphas, xs.shape).tolist()
    gaps = [_pointwise_gap(flux, x, a, side) for x, a in zip(xs.tolist(), alphas)]
    live = [j for j, gap in enumerate(gaps) if gap(flux.w_lo)[0] * gap(flux.w_hi)[0] < 0.0]
    ((ghi, asked),) = calls
    assert ghi == [gaps[j](flux.w_hi)[0].hex() for j in live]
    for i, w, v, dv in (row for rows in asked for row in rows):
        assert [v, dv] == [t.hex() for t in gaps[live[i]](float.fromhex(w))]
    want = [_pointwise_c_alpha(flux, x, a, side) for x, a in zip(xs.tolist(), alphas)]
    assert got.tobytes() == np.array(want).tobytes()
    for x, a, r, gap in zip(xs.tolist(), alphas, got.tolist(), gaps):
        ref = _reference_c_alpha(flux, x, a, side)
        stop = max(_ROOT_TOL, np.spacing(abs(ref)), np.spacing(abs(r)))
        assert abs(r - ref) <= stop
        if gap(r)[0] != 0.0:
            assert gap(max(r - stop, flux.w_lo))[0] * gap(min(r + stop, flux.w_hi))[0] < 0.0


def _reference_ae_values(flux, xs, alpha):
    """The a.e. inversion the library used before: 80 passes at every point."""
    lo = np.full(xs.shape, float(flux.w_lo))
    hi = np.full(xs.shape, float(flux.w_hi))
    fhi = flux.values_on_grid(xs, hi) - alpha
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = flux.values_on_grid(xs, mid) - alpha
        take_hi = (fm > 0) == (fhi > 0)
        hi = np.where(take_hi, mid, hi)
        fhi = np.where(take_hi, fm, fhi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def _exact_linear_values(flux, xs, alpha):
    """alpha / K: the exact a.e. level of a flux K(x) w."""
    ((K, _),) = flux.model.terms
    return alpha / K.values(xs)


def cubic_flux(w_hi):
    """B(x, w) = (1 + x + H(x - 0.3)/2) (w/2 + w^3), jump at 0.3."""
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 1.0))
    K = K + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.5)
    f = SmoothFunction.poly1d((0.0, 0.5, 0.0, 1.0), "w/2 + w^3")
    return ScalarFlux(FluxModel(((K, f),)), 0.5, w_hi)


@pytest.mark.parametrize("side", ["left", "right", "precise"])
@pytest.mark.parametrize(
    "flux, levels",
    [
        # 0.2 and 2.5 hit an end of the working range on one side of the jump
        (step_flux(), (0.6, 1.0, 0.2, 2.5)),
        # up to |c| = 1e3 one ulp is wider than the stopping width: those
        # brackets end one ulp wide
        (cubic_flux(1e3), (5.0, 1e4, 7.7e8, 1e9)),
    ],
    ids=["step", "cubic"],
)
def test_sided_inversion_is_the_reference_bisection(flux, levels, side, monkeypatch):
    """The vectorized sided inversion asks for the pointwise gaps and
    slopes, returns the pointwise root search's states, and meets the
    contract against the reference bisection (``_check_inversion``)."""
    jumps = list(flux.jump_points())
    xs = np.concatenate((np.linspace(0.0, 1.0, 43)[1:-1], jumps, [0.25] + jumps))
    calls = _spy_searches(monkeypatch)
    for alpha in levels:
        calls.clear()
        got = c_alpha_values(flux, xs, alpha, side)
        _check_inversion(flux, xs, alpha, side, got, calls)
        assert c_alpha_values(flux, xs[-1:], alpha, side)[0] == got[-1]
    # one level per point
    alphas = np.resize(np.asarray(levels), xs.shape)
    calls.clear()
    _check_inversion(flux, xs, alphas, side, c_alpha_values(flux, xs, alphas, side), calls)


@pytest.mark.parametrize(
    "flux, levels, reference, bound",
    [
        # linear in the state: the exact level alpha / K
        (step_flux(), (0.6, 1.0, 2.0), _exact_linear_values, 2e-15),
        # K varies with x, so the roots fill the range: the stop leaves the
        # midpoint of a bracket at most _ROOT_TOL wide, within half of it
        (cubic_flux(3.0), (1.0, 2.0, 20.0), _reference_ae_values, 0.5 * _ROOT_TOL + 5e-16),
    ],
    ids=["step", "cubic"],
)
def test_ae_inversion_is_within_round_off_of_eighty_passes(flux, levels, reference, bound):
    xs = np.linspace(0.0, 1.0, 301)
    for alpha in levels:
        got = c_alpha_values(flux, xs, alpha)
        assert np.abs(got - reference(flux, xs, alpha)).max() <= bound


@pytest.mark.parametrize(
    "flux, xs, levels, most",
    [
        (cubic_flux(3.0), np.linspace(0.0, 1.0, 301), (1.0, 2.0, 20.0), 12),
        (step_flux(), np.array([0.25]), (0.6, 1.0, 2.0), 3),
    ],
    ids=["cubic", "step"],
)
def test_inversion_takes_newton_steps(flux, xs, levels, most, monkeypatch):
    """The inversion passes its slope: a few g calls per c_alpha_values
    call, where halving to _ROOT_TOL took 49."""
    calls = _spy_searches(monkeypatch)
    for alpha in levels:
        calls.clear()
        c_alpha_values(flux, xs, alpha)
        ((_, asked),) = calls
        assert 0 < len(asked) <= most


@pytest.mark.parametrize("w_hi", [1.0, 1.5])
def test_inversion_with_a_zero_slope_at_the_root(w_hi, monkeypatch):
    """B = (1 + x) w^3 at level 0: d_w B vanishes at the root w = 0.  On
    [-1, 1] the first midpoint is the root; on [-1, 1.5] Newton's steps
    toward the triple root shrink by 2/3 only, so the bracket halves.  The
    result meets the contract, as ``_check_inversion`` states it."""
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 1.0))
    flux = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 0.0, 0.0, 1.0), "w^3")),)), -1.0, w_hi)
    xs = np.linspace(0.0, 1.0, 11)[1:-1]
    calls = _spy_searches(monkeypatch)
    for side in ("left", "right", "precise"):
        calls.clear()
        got = c_alpha_values(flux, xs, 0.0, side)
        _check_inversion(flux, xs, 0.0, side, got, calls)
        assert np.abs(got).max() <= 0.5 * _ROOT_TOL


def test_inversion_names_the_first_unattained_point():
    flux = step_flux()
    xs = np.array([0.25, 0.5, 0.75, 0.9])
    with pytest.raises(RangeError, match=r"level 5.5 not attained by the flux at x=0.75 \(right\)"):
        c_alpha_values(flux, xs, np.array([1.0, 2.0, 5.5, 0.1]), "right")
    with pytest.raises(RangeError, match=r"at x=0.25 \(a.e.\)"):
        c_alpha_values(flux, xs, 9.0)
    with pytest.raises(RangeError, match=r"level 9.0 .* x=0.5 \(left\)"):
        c_alpha_values(flux, [0.5], 9.0, "left")


def test_adapted_pair_probe_needs_no_bisection(monkeypatch):
    """The fail-early probe reads the level's attainment off the range ends
    and names the first probe point, as the full inversion did.  Right of
    the step flux's jump the low end of the range hits 0.2 exactly, which
    counts as attained."""
    calls = []
    monkeypatch.setattr(claw, "_bisect", lambda *a: calls.append(a) or _bisect(*a))
    adapted_entropy_pair(step_flux(), 1.0)
    pair = adapted_entropy_pair(step_flux(), 0.2)
    assert not calls
    assert pair.eta(np.array([0.75]), np.array([0.1]))[0] == 0.0
    want = r"^level 50.0 not attained by the flux at x=0.0625 \(precise\)$"
    with pytest.raises(RangeError, match=want):
        adapted_entropy_pair(step_flux(), 50.0)


def test_jump_condition_predicate():
    flux = step_flux()
    assert is_rankine_hugoniot(flux, 0.5, 1.0, 0.5)
    assert not is_rankine_hugoniot(flux, 0.5, 1.0, 1.0)


# -- adapted entropies -------------------------------------------------------


def test_adapted_pair_pointwise_values():
    flux = step_flux()
    pair = adapted_entropy_pair(flux, 1.0)
    assert pair.eta(np.array([0.25]), np.array([1.3]))[0] == pytest.approx(0.3)
    assert pair.eta(0.5, np.array([1.3]), "right")[0] == pytest.approx(0.8)
    assert pair.q(0.25, 1.3, "precise") == pytest.approx(0.3)
    assert pair.q(0.5, 0.65, "right") == pytest.approx(0.3)


@pytest.mark.parametrize("u_left", [0.3, 0.8, 1.3, 1.9, 2.4])
def test_adapted_flux_bracket_tracks_jump_defect(u_left):
    """Across the flux jump the sided entropy-flux bracket is bounded by
    the pair's own jump-condition defect, for every adapted level."""
    flux = step_flux()
    level = flux.value(0.5, u_left, "left")
    u_right = c_alpha_values(flux, [0.5], level, "right")[0]
    mismatch = abs(flux.value(0.5, u_right, "right") - level)
    assert mismatch <= 1e-12  # bisection round-off only
    for alpha in (0.4, 0.9, 1.7, 2.3):
        pair = adapted_entropy_pair(flux, alpha)
        diff = pair.q(0.5, u_right, "right") - pair.q(0.5, u_left, "left")
        assert abs(diff) <= mismatch + 1e-15


def test_adapted_flux_bracket_exact_on_exact_pairs():
    """The upwind coupling carries the sided flux value across, so solver
    pairs match exactly; then the bracket is exactly zero."""
    flux = step_flux()
    for alpha in (0.4, 0.9, 1.7, 2.3):
        pair = adapted_entropy_pair(flux, alpha)
        assert pair.q(0.5, 0.4, "right") - pair.q(0.5, 0.8, "left") == 0.0
        assert pair.q(0.5, 1.1, "right") - pair.q(0.5, 2.2, "left") == 0.0


def test_adapted_pair_structural_checks():
    pair = adapted_entropy_pair(step_flux(), 0.9)
    ok, worst = pair.check_convexity()
    assert ok, worst
    ok, worst = pair.check_compatibility(samples=120)
    assert ok, worst
    ok, worst, count = pair.check_jump_dissipation()
    assert ok and count > 0
    assert worst <= 1e-10


def test_adapted_pair_unattained_level_rejected():
    with pytest.raises(RangeError):
        adapted_entropy_pair(step_flux(), 50.0)


# -- piecewise-affine entropies ----------------------------------------------


@pytest.mark.parametrize("N", [4, 16, 64])
@pytest.mark.parametrize("x,side", [(0.25, "precise"), (0.5, "left"), (0.5, "right")])
def test_affine_coefficients(N, x, side):
    """Kink weights nonnegative, knots carry levels spaced C/N, and the
    approximation interpolates the entropy at every inverted level."""
    flux = step_flux(w_lo=-2.5, w_hi=2.5)
    pair = adapted_entropy_pair(flux, 0.9)
    ae = affine_entropy_approx(pair, flux, N, x, side)
    assert min(ae.kink_coeffs, default=0.0) >= 0.0
    C = flux.state_bound()
    for lev, c in zip(ae.levels, ae.knots):
        assert flux.value(x, c, side) == pytest.approx(lev, abs=1e-9)
        assert (lev / (C / N)) == pytest.approx(round(lev / (C / N)), abs=1e-9)
    knots = np.asarray(ae.grid_knots)
    got = ae.eta(knots)
    want = pair.eta(x, knots, side)
    assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("x,side", [(0.25, "precise"), (0.5, "left"), (0.5, "right")])
def test_affine_coefficients_match_per_level_inversions(x, side):
    """Levels a range cannot reach are skipped; the coefficients are those
    built from one pointwise inversion per attained level, each within the
    stop width of the reference bisection's."""
    flux = step_flux()
    pair = adapted_entropy_pair(flux, 0.9)
    N = 16
    C = flux.state_bound()
    levels, knots = [], []
    for i in range(-N, N + 1):
        try:
            knots.append(_pointwise_c_alpha(flux, x, i * C / N, side))
        except RangeError:
            continue
        levels.append(i * C / N)
        assert abs(knots[-1] - _reference_c_alpha(flux, x, levels[-1], side)) <= _ROOT_TOL
    assert 2 < len(knots) < 2 * N + 1
    ae = affine_entropy_approx(pair, flux, N, x, side)
    assert ae.grid_knots == tuple(sorted(knots))
    assert ae.levels == tuple(sorted(levels))[1:-1]
    cs = np.sort(knots)
    eta = np.abs(cs - _pointwise_c_alpha(flux, x, 0.9, side))
    delta = np.diff(eta) / np.diff(cs)
    assert ae.b == 0.5 * (delta[0] + delta[-1])
    assert ae.kink_coeffs == tuple(np.maximum(0.5 * np.diff(delta), 0.0).tolist())


def test_affine_approx_needs_two_levels():
    flux = step_flux()
    pair = adapted_entropy_pair(flux, 0.9)
    with pytest.raises(RangeError):
        affine_entropy_approx(pair, flux, 1, 0.25)


def test_affine_pair_handles():
    flux = step_flux()
    base = adapted_entropy_pair(flux, 0.9)
    pair = affine_pair(flux, base, 64)
    xs = np.array([0.2, 0.4, 0.7])
    us = np.array([0.3, 1.1, 2.2])
    assert np.abs(pair.eta(xs, us) - base.eta(xs, us)).max() <= 0.05
    with pytest.raises(DomainError):
        pair.q(0.5, 1.0, "precise")
    assert np.isfinite(pair.q(0.5, 1.0, "left"))
    for side in ("left", "right"):
        want = affine_entropy_approx(base, flux, 64, 0.5, side).eta(us)
        assert pair.eta(0.5, us, side).tolist() == want.tolist()


# -- finite-volume solver ----------------------------------------------------


def test_solver_guards():
    flux = step_flux()
    u0 = BVFunction.constant(0.0, 1.0, 1.0)
    with pytest.raises(CFLError):
        solve_claw(flux, u0, 0.1, 50, cfl=0.6)
    with pytest.raises(DomainError):
        solve_claw(flux, u0, 0.1, 3)
    with pytest.raises(RangeError):
        solve_claw(flux, BVFunction.constant(0.0, 1.0, 5.0), 0.1, 50)


def test_solver_rejects_a_nonpositive_final_time():
    u0 = BVFunction.constant(0.0, 1.0, 1.0)
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            solve_claw(step_flux(), u0, T, 50)


def test_snapped_grid_contains_flux_jump():
    flux = step_flux()
    field = solve_claw(flux, BVFunction.constant(0.0, 1.0, 1.0), 0.05, 7)
    assert 0.5 in set(float(e) for e in field.edges)
    assert np.all(np.diff(field.edges) > 0)


def test_flux_jumps_sharing_a_grid_edge_are_rejected():
    """Jumps at 0.3 and 0.32 both snap to the edge 0.25 of a 4-cell grid:
    the second would overwrite the first and leave a jump inside a cell."""
    K = (
        BVFunction.constant(0.0, 1.0, 1.0)
        + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.5)
        + BVFunction.heaviside(0.0, 1.0, 0.32, 0.0, 0.5)
    )
    flux = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)
    u0 = BVFunction.constant(0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="use more cells"):
        solve_claw(flux, u0, 0.1, 4)
    with pytest.raises(DomainError, match="use more cells"):
        ClawField.from_function(flux, lambda xs, t: np.ones_like(xs), 0.1, 4, 2)
    edges = solve_claw(flux, u0, 0.1, 50).edges.tolist()
    assert {0.3, 0.32} <= set(edges)


def test_solver_takes_a_bv_initial_datum_only():
    with pytest.raises(DomainError, match="BVFunction"):
        solve_claw(step_flux(), lambda x: 1.0, 0.1, 50)


def test_mass_defects_at_round_off():
    flux = burgers_flux()
    u0 = BVFunction.from_poly(-1.0, 2.0, (1.5,))
    u0 = u0 + BVFunction.heaviside(-1.0, 2.0, 0.3, 0.0, -1.0)
    field = solve_claw(flux, u0, 0.25, 120)
    assert np.abs(field.mass_defects()).max() <= 1e-12
    assert field.dt == pytest.approx(field.times[1] - field.times[0])


def test_burgers_shock_within_first_order_band():
    """Single shock, speed 1: cell-average error stays below two widths."""
    flux = burgers_flux()
    u0 = BVFunction.from_poly(-1.0, 2.0, (1.5,))
    u0 = u0 + BVFunction.heaviside(-1.0, 2.0, 0.3, 0.0, -1.0)
    field = solve_claw(flux, u0, 0.5, 200)
    dx = float(field.widths.max())
    exact = np.where(field.centers < 0.3 + 0.5, 1.5, 0.5)
    err = float(np.dot(np.abs(field.slice_values(-1) - exact), field.widths))
    assert err <= 2.0 * dx


def test_stationary_two_level_profile_is_exact():
    """B(x, u0(x)) constant: the upwind coupling preserves it to the bit."""
    flux = step_flux(w_lo=0.1, w_hi=2.0)
    u0 = BVFunction.from_poly(0.0, 1.0, (1.0,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, -0.5)
    field = solve_claw(flux, u0, 0.3, 50)
    assert np.array_equal(field.states[0], field.states[-1])
    pair = adapted_entropy_pair(flux, 0.7)
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.02, 0.28), 1.0)
    assert entropy_residual(field, pair, phi) == 0.0


def test_decreasing_flux_mirrors_the_increasing_solve():
    """x -> 1 - x carries u_t + (K(x) w)_x = 0 onto the law with the
    decreasing flux -K(1 - y) w, whose upwind side is the right one; its
    solve is the mirror image, jump interface included."""
    u0 = BVFunction.from_poly(0.0, 1.0, (1.3,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.35, 0.0, -0.9)
    field = solve_claw(step_flux(), u0, 0.2, 40)
    falling = falling_step_flux()
    assert falling.direction == -1
    v0 = BVFunction.from_poly(0.0, 1.0, (0.4,))
    v0 = v0 + BVFunction.heaviside(0.0, 1.0, 0.65, 0.0, 0.9)
    mirrored = solve_claw(falling, v0, 0.2, 40)
    assert len(mirrored.times) == len(field.times)
    np.testing.assert_allclose(mirrored.states[:, ::-1], field.states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mirrored.traces[:, ::-1], -field.traces, rtol=0, atol=1e-12)
    assert np.abs(mirrored.mass_defects()).max() <= 1e-12


def test_burgers_solve_evaluates_the_flux_on_arrays_only(monkeypatch):
    """The interface fluxes of each step come from array calls, not from
    one FluxModel.eval per face."""
    calls = []
    pointwise = FluxModel.eval

    def counted(self, *args, **kwargs):
        calls.append(args)
        return pointwise(self, *args, **kwargs)

    monkeypatch.setattr(FluxModel, "eval", counted)
    u0 = BVFunction.from_poly(-1.0, 2.0, (1.5,))
    u0 = u0 + BVFunction.heaviside(-1.0, 2.0, 0.3, 0.0, -1.0)
    field = solve_claw(burgers_flux(), u0, 0.25, 200)
    assert len(field.times) > 50
    assert calls == []


def _reference_steps(flux, field):
    """States and traces of ``field``'s solve, stepped again with every
    face group evaluated by ``flux.values_on_grid`` on each step."""
    edges, u = field.edges, field.states[0]
    n, widths, dt = len(u), np.diff(edges), field.times[1]
    faces = np.arange(n + 1)
    if flux.direction > 0:
        src, inflow, outflow, upwind, downwind = np.maximum(faces - 1, 0), 0, n, "left", "right"
    else:
        src, inflow, outflow, upwind, downwind = np.minimum(faces, n - 1), n, 0, "right", "left"
    carried = np.isin(edges, flux.jump_points())
    carried[outflow] = True
    precise = ~carried
    precise[inflow] = False
    states, traces = [u], []
    for _ in range(len(field.times) - 1):
        F = np.empty(n + 1)
        for mask, side in ((faces == inflow, downwind), (carried, upwind), (precise, "precise")):
            F[mask] = flux.values_on_grid(edges[mask], u[src][mask], side)
        u = u - dt * (F[1:] - F[:-1]) / widths
        states.append(u)
        traces.append(F)
    return np.asarray(states), np.asarray(traces)


@pytest.mark.parametrize(
    "make_flux",
    [step_flux, falling_step_flux, power_flux, lambda: power_flux(-1.0)],
    ids=["increasing", "decreasing", "powers increasing", "powers decreasing"],
)
def test_solve_evaluates_the_coefficients_once(make_flux, monkeypatch):
    """The flux jump is snapped onto an edge.  States and traces are bit for
    bit those of a loop that evaluates the flux at each face group on every
    step, though the solver gathers every face's upwind state and combines
    them in one call, and K is evaluated as often for a longer solve as for
    a shorter one."""
    flux = make_flux()
    u0 = BVFunction.from_poly(0.0, 1.0, (1.3,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.35, 0.0, -0.9)
    counts = []
    for T in (0.05, 0.2):
        calls = []
        for name in ("at", "values"):
            real = getattr(BVFunction, name)
            monkeypatch.setattr(
                BVFunction, name,
                lambda self, *a, real=real, **k: calls.append(self) or real(self, *a, **k),
            )
        field = solve_claw(flux, u0, T, 40)
        monkeypatch.undo()
        assert 0.5 in field.edges.tolist()
        states, traces = _reference_steps(flux, field)
        assert field.states.tobytes() == states.tobytes()
        assert field.traces.tobytes() == traces.tobytes()
        counts.append((len(field.times), len(calls)))
    assert counts[0][0] < counts[1][0]
    assert counts[0][1] == counts[1][1]


def test_mass_defects_take_each_mass_once(monkeypatch):
    """One dot product per time level, with the bits of ``field.mass``."""
    field = solve_claw(step_flux(), BVFunction.constant(0.0, 1.0, 1.0), 0.05, 20)
    t = field.times
    want = [field.mass(n + 1) - field.mass(n) + (t[n + 1] - t[n]) * (F[-1] - F[0])
            for n, F in enumerate(field.traces)]
    calls = []
    real = np.dot
    monkeypatch.setattr(claw.np, "dot", lambda *a: calls.append(a) or real(*a))
    assert field.mass_defects().tolist() == want
    assert len(calls) == len(t)


def test_field_slices():
    flux = step_flux()
    field = solve_claw(flux, BVFunction.constant(0.0, 1.0, 1.0), 0.05, 12)
    ap = field.slice_pwc(0)
    assert np.allclose(ap.eval_array(field.centers), field.slice_values(0))
    assert field.mass(0) == pytest.approx(1.0)


def test_space_time_bump_support_and_peak():
    phi = SpaceTimeTest.bump((0.0, 1.0), (0.0, 1.0), amplitude=2.0)
    xs = np.array([-0.5, 0.25, 0.5, 1.5])
    assert phi(xs, 2.0).tolist() == [0.0, 0.0, 0.0, 0.0]
    mid = phi(xs, 0.5)
    assert mid[0] == 0.0 and mid[3] == 0.0
    assert mid[2] == pytest.approx(2.0)
    assert np.all(mid >= 0.0)


# -- entropy production diagnostics ------------------------------------------


@pytest.fixture(scope="module")
def burgers_fields():
    flux = burgers_flux()
    u0 = BVFunction.from_poly(-1.0, 2.0, (1.5,))
    u0 = u0 + BVFunction.heaviside(-1.0, 2.0, 0.3, 0.0, -1.0)
    entropic = solve_claw(flux, u0, 0.5, 150)

    def expand(xs, t):
        return np.where(xs < 0.3 + t, 0.5, 1.5)

    injected = ClawField.from_function(flux, expand, 0.5, 150, 120)
    return flux, entropic, injected


@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.7, 1.0])
def test_compression_shock_dissipates(burgers_fields, alpha):
    flux, entropic, _ = burgers_fields
    phi = SpaceTimeTest.bump((0.0, 1.2), (0.05, 0.45), 1.0)
    res = entropy_residual(entropic, adapted_entropy_pair(flux, alpha), phi)
    assert res < 0.0
    assert res <= 1e-3


@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.7, 1.0])
def test_expansion_shock_produces_entropy(burgers_fields, alpha):
    """The level is crossed by both states, so the defect is order one."""
    flux, _, injected = burgers_fields
    phi = SpaceTimeTest.bump((0.0, 1.2), (0.05, 0.45), 1.0)
    res = entropy_residual(injected, adapted_entropy_pair(flux, alpha), phi)
    assert res > 1e-2


def test_space_time_test_takes_a_column_of_times():
    """A (slices, n) call with a column of times gives the bits of the
    per-slice scalar calls: times outside the t-support and at its ends
    included, and enough times that a squared t factor taken by numpy's
    array square (not the scalar power) would differ somewhere."""
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.05, 0.35), 1.7)
    xs = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
    ts = np.concatenate((
        [-0.1, 0.0, 0.05, 0.35, 0.5], np.random.default_rng(3).uniform(0.05, 0.35, 20_000)
    ))
    got = phi(xs, ts[:, None])
    want = np.array([phi(xs, t) for t in ts])
    assert got.shape == (len(ts), len(xs))
    assert got.tobytes() == want.tobytes()
    assert not got[:4].any() and not got[:, [0, 1, 4, 5]].any()


def _one_slice_pairing(pair, edges, vals, phi_x, tol=1e-7):
    """One state slice's pairing against d(q(., u))_x: its brackets at the
    faces where the test slice is nonzero, then its per-cell pairings."""
    inner = edges[1:-1]
    pvs = phi_x(inner)
    live = pvs != 0.0
    brackets = claw._bracket_sums(
        pair, inner[live], vals[None, :-1][:, live], vals[None, 1:][:, live], pvs[None, live]
    )[0]
    return claw._slice_q_pairing(pair, edges, vals, phi_x, brackets, tol)


def _slice_by_slice_residual(field, pair, phi, tol=1e-7):
    """The entropy residual summed one time slice at a time: per slice, the
    Gauss rows of the live cells by np.dot, then the step length times the
    slice's q pairing."""
    edges, centers = field.edges, field.centers
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * claw._GL_NODES
    weights = half[:, None] * claw._GL_WEIGHTS
    total = 0.0
    for n in range(len(field.times) - 1):
        t_mid = 0.5 * (field.times[n] + field.times[n + 1])

        def phi_x(xs, t=t_mid):
            return phi(xs, t)

        if not phi_x(centers).any() and not phi_x(edges).any():
            continue
        v0, v1 = field.states[n], field.states[n + 1]
        pv = phi_x(nodes)
        live = pv.any(axis=1)
        xs = nodes[live].ravel()
        e1 = pair.eta(xs, np.repeat(v1[live], 12))
        e0 = pair.eta(xs, np.repeat(v0[live], 12))
        for wts, row in zip(weights[live], pv[live] * (e1 - e0).reshape(-1, 12)):
            total += float(np.dot(wts, row))
        dt = float(field.times[n + 1] - field.times[n])
        total += dt * _one_slice_pairing(pair, edges, v0, phi_x, tol=tol)
    return total


@pytest.mark.parametrize("case", ["step", "affine", "smooth"])
def test_stacked_residual_is_the_slice_by_slice_sum(case, monkeypatch):
    """Blocks of stacked slices (four slices each here) give the bits of
    the slice-by-slice sum: for a piecewise-constant flux, its affine pair,
    and a flux whose K varies in x (per-cell window pairings)."""
    monkeypatch.setattr(claw, "_BLOCK_VALUES", 12 * 12 * 4)
    if case == "smooth":
        K = BVFunction.from_poly(0.0, 1.0, (1.0, 0.5))
        flux = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.0)
    else:
        flux = step_flux()
    u0 = BVFunction.from_poly(0.0, 1.0, (0.7, 0.4)) + BVFunction.heaviside(0.0, 1.0, 0.35, 0.0, 0.5)
    field = solve_claw(flux, u0, 0.3, 12)
    assert len(field.times) - 1 > 8
    phi = SpaceTimeTest.bump((0.05, 0.8), (0.01, 0.27), 1.3)
    for alpha in (1.0, 1.4):
        pair = adapted_entropy_pair(flux, alpha)
        if case == "affine":
            pair = affine_pair(flux, pair, 8)
        got = entropy_residual(field, pair, phi, tol=1e-6)
        assert got == _slice_by_slice_residual(field, pair, phi, tol=1e-6)
        assert got != 0.0


def test_entropy_residual_makes_one_bisection_per_grid_and_side(monkeypatch):
    """A piecewise-constant flux: building the pair and its residual over
    two blocks of slices invert the levels once at the live nodes and once
    on each side of the live faces."""
    flux = step_flux()
    u0 = BVFunction.constant(0.0, 1.0, 0.8) + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.6)
    field = solve_claw(flux, u0, 0.3, 40)
    assert len(field.times) - 1 > claw._BLOCK_VALUES // (40 * 12)
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.02, 0.28), 1.0)
    calls = []
    monkeypatch.setattr(claw, "_bisect", lambda *a: calls.append(a) or _bisect(*a))
    for alpha in (0.6, 0.9, 1.3):
        before = len(calls)
        entropy_residual(field, adapted_entropy_pair(flux, alpha), phi)
        assert len(calls) - before == 3


def test_unattained_level_past_the_probe_raises_from_the_stacked_slices():
    """K = 30 on (0.2, 0.24), between two probe points, leaves level 1 not
    attained there.  The test function reaches the face at 0.2 but no node
    of that cell in the early slices, and the whole cell later.  The
    slice-by-slice sum meets the face first; a block of stacked slices
    inverts the union of its live nodes first, so it names the cell's first
    Gauss node.  Both raise, at a point where the level is not attained."""
    K = (
        BVFunction.constant(0.0, 1.0, 1.0)
        + BVFunction.heaviside(0.0, 1.0, 0.2, 0.0, 29.0)
        + BVFunction.heaviside(0.0, 1.0, 0.24, 0.0, -29.0)
    )
    flux = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)
    pair = adapted_entropy_pair(flux, 1.0)
    edges = np.linspace(0.0, 1.0, 26)
    field = ClawField(flux, edges, np.linspace(0.0, 1.0, 5), np.ones((5, 25)), np.zeros((4, 26)))

    def fn(xs, t):
        x1 = np.where(t < 0.5, 0.2003, 0.3)  # the cell's first node is at 0.20037
        sx = 2.0 * (xs - 0.1) / (x1 - 0.1) - 1.0
        return np.clip(1.0 - sx * sx, 0.0, None) ** 2

    phi = SpaceTimeTest((0.1, 0.3), (0.0, 1.0), fn)
    assert phi(edges[5], 0.125) > 0.0 and not phi(0.2 + 0.02 * (1 + claw._GL_NODES), 0.125).any()
    with pytest.raises(RangeError, match=r"level 1.0 not attained by the flux at x=0.2 \(right\)"):
        _slice_by_slice_residual(field, pair, phi)
    with pytest.raises(RangeError, match=r"level 1.0 not attained by the flux at x=0.2003\d* \(a.e.\)"):
        entropy_residual(field, pair, phi)


def test_entropy_pair_level_cache_stays_bounded(monkeypatch):
    """1,000 distinct grids: exactly the newest _LEVEL_CACHE_SIZE of them
    are kept, and an older one is inverted again."""
    pair = adapted_entropy_pair(step_flux(), 1.0)
    calls = []
    real = claw._invert
    monkeypatch.setattr(claw, "_invert", lambda *args: calls.append(args) or real(*args))
    grids = [np.linspace(0.05, 0.45, 4) + 1e-6 * k for k in range(1000)]
    for xs in grids:
        pair.eta(xs, np.full(xs.shape, 1.2))
    assert len(calls) == 1000
    kept = claw._LEVEL_CACHE_SIZE
    for xs in grids[-kept:]:
        pair.eta(xs, np.full(xs.shape, 1.2))
    assert len(calls) == 1000
    pair.eta(grids[-kept - 1], np.full(4, 1.2))
    assert len(calls) == 1001


def test_bracket_levels_are_inverted_once_per_face_grid(monkeypatch):
    """More than 2,048 live faces: one array inversion per side, and the
    second slice reuses both."""
    flux = step_flux()
    pair = adapted_entropy_pair(flux, 1.0)
    calls = []
    real = claw._invert

    def counted(flux, xs, alpha, ks):
        calls.append(len(xs))
        return real(flux, xs, alpha, ks)

    sides = []
    real_k = FluxModel.coefficients
    monkeypatch.setattr(claw, "_invert", counted)
    monkeypatch.setattr(
        FluxModel, "coefficients", lambda self, *a: sides.append(a[1]) or real_k(self, *a)
    )
    edges = np.linspace(0.0, 1.0, 2502)
    vals = np.full(2501, 1.2)
    phi_x = lambda xs: np.ones_like(xs)  # noqa: E731
    first = _one_slice_pairing(pair, edges, vals, phi_x)
    assert calls == [2500, 2500] and sorted(sides) == ["left", "right"]
    assert _one_slice_pairing(pair, edges, vals, phi_x) == first
    assert len(calls) == 2 and len(sides) == 2


def test_entropy_flux_evaluates_k_once_per_face_grid(monkeypatch):
    """Later states on a face grid and side reuse K at those faces, with the
    bits of ``flux.values_on_grid``."""
    flux, alpha = step_flux(), 1.0
    pair = adapted_entropy_pair(flux, alpha)
    xs = np.linspace(0.05, 0.95, 37)
    states = (np.full(37, 1.2), np.linspace(0.3, 2.2, 37))
    want = {}
    for side in ("left", "right", "precise"):
        c = c_alpha_values(flux, xs, alpha, side)
        for j, us in enumerate(states):
            s = claw._star_sign(us - c, scale=np.maximum(np.abs(us), np.abs(c)))
            want[side, j] = ((flux.values_on_grid(xs, us, side) - alpha) * s).tobytes()
    calls = []
    real = FluxModel.coefficients
    monkeypatch.setattr(
        FluxModel, "coefficients", lambda self, *a: calls.append(a) or real(self, *a)
    )
    for j, us in enumerate(states):
        for side in ("left", "right", "precise"):
            assert pair.q_values(xs, us, side).tobytes() == want[side, j]
        if j == 0:
            first = len(calls)
    assert len(calls) == first


@pytest.mark.parametrize("alpha", [0.6, 1.3])
def test_entropy_residual_evaluates_k_once_per_grid_and_side(alpha, monkeypatch):
    """One residual: the level inversion and the entropy flux share K, so
    each (grid, side) it reaches evaluates K exactly once."""
    flux = step_flux()
    u0 = BVFunction.constant(0.0, 1.0, 0.8) + BVFunction.heaviside(0.0, 1.0, 0.3, 0.0, 0.6)
    field = solve_claw(flux, u0, 0.3, 40)
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.02, 0.28), 1.0)
    pair = adapted_entropy_pair(flux, alpha)
    calls = []
    real = FluxModel.coefficients
    monkeypatch.setattr(
        FluxModel,
        "coefficients",
        lambda self, xs, side: calls.append((xs.tobytes(), side)) or real(self, xs, side),
    )
    entropy_residual(field, pair, phi)
    assert {side for _, side in calls} == {None, "left", "right"}
    assert len(calls) == len(set(calls))


def test_slice_pairing_matches_weak_form():
    """Dual route: the per-slice assembly (interface brackets + sign-resolved
    diffuse density) against the plain weak form -int phi' q(., u) dx."""
    from scipy.integrate import quad

    from bvcalc import TestFunction

    K1 = BVFunction.from_poly(0.0, 1.0, (0.5, 1.0))
    K2 = BVFunction.heaviside(0.0, 1.0, 0.6, 0.0, 0.8)
    model = FluxModel(
        ((K1, SmoothFunction.poly1d((0.0, 1.0), "w")),
         (K2, SmoothFunction.poly1d((0.0, 0.0, 0.6), "w^2")))
    )
    flux = ScalarFlux(model, 0.1, 2.0)
    pair = adapted_entropy_pair(flux, 0.9)
    edges = np.array([0.0, 0.3, 0.6, 0.85, 1.0])
    vals = np.array([0.4, 1.1, 0.7, 1.6])
    phi = TestFunction.poly_bump((0.05, 0.95), (1.0,))
    assembled = _one_slice_pairing(pair, edges, vals, phi, tol=1e-10)
    weak = 0.0
    for (a, b), v in zip(zip(edges[:-1], edges[1:]), vals):
        val, _ = quad(
            lambda x, v=v: float(phi.prime(np.array([x]))[0]) * pair.q(x, v, "precise"),
            a, b, limit=200, epsabs=1e-12, epsrel=1e-12,
        )
        weak -= val
    assert assembled == pytest.approx(weak, abs=1e-10)


def _reference_cuts(flux, alpha, v, lo, hi):
    """The adapted flux's cut points as the library found them before the
    shared bisection: sample zeros, and 60 one-point passes per sign change
    of the 65 samples."""
    xs = np.linspace(lo, hi, 65)
    g = flux.values_on_grid(xs, np.full(len(xs), float(v))) - alpha
    out = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], g[:-1], g[1:]):
        if fa == 0.0:
            out.append(float(a))
            continue
        if fa * fb >= 0:
            continue
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = flux.value(m, float(v)) - alpha
            if fm == 0.0:
                break
            if (fm > 0) == (fb > 0):
                b, fb = m, fm
            else:
                a, fa = m, fm
        out.append(0.5 * (a + b))
    return out


def test_cuts_are_the_scalar_loop_cuts():
    """On fluxes whose K varies with x the array bisection finds the cut
    points of the scalar loop to 1e-14, in ascending order: two crossings
    of a bump, two exact sample zeros, a crossing at a flux jump and a
    smooth one."""
    K = BVFunction.from_poly(0.0, 1.0, (1.0, 4.0, -4.0))  # 1 -> 2 -> 1
    bump = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)
    cases = [(bump, 1.5, 2), (bump, 1.75, 2), (cubic_flux(3.0), 2.0, 1), (cubic_flux(3.0), 3.0, 1)]
    for flux, alpha, count in cases:
        cuts = adapted_entropy_pair(flux, alpha).q_diffuse[2]
        for lo, hi in ((0.0, 1.0), (0.2, 0.45), (0.31, 0.9)):
            got = cuts(1.0, lo, hi)
            want = _reference_cuts(flux, alpha, 1.0, lo, hi)
            assert list(got) == sorted(got)
            assert len(got) == len(want)
            assert np.abs(np.subtract(got, want)).max(initial=0.0) <= 1e-14
        assert len(cuts(1.0, 0.0, 1.0)) == count
    assert adapted_entropy_pair(bump, 1.75).q_diffuse[2](1.0, 0.0, 1.0) == (0.25, 0.75)


def cantor_slope_flux():
    """B(x, w) = K(x) w with K = 1 + 0.6 C on ]0.2, 0.8[: no a.c. x-part,
    one Cantor part."""
    K = BVFunction.constant(0.0, 1.0, 1.0)
    K = K + BVFunction.cantor_fn(0.0, 1.0, support=(0.2, 0.8), coefficient=0.6)
    return ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.0)


def _slice_weak_form(pair, alpha, edges, vals, phi):
    """-int phi' q(., u) dx over a piecewise-constant slice of the flux
    K(x) w of ``cantor_slope_flux``, per cell by ``integrate_interval`` with
    the level crossings and the Cantor support declared.  The entropy flux
    of ``pair``, the adapted pair at level ``alpha``, is taken in closed form,
    q(x, v) = (K(x) v - alpha) sign(v - alpha / K(x)), and checked against
    the pair's own at sample points."""
    model = pair.flux.model
    (K, _), = model.terms

    def q(xs, v):
        k = K.values(xs)
        return (k * v - alpha) * np.sign(v - alpha / k)

    xs = np.linspace(0.01, 0.99, 33)
    for v in vals:
        assert np.allclose(q(xs, v), pair.q_values(xs, np.full(xs.shape, v)), rtol=0, atol=1e-12)
    total = 0.0
    for lo, hi, v in zip(edges[:-1], edges[1:], vals):
        total -= integrate_interval(
            lambda xs, v=v: phi.prime(xs) * q(xs, v), lo, hi, tol=1e-12,
            breakpoints=pair.q_diffuse[2](float(v), lo, hi) + model.breakpoints(),
            cantor_supports=model.cantor_supports(),
        )
    return total


def test_slice_pairing_cantor_part_matches_factored_form():
    """K = 1 + 0.6 C on ]0.2, 0.8[: the slice's Cantor part, phi times
    the singular density 0.6 v times the sign of B(., v) - alpha against
    the base, cut at the level crossings, closes the weak form
    -int phi' q(., u) dx.  An uncut rule that lets the sign jump inside a
    Cantor cell is 4.4e-5 off here."""
    import dataclasses

    from bvcalc import TestFunction

    pair = adapted_entropy_pair(cantor_slope_flux(), 1.0)
    edges = np.array([0.0, 0.3, 0.5, 0.75, 1.0])
    vals = np.array([0.4, 1.1, 0.7, 1.6])
    phi = TestFunction.poly_bump((0.05, 0.95), (1.0,))
    brackets = _one_slice_pairing(dataclasses.replace(pair, q_diffuse=None), edges, vals, phi)
    got = _one_slice_pairing(pair, edges, vals, phi)
    assert abs(got - brackets) > 1e-2
    assert got == pytest.approx(_slice_weak_form(pair, 1.0, edges, vals, phi), abs=1e-9)


@pytest.mark.parametrize("alpha, v", [(1.0, 0.8), (1.21, 1.1)])
def test_one_cell_slice_pairing_cuts_the_cantor_part_at_the_level_crossing(alpha, v):
    """One cell over the whole Cantor support, where B(., v) crosses the
    level inside it: the pairing matches the weak form to 1e-9 at tol
    1e-10 (6.8e-5 and 5.1e-5 off without the cut)."""
    from bvcalc import TestFunction

    pair = adapted_entropy_pair(cantor_slope_flux(), alpha)
    edges, vals = np.array([0.0, 1.0]), np.array([v])
    phi = TestFunction.poly_bump((0.05, 0.95), (1.0,))
    assert len(pair.q_diffuse[2](v, 0.2, 0.8)) == 1
    got = _one_slice_pairing(pair, edges, vals, phi, tol=1e-10)
    assert got == pytest.approx(_slice_weak_form(pair, alpha, edges, vals, phi), abs=1e-9)


def _tent_flux(height=1.0, w_lo=0.1, w_hi=2.5):
    """B = K w with K = 1 + a tent of ``height`` on [0.3001, 0.3003]."""
    from bvcalc.measures import Interval, PiecewisePolynomial

    pp = PiecewisePolynomial(
        (0.0, 0.3001, 0.3002, 0.3003, 1.0),
        ((1.0,), (1.0, height * 1e4), (1.0 + height, -height * 1e4), (1.0,)),
    )
    K = BVFunction(Interval(0.0, 1.0), pp)
    return ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), w_lo, w_hi)


def test_cuts_find_a_tent_between_the_samples():
    """B(., 1) crosses 1.5 at 0.30015 and 0.30025, inside one gap of the
    65 samples of [0, 1] and of [0.29, 0.31]: the crossings of the
    representation find both, on either window."""
    cuts = adapted_entropy_pair(_tent_flux(), 1.5).q_diffuse[2]
    for lo, hi in ((0.0, 1.0), (0.29, 0.31)):
        got = cuts(1.0, lo, hi)
        assert len(got) == 2
        assert np.abs(np.subtract(got, (0.30015, 0.30025))).max() <= _ROOT_TOL


def test_speed_bound_reads_the_tent_between_the_samples():
    """K = 1 + a tent of height 10 on [0.3001, 0.3003], B = K w: the speed
    bound is K's exact maximum 11, where the 63 x samples read 1 and the
    solve at 20,000 cells ran at 11 times the CFL limit to states of
    +-2e52.  Now it solves stably, conserving mass to round-off, on
    [0.05, 3]; on [0.1, 2.5] the states leave the working range below the
    tent (1/11 < 0.1), which raises."""
    u0 = BVFunction.constant(0.0, 1.0, 1.0)
    flux = _tent_flux(10.0, 0.05, 3.0)
    assert flux.speed_bound() >= 11.0
    field = solve_claw(flux, u0, 0.002, 20000)
    assert 0.05 <= field.states.min() and field.states.max() <= 3.0
    assert np.abs(field.mass_defects()).max() <= 1e-14
    with pytest.raises(RangeError, match="the solution leaves the working range at t="):
        solve_claw(_tent_flux(10.0), u0, 0.002, 20000)


def test_certificate_refuses_a_dip_between_the_samples():
    """A dip to K = -1 on [0.3001, 0.3003] makes B = K w decrease in the
    state there, where the 39 x samples certified it increasing."""
    with pytest.raises(DomainError, match="not certified strictly monotone"):
        _tent_flux(-2.0)


def test_certificates_on_a_domain_narrower_than_the_old_jump_offsets():
    """K jumps at 1e-8 on ]0, 1.1e-8[: no sample steps 3e-9 off a jump, so
    the flux and its adapted pair build."""
    from bvcalc.measures import Interval, PiecewisePolynomial

    pp = PiecewisePolynomial((0.0, 1e-8, 1.1e-8), ((1.0,), (2.0,)))
    K = BVFunction(Interval(0.0, 1.1e-8), pp)
    flux = ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)
    assert (flux.direction, flux.speed_bound()) == (1, 2.0)
    assert adapted_entropy_pair(flux, 0.5).label == "adapted[0.5]"


def test_the_enclosure_refuses_terms_that_cancel():
    """K_1 = 2x - 1 and K_2 = 2 - 2x, both with f = w: B = w is monotone
    only because the terms cancel, which the interval sum of their ranges
    does not see; the same flux as one term is certified."""
    w = SmoothFunction.poly1d((0.0, 1.0), "w")
    K1 = BVFunction.from_poly(0.0, 1.0, (-1.0, 2.0))
    K2 = BVFunction.from_poly(0.0, 1.0, (2.0, -2.0))
    with pytest.raises(DomainError, match="not certified strictly monotone"):
        ScalarFlux(FluxModel(((K1, w), (K2, w))), 0.1, 2.5)
    assert ScalarFlux(FluxModel(((K1 + K2, w),)), 0.1, 2.5).direction == 1


def test_a_cantor_summand_against_the_slope_has_no_certified_range():
    """K = 1 - 0.5 x + 0.3 C on ]0.2, 0.8[: its monotone pieces cannot be
    certified, so neither can its range."""
    K = BVFunction.from_poly(0.0, 1.0, (1.0, -0.5))
    K = K + BVFunction.cantor_fn(0.0, 1.0, (0.2, 0.8), 0.3)
    with pytest.raises(RepresentationError):
        ScalarFlux(FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.5)


_STATES = (SmoothFunction.poly1d((0.0, 1.0), "w"), SmoothFunction.poly1d((0.0, 0.0, 0.0, 0.5), "w^3/2"))


def _random_coefficient(bks, values):
    """The piecewise quadratic through values[i] = (left, middle, right) on
    each cell of the ascending ``bks``: jumps where two cells disagree."""
    from bvcalc.measures import Interval, PiecewisePolynomial

    pieces = []
    for x0, x1, (l, m, r) in zip(bks, bks[1:], values):
        h = x1 - x0
        pieces.append((l, (4.0 * m - 3.0 * l - r) / h, 2.0 * (l - 2.0 * m + r) / (h * h)))
    return BVFunction(Interval(bks[0], bks[-1]), PiecewisePolynomial(tuple(bks), tuple(pieces)))


def _random_model(widths, terms):
    """sum_k K_k f_k over _STATES, each K_k a ``_random_coefficient`` with
    values[k] on its own breakpoints: the ends of the pieces 10**widths[i]
    wide from 0 that its mask keeps."""
    bks = np.concatenate(([0.0], np.cumsum([10.0**w for w in widths]))).tolist()
    model = []
    for (mask, values), f in zip(terms, _STATES):
        own = [bks[0]] + [x for x, keep in zip(bks[1:-1], mask) if keep] + [bks[-1]]
        model.append((_random_coefficient(own, values), f))
    return FluxModel(tuple(model))


# one or two (mask, values) draws for ``_random_model``, values from 0.5 to 2
_TERMS = st.lists(
    st.tuples(
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.lists(st.tuples(*[st.floats(0.5, 2.0)] * 3), min_size=5, max_size=5),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    widths=st.lists(st.floats(-9.0, 0.0), min_size=1, max_size=5),
    terms=_TERMS,
    v=st.floats(0.5, 3.0),
    t=st.floats(0.0, 1.0),
    window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_cuts_are_the_sign_changes_of_each_piece(widths, terms, v, t, window):
    """B = sum_k K_k f_k, with one or two piecewise-quadratic K_k on their
    own breakpoints (``_random_model``: pieces 1e-9 to 1 wide, jumps where
    they disagree).  B(., v) = sum_k f_k(v) K_k is the flux at its pieces'
    ends and middles, and ``cuts`` gives, inside the window, the sign
    changes of each of its polynomial pieces less alpha (``_sign_changes``)
    and its jumps across alpha: each within _ROOT_TOL, plus the x-shift of
    a few ulps of alpha where the slope is small.
    Levels within 1e-9 of a piece's extreme values are left out: there a
    crossing is a touch that rounding can show or hide."""
    from bvcalc.measures import _horner, _sign_changes

    flux = ScalarFlux(_random_model(widths, terms), 0.01, 50.0)
    pp = flux.model.section([v]).smooth_part
    edges = np.array(pp.breakpoints)
    xs = np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:])))
    B = flux.values_on_grid(xs, np.full(xs.shape, v))
    assert np.allclose(pp.at(xs), B, rtol=1e-12, atol=0.0)
    ends = np.concatenate((pp.at(edges[:-1]), pp.at(edges[1:], "left")))
    alpha = ends.min() + t * (ends.max() - ends.min())
    want, extremes = [], []
    for a, b, coeffs in zip(pp.breakpoints, pp.breakpoints[1:], pp.pieces):
        gap = (coeffs[0] - alpha,) + coeffs[1:]
        slope = tuple(k * c for k, c in enumerate(coeffs[1:], 1)) or (0.0,)
        want += [a + r for r in _sign_changes(gap, 0.0, b - a)]
        extremes += _horner(gap, np.array([0.0, *_sign_changes(slope, 0.0, b - a), b - a])).tolist()
    assume(min(map(abs, extremes)) > 1e-9 * (1.0 + abs(alpha)))
    left, right = pp.at(edges[1:-1], "left"), pp.at(edges[1:-1], "right")
    want += edges[1:-1][(np.minimum(left, right) < alpha) & (alpha < np.maximum(left, right))].tolist()
    lo, hi = sorted(flux.domain.b * np.array(window))
    want = np.array(sorted(x for x in want if lo < x < hi))
    got = adapted_entropy_pair(flux, alpha).q_diffuse[2](v, lo, hi)
    assert list(got) == sorted(got)
    assert len(got) == len(want)
    _, slopes = pp.with_slope(want)
    with np.errstate(divide="ignore"):
        shift = np.where(np.isin(want, edges), 0.0, 4.0 * np.spacing(1.0 + abs(alpha)) / np.abs(slopes))
    assert np.all(np.abs(np.subtract(got, want)) <= _ROOT_TOL + shift)


def _exact_range(K):
    """(min, max) of a piecewise-quadratic K over its pieces' ends and the
    vertices inside them, in rationals, rounded once."""
    from fractions import Fraction

    pp, vals = K.smooth_part, []
    for a, b, coeffs in zip(pp.breakpoints, pp.breakpoints[1:], pp.pieces):
        (c0, c1, c2), h = map(Fraction, coeffs), Fraction(b) - Fraction(a)
        ts = [Fraction(0), h] + ([-c1 / (2 * c2)] if c2 and 0 < -c1 / (2 * c2) < h else [])
        vals += [c0 + t * (c1 + t * c2) for t in ts]
    return float(min(vals)), float(max(vals))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    widths=st.lists(st.floats(-9.0, 0.0), min_size=1, max_size=5),
    terms=_TERMS,
    signs=st.tuples(st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0))),
    dip=st.floats(0.0, 1.0),
)
def test_flux_bounds_and_direction_hold_on_dense_samples(widths, terms, signs, dip):
    """B = sum_k K_k f_k from ``_random_model`` (pieces 1e-9 to 1 wide),
    each K_k's values lowered by ``dip`` and signed, on [0.01, 50].  Dense
    samples, seven points inside each piece and the sided values at every
    breakpoint, on the certificates' 33 states: ``speed_bound`` and
    ``state_bound`` are at least the sampled maxima of |d_w B| and |B|, and
    for one term within 4 ulps of the exact maxima, K's exact range times
    the largest |f'| and |f|.  An extreme inside a piece is read where the
    root search puts it, up to _ROOT_TOL off, so there the bounds may fall
    short by K'' times _ROOT_TOL^2 (23 ulps on a piece 2e-8 wide).  A
    certified direction orders every sampled state column; with one term,
    a refusal means K takes both signs."""
    terms = [
        (mask, [tuple(sign * (v - dip) for v in vs) for vs in values])
        for (mask, values), sign in zip(terms, signs)
    ]
    model = _random_model(widths, terms)
    ranges = [_exact_range(K) for K, _ in model.terms]
    assume(min(abs(v) for r in ranges for v in r) > 1e-9)
    bks = np.array([model.domain.a, *model.breakpoints(), model.domain.b])
    inner = (bks[:-1, None] + (bks[1:] - bks[:-1])[:, None] * np.arange(1, 8) / 8.0).ravel()
    W = np.linspace(0.01, 50.0, 33)[None, :]
    B = dB = 0.0
    for K, f in model.terms:
        ks = np.concatenate((K.values(inner), K.at(bks[:-1], "right"), K.at(bks[1:], "left")))
        B, dB = B + ks[:, None] * f(W), dB + ks[:, None] * f.grad(W)[0]
    try:
        flux = ScalarFlux(model, 0.01, 50.0)
    except DomainError:
        flux = None
        assert len(ranges) > 1 or ranges[0][0] < 0.0 < ranges[0][1]
    else:
        assert np.all(flux.direction * np.diff(B, axis=1) > 0)
        assert flux.speed_bound() >= np.abs(dB).max()
        assert flux.state_bound() >= np.abs(B).max()
    if flux is not None and len(ranges) == 1:
        (lo, hi), (K, f) = ranges[0], model.terms[0]
        scale = max(abs(lo), abs(hi))
        slack = _ROOT_TOL**2 * max(abs(c[2]) for c in K.smooth_part.pieces)
        for got, g in ((flux.speed_bound(), f.grad(W)), (flux.state_bound(), f(W) * (1.0 + 1e-9))):
            want = scale * np.abs(g).max()
            assert abs(got - want) <= 4 * np.spacing(want) + slack * np.abs(g).max()


def test_cut_search_on_a_cantor_coefficient_scans_digits_once(monkeypatch):
    """K = 1 + 0.6 C on ]0.2, 0.8[: the search for a crossing on the
    Cantor piece descends its ternary cells with the exact C of their gaps,
    so it runs the digit scan at most once, where the sampled cuts halved
    for up to 41 passes, each with a scan.  A cuts call scans at most four
    times in all: u's piece ends once, their table twice, the search once."""
    import bvcalc.cantor as cantor

    scans, per_search, per_call = [], [], []
    real_scan, real_search = cantor._dyadic_scan, claw._level_search

    def search(*a):
        lows, highs, locate = real_search(*a)

        def counted(*b):
            before = len(scans)
            out = locate(*b)
            per_search.append(len(scans) - before)
            return out

        return lows, highs, counted

    monkeypatch.setattr(cantor, "_dyadic_scan", lambda *a: scans.append(1) or real_scan(*a))
    monkeypatch.setattr(claw, "_level_search", search)
    for alpha, v in ((1.0, 0.8), (1.21, 1.1), (1.0, 0.7), (1.5, 1.3)):
        cuts = adapted_entropy_pair(cantor_slope_flux(), alpha).q_diffuse[2]
        before = len(scans)
        assert len(cuts(v, 0.2, 0.8)) == 1
        per_call.append(len(scans) - before)
    assert len(per_search) == 4 and max(per_search) <= 1
    assert max(per_call) <= 4


def test_affine_pair_needs_pwc_coefficients_for_residuals():
    """Smoothly varying coefficients leave the affine pair without a
    closed-form diffuse part; the residual assembly refuses it."""
    from bvcalc import RepresentationError

    K = BVFunction.from_poly(0.0, 1.0, (1.0, 0.5))
    flux = ScalarFlux(
        FluxModel(((K, SmoothFunction.poly1d((0.0, 1.0), "w")),)), 0.1, 2.0
    )
    base = adapted_entropy_pair(flux, 0.9)
    pair = affine_pair(flux, base, 16)
    field = solve_claw(flux, BVFunction.constant(0.0, 1.0, 1.0), 0.05, 12)
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.01, 0.04), 1.0)
    with pytest.raises(RepresentationError):
        entropy_residual(field, pair, phi)


def test_crossing_profile_through_flux_jump_dissipates():
    """Step data driven through the flux jump: every crossed level sees
    order-dx upwind dissipation, so the residual is strictly negative."""
    flux = step_flux(w_lo=0.1, w_hi=2.5)
    u0 = BVFunction.from_poly(0.0, 1.0, (1.3,))
    u0 = u0 + BVFunction.heaviside(0.0, 1.0, 0.35, 0.0, -0.9)
    field = solve_claw(flux, u0, 0.4, 60)
    phi = SpaceTimeTest.bump((0.1, 0.9), (0.05, 0.35), 1.0)
    for alpha in (0.6, 1.0):
        res = entropy_residual(field, adapted_entropy_pair(flux, alpha), phi)
        assert res < 0.0
        assert res <= 1e-3
