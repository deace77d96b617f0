"""BV functions: representatives, derivative measures, weak identities."""

import bisect
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from bvcalc import (
    BVFunction,
    BVVector,
    CantorBase,
    DomainError,
    Interval,
    PiecewisePolynomial,
    RepresentationError,
    TestFunction,
    coarea_lhs,
    coarea_rhs,
    integration_by_parts_residual,
    leibniz_weak_residual,
    measure_total_variation,
)
import bvcalc.bvfunction as bvfunction
import bvcalc.cantor as cantor
from bvcalc.cantor import _std_mids, cantor_function_eval
from bvcalc.quadrature import _ROOT_TOL, _bisect, integrate_interval


def staircase(lo=0.0, hi=1.0):
    """x^2 + 0.6 H(x-0.3) - 0.4 H(x-0.7) + 0.5 C(x): all three parts."""
    return (
        BVFunction.from_poly(lo, hi, (0.0, 0.0, 1.0))
        + BVFunction.heaviside(lo, hi, 0.3, 0.0, 0.6)
        + BVFunction.heaviside(lo, hi, 0.7, 0.0, -0.4)
        + BVFunction.cantor_fn(lo, hi, support=(lo, hi), coefficient=0.5)
    )


# -- evaluation and representatives ------------------------------------------


def test_sided_values_at_a_jump():
    u = BVFunction.heaviside(0.0, 1.0, 0.5, 1.0, 3.0)
    assert u.eval(0.5, "left") == 1.0
    assert u.eval(0.5, "right") == 3.0
    assert u.eval(0.5, "precise") == 2.0
    # off the jump all representatives agree
    for side in ("left", "right", "precise"):
        assert u.eval(0.25, side) == 1.0


def _cantor_digit_scan(t):
    """Cantor function at t in [0, 1] by the ternary digit scan in Fractions."""
    y, val, scale = Fraction(t), 0.0, 0.5
    if y == 1:
        return 1.0
    for _ in range(64):
        y *= 3
        d = int(y)
        y -= d
        if d:
            val += scale
        if d == 1 or y == 0:
            break
        scale *= 0.5
    return val


def _pointwise_eval(u, x, side):
    """One point by the definition: the sided piece by bisection, its
    polynomial by numpy, each Cantor summand by the Fraction digit scan."""
    pp = u.smooth_part
    last = len(pp.pieces) - 1

    def piece(find):
        i = min(max(find(pp.breakpoints, x) - 1, 0), last)
        return float(npoly.polyval(x - pp.breakpoints[i], np.array(pp.pieces[i])))

    c = 0
    for base, coef in u.cantor_part:
        t = (x - base.support.a) / base.width
        c += coef * (0.0 if t <= 0.0 else 1.0 if t >= 1.0 else _cantor_digit_scan(t))
    l, r = piece(bisect.bisect_left), piece(bisect.bisect_right)
    if side == "left":
        return l + c
    if side == "right":
        return r + c
    return 0.5 * l + 0.5 * r + c


@given(
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=-2, max_value=2)),
        max_size=3,
    ),
    st.tuples(st.floats(min_value=0.0, max_value=0.45), st.floats(min_value=0.55, max_value=1.0)),
    st.floats(min_value=-1.5, max_value=1.5),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
)
@example(
    coeffs=[0.0],
    jumps=[],
    support=(0.0, 1.0),
    coef=1.0,
    # float neighbours of k/3^j for j = 20, 21: a float digit scan misses
    # these by up to 3e-11
    extra=[
        2.867971990792441e-10,
        5.735943981584884e-10,
        0.9999999997132029,
        0.999999999904401,
        0.9999999998088017,
    ],
)
@settings(max_examples=40, deadline=None)
def test_sided_values_match_the_pointwise_definition(coeffs, jumps, support, coef, extra):
    u = BVFunction.from_poly(0.0, 1.0, tuple(coeffs))
    for x0, size in jumps:
        u = u + BVFunction.heaviside(0.0, 1.0, x0, 0.0, size)
    u = u + BVFunction.cantor_fn(0.0, 1.0, support=support, coefficient=coef)
    a, b = support
    w = b - a
    ternary = [a + w * k / 3**j for j in (1, 2, 5, 20) for k in (1, 2, 3**j - 1)]
    tiny = [a + w * 2.0**-k for k in (11, 30, 60, 72, 73, 90)] + [a + w * 2.0**-10]
    xs = np.array(
        sorted({0.0, 1.0, a, b, *u.breakpoints(), *u.jump_set(), *ternary, *tiny, *extra})
    )
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    for side, keep in (
        ("left", xs > 0.0),
        ("right", xs < 1.0),
        ("precise", (xs > 0.0) & (xs < 1.0)),
    ):
        pts = xs[keep]
        got = u.at(pts, side).tolist()
        assert got == [_pointwise_eval(u, x, side) for x in pts.tolist()]
        assert got == [u.eval(x, side) for x in pts.tolist()]
    inner = xs[(xs > 0.0) & (xs < 1.0)]
    vals = u.values(inner).tolist()
    assert vals == u.at(inner, "right").tolist()
    assert vals == [_pointwise_eval(u, x, "right") for x in inner.tolist()]
    with pytest.raises(DomainError):
        u.at(np.array([0.5, 0.0]), "left")
    with pytest.raises(DomainError):
        u.at(np.array([1.0]), "precise")


def test_cantor_kernel_matches_the_fraction_scan_across_limb_ranges():
    # log-uniform over [2^-80, 1[ crosses the low limb alone (t < 2^-62),
    # both limbs, and the Fraction scan below 2^-72
    rng = np.random.default_rng(2)
    ts = 2.0 ** rng.uniform(-80.0, 0.0, 3000)
    edges = [2.0**-k for k in range(58, 76)] + [k / 3**j for j in (25, 33, 40) for k in (1, 2)]
    ts = np.concatenate([ts, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    # Cantor-set points scan past the 8-digit blocks (digit 48) into the
    # per-digit tail; the ends of [0, 1] and of the uint64 range
    ks = 2.0 * 3.0 ** -np.arange(1, 41)
    cantor_set = [ks[rng.random(40) < 0.5].sum() for _ in range(200)]
    ends = [0.0, 1.0, 2.0**-72, np.nextafter(2.0**-72, 0.0), np.nextafter(1.0, 0.0)]
    ts = np.concatenate([ts, [0.25, 0.75, 0.3, 0.7], cantor_set, ends])
    ref = [_cantor_digit_scan(t) for t in ts.tolist()]
    assert cantor_function_eval(ts).tolist() == ref
    # scalars, and arrays of any layout, are updated in place, not in a copy
    for t, r in zip(ts[-30:].tolist(), ref[-30:]):
        for arg in (t, np.float64(t), np.array(t)):
            got = cantor_function_eval(arg)
            assert isinstance(got, float) and got == r
    m = np.sort(ts[:3000]).reshape(100, 30)
    for arr in (m, np.asfortranarray(m), m.T, m[:, [0, -1]], m[::3, 1::2]):
        want = [[_cantor_digit_scan(t) for t in row] for row in arr.tolist()]
        assert cantor_function_eval(arr).tolist() == want


def test_values_are_right_continuous_between_jumps():
    u = staircase()
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    vals = u.values(xs)
    c = lambda x: 0.5 * cantor_function_eval(x)
    assert vals[1] == pytest.approx(0.09 + 0.6 + c(0.3), abs=1e-9)
    assert vals[3] == pytest.approx(0.49 + 0.6 - 0.4 + c(0.7), abs=1e-9)


def test_jump_listing_includes_cantor_offset():
    u = staircase()
    (x1, l1, r1), (x2, l2, r2) = u.jumps()
    assert (x1, x2) == (0.3, 0.7)
    assert r1 - l1 == pytest.approx(0.6, abs=1e-14)
    assert r2 - l2 == pytest.approx(-0.4, abs=1e-14)
    assert l1 == pytest.approx(0.09 + 0.5 * cantor_function_eval(0.3), abs=1e-12)


def test_jumps_and_derivative_are_computed_once_per_function():
    """Both are kept on the instance: later calls return the same object,
    equal to a fresh computation.  The kept values take no part in ``==``
    or hash, and ``dataclasses.replace`` computes its own."""
    u = staircase()
    fresh = BVFunction._jumps.func(u), BVFunction._derivative.func(u)
    assert u.jumps() is u.jumps() and u.jumps() == fresh[0]
    assert u.derivative() is u.derivative() and u.derivative() == fresh[1]
    v = staircase()
    assert "_jumps" not in vars(v) and "_derivative" not in vars(v)
    assert u == v and hash(u) == hash(v)
    assert v.jumps() == u.jumps() and v.derivative() == u.derivative()
    w = dataclasses.replace(u)
    assert w == u and w.jumps() is not u.jumps() and w.derivative() is not u.derivative()
    moved = dataclasses.replace(u, smooth_part=u.smooth_part.scale(2.0))
    assert moved.jumps() == BVFunction._jumps.func(moved) != u.jumps()
    assert moved.derivative() == BVFunction._derivative.func(moved) != u.derivative()


# -- variation and the derivative measure ------------------------------------


def test_total_variation_closed_form():
    u = staircase()
    # 2x dx integrates to 1; jumps 0.6 + 0.4; cantor 0.5
    assert u.total_variation() == pytest.approx(1.0 + 0.6 + 0.4 + 0.5, abs=1e-8)
    assert measure_total_variation(u.derivative()) == pytest.approx(
        u.total_variation(), abs=1e-8
    )


@pytest.mark.parametrize("coefs,tv", [((0.5, -0.25), 0.25), ((1.0, -1.0), 0.0)])
def test_cantor_summands_on_one_base_merge_at_construction(coefs, tv):
    """Two summands on one base are one summand with the summed
    coefficient: the variation is |0.5 - 0.25|, not 0.5 + 0.25, and the
    coarea identity holds on it.  A support whose ends are within 1e-14 of
    those of a base seen before is that base."""
    b = CantorBase(Interval(0.2, 0.8))
    for b2 in (b, CantorBase(Interval(np.nextafter(0.2, 1.0), 0.8))):
        u = BVFunction(Interval(0.0, 1.0), None, ((b, coefs[0]), (b2, coefs[1])))
        assert u.cantor_part == (((b, 0.25),) if tv else ())
        assert u.total_variation() == tv
        assert measure_total_variation(u.derivative()) == tv
        g = lambda xs: 1.0 + np.asarray(xs, dtype=float)  # noqa: E731
        assert coarea_rhs(g, u) == pytest.approx(coarea_lhs(g, u), abs=1e-9)
        assert coarea_lhs(g, u) == pytest.approx(tv * 1.5, abs=1e-9)


def test_monotone_variation_is_endpoint_difference():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 0.0, 2.0)) + BVFunction.cantor_fn(0.0, 1.0)
    assert u.total_variation() == pytest.approx(3.0, abs=1e-9)


def test_derivative_parts_of_the_staircase():
    du = staircase().derivative()
    assert du.absolutely_continuous_part().total_mass() == pytest.approx(1.0, abs=1e-10)
    assert du.cantor_part().total_mass() == pytest.approx(0.5, abs=1e-10)
    assert dict(du.atoms) == {0.3: pytest.approx(0.6), 0.7: pytest.approx(-0.4)}


def test_derivative_total_mass_telescopes():
    # u(1-) - u(0+) in closed form: 1 + 0.6 - 0.4 + 0.5
    du = staircase().derivative()
    assert du.total_mass() == pytest.approx(1.7, abs=1e-9)


@given(
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=-1.0, max_value=1.0).filter(lambda s: abs(s) > 1e-3),
)
@settings(max_examples=30, deadline=None)
@example([0.0, 1.0, -1.0, 2.35e-170], 0.5, 0.5)
@example([0.0, -0.1484375, 1.0, 1e-14], 0.5, 0.5)
def test_variation_is_subadditive_under_addition(coeffs, x0, size):
    a = BVFunction.from_poly(0.0, 1.0, tuple(coeffs))
    b = BVFunction.heaviside(0.0, 1.0, x0, 0.0, size)
    lhs = (a + b).total_variation()
    assert lhs <= a.total_variation() + b.total_variation() + 1e-9


@pytest.mark.parametrize(
    "coeffs, tv",
    [
        # the cubic term is 1e-170 of the others; root-finding must still
        # see the critical point at 1/2 of x - x^2
        ((0.0, 1.0, -1.0, 2.35e-170), 0.5),
        # a 1e-14 cubic term once moved the critical point of x^2 - 0.1484375x
        # from 0.07421875 to 0.078125 and read the variation 3e-5 low
        ((0.0, -0.1484375, 1.0, 1e-14), 0.86257934570313499),
    ],
    ids=["2.35e-170", "1e-14"],
)
def test_variation_ignores_a_negligible_leading_coefficient(coeffs, tv):
    u = BVFunction.from_poly(0.0, 1.0, coeffs)
    assert u.total_variation() == pytest.approx(tv, abs=1e-12)


# -- test functions ----------------------------------------------------------


def test_bump_vanishes_with_derivative_at_support_edges():
    phi = TestFunction.poly_bump((0.2, 0.8), (1.0, -0.5))
    for x in (0.2, 0.8, 0.1, 0.95):
        assert abs(phi(np.array([x]))[0]) < 1e-12
        assert abs(phi.prime(np.array([x]))[0]) < 1e-12


def test_bump_derivative_matches_finite_differences():
    phi = TestFunction.poly_bump((0.1, 0.9), (0.7, 0.3, -1.0))
    xs = np.linspace(0.15, 0.85, 29)
    h = 1e-6
    fd = (phi(xs + h) - phi(xs - h)) / (2 * h)
    np.testing.assert_allclose(phi.prime(xs), fd, atol=1e-7)


def _closure_bump(support, coeffs):
    """phi and phi' of the bump as two closures, each with its own t and
    support mask, through npoly.polyval: the reference for the bits."""
    (a, b), q = support, np.asarray(coeffs, dtype=float)
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    p = np.convolve(np.array([1.0, 0.0, -2.0, 0.0, 1.0]), q)
    dp = p[1:] * np.arange(1, len(p))

    def value(xs):
        t = (np.asarray(xs, dtype=float) - c) / h
        return np.where(np.abs(t) < 1.0, npoly.polyval(t, p), 0.0)

    def deriv(xs):
        t = (np.asarray(xs, dtype=float) - c) / h
        return np.where(np.abs(t) < 1.0, npoly.polyval(t, dp) / h, 0.0)

    return value, deriv


@st.composite
def bump_points(draw):
    """A support, q's coefficients, and 1-D or 2-D points among which lie
    the support ends, their neighbouring floats and points outside."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-3, 10.0))
    coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    fracs = draw(st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=12))
    ends = [a, b, np.nextafter(a, -np.inf), np.nextafter(a, np.inf), np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    xs = np.array(ends + [a + f * (b - a) for f in fracs])
    if draw(st.booleans()):
        xs = xs[: len(xs) // 2 * 2].reshape(-1, 2)
    return (a, b), coeffs, xs


@settings(max_examples=60, deadline=None)
@given(bump_points())
def test_bump_with_slope_is_phi_and_its_prime(case):
    """``with_slope`` gives ``(phi(xs), phi.prime(xs))`` bit for bit, and
    both are the bits of the two closures over npoly.polyval that a bump
    was built from: at and beyond the support ends too, on 1-D and 2-D
    points."""
    support, coeffs, xs = case
    phi = TestFunction.poly_bump(support, coeffs)
    value, slope = phi.with_slope(xs)
    ref_value, ref_deriv = _closure_bump(support, coeffs)
    assert value.shape == slope.shape == xs.shape
    assert value.tobytes() == phi(xs).tobytes() == ref_value(xs).tobytes()
    assert slope.tobytes() == phi.prime(xs).tobytes() == ref_deriv(xs).tobytes()


# -- weak identities ---------------------------------------------------------


@pytest.mark.parametrize("support", [(0.1, 0.9), (0.25, 0.6), (0.35, 0.95)])
def test_integration_by_parts_closes(support):
    u = staircase()
    phi = TestFunction.poly_bump(support, (1.0, 0.4))
    assert abs(integration_by_parts_residual(u, phi)) < 1e-8


def test_integration_by_parts_on_pure_cantor():
    u = BVFunction.cantor_fn(0.0, 1.0)
    phi = TestFunction.bump((0.05, 0.95), 1.0)
    assert abs(integration_by_parts_residual(u, phi)) < 1e-9


def test_leibniz_measure_for_two_step_functions():
    """D(vw) has the atom v*(x)[w] + w*(x)[v] at each jump: 3 at 0.4 (w is
    3 there) and 4 at 0.6 (v is 2 there).  The residual is exact for step
    factors, so a wrong atom weight misses by O(1) on any bump that holds
    the jump."""
    v = BVFunction.heaviside(0.0, 1.0, 0.4, 1.0, 2.0)
    w = BVFunction.heaviside(0.0, 1.0, 0.6, 3.0, 5.0)
    for support in ((0.3, 0.5), (0.5, 0.7), (0.2, 0.8)):
        phi = TestFunction.bump(support, 1.0)
        assert abs(leibniz_weak_residual(v, w, phi)) < 1e-12, support


def test_leibniz_atom_at_shared_jump_uses_midpoints():
    """Both factors jump at 0.5: the product jumps from 2 to 18, which is
    v*[w] + w*[v] = 2*4 + 4*2 with the midpoint values v* = 2, w* = 4."""
    v = BVFunction.heaviside(0.0, 1.0, 0.5, 1.0, 3.0)
    w = BVFunction.heaviside(0.0, 1.0, 0.5, 2.0, 6.0)
    for support in ((0.3, 0.7), (0.45, 0.6), (0.2, 0.8)):
        phi = TestFunction.bump(support, 1.0)
        assert abs(leibniz_weak_residual(v, w, phi)) < 1e-12, support


@pytest.mark.parametrize(
    "mk_v,mk_w",
    [
        (
            lambda: BVFunction.from_poly(0.0, 1.0, (0.5, 1.0)),
            lambda: BVFunction.heaviside(0.0, 1.0, 0.5, 1.0, 2.0),
        ),
        (
            lambda: BVFunction.from_poly(0.0, 1.0, (1.0, -0.5, 0.25)),
            lambda: BVFunction.from_poly(0.0, 1.0, (0.0, 2.0)),
        ),
        (
            lambda: BVFunction.cantor_fn(0.0, 1.0, coefficient=0.8),
            lambda: BVFunction.from_poly(0.0, 1.0, (1.0, 1.0)),
        ),
    ],
)
def test_leibniz_weak_residual_vanishes(mk_v, mk_w):
    v, w = mk_v(), mk_w()
    phi = TestFunction.bump((0.1, 0.9), 1.0)
    assert abs(leibniz_weak_residual(v, w, phi)) < 1e-8


def test_product_of_cantor_parts_on_same_base_is_rejected():
    v = BVFunction.cantor_fn(0.0, 1.0, support=(0.0, 0.5))
    for lo in (0.0, 2.0**-60):  # supports within 1e-14 are one base
        w = BVFunction.cantor_fn(0.0, 1.0, support=(lo, 0.5), coefficient=2.0)
        with pytest.raises(RepresentationError, match="same base is outside the class"):
            leibniz_weak_residual(v, w, TestFunction.bump((0.1, 0.9), 1.0))


# -- coarea ------------------------------------------------------------------


def test_coarea_linear_function_unit_weight():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    g = lambda xs: np.ones_like(np.asarray(xs, dtype=float))
    assert coarea_lhs(g, u) == pytest.approx(1.0, abs=1e-10)
    assert coarea_rhs(g, u) == pytest.approx(1.0, abs=1e-10)


def test_coarea_step_function_weight_at_the_jump():
    u = BVFunction.heaviside(0.0, 1.0, 0.4, 1.0, 3.0)

    def g(xs):
        return 2.0 + np.asarray(xs, dtype=float)

    # |Du| is the single atom of weight 2 at x = 0.4
    want = 2.0 * g(np.array([0.4]))[0]
    assert coarea_lhs(g, u) == pytest.approx(want, abs=1e-10)
    assert coarea_rhs(g, u) == pytest.approx(want, abs=1e-10)


def test_coarea_cantor_function_counts_levels():
    u = BVFunction.cantor_fn(0.0, 1.0)
    g = lambda xs: np.ones_like(np.asarray(xs, dtype=float))
    assert coarea_lhs(g, u) == pytest.approx(1.0, abs=1e-9)
    assert coarea_rhs(g, u) == pytest.approx(1.0, abs=1e-9)


def test_coarea_lhs_of_a_unit_weight_takes_few_cantor_nodes():
    """A unit weight is exact against the Cantor measure at any depth, so
    the lhs stops at the starting depth and the one below it: at tol 1e-9,
    2^11 + 2^10 nodes, not the 2^19 of a Lipschitz depth rule."""
    u = BVFunction.cantor_fn(0.0, 1.0)
    nodes = []

    def g(xs):
        xs = np.asarray(xs, dtype=float)
        nodes.append(xs.size)
        return np.ones_like(xs)

    assert coarea_lhs(g, u) == pytest.approx(1.0, abs=1e-9)
    assert sum(nodes) <= 2**12


def test_coarea_with_discontinuous_weight_crossing_a_slope():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 2.0))  # levels swept twice as fast
    cut = 0.5

    def g(xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs < cut, 1.0, 3.0)

    lhs = coarea_lhs(g, u, g_breakpoints=(cut,))
    rhs = coarea_rhs(g, u, g_breakpoints=(cut,))
    want = 1.0 * 1.0 + 3.0 * 1.0  # g-weighted variation over the two halves
    assert lhs == pytest.approx(want, abs=1e-9)
    assert rhs == pytest.approx(want, abs=1e-9)


def test_a_double_root_of_the_slope_keeps_one_monotone_piece():
    """u' = (x - 1/2)^2 (x - 1/4) on ]0, 0.9[ turns at 1/4 only: two
    monotone pieces, not four."""
    slope = npoly.polyfromroots([0.5, 0.5, 0.25])
    u = BVFunction.from_poly(0.0, 0.9, tuple(npoly.polyint(slope)))
    pieces = bvfunction._monotone_pieces(u)
    assert len(pieces) == 2
    assert pieces[0][1] == pytest.approx(0.25, abs=1e-12)


def _eighty_pass_points(u, x0, x1, v0, v1, tm):
    """The level points of the levels ``tm`` on the monotone piece [x0, x1]
    of u, from v0 to v1, by 80 fixed halving passes through u.values: the
    first point at which u reaches each level."""
    a, b = np.full_like(tm, x0), np.full_like(tm, x1)
    for _ in range(80):
        m = 0.5 * (a + b)
        vm = u.values(m)
        take_left = (vm >= tm) if v1 > v0 else (vm <= tm)
        b = np.where(take_left, m, b)
        a = np.where(take_left, a, m)
    return 0.5 * (a + b)


def _reference_level_points(u, ts):
    """The coarea level points as the library located them before the
    shared bisection, 80 fixed passes on each monotone piece, summed over
    the pieces whose range holds the level; and the count of those pieces."""
    out, count = np.zeros_like(ts), np.zeros_like(ts)
    for x0, x1, v0, v1, _, _ in bvfunction._monotone_pieces(u):
        mask = (ts > min(v0, v1)) & (ts < max(v0, v1))
        out[mask] += _eighty_pass_points(u, x0, x1, v0, v1, ts[mask])
        count += mask
    return out, count


@pytest.mark.parametrize(
    "u, pieces",
    [
        (BVFunction.from_poly(0.0, 1.0, (0.2, 1.3)), 1),
        (BVFunction.from_poly(0.0, 1.0, (1.0, -0.5, 0.0, -0.4)), 1),
        (BVFunction.from_poly(0.0, 1.0, (0.0, -1.0, 1.0)), 2),
        (BVFunction.from_poly(0.0, 1.0, (0.0, 0.5)) + BVFunction.cantor_fn(0.0, 1.0, (0.2, 0.8)), 3),
    ],
    ids=["rising", "falling", "two pieces", "Cantor"],
)
def test_coarea_level_points_are_the_eighty_pass_points(u, pieces, monkeypatch):
    """With g(x) = x and no jumps the level-counting integrand is the sum of
    the located points; each is within half the stop width and one ulp of
    the point the 80-pass loop found."""
    integrands = []

    def spy(f, *args, **kwargs):
        integrands.append(f)
        return real(f, *args, **kwargs)

    real = bvfunction.integrate_interval
    monkeypatch.setattr(bvfunction, "integrate_interval", spy)
    coarea_rhs(lambda xs: xs, u)
    assert len(bvfunction._monotone_pieces(u)) == pieces
    vals = u.values(np.linspace(0.0, 1.0, 1001))
    ts = np.random.default_rng(3).uniform(vals.min(), vals.max(), 400)
    want, count = _reference_level_points(u, ts)
    assert count.max() == (2 if pieces == 2 else 1)
    assert np.all(np.abs(integrands[0](ts) - want) <= count * (0.5 * _ROOT_TOL + np.spacing(1.0)))


def _recording(g, calls, first=0):
    """The ``g`` recording every (x, g(x), g'(x)) the root search asks
    for in ``calls``, per bracket: bracket i of this search is bracket
    first + i there."""

    def rec(x, i):
        v, dv = g(x, i)
        for j, xj, vj, dj in zip(i.tolist(), x.tolist(), v.tolist(), dv.tolist()):
            calls.setdefault(first + j, []).append((xj.hex(), vj.hex(), dj.hex()))
        return v, dv

    return rec


@given(
    lo=st.sampled_from([0.0, 20.0, 40.0, 100.0, -101.0]),
    cuts=st.sets(st.integers(1, 15), max_size=4),
    polys=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3), min_size=5, max_size=5),
    cantor=st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(9, 15), st.floats(-1.0, 1.0))),
    fracs=st.lists(st.floats(0.0, 1.0), max_size=6),
)
@example(
    # a jump at 100.5 (an even float: a one-ulp bracket's midpoint rounds
    # onto it) and a Cantor summand beyond |x| = 64
    lo=100.0,
    cuts={8},
    polys=[[0.0, 1.0], [-1.0, 1.0], [0.0], [0.0], [0.0]],
    cantor=(10, 14, 0.3),
    fracs=[0.25, 0.5],
)
@example(
    # u = C on ]1/16, 15/16[ and flat around it: each gap level is reached
    # on a whole gap, and the search lands in it
    lo=0.0,
    cuts=set(),
    polys=[[0.0]] * 5,
    cantor=(1, 15, 1.0),
    fracs=[0.5, 0.75],
)
@example(
    # a falling Cantor summand on a falling piece below x = -64
    lo=-101.0,
    cuts={4},
    polys=[[0.5, 1.0], [0.25, -0.5], [0.0], [0.0], [0.0]],
    cantor=(5, 13, -0.7),
    fracs=[0.1, 0.3],
)
@settings(max_examples=40, deadline=None)
def test_coarea_points_are_located_on_their_polynomial_piece(lo, cuts, polys, cantor, fracs):
    """On polynomial pieces the coarea root search sees bit for bit the
    values of u.values and the slopes of u's derivative piece: every level
    point, and every (x, u(x) - t, u'(x)) the search asks for, are those of
    the same root search through u.values and u.smooth_part's derivative,
    bracket by bracket (one search holds the brackets of every piece, piece
    after piece).  On a Cantor piece, whose brackets a ternary descent
    narrows first, every point lies in its piece, within _ROOT_TOL/2 and
    one ulp of the 80-pass point, and u.values - t changes sign across its
    final bracket: the search's bracket replayed through the search's
    reads.  Levels just inside each piece's range put roots in its last
    ulps, where a point can land on a breakpoint; levels at the C of the
    support's gaps (down to level 3) put them in gaps."""
    bk = (lo, *(lo + k / 16 for k in sorted(cuts)), lo + 1.0)
    pp = PiecewisePolynomial(bk, tuple(polys[: len(bk) - 1]))
    parts = ()
    if cantor is not None:
        a, b, coef = cantor
        parts = ((CantorBase(Interval(lo + a / 16, lo + b / 16)), coef),)
    u = BVFunction(Interval(lo, lo + 1.0), pp, parts)
    try:
        pieces = [p for p in bvfunction._monotone_pieces(u) if p[2] != p[3]]
    except RepresentationError:
        assume(False)
    levels = []
    for x0, x1, v0, v1, base, _ in pieces:
        inside = u.values(np.array([np.nextafter(x1, x0), np.nextafter(x0, x1)]))
        levels += [0.5 * (inside[0] + v1), 0.5 * (inside[1] + v0)]
        levels += [v0 + f * (v1 - v0) for f in fracs]
        if base is not None:
            mids = base.support.a + base.width * np.concatenate([_std_mids(k) for k in range(4)])
            levels += u.values(mids[(x0 < mids) & (mids < x1)]).tolist()
    ts = np.array(levels)

    grabbed, got, located, brackets = [], {}, [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            bvfunction, "integrate_interval", lambda f, lo, *a, **k: grabbed.append(f) or (0.0,) * len(lo)
        )

        def search(g, *a):
            brackets.append(a)
            located.append(_bisect(_recording(g, got), *a))
            return located[-1]

        mp.setattr(bvfunction, "_bisect", search)
        coarea_rhs(lambda xs: xs, u)
        assume(grabbed)
        grabbed[0](ts)

    want, want_located, first = {}, [], 0
    du = pp.derivative()
    for x0, x1, v0, v1, base, _ in pieces:
        tm = ts[(ts > min(v0, v1)) & (ts < max(v0, v1))]
        rows = range(first, first + tm.size)
        first += tm.size
        if not tm.size:
            continue
        if base is None:
            g = _recording(lambda x, i, tm=tm: (u.values(x) - tm[i], du.at(x)), want, rows.start)
            want_located.append(_bisect(g, np.full_like(tm, x0), np.full_like(tm, x1), v1 - tm))
            continue
        xs = located[0][rows]
        assert np.all((x0 <= xs) & (xs <= x1))
        ref = _eighty_pass_points(u, x0, x1, v0, v1, tm)
        ulp = np.spacing(np.abs(ref))
        # a level u takes on a whole gap may be found at any point of it
        plateau = (u.values(xs) == tm) & (xs >= ref - ulp)
        assert np.all((np.abs(xs - ref) <= 0.5 * _ROOT_TOL + ulp) | plateau)
        rising = v1 > v0
        for j, t, x in zip(rows, tm.tolist(), xs.tolist()):
            a, b, gb = (float(v[j]) for v in brackets[0])
            for xh, gh, _ in got.pop(j):
                xj, gj = float.fromhex(xh), float.fromhex(gh)
                a, b, gb = (a, xj, gj) if (gj > 0) == (gb > 0) else (xj, b, gb)
            assert a <= x <= b
            assert b - a <= _ROOT_TOL or np.nextafter(a, b) == b or u.values(np.array([x]))[0] == t
            ga = (v0 if a == x0 else u.values(np.array([a]))[0]) - t
            gb = (v1 if b == x1 else u.values(np.array([b]))[0]) - t
            assert (ga <= 0.0 <= gb) if rising else (gb <= 0.0 <= ga)
    assert got == want
    found = located[0] if located else np.empty(0)
    polynomial = np.concatenate(want_located or [np.empty(0)])
    assert found[np.isin(np.arange(first), sorted(want))].tobytes() == polynomial.tobytes()


def test_coarea_rhs_makes_one_quadrature_and_one_bisection_per_evaluation():
    """coarea_rhs integrates every level cell in one call, and each
    evaluation of its level-counting integrand bisects the levels of every
    monotone piece at once: one _bisect call if some level lies inside a
    piece's range, none otherwise."""
    # two monotone pieces (a maximum at 1/3), a jump, and a weight cut
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0, -1.5)) + BVFunction.heaviside(0.0, 1.0, 0.7, 0.0, 0.4)
    ranges = [(min(p[2], p[3]), max(p[2], p[3])) for p in bvfunction._monotone_pieces(u) if p[2] != p[3]]
    assert len(ranges) == 3
    quadratures, bisections, per_call = [], [], []

    def spy_interval(f, *a, **k):
        def counted(ts):
            before = len(bisections)
            out = f(ts)
            inside = any(np.any((ts > lo) & (ts < hi)) for lo, hi in ranges)
            per_call.append((len(bisections) - before, int(inside)))
            return out

        quadratures.append(a)
        return integrate_interval(counted, *a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bvfunction, "integrate_interval", spy_interval)
        mp.setattr(bvfunction, "_bisect", lambda *a: bisections.append(a) or _bisect(*a))
        coarea_rhs(lambda xs: np.where(xs < 0.5, 1.0, 2.0), u, g_breakpoints=(0.5,))
    assert len(quadratures) == 1
    assert len(bvfunction.coarea_default_tgrid(u, (0.5,))) > 3
    assert per_call and all(made == want for made, want in per_call)
    assert any(want for _, want in per_call)


def test_coarea_level_points_take_a_few_passes_on_polynomial_pieces():
    """On polynomial pieces the level points come from safeguarded Newton
    steps with u' from the piece: at most 15 level-gap evaluations per
    evaluation of the level-counting integrand, where halving to _ROOT_TOL
    takes about 47."""
    pp = PiecewisePolynomial(
        (0.0, 0.3, 0.7, 1.0), ((0.1, 1.0, 0.5), (0.6, -0.8, 0.3), (0.35, 0.4, 2.0, -0.5))
    )
    u = BVFunction(Interval(0.0, 1.0), pp, ())
    assert len(bvfunction._monotone_pieces(u)) == 3
    passes = []

    def counted(g, *a):
        def gap(x, i):
            passes[-1] += 1
            return g(x, i)

        passes.append(0)
        return _bisect(gap, *a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bvfunction, "_bisect", counted)
        total = coarea_rhs(lambda xs: 1.0 + xs, u)
    assert passes and 0 < max(passes) <= 15
    assert total == pytest.approx(coarea_lhs(lambda xs: 1.0 + xs, u), abs=1e-9)


@pytest.mark.parametrize(
    "u",
    [
        BVFunction.cantor_fn(0.0, 1.0),
        BVFunction.from_poly(0.0, 1.0, (0.1, 0.5)) + BVFunction.cantor_fn(0.0, 1.0, (0.2, 0.8), 0.7),
        BVFunction.from_poly(0.0, 1.0, (1.0, -0.3)) + BVFunction.cantor_fn(0.0, 1.0, (0.1, 0.9), -1.2),
    ],
    ids=["C", "rising", "falling"],
)
def test_coarea_levels_on_cantor_pieces_scan_digits_once(u, monkeypatch):
    """The ternary descent narrows the levels on a Cantor piece with the
    exact C of the support's cells: each evaluation of the level-counting
    integrand runs the digit scan at most once, where halving the pieces'
    brackets ran it about 47 times, and the value stays coarea_lhs's."""
    scans, per_call = [], []
    real_scan = cantor._dyadic_scan
    real = bvfunction.integrate_interval

    def spy(f, *a, **k):
        def counted(ts):
            before = len(scans)
            out = f(ts)
            per_call.append(len(scans) - before)
            return out

        return real(counted, *a, **k)

    monkeypatch.setattr(cantor, "_dyadic_scan", lambda *a: scans.append(1) or real_scan(*a))
    monkeypatch.setattr(bvfunction, "integrate_interval", spy)
    total = coarea_rhs(lambda xs: 1.0 + xs, u)
    assert per_call and max(per_call) == 1
    monkeypatch.undo()
    assert total == pytest.approx(coarea_lhs(lambda xs: 1.0 + xs, u), abs=1e-8)


# -- the range of a function, from its representation ------------------------


def test_oscillation_reads_the_range_off_the_monotone_pieces():
    """sup - inf from the end values of the monotone pieces: exactly 1 for
    the Cantor function, where 2,046 samples read 0.984375, and for the
    mollifier suite's poly-jump 1.6 at 1- less the quadratic's minimum
    0.1375 at 1/4, where the samples read 1.46177."""
    from bvcalc.cases import mollifier_suite

    assert BVFunction.cantor_fn(0.0, 1.0).oscillation() == 1.0
    (u,) = [u for label, u, _ in mollifier_suite() if label == "poly-jump"]
    assert u.oscillation() == pytest.approx(1.6 - 0.1375, abs=1e-15)
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0)) + BVFunction.cantor_fn(0.0, 1.0, coefficient=-1.0)
    with pytest.raises(RepresentationError, match="cannot certify monotonicity"):
        u.oscillation()


# -- mollification of the function itself ------------------------------------


def test_mollify_converges_to_the_precise_representative_at_a_jump():
    u = BVFunction.heaviside(0.0, 1.0, 0.5, 1.0, 2.0)
    errs = [abs(u.mollify(2.0**-k, 0.5) - 1.5) for k in range(3, 9)]
    assert errs[-1] < 1e-10
    assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(errs[:-1], errs[1:]))


def test_mollify_smooth_region_second_order():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 0.0, 1.0))
    e1 = abs(u.mollify(0.1, 0.5) - 0.25)
    e2 = abs(u.mollify(0.05, 0.5) - 0.25)
    assert e2 < e1 / 3.0  # quadratic in eps for an even kernel


def test_mollify_needs_room_inside_the_domain():
    u = BVFunction.from_poly(0.0, 1.0, (1.0,))
    with pytest.raises(DomainError):
        u.mollify(0.2, 0.1)


# -- vectors -----------------------------------------------------------------


def test_vector_components_share_the_domain():
    u = BVVector(
        (
            BVFunction.from_poly(0.0, 1.0, (1.0,)),
            BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0),
        )
    )
    assert len(u.components) == 2
    with pytest.raises(DomainError):
        BVVector(
            (
                BVFunction.from_poly(0.0, 1.0, (1.0,)),
                BVFunction.from_poly(0.0, 2.0, (1.0,)),
            )
        )


# -- cell-shaped nodes -------------------------------------------------------

_CUT = 0.2 + 0.6 / 3.0  # a jump at a point of the Cantor set of ]0.2, 0.8[
_ROW_U = (
    BVFunction.from_poly(0.0, 1.0, (0.3, -1.1, 0.7))
    + BVFunction.heaviside(0.0, 1.0, _CUT, 0.0, 0.9)
    + BVFunction.heaviside(0.0, 1.0, 0.61, 0.0, -0.4)
    + BVFunction.cantor_fn(0.0, 1.0, support=(0.2, 0.8), coefficient=1.3)
)
_ROW_CENTERS = [
    0.0, 1.0, 0.2, 0.8, 0.61, _CUT,
    *(0.2 + 0.6 * k / 3**j for j in (1, 2, 7, 30) for k in (1, 2, 3**j - 1)),
]


@st.composite
def _node_rows(draw):
    """Rows of the 7 Kronrod or the 8 Patterson nodes, the two row shapes
    the panels send, ascending unless shuffled: cells around breakpoints
    and Cantor points, from wide to narrower than 1e-16, some with a NaN,
    some outside the support or the domain."""
    from bvcalc.quadrature import _K7, _P8

    nodes = draw(st.sampled_from((_K7, _P8)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        c = draw(st.sampled_from(_ROW_CENTERS) | st.floats(-0.2, 1.2))
        w = draw(st.sampled_from([0.0, 1e-17, 4e-16, 1e-9, 1e-4, 0.02, 0.3]))
        row = c + w * nodes
        kind = draw(st.sampled_from(["ascending", "ascending", "shuffled", "nan"]))
        if kind == "shuffled":
            row = row[draw(st.permutations(range(row.size)))]
        elif kind == "nan":
            row[draw(st.integers(0, row.size - 1))] = np.nan
        rows.append(row)
    return np.array(rows)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(_node_rows())
@settings(max_examples=150, deadline=None)
def test_cell_shaped_nodes_give_the_pointwise_bits(xs):
    """Cell-shaped (2-D) node arrays give the bits of a lookup per node."""
    base, _ = _ROW_U.cantor_part[0]
    pp = _ROW_U.smooth_part
    for f in (base.profile, _ROW_U.values, pp.at, lambda x: pp.at(x, "left")):
        assert _same_bits(f(xs), f(xs.ravel()).reshape(xs.shape))
