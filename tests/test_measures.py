"""Measure layer: exact three-part decomposition and integration."""

from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from bvcalc import (
    AbsoluteContinuityError,
    BVFunction,
    CantorBase,
    Interval,
    PiecewisePolynomial,
    QuadratureError,
    RadonMeasure,
    integrate_measure,
    measure_total_variation,
    mollified_measure_eval,
    radon_nikodym_cantor,
)
from bvcalc import cantor
from bvcalc.measures import CantorTerm, _horner, _sign_changes, kernel

import oracle


def cantor_integral_oracle(f, lo=0.0, hi=1.0, depth=18):
    """Independent dyadic oracle for the unit Cantor measure on ]lo, hi[:
    average f over the 2^depth surviving-cell midpoints."""
    pts = np.zeros(1)
    for k in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 2.0 * 3.0 ** (-k)])
    pts = pts + 0.5 * 3.0 ** (-depth)
    return float(np.mean(f(lo + (hi - lo) * pts)))


# -- piecewise polynomials ---------------------------------------------------


def test_piecewise_polynomial_matches_numpy_eval():
    pp = PiecewisePolynomial.from_global(0.0, 2.0, (1.0, -0.5, 0.25))
    xs = np.linspace(0.0, 2.0, 101)
    expected = 1.0 - 0.5 * xs + 0.25 * xs**2
    np.testing.assert_allclose(pp(xs), expected, atol=1e-14)


def test_piecewise_polynomial_integral_against_quad():
    pp = PiecewisePolynomial((0.0, 0.4, 1.0), ((0.3, 1.0), (1.0, -2.0, 0.5)))
    val, _ = quad(pp, 0.0, 1.0, points=[0.4])
    assert pp.integrate(0.0, 1.0) == pytest.approx(val, abs=1e-12)
    assert pp.integrate(0.1, 0.7) == pytest.approx(quad(pp, 0.1, 0.7, points=[0.4])[0], abs=1e-12)


def test_one_sided_limits_at_interior_node():
    pp = PiecewisePolynomial((0.0, 0.5, 1.0), ((1.0,), (3.0,)))
    assert pp.at([0.5], "left")[0] == 1.0
    assert pp.at([0.5], "right")[0] == 3.0
    assert pp(np.array([0.5]))[0] == 3.0  # array evaluation is right-continuous


@pytest.mark.parametrize(
    "pp",
    [
        PiecewisePolynomial((0.0, 0.3, 0.5, 1.0), ((1.0, 2.0, -3.0), (0.5,), (-1.0, 0.25, 0.0, 4.0))),
        PiecewisePolynomial.from_global(0.0, 1.0, (0.3, -1.0, 2.0)),
        PiecewisePolynomial.constant(0.0, 1.0, 2.5),
    ],
    ids=["three-pieces", "one-piece", "constant"],
)
def test_value_and_slope_from_one_lookup_are_at_and_derivative_at(pp):
    """``with_slope`` gives the bits of ``at`` and of ``derivative().at``:
    on 1-D points (breakpoints among them), on ascending rows inside one
    piece or straddling a breakpoint, and on rows that are not ascending."""
    rng = np.random.default_rng(11)
    flat = np.concatenate([rng.uniform(0.0, 1.0, 50), pp.breakpoints, [0.3, 0.5]])
    rows = np.sort(rng.uniform(0.0, 1.0, (30, 5)), axis=1)
    inside = 0.31 + 0.18 * np.sort(rng.uniform(0.0, 1.0, (10, 5)), axis=1)
    on_bps = np.array([[0.1, 0.2, 0.3], [0.3, 0.4, 0.5], [0.5, 0.5, 0.5]])
    slope = pp.derivative()
    for xs in (flat, rows, inside, on_bps, rows[:, ::-1]):
        val, ds = pp.with_slope(xs)
        assert val.tolist() == pp.at(xs).tolist()
        assert ds.tolist() == slope.at(xs).tolist()
    u = BVFunction(Interval(0.0, 1.0), pp, ((CantorBase(Interval(0.2, 0.6)), 0.5),))
    val, ds = u.values_with_slope(rows)
    assert val.tolist() == u.values(rows).tolist()
    assert ds.tolist() == slope.at(rows).tolist()


_COEFS = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-3.0, 3.0))


@given(
    cuts=st.sets(st.integers(1, 15), max_size=4),
    polys=st.lists(st.lists(_COEFS, min_size=1, max_size=4), min_size=5, max_size=5),
    xs=st.lists(
        st.one_of(st.integers(0, 16).map(lambda k: k / 16), st.floats(-0.25, 1.25)), min_size=2, max_size=12
    ),
    side=st.sampled_from(["left", "right"]),
    rows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_piece_lookup_is_each_pieces_own_horner(cuts, polys, xs, side, rows):
    """``at`` and ``with_slope`` gather each node's coefficients from one
    zero-padded table, and give bit for bit (-0.0 included) the piece's own
    Horner: on mixed degrees, on nodes on breakpoints from either side, off
    the ends, on 1-D nodes and on 2-D rows."""
    bk = (0.0, *(k / 16 for k in sorted(cuts)), 1.0)
    pp = PiecewisePolynomial(bk, tuple(polys[: len(bk) - 1]))
    du = pp.derivative()
    xs = np.array(xs[: len(xs) // 2 * 2]).reshape((2, -1) if rows else (-1,))

    def own(poly, side):
        find = bisect_left if side == "left" else bisect_right
        pieces = [find(bk[1:-1], x) for x in xs.ravel().tolist()]
        out = [_horner(poly.pieces[i], np.array([x - bk[i]])) for i, x in zip(pieces, xs.ravel().tolist())]
        return np.concatenate(out).reshape(xs.shape)

    assert pp.at(xs, side).tobytes() == own(pp, side).tobytes()
    val, slope = pp.with_slope(xs)
    assert val.tobytes() == own(pp, "right").tobytes()
    assert slope.tobytes() == own(du, "right").tobytes()


# -- measure assembly and masses ---------------------------------------------


def make_mixed_measure():
    iv = Interval(0.0, 1.0)
    ac = PiecewisePolynomial.from_global(0.0, 1.0, (0.0, 2.0))  # density 2x
    atoms = ((0.25, 0.7), (0.75, -0.3))
    cant = (CantorTerm(CantorBase(Interval(0.0, 1.0)), 0.5),)
    return RadonMeasure(iv, ac, atoms, cant)


def test_total_mass_is_sum_of_part_masses():
    mu = make_mixed_measure()
    # independent: integral 2x dx = 1, atoms 0.7 - 0.3, cantor 0.5
    assert mu.total_mass() == pytest.approx(1.0 + 0.4 + 0.5, abs=1e-9)
    assert mu.absolutely_continuous_part().total_mass() == pytest.approx(1.0, abs=1e-10)
    assert mu.atomic_part().total_mass() == pytest.approx(0.4, abs=1e-14)
    assert mu.cantor_part().total_mass() == pytest.approx(0.5, abs=1e-10)


def test_total_mass_is_exact():
    """The total mass is the a.c. integral plus the atom weights plus the
    Cantor coefficients, bit for bit: no quadrature is involved."""
    mu = RadonMeasure(
        Interval(0.0, 1.0),
        PiecewisePolynomial.from_global(0.0, 1.0, (0.1, 2.0, -0.7)),
        ((0.35, 0.7), (0.9, -0.3)),
        (
            CantorTerm(CantorBase(Interval(0.0, 0.3)), 0.1),
            CantorTerm(CantorBase(Interval(0.4, 0.8)), -0.35),
        ),
    )
    want = mu.ac.integrate()
    for _, w in mu.atoms:
        want += w
    for t in mu.cantor_terms:
        want += t.coefficient
    assert mu.total_mass() == want


def test_interval_mass_with_interior_atoms():
    mu = make_mixed_measure()
    base = CantorBase(Interval(0.0, 1.0))
    want = (0.5**2 - 0.1**2) + 0.7 + 0.5 * base.mass(0.1, 0.5)
    assert mu.mass(0.1, 0.5) == pytest.approx(want, abs=1e-10)


def test_total_variation_splits_signs():
    mu = make_mixed_measure()
    # |2x| dx integrates to 1; atoms contribute |0.7| + |-0.3|; cantor |0.5|
    assert measure_total_variation(mu) == pytest.approx(1.0 + 1.0 + 0.5, abs=1e-8)


def test_signed_ac_density_total_variation():
    iv = Interval(-1.0, 1.0)
    mu = RadonMeasure(iv, PiecewisePolynomial.from_global(-1.0, 1.0, (0.0, 1.0)))
    # |x| over [-1, 1]
    assert measure_total_variation(mu) == pytest.approx(1.0, abs=1e-9)
    assert mu.total_mass() == pytest.approx(0.0, abs=1e-12)


# -- sign changes against exact arithmetic -----------------------------------


def _exact_value(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _exact_derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def _exact_integral(p):
    return [Fraction(0), *(c / (k + 1) for k, c in enumerate(p))]


def _trimmed(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _exact_divmod(n, d):
    """Quotient and remainder of exact polynomials (ascending, trimmed)."""
    n, q = list(n), [Fraction(0)] * max(len(n) - len(d) + 1, 1)
    for k in range(len(n) - len(d), -1, -1):
        q[k] = n[k + len(d) - 1] / d[-1]
        for j, dj in enumerate(d):
            n[k + j] -= q[k] * dj
    return _trimmed(q), _trimmed(n[: len(d) - 1])


def _sturm_roots(s, lo, hi):
    """Distinct roots in (lo, hi) of a square-free exact polynomial, all of
    them simple and so all sign changes: the Sturm variations count those in
    (lo, hi], less one if hi is a root."""
    chain = [s, _exact_derivative(s)]
    while chain[-1]:
        chain.append([-c for c in _exact_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    assert len(chain[-1]) == 1, "the chain ends in gcd(s, s'), so s is not square-free"

    def variations(x):
        signs = [v > 0 for v in (_exact_value(q, x) for q in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) - (_exact_value(s, hi) == 0)


@st.composite
def polynomials_with_tiny_terms(draw):
    """scale * prod(x - r) for distinct roots on a 1/8 grid, plus a leading
    term of size 1e-14 or 2.35e-170; degrees 1 to 4.  The grid keeps the
    roots simple and apart, which a float evaluation can resolve, and puts
    some of them on lo = 0; hi lies between grid points."""
    roots = draw(st.lists(st.sampled_from([k / 8 for k in range(-8, 17)]), max_size=4, unique=True))
    scale = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
    coeffs = tuple(float(c) for c in scale * npoly.polyfromroots(roots))
    if len(roots) < 4:
        coeffs += (draw(st.sampled_from([0.0, 1e-14, -1e-14, 2.35e-170, -2.35e-170])),)
    return coeffs, draw(st.sampled_from([0.6875, 1.0625, 1.9375]))


@given(polynomials_with_tiny_terms())
@settings(max_examples=60, deadline=None)
@example(((-0.1484375, 2.0, 3e-14), 1.0))
@example(((0.0, 1.0, -1.0, 2.35e-170), 1.0))
def test_sign_changes_match_an_exact_sturm_count(case):
    """The points returned are the exact polynomial's sign changes: as many
    as its roots in (0, hi), all simple, and each within 2e-14 of one,
    widened only by how far rounding in a float evaluation can move a sign
    change (a Horner error bound over |p'|)."""
    coeffs, hi = case
    p = _trimmed(Fraction(c) for c in coeffs)
    got = _sign_changes(coeffs, 0.0, hi)
    assert got == sorted(got)
    assert len(got) == _sturm_roots(p, Fraction(0), Fraction(hi))
    rounding = Fraction(4 * len(p), 2**53)
    for r in got:
        x = Fraction(r)
        bound = rounding * _exact_value([abs(c) for c in p], abs(x))
        reach = Fraction(2e-14) + bound / abs(_exact_value(_exact_derivative(p), x))
        assert _exact_value(p, x - reach) * _exact_value(p, x + reach) < 0, r


def test_a_double_root_is_no_sign_change():
    """p = (x - 1/2)^2 (x - 1/4): the rounded p dips below zero around the
    double root, and the close pair there is dropped; |p| keeps the one
    cut at 1/4."""
    coeffs = tuple(npoly.polyfromroots([0.5, 0.5, 0.25]))
    got = _sign_changes(coeffs, 0.0, 0.9)
    assert len(got) == 1 and got[0] == pytest.approx(0.25, abs=1e-12)
    bks = PiecewisePolynomial.from_global(0.0, 0.9, coeffs).absolute().breakpoints
    assert bks == pytest.approx((0.0, 0.25, 0.9), abs=1e-12)


@pytest.mark.parametrize(
    "simple, double",
    [((0.125, 0.875), 0.5), ((0.25, 0.5), 0.375), ((0.0625, 0.9375), 0.25)],
)
def test_a_double_root_between_simple_roots_keeps_both(simple, double):
    """p = (x - a)(x - m)^2 (x - b), a < m < b on (0, 1): the two sign
    changes at a and b stay, and abs_integral is the exact integral of |p|
    split there."""
    coeffs = tuple(npoly.polyfromroots([simple[0], double, double, simple[1]]))
    got = _sign_changes(coeffs, 0.0, 1.0)
    assert got == pytest.approx(list(simple), abs=1e-12)
    anti = _exact_integral([Fraction(c) for c in coeffs])
    edges = [Fraction(0), *(Fraction(r) for r in simple), Fraction(1)]
    want = sum(abs(_exact_value(anti, b) - _exact_value(anti, a)) for a, b in zip(edges, edges[1:]))
    pp = PiecewisePolynomial.from_global(0.0, 1.0, coeffs)
    assert pp.abs_integral() == pytest.approx(float(want), rel=1e-13)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=0.95),
            st.floats(min_value=-2.0, max_value=2.0).filter(lambda w: abs(w) > 1e-3),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda t: round(t[0], 3),
    )
)
@settings(max_examples=40, deadline=None)
def test_atomic_tv_is_sum_of_absolute_weights(atoms):
    mu = RadonMeasure(Interval(0.0, 1.0), None, tuple(atoms))
    want = sum(abs(w) for _, w in atoms)
    assert measure_total_variation(mu) == pytest.approx(want, rel=1e-12)


def test_measure_addition_merges_atoms_at_same_point():
    iv = Interval(0.0, 1.0)
    a = RadonMeasure(iv, None, ((0.5, 0.3),))
    b = RadonMeasure(iv, None, ((0.5, -0.3), (0.2, 1.0)))
    merged = a + b
    assert merged.atoms == ((0.2, 1.0),)


def test_cantor_terms_on_one_base_merge_at_construction():
    """Terms on one base sum in first-seen order and zero sums drop, so the
    total variation counts each base once; addition only concatenates."""
    iv = Interval(0.0, 1.0)
    b, c = CantorBase(Interval(0.2, 0.4)), CantorBase(Interval(0.6, 0.8))
    terms = (CantorTerm(b, 0.5), CantorTerm(c, 1.0), CantorTerm(b, -0.25))
    mu = RadonMeasure(iv, None, (), terms)
    assert mu.cantor_terms == (CantorTerm(b, 0.25), CantorTerm(c, 1.0))
    assert measure_total_variation(mu) == 1.25
    assert mu.tv_measure().total_mass() == pytest.approx(1.25, abs=1e-12)
    zero = RadonMeasure(iv, None, (), (CantorTerm(b, 1.0), CantorTerm(b, -1.0)))
    assert zero.cantor_terms == () and measure_total_variation(zero) == 0.0
    assert (mu + mu.scale(-1.0)).cantor_terms == ()


# -- integration against the three parts -------------------------------------


def test_integrate_against_smooth_density():
    iv = Interval(0.0, 1.0)
    mu = RadonMeasure(iv, PiecewisePolynomial.from_global(0.0, 1.0, (1.0, 0.0, -1.0)))

    def f(xs):
        return np.cos(xs)

    want, _ = quad(lambda x: np.cos(x) * (1 - x * x), 0.0, 1.0, epsabs=1e-13)
    got = integrate_measure(f, mu, tol=1e-11)
    assert got == pytest.approx(want, abs=1e-10)


def test_integrate_hits_atoms_pointwise():
    mu = RadonMeasure(Interval(0.0, 1.0), None, ((0.3, 2.0), (0.6, -1.0)))
    got = integrate_measure(lambda xs: np.asarray(xs) ** 2, mu)
    assert got == pytest.approx(2.0 * 0.09 - 1.0 * 0.36, abs=1e-14)


@pytest.mark.parametrize(
    "coeffs",
    [(1.0,), (0.0, 1.0), (0.5, -1.0, 2.0), (0.0, 0.0, 0.0, 1.0)],
)
def test_integrate_cantor_part_against_dyadic_oracle(coeffs):
    mu = RadonMeasure(
        Interval(0.0, 1.0),
        None,
        (),
        (CantorTerm(CantorBase(Interval(0.0, 1.0)), 1.0),),
    )

    def f(xs):
        return np.polynomial.polynomial.polyval(np.asarray(xs), np.asarray(coeffs))

    want = cantor_integral_oracle(f)
    got = integrate_measure(f, mu, tol=1e-10)
    assert got == pytest.approx(want, abs=1e-7)


def wavy(xs):
    xs = np.asarray(xs, dtype=float)
    return np.cos(3.0 * xs) + xs * xs


@pytest.mark.parametrize("depth", [10, 20])
def test_unbroken_cantor_rule_is_the_midpoint_mean(depth):
    """Without breakpoints the restricted descent starts and stops at the
    root cell [0, 1]: the plain mean over the level-depth midpoints, bit for
    bit."""
    want = float(np.sum(wavy(cantor._std_mids(depth)))) / 2**depth
    assert cantor.integrate_cantor_std(wavy, depth) == want


def _step(ts):
    ts = np.asarray(ts, dtype=float)
    return np.where(ts < 0.25, 1.0 - ts, np.sin(5.0 * ts))


# cut points in gaps and on Cantor points (the jump of _step at 1/4 passes
# only where 1/4 is a cut or a window end)
_CUTS = st.sampled_from([0.0, 0.25, 0.75, 1.0 / 3.0, 2.0 / 3.0, 1.0, 0.5, 0.1]) | st.floats(0.0, 1.0)


@given(
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
    windows=st.lists(
        st.tuples(_CUTS, _CUTS, st.lists(_CUTS, max_size=4)), min_size=1, max_size=4
    ),
)
@settings(max_examples=40, deadline=None)
@example(tol=1e-8, windows=[(0.0, 1.0, []), (0.25, 0.75, [1.0 / 3.0, 0.5]), (0.1, 0.9, [0.25])])
@example(tol=1e-10, windows=[(0.0, 1.0, [0.25, 0.75]), (0.1, 0.9, [0.25])])
@example(tol=1e-6, windows=[(0.6, 0.2, [0.3]), (1.0 / 3.0, 2.0 / 3.0, [0.5])])
def test_one_cut_set_per_window_gives_each_component_its_own_bits(tol, windows):
    """A stacked integrand with one window and cut set per group of
    components, against the unit Cantor measure: each component gets the
    bits of its own one-window call, or the first failing component's
    error is raised; and each passing call agrees with the fixed-depth
    reference summed over the pieces between its cuts, within tol and the
    reference's O(3^-depth) error."""
    base = CantorBase(Interval(0.0, 1.0))
    lo, hi, cuts = zip(*windows)

    def stacked(ts):
        return np.concatenate([np.stack([wavy(ts), _step(ts)])] * len(windows))

    alone, errors = [], []
    for a, b, c in windows:
        for f in (wavy, _step):
            try:
                value = base.integrate(f, tol, c, (a, b))
            except QuadratureError as err:
                errors.append(str(err))
                continue
            alone.append(value)
            edges = [a, *sorted(x for x in c if a < x < b), b]
            pieces = [
                cantor.integrate_cantor_std_restricted(f, p, q, 17)
                for p, q in zip(edges[:-1], edges[1:])
            ]
            # both integrands are 5-Lipschitz on each piece
            assert value == pytest.approx(sum(pieces), abs=tol + 5.0 * 3.0**-17)
    if errors:
        with pytest.raises(QuadratureError) as err:
            base.integrate(stacked, tol, cuts, list(zip(lo, hi)))
        assert str(err.value) == errors[0]
    else:
        got = base.integrate(stacked, tol, cuts, list(zip(lo, hi)))
        assert [repr(v) for v in got] == [repr(v) for v in alone]


@pytest.mark.parametrize("part", ["atom", "density"])
def test_a_non_finite_integrand_raises(part):
    """A NaN of f at an atom and one in the a.c. part both raise."""
    if part == "atom":
        mu = RadonMeasure(Interval(0.0, 1.0), None, ((0.25, 1.0), (0.5, 2.0)))
    else:
        mu = RadonMeasure(Interval(0.0, 1.0), PiecewisePolynomial.constant(0.0, 1.0, 1.0))

    def f(xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(np.abs(xs - 0.5) < 0.1, np.nan, xs)

    with pytest.raises(QuadratureError):
        integrate_measure(f, mu)


def test_integrate_rescaled_cantor_base():
    lo, hi = 0.2, 0.8
    mu = RadonMeasure(
        Interval(0.0, 1.0),
        None,
        (),
        (CantorTerm(CantorBase(Interval(lo, hi)), 2.0),),
    )
    want = 2.0 * cantor_integral_oracle(lambda xs: xs**2, lo, hi)
    got = integrate_measure(lambda xs: np.asarray(xs) ** 2, mu, tol=1e-10)
    assert got == pytest.approx(want, abs=1e-7)


TOLS = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)


def unit_cantor_measure():
    return RadonMeasure(
        Interval(0.0, 1.0), None, (), (CantorTerm(CantorBase(Interval(0.0, 1.0)), 1.0),)
    )


@pytest.mark.parametrize(
    "power, want",
    [(1, 1.0 / 2.0), (2, 1.0 / 3.0), (3, 1.0 / 4.0), (4, 1.0 / 5.0), (None, np.e - 1.0)],
)
def test_integrands_through_c_meet_tol(power, want):
    """C is the distribution function of mu_C, so the integral of C^k is
    1/(k+1) and that of e^C is e - 1.  Through C the rule converges like
    4^-d only, and the depth check must still meet every tol."""
    mu = unit_cantor_measure()

    def f(xs):
        c = cantor.cantor_function_eval(np.asarray(xs, dtype=float))
        return np.exp(c) if power is None else c**power

    for tol in TOLS:
        assert abs(integrate_measure(f, mu, tol=tol) - want) <= tol, tol


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_unreachable_tolerance_raises(tol):
    """The Fourier transform of mu_C does not decay along powers of 3 (it is
    about 0.371 at 2 pi 3^12), and cos(2 pi 3^12 x) reads -1 at the midpoint
    of every gap of levels up to 12: the cells refine to their share of tol
    1e-12 until more than the driver's cap of them are live, and the
    integral says so.  Tol 0 is never met either, and raises the same way."""
    mu = unit_cantor_measure()
    with pytest.raises(QuadratureError, match="unreachable"):
        integrate_measure(lambda xs: np.cos(2.0 * np.pi * 3.0**12 * np.asarray(xs)), mu, tol=tol)


def test_integrand_breakpoint_declaration_sharpens_the_result():
    """A declared discontinuity of f lands on a cell edge, so the smooth
    quadrature never straddles it."""
    mu = RadonMeasure(
        Interval(0.0, 1.0), PiecewisePolynomial.constant(0.0, 1.0, 1.0)
    )

    def f(xs):
        xs = np.asarray(xs)
        return np.where(xs < 1.0 / 3.0, 1.0, -1.0)

    got = integrate_measure(f, mu, tol=1e-11, breakpoints=(1.0 / 3.0,))
    assert got == pytest.approx(1.0 / 3.0 - 2.0 / 3.0, abs=1e-11)


# -- Radon-Nikodym on the Cantor lattice -------------------------------------


def test_radon_nikodym_recovers_coefficient_ratio():
    iv = Interval(0.0, 1.0)
    base = CantorBase(Interval(0.0, 1.0))
    nu = RadonMeasure(iv, None, (), (CantorTerm(base, 0.75),))
    lam = RadonMeasure(iv, None, (), (CantorTerm(base, 0.5),))
    ratios = radon_nikodym_cantor(nu, lam)
    assert ratios == {base: pytest.approx(1.5)}


def test_radon_nikodym_rejects_uncovered_base():
    iv = Interval(0.0, 1.0)
    nu = RadonMeasure(iv, None, (), (CantorTerm(CantorBase(Interval(0.0, 0.5)), 1.0),))
    lam = RadonMeasure(iv, None, (), (CantorTerm(CantorBase(Interval(0.5, 1.0)), 1.0),))
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym_cantor(nu, lam)


def test_disjoint_or_identical_support_discipline():
    iv = Interval(0.0, 1.0)
    overlapping = (
        CantorTerm(CantorBase(Interval(0.0, 0.6)), 1.0),
        CantorTerm(CantorBase(Interval(0.5, 1.0)), 1.0),
    )
    with pytest.raises(ValueError):
        RadonMeasure(iv, None, (), overlapping)


# -- mollification kernel ----------------------------------------------------


def test_kernel_has_unit_mass_and_even_symmetry():
    mass, _ = quad(kernel, -1.0, 1.0, epsabs=1e-13)
    assert mass == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(kernel(ts), kernel(-ts), atol=1e-15)


def test_mollified_atom_is_a_kernel_profile():
    mu = RadonMeasure(Interval(0.0, 1.0), None, ((0.5, 2.0),))
    eps = 0.1
    for x in (0.42, 0.5, 0.57):
        want = 2.0 * kernel((x - 0.5) / eps) / eps
        assert mollified_measure_eval(mu, eps, x) == pytest.approx(want, abs=1e-10)


def test_mollified_density_averages_the_density():
    mu = RadonMeasure(Interval(0.0, 1.0), PiecewisePolynomial.from_global(0.0, 1.0, (0.0, 1.0)))
    # for a linear density and an even kernel the convolution is exact
    assert mollified_measure_eval(mu, 0.05, 0.5) == pytest.approx(0.5, abs=1e-9)


def test_mollified_cantor_mass_near_support_edge():
    mu = RadonMeasure(
        Interval(0.0, 1.0), None, (), (CantorTerm(CantorBase(Interval(0.4, 0.6)), 1.0),)
    )
    eps = 0.05
    want = cantor_integral_oracle(lambda ys: kernel((0.5 - ys) / eps) / eps, 0.4, 0.6)
    assert mollified_measure_eval(mu, eps, 0.5, tol=1e-10) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("x", [0.25, 0.1])
@pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 0.005])
def test_mollified_cantor_measure_meets_tol(x, eps):
    """Centred on a point of the Cantor set, a narrow kernel needs a deep
    rule; every tol from 1e-6 to 1e-11 is still met, against the plain
    average over the 2^20 level-20 midpoints."""
    mu = RadonMeasure(
        Interval(-1.0, 2.0), None, (), (CantorTerm(CantorBase(Interval(0.0, 1.0)), 1.0),)
    )
    want = cantor_integral_oracle(lambda ys: kernel((x - ys) / eps) / eps, depth=20)
    for tol in TOLS:
        assert abs(mollified_measure_eval(mu, eps, x, tol=tol) - want) <= tol, tol


def mollifier_oracle(x, eps, levels=40):
    """(mu_C * kernel_eps)(x) for the floats ``x`` and ``eps``, exactly in
    Fraction, cell by cell.  On a Cantor cell [l, l + h] fully inside
    ]x - eps, x + eps[ the kernel is the quartic (15/16)(1 - s^2)^2 / eps in
    s = (l - x)/eps + (h/eps) t, and t has the law of mu_C, whose moments
    are the oracle's.  Cells still straddling an end at ``levels`` are
    dropped; the kernel vanishes to second order there."""
    x, eps = Fraction(x), Fraction(eps)
    total = Fraction(0)
    stack = [(0, 0)]
    while stack:
        k, lev = stack.pop()
        l, r = Fraction(k, 3**lev), Fraction(k + 1, 3**lev)
        if r <= x - eps or l >= x + eps:
            continue
        if x - eps <= l and r <= x + eps:
            s0, s1 = (l - x) / eps, (r - l) / eps
            bump = (1 - s0 * s0, -2 * s0 * s1, -s1 * s1)
            quartic = [sum(bump[i] * bump[n - i] for i in range(3) if 0 <= n - i < 3) for n in range(5)]
            moments = sum(c * oracle.graph_moment(n, 0) for n, c in enumerate(quartic))
            total += Fraction(15, 16) * moments / eps / 2**lev
        elif lev < levels:
            stack += [(3 * k, lev + 1), (3 * k + 2, lev + 1)]
    return float(total)


def test_mollifier_oracle_matches_the_midpoint_average():
    want = cantor_integral_oracle(lambda ys: kernel((0.25 - ys) / 0.005) / 0.005, depth=20)
    assert mollifier_oracle(0.25, 0.005) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("tol", TOLS)
def test_a_kernel_narrower_than_the_start_cells_meets_tol_or_raises(tol):
    """With eps = 1e-6 the kernel's support is narrower than the start
    cells, and its ends cut them: the cut paths reach cells under the
    kernel, which refine to their share of tol and meet it against the
    exact oracle.  Past tol 1e-9 the floats run out: near x = 0.25 a node
    moves by up to 2.8e-17 in rounding, which moves f by up to 4e-5 where
    |f'| is 1.4e12, so cells 3.5e-12 wide still miss their budgets and the
    integral says tol is out of reach.  At tol 1e-9 the answer is 5.0e-10
    off the exact oracle; the same oracle in floats is 3.1e-10 off, from
    the same rounding of its cell ends."""
    mu = RadonMeasure(
        Interval(-1.0, 2.0), None, (), (CantorTerm(CantorBase(Interval(0.0, 1.0)), 1.0),)
    )
    if tol < 1e-9:
        with pytest.raises(QuadratureError, match="unreachable"):
            mollified_measure_eval(mu, 1e-6, 0.25, tol=tol)
    else:
        got = mollified_measure_eval(mu, 1e-6, 0.25, tol=tol)
        assert abs(got - mollifier_oracle(0.25, 1e-6)) <= tol
