"""Piecewise-constant approximation: the five certified properties."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bvcalc import cases, pwconst
from bvcalc import (
    BVFunction,
    BVVector,
    DomainError,
    ExceptionalSet,
    Interval,
    PiecewiseConstant,
    PiecewisePolynomial,
    approximate_scalar,
    approximate_vector,
)
from bvcalc.cases import pwc_suite


def sup_error(comp, ap, n_grid=1201):
    lo, hi = comp.domain.a, comp.domain.b
    xs = np.linspace(lo, hi, n_grid)[1:-1]
    star = np.array([comp.eval(float(x), "precise") for x in xs])
    return float(np.abs(ap.eval_array(xs) - star).max())


# -- the container -----------------------------------------------------------


def test_piecewise_constant_evaluation_conventions():
    ap = PiecewiseConstant((0.0, 0.4, 1.0), (1.0, 3.0), (2.0,))
    xs = np.array([0.2, 0.4, 0.7])
    np.testing.assert_allclose(ap.eval_array(xs), [1.0, 2.0, 3.0])
    assert ap.left_limit(0.4) == 1.0
    assert ap.right_limit(0.4) == 3.0
    assert ap.jump_set() == (0.4,)


def test_node_values_enter_the_pointwise_variation():
    flat = PiecewiseConstant((0.0, 0.5, 1.0), (1.0, 1.0), (1.0,))
    spiked = PiecewiseConstant((0.0, 0.5, 1.0), (1.0, 1.0), (4.0,))
    assert flat.total_variation() == 0.0
    assert spiked.total_variation() == 6.0  # up 3, back down 3


def test_round_trip_to_bv_preserves_jumps():
    ap = PiecewiseConstant((0.0, 0.3, 1.0), (0.5, 2.0), (1.25,))
    u = ap.to_bv()
    assert u.jump_set() == (0.3,)
    assert u.eval(0.3, "left") == 0.5
    assert u.eval(0.3, "right") == 2.0


def test_partition_must_increase():
    with pytest.raises(DomainError):
        PiecewiseConstant((0.0, 0.6, 0.4, 1.0), (1.0, 2.0, 3.0), (0.0, 0.0))


# -- scalar construction -----------------------------------------------------


def test_step_function_is_reproduced_exactly():
    u = BVFunction.heaviside(0.0, 1.0, 0.5, 1.0, 3.0)
    ap = approximate_scalar(u, 0.25)
    assert 0.5 in ap.partition
    assert ap.left_limit(0.5) == 1.0
    assert ap.right_limit(0.5) == 3.0
    assert sup_error(u, ap) < 1e-12


def test_linear_ramp_error_and_variation():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 1.0))
    eps = 0.1
    ap = approximate_scalar(u, eps)
    assert sup_error(u, ap) <= eps
    assert ap.total_variation() <= u.total_variation() + 1e-12


def test_small_jumps_may_be_dropped_but_stay_within_eps():
    u = BVFunction.from_poly(0.0, 1.0, (0.5,)) + BVFunction.heaviside(
        0.0, 1.0, 0.6, 0.0, 0.01
    )
    eps = 0.5
    ap = approximate_scalar(u, eps)
    assert sup_error(u, ap) <= eps


def test_marked_prefix_points_carry_the_exact_representative():
    u = BVFunction.from_poly(0.0, 1.0, (0.0, 2.0)) + BVFunction.heaviside(
        0.0, 1.0, 0.5, 0.0, 1.0
    )
    exc = ExceptionalSet((0.21, 0.47, 0.83), prefix_len=3)
    ap = approximate_scalar(u, 0.2, exc)
    for p in exc.points:
        assert ap(p) == pytest.approx(u.eval(p, "precise"), abs=1e-14)
    for node in ap.partition[1:-1]:
        assert all(abs(node - p) > 1e-13 for p in exc.points)


def test_marked_point_on_a_jump_is_rejected():
    u = BVFunction.heaviside(0.0, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        approximate_scalar(u, 0.1, ExceptionalSet((0.5,), prefix_len=1))


def test_eps_must_be_positive():
    """And finite: a NaN or infinite eps is named, not met by one cell."""
    u = BVFunction.from_poly(0.0, 1.0, (1.0,))
    for eps in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(DomainError, match=f"eps {eps!r} is not finite and positive"):
            approximate_scalar(u, eps)


def test_cantor_function_approximation():
    u = BVFunction.cantor_fn(0.0, 1.0)
    eps = 0.05
    ap = approximate_scalar(u, eps)
    assert sup_error(u, ap) <= eps
    assert ap.total_variation() <= 1.0 + 1e-12


# -- vector construction and the five properties -----------------------------


def test_vector_bound_uses_three_over_n_per_component():
    u = BVVector(
        (
            BVFunction.from_poly(0.0, 1.0, (0.0, 1.0)),
            BVFunction.cantor_fn(0.0, 1.0),
        )
    )
    n = 12
    approx = approximate_vector(u, n)
    for comp, ap in zip(u.components, approx):
        assert sup_error(comp, ap) <= 3.0 / n


@pytest.mark.parametrize("case", pwc_suite(n_cases=8), ids=lambda c: c[0])
def test_suite_case_has_all_five_properties(case):
    label, u, n, exc = case
    approx = approximate_vector(u, n, exc)
    d = len(u.components)

    # (v) sup-norm bound with the exact constant 3 sqrt(d)
    xs = np.linspace(0.0, 1.0, 901)[1:-1]
    err2 = np.zeros(xs.size)
    for comp, ap in zip(u.components, approx):
        star = np.array([comp.eval(float(x), "precise") for x in xs])
        err2 += (ap.eval_array(xs) - star) ** 2
    assert float(np.sqrt(err2).max()) <= 3.0 * np.sqrt(d) / n

    for comp, ap in zip(u.components, approx):
        # (i) big jumps retained with exact one-sided limits
        for x, l, r in comp.jumps():
            if abs(r - l) > 3.0 / n:
                assert x in ap.partition
                assert ap.left_limit(x) == pytest.approx(l, abs=1e-12)
                assert ap.right_limit(x) == pytest.approx(r, abs=1e-12)
        # (ii) variation not increased
        assert ap.total_variation() <= comp.total_variation() + 1e-9
        # (iii) partition nodes avoid the marked set
        for node in ap.partition[1:-1]:
            assert all(abs(node - p) > 1e-13 for p in exc.points)
        # (iv) exact representative on the marked prefix
        for p in exc.points[: exc.prefix_len]:
            assert ap(p) == pytest.approx(comp.eval(p, "precise"), abs=1e-12)


# -- the array-built mesh against the per-cell halving ------------------------


def _reference_halve(nodes, variation, rise, forbidden, tol):
    """Halve one cell at a time, depth first, while its rise exceeds ``rise``."""
    out = [nodes[0]]

    def split(x0, x1):
        v0, v1 = variation(np.array([x0, x1]))
        if v1 - v0 > rise:
            y = 0.5 * (x0 + x1)
            if any(abs(y - f) <= tol for f in forbidden):
                y = pwconst._shift_off(y, forbidden, x1 - x0, tol)
            split(x0, y)
            split(y, x1)
        else:
            out.append(x1)

    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        split(x0, x1)
    return out


def _reference_cell_samples(pts, marked, bigs):
    marked_arr = np.asarray(marked)
    sample = pts[:-1].copy()
    sides = np.full(sample.size, "right", dtype=object)
    before_big = np.isin(pts[1:], bigs)
    sample[before_big] = pts[1:][before_big]
    sides[before_big] = "left"
    for i, (y0, y1) in enumerate(zip(pts[:-1], pts[1:])):
        inside = marked_arr[(marked_arr > y0) & (marked_arr < y1)]
        if inside.size:
            sample[i], sides[i] = inside[0], "precise"
    return sample, sides


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    prefix=st.integers(0, 6),
)
@example(seed=4, n=30, picks=[0, 1, 7, 100], prefix=2)  # a Cantor summand
def test_array_mesh_matches_the_per_cell_halving(seed, n, picks, prefix):
    """The array-built mesh, which halves every rising cell of a pass at
    once, and the searchsorted cell samples give bit for bit the partition,
    cell values and node values of one-cell-at-a-time halving and the
    per-cell loop.  The marked points sit exactly on nodes of the mesh
    built without them, so that those nodes are nudged off them."""
    rng = np.random.default_rng(seed)
    u = cases._random_bv(rng, 0.0, 1.0, cantor_support=(0.0, 1.0) if seed % 4 == 0 else None)
    eps = 3.0 / n
    mesh = sorted(set(approximate_scalar(u, eps).partition[1:-1]) - set(u.jump_set()))
    assume(mesh)
    marked = sorted({mesh[p % len(mesh)] for p in picks})
    exc = ExceptionalSet(tuple(marked), prefix_len=min(prefix, len(marked)))
    shifts = []
    with pytest.MonkeyPatch.context() as mp:
        shift_off = pwconst._shift_off
        mp.setattr(pwconst, "_shift_off", lambda *a: shifts.append(a) or shift_off(*a))
        new = approximate_scalar(u, eps, exc)
    assert shifts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pwconst, "_halve", _reference_halve)
        mp.setattr(pwconst, "_cell_samples", _reference_cell_samples)
        old = approximate_scalar(u, eps, exc)
    assert repr(new.partition) == repr(old.partition)
    assert repr(new.values) == repr(old.values)
    assert repr(new.node_values) == repr(old.node_values)
    assert not set(new.partition) & set(marked)


# -- narrow features: the mesh follows the exact variation --------------------


def exact_sup_error(u, ap):
    """sup |ap - u*| from u's sided values at every cell end and breakpoint,
    and its precise values at the nodes: exact for piecewise-linear u,
    which is monotone between those points."""
    pts = np.union1d(ap.partition, u.smooth_part.breakpoints)
    cells = np.asarray(ap.values)[np.searchsorted(ap.partition, pts[:-1], side="right") - 1]
    err = max(
        np.abs(cells - u.at(pts[:-1], "right")).max(),
        np.abs(cells - u.at(pts[1:], "left")).max(),
    )
    if ap.node_values:
        err = max(err, np.abs(np.array(ap.node_values) - u.at(ap.partition[1:-1])).max())
    return float(err)


def _piecewise_linear(bks, ends):
    """Linear from ends[i][0] to ends[i][1] on [bks[i], bks[i+1]]."""
    pieces = [(l, (r - l) / (x1 - x0)) for x0, x1, (l, r) in zip(bks, bks[1:], ends)]
    return BVFunction(Interval(bks[0], bks[-1]), PiecewisePolynomial(tuple(bks), tuple(pieces)))


def test_a_narrow_tent_is_resolved():
    """A height-1 tent 2e-5 wide: a mesh from a sample grid missed it whole
    (5 cells, error 1.0); the variation puts the nodes on it."""
    u = _piecewise_linear(
        (0.0, 0.30001, 0.30002, 0.30003, 1.0), ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))
    )
    eps = 0.01
    ap = approximate_scalar(u, eps)
    assert exact_sup_error(u, ap) < eps
    (vec,) = approximate_vector(BVVector((u,)), 10, ExceptionalSet((0.300015,)))
    assert exact_sup_error(u, vec) < 0.3
    assert vec(0.300015) == u.eval(0.300015)


def test_a_cell_one_ulp_wide_that_still_rises_is_named():
    x0 = 0.5
    x1 = float(np.nextafter(x0, 1.0))
    u = _piecewise_linear((0.0, x0, x1, 1.0), ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(DomainError, match=re.escape(f"> eps/3 on [{x0!r}, {x1!r}]")):
        approximate_scalar(u, 0.01)


def test_a_node_off_a_marked_point_stays_inside_its_cell():
    """A marked point on a node of the mesh of a slope-1e9 piece: the
    midpoint nudged off it by 10 tol would leave its cell, so the call
    names the cell instead of placing a node outside it."""
    u = _piecewise_linear((0.0, 0.5, 0.5 + 1e-9, 1.0), ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    p = next(x for x in approximate_scalar(u, 0.01).partition if 0.5 < x < 0.5 + 1e-9)
    with pytest.raises(DomainError, match="clears the forbidden points"):
        approximate_scalar(u, 0.01, ExceptionalSet((p,)))


def _reference_variation(u, xs):
    """V(x) by the per-piece slope sums of a piecewise-linear smooth part,
    plus |c| C(x) per Cantor summand."""
    pp = u.smooth_part
    bks = np.array(pp.breakpoints)
    slopes = np.abs([p[1] if len(p) > 1 else 0.0 for p in pp.pieces])
    xs = np.asarray(xs, dtype=float)
    out = (np.clip(xs[:, None] - bks[:-1], 0.0, bks[1:] - bks[:-1]) * slopes).sum(axis=1)
    for base, c in u.cantor_part:
        out = out + abs(c) * base.profile(xs)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    pieces=st.lists(
        st.tuples(st.floats(-9.0, 0.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        min_size=1,
        max_size=6,
    ),
    cantor=st.one_of(
        st.none(), st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 0.45), st.floats(0.55, 1.0))
    ),
    marks=st.lists(st.floats(0.001, 0.999), max_size=4, unique=True),
    n=st.integers(2, 48),
)
@example(pieces=[(-9.0, 0.0, 0.5), (0.0, -0.5, 0.5), (-9.0, 0.5, -0.5)], cantor=None, marks=[0.5], n=48)
def test_narrow_steep_pieces_meet_eps(pieces, cantor, marks, n):
    """Pieces 1e-9 to 1 wide with slopes up to 1e9, an optional Cantor
    summand and marked points: the call never raises, V rises by at most
    eps/3 across every cell, and without a Cantor summand the exact sup
    error is below eps."""
    bks = np.concatenate(([0.0], np.cumsum([10.0**w for w, _, _ in pieces]))).tolist()
    u = _piecewise_linear(bks, [(l, r) for _, l, r in pieces])
    length = bks[-1]
    if cantor is not None:
        c, s0, s1 = cantor
        u = u + BVFunction.cantor_fn(0.0, length, support=(s0 * length, s1 * length), coefficient=c)
    marked = [t * length for t in marks]
    assume(all(abs(p - x) > 1e-9 * length for p in marked for x in u.jump_set()))
    eps = 3.0 / n
    ap = approximate_scalar(u, eps, ExceptionalSet(tuple(marked)))
    rise = np.diff(_reference_variation(u, ap.partition))
    assert rise.max() <= eps / 3.0 + 1e-12 * (1.0 + _reference_variation(u, [length])[0])
    if cantor is None:
        assert exact_sup_error(u, ap) < eps
