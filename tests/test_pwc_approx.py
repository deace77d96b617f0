"""Piecewise-constant approximation: the five certified properties."""

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
    PiecewiseConstant,
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
    u = BVFunction.from_poly(0.0, 1.0, (1.0,))
    with pytest.raises(DomainError):
        approximate_scalar(u, 0.0)


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


# -- the array-built mesh against the per-node loops -------------------------


def _reference_osc_upper(vals, k):
    worst = 0.0
    for start in range(0, len(vals) - 1, k):
        block = vals[start : start + 2 * k + 1]
        worst = max(worst, float(block.max() - block.min()))
    return worst


def _reference_refine(augmented, delta, forbidden, tol):
    nodes = [augmented[0]]
    for x0, x1 in zip(augmented[:-1], augmented[1:]):
        k = int(np.ceil((x1 - x0) / (0.5 * delta)))
        for j in range(1, k):
            y = x0 + (x1 - x0) * j / k
            nodes.append(pwconst._shift_off(y, forbidden, (x1 - x0) / k, tol))
        nodes.append(x1)
    return nodes


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


@settings(max_examples=50, deadline=None)
@given(vals=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60), k=st.integers(1, 59))
def test_block_oscillation_matches_the_per_block_loop(vals, k):
    vals = np.array(vals)
    k = min(k, vals.size - 1)
    assert repr(pwconst._osc_upper(vals, k)) == repr(_reference_osc_upper(vals, k))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    prefix=st.integers(0, 6),
)
@example(seed=4, n=30, picks=[0, 1, 7, 100], prefix=2)  # a Cantor summand
def test_array_mesh_matches_the_per_node_loops(seed, n, picks, prefix):
    """The array-built mesh, the searchsorted cell samples and the reduceat
    oscillation give bit for bit the partition, cell values and node values
    of the per-node, per-cell and per-block loops.  The marked points sit
    exactly on nodes of the mesh built without them, so that those nodes
    are nudged off them."""
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
        mp.setattr(pwconst, "_osc_upper", _reference_osc_upper)
        mp.setattr(pwconst, "_refine", _reference_refine)
        mp.setattr(pwconst, "_cell_samples", _reference_cell_samples)
        old = approximate_scalar(u, eps, exc)
    assert repr(new.partition) == repr(old.partition)
    assert repr(new.values) == repr(old.values)
    assert repr(new.node_values) == repr(old.node_values)
    assert not set(new.partition) & set(marked)
