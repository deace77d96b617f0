"""The quadrature cell layout against a list-based reference layout, the
refinement's acceptance rule, the fitted rules on leftover cells against the
exact oracle of ``oracle.py``, and the shared root search: safeguarded
Newton steps on a bracket, halving where the slope is NaN or zero.

``build_cells`` tiles Cantor supports with array slices of the cached
``std_cells`` arrays and descends cut paths one level at a time on arrays.
The reference below builds the same layout one cell tuple at a time; the two
must agree in every float, which fixes every integral's bits, and in the
order of the cells, which is the order of the first integrand call's nodes.
"""

import inspect
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from bvcalc import quadrature
from bvcalc.cantor import cantor_function_eval, std_cells
from bvcalc.errors import DomainError, QuadratureError
from bvcalc.measures import _horner
from bvcalc.quadrature import (
    _ROOT_PASSES,
    _ROOT_TOL,
    _bisect,
    _merge_supports,
    build_cells,
    integrate_cells,
    integrate_interval,
)
from bvcalc.scenario import parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def _roomy(a, b):
    """The fitted nodes' narrowest margin, 1/486 of the cell, is over 2^-46
    of the cell's magnitude."""
    return (b - a) / 486.0 > 2.0 ** -46 * max(abs(a), abs(b))


def _reference_support_cells(lo, hi, inner_bps):
    width = hi - lo
    gap_lo, gap_hi, cel_lo, cel_hi = std_cells(quadrature._START_LEVEL)
    smooth = [(lo + width * a, lo + width * b) for a, b in zip(gap_lo, gap_hi)]
    leftover = []
    start = quadrature._START_LEVEL
    pending = [(lo + width * a, lo + width * b, start) for a, b in zip(cel_lo, cel_hi)]
    while pending:
        a, b, level = pending.pop()
        if not any(a < p < b for p in inner_bps):
            (leftover if _roomy(a, b) else smooth).append((a, b))
        elif level >= quadrature._SLIVER_LEVEL:
            smooth.append((a, b))
        else:
            third = (b - a) / 3.0
            smooth.append((a + third, b - third))
            pending += [(a, a + third, level + 1), (b - third, b, level + 1)]
    return sorted(smooth), sorted(leftover)


def _reference_build_cells(lo, hi, breakpoints=(), cantor_supports=(), tol=1e-9):
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return [], []
    bps = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    supports = [
        s for s in _merge_supports(cantor_supports)
        if s[1] > lo + 1e-15 and s[0] < hi - 1e-15
    ]
    smooth, mids = [], []
    edges = [lo]
    for slo, shi in supports:
        edges.append(min(max(slo, lo), hi))
        edges.append(max(min(shi, hi), lo))
    edges.append(hi)
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a <= 1e-15:
            continue
        pts = [a, *[p for p in bps if a < p < b], b]
        smooth.extend((x, y) for x, y in zip(pts[:-1], pts[1:]) if y > x)
    for slo, shi in supports:
        cuts = [p for p in bps if slo < p < shi]
        cuts.extend(e for e in (lo, hi) if slo < e < shi)
        cuts = sorted(set(cuts))
        s_cells, m_cells = _reference_support_cells(slo, shi, cuts)
        for a, b in s_cells:
            pts = [a, *[p for p in cuts if a < p < b], b]
            for x, y in zip(pts[:-1], pts[1:]):
                x2, y2 = max(x, lo), min(y, hi)
                if y2 - x2 > 1e-16:
                    smooth.append((x2, y2))
        for a, b in m_cells:
            if b <= a or b <= lo + 1e-15 or a >= hi - 1e-15:
                continue
            if a >= lo - 1e-12 and b <= hi + 1e-12:
                mids.append((a, b))
            else:
                smooth.append((max(a, lo), min(b, hi)))
    return smooth, mids


def _as_cells(cells):
    return np.array(cells, dtype=float).reshape(-1, 2)


def assert_same_layout(lo, hi, breakpoints, supports, tol):
    smooth, mids = build_cells(lo, hi, breakpoints, supports, tol)
    ref_smooth, ref_mids = _reference_build_cells(lo, hi, breakpoints, supports, tol)
    for got, want in ((smooth, ref_smooth), (mids, ref_mids)):
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64
        assert got.shape == (len(want), 2)
        np.testing.assert_array_equal(got, _as_cells(want))
    return smooth, mids


THIRD = float(Fraction(1, 3))
CELL_9 = 3.0 ** -9  # the level-9 Cantor cell at 0, below the start tiling


@pytest.mark.parametrize(
    "lo, hi, breakpoints, supports, tol",
    [
        # breakpoints at points of the Cantor set, which sit in leftover cells
        (0.0, 1.0, (0.25, 0.75, 0.1), ((0.0, 1.0),), 1e-8),
        (0.0, 1.0, (2 / 9, 0.25), ((0.0, 1.0),), 1e-6),
        (0.0, 1.0, (0.3, 0.5), ((0.0, 1.0),), 1e-10),
        # window edges inside a support and inside one leftover cell
        (0.2, 0.8, (0.25,), ((0.0, 1.0),), 1e-6),
        (THIRD / 2, 0.9, (), ((0.0, 1.0),), 1e-8),
        (0.3 * CELL_9, 0.7 * CELL_9, (), ((0.0, 1.0),), 1e-6),
        (0.5, 0.5 + 1e-7, (), ((0.0, 1.0),), 1e-8),
        # two disjoint supports, one cut by the window, and plain segments
        (0.3, 0.9, (0.25, 0.75), ((0.0, 0.4), (0.5, 1.0)), 1e-8),
        (-1.0, 2.0, (0.0, 0.5, 1.0), ((0.0, 1.0), (1.5, 2.0)), 1e-9),
        (0.0, 1.0, (0.5,), (), 1e-8),
        # empty windows
        (1.0, 0.0, (0.5,), ((0.0, 1.0),), 1e-8),
        (0.5, 0.5, (), ((0.0, 1.0),), 1e-8),
    ],
)
def test_layout_matches_the_reference(lo, hi, breakpoints, supports, tol):
    assert_same_layout(lo, hi, breakpoints, supports, tol)


def test_empty_window_gives_empty_arrays():
    smooth, mids = build_cells(1.0, 0.0, (0.5,), ((0.0, 1.0),), 1e-8)
    assert smooth.shape == (0, 2) and mids.shape == (0, 2)
    assert integrate_cells(lambda x: x, smooth, mids, 1e-8) == 0.0


def _ternary_points(draw, lo, hi):
    j = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3 ** j - 1))
    t = float(Fraction(k, 3 ** j))
    t = draw(st.sampled_from((t, np.nextafter(t, 0.0), np.nextafter(t, 1.0))))
    return lo + (hi - lo) * t


SUPPORTS = (((0.0, 1.0),), ((0.0, 0.4), (0.5, 1.0)), ((0.2, 0.65),))


@st.composite
def layouts(draw):
    supports = draw(st.sampled_from(SUPPORTS))
    points = []
    for _ in range(draw(st.integers(0, 3))):
        slo, shi = draw(st.sampled_from(supports))
        points.append(_ternary_points(draw, slo, shi))
    lo = draw(st.sampled_from((0.0, -0.1, points[0] if points else 0.3)))
    hi = draw(st.sampled_from((1.0, 1.2, points[-1] if points else 0.7)))
    tol = draw(st.sampled_from((1e-6, 1e-8, 1e-10)))
    return lo, hi, tuple(points), supports, tol


@settings(max_examples=30, deadline=None)
@given(layouts())
# leftover cells 3^-33 wide next to x = 1 round to zero width
@example((0.0, 1.0, (0.9999745973682874, 0.13333333333333333), ((0.0, 0.4), (0.5, 1.0)), 1e-10))
# a window one ulp wide gets no cells: the chain of edges ends at lo
@example((0.33333333333333326, 0.3333333333333333, (0.33333333333333326, 0.3333333333333333), ((0.0, 1.0),), 1e-6))
def test_layout_matches_the_reference_on_ternary_breakpoints(layout):
    smooth, mids = assert_same_layout(*layout)
    lo, hi = layout[:2]
    if hi > lo:
        cells = np.concatenate((smooth, mids))
        cells = cells[np.argsort(cells[:, 0], kind="stable")]
        assert np.all(cells[:, 1] > cells[:, 0])
        # the cells tile the window: edges meet up to the rounding of the
        # affine images of the ternary tiling (a leftover cell's right edge
        # is its left edge plus 3^-L, not the next gap's left edge)
        edges = np.concatenate(([lo], cells[:, 1]))
        np.testing.assert_allclose(cells[:, 0], edges[:-1], rtol=0, atol=1e-15)
        assert abs(edges[-1] - hi) <= 1e-15
        assert abs(np.sum(cells[:, 1] - cells[:, 0]) - (hi - lo)) <= 1e-12


@pytest.mark.parametrize(
    "tol, level", [(1e-6, 9), (1e-8, 12), (1e-10, 13)], ids=["1e-06", "1e-08", "1e-10"]
)
def test_window_inside_one_leftover_cell_is_exact(tol, level):
    """A window inside the level-``level`` Cantor cell at 0: its cut path
    ends in leftover cells, on which the fitted rules integrate 1 and x
    exactly, and gaps."""
    cell = 3.0 ** -level
    lo, hi = 0.2 * cell, 0.7 * cell
    one, x = integrate_interval(
        lambda t: np.stack((np.ones_like(t), t)), lo, hi, tol, cantor_supports=((0.0, 1.0),)
    )
    assert abs(one - (hi - lo)) <= 1e-15
    assert abs(x - 0.5 * (hi * hi - lo * lo)) <= 1e-15


COMPONENTS = {
    "cubic": lambda t: 1.0 + t * (0.5 - t * t),  # passes on the first pass
    "wiggle": lambda t: np.sin(40.0 * t) * np.exp(t),  # refines for a few passes
    "sqrt": lambda t: np.sqrt(np.abs(t)),  # its kink cell passes on the last pass
    "step": lambda t: np.where(t > 0.3, 1.0, 0.0),  # undeclared: fails at 1e-12
}


def _on_mu(f, lo, hi, tol, points, supports):
    """:func:`integrate_interval`'s twin against mu_C of the support [0, 1]
    on the windows, cut at the points; the supports are not read."""
    return quadrature.integrate_cantor(f, (0.0, 1.0), lo, hi, points, tol)


def _alone(fs, windows, tol, integrate=integrate_interval):
    """Per component, the repr of integrating it alone on its group's
    window to its window's tol (``tol``: one, or one per window), or the
    error that raises."""
    per = len(fs) // len(windows)
    tols = tol if np.ndim(tol) else [tol] * len(windows)
    out = []
    for c, f in enumerate(fs):
        lo, hi, points, supports = windows[c // per]
        try:
            out.append(repr(integrate(f, lo, hi, tols[c // per], points, supports)))
        except QuadratureError as err:
            out.append(err)
    return out


def _assert_as_alone(f, windows, tol, alone, integrate=integrate_interval):
    """``f`` on all ``windows`` in one call gives the reprs of ``alone``,
    or raises the first of its errors."""
    errors = [str(a) for a in alone if isinstance(a, QuadratureError)]
    lo, hi, points, supports = zip(*windows)
    if errors:
        with pytest.raises(QuadratureError) as err:
            integrate(f, lo, hi, tol, points, supports)
        assert str(err.value) == errors[0]
    else:
        assert [repr(v) for v in integrate(f, lo, hi, tol, points, supports)] == alone


def _assert_stacked_as_alone(fs, windows, tol, alone, integrate=integrate_interval):
    _assert_as_alone(lambda t: np.stack([f(t) for f in fs]), windows, tol, alone, integrate)


TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


@st.composite
def stacks(draw):
    """1 to 3 windows with 1 or 2 components each, and a tolerance: one,
    or one per window."""
    windows = [layout[:4] for layout in draw(st.lists(layouts(), min_size=1, max_size=3))]
    n = draw(st.integers(1, 2)) * len(windows)
    names = draw(st.lists(st.sampled_from(sorted(COMPONENTS)), min_size=n, max_size=n))
    per_window = st.lists(st.sampled_from(TOLS), min_size=len(windows), max_size=len(windows))
    return windows, names, draw(st.one_of(st.sampled_from(TOLS), per_window))


@settings(max_examples=25, deadline=None)
@given(stacks())
# one window: plain cells, a kink cell accepted on the last pass
@example(([(0.0, 1.0, (), ())], ["cubic", "wiggle", "sqrt"], 1e-10))
# windows, breakpoints and Cantor supports (leftover cells) all differ; the
# sqrt component's endpoint cell passes on the last pass
@example((
    [(0.0, 1.0, (), ()), (0.0, 1.0, (0.25,), ((0.0, 1.0),)), (0.0, 0.7, (0.5,), ((0.2, 0.65),))],
    ["cubic", "wiggle", "sqrt"], 1e-10,
))
# two components per window, two of them failing
@example((
    [(-0.1, 1.0, (), ()), (0.2, 1.2, (0.5,), ((0.0, 0.4), (0.5, 1.0)))],
    ["wiggle", "step", "cubic", "step"], 1e-12,
))
# one window twice, to two tols: its step passes at 1e-6 and fails at 1e-12
@example((
    [(-0.1, 1.0, (), ()), (-0.1, 1.0, (), ())],
    ["step", "wiggle", "step", "cubic"], [1e-6, 1e-12],
))
# three windows, each to its own tol
@example((
    [(0.0, 1.0, (), ()), (0.0, 1.0, (0.25,), ((0.0, 1.0),)), (0.0, 0.7, (0.5,), ((0.2, 0.65),))],
    ["wiggle", "sqrt", "wiggle"], [1e-6, 1e-10, 1e-12],
))
def test_stacked_components_integrate_as_if_alone(stack):
    """Each component of a stacked integrand keeps its own layout, tol,
    passing cells and refinement: its integral has the bits of integrating
    it alone, and of the components that fail alone the first one's error,
    which names its tol, is raised.  The components split into equal
    consecutive groups, one per window, and a tol may be given per
    window.  The same holds against mu_C, whose Cantor cells and one-point
    pieces each component also keeps as its own."""
    windows, names, tol = stack
    fs = [COMPONENTS[n] for n in names]
    _assert_stacked_as_alone(fs, windows, tol, _alone(fs, windows, tol))
    # the same against mu_C, with each window's points as its cuts
    _assert_stacked_as_alone(fs, windows, tol, _alone(fs, windows, tol, _on_mu), _on_mu)


@pytest.mark.parametrize("block", [1, 7, 512])
def test_block_size_leaves_the_bits_alone(block, monkeypatch):
    """A Gauss sum runs over one cell's own nodes in a fixed order, so the
    bits do not depend on how many cells share an integrand call.  No call
    holds more than _BLOCK cells, counting every row of a call that holds
    K7 rows and leftover rows (13 nodes) together; with room for them,
    some call does."""
    windows = [(0.0, 1.0, (0.25,), ((0.0, 1.0),)), (0.1, 0.9, (0.5,), ((0.2, 0.65),))]
    fs = [COMPONENTS[n] for n in ("sqrt", "wiggle", "cubic", "wiggle")]
    alone = _alone(fs, windows, 1e-8)
    calls = []  # per integrand call, its cells by number of nodes
    apply, node_sums = quadrature._apply, quadrature._node_sums

    def spy_apply(f, xs, stacked=False):
        calls.append({})
        return apply(f, xs, stacked)

    def spy_node_sums(block, rules, out):
        nodes = block.shape[-1]
        calls[-1][nodes] = calls[-1].get(nodes, 0) + block.shape[-2]
        node_sums(block, rules, out)

    monkeypatch.setattr(quadrature, "_BLOCK", block)
    monkeypatch.setattr(quadrature, "_apply", spy_apply)
    monkeypatch.setattr(quadrature, "_node_sums", spy_node_sums)
    assert _alone(fs, windows, 1e-8) == alone
    _assert_stacked_as_alone(fs, windows, 1e-8, alone)
    assert max(sum(cells.values()) for cells in calls) <= block
    assert any(7 in cells and 13 in cells for cells in calls) == (block > 1)


@settings(max_examples=20, deadline=None)
@given(stacks().filter(lambda stack: len(stack[0]) > 1), st.sampled_from(sorted(COMPONENTS)))
# three windows, each to its own tol, with breakpoints and leftover cells
@example(
    ([(0.0, 1.0, (), ()), (0.0, 1.0, (0.25,), ((0.0, 1.0),)), (0.0, 0.7, (0.5,), ((0.2, 0.65),))],
     [], [1e-6, 1e-10, 1e-12]),
    "wiggle",
)
def test_unstacked_integrand_serves_every_window(stack, name):
    """An unstacked integrand given g windows is one component per window,
    each reading its window's rows of the one value array: a g-tuple with
    the bits of integrating it alone on each window, or the first window's
    error that raises alone."""
    windows, _, tol = stack
    f = COMPONENTS[name]
    _assert_as_alone(f, windows, tol, _alone([f] * len(windows), windows, tol))


def _reference_node_sums(block, rules):
    """The panel sums as numpy's reduction takes them, with the product
    C-ordered: the reference for ``_node_sums``."""
    return np.stack([np.multiply(block, w, order="C").sum(axis=-1) for w in rules])


def _node_block(rng, shape, layout):
    """Random values of ``shape`` with exponents spanning e^-30..e^30, some
    of them +-0, +-inf or nan, and sometimes an all -0.0 row, laid out
    C-ordered, F-ordered or as a fancy-indexed gather."""
    gather = shape[:-1] + (shape[-1] + 3,)
    vals = rng.standard_normal(gather) * np.exp(rng.uniform(-30.0, 30.0, gather))
    pick = rng.random(gather)
    vals[pick < 0.05] = 0.0
    vals[(pick >= 0.05) & (pick < 0.1)] = -0.0
    if rng.random() < 0.3:
        vals[pick > 0.99] = np.inf
        vals[(pick > 0.98) & (pick <= 0.99)] = -np.inf
        vals[(pick > 0.97) & (pick <= 0.98)] = np.nan
    if rng.random() < 0.2:
        vals[(0,) * (len(shape) - 1)] = -0.0
    if layout == "fancy":
        return vals[..., rng.permutation(gather[-1])[: shape[-1]]]
    vals = vals[..., : shape[-1]].copy()
    return np.asfortranarray(vals) if layout == "F" else vals


@pytest.mark.parametrize("layout", ["C", "F", "fancy"])
@pytest.mark.parametrize("shape", [(1, 7), (1, 8), (40, 7), (40, 8), (3, 40, 7), (3, 1, 7), (3, 1, 8), (3, 40, 8)])
def test_node_sums_match_numpy_reduction(shape, layout):
    """The panel kernel's column sums in explicit association have the bits
    of numpy's reduction of the C-ordered product, whatever the shape or
    memory order of the block: under the K7 and P8 rules and random weight
    rows with zeros, on values spanning e^+-30 with +-0, inf and nan.  A
    NaN matches a NaN: which NaN operand an addition keeps, and so its sign
    and payload, is the CPU's choice."""
    rng = np.random.default_rng(sum(shape) * 3 + len(layout))
    real = quadrature._K7_RULES if shape[-1] == 7 else quadrature._P8_RULES
    for _ in range(60):
        block = _node_block(rng, shape, layout)
        weights = rng.standard_normal((3, shape[-1]))
        weights[rng.random(weights.shape) < 0.3] = 0.0
        for rules in (real, weights):
            with np.errstate(invalid="ignore"):
                want = _reference_node_sums(block, rules)
                got = np.full(want.shape, 7.0)
                quadrature._node_sums(block, rules, got)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


def test_quadrature_sums_use_no_blas():
    """The panel sums are fixed-order elementwise sums: a BLAS product's
    bits for one row can depend on how many rows it is given, and a numpy
    reduction's association is numpy's internal choice."""
    text = Path(quadrature.__file__).read_text()
    for token in ("@", "np.dot", "np.einsum"):
        assert token not in text
    for fn in (quadrature._evaluate, quadrature._node_sums):
        assert ".sum(" not in inspect.getsource(fn)


def test_the_library_computes_no_gauss_rule():
    """Gauss nodes and weights are literals: numpy's leggauss runs LAPACK
    at import, whose bits may depend on the CPU."""
    for path in Path(quadrature.__file__).parent.glob("*.py"):
        assert "leggauss" not in path.read_text(), path.name


def _nested_rules():
    """G3, K7 and P15 as (nodes, weights) from the panel literals."""
    g3, k7, p15 = quadrature._K7_RULES
    return (
        (quadrature._K7[g3 != 0.0], g3[g3 != 0.0]),
        (quadrature._K7, k7),
        (np.concatenate((quadrature._K7, quadrature._P8)), np.concatenate((p15, quadrature._P8_RULES[0]))),
    )


def test_nested_rule_literals():
    """Read as the exact rationals of their floats, G3, K7 and P15
    integrate x^k over [-1, 1] to 1e-15 up to degree 5, 11 and 23, and
    their weights sum to 2; each rule's nodes are bit for bit among the
    next one's, and G3 is numpy's Gauss-Legendre 3 to 1 ulp."""
    rules = _nested_rules()
    for (nodes, weights), degree in zip(rules, (5, 11, 23)):
        xs, ws = [Fraction(x) for x in nodes], [Fraction(w) for w in weights]
        assert abs(sum(ws) - 2) <= 1e-15
        for k in range(degree + 1):
            exact = Fraction(2, k + 1) if k % 2 == 0 else 0
            assert abs(sum(w * x**k for x, w in zip(xs, ws)) - exact) <= 1e-15, (degree, k)
    for (inner, _), (outer, _) in zip(rules, rules[1:]):
        assert set(inner.view(np.int64)) <= set(outer.view(np.int64))
    nodes, weights = np.polynomial.legendre.leggauss(3)
    np.testing.assert_array_max_ulp(rules[0][0], nodes, 1)
    np.testing.assert_array_max_ulp(rules[0][1], weights, 1)


@pytest.mark.parametrize("power, points", [(5, 7), (9, 15), (11, 15)])
def test_a_cell_evaluates_each_node_once(power, points, monkeypatch):
    """On one cell at tol 1e-10, K7 meets x^5 and x^9 and x^11 need P15: 7
    integrand points, or 7 + 8 with none evaluated twice."""
    seen = []
    apply = quadrature._apply

    def spy(f, xs, stacked=False):
        seen.append(xs.size)
        return apply(f, xs, stacked)

    monkeypatch.setattr(quadrature, "_apply", spy)
    value = integrate_cells(lambda t: t**power, np.array([[0.0, 1.0]]), np.empty((0, 2)), 1e-10)
    assert sum(seen) == points
    assert abs(value - 1.0 / (power + 1)) <= 1e-15


@st.composite
def closed_forms(draw):
    """(f, lo, hi, exact integral, tol) with [lo, hi] in [-1, 1]: e^(ct) with
    |c| <= 3, sin(wt) with w <= 80, or a polynomial of degree <= 30 with
    coefficients of absolute sum 1."""
    lo, hi = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True)))
    tol = draw(st.sampled_from((1e-6, 1e-8, 1e-10, 1e-12)))
    kind = draw(st.sampled_from(("exp", "sin", "poly")))
    if kind == "exp":
        c = draw(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3))
        return lambda t: np.exp(c * t), lo, hi, (math.exp(c * hi) - math.exp(c * lo)) / c, tol
    if kind == "sin":
        w = draw(st.floats(0.1, 80.0))
        return lambda t: np.sin(w * t), lo, hi, (math.cos(w * lo) - math.cos(w * hi)) / w, tol
    coefs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=31))
    scale = sum(map(abs, coefs))
    coefs = [c / scale for c in coefs] if scale else [1.0]

    def poly(t):
        out = np.zeros_like(t)
        for c in reversed(coefs):
            out = out * t + c
        return out

    exact = sum(
        Fraction(c) * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)
        for k, c in enumerate(coefs)
    )
    return poly, lo, hi, float(exact), tol


@settings(max_examples=200, deadline=None)
@given(closed_forms())
def test_closed_form_integrals_meet_the_tolerance(case):
    f, lo, hi, exact, tol = case
    assert abs(integrate_interval(f, lo, hi, tol) - exact) <= tol


@pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13])
@pytest.mark.parametrize(
    "f", [np.sqrt, lambda t: np.sqrt(1.0 - t)], ids=["sqrt(t)", "sqrt(1-t)"]
)
def test_square_root_endpoint_meets_the_tolerance(f, tol):
    """The endpoint cell errs like width^1.5, so it never meets its share
    of the budget; the last pass accepts it from the unused half."""
    assert abs(integrate_interval(f, 0.0, 1.0, tol) - 2.0 / 3.0) <= tol


@pytest.mark.parametrize(
    "f, tol",
    [(lambda t: 1.0 / np.sqrt(t), 1e-9), (lambda t: np.where(t > 0.3, 1.0, 0.0), 1e-12)],
    ids=["1/sqrt(t)", "undeclared step"],
)
def test_unreachable_tolerance_raises(f, tol):
    with pytest.raises(QuadratureError, match="cells still failing"):
        integrate_interval(f, 0.0, 1.0, tol)


@pytest.mark.parametrize("seed", [4129490519, 2439395683, 827591491, 1979963261, 865024558])
def test_coarea_check_passes_on_seeds_with_a_flat_end(seed, tmp_path):
    """Each seed draws a coarea case whose u' vanishes at a domain end; the
    first one also finishes its refinement on the last pass."""
    sc = parse_scenario(SCENARIOS / "coarea_check.ini")
    assert run_scenario(sc, str(tmp_path), seed=seed) == (True, 10, 10)


# -- tolerances, and the fitted rules on leftover cells ---------------------


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("supports", [(), ((0.0, 1.0),)], ids=["plain", "cantor"])
def test_tolerance_must_be_finite_and_positive(tol, supports, monkeypatch):
    """A tol that is not finite and positive, alone or one window's, raises
    DomainError naming it before any layout or evaluation."""
    smooth, mids = build_cells(0.0, 1.0, (), supports, 1e-8)

    def untouched(*args):
        raise AssertionError("laid out or evaluated")

    monkeypatch.setattr(quadrature, "build_cells", untouched)
    named = re.escape(f"tolerance {tol!r} is not finite and positive")
    with pytest.raises(DomainError, match=named):
        integrate_interval(untouched, 0.0, 1.0, tol, cantor_supports=supports)
    with pytest.raises(DomainError, match=named):
        integrate_interval(untouched, [0.0, 0.2], [1.0, 0.5], [1e-8, tol], [(), ()], [supports] * 2)
    with pytest.raises(DomainError, match=named):
        integrate_cells(untouched, smooth, mids, tol)
    with pytest.raises(DomainError, match=named):
        integrate_cells(untouched, [smooth, smooth], [mids, mids], [1e-8, tol])


def test_leftover_cell_too_narrow_to_split_raises():
    """An undeclared step at x = 1/4, a point of the Cantor set, fails in
    every leftover cell that holds it; once that cell's children would be
    too narrow for the fitted nodes, the error names the cell's budget."""
    with pytest.raises(QuadratureError, match=r"misses its budget .* too narrow for the fitted"):
        integrate_interval(
            lambda t: np.where(t > 0.25, 1.0, 0.0), 0.0, 1.0, 1e-10, cantor_supports=((0.0, 1.0),)
        )


def test_oracle_checks_itself():
    """The oracle's moments: I₀₀ = 1, I₀₁ = ½, I₀₂ = 3/10, I₁₁ = 5/16 and
    I₂₃ = 14131/111300; every odd centred moment is 0; the level-2 cells
    add up to the whole; and an integral over a window of a support is
    the moments' affine image."""
    assert oracle.moment(0, 0) == 1
    assert oracle.moment(0, 1) == Fraction(1, 2)
    assert oracle.moment(0, 2) == Fraction(3, 10)
    assert oracle.moment(1, 1) == Fraction(5, 16)
    assert oracle.moment(2, 3) == Fraction(14131, 111300)
    for a in range(8):
        for b in range(8):
            if (a + b) % 2:
                assert oracle.centred(a, b) == 0, (a, b)
    for i, j in ((0, 0), (2, 3), (3, 1)):
        assert sum(oracle.cell_moment(i, j, n, 2) for n in range(9)) == oracle.moment(i, j)
    # ∫ (x C) over the support (1, 3): x = 1 + 2s, dx = 2 ds
    want = 2 * (oracle.moment(0, 1) + 2 * oracle.moment(1, 1))
    assert oracle.integral({(1, 1): 1}, (1, 3), (0, 1, 0)) == want
    assert oracle.integral({(0, 0): 1}, (0.5, 1.0), (4, 25, 3)) == Fraction(21, 54)


def _fitted_nodes():
    """Per node of the fitted rules, ascending: s on the cell [0, 1], C(s)
    from the oracle's digits of the level-4 cell that holds s, and its
    rule B and rule A weights, all in Fraction."""
    nodes = []
    for y, b, a in quadrature._FITTED:
        for s in sorted({Fraction(1, 2) - y, Fraction(1, 2) + y}):
            k = math.floor(s * 81)
            gap, c = oracle.cantor_at(k, 4)
            assert gap and k < s * 81, s  # strictly inside a gap of levels 1-4
            nodes.append((s, c, Fraction(b), Fraction(a)))
    return sorted(nodes)


B_MOMENTS = ((0, 0), (2, 0), (1, 1), (0, 2), (0, 4), (1, 3), (2, 2))


def test_fitted_rule_literals():
    """In Fraction: both weight sets are positive and sum to 1; the nodes
    come in pairs 1/2 ± y; rule B matches the centred moments 1, s², sC,
    C², C⁴, sC³ and s²C² of (s, C(s)) under ds exactly, rule A the first
    four, and both every odd one up to degree 7, against the oracle's
    recursion.  The float tables are those rationals rounded, on [-1, 1],
    and each float node reads C equal to its dyadic."""
    nodes = _fitted_nodes()
    half = Fraction(1, 2)
    assert [s + t for (s, *_), (t, *_) in zip(nodes, nodes[::-1])] == [1] * len(nodes)
    for column, moments in ((2, B_MOMENTS), (3, B_MOMENTS[:4])):
        rule = [(s, c, n[column]) for n in nodes for s, c in [n[:2]] if n[column]]
        assert all(w > 0 for _, _, w in rule)
        odd = [(a, b) for a in range(8) for b in range(8) if (a + b) % 2 and a + b <= 7]
        for a, b in moments + tuple(odd):
            got = sum(w * (s - half) ** a * (c - half) ** b for s, c, w in rule)
            assert got == oracle.centred(a, b), (column, a, b)
    assert quadrature._FIT.tolist() == [float(2 * s - 1) for s, *_ in nodes]
    assert quadrature._FIT_RULES.tolist() == [[float(2 * n[k]) for n in nodes] for k in (2, 3)]
    s_float = 0.5 + 0.5 * quadrature._FIT
    assert cantor_function_eval(s_float).tolist() == [float(c) for _, c, *_ in nodes]


def test_graph_moment_oracle_checks_itself():
    """The oracle's graph moments M_ij = ∫ sⁱ Cʲ dμ_C: M₀₀ = 1, M₂₀ = 3/8,
    M₁₁ = 7/20, Var s = 1/8, Var C = 1/12, Cov(s, C) = 1/10, and every odd
    centred moment is 0.  Its tails ∫_[t, 1] agree across a gap, have
    mass 1 - C(t) (C(1/4) = 1/3, C(1/10) = 1/5), and split the whole."""
    assert oracle.graph_moment(0, 0) == 1
    assert oracle.graph_moment(2, 0) == Fraction(3, 8)
    assert oracle.graph_moment(1, 1) == Fraction(7, 20)
    assert oracle.graph_centred(2, 0) == Fraction(1, 8)
    assert oracle.graph_centred(0, 2) == Fraction(1, 12)
    assert oracle.graph_centred(1, 1) == Fraction(1, 10)
    for a in range(9):
        for b in range(9):
            if (a + b) % 2:
                assert oracle.graph_centred(a, b) == 0, (a, b)
    tails = {t: oracle.tail_moments(t, 3) for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))}
    assert tails[Fraction(1, 3)] == tails[Fraction(1, 2)] == tails[Fraction(2, 3)]
    assert oracle.tail_moments(Fraction(1, 4), 0)[0, 0] == Fraction(2, 3)
    assert oracle.tail_moments(Fraction(1, 10), 0)[0, 0] == Fraction(4, 5)
    # mu_C on [0, 1/3] is the image of mu_C under s -> s/3 with half the mass
    low = {k: oracle.graph_moment(*k) - v for k, v in oracle.tail_moments(Fraction(1, 3), 3).items()}
    assert low == {(i, j): oracle.graph_moment(i, j) / (2 * 3 ** i * 2 ** j) for i, j in low}


def _mu_nodes():
    """Per node of the mu_C rules, ascending: s on the cell [0, 1], C(s)
    from the oracle's digits of the gap of levels 1-5 that holds s, at
    least 1/486 inside it, and its rule D and rule E weights, all in
    Fraction."""
    nodes = []
    for y, d, e in quadrature._MU_FITTED:
        for s in sorted({Fraction(1, 2) - y, Fraction(1, 2) + y}):
            m = next(m for m in range(1, 6) if oracle.cantor_at(math.floor(s * 3 ** m), m)[0])
            k = math.floor(s * 3 ** m)
            assert min(s - Fraction(k, 3 ** m), Fraction(k + 1, 3 ** m) - s) >= Fraction(1, 486), s
            nodes.append((s, oracle.cantor_at(k, m)[1], Fraction(d), Fraction(e)))
    return sorted(nodes)


D_MOMENTS = ((0, 0), (0, 2), (1, 1), (2, 0), (0, 4), (1, 3), (2, 2), (3, 1), (0, 6), (4, 0))


def test_mu_rule_literals():
    """In Fraction: both weight sets of the mu_C rules are positive and sum
    to 1, the nodes come in pairs 1/2 ± y, each strictly inside a gap; rule
    D matches the centred graph moments 1, C², sC, s², C⁴, sC³, s²C², s³C,
    C⁶ and s⁴ of (s, C(s)) under mu_C exactly, rule E the first six, and
    both every odd one up to degree 9, against the oracle's recursion.  The
    float tables are those rationals rounded, on [-1, 1], each row's floats
    sum to exactly 1, and each float node reads C equal to its dyadic."""
    nodes = _mu_nodes()
    half = Fraction(1, 2)
    assert [s + t for (s, *_), (t, *_) in zip(nodes, nodes[::-1])] == [1] * len(nodes)
    for column, moments in ((2, D_MOMENTS), (3, D_MOMENTS[:6])):
        rule = [(s, c, n[column]) for n in nodes for s, c in [n[:2]] if n[column]]
        assert all(w > 0 for _, _, w in rule)
        odd = [(a, b) for a in range(10) for b in range(10) if (a + b) % 2 and a + b <= 9]
        for a, b in moments + tuple(odd):
            got = sum(w * (s - half) ** a * (c - half) ** b for s, c, w in rule)
            assert got == oracle.graph_centred(a, b), (column, a, b)
    assert quadrature._MU.tolist() == [float(2 * s - 1) for s, *_ in nodes]
    assert quadrature._MU_RULES.tolist() == [[float(n[k]) for n in nodes] for k in (2, 3)]
    for row in quadrature._MU_RULES.tolist():
        total = 0.0
        for w in row:
            total += w
        assert total == 1.0  # left to right, as the panel sums run
    s_float = 0.5 + 0.5 * quadrature._MU
    assert cantor_function_eval(s_float).tolist() == [float(c) for _, c, *_ in nodes]


@pytest.mark.parametrize(
    "support, window",
    [
        ((0.0, 1.0), (0.1, 0.3)),
        ((0.0, 1.0), (0.25, 0.75)),
        ((0.0, 1.0), (1.0 / 3.0, 0.9)),
        ((0.2, 0.8), (0.35, 0.65)),
        ((0.3, 0.3 + 1e-6), (0.3 + 2.5e-7, 0.3 + 7.5e-7)),
    ],
)
def test_mu_mass_of_a_window_is_the_rise_of_c(support, window):
    """Against mu_C, 1 integrates over a window to C's rise across it, also
    where the window's ends are points of the Cantor set (0.1, 0.3, 1/4 and
    3/4 of their supports), so that the cut paths end in pieces.  Near such
    a point C moves by up to about 1e-10 across a few ulps (2 d^(log 2/log
    3) over a distance d), so within a few ulps of a cut no float layout can
    tell which side the mass is on; the bound allows that once per window
    end.  Masses taken from C at the rounded float ends of the cells along
    a cut path, not exactly from the tiling, would be 3.4e-10 off on
    (0.1, 0.3)."""
    (slo, shi), (lo, hi) = support, window
    got = quadrature.integrate_cantor(np.ones_like, support, lo, hi, (), 1e-12)
    c = cantor_function_eval(np.clip((np.array([lo, hi]) - slo) / (shi - slo), 0.0, 1.0))
    assert abs(got - (c[1] - c[0])) <= 1e-10


def _node_layouts():
    """The non-empty layouts of this file's tests, a support 1e-6 wide
    with a cut, and the layout with cells 3^-33 wide next to x = 1."""
    fixed = test_layout_matches_the_reference.pytestmark[0].args[1]
    return [layout for layout in fixed if layout[1] > layout[0]] + [
        (0.2, 0.4, (0.3 + 4e-7,), ((0.3, 0.3 + 1e-6),), 1e-8),
        (0.0, 1.0, (0.9999745973682874, 0.13333333333333333), ((0.0, 0.4), (0.5, 1.0)), 1e-10),
    ]


@pytest.mark.parametrize("layout", _node_layouts())
def test_leftover_nodes_read_their_dyadic(layout):
    """Every node of every leftover cell ``build_cells`` emits reads C, on
    its support's coordinates as a Cantor summand maps it, equal to the
    exact dyadic of its gap: the cell's C at its left end plus 2^-level
    times the node's dyadic on [0, 1]."""
    _, left = build_cells(*layout)
    supports = layout[3]
    dyadics = [c for _, c, *_ in _fitted_nodes()]
    for a, b in left.tolist():
        slo, shi = next(s for s in supports if s[0] <= a and b <= s[1])
        width = shi - slo
        level = round(math.log(width / (b - a), 3))
        k = round((a - slo) / width * 3 ** level)
        gap, base = oracle.cantor_at(k, level)
        assert not gap
        xs = 0.5 * (a + b) + 0.5 * (b - a) * quadrature._FIT
        got = cantor_function_eval((xs - slo) / width).tolist()
        assert got == [float(base + c / 2 ** level) for c in dyadics], (a, b)


# x^i C^j by (i, j).  C^6, x^2 C^4, x^3 C^3 and the rest are beyond rule B's
# moments; with C^10 and x^2 C^6, rule B on the start cells alone misses
# tol 1e-12 on five of the six windows below, so they need the refinement.
ORACLE_POLY = {
    (0, 10): 1.0, (0, 6): 1.0, (2, 6): -2.0, (2, 4): -2.0, (3, 3): 1.5,
    (1, 2): 0.75, (0, 1): -0.5, (0, 0): 0.25,
}


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize(
    "support, window",
    [
        ((0.0, 1.0), (0, 1, 0)),
        ((0.0, 1.0), (5, 22, 3)),
        ((0.0, 1.0 / 3.0), (0, 1, 0)),
        ((0.0, 1.0 / 3.0), (1, 7, 2)),
        ((0.5, 1.0), (2, 3, 1)),
        ((0.5, 1.0), (4, 25, 3)),
    ],
)
def test_polynomials_in_x_and_c_meet_the_tolerance(support, window, tol):
    """A polynomial in (x, C) over a ternary-aligned window [k/3^m, l/3^m]
    of its support is within tol of the oracle's exact rational."""
    slo, shi = support
    width = shi - slo
    k, l, m = window

    def f(xs):
        c = cantor_function_eval(np.clip((xs - slo) / width, 0.0, 1.0))
        return sum(coef * xs ** i * c ** j for (i, j), coef in ORACLE_POLY.items())

    lo, hi = slo + width * (k / 3 ** m), slo + width * (l / 3 ** m)
    exact = oracle.integral(ORACLE_POLY, support, window)
    assert abs(integrate_interval(f, lo, hi, tol, cantor_supports=(support,)) - float(exact)) <= tol


# -- the shared root search ---------------------------------------------------


def _halving(g, lo, hi, ghi):
    """The halving loop the root search replaced, as a reference: each
    bracket is halved until g(mid) == 0 or it is at most _ROOT_TOL wide,
    and that midpoint is returned; from |x| = 64 up the pass cap ends it."""
    lo, hi, ghi = (np.array(v, dtype=float) for v in (lo, hi, ghi))
    out = np.empty(lo.shape)
    live = np.arange(lo.size)
    for _ in range(_ROOT_PASSES):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid, live)
        done = (gm == 0.0) | (hi - lo <= _ROOT_TOL)
        up = (gm > 0) == (ghi > 0)
        lo, hi, ghi = np.where(up, lo, mid), np.where(up, mid, hi), np.where(up, gm, ghi)
        out[live[done]] = mid[done]
        live, lo, hi, ghi = (v[~done] for v in (live, lo, hi, ghi))
    out[live] = 0.5 * (lo + hi)
    return out


def test_bisect_returns_an_exact_midpoint_hit_and_drops_it():
    seen = []

    def g(xs, idx):
        seen.append(idx.tolist())
        return xs - np.array([0.5, 0.3])[idx], np.ones(xs.shape)

    got = _bisect(g, [0.0, 0.0], [1.0, 1.0], [0.5, 0.7])
    assert got[0] == 0.5
    assert abs(got[1] - 0.3) <= 0.5 * _ROOT_TOL
    assert seen[0] == [0, 1]
    assert len(seen) >= 2 and all(idx == [1] for idx in seen[1:])


def test_bisect_follows_a_decreasing_g():
    roots = np.array([0.1, 1.0 / 3.0, 0.9])
    got = _bisect(lambda xs, idx: (roots[idx] - xs, -np.ones(xs.shape)), np.zeros(3), np.ones(3), roots - 1.0)
    assert np.abs(got - roots).max() <= 0.5 * _ROOT_TOL


def test_bisect_without_brackets_evaluates_nothing():
    def g(xs, idx):
        raise AssertionError("no bracket to search")

    assert _bisect(g, [], [], []).shape == (0,)


@pytest.mark.parametrize("r, ulp_wide", [(0.7, False), (64.3, True), (-1000.3, True)])
def test_bisect_halving_stops_brackets_at_one_ulp_past_64(r, ulp_wide):
    """A step g with a NaN slope has no exact zero and is only halved, to
    the halving loop's point.  From |x| = 64 up one ulp is wider than
    _ROOT_TOL: the halving loop ran to its pass cap there, and the search
    ends at a bracket one ulp wide, in fewer than 64 passes."""
    calls = []

    def g(xs, idx):
        calls.append(len(xs))
        return np.where(xs > r, 1.0, -1.0), np.full(xs.shape, np.nan)

    lo = np.floor(r)
    got = _bisect(g, [lo], [lo + 1.0], [1.0])
    assert len(calls) < 64
    assert abs(got[0] - r) <= 0.5 * _ROOT_TOL + np.spacing(abs(r))
    halved = _halving(lambda xs, idx: g(xs, idx)[0], [lo], [lo + 1.0], [1.0])
    assert got.tobytes() == halved.tobytes()
    ulp = abs(np.spacing(got[0]))
    assert (ulp > _ROOT_TOL) == ulp_wide
    stop = max(ulp, _ROOT_TOL)
    assert g(got - stop, None)[0] * g(got + stop, None)[0] < 0.0


# -- safeguarded Newton steps --------------------------------------------------


def _recorded(g, seen):
    """``g`` keeping every (x, g(x)) it is asked for in ``seen``, per bracket."""

    def rec(xs, idx):
        out = g(xs, idx)
        gx = out[0] if isinstance(out, tuple) else out
        for i, x, v in zip(idx.tolist(), xs.tolist(), gx.tolist()):
            seen.setdefault(i, []).append((x, v))
        return out

    return rec


@given(
    lo=st.floats(-100.0, 99.0),
    width=st.floats(1e-3, 1.0),
    offset=st.floats(0.0, 1.0),
    coefs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    rise=st.floats(0.05, 1.0),
    frac=st.floats(0.0, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(lo=64.0, width=1.0, offset=0.5, coefs=[0.0, 0.3, 0.0], rise=0.05, frac=0.3, sign=1.0)
@example(lo=-100.0, width=1.0, offset=0.0, coefs=[1.0, 1.0, 1.0], rise=0.05, frac=0.9, sign=-1.0)
@settings(max_examples=80, deadline=None)
def test_sloped_search_keeps_the_bisection_contract(lo, width, offset, coefs, rise, frac, sign):
    """On a monotone polynomial of degree at most 4, g = ±(p - t) with
    p = sum a_k (x - c)^k, a_k >= 0 and c <= lo (so every float operation,
    and the computed g, is monotone on the bracket): the sloped search
    returns a point of the bracket that is an exact zero of g or lies
    between two points it evaluated across which g changes sign, at most
    _ROOT_TOL apart (one ulp from |x| = 64 up); and it is within as much of
    the halving loop's point."""
    hi = min(lo + width, 100.0)
    c = lo - offset
    a = (0.0, rise, *coefs)
    da = tuple(k * ak for k, ak in enumerate(a))[1:]
    t = float(_horner(a, np.array([lo + frac * (hi - lo) - c]))[0])

    def sloped(xs, idx):
        s = xs - c
        return sign * (_horner(a, s) - t), sign * _horner(da, s)

    glo, ghi = sloped(np.array([lo, hi]), None)[0]
    assume(glo * ghi < 0.0)
    seen = {}
    (r,) = _bisect(_recorded(sloped, seen), [lo], [hi], [ghi])
    (plain,) = _halving(lambda xs, idx: sloped(xs, idx)[0], [lo], [hi], [ghi])
    g = lambda x: float(sloped(np.array([x]), None)[0][0])  # noqa: E731
    assert lo <= r <= hi
    stop = max(_ROOT_TOL, float(np.spacing(abs(r))))
    if g(r) != 0.0:
        pts = [(lo, glo), *seen[0], (hi, ghi)]
        a_end = max(x for x, v in pts if x <= r and v * ghi < 0.0)
        b_end = min(x for x, v in pts if x >= r and v * ghi > 0.0)
        assert b_end - a_end <= stop
    assert abs(r - plain) <= stop or g(r) == g(plain) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sloped_search_finds_a_root_at_a_bracket_end(sign):
    got = _bisect(lambda xs, idx: (sign * (xs - 0.25), np.full(xs.shape, sign)), [0.25], [1.0], [0.75 * sign])
    assert 0.25 <= got[0] <= 0.25 + 0.5 * _ROOT_TOL


@pytest.mark.parametrize("t", [1e-6, 1e-20])
def test_sloped_search_with_a_zero_slope_at_the_critical_end(t):
    """g = x^2 - t has g'(0) = 0 at the lo end: Newton's steps from there
    are out of the bracket or too long, and the bracket halves."""
    got = _bisect(lambda xs, idx: (xs * xs - t, 2.0 * xs), [0.0], [1.0], [1.0 - t])
    assert abs(got[0] - math.sqrt(t)) <= 0.5 * _ROOT_TOL + np.spacing(1.0)


def test_sloped_search_halves_nan_slope_rows_as_the_plain_loop():
    """Rows with a NaN slope, in one call with Newton rows, give the bits
    of the same rows searched alone; they ask for the halving loop's points
    but its last (their bracket is already closed) and return its bits.
    The Newton rows finish in a few passes."""
    roots = np.array([0.1, 1.0 / 3.0, 0.7, 0.45])
    slopes = np.array([1.0, 1.0, np.nan, np.nan])
    seen, alone, plain = {}, {}, {}

    def sloped(xs, idx):
        return xs - roots[idx], np.broadcast_to(slopes[idx], xs.shape).copy()

    got = _bisect(_recorded(sloped, seen), np.zeros(4), np.ones(4), 1.0 - roots)
    for rows in ([0, 1], [2, 3]):
        sub = lambda xs, idx, rows=rows: sloped(xs, np.asarray(rows)[idx])  # noqa: E731
        rec = _recorded(sub, alone)
        want = _bisect(rec, np.zeros(2), np.ones(2), 1.0 - roots[rows])
        assert got[rows].tobytes() == want.tobytes()
        assert [seen[i] for i in rows] == [alone.pop(j) for j in range(2)]
    want = _halving(_recorded(lambda xs, idx: xs - roots[idx], plain), np.zeros(4), np.ones(4), 1.0 - roots)
    assert got[2:].tobytes() == want[2:].tobytes()
    for i in (2, 3):
        assert seen[i] == plain[i][:-1]
    assert max(len(seen[0]), len(seen[1])) <= 8
    assert np.abs(got - roots).max() <= 0.5 * _ROOT_TOL


def test_sloped_search_returns_an_exact_zero_at_a_newton_point():
    seen = {}
    got = _bisect(_recorded(lambda xs, idx: (2.0 * (xs - 0.375), np.full(xs.shape, 2.0)), seen), [0.0], [1.0], [1.25])
    assert got[0] == 0.375
    assert seen[0] == [(0.5, 0.25), (0.375, 0.0)]


def test_sloped_search_stops_at_one_ulp_past_64():
    """From |x| = 64 up no bracket is _ROOT_TOL wide: the sloped search ends
    at the one-ulp bracket the halving loop reaches at its pass cap."""
    calls = []

    def sloped(xs, idx):
        calls.append(len(xs))
        return xs * xs - 4200.0, 2.0 * xs

    got = _bisect(sloped, [64.0], [65.0], [25.0])
    assert len(calls) < 20
    assert got.tobytes() == _halving(lambda xs, idx: xs * xs - 4200.0, [64.0], [65.0], [25.0]).tobytes()
    assert abs(got[0] - math.sqrt(4200.0)) <= np.spacing(got[0])


def test_generated_suites_do_not_import_numpy_ma(tmp_path):
    """One seed of the generated chain-rule, coarea and comparison suites,
    run in a fresh interpreter, never imports numpy.ma: its import costs
    milliseconds on every cold run, and np.unique on an integer array
    pulls it in."""
    script = (
        "import sys\n"
        "from bvcalc.scenario import parse_scenario, run_scenario\n"
        "for name in ('chainrule_suite', 'coarea_check', 'comparison_check'):\n"
        f"    sc = parse_scenario({str(SCENARIOS)!r} + '/' + name + '.ini')\n"
        f"    assert run_scenario(sc, {str(tmp_path)!r} + '/' + name, seed=1000)[0], name\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(quadrature.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["False"]
