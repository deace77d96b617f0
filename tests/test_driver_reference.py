"""The adaptive driver of ``quadrature`` against a plain reference that
refines one cell at a time.

The reference takes the driver's layouts, rule tables and node sums
(:func:`quadrature._node_sums` on a one-cell block), its budgets, splits
and last-pass rule, and forms each total as one ``np.sum`` of the accepted
values in x order.  The driver refines every cell of every component in a
few flat arrays, a pass at a time; a total depends only on which cells are
accepted, so both agree bit for bit, and on the error raised.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvcalc import quadrature
from bvcalc.cantor import cantor_function_eval
from bvcalc.errors import QuadratureError
from bvcalc.quadrature import (
    _CENTRE, _FIT, _FIT_RULES, _K7, _K7_RULES, _MAX_PASSES, _MU, _MU_RULES, _ONE, _P8,
    _P8_RULES, _cantor_layout, _roomy, _thirds, build_cells, integrate_cantor,
    integrate_interval,
)


def _sums(f, lo, hi, nodes, rules):
    """The rule sums of ``f`` on the one cell [lo, hi], before its scale."""
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    out = np.empty((len(rules), 1))
    quadrature._node_sums(np.asarray(f(xs), dtype=float).reshape(1, -1), rules, out)
    return out[:, 0]


def _narrow(tol, lo, hi, budget):
    return QuadratureError(
        f"tolerance {tol:g} unreachable: the Cantor cell [{lo!r}, {hi!r}] misses its "
        f"budget {budget:.3g}, and its children are too narrow for the fitted rules' nodes"
    )


def reference(f, smooth, left, pieces, tol, length, mu):
    """The integral of the one-component ``f`` over the smooth cells
    ``smooth`` and the Cantor cells ``left``, both lists of (lo, hi, mass)
    (mass None against dx), and the one-node ``pieces`` (lo, hi, mass),
    refined one cell at a time; or the QuadratureError the driver raises."""
    length = max(length, 1e-300)
    accepted = [(a, _sums(f, a, b, _CENTRE, _ONE)[0] * m) for a, b, m in pieces]
    live = 0
    for npass in range(1, _MAX_PASSES + 1):
        gaps, children, failing = [], [], []
        for a, b, m in sorted(left):
            s = _sums(f, a, b, *((_MU, _MU_RULES) if mu else (_FIT, _FIT_RULES)))
            scale = m if mu else 0.5 * (b - a)
            val = s[0] * scale
            budget = 0.5 * tol * (m if mu else b - a) / length
            if abs(val - s[1] * scale) <= max(budget, 1e-17 * abs(val)):
                accepted.append((a, val))
                continue
            p, q = _thirds(a, b)
            if not (_roomy(a, p) and _roomy(q, b)):
                raise _narrow(tol, a, b, budget)
            children += [(a, p, 0.5 * m if mu else None), (q, b, 0.5 * m if mu else None)]
            if not mu:
                gaps.append((p, q, None))
        for a, b, _ in sorted(smooth):
            half = 0.5 * (b - a)
            s = _sums(f, a, b, _K7, _K7_RULES)
            val = s[1] * half
            err = abs(val - s[0] * half)
            budget = 0.5 * tol * (b - a) / length
            if err > max(budget, 1e-17 * abs(val)):
                p15 = (s[2] + _sums(f, a, b, _P8, _P8_RULES)[0]) * half
                err, val = abs(p15 - val), p15
            if err <= max(budget, 1e-17 * abs(val)):
                accepted.append((a, val))
            else:
                failing.append((a, b, val, err))
        if npass == _MAX_PASSES:
            if np.sum([e for _, _, _, e in failing]) <= 0.5 * tol:
                accepted += [(a, v) for a, _, v, _ in failing]
                failing = []
            live = len(failing) + len(gaps) + len(children)
            break
        halves = [((a, 0.5 * (a + b), None), (0.5 * (a + b), b, None)) for a, b, _, _ in failing]
        smooth, left = gaps + [h for pair in halves for h in pair], children
        if not (smooth or left):
            break
    if live:
        raise QuadratureError(
            f"tolerance {tol:g} unreachable: {live} cells still failing "
            f"after {_MAX_PASSES} refinement passes"
        )
    return float(np.sum([v for _, v in sorted(accepted, key=lambda av: av[0])]))


def _dx_reference(f, window, tol):
    lo, hi, points, supports = window
    smooth, mids = build_cells(lo, hi, points, supports)
    length = float(np.sum(smooth[:, 1] - smooth[:, 0])) + float(np.sum(mids[:, 1] - mids[:, 0]))
    cells = lambda c: [(a, b, None) for a, b in c.tolist()]
    return reference(f, cells(smooth), cells(mids), [], tol, length, False)


def _mu_reference(f, support, window, tol):
    lo, hi, points, _ = window
    cells, masses, pieces = _cantor_layout(support, lo, hi, points)
    length = float(np.sum(masses)) + float(np.sum(pieces[2]))
    left = [(a, b, m) for (a, b), m in zip(cells.tolist(), masses.tolist())]
    return reference(f, [], left, list(zip(*(p.tolist() for p in pieces))), tol, length, True)


def _components(support):
    """Elementwise integrands; ``cantor`` reads the Cantor function of the
    ``support``, and ``kink`` and ``step`` have an undeclared kink and
    jump inside it."""
    s0, s1 = support
    at = s0 + 0.4 * (s1 - s0)

    def c(t):
        return cantor_function_eval(np.clip((t - s0) / (s1 - s0), 0.0, 1.0))

    return {
        "cubic": lambda t: 1.0 + t * (0.5 - t * t),
        "wiggle": lambda t: np.sin(40.0 * t) * np.exp(t),
        "cantor": lambda t: np.cos(6.0 * c(t) - t),
        "kink": lambda t: np.sqrt(np.abs(t - at) / (s1 - s0)),
        "step": lambda t: np.where(t > at, 1.0, 0.0),
    }


def _ternary(draw, s0, s1):
    j = draw(st.integers(1, 10))
    return s0 + (s1 - s0) * float(Fraction(draw(st.integers(1, 3 ** j - 1)), 3 ** j))


@st.composite
def problems(draw):
    """dx or mu_C; a Cantor support 1 to 1e-9 wide; 1 to 3 windows around
    it (one unless ``grouped``), each with 0 to 2 breakpoints (dx: and the
    support, alone or with another); 1 to 3 components per window, ``stacked``, or one
    integrand per window; one tol, or one per window."""
    mu, grouped, stacked = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    s0 = draw(st.sampled_from((-1.5, 0.2, 0.0)))
    width = draw(st.sampled_from((1e-9, 1e-6, 1e-3, 0.3, 1.0)))
    support = (s0, s0 + width)
    other = (s0 + 2.0 * width, s0 + 3.0 * width)
    windows = []
    for _ in range(draw(st.integers(1, 3)) if grouped else 1):
        points = tuple(sorted(_ternary(draw, *support) for _ in range(draw(st.integers(0, 2)))))
        lo = draw(st.sampled_from((s0 - 0.5 * width, s0, _ternary(draw, *support))))
        hi = draw(st.sampled_from((s0 + width, s0 + 2.5 * width, _ternary(draw, *support))))
        supports = () if mu else draw(st.sampled_from(((support,), (support, other))))
        windows.append((lo, hi, points, supports))
    n = draw(st.integers(1, 3)) * len(windows) if stacked else 1
    picks = draw(st.lists(st.sampled_from(sorted(_components(support))), min_size=n, max_size=n))
    tols = st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6, 1e-4))
    per_window = st.lists(tols, min_size=len(windows), max_size=len(windows))
    tol = draw(st.one_of(tols, per_window) if grouped else tols)
    return mu, support, windows, picks, stacked, tol


@settings(max_examples=80, deadline=None, derandomize=True)
@given(problems())
# two windows against dx: a kink accepted on the last pass beside Cantor cells
@example((False, (0.0, 1.0), [(0.0, 1.0, (0.25,), ((0.0, 1.0),)), (-0.5, 0.5, (), ((0.0, 1.0),))],
          ["kink", "cantor"], True, 1e-10))
# an undeclared jump still failing after the last pass
@example((False, (0.0, 1.0), [(0.0, 1.0, (), ((0.0, 1.0),))], ["step", "kink"], True, 1e-12))
# against mu_C, a support 1e-9 wide whose Cantor cells grow too narrow to split
@example((True, (0.2, 0.2 + 1e-9), [(0.2, 0.2 + 1e-9, (), ())], ["cantor"], False, 1e-12))
def test_driver_matches_the_per_cell_reference(problem):
    """Each component of ``integrate_interval`` and ``integrate_cantor``
    has the bits of the per-cell reference on its window; or, of the
    components that fail there, the first one's error is raised."""
    mu, support, windows, picks, stacked, tol = problem
    comps = _components(support)
    fs = [comps[name] for name in picks]
    grouped = len(windows) > 1 or np.ndim(tol) > 0
    tols = list(tol) if np.ndim(tol) else [tol] * len(windows)
    per = len(fs) // len(windows) if stacked else 1
    want = []
    for c in range(per * len(windows)):
        f, window, t = fs[c if stacked else 0], windows[c // per], tols[c // per]
        try:
            want.append(_mu_reference(f, support, window, t) if mu else _dx_reference(f, window, t))
        except QuadratureError as err:
            want.append(err)
    integrand = (lambda t: np.stack([f(t) for f in fs])) if stacked else fs[0]
    lo, hi, points, supports = zip(*windows) if grouped else windows[0]
    errors = [str(w) for w in want if isinstance(w, QuadratureError)]
    try:
        if mu:
            got = integrate_cantor(integrand, support, lo, hi, points, tol)
        else:
            got = integrate_interval(integrand, lo, hi, tol, points, supports)
    except QuadratureError as err:
        assert errors and str(err) == errors[0]
        return
    assert not errors
    assert [repr(v) for v in (got if stacked or grouped else (got,))] == [repr(v) for v in want]
