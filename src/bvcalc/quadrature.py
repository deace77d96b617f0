"""Composite adaptive quadrature aware of jump breakpoints and Cantor supports.

The integrand class served here is compositions of C^1 functions with
piecewise polynomials, Heaviside steps and (rescaled) Cantor functions.  Such
integrands are smooth on every cell of the mandatory decomposition:

* cells never straddle a declared breakpoint (jumps/kinks sit on cell edges,
  and Gauss nodes are interior, so one-sided values are never sampled);
* inside a declared Cantor support the tiling follows the ternary structure -
  on "gap" cells every Cantor summand is locally constant, and the 2^L
  level-L leftover cells are integrated by the midpoint rule.  The Cantor
  function is odd-symmetric about each leftover cell midpoint, so the
  midpoint rule there carries an O(6^-L) total error instead of the hopeless
  Hoelder-rate of naive sampling.

The layout is two (n, 2) float arrays, smooth cells and midpoint cells, each
in integration order.  Gap and leftover cells are affine images of the cached
:func:`~bvcalc.cantor.std_cells` arrays; only the few cells that hold a
breakpoint or a window edge take the Python path that refines the ternary
tree around it and splits at it.

Smooth cells are refined adaptively by the nested Gauss 3 / Kronrod 7 /
Patterson 15 rules (Kronrod 1965; Patterson 1968), whose nodes each hold the
previous rule's.  Each pass evaluates the integrand in blocks of cells on
``(cells, 7)`` rows of K7 nodes; a cell takes K7 if |K7 - G3| meets its share
of tol, else P15 from ``(cells, 8)`` rows of the other nodes if |P15 - K7|
does, else it is bisected.  Every sum runs over the cell's own nodes in an
explicit association (left to right over the 7 K7 nodes, pairwise over the
8 others: :func:`_node_sums`), so it has the same bits whatever else the
block holds.

An integrand may return a leading stack axis ``(k, ...)``.  Each of its k
components is then refined on its own, and the components may split into
groups with a layout each (one test function's window, say): a pass evaluates
the union of their live cells, then of those failing K7, once each, and each
component keeps the float operations of integrating it alone.
"""

from __future__ import annotations

import math

import numpy as np

from .cantor import std_cells, _apply
from .errors import DomainError, QuadratureError

# The nested rules on [-1, 1] by their nonnegative nodes: a node, then the G3,
# K7 and P15 weights there (0.0 off the rule).  Rows 0-3 are K7's nodes, 4-7
# P15's others; a cell's rows of each are summed to G3, K7 and P15 in parts.
_HALF = np.array([
    (0.0, 0.88888888888888889, 0.45091653865847414, 0.22551049979820669),
    (0.43424374934680256, 0.0, 0.40139741477596222, 0.20062852937698902),
    (0.77459666924148338, 0.55555555555555556, 0.26848808986833344, 0.13441525524378422),
    (0.96049126870802028, 0.0, 0.10465622602646727, 0.051603282997079740),
    (0.22338668642896688, 0.0, 0.0, 0.21915685840158750),
    (0.62110294673722640, 0.0, 0.0, 0.17151190913639138),
    (0.88845923287225700, 0.0, 0.0, 0.092927195315124538),
    (0.99383196321275502, 0.0, 0.0, 0.017001719629940260),
])
_MIRROR = np.array([-1.0, 1.0, 1.0, 1.0])  # a node's image at -x keeps its weights
_K7_TABLE = np.concatenate((_HALF[3:0:-1] * _MIRROR, _HALF[:4])).T
_K7, _K7_RULES = _K7_TABLE[0], _K7_TABLE[1:]  # nodes; G3, K7 and P15 weights
_P8_TABLE = np.concatenate((_HALF[:3:-1] * _MIRROR, _HALF[4:])).T
_P8, _P8_RULES = _P8_TABLE[0], _P8_TABLE[3:]  # nodes; P15 weights
_BLOCK = 512  # cells per integrand call: bounds the integrand's temporaries

_MAX_PASSES = 30
_MAX_CELLS = 200_000
_LEFTOVER_CAP = 13
_REFINE_DEPTH = 10
_ROOT_TOL = 1e-14  # bracket width at which the root search stops
_ROOT_PASSES = 200  # its safety cap: halving alone closes a unit bracket in 47


def _bisect(g, lo, hi, ghi):
    """A root of g in each bracket [lo_i, hi_i] on whose ends g changes
    sign; ``ghi`` is g at the hi ends and fixes each orientation.  Each
    result is an exact zero of g, or the midpoint of a bracket at most
    _ROOT_TOL wide, or one ulp wide from |x| = 64 up, across which g
    changes sign.  ``g(xs, idx)`` returns the pair (g, g') of the brackets
    ``idx`` at ``xs``; the search is Newton safeguarded by the bracket
    (rtsafe; Dekker 1969, Brent 1973), and finished brackets leave the
    live set.

    Each pass evaluates every live bracket at one point x and moves the
    bracket end on x's side to x.  A bracket then at most _ROOT_TOL wide, or
    one ulp, returns its midpoint, or x where g(x) == 0.  Otherwise, with
    d = g(x)/g'(x):
    - |d| < _ROOT_TOL/4, or x - d rounds to x: x has converged, and the
      next point is _ROOT_TOL/4 (at least one ulp) from x into the
      bracket, as far as the test lets the root be: it closes the bracket
      if the root lies between, and the midpoint returned lies _ROOT_TOL/8
      from x.  Not twice in a row: a closing step counts as a zero step,
      so a failed one is followed by a halving;
    - x - d strictly inside the bracket, and |d| at most half the previous
      step: the Newton point is next;
    - otherwise, a NaN or zero g' included: the midpoint.
    The convergence test comes first, since a converged x - d can round
    onto x, a bracket end, and near the root rounding keeps |d| from
    halving."""
    lo, hi, ghi = (np.array(v, dtype=float) for v in (lo, hi, ghi))
    out = np.empty(lo.shape)
    live = np.arange(lo.size)
    x = 0.5 * (lo + hi)
    step = hi - lo  # the last step's length
    for _ in range(_ROOT_PASSES):
        if not live.size:
            break
        gx, dg = g(x, live)
        up = (gx > 0) == (ghi > 0)  # x becomes the hi end
        lo, hi, ghi = np.where(up, lo, x), np.where(up, x, hi), np.where(up, gx, ghi)
        mid = 0.5 * (lo + hi)
        hit = gx == 0.0
        done = hit | (hi - lo <= _ROOT_TOL) | (mid == lo) | (mid == hi)
        if done.any():
            out[live[done]] = np.where(hit, x, mid)[done]
            keep = ~done
            live, lo, hi, ghi, x, gx, dg, up, mid, step = (
                v[keep] for v in (live, lo, hi, ghi, x, gx, dg, up, mid, step)
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            d = gx / dg
        nx = x - d
        close = ((np.abs(d) < 0.25 * _ROOT_TOL) | (nx == x)) & (step > 0.0)
        newton = ~close & (np.abs(d) <= 0.5 * step) & (lo < nx) & (nx < hi)
        probe = x + np.where(up, -0.25, 0.25) * _ROOT_TOL
        probe = np.where(probe == x, np.nextafter(x, np.where(up, lo, hi)), probe)
        x = np.where(close, probe, np.where(newton, nx, mid))
        step = np.where(close, 0.0, np.where(newton, np.abs(d), 0.5 * (hi - lo)))
    out[live] = 0.5 * (lo + hi)
    return out


def _leftover_level(tol):
    """Ternary depth for leftover cells: total midpoint-rule error ~ 6^-L."""
    L = math.ceil(math.log(max(4.0 / max(tol, 1e-300), 8.0)) / math.log(6.0))
    return max(8, min(_LEFTOVER_CAP, L))


def _same_support(s, t):
    """Whether (lo, hi) Cantor supports ``s`` and ``t`` are one: ends within 1e-14."""
    return abs(s[0] - t[0]) < 1e-14 and abs(s[1] - t[1]) < 1e-14


def _merge_supports(supports):
    """Validate/deduplicate (lo, hi) Cantor supports: identical or disjoint."""
    uniq = []
    for lo, hi in supports:
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            raise DomainError(f"empty Cantor support ({lo}, {hi})")
        dup = False
        for ulo, uhi in uniq:
            if _same_support((ulo, uhi), (lo, hi)):
                dup = True
                break
            if not (hi <= ulo + 1e-14 or lo >= uhi - 1e-14):
                raise DomainError(
                    "Cantor supports must be identical or disjoint: "
                    f"({lo},{hi}) vs ({ulo},{uhi})"
                )
        if not dup:
            uniq.append((lo, hi))
    return sorted(uniq)


def _holding(cells, cuts):
    """Mask of the (n, 2) ``cells`` that hold a cut strictly inside."""
    mask = np.zeros(len(cells), dtype=bool)
    for p in cuts:
        mask |= (cells[:, 0] < p) & (p < cells[:, 1])
    return mask


def _splice(cells, rows, parts):
    """``cells`` with each row of the ascending ``rows`` replaced by the
    (k, 2) array of the same place in ``parts``."""
    pieces, start = [], 0
    for row, part in zip(rows, parts):
        pieces += [cells[start:row], part]
        start = row + 1
    pieces.append(cells[start:])
    return np.concatenate(pieces)


def _split(cells, cuts):
    """``cells`` with each cell that holds cuts replaced by its pieces
    between them."""
    rows = np.flatnonzero(_holding(cells, cuts))
    parts = []
    for a, b in cells[rows]:
        edges = [a, *[p for p in cuts if a < p < b], b]
        parts.append(np.column_stack((edges[:-1], edges[1:])))
    return _splice(cells, rows, parts)


def _clip(cells, lo, hi):
    return np.column_stack((np.maximum(cells[:, 0], lo), np.minimum(cells[:, 1], hi)))


def _tile(lo, hi, level, cuts, gen=0):
    """Tile a Cantor support [lo, hi] by gap cells (smooth) and leftover
    cells (midpoint rule), as two (n, 2) arrays.

    The leftover cells come last to first, the order a stack pops them.  One
    that holds a cut (e.g. a jump at a point of the Cantor set) is tiled
    again ``_REFINE_DEPTH`` levels deeper: its smooth cells follow the gap
    cells and its leftover cells take its place.  After two such levels a
    holding cell is left to the smooth cells whole, for the caller to split
    at the cuts (slivers of length <= 3^-(level + 2 * _REFINE_DEPTH))."""
    g_lo, g_hi, c_lo, c_hi = std_cells(level)
    width = hi - lo
    smooth = [np.column_stack((lo + width * g_lo, lo + width * g_hi))]
    cells = np.column_stack((lo + width * c_lo[::-1], lo + width * c_hi[::-1]))
    rows = np.flatnonzero(_holding(cells, cuts))
    parts = []
    for cell in cells[rows]:
        if gen >= 2:
            s_cells, m_cells = cell[None], cells[:0]
        else:
            s_cells, m_cells = _tile(cell[0], cell[1], _REFINE_DEPTH, cuts, gen + 1)
        smooth.append(s_cells)
        parts.append(m_cells)
    return np.concatenate(smooth), _splice(cells, rows, parts)


def build_cells(lo, hi, breakpoints=(), cantor_supports=(), tol=1e-9):
    """Mandatory decomposition of [lo, hi]: an (n, 2) array of smooth cells
    and an (m, 2) array of midpoint-rule cells (inside Cantor supports),
    each row ``(a, b)`` and both in integration order.

    Supports are tiled on their *original* extent (ternary alignment is what
    makes the midpoint rule accurate); a window edge cutting into a support is
    treated like a breakpoint, and cells are clipped to the window at the end.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return np.empty((0, 2)), np.empty((0, 2))
    bps = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    supports = [
        s for s in _merge_supports(cantor_supports)
        if s[1] > lo + 1e-15 and s[0] < hi - 1e-15
    ]
    level = _leftover_level(tol)
    # plain segments of the window not covered by any support
    edges = [lo]
    for slo, shi in supports:
        edges.append(min(max(slo, lo), hi))
        edges.append(max(min(shi, hi), lo))
    edges.append(hi)
    plain = np.column_stack((edges[::2], edges[1::2]))
    smooth = [_split(plain[plain[:, 1] - plain[:, 0] > 1e-15], bps)]
    mids = [np.empty((0, 2))]
    for slo, shi in supports:
        cuts = [p for p in bps if slo < p < shi]
        cuts.extend(e for e in (lo, hi) if slo < e < shi)
        cuts = sorted(set(cuts))
        s_cells, m_cells = _tile(slo, shi, level, cuts)
        s_cells = _clip(_split(s_cells, cuts), lo, hi)
        smooth.append(s_cells[s_cells[:, 1] - s_cells[:, 0] > 1e-16])
        a, b = m_cells[:, 0], m_cells[:, 1]
        live = (b > a) & (b > lo + 1e-15) & (a < hi - 1e-15)
        inside = (a >= lo - 1e-12) & (b <= hi + 1e-12)
        mids.append(m_cells[live & inside])
        # safety: an unexpected straddler is integrated on its clipped part
        smooth.append(_clip(m_cells[live & ~inside], lo, hi))
    return np.concatenate(smooth), np.concatenate(mids)


def _node_sums(block, rules, out):
    """Into ``out`` (r, ...), the sums over the last axis of ``block``
    (..., m) times each weight row of ``rules`` (r, m), m = 7 or 8, in
    numpy's own association for a C-ordered row: 7 left to right, 8 as
    ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), and an all -0.0 row
    to +0.0.  Node column by node column, in place, with at most three
    temporaries of ``out``'s shape: every operation is elementwise, so the
    bits depend on neither the block's shape nor its memory order."""
    w = rules.T.reshape(rules.shape[::-1] + (1,) * (block.ndim - 1))
    tmp = np.empty_like(out)
    if len(w) == 8:
        def pair(j, into):
            np.multiply(block[..., j], w[j], out=into)
            np.multiply(block[..., j + 1], w[j + 1], out=tmp)
            into += tmp
            return into

        acc = pair(0, out)
        acc += pair(2, np.empty_like(out))
        right = pair(4, np.empty_like(out))
        right += pair(6, np.empty_like(out))
        acc += right
    else:
        np.multiply(block[..., 0], w[0], out=out)
        for j in range(1, len(w)):
            np.multiply(block[..., j], w[j], out=tmp)
            out += tmp
    out += 0.0


def _panel(f, lo, hi, nodes, rules):
    """The sums of ``f`` on each cell [lo_i, hi_i] at its ``nodes`` (on
    [-1, 1]) under each weight row of ``rules``, before the half-width
    factor: an (r, n) array, or (r, k, n) for a stacked integrand, from one
    call per block of cells.  Each sum runs over its row's own nodes in the
    fixed association of :func:`_node_sums`, whatever else the block
    holds."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = None
    for s in range(0, lo.size, _BLOCK):
        xs = mid[s:s + _BLOCK, None] + half[s:s + _BLOCK, None] * nodes
        block = _apply(f, xs, stacked=True)
        if sums is None:
            sums = np.empty((len(rules),) + block.shape[:-2] + (lo.size,))
        _node_sums(block, rules, sums[..., s:s + _BLOCK])
    return sums


def _union(sets):
    """The cells of the ``(lo, hi)`` cell sets, once each, and per set its
    rows in them (None: every row, in order; empty sets have no rows).  A
    set that several components share is keyed once; a cell's key is its
    (lo, hi) pair read as one complex number."""
    distinct = list({id(c): c for c in sets if c[0].size}.values())
    if len(distinct) <= 1:
        return (distinct[0] if distinct else (np.empty(0), np.empty(0))), [None] * len(sets)
    keys = [np.column_stack(c).view(complex).ravel() for c in distinct]
    cells, inv = np.unique(np.concatenate(keys), return_inverse=True)
    rows = np.split(inv.reshape(-1), np.cumsum([c[0].size for c in distinct])[:-1])
    rows = dict(zip(map(id, distinct), rows))
    return (cells.real, cells.imag), [rows.get(id(c)) for c in sets]


def _spread(groups, k):
    """Per component of k, the entry of its group: the components split
    into ``len(groups)`` equal consecutive groups."""
    if k % len(groups):
        raise DomainError(f"{k} components do not split into {len(groups)} layouts")
    return [groups[c * len(groups) // k] for c in range(k)]


def _midpoint_rule(f, mids):
    """Per component, the midpoint rule over its group's ``(lo, hi)`` cells
    in ``mids`` (their union evaluated once), and whether ``f`` is
    stacked."""
    (ulo, uhi), rows = _union(mids)
    vals = _apply(f, 0.5 * (ulo + uhi), stacked=True)
    stacked = vals.ndim > 1
    vals = vals if stacked else [vals] * len(mids)
    mids, rows = _spread(mids, len(vals)), _spread(rows, len(vals))
    # 0.0 + keeps an all -0.0 sum from coming back as -0.0
    return [
        0.0 + float(np.sum((v if r is None else v[r]) * (hi - lo))) if lo.size else 0.0
        for v, r, (lo, hi) in zip(vals, rows, mids)
    ], stacked


def integrate_cells(f, smooth, mids, tol):
    """Adaptive G3/K7/P15 over the smooth cells plus midpoint rule on
    ``mids``, both (n, 2) arrays of cells as :func:`build_cells` returns
    them.  A cell passes with K7 when |K7 - G3| meets its width's share of
    tol/2, else with P15 when |P15 - K7| does, else it is bisected; on the
    last pass the rest pass if their |P15 - K7| sum to at most the other tol/2.

    For a stacked integrand (values ``(k, ...)``) a k-tuple is returned.
    ``smooth`` and ``mids`` may also be sequences of g layouts, and ``tol``
    a sequence of g tolerances; the k components then split into g equal
    consecutive groups, group j on layout j to tolerance j.  An unstacked
    integrand is then one component per layout, each reading its layout's
    rows of the one value array, and a g-tuple is returned.  Each component
    keeps its own cells, budget, passing cells, refinement and error, so its
    float operations are those of integrating it alone; each pass evaluates
    the integrand once on the union of the components' live cells and once
    on the union of those that fail K7, and the midpoint cells' union is
    evaluated once.
    Of the components that fail, the first one's error is raised."""
    grouped = not isinstance(smooth, np.ndarray)
    if not grouped:
        smooth, mids = [smooth], [mids]
    tols = list(tol) if np.ndim(tol) else [tol] * len(smooth)
    if len(tols) != len(smooth):
        raise DomainError(f"{len(tols)} tolerances for {len(smooth)} layouts")
    # per group until an evaluation shows how many components there are,
    # then per component: live smooth cells, error, integral so far
    live = [(c[:, 0], c[:, 1]) for c in smooth]
    errors, totals = [None] * len(live), None
    total_len = [max(float(np.sum(hi - lo)), 1e-300) for lo, hi in live]
    if any(map(len, mids)) or not any(map(len, smooth)):
        totals, stacked = _midpoint_rule(f, [(c[:, 0], c[:, 1]) for c in mids])
        live, errors, total_len, tols = (
            _spread(v, len(totals)) for v in (live, errors, total_len, tols)
        )
    for npass in range(1, _MAX_PASSES + 1):
        for c, (lo, hi) in enumerate(live):
            if lo.size > _MAX_CELLS:
                errors[c], live[c] = QuadratureError("quadrature cell budget exceeded"), (lo[:0], hi[:0])
        if not any(lo.size for lo, _ in live):
            break
        (ulo, uhi), rows = _union(live)
        sums = _panel(f, ulo, uhi, _K7, _K7_RULES)
        if totals is None:
            stacked = sums.ndim > 2
            k = sums.shape[1] if stacked else len(live)
            live, errors, total_len, tols, rows = (
                _spread(v, k) for v in (live, errors, total_len, tols, rows)
            )
            totals = [0.0] * k
        if not stacked:  # one row of sums, which every layout's component reads
            sums = np.broadcast_to(sums[:, None], (len(sums), len(totals), ulo.size))
        # K7 against G3, and the union rows that fail in some component
        steps, need = [], np.zeros(ulo.size, dtype=bool)
        for c, ((lo, hi), r) in enumerate(zip(live, rows)):
            r = np.arange(lo.size) if r is None else r
            half = 0.5 * (hi - lo)
            val = sums[1, c, r] * half
            err = np.abs(val - sums[0, c, r] * half)
            budget = 0.5 * tols[c] * (hi - lo) / total_len[c]
            ok = err <= np.maximum(budget, 1e-17 * np.abs(val))
            need[r[~ok]] = True
            steps.append((r, half, val, err, budget, ok))
        # P15 on those rows, from their 8 other nodes; a boolean mask, as
        # np.unique would import numpy.ma
        if need.any():
            more = _panel(f, ulo[need], uhi[need], _P8, _P8_RULES)[0]
            more = more if stacked else np.broadcast_to(more, (len(totals), more.size))
            at = np.cumsum(need) - 1
        for c, (r, half, val, err, budget, ok) in enumerate(steps):
            bad = np.flatnonzero(~ok)
            if bad.size:
                p15 = (sums[2, c, r[bad]] + more[c, at[r[bad]]]) * half[bad]
                err[bad] = np.abs(p15 - val[bad])
                ok[bad] = err[bad] <= np.maximum(budget[bad], 1e-17 * np.abs(p15))
                val[bad] = p15
            if npass == _MAX_PASSES and np.sum(err[~ok]) <= 0.5 * tols[c]:
                ok[:] = True
            totals[c] += float(np.sum(val[ok]))
            lo, hi = live[c]
            lo, hi = lo[~ok], hi[~ok]
            if lo.size and npass < _MAX_PASSES:
                mid = 0.5 * (lo + hi)
                lo = np.concatenate((lo, mid))
                hi = np.concatenate((mid, hi))
                order = np.argsort(lo)
                lo, hi = lo[order], hi[order]
            live[c] = (lo, hi)
    for c, (lo, _) in enumerate(live):
        if lo.size and errors[c] is None:
            errors[c] = QuadratureError(
                f"tolerance {tols[c]:g} unreachable: {lo.size} cells still failing "
                f"after {_MAX_PASSES} refinement passes"
            )
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    return tuple(totals) if stacked or grouped else totals[0]


def integrate_interval(f, lo, hi, tol=1e-9, breakpoints=(), cantor_supports=()):
    """Integral of ``f`` over [lo, hi] to absolute tolerance ``tol``.

    ``breakpoints`` must list every point where the integrand may jump or
    kink; ``cantor_supports`` every (lo, hi) support of a Cantor-function
    summand appearing anywhere inside ``f``.

    ``f`` is called on float arrays of any shape.  A stacked integrand,
    whose values carry a leading axis of k components, gives a k-tuple:
    each component is refined on its own (see :func:`integrate_cells`).
    ``lo`` and ``hi`` may also be sequences of g windows, with
    ``breakpoints`` and ``cantor_supports`` one sequence per window and
    ``tol`` one tolerance or one per window: window j's layout serves the
    j-th of g equal consecutive groups of components (an unstacked ``f`` is
    one component per window, and gives a g-tuple), and every pass
    evaluates the integrand once for all of them.
    """
    if np.ndim(lo):
        tol = tol if np.ndim(tol) else [tol] * len(lo)
        smooth, mids = zip(*(
            build_cells(*window) for window in zip(lo, hi, breakpoints, cantor_supports, tol)
        ))
    else:
        smooth, mids = build_cells(lo, hi, breakpoints, cantor_supports, tol)
    return integrate_cells(f, smooth, mids, tol)
