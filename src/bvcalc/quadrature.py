"""Composite adaptive quadrature aware of jump breakpoints and Cantor supports.

The integrand class served here is compositions of C^1 functions with
piecewise polynomials, Heaviside steps and (rescaled) Cantor functions.  Such
integrands are smooth on every cell of the mandatory decomposition:

* cells never straddle a declared breakpoint (jumps/kinks sit on cell edges,
  and Gauss nodes are interior, so one-sided values are never sampled);
* inside a declared Cantor support the tiling follows the ternary structure -
  on "gap" cells every Cantor summand is locally constant, and the leftover
  cells, which hold the Cantor set, are integrated by rules fitted to the
  moments of (x, C(x)) under dx (a generalized Gaussian quadrature: Ma,
  Rokhlin and Wandzura 1996), which are exact rationals by self-similarity
  (Strichartz 2000).  Summed over the 2^L leftover cells of level L, the
  13-node rule's error falls like about 81^-L, against the Hoelder rate of
  naive sampling.

The layout is two (n, 2) float arrays, smooth cells and leftover cells.  A
support is tiled at a coarse start level by affine images of the cached
:func:`~bvcalc.cantor.std_cells` arrays; only the few cells that hold a
breakpoint or a window edge descend the ternary tree around it, one level at
a time, down to a sliver that is split at it.

Smooth cells are refined adaptively by the nested Gauss 3 / Kronrod 7 /
Patterson 15 rules (Kronrod 1965; Patterson 1968), whose nodes each hold the
previous rule's.  Each pass evaluates the integrand at the 7 K7 nodes of
every live smooth cell; a cell takes K7 if |K7 - G3| meets its share of
tol, else P15 from its 8 other nodes if |P15 - K7| does, else it is
bisected.  Leftover cells are refined the same way, by a nested pair of
fitted rules on shared nodes: a cell takes the 13-node rule B if |B - A|
against the 8-node rule A meets its share, else it splits into its two
Cantor children, leftover cells, and its middle gap, a smooth cell.  Every
sum runs over the cell's own nodes in an explicit association (left to
right over the 7 K7 and the 13 or 20 fitted nodes, pairwise over the 8
others: :func:`_node_sums`), so it has the same bits whatever else the
integrand call holds.

Integrals against the Cantor measure mu_C of a support run through the same
driver (:func:`integrate_cantor`): the same tiling, with its gaps dropped, as
they carry no mass; a Cantor cell takes the 20-node rule D fitted to the
graph moments of (x, C(x)) under mu_C if |D - E| against the nested 12-node
rule E meets its mass's share of tol, else it splits into its two children.

An integrand may return a leading stack axis ``(k, ...)``.  Each of its k
components is then refined on its own, and the components may split into
groups with a layout each (one test function's window, say).  The live cells
of all components sit in a few flat arrays, each cell tagged with its
component, and a pass decides every cell with one set of array operations.
Each accepted value is kept with its component and its cell's left end, and
each total is one sum of its component's values by left end, formed after
the last pass: a result depends only on the cells accepted, which are those
of integrating the component alone.  The integrand is called on flat arrays
of nodes, each distinct cell once per call whichever components hold it, by
one rule per pass: one call on the K7 nodes of the live smooth cells and the
nodes of the live Cantor cells, whose failing ones give their gaps to the
next pass's smooth cells and their children to its Cantor cells, then one on
the 8 other nodes of the smooth cells that fail K7.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cantor import cantor_function_eval, std_cells, _apply
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

# The fitted rules on a leftover cell mapped to [0, 1], by their nodes'
# distance y from the centre: nodes 1/2 ± y, each in a gap of the cell's
# ternary levels 1-4 (C reads the dyadic 1/2 ± z there: z = 0, 0, 1/8,
# 1/4, 1/4, 3/8, 7/16 down the rows), then each node's weight in rule B and
# in rule A (0: not a node of A).  Rule B matches the centred moments 1,
# s², sC, C², C⁴, sC³ and s²C² of (s, C(s)) under ds, A the first four;
# odd moments vanish by the symmetry s -> 1 - s, C -> 1 - C.
_FITTED = (
    (Fraction(0), Fraction(265816140347, 3294503751420), 0),
    (Fraction(1, 9), Fraction(6305907198541, 46123052519880), Fraction(193969, 1164520)),
    (Fraction(19, 81), Fraction(7540096061, 101682214550), 0),
    (Fraction(8, 27), Fraction(34496358091, 348624735600), Fraction(62737, 332720)),
    (Fraction(10, 27), Fraction(182920963991, 2440373149200), Fraction(7493, 66544)),
    (Fraction(37, 81), Fraction(2723335693, 101682214550), 0),
    (Fraction(118, 243), Fraction(17116813584, 355887750925), Fraction(4698, 145565)),
)
# The fitted rules for mu_C on a Cantor cell mapped to [0, 1], as above:
# nodes 1/2 ± y, each at least 1/486 inside a gap of the cell's ternary
# levels 1-5 (C reads the dyadic 1/2 ± z there: z = 0, 0, 1/8, 1/4, 1/4,
# 5/16, 5/16, 7/16, 7/16, 15/32 down the rows), and each node's weight in
# rule D and in rule E.  Rule D matches the centred moments 1, C², sC, s²,
# C⁴, sC³, s²C², s³C, C⁶ and s⁴ of (s, C(s)) under mu_C, E the first six;
# as D sees s⁴ and E does not, |D - E| sees the error of a cell on which f
# varies in x alone, a narrow kernel say.  The floats of each rule's weights
# sum to exactly 1 left to right, so a constant integrates to its value.
_MU_FITTED = tuple(tuple(map(Fraction, row.split())) for row in """
    65/486 5839830484277071479501245716673/212273344791027936869002959528000 0
    239/1458 77070402525940141972917584329/3369418171286157728079412056000 26726577943/785680711620
    160/729 64303718106488574859089744661/442236134981308201810422832350 12720117977/84180076245
    419/1458 1589229656985662009731854031711/38621955788367582958110260691900 3362428083691/48521395947618
    275/729 169404745618165691838347954537/4317982634724326045006116102200 45285090781669/485213959476180
    295/729 2669300127084729658756130705561/33167710123598115135781712426250 0
    298/729 21702383199490202425107660037/947648860674231861022334640750 0
    233/486 32981259258030394293858318211/589648179975077602413897109800 202829774222/2160621956955
    707/1458 601385447304093675148326761/28078484760717981067328433800 54052490506/925980838695
    40/81 714715119050757852418492739072/16583855061799057567890856213125 0
""".strip().splitlines())


def _on_unit_cells(fitted, scale):
    """A fitted pair as ascending nodes on [-1, 1] (the centre once) and its
    two weight rows there, times ``scale``."""
    table = sorted({(sign * 2 * y, scale * b, scale * a) for y, b, a in fitted for sign in (-1, 1)})
    nodes = np.array([float(x) for x, _, _ in table])
    return nodes, np.array([[float(w[k]) for w in table] for k in (1, 2)])


# rules B and A on 13 nodes, to be scaled by a cell's half-width; rules D
# and E on 20, by its mu_C mass; and the one node of a piece
_FIT, _FIT_RULES = _on_unit_cells(_FITTED, 2)
_MU, _MU_RULES = _on_unit_cells(_MU_FITTED, 1)
_CENTRE, _ONE = np.zeros(1), np.ones((1, 1))
_START_LEVEL = 4  # the ternary level at which a Cantor support is first tiled
_SLIVER_LEVEL = 32  # a cut path ends in a cell 3^-32 of its support wide

_MAX_PASSES = 30
_MAX_CELLS = 200_000
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


def _thirds(lo, hi):
    """The ends a, b of the middle thirds [a, b] of the cells [lo_i, hi_i]:
    a Cantor cell's children are [lo, a] and [b, hi]."""
    third = (hi - lo) / 3.0
    return lo + third, hi - third


def _roomy(lo, hi):
    """Whether the fitted rules' nodes fit in the cells [lo_i, hi_i]: the
    narrowest margin between a node and the edge of its gap, 1/486 of the
    width, must exceed 2^-46 of the cell's magnitude (at least 64 ulps),
    more than placing a node and mapping it to its support round by, so
    that C reads its gap's dyadic at every node.  Only a support reaching
    far past 0 from a cell near 0 rounds by more; a node may then read a
    neighbouring gap's C, off by less than C's rise across the cell,
    2^-level."""
    return (hi - lo) / 486.0 > 2.0 ** -46 * np.maximum(np.abs(lo), np.abs(hi))


def _tile(lo, hi, cuts):
    """Tile a Cantor support [lo, hi] as read-only arrays: its gaps; its
    Cantor cells roomy enough for the fitted rules' nodes (:func:`_roomy`),
    ascending, and each one's ternary level; and the rest, with each one's
    level and the exact C of the support at its left end.  The dx and the
    mu_C layout of a window share one tiling, kept for the next call.

    The support is tiled at ``_START_LEVEL``.  A Cantor cell that holds one
    of the ``cuts`` (a tuple) gives way to its middle gap and its two
    children one level deeper, and so on down the cut path; at
    ``_SLIVER_LEVEL`` a holding cell is left whole among the rest, for the
    caller to split at the cuts, as is a Cantor cell too narrow for the
    nodes."""
    g_lo, g_hi, c_lo, c_hi = std_cells(_START_LEVEL)
    width = hi - lo
    gaps = [np.column_stack((lo + width * g_lo, lo + width * g_hi))]
    cells = np.column_stack((lo + width * c_lo, lo + width * c_hi))
    base = np.arange(len(cells)) * 0.5 ** _START_LEVEL  # C at each cell's left end
    left, levels, bases = [], [], []
    for level in range(_START_LEVEL, _SLIVER_LEVEL + 1):
        held = _holding(cells, cuts)
        left.append(cells[~held])
        levels.append(np.full(len(left[-1]), level))
        bases.append(base[~held])
        cells, base = cells[held], base[held]
        if not cells.size or level == _SLIVER_LEVEL:
            break
        a, b = _thirds(cells[:, 0], cells[:, 1])
        gaps.append(np.column_stack((a, b)))
        cells = np.concatenate(
            (np.column_stack((cells[:, 0], a)), np.column_stack((b, cells[:, 1])))
        )
        base = np.concatenate((base, base + 0.5 ** (level + 1)))
    left, levels, bases = (np.concatenate(v) for v in (left, levels, bases))
    roomy = _roomy(left[:, 0], left[:, 1])
    order = np.argsort(left[roomy, 0], kind="stable")
    out = (
        np.concatenate(gaps), left[roomy][order], levels[roomy][order],
        np.concatenate((cells, left[~roomy])),
        np.concatenate((np.full(len(cells), level), levels[~roomy])),
        np.concatenate((base, bases[~roomy])),
    )
    for a in out:
        a.setflags(write=False)
    return out


_tile = lru_cache(maxsize=64)(_tile)


def build_cells(lo, hi, breakpoints=(), cantor_supports=(), tol=1e-9):
    """Mandatory decomposition of [lo, hi]: an (n, 2) array of smooth cells
    and an (m, 2) array of leftover cells (inside Cantor supports, for the
    fitted rules), each row ``(a, b)`` and both in integration order.

    Supports are tiled on their *original* extent (ternary alignment is what
    puts the fitted rules' nodes in gaps); a window edge cutting into a
    support is treated like a breakpoint, and cells are clipped to the window
    at the end.  The layout does not depend on ``tol``: the refinement in
    :func:`integrate_cells` does.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return np.empty((0, 2)), np.empty((0, 2))
    bps = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    supports = [
        s for s in _merge_supports(cantor_supports)
        if s[1] > lo + 1e-15 and s[0] < hi - 1e-15
    ]
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
        gaps, m_cells, _, rest, _, _ = _tile(slo, shi, tuple(cuts))
        s_cells = np.concatenate((gaps, rest))
        s_cells = s_cells[np.argsort(s_cells[:, 0], kind="stable")]
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
    (..., m) times each weight row of ``rules`` (r, m): m = 7 or 8 in
    numpy's own association for a C-ordered row, 7 left to right and 8 as
    ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), the 13 fitted nodes
    left to right, and an all -0.0 row to +0.0.  Node column by node
    column, in place, with at most three temporaries of ``out``'s shape:
    every operation is elementwise, so the bits depend on neither the
    block's shape nor its memory order."""
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


def _evaluate(f, parts):
    """The sums of ``f`` on each part ``(lo, hi, nodes, rules)``, the cells
    [lo_i, hi_i] at their ``nodes`` (on [-1, 1]) under each weight row of
    ``rules``, before the half-width factor: per part an (r, n) array, or
    (r, k, n) for a stacked integrand.  The parts' cells go in one flat
    array of nodes per call, at most _BLOCK cells of all parts together,
    and one call on no point if there is no cell.  Each sum runs over its
    row's own nodes in the fixed association of :func:`_node_sums`,
    whatever else the call holds."""
    sizes = [lo.size for lo, _, _, _ in parts]
    out = [None] * len(parts)
    for s in range(0, max(sum(sizes), 1), _BLOCK):
        held, points, start = [], [], 0
        for p, (lo, hi, nodes, _) in enumerate(parts):
            a, b = max(s - start, 0), min(s + _BLOCK - start, sizes[p])
            start += sizes[p]
            if a < b:
                mid, half = 0.5 * (lo[a:b] + hi[a:b]), 0.5 * (hi[a:b] - lo[a:b])
                points.append((mid[:, None] + half[:, None] * nodes).ravel())
                held.append((p, a, b))
        xs = points[0] if len(points) == 1 else np.concatenate(points or [np.empty(0)])
        vals = _apply(f, xs, stacked=True)
        at = 0
        for p, a, b in held:
            nodes, rules = parts[p][2:]
            if out[p] is None:
                out[p] = np.empty((len(rules),) + vals.shape[:-1] + (sizes[p],))
            n = (b - a) * nodes.size
            block = vals[..., at:at + n].reshape(vals.shape[:-1] + (b - a, nodes.size))
            _node_sums(block, rules, out[p][..., a:b])
            at += n
    for p, (_, _, _, rules) in enumerate(parts):
        if out[p] is None:
            out[p] = np.empty((len(rules),) + vals.shape[:-1] + (0,))
    return out


def _distinct(lo, hi, tag):
    """The distinct cells among [lo_i, hi_i], and each one's row among
    them; every row its own if all share one ``tag``, as one component's
    cells are disjoint.  A sort and a look at the neighbours: np.unique would
    import numpy.ma."""
    if not lo.size or tag[0] == tag[-1]:
        return lo, hi, np.arange(lo.size)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new = np.ones(lo.size, dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    rows = np.empty(lo.size, dtype=np.intp)
    rows[order] = np.cumsum(new) - 1
    return lo[new], hi[new], rows


def _runs(tag, k):
    """The bounds of the runs of the ascending ``tag`` of each of k
    components, as a list."""
    return [0, tag.size] if k == 1 else np.searchsorted(tag, np.arange(k + 1)).tolist()


def _copies(tag, group):
    """The rows of every component's copy of its group's rows, with their
    tags: component c copies group ``group[c]`` of the ascending ``tag``."""
    bounds = _runs(tag, int(group[-1]) + 1)
    copies = [np.arange(bounds[j], bounds[j + 1]) for j in group]
    return np.concatenate(copies), np.repeat(np.arange(group.size), [c.size for c in copies])


def _check_tol(tol):
    """Raise DomainError unless ``tol``, one tolerance or a sequence, is
    finite and positive."""
    for t in (tol if np.ndim(tol) else [tol]):
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"tolerance {t!r} is not finite and positive")


class _Cells:
    """Cells [lo_i, hi_i] of every component in one set of arrays, each
    tagged with its component, in runs by component: against mu_C with
    each one's ``mass``, and once evaluated with its rule ``sums``, an (r, n)
    array."""

    __slots__ = ("lo", "hi", "tag", "mass", "sums")

    def __init__(self, lo, hi, tag, mass=None):
        self.lo, self.hi, self.tag, self.mass, self.sums = lo, hi, tag, mass, None

    def keep(self, rows):
        """Keep only the rows ``rows``, in their order."""
        self.lo, self.hi, self.tag = self.lo[rows], self.hi[rows], self.tag[rows]
        if self.mass is not None:
            self.mass = self.mass[rows]
        if self.sums is not None:
            self.sums = self.sums[:, rows]
        return self


def _flat(cells, masses=None):
    """The (n_j, 2) ``cells`` of each group j as one :class:`_Cells`, with
    the per-cell ``masses`` of each group, if given."""
    if len(cells) == 1:
        flat, tag = cells[0], np.zeros(len(cells[0]), dtype=np.intp)
    else:
        flat = np.concatenate(cells)
        tag = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    return _Cells(flat[:, 0], flat[:, 1], tag, None if masses is None else np.concatenate(masses))


def integrate_cells(f, smooth, mids, tol):
    """Adaptive G3/K7/P15 over the smooth cells and fitted rules on the
    leftover cells ``mids``, both (n, 2) arrays of cells as
    :func:`build_cells` returns them.  Every cell's budget is its width's
    share of tol/2.  A smooth cell passes with K7 when |K7 - G3| meets its
    budget, else with P15 when |P15 - K7| does, else it is bisected; on the
    last pass the rest pass if their |P15 - K7| sum to at most the other
    tol/2.  A leftover cell passes with rule B when |B - A| meets its
    budget, else it splits into its two children, leftover cells one
    ternary level deeper, and its middle gap, which joins the next pass's
    smooth cells; a cell whose children would be too narrow for the
    rules' nodes raises.  Both estimates are heuristic: an integrand that
    varies on a scale finer than a cell's nodes can read as converged.

    For a stacked integrand (values ``(k, ...)``) a k-tuple is returned.
    ``smooth`` and ``mids`` may also be sequences of g layouts, and ``tol``
    a sequence of g tolerances; the k components then split into g equal
    consecutive groups, group j on layout j to tolerance j.  An unstacked
    integrand is then one component per layout, each reading its layout's
    rows of the one value array, and a g-tuple is returned.  Each component
    keeps its own cells, budget, passing cells, refinement and error, so its
    float operations are those of integrating it alone, though all of them
    are refined together, in one set of arrays.  A pass calls the integrand
    at most twice per _BLOCK cells, on flat arrays of nodes, each cell once
    whichever components hold it: once at the K7 nodes of the live smooth
    cells and at the nodes of the live leftover cells, whose failing ones
    give their gaps to the next pass's smooth cells, and once at the 8
    other nodes of the smooth cells that fail K7.  Each total is one sum of
    its component's accepted values by left end (see :func:`_refine`).
    Of the components that fail, the first one's error is raised."""
    grouped = not isinstance(smooth, np.ndarray)
    if not grouped:
        smooth, mids = [smooth], [mids]
    tols = list(tol) if np.ndim(tol) else [tol] * len(smooth)
    if len(tols) != len(smooth):
        raise DomainError(f"{len(tols)} tolerances for {len(smooth)} layouts")
    _check_tol(tols)
    lengths = [
        float(np.sum(s[:, 1] - s[:, 0])) + float(np.sum(m[:, 1] - m[:, 0]))
        for s, m in zip(smooth, mids)
    ]
    return _refine(f, _flat(smooth), _flat(mids), None, tols, lengths, grouped)


def _refine(f, smooth, left, pieces, tols, lengths, grouped):
    """The passes of :func:`integrate_cells` and :func:`integrate_cantor`.

    ``smooth`` and ``left`` are the smooth and Cantor cells of every group
    of components, tagged with their group, and ``pieces`` (mu_C: one node
    each, at its mass) or None; ``tols`` and ``lengths`` give each group's
    tol and measure.  Against dx the Cantor cells are leftover cells, for
    rules B and A times their half-width, and a failing one's middle gap
    joins the next pass's smooth cells; against mu_C (``left.mass`` given)
    they take rules D and E times their mass, and a failing one's gap is
    dropped.  The first integrand call shows how many components there
    are, and each component then takes a copy of its group's cells.

    Each pass makes one integrand call on the K7 nodes of the live smooth
    cells and the rule nodes of the live Cantor cells (the first also on
    the pieces), decides the Cantor cells, then the smooth cells, with the
    one call of :func:`_take_smooth`.  Every accepted value is kept with its
    component and its cell's left end; after the last pass each total is
    one np.sum of its component's values by left end, so it depends only
    on the cells accepted.  The results as those functions return them."""
    mu = left.mass is not None
    rules = (_MU, _MU_RULES) if mu else (_FIT, _FIT_RULES)
    tol, length = np.array(tols, dtype=float), np.maximum(np.array(lengths), 1e-300)
    comps, stacked = len(tols), None
    errors = [None] * comps
    # the accepted values, each with its component and its cell's left end
    accepted = [(np.empty(0), np.empty(0, dtype=np.intp), np.empty(0))]

    def call(parts):
        """Evaluate the parts ``(cells, nodes, rules)`` in one go, each on
        its distinct cells, and set each part's rule sums.  The first call
        also takes the pieces, and gives each component a copy of its
        group's cells."""
        nonlocal comps, stacked, tol, length, errors, pieces
        parts = parts + ([(pieces, _CENTRE, _ONE)] if pieces else [])
        distinct = [_distinct(c.lo, c.hi, c.tag) for c, _, _ in parts]
        sums = _evaluate(f, [(lo, hi, *rule) for (lo, hi, _), (_, *rule) in zip(distinct, parts)])
        rows = [r for _, _, r in distinct]
        if stacked is None:
            stacked = sums[0].ndim > 2
            k = sums[0].shape[1] if stacked else comps
            if k % comps:
                raise DomainError(f"{k} components do not split into {comps} layouts")
            if k > comps:
                group = np.arange(k) * comps // k
                tol, length, errors = tol[group], length[group], [errors[j] for j in group]
                for p, (cells, _, _) in enumerate(parts):
                    taken, tag = _copies(cells.tag, group)
                    rows[p] = rows[p][taken]
                    cells.keep(taken).tag = tag
                comps = k
        for (cells, _, _), s, r in zip(parts, sums, rows):
            cells.sums = s[:, cells.tag, r] if stacked else s[:, r]
        if pieces:  # each piece: its mass times f at its midpoint
            accepted.append((pieces.sums[0] * pieces.mass, pieces.tag, pieces.lo))
            pieces = None

    def fail(dead, error):
        """The components ``dead`` fail with ``error(c)``; their cells go."""
        for c in dead:
            errors[c] = error(c)
        gone = np.zeros(comps, dtype=bool)
        gone[list(dead)] = True
        for cells in (smooth, left):
            cells.keep(~gone[cells.tag])

    for npass in range(1, _MAX_PASSES + 1):
        if smooth.lo.size + left.lo.size > _MAX_CELLS:
            live = np.bincount(smooth.tag, minlength=comps) + np.bincount(left.tag, minlength=comps)
            fail(np.flatnonzero(live > _MAX_CELLS).tolist(), lambda c: QuadratureError(
                f"tolerance {tol[c]:g} unreachable: {live[c]} live cells"
            ))
        if stacked is not None and not (smooth.lo.size or left.lo.size):
            break
        # with no cell at all, the first call still shows the component count
        parts = [(smooth, _K7, _K7_RULES), (left, *rules)]
        call([part for part in parts if part[0].lo.size] or parts[:1])
        gaps = None
        if left.lo.size:
            gaps, left = _take_leftover(left, tol, length, accepted, fail, mu)
        if smooth.lo.size:
            smooth = _take_smooth(smooth, tol, length, accepted, call, npass)
        smooth = _join(smooth, gaps)
    live = np.bincount(smooth.tag, minlength=comps) + np.bincount(left.tag, minlength=comps)
    for c in np.flatnonzero(live).tolist():
        if errors[c] is None:
            errors[c] = QuadratureError(
                f"tolerance {tol[c]:g} unreachable: {live[c]} cells still failing "
                f"after {_MAX_PASSES} refinement passes"
            )
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    vals, tag, lo = map(np.concatenate, zip(*accepted))
    order = np.lexsort((lo, tag))
    vals, bounds = vals[order], _runs(tag[order], comps)
    totals = tuple(float(vals[bounds[c]:bounds[c + 1]].sum()) for c in range(comps))
    return totals if stacked or grouped else totals[0]


def _take_leftover(left, tol, length, accepted, fail, mu):
    """The rule pair on every live Cantor cell: a cell passes if the rules'
    difference meets its budget; else it gives way to its two children,
    the next pass's Cantor cells, and against dx to its middle gap, a
    smooth cell.  A component with a failing cell whose children would be
    too narrow for the nodes fails.  The passing values go to
    ``accepted``; the gaps (None if there are none, as against mu_C) and
    the children are returned."""
    lo, hi, tag, mass = left.lo, left.hi, left.tag, left.mass
    scale = mass if mu else 0.5 * (hi - lo)
    val = left.sums[0] * scale
    err = np.abs(val - left.sums[1] * scale)
    budget = 0.5 * tol[tag] * (mass if mu else hi - lo) / length[tag]
    ok = err <= np.maximum(budget, 1e-17 * np.abs(val))
    accepted.append((val[ok], tag[ok], lo[ok]))
    if ok.all():
        return None, left.keep(np.flatnonzero(~ok))
    bad = ~ok
    lo, hi, tag, budget = lo[bad], hi[bad], tag[bad], budget[bad]
    a, b = _thirds(lo, hi)
    dead = {}
    for i in np.flatnonzero(~(_roomy(lo, a) & _roomy(b, hi))).tolist():
        dead.setdefault(int(tag[i]), i)
    if dead:
        fail(dead, lambda c: QuadratureError(
            f"tolerance {tol[c]:g} unreachable: the Cantor cell "
            f"[{float(lo[dead[c]])!r}, {float(hi[dead[c]])!r}] misses its budget "
            f"{budget[dead[c]]:.3g}, and its children are too narrow for the "
            "fitted rules' nodes"
        ))
        alive = np.ones(tol.size, dtype=bool)
        alive[list(dead)] = False
        keep = alive[tag]
        lo, hi, tag, a, b = lo[keep], hi[keep], tag[keep], a[keep], b[keep]
        bad[bad] = keep
    children = _Cells(
        np.concatenate((lo, b)), np.concatenate((a, hi)), np.concatenate((tag, tag)),
        np.concatenate((0.5 * mass[bad],) * 2) if mu else None,
    )
    children.keep(np.lexsort((children.lo, children.tag)))
    return None if mu else _Cells(a, b, tag), children


def _join(smooth, gaps):
    """The smooth cells with the ``gaps`` of failing Cantor cells (or None)
    among them, in runs by component."""
    if gaps is None or not gaps.lo.size:
        return smooth
    cells = _Cells(*(
        np.concatenate((getattr(smooth, v), getattr(gaps, v))) for v in ("lo", "hi", "tag")
    ))
    return cells.keep(np.argsort(cells.tag, kind="stable"))


def _take_smooth(smooth, tol, length, accepted, call, npass):
    """K7 on every live smooth cell if |K7 - G3| meets its budget, else P15
    from the cell's 8 other nodes if |P15 - K7| does; on the last pass a
    component's failing cells pass if their |P15 - K7| sum to at most
    tol/2.  The passing values go to ``accepted``; the failing cells,
    bisected unless this is the last pass, are returned."""
    lo, hi, tag, sums = smooth.lo, smooth.hi, smooth.tag, smooth.sums
    half = 0.5 * (hi - lo)
    val = sums[1] * half
    err = np.abs(val - sums[0] * half)
    budget = 0.5 * tol[tag] * (hi - lo) / length[tag]
    ok = err <= np.maximum(budget, 1e-17 * np.abs(val))
    bad = np.flatnonzero(~ok)
    if bad.size:
        more = _Cells(lo[bad], hi[bad], tag[bad])
        call([(more, _P8, _P8_RULES)])
        p15 = (sums[2, bad] + more.sums[0]) * half[bad]
        err[bad] = np.abs(p15 - val[bad])
        ok[bad] = err[bad] <= np.maximum(budget[bad], 1e-17 * np.abs(p15))
        val[bad] = p15
    if npass == _MAX_PASSES:
        bounds = _runs(tag[~ok], tol.size)
        rest = err[~ok]
        for c in range(tol.size):
            if np.sum(rest[bounds[c]:bounds[c + 1]]) <= 0.5 * tol[c]:
                ok[tag == c] = True
    accepted.append((val[ok], tag[ok], lo[ok]))
    lo, hi, tag = lo[~ok], hi[~ok], tag[~ok]
    if not lo.size or npass == _MAX_PASSES:
        return _Cells(lo, hi, tag)
    mid = 0.5 * (lo + hi)
    cells = _Cells(np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((tag, tag)))
    return cells.keep(np.lexsort((cells.lo, cells.tag)))


def integrate_interval(f, lo, hi, tol=1e-9, breakpoints=(), cantor_supports=()):
    """Integral of ``f`` over [lo, hi] to absolute tolerance ``tol``, which
    must be finite and positive.

    ``breakpoints`` must list every point where the integrand may jump or
    kink; ``cantor_supports`` every (lo, hi) support of a Cantor-function
    summand appearing anywhere inside ``f``.

    ``f`` is called on flat float arrays of nodes (and works on any shape).
    A stacked integrand,
    whose values carry a leading axis of k components, gives a k-tuple:
    each component is refined on its own (see :func:`integrate_cells`).
    ``lo`` and ``hi`` may also be sequences of g windows, with
    ``breakpoints`` and ``cantor_supports`` one sequence per window and
    ``tol`` one tolerance or one per window: window j's layout serves the
    j-th of g equal consecutive groups of components (an unstacked ``f`` is
    one component per window, and gives a g-tuple), and each integrand call
    serves all of them, as :func:`integrate_cells` describes.
    """
    _check_tol(tol)
    if np.ndim(lo):
        tol = tol if np.ndim(tol) else [tol] * len(lo)
        smooth, mids = zip(*(
            build_cells(*window) for window in zip(lo, hi, breakpoints, cantor_supports, tol)
        ))
    else:
        smooth, mids = build_cells(lo, hi, breakpoints, cantor_supports, tol)
    return integrate_cells(f, smooth, mids, tol)


def _cantor_layout(support, lo, hi, breakpoints):
    """The mu_C layout of the window [lo, hi] of a Cantor support: its
    Cantor cells and their masses, and its pieces ``(lo, hi, mass)``.

    The support is tiled by :func:`_tile`, cut as for dx at the window's
    ends and the ``breakpoints`` inside it; the gaps carry no mass and are
    dropped, as is all that lies outside the window.  A Cantor cell of
    level L has mass 2^-L.  The rest, split at the cuts, are the pieces;
    a piece's mass is C's rise across it, from C at its cell's ends, exact
    from the tiling (a float end may round into the Cantor set), and at the
    cuts, by the exact digit scan."""
    slo, shi = support
    lo, hi = max(float(lo), slo), min(float(hi), shi)
    if hi <= lo:
        return np.empty((0, 2)), np.empty(0), (np.empty(0),) * 3
    cuts = sorted({float(p) for p in (*breakpoints, lo, hi) if lo <= p <= hi and slo < p < shi})
    _, cells, levels, rest, rest_levels, bases = _tile(slo, shi, tuple(cuts))
    inside = (cells[:, 0] >= lo) & (cells[:, 1] <= hi)
    pieces = []
    for (a, b), level, c0 in zip(rest.tolist(), rest_levels.tolist(), bases.tolist()):
        inner = [p for p in cuts if a < p < b]
        at = cantor_function_eval(np.clip((np.array(inner) - slo) / (shi - slo), 0.0, 1.0))
        ends, cs = [a, *inner, b], [c0, *np.clip(at, c0, c0 + 0.5 ** level), c0 + 0.5 ** level]
        pieces += [(p, q, d - c) for p, q, c, d in zip(ends, ends[1:], cs, cs[1:]) if lo <= p and q <= hi]
    pieces = np.array(pieces).reshape(-1, 3)
    return cells[inside], np.ldexp(1.0, -levels[inside]), tuple(pieces[pieces[:, 2] > 0.0].T)


def integrate_cantor(f, support, lo, hi, breakpoints, tol):
    """Integral of ``f`` against mu_C, the unit Cantor measure of the
    ``support`` (s0, s1), on the window [lo, hi], cut at the
    ``breakpoints`` inside it, to absolute tolerance ``tol``.

    The layout is :func:`_cantor_layout`'s.  A Cantor cell passes with rule
    D when |D - E| meets its mass's share of tol/2, else it splits into its
    two children, of half its mass each; a cell whose children would be too
    narrow for the nodes raises, as do the caps of :func:`integrate_cells`
    (so a tol of 0 raises).  The estimate is heuristic: both rules read f
    only at their nodes, and cos(2 pi 2 3^10 x) is 1 at every node of every
    start cell on [0, 1], so it passes as 1 where the integral is -0.0765.

    A stacked ``f``, ``lo``, ``hi``, ``breakpoints`` and ``tol`` given per
    group of components, and the bits of each component, are as in
    :func:`integrate_interval`."""
    grouped = np.ndim(lo) > 0
    windows = list(zip(lo, hi, breakpoints)) if grouped else [(lo, hi, breakpoints)]
    tols = list(tol) if np.ndim(tol) else [tol] * len(windows)
    cells, masses, pieces = zip(*(_cantor_layout(support, a, b, cuts) for a, b, cuts in windows))
    lengths = [float(np.sum(m)) + float(np.sum(p[2])) for m, p in zip(masses, pieces)]
    pieces = _flat([np.column_stack(p[:2]) for p in pieces], [p[2] for p in pieces])
    return _refine(
        f, _flat([np.empty((0, 2))] * len(windows)), _flat(cells, masses),
        pieces if pieces.lo.size else None, tols, lengths, grouped,
    )
