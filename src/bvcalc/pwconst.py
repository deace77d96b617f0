"""Constructive piecewise-constant approximation of BV functions.

The scalar construction splits the target into big jumps, a small-jump tail
of total size at most eps/3, and a continuous remainder; a partition finer
than the remainder's eps/3-oscillation scale then carries cell values chosen
by a three-case rule (marked-point value, left limit at a big-jump right
endpoint, right limit at the cell's left endpoint).  The vector version runs
the scalar construction per component with eps = 3/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .bvfunction import BVFunction, BVVector
from .measures import Interval, PiecewisePolynomial

_NUDGE = 1e-7  # relative leftward shift used to move a node off a forbidden point


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant function with explicit values at interior nodes.

    ``partition`` runs from a to b; ``values[i]`` is the constant on the open
    cell ]partition[i], partition[i+1][; ``node_values[i]`` is the stored
    value at the interior node partition[i+1]."""

    partition: tuple
    values: tuple
    node_values: tuple

    def __post_init__(self):
        pts = np.asarray(self.partition, dtype=float)
        if np.any(pts[1:] <= pts[:-1]):
            raise DomainError("partition must be strictly increasing")
        if len(self.values) != len(pts) - 1:
            raise DomainError("need one value per cell")
        if len(self.node_values) != len(pts) - 2:
            raise DomainError("need one value per interior node")
        for name in ("partition", "values", "node_values"):
            object.__setattr__(self, name, tuple(np.asarray(getattr(self, name), dtype=float).tolist()))
        object.__setattr__(self, "_pts", np.array(self.partition))
        object.__setattr__(self, "_cells", np.array(self.values))
        object.__setattr__(self, "_nodes", np.array(self.node_values))

    def __call__(self, x):
        return float(self.eval_array(np.atleast_1d(float(x)))[0])

    def eval_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        idx = np.clip(np.searchsorted(self._pts, xs, side="right") - 1, 0, len(self.values) - 1)
        out = self._cells[idx]
        # exact hits on interior nodes carry their stored values
        nodes = self._pts[1:-1]
        if nodes.size:
            pos = np.searchsorted(nodes, xs)
            sel = np.minimum(pos, nodes.size - 1)
            exact = (pos < nodes.size) & (xs == nodes[sel])
            out[exact] = self._nodes[pos[exact]]
        return out

    def left_limit(self, x):
        i = int(np.searchsorted(self._pts, float(x), side="left")) - 1
        i = min(max(i, 0), len(self.values) - 1)
        return self.values[i]

    def right_limit(self, x):
        i = int(np.searchsorted(self._pts, float(x), side="right")) - 1
        i = min(max(i, 0), len(self.values) - 1)
        return self.values[i]

    def jump_set(self):
        """Interior nodes where the adjacent cell values differ."""
        return tuple(
            x
            for x, c0, c1 in zip(self.partition[1:-1], self.values[:-1], self.values[1:])
            if c0 != c1
        )

    def total_variation(self):
        """Pointwise variation, node values included, summed node by node
        in order (``cumsum`` adds one term at a time)."""
        cells, nodes = self._cells, self._nodes
        steps = np.abs(nodes - cells[:-1]) + np.abs(cells[1:] - nodes)
        return float(np.cumsum(steps)[-1]) if steps.size else 0.0

    def to_bv(self):
        """The same steps as a BVFunction (the precise representative
        replaces the stored node values; one-sided limits and jumps are
        preserved exactly)."""
        pp = PiecewisePolynomial(self.partition, tuple((v,) for v in self.values))
        return BVFunction(Interval(self.partition[0], self.partition[-1]), pp)


@dataclass(frozen=True)
class ExceptionalSet:
    """Finite stand-in for the countable marked set (disjoint from jumps),
    with the finite prefix actually pinned at this resolution."""

    points: tuple
    prefix_len: int = None

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(set(pts)) != len(pts):
            raise DomainError("marked points must be distinct")
        object.__setattr__(self, "points", pts)
        k = len(pts) if self.prefix_len is None else int(self.prefix_len)
        if not 0 <= k <= len(pts):
            raise DomainError("prefix length out of range")
        object.__setattr__(self, "prefix_len", k)

    @property
    def prefix(self):
        return self.points[: self.prefix_len]

    def with_prefix(self, k):
        return ExceptionalSet(self.points, min(int(k), len(self.points)))


def _osc_upper(vals, k):
    """The largest oscillation of ``vals`` over the blocks
    ``vals[s : s + 2k + 1]`` for s = 0, k, 2k, ... below len(vals) - 1.

    Block i is stride-k chunks i and i + 1 and the head of chunk i + 2;
    padding with the last sample makes every block whole."""
    m = -(-(len(vals) - 1) // k)
    padded = np.concatenate((vals, np.full(2 * k, vals[-1])))
    heads = np.arange(0, (m + 2) * k, k)
    top, bot = np.maximum.reduceat(padded, heads), np.minimum.reduceat(padded, heads)
    tops = np.maximum(np.maximum(top[:m], top[1 : m + 1]), padded[heads[2:]])
    bots = np.minimum(np.minimum(bot[:m], bot[1 : m + 1]), padded[heads[2:]])
    return float(np.max(tops - bots))


def _osc_delta(vc_vals, grid_h, eps_third):
    """Window width on which the sampled continuous part oscillates < eps/3,
    found by halving, then halved once more for safety.

    The oscillation check uses stride-k blocks of width 2k samples, which
    over-covers every width-k window, so the accepted delta is conservative."""
    n = len(vc_vals)
    delta = (n - 1) * grid_h
    for _ in range(40):
        k = max(1, min(n - 1, int(np.ceil(delta / grid_h))))
        if _osc_upper(vc_vals, k) < 0.9 * eps_third:
            break
        delta *= 0.5
    else:
        raise DomainError("could not localize the continuous part's oscillation")
    return 0.5 * delta


def _shift_off(x, forbidden, room, tol):
    """Deterministically nudge x leftward until clear of forbidden points."""
    step = max(room * _NUDGE, tol * 10)
    y = x
    for _ in range(64):
        if all(abs(y - f) > tol for f in forbidden):
            return y
        y -= step
    raise DomainError("could not place a partition node off the forbidden set")


def _refine(augmented, delta, forbidden, tol):
    """The nodes of the mesh that cuts each [x0, x1] of ``augmented`` into
    k = ceil((x1 - x0) / (delta/2)) equal cells, as a list; the inner
    nodes within tol of a forbidden point are nudged off it."""
    nodes = [augmented[0]]
    points = np.asarray(forbidden, dtype=float)
    for x0, x1 in zip(augmented[:-1], augmented[1:]):
        k = int(np.ceil((x1 - x0) / (0.5 * delta)))
        ys = x0 + (x1 - x0) * np.arange(1, k) / k
        for j in np.flatnonzero((np.abs(ys[:, None] - points) <= tol).any(axis=1)):
            ys[j] = _shift_off(float(ys[j]), forbidden, (x1 - x0) / k, tol)
        nodes += ys.tolist()
        nodes.append(x1)
    return nodes


def _cell_samples(pts, marked, bigs):
    """Per cell of the ascending nodes ``pts``, the point its value is read
    at and the side: the first marked point inside ("precise"), else the
    right node if it is a big jump ("left"), else the left node ("right")."""
    marked = np.asarray(marked, dtype=float)
    sample = pts[:-1].copy()
    sides = np.full(sample.size, "right", dtype=object)
    before_big = np.isin(pts[1:], bigs)
    sample[before_big] = pts[1:][before_big]
    sides[before_big] = "left"
    first = np.searchsorted(marked, pts[:-1], side="right")
    held = np.flatnonzero(first < marked.size)
    held = held[marked[first[held]] < pts[1:][held]]
    sample[held], sides[held] = marked[first[held]], "precise"
    return sample, sides


def approximate_scalar(v, eps, exc=None):
    """Piecewise-constant approximation with the five certified properties:
    big jumps retained with exact one-sided limits, total variation not
    increased, nodes avoiding the marked set, exact values on the marked
    prefix, and uniform error below eps."""
    eps = float(eps)
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if exc is None:
        exc = ExceptionalSet(())
    a, b = v.domain.a, v.domain.b
    jumps = v.jumps()
    jset = {x for x, _, _ in jumps}
    for p in exc.points:
        if not a < p < b:
            raise DomainError("marked points must be interior")
        if p in jset or any(abs(p - x) < 1e-13 * (b - a) for x in jset):
            raise DomainError("marked set must avoid the jump set")

    # split off the big jumps: smallest N whose excluded tail is <= eps/3
    order = sorted(jumps, key=lambda j: (-abs(j[2] - j[1]), j[0]))
    sizes = [abs(r - l) for _, l, r in order]
    tail = float(np.sum(sizes))
    N = 0
    while tail > eps / 3.0 and N < len(order):
        tail -= sizes[N]
        N += 1
    bigs = sorted(x for x, _, _ in order[:N])
    smalls = sorted(x for x, _, _ in order[N:])

    # oscillation scale of the continuous part on a dense grid
    xs = np.linspace(a, b, 4097)[1:-1]
    vals = v.values(xs)
    if jumps:
        jx = np.array([x for x, _, _ in jumps])
        jw = np.array([r - l for _, l, r in jumps])
        steps = (xs[:, None] >= jx[None, :]) @ jw
        vc = vals - steps
    else:
        vc = vals
    h = xs[1] - xs[0]
    delta = _osc_delta(vc, h, eps / 3.0)

    tol = 1e-12 * (b - a)
    forbidden = sorted(set(exc.points) | set(smalls))

    # mandatory nodes, separating adjacent big jumps
    fixed = [a, *bigs, b]
    bigset = set(bigs)
    augmented = [fixed[0]]
    for x0, x1 in zip(fixed[:-1], fixed[1:]):
        if x0 in bigset and x1 in bigset:
            augmented.append(_shift_off(0.5 * (x0 + x1), forbidden, x1 - x0, tol))
        augmented.append(x1)

    nodes = _refine(augmented, delta, forbidden, tol)

    # isolate each marked-prefix point: alone in its cell, away from big nodes
    marked = sorted(exc.prefix)
    for p in marked:
        i = int(np.searchsorted(nodes, p, side="right")) - 1
        y0, y1 = nodes[i], nodes[i + 1]
        inside = [q for q in marked if y0 < q < y1]
        extra = []
        for q0, q1 in zip(inside[:-1], inside[1:]):
            extra.append(_shift_off(0.5 * (q0 + q1), forbidden, q1 - q0, tol))
        if y0 in bigset:
            q = min(inside)
            extra.append(_shift_off(0.5 * (y0 + q), forbidden, q - y0, tol))
        if y1 in bigset:
            q = max(inside)
            extra.append(_shift_off(0.5 * (q + y1), forbidden, y1 - q, tol))
        if extra:
            nodes = sorted(set(nodes) | set(extra))

    # cell values by the three-case rule, node values by the representative
    pts = np.asarray(nodes, dtype=float)
    sample, sides = _cell_samples(pts, marked, bigs)
    cells = np.empty(sample.size)
    for side in ("precise", "left", "right"):
        hit = sides == side
        cells[hit] = v.at(sample[hit], side)
    node_vals = v.at(pts[1:-1], "precise")
    return PiecewiseConstant(tuple(nodes), tuple(cells), tuple(node_vals))


def approximate_vector(u, n, exc=None):
    """Per-component scalar construction with eps = 3/n and the first n
    marked points pinned; sup-norm error below 3 sqrt(d) / n."""
    n = int(n)
    if n < 1:
        raise DomainError("resolution index must be >= 1")
    if isinstance(u, BVFunction):
        u = BVVector((u,))
    if exc is None:
        exc = ExceptionalSet(())
    exc_n = exc.with_prefix(n)
    return [approximate_scalar(c, 3.0 / n, exc_n) for c in u.components]
