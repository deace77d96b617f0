"""Constructive piecewise-constant approximation of BV functions.

The scalar construction splits the target into big jumps, a small-jump tail
of total size at most eps/3, and a continuous remainder whose variation V
is exact; halving every cell across which V rises by more than eps/3 bounds
the error by construction.  The cells carry values chosen by a three-case
rule (marked-point value, left limit at a big-jump right endpoint, right
limit at the cell's left endpoint).  The vector version runs the scalar
construction per component with eps = 3/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .bvfunction import BVFunction, BVVector
from .measures import Interval, PiecewisePolynomial, _horner, _poly_int

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


def _variation(v):
    """V(x), the variation of v's continuous part on [a, x], on node arrays:
    the integral of |p'| over the smooth part's pieces, jumps left out, plus
    |c| C(x) per Cantor summand (Ambrosio-Fusco-Pallara, section 3.2)."""
    slope = v.smooth_part.derivative().absolute()
    pieces, total = [], 0.0
    for x0, x1, coeffs in zip(slope.breakpoints, slope.breakpoints[1:], slope.pieces):
        anti = _poly_int(coeffs)
        pieces.append((total, *anti[1:]))
        total += _horner(anti, x1 - x0)
    smooth = PiecewisePolynomial(slope.breakpoints, tuple(pieces))

    def variation(xs):
        out = smooth.at(xs)
        for base, c in v.cantor_part:
            out = out + abs(c) * base.profile(xs)
        return out

    return variation


def _shift_off(x, forbidden, room, tol):
    """Deterministically nudge x leftward until clear of forbidden points."""
    step = max(room * _NUDGE, tol * 10)
    y = x
    for _ in range(64):
        if all(abs(y - f) > tol for f in forbidden):
            return y
        y -= step
    raise DomainError("could not place a partition node off the forbidden set")


def _split(x0, x1, forbidden, tol):
    """The midpoint of ]x0, x1[, nudged off the forbidden points; it must
    stay strictly inside the cell."""
    y = _shift_off(0.5 * (x0 + x1), forbidden, x1 - x0, tol)
    if not x0 < y < x1:
        raise DomainError(f"no node of ]{x0!r}, {x1!r}[ clears the forbidden points by {tol!r}")
    return y


def _halve(nodes, variation, rise, forbidden, tol):
    """The ascending ``nodes``, with every cell across which ``variation``
    rises by more than ``rise`` halved until none is left, as a list.  A
    midpoint within tol of a forbidden point goes through ``_split``."""
    nodes = np.asarray(nodes, dtype=float)
    vs = variation(nodes)
    points = np.asarray(forbidden, dtype=float)
    while True:
        cut = np.flatnonzero(vs[1:] - vs[:-1] > rise)
        if not cut.size:
            return nodes.tolist()
        x0, x1 = nodes[cut], nodes[cut + 1]
        mids = 0.5 * (x0 + x1)
        for j in np.flatnonzero((np.abs(mids[:, None] - points) <= tol).any(axis=1)):
            mids[j] = _split(float(x0[j]), float(x1[j]), forbidden, tol)
        stuck = np.flatnonzero((mids <= x0) | (mids >= x1))
        if stuck.size:
            i = cut[stuck[0]]
            raise DomainError(f"V rises by {float(vs[i + 1] - vs[i])!r} > eps/3 on {nodes[i:i + 2].tolist()}")
        nodes = np.insert(nodes, cut + 1, mids)
        vs = np.insert(vs, cut + 1, variation(mids))


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
    prefix, and uniform error below eps: the small jumps sum to at most
    eps/3, and V rises by at most eps/3 across each cell.  An eps that is
    not finite and positive raises DomainError."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps {eps!r} is not finite and positive")
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

    tol = 1e-12 * (b - a)
    forbidden = sorted(set(exc.points) | set(smalls))

    # mandatory nodes, separating adjacent big jumps, then halving by V
    fixed = [a, *bigs, b]
    bigset = set(bigs)
    augmented = [fixed[0]]
    for x0, x1 in zip(fixed[:-1], fixed[1:]):
        if x0 in bigset and x1 in bigset:
            augmented.append(_split(x0, x1, forbidden, tol))
        augmented.append(x1)
    nodes = _halve(augmented, _variation(v), eps / 3.0, forbidden, tol)

    # isolate each marked-prefix point: alone in its cell, away from big nodes
    marked = sorted(exc.prefix)
    for p in marked:
        i = int(np.searchsorted(nodes, p, side="right")) - 1
        y0, y1 = nodes[i], nodes[i + 1]
        inside = [q for q in marked if y0 < q < y1]
        extra = []
        for q0, q1 in zip(inside[:-1], inside[1:]):
            extra.append(_split(q0, q1, forbidden, tol))
        if y0 in bigset:
            extra.append(_split(y0, min(inside), forbidden, tol))
        if y1 in bigset:
            extra.append(_split(max(inside), y1, forbidden, tol))
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
