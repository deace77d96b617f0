"""Closed-form functions of bounded variation on an open interval.

A function here is ``smooth_part + sum of rescaled Cantor summands``: the
piecewise-polynomial part carries every jump (adjacent pieces disagreeing at
a node), the Cantor summands are continuous and contribute the singular
diffuse behavior.  This closure gives exact one-sided limits, an exact
derivative measure with its three-part decomposition, and quadrature-friendly
structure for every weak identity in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, RepresentationError
from .measures import (
    CantorBase,
    CantorTerm,
    Interval,
    PiecewisePolynomial,
    RadonMeasure,
    _horner,
    _merge_bases,
    _sign_changes,
    integrate_measure,
    kernel,
    measure_total_variation,
)
from .quadrature import _ROOT_TOL, _apply, _bisect, _merge_supports, _same_support, integrate_interval

_SIDES = ("left", "right", "precise")


@dataclass(frozen=True)
class BVFunction:
    """BV function u = smooth_part + sum coef * CantorFunction(base).

    ``jumps()`` and ``derivative()`` are computed on first use, once per
    instance, and kept in its ``__dict__`` (immutable values, outside
    ``==`` and hash)."""

    domain: Interval
    smooth_part: PiecewisePolynomial = None
    cantor_part: tuple = ()  # of (CantorBase, coefficient)

    def __post_init__(self):
        if self.smooth_part is None:
            object.__setattr__(
                self,
                "smooth_part",
                PiecewisePolynomial.zero(self.domain.a, self.domain.b),
            )
        if (self.smooth_part.lo, self.smooth_part.hi) != (self.domain.a, self.domain.b):
            raise DomainError("smooth part must cover the whole domain")
        for base, _ in self.cantor_part:
            if not self.domain.contains_interval(base.support):
                raise DomainError("Cantor summand support must lie inside the domain")
        object.__setattr__(self, "cantor_part", _merge_bases(self.cantor_part))
        _merge_supports(self.cantor_supports())  # identical or disjoint

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_poly(lo, hi, coeffs):
        """u(x) = sum coeffs[k] x^k on ]lo, hi[."""
        return BVFunction(Interval(lo, hi), PiecewisePolynomial.from_global(lo, hi, coeffs))

    @staticmethod
    def constant(lo, hi, c):
        return BVFunction.from_poly(lo, hi, (c,))

    @staticmethod
    def heaviside(lo, hi, x0, left=0.0, right=1.0):
        """Jump at x0 from ``left`` to ``right``, constant elsewhere."""
        if not lo < x0 < hi:
            raise DomainError("jump location must be interior")
        return BVFunction(
            Interval(lo, hi),
            PiecewisePolynomial((lo, x0, hi), ((float(left),), (float(right),))),
        )

    @staticmethod
    def cantor_fn(lo, hi, support=None, coefficient=1.0):
        """coefficient * (Cantor function rescaled to ``support``)."""
        if support is None:
            support = Interval(lo, hi)
        elif not isinstance(support, (Interval, CantorBase)):
            support = Interval(*support)
        base = support if isinstance(support, CantorBase) else CantorBase(support)
        return BVFunction(Interval(lo, hi), None, ((base, coefficient),))

    # -- structure ----------------------------------------------------------
    def breakpoints(self):
        return self.smooth_part.breakpoints[1:-1]

    def cantor_supports(self):
        return tuple((b.support.a, b.support.b) for b, _ in self.cantor_part)

    def _cantor(self, xs):
        out = 0.0
        for base, coef in self.cantor_part:
            out = out + coef * base.profile(xs)
        return out

    def jumps(self):
        """Tuple of (x, left value, right value) at actual jump points."""
        return self._jumps

    @cached_property
    def _jumps(self):
        bps = np.asarray(self.breakpoints(), dtype=float)
        if not bps.size:
            return ()
        l = self.smooth_part.at(bps, "left")
        r = self.smooth_part.at(bps, "right")
        hit = l != r
        if not hit.any():
            return ()
        c = self._cantor(bps[hit])
        return tuple(zip(bps[hit].tolist(), (l[hit] + c).tolist(), (r[hit] + c).tolist()))

    def jump_set(self):
        return tuple(x for x, _, _ in self.jumps())

    # -- evaluation ---------------------------------------------------------
    def at(self, xs, side="precise"):
        """Exact sided evaluation at the points ``xs``: left or right
        limits, or the precise representative (their mean).  This is the
        evaluation for jump sets and interfaces; ``values`` is the a.e. one
        for quadrature."""
        if side not in _SIDES:
            raise DomainError(f"side must be one of {_SIDES}")
        xs = np.asarray(xs, dtype=float)
        a, b = self.domain.a, self.domain.b
        if side == "left":
            if not np.all((a < xs) & (xs <= b)):
                raise DomainError(f"left limit defined on ]{a}, {b}]")
            return self.smooth_part.at(xs, "left") + self._cantor(xs)
        if side == "right":
            if not np.all((a <= xs) & (xs < b)):
                raise DomainError(f"right limit defined on [{a}, {b}[")
            return self.smooth_part.at(xs, "right") + self._cantor(xs)
        if not np.all((a < xs) & (xs < b)):
            raise DomainError(f"interior evaluation defined on ]{a}, {b}[")
        l = self.smooth_part.at(xs, "left")
        r = self.smooth_part.at(xs, "right")
        return 0.5 * l + 0.5 * r + self._cantor(xs)

    def eval(self, x, side="precise"):
        """One-sided / representative evaluation at a single point."""
        return float(self.at(np.array([float(x)]), side)[0])

    def values(self, xs):
        """Vectorized a.e. evaluation: right-continuous at jump points, with
        no domain check; on the interior it equals ``at(xs, "right")``."""
        xs = np.asarray(xs, dtype=float)
        return self.smooth_part(xs) + self._cantor(xs)

    def values_with_slope(self, xs):
        """``values(xs)`` and the a.e. derivative there (the smooth part's:
        Cantor summands are flat a.e.), from one piece lookup."""
        xs = np.asarray(xs, dtype=float)
        val, slope = self.smooth_part.with_slope(xs)
        val += self._cantor(xs)
        return val, slope

    def oscillation(self):
        """sup u - inf u, from :func:`_value_range`."""
        lo, hi = _value_range(self)
        return hi - lo

    # -- calculus -----------------------------------------------------------
    def derivative(self):
        """The distributional derivative as a RadonMeasure."""
        return self._derivative

    @cached_property
    def _derivative(self):
        atoms = tuple((x, r - l) for x, l, r in self.jumps())
        terms = tuple(CantorTerm(base, coef) for base, coef in self.cantor_part)
        return RadonMeasure(self.domain, self.smooth_part.derivative(), atoms, terms)

    def total_variation(self):
        return measure_total_variation(self.derivative())

    # -- algebra ------------------------------------------------------------
    def __add__(self, other):
        if (other.domain.a, other.domain.b) != (self.domain.a, self.domain.b):
            raise DomainError("BV functions on different domains")
        return BVFunction(
            self.domain,
            self.smooth_part + other.smooth_part,
            self.cantor_part + other.cantor_part,
        )

    # -- mollification ------------------------------------------------------
    def mollify(self, eps, x, tol=1e-10):
        """(u * kernel_eps)(x) by quadrature."""
        eps = float(eps)
        x = float(x)
        a, b = self.domain.a, self.domain.b
        if eps <= 0.0:
            raise DomainError("mollification width must be positive")
        if not (a + eps < x < b - eps):
            raise DomainError(f"mollified evaluation needs x in ]{a + eps}, {b - eps}[")

        def integrand(ys):
            ys = np.asarray(ys, dtype=float)
            return self.values(ys) * kernel((x - ys) / eps) / eps

        return integrate_interval(
            integrand,
            x - eps,
            x + eps,
            tol=tol,
            breakpoints=self.breakpoints(),
            cantor_supports=self.cantor_supports(),
        )


@dataclass(frozen=True)
class BVVector:
    """A vector of BV functions sharing one domain."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DomainError("need at least one component")
        d0 = comps[0].domain
        for u in comps[1:]:
            if (u.domain.a, u.domain.b) != (d0.a, d0.b):
                raise DomainError("components must share the domain")
        object.__setattr__(self, "components", comps)

    @property
    def domain(self):
        return self.components[0].domain

    def jump_set(self):
        pts = set()
        for u in self.components:
            pts.update(u.jump_set())
        return tuple(sorted(pts))

    def breakpoints(self):
        pts = set()
        for u in self.components:
            pts.update(u.breakpoints())
        return tuple(sorted(pts))

    def cantor_supports(self):
        sups = []
        for u in self.components:
            sups.extend(u.cantor_supports())
        return tuple(sups)

    def values(self, xs):
        """Array of shape (dim, len(xs))."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.stack([u.values(xs) for u in self.components])

    def values_with_slope(self, xs):
        """``values(xs)`` and the a.e. derivatives there, (dim, len(xs)) each."""
        pairs = [u.values_with_slope(np.atleast_1d(xs)) for u in self.components]
        return np.stack([v for v, _ in pairs]), np.stack([d for _, d in pairs])

    def at(self, xs, side="precise"):
        """Exact sided values (``BVFunction.at``), (dim, len(xs))."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.stack([u.at(xs, side) for u in self.components])


@dataclass(frozen=True)
class TestFunction:
    """The polynomial bump phi(x) = (1 - t^2)^2 q(t) on ``support``, with
    t = (x - c)/h its [-1, 1] coordinate (c the center, h the half-width)
    and q the polynomial of the ascending ``coeffs``; phi is 0 off the
    support.  The quartic factor makes phi C^1 with phi and phi' vanishing
    at the support ends, for any q."""

    support: Interval
    coeffs: tuple = (1.0,)
    label: str = field(default="", compare=False)

    def __post_init__(self):
        c = 0.5 * (self.support.a + self.support.b)
        h = 0.5 * (self.support.b - self.support.a)
        # p(t) = (1 - t^2)^2 q(t), ascending coefficients
        p = np.convolve([1.0, 0.0, -2.0, 0.0, 1.0], self.coeffs)
        for name, v in (("_c", c), ("_h", h), ("_p", p), ("_dp", p[1:] * np.arange(1, len(p)))):
            object.__setattr__(self, name, v)

    def _coordinate(self, xs):
        """t at ``xs``, and the mask of the points inside the support."""
        t = (np.asarray(xs, dtype=float) - self._c) / self._h
        return t, np.abs(t) < 1.0

    def __call__(self, xs):
        t, inside = self._coordinate(xs)
        return np.where(inside, _horner(self._p, t), 0.0)

    def prime(self, xs):
        t, inside = self._coordinate(xs)
        return np.where(inside, _horner(self._dp, t) / self._h, 0.0)

    def with_slope(self, xs):
        """``(phi(xs), phi.prime(xs))`` from one t and one support mask."""
        t, inside = self._coordinate(xs)
        return (
            np.where(inside, _horner(self._p, t), 0.0),
            np.where(inside, _horner(self._dp, t) / self._h, 0.0),
        )

    @staticmethod
    def poly_bump(support, coeffs=(1.0,), label=""):
        """The bump with q's ascending ``coeffs`` on ``support`` (an
        :class:`Interval` or an (a, b) pair)."""
        sup = support if isinstance(support, Interval) else Interval(*support)
        label = label or f"bump{list(coeffs)}"
        return TestFunction(sup, tuple(float(c) for c in coeffs), label=label)

    @staticmethod
    def bump(support, amplitude=1.0, label=""):
        return TestFunction.poly_bump(support, (float(amplitude),), label=label)


# -- weak identities ---------------------------------------------------------


def integration_by_parts_residual(u, phi, tol=1e-9):
    """integral of u phi' dx plus integral of phi dDu; zero in exact arithmetic."""
    sup = phi.support

    def integrand(xs):
        return u.values(xs) * phi.prime(xs)

    part1 = integrate_interval(
        integrand,
        max(sup.a, u.domain.a),
        min(sup.b, u.domain.b),
        tol=tol,
        breakpoints=u.breakpoints(),
        cantor_supports=u.cantor_supports(),
    )
    part2 = integrate_measure(
        phi, u.derivative(), tol=tol, breakpoints=(sup.a, sup.b)
    )
    return float(part1 + part2)


def leibniz_weak_residual(v, w, phi, tol=1e-9):
    """integral of phi dD(vw) plus integral of phi' v w dx; zero exactly.

    By Vol'pert's product rule D(vw) = v* Dw + w* Dv, the first integral is
    two plain pairings, of phi v* with Dw and of phi w* with Dv; each
    integrand declares its own factor's breakpoints and Cantor supports."""
    if (v.domain.a, v.domain.b) != (w.domain.a, w.domain.b):
        raise DomainError("factors must share the domain")
    if any(_same_support(s, t) for s in v.cantor_supports() for t in w.cantor_supports()):
        raise RepresentationError(
            "product of two Cantor summands on the same base is outside the class"
        )
    sup = phi.support
    part1 = 0.0
    for f, other in ((v, w), (w, v)):
        part1 += integrate_measure(
            lambda xs, f=f: phi(xs) * f.at(xs, "precise"),
            other.derivative(),
            tol=tol,
            breakpoints=(sup.a, sup.b) + f.breakpoints(),
            cantor_supports=f.cantor_supports(),
        )

    def integrand(xs):
        return phi.prime(xs) * v.values(xs) * w.values(xs)

    part2 = integrate_interval(
        integrand,
        max(sup.a, v.domain.a),
        min(sup.b, v.domain.b),
        tol=tol,
        breakpoints=tuple(sorted(set(v.breakpoints()) | set(w.breakpoints()))),
        cantor_supports=v.cantor_supports() + w.cantor_supports(),
    )
    return float(part1 + part2)


# -- coarea ------------------------------------------------------------------


def _monotone_pieces(u):
    """Split the domain into maximal pieces on which u is monotone.

    Returns a list of (x0, x1, v0, v1, base_or_None, coef) with v0 = u(x0+),
    v1 = u(x1-).  Raises RepresentationError when monotonicity cannot be
    certified (a.c. slope fighting a Cantor summand on its support)."""
    cuts = {u.domain.a, u.domain.b}
    cuts.update(u.breakpoints())
    for a, b in u.cantor_supports():
        cuts.update((a, b))
    pp = u.smooth_part
    dpp = pp.derivative()
    for i, coeffs in enumerate(dpp.pieces):
        a, b = dpp.breakpoints[i], dpp.breakpoints[i + 1]
        for r in _sign_changes(coeffs, 0.0, b - a):
            cuts.add(a + r)
    cuts = np.array(sorted(cuts))
    c = np.broadcast_to(u._cantor(cuts), cuts.shape)  # u.at's, once per cut
    v0s = (pp.at(cuts[:-1], "right") + c[:-1]).tolist()
    v1s = (pp.at(cuts[1:], "left") + c[1:]).tolist()
    slopes = dpp.at(0.5 * (cuts[:-1] + cuts[1:])).tolist()
    pieces = []
    for x0, x1, v0, v1, slope in zip(cuts[:-1].tolist(), cuts[1:].tolist(), v0s, v1s, slopes):
        on = [(bb, cc) for bb, cc in u.cantor_part if bb.support.a <= x0 and x1 <= bb.support.b]
        base, coef = on[0] if on else (None, 0.0)
        if base is not None and slope != 0.0 and (slope > 0.0) != (coef > 0.0):
            raise RepresentationError(
                "cannot certify monotonicity: slope sign conflicts with a "
                "Cantor summand on its support (level sets may be infinite)"
            )
        pieces.append((x0, x1, v0, v1, base, coef))
    return pieces


def _value_range(u):
    """(inf u, sup u): the extreme sided end values of u's monotone pieces,
    every jump's included (``_monotone_pieces``, which raises
    RepresentationError where a Cantor summand fights the slope)."""
    ends = [v for p in _monotone_pieces(u) for v in p[2:4]]
    return min(ends), max(ends)


def coarea_default_tgrid(u, x_cuts=()):
    """Level-grid whose cells separate all critical and one-sided values.

    ``x_cuts`` marks x-points where the weight is discontinuous: the levels
    at which a located point sweeps past such a point are critical too."""
    return _coarea_tgrid(u, _monotone_pieces(u), x_cuts)


def _coarea_tgrid(u, pieces, x_cuts):
    """:func:`coarea_default_tgrid` from u's ``_monotone_pieces``."""
    vals = {v for p in pieces for v in p[2:4]}  # with every jump's sided values
    xs = np.array([x for x in x_cuts if u.domain.a < x < u.domain.b], dtype=float)
    for side in ("left", "right"):
        vals.update(u.at(xs, side).tolist())
    return tuple(sorted(vals))


def coarea_lhs(g, u, tol=1e-9, g_breakpoints=()):
    """integral of g against the total-variation measure |Du|."""
    return integrate_measure(
        g, u.derivative().tv_measure(), tol=tol, breakpoints=g_breakpoints
    )


def _level_search(u, monotone):
    """Where u crosses levels, from its ``_monotone_pieces`` ``monotone``:
    (lows, highs, locate), the level range of each piece that is not flat,
    and locate(rows, ts), the x with u(x) = ts[i] on piece rows[i] for levels
    inside its range, by one safeguarded Newton search (``_bisect``) with
    u.values' float operations and u' from the same piece lookup.  A Cantor
    piece's bracket first descends its ternary cells to a gap, with C fixed,
    or to _ROOT_TOL (NaN u'): one digit scan per search, more past |x| = 2."""
    pp = u.smooth_part
    pieces = [p for p in monotone if p[2] != p[3]]
    x0s, x1s, v0s, v1s = (np.array([p[i] for p in pieces], dtype=float) for i in range(4))
    # NaN marks the Cantor pieces; on one, every base's profile is 0 or 1 but its own (kb)
    bases = [b for b, _ in u.cantor_part]
    kb = np.array([bases.index(p[4]) if p[4] is not None else -1 for p in pieces], dtype=int)
    profs = np.array([b.profile(x0s) for b in bases]).reshape(len(bases), len(pieces))
    sup = np.array([(b.support.a, b.support.b) for b in bases]).reshape(-1, 2)
    flats = np.where(kb >= 0, np.nan, u._cantor(x0s))

    def descend(rows, lo, hi, t, rising):
        """The brackets [lo, hi] of the levels t on the Cantor pieces rows,
        narrowed down the ternary cells of their supports, and per level the
        C of the gap it lands in, else NaN.  A cell of level L, index n and
        C = cl at its left end has C = cl + 2^-(L+1) on its middle gap, as
        the digit scan reads it 4 ulps of the support's ends inside the gap
        (3 sufficed in 13 million probes).  Each read of u there moves the
        bracket end on its side, a zero's off the gap, so a level u takes on
        a whole gap lands in it."""
        s0, s1 = sup[kb[rows]].T
        w, m = s1 - s0, 4.0 * np.spacing(np.maximum(np.abs(s0), np.abs(s1)))
        n, cl, c, level = np.zeros(rows.size), np.zeros(rows.size), np.full(rows.size, np.nan), 0
        live = (hi - lo > _ROOT_TOL) & (w / 3.0 > 2.0 * m)
        while live.any():
            level += 1
            half, cube = np.ldexp(1.0, -level), float(3**level)
            p, q = s0 + w * ((3.0 * n + 1.0) / cube) + m, s0 + w * ((3.0 * n + 2.0) / cube) - m
            cg = 0.0  # u._cantor's float operations, each row's own base at C
            for j, (_, coef) in enumerate(u.cantor_part):
                cg = cg + coef * np.where(kb[rows] == j, cl + half, profs[j, rows])
            gp, gq = np.split((pp.at(np.concatenate((p, q))) + np.tile(cg, 2)) - np.tile(t, 2), 2)
            sides = np.where(rising, gp > 0, gp < 0), np.where(rising, gq >= 0, gq <= 0)
            for x, side in zip((p, q), sides):
                move = live & (lo < x) & (x < hi)
                lo, hi = np.where(move & ~side, x, lo), np.where(move & side, x, hi)
            right, gap = lo >= q, live & (hi > p) & (lo < q)
            c[gap], n, cl = cg[gap], 3.0 * n + 2.0 * right, cl + np.where(right, half, 0.0)
            live &= ~gap & (hi - lo > _ROOT_TOL) & (w / (3.0 * cube) > 2.0 * m)
        return lo, hi, c

    def locate(rows, ts):
        add, lo, hi, ghi = flats[rows], x0s[rows], x1s[rows], v1s[rows] - ts
        on = np.flatnonzero(np.isnan(add))
        if on.size:
            lo[on], hi[on], add[on] = descend(rows[on], lo[on], hi[on], ts[on], ghi[on] > 0)
        cantor_rows = np.isnan(add)

        def level_gap(x, i):
            """u.values(x) - ts[i] and u' at x; NaN for a level left in a
            Cantor cell."""
            (s, slope), c, on_cantor = pp.with_slope(x), add[i], cantor_rows[i]
            if on_cantor.any():
                c[on_cantor] = u._cantor(x[on_cantor])
                slope[on_cantor] = np.nan
            return (s + c) - ts[i], slope

        return _bisect(level_gap, lo, hi, ghi)

    return np.minimum(v0s, v1s), np.maximum(v0s, v1s), locate


def coarea_rhs(g, u, tol=1e-9, g_breakpoints=()):
    """Level-counting side: integral over levels t of the sum of g over
    { x : the segment [u(x-), u(x+)] contains t }, on the level grid of
    ``coarea_default_tgrid``.

    Monotone pieces contribute one located point per level (one
    ``_level_search`` for every piece's levels); jump points contribute
    wherever t lies between the one-sided values; flat pieces are skipped
    (a null set of levels).  Every level cell is one window of one
    quadrature of the one level-counting integrand, to its share of tol."""
    monotone = _monotone_pieces(u)
    lows, highs, locate = _level_search(u, monotone)
    jumps = u.jumps()
    jlo = np.array([min(l, r) for _, l, r in jumps], dtype=float)
    jhi = np.array([max(l, r) for _, l, r in jumps], dtype=float)
    jg = _apply(g, np.array([x for x, _, _ in jumps])) if jumps else np.empty(0)
    t_grid = _coarea_tgrid(u, monotone, g_breakpoints)

    def located_sum(ts):
        ts = np.asarray(ts, dtype=float)
        flat_ts = ts.ravel()
        out = np.zeros(flat_ts.size)
        # the levels of every piece, piece by piece, in level order
        piece, at = np.nonzero((flat_ts > lows[:, None]) & (flat_ts < highs[:, None]))
        if at.size:
            # one add per piece and level, in piece order
            np.add.at(out, at, _apply(g, locate(piece, flat_ts[at])))
        jump, at = np.nonzero((flat_ts >= jlo[:, None]) & (flat_ts <= jhi[:, None]))
        np.add.at(out, at, jg[jump])
        return out.reshape(ts.shape)

    cells = [(t0, t1) for t0, t1 in zip(t_grid[:-1], t_grid[1:]) if t1 - t0 >= 1e-15]
    if not cells:
        return 0.0
    span = t_grid[-1] - t_grid[0]
    lo, hi = zip(*cells)
    windows = len(cells)
    totals = integrate_interval(
        located_sum,
        lo,
        hi,
        tol=[tol * (t1 - t0) / span for t0, t1 in cells],
        breakpoints=[()] * windows,
        cantor_supports=[()] * windows,
    )
    total = 0.0
    for part in totals:
        total += part
    return float(total)
