"""Scalar conservation laws with space-discontinuous flux.

The law is u_t + B(x,u)_x = 0 with B a flux model that is strictly monotone
in the state on a declared working range, so every flux level is inverted by
the package's one root search (``quadrature._bisect``, fed the state slope)
and the interface pairs satisfying the jump (Rankine-Hugoniot) condition can
be constructed exactly.
The module provides the level inversion ``c_alpha_values``, adapted
entropy/flux pairs built on it (entropy and flux both sided), their
piecewise-affine approximations with certified nonnegative kink
coefficients, a conservative first-order finite-volume solver whose
interface flux enforces the jump pairing at flux discontinuities, and a
measure-form entropy-residual checker.  The checker stacks blocks of time
slices: one test-function call per grid with a column of times, one level
inversion per grid and side, and one entropy call over the stacked states;
only per-cell pairings against a diffuse or Cantor x-part of the entropy
flux run slice by slice, with the chain-rule machinery.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .bvfunction import BVFunction, _level_search, _monotone_pieces, _value_range
from .chainrule import FluxModel, _window_pairing
from .errors import CFLError, DomainError, RangeError, RepresentationError
# unused here; perfbench's tracer tests expect claw to bind integrate_interval
from .quadrature import _bisect, integrate_interval  # noqa: F401

_KINK_BAND = 1e-12  # relative half-width of the starred-sign zero band

# Gauss-Legendre 12 on [-1, 1], the bits of numpy's routine, by the
# nonnegative nodes and their weights
_GL_HALF = np.array([
    (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
     0.9041172563704748, 0.9815606342467192),
    (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
     0.10693932599531907, 0.04717533638651141),
])
_GL_NODES, _GL_WEIGHTS = np.concatenate((_GL_HALF[:, ::-1] * [[-1.0], [1.0]], _GL_HALF), axis=1)

# Entries kept by the entropy-pair caches: level inversions and coefficient
# values per sample grid and side, and affine approximations per point or
# constancy cell.
_LEVEL_CACHE_SIZE = 16
_AFFINE_CACHE_SIZE = 1024
# test values at the Gauss nodes per block of entropy-residual slices: bounds
# the stacked temporaries
_BLOCK_VALUES = 1 << 14


def _star_sign(d, scale=1.0):
    """Precise-representative sign: 0 inside a narrow band around the kink."""
    d = np.asarray(d, dtype=float)
    band = _KINK_BAND * (1.0 + abs(scale))
    return np.where(np.abs(d) <= band, 0.0, np.sign(d))


@dataclass(frozen=True)
class ScalarFlux:
    """Flux model with scalar state, certified strictly monotone in the
    state on the working range [w_lo, w_hi].

    The certificates are exact in x: ``_enclosure`` bounds sum_k K_k(x) g_k
    over every x by the interval sum of K_k's exact range times g_k.  That
    is exact for one term; terms monotone only because they cancel are
    refused, so write the terms that share an f_k as one.  The state side
    is sampled at 33 even states: an f_k or f_k' turning between them passes
    unseen.  ``direction`` is +1 for increasing, -1 for decreasing.  A K
    whose Cantor summand fights its slope raises RepresentationError."""

    model: FluxModel  # with dim == 1
    w_lo: float
    w_hi: float
    direction: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.model, FluxModel) or self.model.dim != 1:
            raise DomainError(
                "conservation-law flux needs a scalar-state FluxModel (sum K_k f_k)"
            )
        if not self.w_hi > self.w_lo:
            raise DomainError("working range must be nondegenerate")
        # B(x, w_{j+1}) - B(x, w_j) = sum_k K_k(x) (f_k(w_{j+1}) - f_k(w_j))
        lo, hi = self._enclosure(lambda f, W: np.diff(np.asarray(f(W))))
        if np.all(lo > 0):
            direction = 1
        elif np.all(hi < 0):
            direction = -1
        else:
            raise DomainError(
                "flux is not certified strictly monotone in the state on the working range"
            )
        object.__setattr__(self, "direction", direction)

    @functools.cached_property
    def _ranges(self):
        """(inf K_k, sup K_k) per term, read off the representation."""
        return tuple(_value_range(K) for K, _ in self.model.terms)

    def _enclosure(self, factor):
        """Per state of the 33 even states of the working range, (lo, hi)
        with lo <= sum_k K_k(x) g_k <= hi at every x, g_k = factor(f_k, W)
        for the (1, 33) state array W: the sum over the terms, in term
        order from zero, of [min, max](kmin_k g_k, kmax_k g_k)."""
        W = np.linspace(self.w_lo, self.w_hi, 33)[None, :]
        lo = hi = 0.0
        for (kmin, kmax), (_, f) in zip(self._ranges, self.model.terms):
            g = factor(f, W)
            lo, hi = lo + np.minimum(kmin * g, kmax * g), hi + np.maximum(kmin * g, kmax * g)
        return lo, hi

    @property
    def domain(self):
        return self.model.domain

    def jump_points(self):
        return self.model.exceptional_set()

    def value(self, x, w, side="precise"):
        return self.model.eval(x, [float(w)], side)

    def values_on_grid(self, xs, ws, side=None):
        """B(xs_i, ws_i): right-continuous at jump points, or exactly
        one-sided in x when ``side`` is given."""
        xs = np.asarray(xs, dtype=float)
        ws = np.asarray(ws, dtype=float)
        return self.model.value_on_grid(xs, ws[None, :], side)

    def state_bound(self):
        """C with |B(x,u)| <= C on domain x working range, every sided value
        at a jump included, from the enclosure with g_k = f_k (33 states),
        times 1 + 1e-9."""
        bounds = self._enclosure(lambda f, W: np.asarray(f(W)))
        return float(np.abs(bounds).max()) * (1.0 + 1e-9)

    def speed_bound(self):
        """max |state derivative of B| over the space-state box, from the
        enclosure with g_k = f_k' (33 states): the CFL speed."""
        return float(np.abs(self._enclosure(lambda f, W: np.asarray(f.grad(W))[0])).max())


def _range_gaps(flux, ks, alpha):
    """B - alpha at the low and at the high end of the working range, from
    K at the points: the level is attained where the two share no strict
    sign."""
    shape = (1,) + alpha.shape
    return tuple(
        flux.model.combine(ks, np.full(shape, float(w))) - alpha for w in (flux.w_lo, flux.w_hi)
    )


def _require_attained(xs, alpha, side, attained):
    """RangeError naming the first point of ``xs`` whose level is not attained."""
    if not attained.all():
        i = int(np.argmin(attained))
        x, level = xs[i], np.broadcast_to(alpha, xs.shape)[i]
        raise RangeError(f"level {level} not attained by the flux at x={x} ({side or 'a.e.'})")


def _invert(flux, xs, alpha, ks):
    """Level inversion at each point of ``xs``, for one level or one per
    point, from K at the points on one side (``flux.model.coefficients``):
    (states, attained mask).

    Per point: an end of the working range that hits the level is returned,
    a same-sign bracket leaves the level unattained (state nan), and any
    other bracket goes to :func:`~bvcalc.quadrature._bisect`, with the
    state slope of B from the same K."""
    xs = np.asarray(xs, dtype=float)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), xs.shape)
    lo, hi = np.full(xs.shape, float(flux.w_lo)), np.full(xs.shape, float(flux.w_hi))
    # only the state changes between search passes: K comes in once
    model = flux.model
    flo, fhi = _range_gaps(flux, ks, alpha)
    out = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    attained = ~(flo * fhi > 0)
    live = np.flatnonzero(attained & (flo != 0.0) & (fhi != 0.0))
    ks, a = [k[live] for k in ks], alpha[live]

    def g(w, i):
        """B - alpha and its state slope sum_k K_k f_k'(w), in term order."""
        kw, W = [k[i] for k in ks], w[None, :]
        slope = np.zeros(W.shape)
        for k, (_, f) in zip(kw, model.terms):
            slope += k * np.asarray(f.grad(W))
        return model.combine(kw, W) - a[i], slope[0]

    out[live] = _bisect(g, lo[live], hi[live], fhi[live])
    return out, attained


def c_alpha_values(flux, xs, alpha, side=None):
    """The state c with B(x_side, c) = alpha at each point of ``xs``, for
    one level or one per point; side None takes the a.e. values
    (right-continuous at flux jumps).  RangeError names the first point
    where the level is not attained on the working range."""
    xs = np.asarray(xs, dtype=float)
    out, attained = _invert(flux, xs, alpha, flux.model.coefficients(xs, side))
    _require_attained(xs, alpha, side, attained)
    return out


def is_rankine_hugoniot(flux, x, u_minus, u_plus, tol=1e-10):
    """Whether the sided flux values match across x (the jump condition)."""
    left = flux.values_on_grid([x], [u_minus], "left")[0]
    right = flux.values_on_grid([x], [u_plus], "right")[0]
    return bool(abs(left - right) <= tol)


@dataclass(frozen=True)
class EntropyFluxPair:
    """Entropy/flux pair tied to one ScalarFlux.

    ``eta_fn(xs, us, side)`` and ``q_fn(xs, us, side)`` are vectorized and
    one-sided in x (side None: the a.e. values for eta); ``eta_u_fn(xs,
    us)`` is the vectorized a.e. state derivative.  eta_fn and q_fn take
    ``xs`` of shape (m,) and ``us`` of shape (..., m): the points broadcast
    against any stack of states, such as one row per time level.
    ``q_diffuse`` describes the diffuse part of the x-derivative of
    x -> q(x, u) at frozen state: None means it vanishes inside
    flux-smooth cells (piecewise-constant coefficients), the string
    "unsupported" means it is not available in closed form, and otherwise
    it is a triple (density(xs, v), cantor_sign(xs, v), cuts(v, lo, hi))."""

    flux: ScalarFlux
    eta_fn: object
    eta_u_fn: object
    q_fn: object
    q_diffuse: object = None
    label: str = field(default="", compare=False)

    def eta(self, xs, us, side=None):
        """Entropy eta(xs_i, us_i), one-sided in x when ``side`` is given;
        None takes the pair's a.e. values."""
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        return np.asarray(self.eta_fn(xs, us, side), dtype=float)

    def eta_u(self, xs, us):
        return np.asarray(
            self.eta_u_fn(np.asarray(xs, dtype=float), np.asarray(us, dtype=float)),
            dtype=float,
        )

    def q_values(self, xs, us, side="precise"):
        """Entropy flux q(xs_i, us_i), one-sided in x."""
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        return np.asarray(self.q_fn(xs, us, side), dtype=float)

    def q(self, x, u, side="precise"):
        return float(self.q_values(np.array([float(x)]), np.array([float(u)]), side)[0])

    # -- structural checks --------------------------------------------------
    def check_convexity(self, samples=33, tol=1e-10):
        """Second differences of eta(x, .) nonnegative on 7 x (9 even points
        less the ends, a.e. values) by ``samples`` even states; a concave
        dip between samples passes unseen."""
        dom = self.flux.domain
        xs = np.linspace(dom.a, dom.b, 9)[1:-1]
        us = np.linspace(self.flux.w_lo, self.flux.w_hi, samples)
        worst = 0.0
        for x in xs:
            vals = self.eta(np.full(us.shape, x), us)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            worst = min(worst, float(second.min()))
        return worst >= -tol, worst

    def check_compatibility(self, samples=200, tol=1e-6):
        """(state derivative of q) = eta_u * (state derivative of B) off
        the flux jump set, by centered differences at seeded random probes,
        one array call per handle and stencil point.  Probes whose
        difference stencil straddles an entropy kink (detected by a jump of
        eta_u across the stencil) are skipped."""
        rng = np.random.default_rng(0)
        dom = self.flux.domain
        h = 1e-6 * (self.flux.w_hi - self.flux.w_lo)
        lo, hi = self.flux.w_lo + 4 * h, self.flux.w_hi - 4 * h
        # per probe an x, then a u: rng.uniform's draws, probe by probe
        x, u = rng.random((samples, 2)).T
        xs, us = dom.a + (dom.b - dom.a) * x, lo + (hi - lo) * u
        smooth = np.abs(self.eta_u(xs, us + 2 * h) - self.eta_u(xs, us - 2 * h)) <= 0.5
        xs, us = xs[smooth], us[smooth]
        qd = (self.q_values(xs, us + h) - self.q_values(xs, us - h)) / (2 * h)
        target = self.eta_u(xs, us) * self.flux.model.diffuse_on_grid(xs, us[None, :])[2][0]
        worst = float((np.abs(qd - target) / np.maximum(1.0, np.abs(target))).max(initial=0.0))
        return worst <= tol and xs.size > 0, worst

    def check_jump_dissipation(self, n_states=17, tol=1e-10):
        """q(x+, u+) - q(x-, u-) <= tol on constructed jump-condition
        pairs; returns (ok, worst difference, pairs checked)."""
        uls = np.linspace(self.flux.w_lo, self.flux.w_hi, n_states)[1:-1]
        diffs = []
        for x in self.flux.jump_points():
            xs = np.full(uls.shape, float(x))
            levels = self.flux.values_on_grid(xs, uls, "left")
            urs, hit = _invert(self.flux, xs, levels, self.flux.model.coefficients(xs, "right"))
            q_right = self.q_values(xs[hit], urs[hit], "right")
            diffs += (q_right - self.q_values(xs[hit], uls[hit], "left")).tolist()
        worst = max(diffs, default=0.0)
        return worst <= tol, worst, len(diffs)


def adapted_entropy_pair(flux, alpha):
    """The adapted entropy |u - c_alpha(x)| with entropy flux
    (B(x,u) - alpha) times the starred sign of u - c_alpha(x).

    The starred sign takes the value 0 on the kink.  On pairs satisfying
    the jump condition whose starred signs agree on both sides, the sided
    difference of the entropy flux vanishes identically; for a strictly
    monotone flux both signs equal the sign of (carried level - alpha), so
    this holds on every jump-condition pair."""
    dom = flux.domain
    probe = np.linspace(dom.a, dom.b, 17)[1:-1]
    # fail early when not attained at 15 probes: the range ends decide it, no
    # bisection; at a jump the mean of the sides attains what both attain
    flo, fhi = _range_gaps(
        flux, flux.model.coefficients(probe, "precise"), np.full(probe.shape, float(alpha))
    )
    _require_attained(probe, alpha, "precise", ~(flo * fhi > 0))

    @functools.lru_cache(maxsize=_LEVEL_CACHE_SIZE)
    def on_grid(key, side):
        """K and c_alpha on ``side`` at the grid whose bytes are ``key``: a
        residual's slices share their face grid, so only the states change."""
        xs = np.frombuffer(key)
        ks = flux.model.coefficients(xs, side)
        levels, attained = _invert(flux, xs, alpha, ks)
        _require_attained(xs, alpha, side, attained)
        return ks, levels

    def c_on(xs, side=None):
        xs = np.asarray(xs, dtype=float)
        return on_grid(xs.tobytes(), side)[1].reshape(xs.shape)

    def eta_fn(xs, us, side):
        return np.abs(us - c_on(xs, side))

    def eta_u_fn(xs, us):
        return _star_sign(us - c_on(xs))

    def q_fn(xs, us, side):
        c = c_on(xs, side)
        s = _star_sign(us - c, scale=np.maximum(np.abs(us), np.abs(c)))
        # combine sizes its sum by K: K is shaped to the stack of states here
        ks = [np.broadcast_to(k, us.shape) for k in on_grid(xs.tobytes(), side)[0]]
        return (flux.model.combine(ks, us[None]) - alpha) * s

    def q_density(xs, v):
        """a.e. density of the diffuse x-derivative of q(., v): the sign
        factor is locally constant off the level crossing (where the
        leading factor vanishes), so the density is sign * x-gradient."""
        xs = np.asarray(xs, dtype=float)
        val, gx, _ = flux.model.diffuse_on_grid(xs, np.full((1,) + xs.shape, float(v)))
        return np.sign(val - alpha) * flux.direction * gx

    def q_cantor_sign(xs, v):
        xs = np.asarray(xs, dtype=float)
        return (
            np.sign(flux.values_on_grid(xs, np.full(xs.shape, float(v))) - alpha)
            * flux.direction
        )

    def cuts(v, lo, hi):
        """Crossings of alpha by the BV function B(., v) inside ]lo, hi[, the
        cuts of the sign factor: a point on each monotone piece whose open
        range holds alpha, and each end two pieces share with alpha between
        the sided values there (a jump across alpha, or a piece meeting it)."""
        section = flux.model.section([float(v)])
        monotone = _monotone_pieces(section)
        lows, highs, locate = _level_search(section, monotone)
        rows = np.flatnonzero((lows < alpha) & (alpha < highs))
        xs = locate(rows, np.full(rows.size, float(alpha))).tolist()
        xs += [p[0] for q, p in zip(monotone, monotone[1:]) if min(q[3], p[2]) <= alpha <= max(q[3], p[2])]
        return tuple(x for x in sorted(set(xs)) if lo < x < hi)

    return EntropyFluxPair(
        flux, eta_fn, eta_u_fn, q_fn,
        q_diffuse=(q_density, q_cantor_sign, cuts),
        label=f"adapted[{alpha:.6g}]",
    )


@dataclass(frozen=True)
class AffineEntropy:
    """Piecewise-affine convex entropy at one point and side:
    eta_N(u) = a + b*u + sum_i kink_coeffs[i] |u - knots[i]|, with the
    matching flux q_N(x,u) = b*B(x,u) + sum_i kink_coeffs[i] times the
    adapted flux at level levels[i]."""

    x: float
    side: str
    a: float
    b: float
    levels: tuple       # flux levels carried by the interior knots
    knots: tuple        # inverted levels at (x, side), ascending
    kink_coeffs: tuple  # nonnegative weights of |u - knots[i]|
    grid_knots: tuple   # all inverted levels, end knots included
    flux: ScalarFlux

    def eta(self, u):
        u = np.asarray(u, dtype=float)
        out = self.a + self.b * u
        for c, w in zip(self.knots, self.kink_coeffs):
            out = out + w * np.abs(u - c)
        return out

    def eta_u(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full(np.shape(u), self.b)
        for c, w in zip(self.knots, self.kink_coeffs):
            out = out + w * _star_sign(u - c, scale=max(1.0, abs(c)))
        return out

    def q(self, u):
        """Matching flux at the build point and side (the kink signs and
        the flux value are taken on that side)."""
        bval = self.flux.value(self.x, float(u), self.side)
        out = self.b * bval
        for lev, c, w in zip(self.levels, self.knots, self.kink_coeffs):
            s = float(_star_sign(float(u) - c, scale=max(abs(float(u)), abs(c))))
            out += w * (bval - lev) * s
        return float(out)


def affine_entropy_approx(pair, flux, N, x, side="precise"):
    """Convex piecewise-affine interpolation of ``pair``'s entropy at the
    flux levels i*C/N attained at (x, side), C the flux bound.

    Coefficients: chord slopes of the entropy between consecutive inverted
    levels; the linear weight is the mean of the extreme slopes, each kink
    weight is half the increase of the chord slope (nonnegative by
    convexity), and the constant is fixed by interpolation at the lowest
    knot — so the approximation interpolates the entropy at every inverted
    level.  RangeError when fewer than two levels are attained."""
    C = flux.state_bound()
    grid = np.arange(-N, N + 1) * C / N
    xs = np.full(grid.shape, float(x))
    knots, hit = _invert(flux, xs, grid, flux.model.coefficients(xs, side))
    if hit.sum() < 2:
        raise RangeError("fewer than two flux levels attained: index set too small")
    order = np.argsort(knots[hit])
    cs = knots[hit][order]
    lv = grid[hit][order]
    eta_vals = pair.eta(float(x), cs, side)
    delta = (eta_vals[1:] - eta_vals[:-1]) / (cs[1:] - cs[:-1])
    b = 0.5 * (delta[0] + delta[-1])
    # nonnegative for convex eta; clip the round-off of exactly-flat chords
    kink = np.maximum(0.5 * (delta[1:] - delta[:-1]), 0.0)
    a = float(eta_vals[0] - b * cs[0] - np.sum(kink * (cs[1:-1] - cs[0])))
    return AffineEntropy(
        float(x), side, a, float(b),
        tuple(float(v) for v in lv[1:-1]),
        tuple(float(c) for c in cs[1:-1]),
        tuple(float(w) for w in kink),
        tuple(float(c) for c in cs),
        flux,
    )


def affine_pair(flux, base_pair, N):
    """EntropyFluxPair whose handles rebuild the affine approximation of
    ``base_pair`` at each requested point and side.

    When every flux coefficient is piecewise constant, the coefficients
    are cached per constancy cell (keyed by the coefficient values) and
    the diffuse x-derivative of the matching flux vanishes inside cells;
    otherwise the diffuse part is reported as unavailable."""
    is_pwc = all(
        K.smooth_part.derivative().is_zero() and not K.cantor_part
        for K, _ in flux.model.terms
    )
    cache = OrderedDict()  # least recently used first

    def key_for(x, side):
        if is_pwc:
            vals = tuple(round(K.eval(x, side), 12) for K, _ in flux.model.terms)
            return (side,) + vals
        return (side, round(float(x), 14))

    def at(x, side):
        if side == "precise" and any(abs(x - p) < 1e-13 for p in flux.jump_points()):
            raise DomainError(
                "affine coefficients at a flux jump need an explicit side"
            )
        key = key_for(float(x), side)
        if key in cache:
            cache.move_to_end(key)
        else:
            cache[key] = affine_entropy_approx(base_pair, flux, N, float(x), side)
            if len(cache) > _AFFINE_CACHE_SIZE:
                cache.popitem(last=False)
        return cache[key]

    def eta_fn(xs, us, side):
        xs, us = np.broadcast_arrays(xs, us)
        vals = [float(at(x, side or "precise").eta(u)) for x, u in zip(xs.ravel(), us.ravel())]
        return np.reshape(vals, us.shape)

    def eta_u_fn(xs, us):
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        return np.array([float(at(x, "precise").eta_u(u)) for x, u in zip(xs, us)])

    def q_fn(xs, us, side):
        xs, us = np.broadcast_arrays(xs, us)
        vals = [at(x, side).q(u) for x, u in zip(xs.ravel().tolist(), us.ravel().tolist())]
        return np.reshape(vals, us.shape)

    return EntropyFluxPair(
        flux, eta_fn, eta_u_fn, q_fn,
        q_diffuse=None if is_pwc else "unsupported",
        label=f"affine[N={N}] of {base_pair.label}",
    )


# ---------------------------------------------------------------------------
# finite-volume solver


@dataclass
class ClawField:
    """Cell-average field of a conservation-law run: interfaces ``edges``
    (flux jumps snapped onto them), time levels ``times``, one row of
    ``states`` per time level, and the interface flux record ``traces``
    per step."""

    flux: ScalarFlux
    edges: np.ndarray
    times: np.ndarray
    states: np.ndarray
    traces: np.ndarray

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self):
        return np.diff(self.edges)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def mass(self, n):
        return float(np.dot(self.states[n], self.widths))

    def mass_defects(self):
        """Per-step conservation defect: mass change corrected by the
        boundary flux difference (interior fluxes telescope away)."""
        widths = self.widths
        masses = [float(np.dot(row, widths)) for row in self.states]
        out = []
        for n in range(len(self.times) - 1):
            dt = self.times[n + 1] - self.times[n]
            boundary = dt * (self.traces[n][-1] - self.traces[n][0])
            out.append(masses[n + 1] - masses[n] + boundary)
        return np.asarray(out)

    def slice_values(self, n):
        return np.asarray(self.states[n], dtype=float)

    def slice_pwc(self, n):
        from .pwconst import PiecewiseConstant

        vals = self.slice_values(n)
        nodes = 0.5 * (vals[:-1] + vals[1:])
        return PiecewiseConstant(tuple(self.edges), tuple(vals), tuple(nodes))

    @staticmethod
    def from_function(flux, fn, T, cells, steps):
        """Field filled by sampling an explicit (x, t) solution at cell
        centers — for injecting manufactured or non-entropic weak
        solutions.  The flux-trace record is zero and the mass-defect
        accounting does not apply."""
        edges = _snapped_edges(flux, cells)
        centers = 0.5 * (edges[:-1] + edges[1:])
        times = np.linspace(0.0, float(T), steps + 1)
        states = np.array([np.asarray(fn(centers, t), dtype=float) for t in times])
        traces = np.zeros((steps, len(edges)))
        return ClawField(flux, edges, times, states, traces)


def _snapped_edges(flux, cells):
    dom = flux.domain
    edges = np.linspace(dom.a, dom.b, cells + 1)
    for p in flux.jump_points():
        j = int(np.argmin(np.abs(edges - p)))
        j = min(max(j, 1), cells - 1)
        edges[j] = p
    if not set(flux.jump_points()) <= set(edges.tolist()):
        raise DomainError("two flux jumps share their nearest grid edge; use more cells")
    return edges


def _interface_flux(flux, edges):
    """Upwind interface fluxes with the jump coupling: at a flux-jump
    interface the upwind sided value is carried across, so the implied
    cross-interface states form a jump-condition pair by construction.
    Zero-gradient ghost states close the boundary.

    Returns F(u), the fluxes at ``edges`` for the cell states u.  Each
    face's upwind cell and K on its group's side (the inflow face downwind,
    flux jumps and the outflow face upwind, the rest precise) are built here
    once; F(u) is one gather and one ``combine``, each f_k evaluated once,
    by the float operations of ``flux.values_on_grid`` on each group."""
    n = len(edges) - 1
    faces = np.arange(n + 1)
    if flux.direction > 0:
        src = np.maximum(faces - 1, 0)
        inflow, outflow, upwind, downwind = 0, n, "left", "right"
    else:
        src = np.minimum(faces, n - 1)
        inflow, outflow, upwind, downwind = n, 0, "right", "left"
    carried = np.isin(edges, flux.jump_points())
    carried[outflow] = True
    precise = ~carried
    precise[inflow] = False
    ks = np.empty((len(flux.model.terms), n + 1))
    for mask, side in ((faces == inflow, downwind), (carried, upwind), (precise, "precise")):
        ks[:, mask] = flux.model.coefficients(edges[mask], side)
    return lambda u: flux.model.combine(ks, u[src][None, :])


def solve_claw(flux, u0, T, cells, cfl=0.45):
    """First-order conservative upwind solve of u_t + B(x,u)_x = 0.

    The monotone direction fixes the upwind side; flux-jump interfaces
    carry the upwind sided value across (the cross-interface states then
    satisfy the jump condition exactly, and profiles at a constant flux
    level are preserved to round-off).  The CFL number is capped at 1/2.
    RangeError when the initial data, or the solution at some time, leaves
    the working range the flux is certified on."""
    if not 0 < cfl <= 0.5:
        raise CFLError("CFL number must lie in ]0, 1/2]")
    if not T > 0:
        raise DomainError("final time must be positive")
    if cells < 4:
        raise DomainError("need at least 4 cells")
    edges = _snapped_edges(flux, cells)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if not isinstance(u0, BVFunction):
        raise DomainError("the initial datum must be a BVFunction")
    u = u0.values(centers)
    if u.min() < flux.w_lo - 1e-12 or u.max() > flux.w_hi + 1e-12:
        raise RangeError("initial data leaves the working range")
    speed = flux.speed_bound()
    if speed <= 0:
        raise DomainError("flux speed bound is zero; nothing propagates")
    widths = np.diff(edges)
    steps = max(1, math.ceil(T * speed / (cfl * float(widths.min()))))
    dt = T / steps
    times = dt * np.arange(steps + 1)
    states, traces = np.empty((steps + 1, u.size)), np.empty((steps, u.size + 1))
    states[0] = u
    interface_flux = _interface_flux(flux, edges)
    for n in range(steps):
        F = interface_flux(u)
        u = u - dt * (F[1:] - F[:-1]) / widths
        traces[n], states[n + 1] = F, u
    outside = (states.min(axis=1) < flux.w_lo - 1e-12) | (states.max(axis=1) > flux.w_hi + 1e-12)
    if outside.any():
        t = float(times[np.argmax(outside)])
        raise RangeError(f"the solution leaves the working range at t={t!r}")
    return ClawField(flux, edges, times, states, traces)


# ---------------------------------------------------------------------------
# entropy residual


@dataclass(frozen=True)
class SpaceTimeTest:
    """Nonnegative test function on a space-time box, vectorized in x.

    ``t`` is one time or an array of times (say a column) that broadcasts
    against ``xs``; ``fn`` gets it as an array either way."""

    x_support: tuple
    t_support: tuple
    fn: object  # (xs, t) -> values, t a scalar or an array
    label: str = field(default="", compare=False)

    def __call__(self, xs, t):
        xs = np.asarray(xs, dtype=float)
        x0, x1 = self.x_support
        t0, t1 = self.t_support
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(xs, t), dtype=float)
        return np.where((xs > x0) & (xs < x1) & (t > t0) & (t < t1), out, 0.0)

    @staticmethod
    def bump(x_support, t_support, amplitude=1.0, label=""):
        """Product of squared parabolic bumps in x and t (nonnegative)."""
        x0, x1 = x_support
        t0, t1 = t_support

        def t_factor(t):
            st = (2.0 * (t - t0) / (t1 - t0)) - 1.0
            return max(0.0, 1.0 - st * st) ** 2

        def fn(xs, t):
            sx = (2.0 * (np.asarray(xs, dtype=float) - x0) / (x1 - x0)) - 1.0
            gx = np.clip(1.0 - sx * sx, 0.0, None) ** 2
            # one scalar power per time: numpy's array square can differ
            # from it in the last bit
            gt = np.reshape([t_factor(s) for s in np.ravel(t)], np.shape(t))
            return amplitude * gx * gt

        return SpaceTimeTest((x0, x1), (t0, t1), fn, label or "bump")


def _bracket_sums(pair, xs, left, right, pvs):
    """Per slice of a stack, the interface brackets of the sided entropy
    flux against the test values ``pvs`` (slices, faces) at the faces
    ``xs``, with ``left``/``right`` the cell states on either side: the sum
    of pv * (q(x+, right) - q(x-, left)) over the faces where pv != 0, in
    face order.  Two ``q_values`` calls serve the whole stack."""
    q_jump = pair.q_values(xs, right, "right") - pair.q_values(xs, left, "left")
    sums = []
    for terms, keep in zip(pvs * q_jump, pvs != 0.0):
        total = 0.0
        for term in terms[keep].tolist():
            total += term
        sums.append(total)
    return sums


def _slice_q_pairing(pair, edges, vals, phi_x, brackets, tol=1e-7):
    """Pairing of a spatial test slice against d(q(., u))_x for one
    piecewise-constant state slice: the interface brackets of the sided
    entropy-flux values (``brackets``, the slice's ``_bracket_sums``) plus,
    per cell, the diffuse and Cantor pairings of
    ``chainrule._window_pairing``, cut at the level crossings where the
    entropy flux's sign jumps."""
    total = brackets
    if pair.q_diffuse is None:
        return total
    if pair.q_diffuse == "unsupported":
        raise RepresentationError(
            "this entropy pair has no closed-form diffuse x-derivative; "
            "use piecewise-constant flux coefficients"
        )
    density, cantor_sign, cuts = pair.q_diffuse
    model = pair.flux.model
    has_ac = any(not K.smooth_part.derivative().is_zero() for K, _ in model.terms)
    singular = model.singular_densities()
    if not has_ac and not singular:
        return total
    bps, sups = model.breakpoints(), model.cantor_supports()
    for lo, hi, v in zip(edges[:-1].tolist(), edges[1:].tolist(), vals.tolist()):
        total += _window_pairing(
            phi_x, lo, hi,
            (lambda xs: density(xs, v)) if has_ac else None,
            tuple(
                (base, lambda xs, d=dens: d(xs, np.full((1,) + xs.shape, v)) * cantor_sign(xs, v))
                for base, dens in singular
            ),
            tol, tuple(sorted(set(bps) | set(cuts(v, lo, hi)))), sups,
        )
    return total


def entropy_residual(field, pair, phi, tol=1e-7):
    """Discrete space-time pairing of a nonnegative test function against
    the entropy-production distribution of the field: time differences of
    the entropy against mid-step test values, plus the per-slice pairing
    against the x-derivative of the composed entropy flux, weighted by the
    step length.  Nonpositive up to discretization for entropic fields;
    strictly positive on entropy-violating shocks.

    The slices are taken in blocks of at most _BLOCK_VALUES test values at
    the Gauss nodes.  Per block, phi is evaluated once on the centers, the
    edges and the nodes with a column of slice midpoints; eta is taken once
    on the live nodes, over every state level of the block, and the face
    brackets come from one ``q_values`` call per side on the live faces, so
    an adapted pair inverts its levels once per grid and side.  So
    ``pair``'s eta_fn and q_fn get points of shape (m,) with states of shape
    (levels, m), and ``phi`` gets a (slices, 1) column of times.  The totals
    are added in slice order: the Gauss rows of the live cells, then the
    step length times the bracket sum plus any per-cell window pairings."""
    edges = field.edges
    centers = field.centers
    inner = edges[1:-1]
    # per-cell Gauss panels, one row each
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    weights = half[:, None] * _GL_WEIGHTS
    times, states = field.times, field.states
    t_mids = 0.5 * (times[:-1] + times[1:])
    dts = (times[1:] - times[:-1]).tolist()
    block = max(1, _BLOCK_VALUES // nodes.size)
    total = 0.0
    for start in range(0, len(t_mids), block):
        ts = t_mids[start:start + block, None]
        pe = phi(edges, ts)
        used = np.flatnonzero(phi(centers, ts).any(axis=1) | pe.any(axis=1))
        if not used.size:
            continue
        ts, pf, steps = ts[used], pe[used, 1:-1], start + used
        pv = phi(nodes.ravel(), ts).reshape((len(used),) + nodes.shape)
        rows = pv.any(axis=2)
        live, faces = rows.any(axis=0), (pf != 0.0).any(axis=0)
        xs, fx = nodes[live].ravel(), inner[faces]
        # eta on each state level the block reaches, once
        first = steps[0]
        eta = pair.eta(xs, np.repeat(states[first:steps[-1] + 2, live], nodes.shape[1], axis=1))
        k = steps - first
        prods = pv[:, live] * (eta[k + 1] - eta[k]).reshape(len(used), -1, nodes.shape[1])
        dots = np.matmul(prods[:, :, None, :], weights[live][:, :, None])[:, :, 0, 0]
        v0 = states[steps]
        brackets = _bracket_sums(pair, fx, v0[:, :-1][:, faces], v0[:, 1:][:, faces], pf[:, faces])
        for j, n in enumerate(steps.tolist()):
            for d in dots[j][rows[j, live]].tolist():
                total += d
            phi_x = functools.partial(phi, t=ts[j, 0])
            total += dts[n] * _slice_q_pairing(pair, edges, v0[j], phi_x, brackets[j], tol)
    return float(total)
