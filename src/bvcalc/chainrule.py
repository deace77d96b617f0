"""Chain rule for compositions v(x) = B(x, u(x)) with BV flux and BV state.

The main flux class, ``FluxModel``, is the finite sum
B(x,w) = sum_k K_k(x) f_k(w) with each K_k a closed-form BV function of x
and each f_k a C^1 function of w.  This class satisfies constructively all
the structural hypotheses the identity needs: a finite exceptional set (the
union of the K jump sets), a modulus measure built from Lipschitz bounds,
and, per Cantor base of the K, the density of the singular x-part against
that base.  ``CompositeFlux`` is the composition B(x,w) = f2(K(x), w) with
one BV coefficient.

Both implement one flux protocol: ``domain``, ``breakpoints()``,
``cantor_supports()`` and ``exceptional_set()``; the grid evaluators
``value_on_grid(xs, W, side)`` and ``diffuse_on_grid(xs, W)`` (B with its
a.e. x-gradient and its state gradient, at once), which also serve the
point terms, one call per side; and ``singular_densities()``, the density
of the singular x-derivative against each Cantor base of the coefficients.
Every integral against a Cantor base goes through ``CantorBase.integrate``.

One private assembler computes the lhs and the five terms of the identity
for any flux of the protocol, by quadrature aware of all breakpoints and
Cantor supports; the lhs and the two diffuse gradient terms of every test
function of a case are one stacked integrand, its two singular terms one
per Cantor base, and its jump brackets one flux call per side.
``chainrule_terms`` and the weighted form are calls to it, and the starred
rewriting reuses a finished report and recomputes only its two jump sums.
The piecewise-constant direct assembly and the level-set comparison
identity are independent checks with their own point sums; their per-cell parts,
like those of the entropy-flux slices in ``claw``, are calls of
``_window_pairing``.

Sign convention: the five terms are stored in positive form (the plain
integrals/sums, without the leading minus signs of the identity), so the
verified statement reads lhs + sum(terms) = 0, with
lhs = integral of phi'(x) B(x, u(x)) dx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bvfunction import BVFunction, BVVector, _value_range
from .errors import DomainError
from .measures import PiecewisePolynomial, _horner
from .quadrature import _merge_supports, integrate_interval

_GRID_LIP_MARGIN = 1.05


def _box_grid(lo, hi, grid):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = [np.linspace(lo[i], hi[i], grid) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


@dataclass(frozen=True)
class SmoothFunction:
    """C^1 function of the state vector with closed-form gradient.

    ``value`` maps an array of shape (d,) or (d, N) to a scalar / (N,);
    ``grad`` maps the same inputs to (d,) / (d, N).  Contract: at a (d,)
    state both give bit for bit its column's values in a (d, N) call
    (elementwise float operations keep this; numpy's ``**`` does not).
    Lipschitz bounds over a box come from a dense-grid gradient bound."""

    value: object
    grad: object
    label: str = field(default="", compare=False)

    def __call__(self, w):
        return self.value(np.asarray(w, dtype=float))

    def gradient(self, w):
        return np.asarray(self.grad(np.asarray(w, dtype=float)), dtype=float)

    def lipschitz_bound(self, lo, hi):
        """Upper bound for |grad f| over the box [lo_i, hi_i]: 1.05 times
        the largest on 33 even points per axis (f is a closure); a gradient
        peak between them can exceed it."""
        pts = _box_grid(lo, hi, 33)
        g = self.gradient(pts)
        norms = np.sqrt(np.sum(np.asarray(g) ** 2, axis=0))
        return float(norms.max() * _GRID_LIP_MARGIN)

    def check_gradient(self, probes, step=1e-6, rtol=1e-5):
        """Finite-difference consistency of the gradient handle at the probe
        points, by array calls; returns (ok, worst relative error)."""
        W = np.asarray(probes, dtype=float).T
        g = self.gradient(W)
        worst = 0.0
        for i in range(W.shape[0]):
            e = np.zeros((W.shape[0], 1))
            e[i] = step
            fd = (np.asarray(self.value(W + e)) - np.asarray(self.value(W - e))) / (2 * step)
            scale = np.maximum(np.maximum(1.0, np.abs(fd)), np.abs(g[i]))
            worst = max(worst, float((np.abs(fd - g[i]) / scale).max()))
        return worst <= rtol, worst

    # -- common factories ---------------------------------------------------
    @staticmethod
    def poly1d(coeffs, label=""):
        """Univariate polynomial of w[0] (d = 1)."""
        c = np.asarray(coeffs, dtype=float)
        dc = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)

        def value(w):
            return _horner(c, np.asarray(w)[0])

        def grad(w):
            w0 = np.asarray(w, dtype=float)[0]
            return _horner(dc, w0)[None, ...]

        return SmoothFunction(value, grad, label or "poly")


@dataclass(frozen=True)
class FluxModel:
    """B(x, w) = sum_k K_k(x) f_k(w) on a shared domain; d = ``dim``."""

    terms: tuple  # of (BVFunction, SmoothFunction)
    dim: int = 1

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise DomainError("flux model needs at least one term")
        d0 = terms[0][0].domain
        for K, _ in terms[1:]:
            if (K.domain.a, K.domain.b) != (d0.a, d0.b):
                raise DomainError("flux terms must share the domain")
        object.__setattr__(self, "terms", terms)
        _merge_supports(self.cantor_supports())  # identical or disjoint

    @property
    def domain(self):
        return self.terms[0][0].domain

    # -- structure ----------------------------------------------------------
    def exceptional_set(self):
        """The finite exceptional x-set: union of the K jump sets."""
        pts = set()
        for K, _ in self.terms:
            pts.update(K.jump_set())
        return tuple(sorted(pts))

    def breakpoints(self):
        pts = set()
        for K, _ in self.terms:
            pts.update(K.breakpoints())
        return tuple(sorted(pts))

    def cantor_supports(self):
        sups = set()
        for K, _ in self.terms:
            sups.update(K.cantor_supports())
        return tuple(sorted(sups))

    def singular_densities(self):
        """Per Cantor base of the coefficients, (base, density): density(xs, W)
        = sum_k c_k f_k(W) is the singular x-derivative of B(., W) against
        the base's standard Cantor measure."""
        groups = {}
        for K, f in self.terms:
            for base, c in K.cantor_part:
                groups.setdefault(base, []).append((c, f))
        return tuple(
            (base, lambda xs, W, pairs=pairs: sum(c * np.asarray(f(W)) for c, f in pairs))
            for base, pairs in groups.items()
        )

    # -- evaluation ---------------------------------------------------------
    def coefficients(self, xs, side=None):
        """Per term, K_k at the points ``xs``: the a.e. values (right-
        continuous at jumps) with ``side`` None, otherwise the exact sided
        values (``BVFunction.at``)."""
        xs = np.asarray(xs, dtype=float)
        return [K.values(xs) if side is None else K.at(xs, side) for K, _ in self.terms]

    def combine(self, ks, W):
        """sum_k ks[k] f_k(W), in term order, from the ``coefficients``."""
        out = np.zeros(np.shape(ks[0]))
        for k, (_, f) in zip(ks, self.terms):
            out += k * np.asarray(f(W))
        return out

    def value_on_grid(self, xs, W, side=None):
        """B(xs_i, W[:, i]) vectorized; W has shape (dim,) + xs.shape, or
        (dim,) for one state at every point; ``side`` as in
        ``coefficients``."""
        return self.combine(self.coefficients(xs, side), W)

    def diffuse_on_grid(self, xs, W):
        """(B, a.e. x-gradient, state gradient) at (xs_i, W[:, i]), each
        coefficient and its slope from one piece lookup: one pass."""
        xs = np.asarray(xs, dtype=float)
        val, gx, gw = np.zeros(xs.shape), np.zeros(xs.shape), np.zeros((self.dim,) + xs.shape)
        for K, f in self.terms:
            k, slope = K.values_with_slope(xs)
            fw = np.asarray(f(W))
            val += k * fw
            slope *= fw
            gx += slope
            gw += k[None, :] * np.asarray(f.grad(W))
        return val, gx, gw

    def eval(self, x, w, side="precise"):
        """B at one point, one-sided in x, and one state w: a one-column
        ``value_on_grid`` call."""
        W = np.asarray(w, dtype=float)[:, None]
        return float(self.value_on_grid(np.array([float(x)]), W, side)[0])

    def section(self, w):
        """B(., w) = sum_k f_k(w) K_k at a frozen state w, as a BVFunction: a
        weighted sum of the K's pieces on their union mesh, tabled once."""
        fw = [float(np.asarray(f(np.asarray(w, dtype=float)))) for _, f in self.terms]
        mesh, table = self._table
        cantor = [(b, c * a) for c, (K, _) in zip(fw, self.terms) for b, a in K.cantor_part]
        pieces = sum(c * t for c, t in zip(fw, table)).tolist()
        return BVFunction(self.domain, PiecewisePolynomial(mesh, pieces), tuple(cantor))

    @cached_property
    def _table(self):
        mesh = sorted(set().union(*(K.smooth_part.breakpoints for K, _ in self.terms)))
        pieces = [K.smooth_part.refine(mesh).pieces for K, _ in self.terms]
        width = max(len(p) for ps in pieces for p in ps)
        return mesh, np.array([[p + (0.0,) * (width - len(p)) for p in ps] for ps in pieces])

    def x_measure(self, w):
        """The x-derivative measure of B(., w) at a frozen state."""
        return self.section(w).derivative()

    def modulus_measure(self, lo, hi):
        """Constructed state-modulus measure sum_k Lip_k |DK_k|, with the
        Lipschitz bounds taken over the state box [lo, hi]."""
        out = None
        for K, f in self.terms:
            m = K.derivative().tv_measure().scale(f.lipschitz_bound(lo, hi))
            out = m if out is None else out + m
        return out


@dataclass(frozen=True)
class CompositeFlux:
    """B(x, w) = f2(K(x), w) for one BV coefficient K, with ``f2`` a
    SmoothFunction of the stacked vector (y, w).  The exceptional set is
    the jump set of K, and on each Cantor base of K with coefficient c the
    singular x-derivative has density c df2/dy."""

    f2: SmoothFunction
    K: BVFunction

    @property
    def domain(self):
        return self.K.domain

    def breakpoints(self):
        return self.K.breakpoints()

    def cantor_supports(self):
        return self.K.cantor_supports()

    def exceptional_set(self):
        return self.K.jump_set()

    def _stacked(self, xs, W, side=None):
        k = self.K.values(xs) if side is None else self.K.at(xs, side)
        return np.vstack([k[None, :], W])

    def value_on_grid(self, xs, W, side=None):
        return np.asarray(self.f2(self._stacked(np.asarray(xs, dtype=float), W, side)))

    def diffuse_on_grid(self, xs, W):
        k, slope = self.K.values_with_slope(np.asarray(xs, dtype=float))
        Y = np.vstack([k[None, :], W])
        g = np.asarray(self.f2.grad(Y))
        return np.asarray(self.f2(Y)), g[0] * slope, g[1:]

    def singular_densities(self):
        return tuple(
            (base, lambda xs, W, c=coef: c * np.asarray(self.f2.grad(self._stacked(xs, W)))[0])
            for base, coef in self.K.cantor_part
        )


def flux_derivatives(B, x, w):
    """Pointwise (x-gradient, state gradient, singular density per base) at
    (x, w); x must avoid the exceptional set.  The singular density is the
    one of ``B.singular_densities()``, against the base's standard Cantor
    measure."""
    x = float(x)
    if x in set(B.exceptional_set()):
        raise DomainError("pointwise x-derivative undefined on the exceptional set")
    w = np.asarray(w, dtype=float)
    xs = np.array([x])
    W = w[:, None]
    _, gx, gw = B.diffuse_on_grid(xs, W)
    psi = {base: float(dens(xs, W)[0]) for base, dens in B.singular_densities()}
    return float(gx[0]), gw[:, 0], psi


@dataclass(frozen=True)
class ChainRuleReport:
    """Term-by-term evaluation, positive-form storage:
    residual = lhs + sum(terms).  ``singular_vacuous`` records that the
    flux carries no Cantor part, so the second slot is identically zero
    rather than a computed integral."""

    lhs: float
    terms: tuple  # (grad_x, singular_x, grad_u, cantor_u, jump_sum)
    singular_vacuous: bool = False

    @property
    def residual(self):
        return self.lhs + float(sum(self.terms))

    @property
    def total(self):
        return float(sum(self.terms))


def _sum_in_order(values, total=0.0):
    """total + values[0] + values[1] + ..., one addition at a time."""
    for v in values.tolist():
        total += v
    return total


def _as_vector(u):
    return BVVector((u,)) if isinstance(u, BVFunction) else u


def _window(B, phi):
    return max(phi.support.a, B.domain.a), min(phi.support.b, B.domain.b)


def _layout(phi, *parts):
    """(lo, hi, breakpoints, Cantor supports) of a case: the window of the
    first part (the flux) against phi, and the union over the parts
    (flux, state, weight) with phi's support ends among the breakpoints.
    Outside ]lo, hi[ a breakpoint never shapes the cell layout, so the lhs
    and the diffuse terms share one layout."""
    bps = {phi.support.a, phi.support.b}
    sups = set()
    for p in parts:
        bps.update(p.breakpoints())
        sups.update(p.cantor_supports())
    return (*_window(parts[0], phi), tuple(sorted(bps)), tuple(sorted(sups)))


def _assemble(B, u, phis, tol, g_diffuse=None, g=None):
    """Per test function of ``phis``, the lhs and the five positive-form
    terms, for any flux of the protocol.

    Each phi keeps its own layout, cuts and points, and u and the flux are
    evaluated once per node for all of them: the diffuse terms are
    components of one stacked integrand, the singular terms of one per
    Cantor base, and the jump brackets of every jump point inside some
    window are one array call of the flux per side.  With a BV weight
    ``g`` the diffuse and singular terms see phi times ``g_diffuse`` (a
    vectorized representative of g), the jump sum sees phi g*, the layout
    gains g's breakpoints and supports, and the lhs is not computed
    (reported as None)."""
    u = _as_vector(u)
    if (u.domain.a, u.domain.b) != (B.domain.a, B.domain.b):
        raise DomainError("state and flux must share the domain")
    layouts = [_layout(phi, B, u, *(() if g is None else (g,))) for phi in phis]
    lo, hi, bps, sups = zip(*layouts)
    per_phi = 2 if g is not None else 3  # t1, t3 (and lhs)

    def weights(xs, masks=False):
        """Per phi, the nodes of ``xs`` it reads, the weight there (phi,
        times g with a weight) and, with ``masks`` and no weight, phi' there
        from the same evaluation (else None).  With ``masks`` only the nodes
        inside the phi's window are evaluated; the weight is 0 on the rest,
        where no component of that phi reads."""
        gd = None if g is None else g_diffuse(xs)
        for phi, a, b in zip(phis, lo, hi):
            inside = (xs >= a) & (xs <= b) if masks else slice(None)
            wx, slope = np.zeros_like(xs), None
            if g is None and masks:
                wx[inside], slope = phi.with_slope(xs[inside])
            else:
                wx[inside] = phi(xs[inside]) if g is None else phi(xs[inside]) * gd[inside]
            yield inside, wx, slope

    def diffuse(xs):
        """The t1, t3 (and lhs) integrands of every phi, stacked: u, u' and
        the flux are evaluated once per node."""
        W, dW = u.values_with_slope(xs)
        val, gx, gw = B.diffuse_on_grid(xs, W)
        t3 = np.zeros_like(xs)
        for gi, di in zip(gw, dW):
            t3 += gi * di
        out = np.zeros((per_phi * len(phis),) + np.shape(xs))
        for j, (inside, wx, slope) in enumerate(weights(xs, masks=True)):
            np.multiply(wx, gx, out=out[per_phi * j])
            np.multiply(wx, t3, out=out[per_phi * j + 1])
            if g is None:
                out[per_phi * j + 2][inside] = slope * val[inside]
        return out

    diffuse_terms = integrate_interval(
        diffuse, lo, hi, tol=tol, breakpoints=bps, cantor_supports=sups
    )

    # the singular terms: per Cantor base, the factors paired against it,
    # t2's density (a callable of xs and W) or t4's row of the state
    # gradient and the coefficient of that state component's Cantor part
    # (a pair), and where each of t2's and t4's parts reads.  Each pairing
    # meets tol on its own, t4's with its coefficient inside
    densities = B.singular_densities()
    factors, t2_at, t4_at = {}, [], []
    for base, dens in densities:
        t2_at.append((base, len(factors.setdefault(base, []))))
        factors[base].append(dens)
    for i, comp in enumerate(u.components):
        for base, coef in comp.cantor_part:
            t4_at.append((base, len(factors.setdefault(base, []))))
            factors[base].append((i, coef))

    def singular(rows):
        def integrand(xs):
            W = u.values(xs)
            gw = B.diffuse_on_grid(xs, W)[2] if any(isinstance(r, tuple) for r in rows) else None
            vals = [gw[r[0]] * r[1] if isinstance(r, tuple) else r(xs, W) for r in rows]
            out = np.empty((len(rows) * len(phis),) + xs.shape)
            for j, (_, wx, _) in enumerate(weights(xs)):
                for q, v in enumerate(vals):
                    np.multiply(wx, v, out=out[len(rows) * j + q])
            return out

        return integrand

    windows = list(zip(lo, hi))
    pairings = {b: b.integrate(singular(rows), tol, bps, windows) for b, rows in factors.items()}

    # the brackets B(x+, u(x+)) - B(x-, u(x-)) at the jump points inside
    # some window, and per phi the points inside its own
    jumps = np.array(sorted(set(B.exceptional_set()) | set(u.jump_set())), dtype=float)
    inside = (np.array(lo)[:, None] < jumps) & (jumps < np.array(hi)[:, None])
    hit = inside.any(axis=0)
    xj, inside = jumps[hit], inside[:, hit]
    brackets = (B.value_on_grid(xj, u.at(xj, "right"), "right")
                - B.value_on_grid(xj, u.at(xj, "left"), "left"))
    gj = 1.0 if g is None else g.at(xj, "precise")

    reports = []
    for j, phi in enumerate(phis):
        t1, t3, *lhs = diffuse_terms[per_phi * j:per_phi * (j + 1)]

        t2 = 0.0
        for base, q in t2_at:
            t2 += pairings[base][len(factors[base]) * j + q]

        t4 = 0.0
        for base, q in t4_at:
            t4 += pairings[base][len(factors[base]) * j + q]

        t5 = _sum_in_order(((phi(xj) * gj) * brackets)[inside[j]])

        reports.append(ChainRuleReport(
            lhs[0] if lhs else None,
            (float(t1), float(t2), float(t3), float(t4), float(t5)),
            singular_vacuous=not densities,
        ))
    return reports


def chainrule_terms(B, u, phi, tol=1e-8):
    """The five terms of the identity (positive form) plus the lhs, for a
    ``FluxModel`` or a ``CompositeFlux``.  ``phi`` may be a sequence of
    test functions: then a tuple of their reports, each with the bits of
    its own call, from one evaluation of u and B per quadrature node."""
    if isinstance(phi, (list, tuple)):
        return tuple(_assemble(B, u, phi, tol))
    return _assemble(B, u, (phi,), tol)[0]


def chainrule_star_form(B, u, phi, report):
    """Total of the starred rewriting, given the case's ``chainrule_terms``
    report: its diffuse terms unchanged, the jump sum split into an
    exceptional-set sum of state-averaged sided differences and a
    state-jump sum of precise-representative flux differences.  A point in
    both sets contributes to both sums.  The flux takes both states at
    every point of both sets in one array call per side."""
    u = _as_vector(u)
    t1, t2, t3, t4, _ = report.terms
    lo, hi = _window(B, phi)
    exc, jmp = (np.array([x for x in pts if lo < x < hi], dtype=float)
                for pts in (B.exceptional_set(), u.jump_set()))
    xs = np.concatenate((exc, jmp))
    # per side, B at (xs, u(xs+)) then at (xs, u(xs-))
    W = np.concatenate((u.at(xs, "right"), u.at(xs, "left")), axis=1)
    (rp, rm), (lp, lm) = (np.split(B.value_on_grid(np.tile(xs, 2), W, side), 2)
                          for side in ("right", "left"))
    n, at = exc.size, phi(xs)
    s_exc = _sum_in_order(at[:n] * (0.5 * (rp[:n] + rm[:n]) - 0.5 * (lp[:n] + lm[:n])))
    s_jump = _sum_in_order(at[n:] * (0.5 * (rp[n:] + lp[n:]) - 0.5 * (rm[n:] + lm[n:])))
    return float(t1 + t2 + t3 + t4 + s_exc + s_jump)


def weighted_chainrule(B, u, g, phi, tol=1e-8):
    """Weighted variant: the derivative measure of x -> B(x, u(x)) is
    paired against phi g*, with the weight's jumps confined to the
    exceptional set.  Returns (pairing assembled with the weight's precise
    representative throughout, sum of the five g-weighted terms)."""
    if not set(g.jump_set()) <= set(B.exceptional_set()):
        raise DomainError("weight jumps must lie inside the flux exceptional set")
    (pairing,) = _assemble(B, u, (phi,), tol, lambda xs: g.at(xs, "precise"), g)
    (weighted,) = _assemble(B, u, (phi,), tol, g.values, g)
    return pairing.total, weighted.total


def _window_pairing(phi, lo, hi, density, singular, tol, breakpoints, supports):
    """Pairing of ``phi`` with a measure on the window [lo, hi]: the a.c.
    part with x-density ``density`` (None: none) by ``integrate_interval``,
    plus, per ``(base, sigma)`` of ``singular``, the part with density
    ``sigma`` against the base's Cantor measure, on the window's share of
    the support, to ``tol`` each.  Both parts are cut at
    ``breakpoints``; ``supports`` are the Cantor supports of the a.c.
    integrand.  The per-cell part of the piecewise-constant assembly, of
    the entropy-flux slice and of the level-set comparison."""
    total = 0.0
    if density is not None:
        total += integrate_interval(
            lambda xs: phi(xs) * density(xs), lo, hi, tol=tol,
            breakpoints=breakpoints, cantor_supports=supports,
        )
    for base, sigma in singular:
        a, b = max(lo, base.support.a), min(hi, base.support.b)
        if b > a:
            total += base.integrate(lambda xs, s=sigma: phi(xs) * s(xs), tol, breakpoints, (a, b))
    return total


def pwc_direct_assembly(B, u, phi, tol=1e-8):
    """Independent re-assembly of the composition's x-derivative pairing for
    a piecewise-constant state: per-cell restricted diffuse pairings at the
    frozen cell state, plus interface brackets with state-averaged sided
    flux values, plus exceptional points that fall strictly inside cells.

    Relation to the standard report: terms 1 + 2 + 5 equal this value plus
    the state-jump sum of precise-representative flux differences
    sum over J_u of phi(x) [B*(x, u(x+)) - B*(x, u(x-))]; the extra sum
    vanishes when every state jump sits where B* is state-independent (for
    instance at zero-average flux jumps), and for constant states."""
    pts = list(u.partition)
    vals = [np.atleast_1d(v) for v in u.values]
    lo, hi, bps, sups = _layout(phi, B)
    densities = B.singular_densities()
    total = 0.0
    for (x0, x1), v in zip(zip(pts[:-1], pts[1:]), vals):

        def frozen(xs, v=v):
            return np.repeat(v, np.size(xs)).reshape(v.shape + np.shape(xs))

        total += _window_pairing(
            phi, max(x0, lo), min(x1, hi),
            lambda xs: B.diffuse_on_grid(xs, frozen(xs))[1],
            tuple((base, lambda xs, dens=dens: dens(xs, frozen(xs))) for base, dens in densities),
            tol, bps, sups,
        )
    # B at the interfaces, with the right then the left cell's state, and at
    # the exceptional points inside cells, with their cell's: one call a side
    inner = np.array([i for i in range(1, len(pts) - 1) if lo < pts[i] < hi], dtype=int)
    interfaces = set(pts[1:-1])
    exc = np.array([x for x in B.exceptional_set() if x not in interfaces and lo < x < hi])
    own = np.clip(np.searchsorted(pts, exc, side="right") - 1, 0, len(vals) - 1)
    xi, n = np.array(pts)[inner], inner.size
    xs, cells = np.concatenate((xi, xi, exc)), np.concatenate((inner, inner - 1, own))
    W = np.stack(vals, axis=1)[:, cells]
    right, left = (B.value_on_grid(xs, W, side) for side in ("right", "left"))
    diffs = np.concatenate((
        0.5 * (right[:n] + right[n:2 * n]) - 0.5 * (left[:n] + left[n:2 * n]),
        right[2 * n:] - left[2 * n:],
    ))
    return float(_sum_in_order(phi(xs[n:]) * diffs, total))


def levelset_comparison_pwc(B, u, phi, tol=1e-9):
    """The two sides of the piecewise-constant comparison identity.

    Left: over the level variable t, the signed pairing of the precise
    representative of the level-region indicator against the x-derivative
    of the t-derivative flux; the region is constant between consecutive
    critical levels, so the t-factor integrates exactly.  Right: per cell,
    the pairing of the closed cell indicator's precise representative
    against the x-derivative measure at the cell state.  Scalar state only;
    the flux must vanish at state zero."""
    pts, vals = list(u.partition), list(u.values)
    if not isinstance(B, FluxModel) or B.dim != 1:
        raise DomainError("comparison identity needs a scalar-state FluxModel (sum K_k f_k)")
    zero = B.section(np.zeros(1))  # a Cantor part does not vanish
    if zero.cantor_part or max(map(abs, _value_range(zero))) > 1e-11:
        raise DomainError("comparison identity needs the flux to vanish at state zero")
    lo, hi = _window(B, phi)
    # per term, phi at the atoms of DK, one call each
    atom_phis = [phi(np.array([x for x, _ in K.derivative().atoms], dtype=float)).tolist()
                 for K, _ in B.terms]

    def indicator_pairing(region_cells, k):
        """integral of chi* phi dDK_k over the closed union of the listed
        cells; atoms at the union's boundary weigh 1/2."""
        if not region_cells:
            return 0.0
        segs = []
        start = prev = region_cells[0]
        for i in region_cells[1:]:
            if i == prev + 1:
                prev = i
            else:
                segs.append((pts[start], pts[prev + 1]))
                start = prev = i
        segs.append((pts[start], pts[prev + 1]))
        K = B.terms[k][0]
        dK = K.derivative()
        density = None if dK.ac.is_zero() else dK.ac
        singular = tuple(
            (t.base, lambda xs, c=t.coefficient: c) for t in dK.cantor_terms
        )
        total = 0.0
        for s0, s1 in segs:
            total += _window_pairing(
                phi, max(s0, lo), min(s1, hi), density, singular, tol,
                K.breakpoints(), K.cantor_supports(),
            )
            for (x, w), p in zip(dK.atoms, atom_phis[k]):
                if s0 < x < s1:
                    wt = 1.0
                elif x == s0 or x == s1:
                    wt = 0.5
                else:
                    continue
                if lo < x < hi:
                    total += wt * p * w
        return total

    # per term, f at every critical level and at every cell state, one call each
    crit = sorted(set([0.0] + vals))
    f_crit = [np.diff(np.asarray(f(np.array([crit])))).tolist() for _, f in B.terms]
    f_vals = [np.asarray(f(np.array([vals]))).tolist() for _, f in B.terms]
    left = 0.0
    for c, (t0, t1) in enumerate(zip(crit[:-1], crit[1:])):
        tm = 0.5 * (t0 + t1)
        sgn = 1.0 if tm > 0 else -1.0
        region = [
            i for i, v in enumerate(vals) if min(0.0, v) <= tm <= max(0.0, v)
        ]
        if not region:
            continue
        for k, df in enumerate(f_crit):
            left += sgn * df[c] * indicator_pairing(region, k)

    right = 0.0
    for i in range(len(vals)):
        for k, fv in enumerate(f_vals):
            if fv[i] != 0.0:
                right += fv[i] * indicator_pairing([i], k)
    return float(left), float(right)
