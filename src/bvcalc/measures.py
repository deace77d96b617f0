"""Radon measures on an open interval with exact structure.

A measure here is a finite signed combination of three mutually singular
parts: an absolutely continuous part with piecewise-polynomial density, a
finite atomic part, and Cantor parts (affine copies of the standard Cantor
measure, scaled by coefficients, one per base).  A weight such as the other
factor of a product belongs to the integrand, which declares its own
breakpoints and Cantor supports to ``integrate_measure``.

All Cantor supports appearing in one computation must be identical or
disjoint; this is what keeps total variation additive across parts and the
ternary-aware quadrature exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cantor
from .errors import (
    AbsoluteContinuityError,
    DomainError,
    RepresentationError,
)
from .quadrature import (
    _apply, _bisect, integrate_cantor, integrate_interval, _merge_supports, _same_support,
)

_ATOL = 1e-14


@dataclass(frozen=True)
class Interval:
    """Open interval ]a, b[."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.b <= self.a:
            raise DomainError(f"invalid interval ]{self.a}, {self.b}[")

    @property
    def length(self):
        return self.b - self.a

    def contains(self, x):
        return self.a < x < self.b

    def contains_interval(self, other):
        return self.a <= other.a and other.b <= self.b


def _horner(coeffs, s):
    """sum(coeffs[k] s^k), by the same float operations as npoly.polyval."""
    out = coeffs[-1] + s * 0
    for c in coeffs[-2::-1]:
        out *= s
        out += c
    return out


def _poly_shift(coeffs, d):
    """Coefficients of p(s + d) given those of p(s)."""
    if d == 0.0:
        return tuple(float(c) for c in coeffs)
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    out = np.zeros(n)
    # Taylor recentering via repeated synthetic division is overkill for the
    # tiny degrees here; binomial expansion is clear and exact enough.
    for k, ck in enumerate(c):
        if ck == 0.0:
            continue
        row = np.zeros(k + 1)
        row[0] = 1.0
        for _ in range(k):
            row = np.convolve(row, [d, 1.0])[: k + 1]
        out[: k + 1] += ck * row
    return tuple(out)


def _poly_int(coeffs):
    return (0.0, *(c / (i + 1) for i, c in enumerate(coeffs)))


def _sign_changes(coeffs, lo, hi):
    """Points in (lo, hi) where p(s) = sum(coeffs[k] s^k) changes sign,
    ascending.

    Derivative-sequence isolation: between consecutive sign changes of p'
    the polynomial p is monotone, so each sign change of p has one bracket
    there, and one ``_bisect`` call, with p' as slope, solves them all.  A
    root of even multiplicity is no sign change, but rounding can show it
    as two, in the two brackets that meet at a critical point where |p| is
    within a Horner rounding bound: such a pair is dropped."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return []
    dc = c[1:] * np.arange(1, len(c))
    ends = np.array([lo, *_sign_changes(dc, lo, hi), hi])
    vals = _horner(c, ends)
    k = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = _bisect(lambda xs, idx: (_horner(c, xs), _horner(dc, xs)), ends[k], ends[k + 1], vals[k + 1])
    flat = np.abs(vals) <= len(c) * 2.0**-51 * _horner(np.abs(c), np.abs(ends))
    out, prev = [], None  # prev: bracket of the last root still unpaired
    for i, r in zip(k.tolist(), roots.tolist()):
        if prev == i - 1 and flat[i]:
            out.pop()
            prev = None
        else:
            out.append(r)
            prev = i
    return [r for r in out if lo < r < hi]


def _coefficient_table(pieces):
    """``(degree + 1, pieces)`` ascending coefficients, zero-padded to the
    highest degree: column i is piece i.  One piece is its own tuple, which
    Horner takes as Python floats, with no gather."""
    if len(pieces) == 1:
        return pieces[0]
    width = max(map(len, pieces))
    return np.array([p + (0.0,) * (width - len(p)) for p in pieces]).T.copy()


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    ``pieces[i]`` holds ascending coefficients in the local variable
    ``x - breakpoints[i]``.  Adjacent pieces may disagree at the shared node
    (that is how jump discontinuities are encoded by users of this class);
    plain array evaluation is right-continuous at interior nodes.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        bk = tuple(float(b) for b in self.breakpoints)
        if len(bk) < 2 or any(y <= x for x, y in zip(bk, bk[1:])):
            raise DomainError("breakpoints must be strictly increasing, length >= 2")
        if len(self.pieces) != len(bk) - 1:
            raise DomainError("piece count must be breakpoint count - 1")
        object.__setattr__(self, "breakpoints", bk)
        object.__setattr__(
            self, "pieces", tuple(tuple(float(c) for c in p) or (0.0,) for p in self.pieces)
        )
        object.__setattr__(self, "_inner", np.array(bk[1:-1]))
        object.__setattr__(self, "_lefts", np.array(bk[:-1]))

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(lo, hi):
        return PiecewisePolynomial((lo, hi), ((0.0,),))

    @staticmethod
    def constant(lo, hi, c):
        return PiecewisePolynomial((lo, hi), ((float(c),),))

    @staticmethod
    def from_global(lo, hi, coeffs):
        """Single global polynomial sum(c_k x^k) restricted to [lo, hi]."""
        return PiecewisePolynomial((lo, hi), (_poly_shift(coeffs, lo),))

    # -- evaluation ---------------------------------------------------------
    @property
    def lo(self):
        return self.breakpoints[0]

    @property
    def hi(self):
        return self.breakpoints[-1]

    def at(self, xs, side="right"):
        """Sided values at the points ``xs``: a point on a breakpoint takes
        the piece to its right (``side="right"``, the plain value) or to its
        left (``side="left"``); points outside use the end pieces."""
        return self._lookup(np.asarray(xs, dtype=float), side, (self._table,))[0]

    def with_slope(self, xs):
        """``(at(xs), derivative().at(xs))``, the values and the a.e.
        derivative, from one piece lookup."""
        return self._lookup(np.asarray(xs, dtype=float), "right", (self._table, self._slope_table))

    @cached_property
    def _table(self):
        return _coefficient_table(self.pieces)

    @cached_property
    def _slope_table(self):
        return _coefficient_table(self.derivative().pieces)

    def _lookup(self, xs, side, tables):
        """Per coefficient table of ``tables`` (pieces on these breakpoints),
        its values at ``xs``, from one piece lookup: one searchsorted, then
        per table one gather of each node's coefficients and Horner over
        them.  A zero-padded leading coefficient keeps the bits of the
        piece's own Horner: it gives 0 + s*0, and the next ``*= s; += c``
        gives c + s*0 as the unpadded first step does."""
        if not self._inner.size:
            s = xs - self.breakpoints[0]
            return [_horner(table, s) for table in tables]
        idx = np.searchsorted(self._inner, xs, side=side)
        s = xs - self._lefts[idx]
        return [_horner(table[:, idx], s) for table in tables]

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self.at(np.atleast_1d(xs))
        return float(out[0]) if xs.ndim == 0 else out

    # -- calculus -----------------------------------------------------------
    def derivative(self):
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(
                tuple((i + 1) * c for i, c in enumerate(p[1:])) or (0.0,)
                for p in self.pieces
            ),
        )

    def integrate(self, lo=None, hi=None):
        lo = self.lo if lo is None else max(float(lo), self.lo)
        hi = self.hi if hi is None else min(float(hi), self.hi)
        if hi <= lo:
            return 0.0
        total = 0.0
        for i, coeffs in enumerate(self.pieces):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            x0, x1 = max(a, lo), min(b, hi)
            if x1 <= x0:
                continue
            anti = _poly_int(coeffs)
            total += _horner(anti, x1 - a) - _horner(anti, x0 - a)
        return float(total)

    def _sign_cuts(self):
        """Per piece: its left end, its coefficients, and its ends with the
        sign changes between them."""
        for i, coeffs in enumerate(self.pieces):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            yield a, coeffs, [a, *(a + r for r in _sign_changes(coeffs, 0.0, b - a)), b]

    def abs_integral(self):
        """Exact integral of |p| using per-piece root splitting."""
        total = 0.0
        for a, coeffs, cuts in self._sign_cuts():
            anti = _poly_int(coeffs)
            for x0, x1 in zip(cuts[:-1], cuts[1:]):
                total += abs(_horner(anti, x1 - a) - _horner(anti, x0 - a))
        return float(total)

    def absolute(self):
        """Piecewise polynomial equal to |self| a.e. (roots become breakpoints)."""
        bks = [self.lo]
        pieces = []
        for a, coeffs, cuts in self._sign_cuts():
            for x0, x1 in zip(cuts[:-1], cuts[1:]):
                local = _poly_shift(coeffs, x0 - a)
                mid_val = _horner(local, 0.5 * (x1 - x0))
                sign = -1.0 if mid_val < 0 else 1.0
                pieces.append(tuple(sign * c for c in local))
                bks.append(x1)
        return PiecewisePolynomial(tuple(bks), tuple(pieces))

    def refine(self, extra_points):
        """Same function on a partition refined by ``extra_points``."""
        pts = sorted(set(self.breakpoints) | {
            float(p) for p in extra_points if self.lo < float(p) < self.hi
        })
        pieces = []
        for x0 in pts[:-1]:
            i = bisect_right(self.breakpoints, x0) - 1
            pieces.append(_poly_shift(self.pieces[i], x0 - self.breakpoints[i]))
        return PiecewisePolynomial(tuple(pts), tuple(pieces))

    # -- algebra ------------------------------------------------------------
    def _binary(self, other, op):
        if not isinstance(other, PiecewisePolynomial):
            raise TypeError
        if (other.lo, other.hi) != (self.lo, self.hi):
            raise DomainError("piecewise polynomials on different intervals")
        pts = sorted(set(self.breakpoints) | set(other.breakpoints))
        p1 = self.refine(pts)
        p2 = other.refine(pts)
        pieces = []
        for c1, c2 in zip(p1.pieces, p2.pieces):
            pieces.append(op(c1, c2))
        return PiecewisePolynomial(tuple(pts), tuple(pieces))

    def __add__(self, other):
        def add(c1, c2):
            n = max(len(c1), len(c2))
            return tuple(
                (c1[i] if i < len(c1) else 0.0) + (c2[i] if i < len(c2) else 0.0)
                for i in range(n)
            )
        return self._binary(other, add)

    def scale(self, k):
        return PiecewisePolynomial(
            self.breakpoints, tuple(tuple(k * c for c in p) for p in self.pieces)
        )

    def is_zero(self):
        return all(all(c == 0.0 for c in p) for p in self.pieces)


@dataclass(frozen=True)
class CantorBase:
    """An affine copy of the standard Cantor measure, unit total mass,
    supported on ``support``.

    Identity is the support: two bases with the same support are the same
    base (the ``id`` string is a stable label, not part of equality)."""

    support: Interval
    id: str = field(default=None, compare=False)

    def __post_init__(self):
        if self.id is None:
            object.__setattr__(
                self, "id", f"cantor[{self.support.a:.12g},{self.support.b:.12g}]"
            )

    @property
    def width(self):
        return self.support.length

    def to_std(self, xs):
        return (np.asarray(xs, dtype=float) - self.support.a) / self.width

    def integrate(self, f, tol, breakpoints=(), window=None):
        """Integral of ``f(xs)`` against this base measure to absolute
        tolerance ``tol``, over the support or restricted to the x-interval
        ``window``, cut at the ``breakpoints`` inside either, by the
        adaptive driver of ``quadrature.integrate_cantor``.

        A stacked ``f`` may be given one window and one breakpoint sequence
        per group of components."""
        support = (self.support.a, self.support.b)
        lo, hi = support if window is None else zip(*window) if np.ndim(window) > 1 else window
        return integrate_cantor(f, support, lo, hi, breakpoints, tol)

    def profile(self, xs):
        """The rescaled Cantor function, by the exact digit scan: 0 left of
        the support, 1 right of it."""
        # fmax maps NaN to 0, as left of the support
        return cantor.cantor_function_eval(np.fmin(np.fmax(self.to_std(xs), 0.0), 1.0))

    def mass(self, lo, hi):
        """Measure of [lo, hi] (the base measure is non-atomic)."""
        lo_val, hi_val = self.profile(np.array([lo, hi], dtype=float)).tolist()
        return hi_val - lo_val


@dataclass(frozen=True)
class CantorTerm:
    base: CantorBase
    coefficient: float


def _merge_bases(parts):
    """(base, coefficient) pairs summed per base in first-seen order, as
    0.0 + c1 + c2 + ..., with the zero sums dropped; a base whose support
    is one with an earlier base's (``_same_support``) is that base."""
    merged = {}
    for base, coef in parts:
        s = (base.support.a, base.support.b)
        base = next((b for b in merged if _same_support((b.support.a, b.support.b), s)), base)
        merged[base] = merged.get(base, 0.0) + float(coef)
    return tuple((base, coef) for base, coef in merged.items() if coef != 0.0)


def _merge_atoms(atoms):
    merged = {}
    for x, w in atoms:
        x = float(x)
        key = None
        for k in merged:
            if abs(k - x) <= _ATOL:
                key = k
                break
        if key is None:
            merged[x] = float(w)
        else:
            merged[key] += float(w)
    return tuple(sorted((x, w) for x, w in merged.items() if w != 0.0))


@dataclass(frozen=True)
class RadonMeasure:
    interval: Interval
    ac: PiecewisePolynomial = None
    atoms: tuple = ()
    cantor_terms: tuple = ()

    def __post_init__(self):
        if self.ac is None:
            object.__setattr__(
                self, "ac", PiecewisePolynomial.zero(self.interval.a, self.interval.b)
            )
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))
        for x, _ in self.atoms:
            if not self.interval.contains(x):
                raise DomainError(f"atom at {x} outside ]{self.interval.a}, {self.interval.b}[")
        for t in self.cantor_terms:
            if not self.interval.contains_interval(t.base.support):
                raise DomainError("Cantor support outside the interval")
        merged = _merge_bases((t.base, t.coefficient) for t in self.cantor_terms)
        object.__setattr__(self, "cantor_terms", tuple(CantorTerm(*bc) for bc in merged))
        _merge_supports(self.cantor_supports())  # raises on partial overlap

    # -- structure ----------------------------------------------------------
    def cantor_supports(self):
        return tuple((t.base.support.a, t.base.support.b) for t in self.cantor_terms)

    def breakpoints(self):
        return self.ac.breakpoints[1:-1]

    def is_purely_cantor(self):
        return self.ac.is_zero() and not self.atoms

    # -- parts --------------------------------------------------------------
    def absolutely_continuous_part(self):
        return RadonMeasure(self.interval, self.ac)

    def atomic_part(self):
        return RadonMeasure(self.interval, None, self.atoms, ())

    def cantor_part(self):
        return RadonMeasure(self.interval, None, (), self.cantor_terms)

    # -- algebra ------------------------------------------------------------
    def _require_same_interval(self, other):
        if (other.interval.a, other.interval.b) != (self.interval.a, self.interval.b):
            raise DomainError("measures on different intervals")

    def __add__(self, other):
        self._require_same_interval(other)
        return RadonMeasure(
            self.interval,
            self.ac + other.ac,
            self.atoms + other.atoms,
            self.cantor_terms + other.cantor_terms,
        )

    def scale(self, k):
        k = float(k)
        return RadonMeasure(
            self.interval,
            self.ac.scale(k),
            tuple((x, k * w) for x, w in self.atoms),
            tuple(CantorTerm(t.base, k * t.coefficient) for t in self.cantor_terms),
        )

    def total_mass(self):
        return self.mass(self.interval.a, self.interval.b)

    def mass(self, lo, hi):
        """Measure of [lo, hi]; atoms exactly at lo/hi count fully (callers
        building partition oracles should avoid boundary atoms)."""
        total = self.ac.integrate(lo, hi)
        for x, w in self.atoms:
            if lo <= x <= hi:
                total += w
        for t in self.cantor_terms:
            total += t.coefficient * t.base.mass(lo, hi)
        return float(total)

    def tv_measure(self):
        """The measure |mu|."""
        return RadonMeasure(
            self.interval,
            self.ac.absolute(),
            tuple((x, abs(w)) for x, w in self.atoms),
            tuple(CantorTerm(t.base, abs(t.coefficient)) for t in self.cantor_terms),
        )


def integrate_measure(f, mu, tol=1e-9, breakpoints=(), cantor_supports=()):
    """integral of f d(mu) for bounded f, continuous except at declared points.

    ``breakpoints``/``cantor_supports`` declare the discontinuities and Cantor
    summands of ``f`` itself; the measure contributes its own automatically.
    At atoms f is evaluated pointwise (caller's representative convention).

    Each Cantor term is integrated against its base by
    ``CantorBase.integrate``, to tol over the number of Cantor terms and
    over |coefficient|, so its share of the total is within that part of
    tol; the adaptive rule's estimate is heuristic (see there).
    """
    bps = tuple(breakpoints) + mu.breakpoints()
    sups = tuple(cantor_supports) + mu.cantor_supports()
    total = 0.0
    if not mu.ac.is_zero():
        def integrand(xs):
            return _apply(f, xs) * mu.ac(xs)
        total += integrate_interval(
            integrand, mu.interval.a, mu.interval.b, tol=tol,
            breakpoints=bps, cantor_supports=sups,
        )
    if mu.atoms:
        xs, ws = zip(*mu.atoms)
        for w, fx in zip(ws, _apply(f, np.array(xs)).tolist()):
            total += w * fx
    for t in mu.cantor_terms:
        share = tol / (len(mu.cantor_terms) * abs(t.coefficient))
        total += t.coefficient * t.base.integrate(f, share, bps)
    return float(total)


def measure_total_variation(mu):
    """Total variation |mu|(]a,b[), exactly: the parts are mutually singular
    and the Cantor bases distinct."""
    total = mu.ac.abs_integral() + sum(abs(w) for _, w in mu.atoms)
    for t in mu.cantor_terms:
        total += abs(t.coefficient)
    return float(total)


def radon_nikodym_cantor(nu, lam):
    """Radon-Nikodym ratios of two purely-Cantor measures, per base.

    Returns ``{base: ratio}`` over the bases of ``lam`` (strictly positive
    coefficients required there).  Raises AbsoluteContinuityError if ``nu``
    charges a base that ``lam`` does not."""
    for name, m in (("nu", nu), ("lam", lam)):
        if not m.is_purely_cantor():
            raise RepresentationError(f"{name} must be purely Cantor")
    lam_coefs = {t.base: t.coefficient for t in lam.cantor_terms}
    if any(c <= 0.0 for c in lam_coefs.values()):
        raise AbsoluteContinuityError("reference measure needs strictly positive coefficients")
    out = {base: 0.0 for base in lam_coefs}
    for t in nu.cantor_terms:
        if t.base not in lam_coefs:
            raise AbsoluteContinuityError(
                f"nu charges Cantor base on {t.base.support} where lam vanishes"
            )
        out[t.base] = t.coefficient / lam_coefs[t.base]
    return out


# -- mollifier ---------------------------------------------------------------

KERNEL_HEIGHT = 15.0 / 16.0


def kernel(t):
    """Even C^1 bump (15/16)(1-t^2)^2 on [-1,1], unit mass."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    w = t[inside]
    out[inside] = KERNEL_HEIGHT * (1.0 - w * w) ** 2
    return out


def mollified_measure_eval(mu, eps, x, tol=1e-9):
    """(mu * kernel_eps)(x) for x in ]a+eps, b-eps[, within ``tol``; the
    kernel's support ends cut the Cantor cells, which refine down to it,
    and ``QuadratureError`` says where ``tol`` is out of reach."""
    eps = float(eps)
    x = float(x)
    if eps <= 0.0:
        raise DomainError("mollification width must be positive")
    if not (mu.interval.a + eps < x < mu.interval.b - eps):
        raise DomainError(
            f"mollified evaluation needs x in ]{mu.interval.a + eps}, {mu.interval.b - eps}["
        )

    def f(ys):
        return kernel((x - np.asarray(ys, dtype=float)) / eps) / eps

    return integrate_measure(f, mu, tol=tol, breakpoints=(x - eps, x + eps))
