"""Seeded randomized case suites shared by the test batteries and the CLI.

Every generator takes a seed and returns plain data (model objects plus
labels), so the same suite can be replayed by tests, the acceptance
battery, and scenario runs.  Randomness comes only from numpy Generators
seeded here — identical seeds give identical suites.
"""

from __future__ import annotations

import numpy as np

from .bvfunction import BVFunction, BVVector, TestFunction
from .chainrule import FluxModel, SmoothFunction
from .pwconst import ExceptionalSet, PiecewiseConstant

DEFAULT_SEED = 20240822


def _power(w, p):
    """w^p, p >= 1, multiplied left to right: unlike ``**``, shape-blind bits."""
    out = w
    for _ in range(p - 1):
        out = out * w
    return out


def monomial(powers, coeff=1.0, label=""):
    """State monomial coeff * prod_i w_i^powers[i] with analytic gradient."""
    powers = tuple(int(p) for p in powers)
    coeff = float(coeff)

    def value(w):
        w = np.asarray(w, dtype=float)
        out = np.full(w.shape[1:], coeff)
        for i, p in enumerate(powers):
            if p:
                out = out * _power(w[i], p)
        return out

    def grad(w):
        w = np.asarray(w, dtype=float)
        g = np.zeros_like(w)
        for i, p in enumerate(powers):
            if p == 0:
                continue
            term = np.full(w.shape[1:], coeff * p)
            for j, pj in enumerate(powers):
                pw = pj - (1 if j == i else 0)
                if pw:
                    term = term * _power(w[j], pw)
            g[i] = term
        return g

    return SmoothFunction(value, grad, label or "w^" + "".join(map(str, powers)))


def monomial_sum(terms, label=""):
    """Sum of monomials; ``terms`` is a list of (powers, coeff)."""
    parts = [monomial(p, c) for p, c in terms]

    def value(w):
        return sum(np.asarray(p(w)) for p in parts)

    def grad(w):
        return sum(np.asarray(p.grad(w)) for p in parts)

    return SmoothFunction(value, grad, label or "+".join(p.label for p in parts))


def _random_state_function(rng, d):
    """1-2 random monomials of total degree <= 3 in d state variables."""
    if d == 1 and rng.random() < 0.5:
        deg = int(rng.integers(1, 4))
        coeffs = np.round(rng.uniform(-1.5, 1.5, deg + 1), 3)
        coeffs[abs(coeffs) < 0.2] = 0.4
        return SmoothFunction.poly1d(tuple(coeffs), f"poly{deg}")
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        powers = np.zeros(d, dtype=int)
        for _ in range(int(rng.integers(1, 4))):
            powers[rng.integers(0, d)] += 1
        coeff = float(np.round(rng.uniform(0.3, 1.6), 3)) * rng.choice([-1.0, 1.0])
        terms.append((tuple(powers), coeff))
    return monomial_sum(terms)


def _random_bv(rng, lo, hi, cantor_support=None, forced_jumps=(), max_jumps=3):
    """Random BV function: quadratic part + a few jumps + optional Cantor
    summand on the shared per-case support."""
    coeffs = tuple(np.round(rng.uniform(-1.2, 1.2, int(rng.integers(1, 4))), 3))
    u = BVFunction.from_poly(lo, hi, coeffs)
    points = list(forced_jumps)
    for _ in range(int(rng.integers(0, max_jumps + 1 - len(points)))):
        points.append(float(rng.uniform(lo + 0.08, hi - 0.08)))
    for p in points:
        size = float(np.round(rng.uniform(0.3, 1.8), 3)) * rng.choice([-1.0, 1.0])
        u = u + BVFunction.heaviside(lo, hi, p, left=0.0, right=size)
    if cantor_support is not None:
        coef = float(np.round(rng.uniform(0.4, 1.4), 3)) * rng.choice([-1.0, 1.0])
        u = u + BVFunction.cantor_fn(lo, hi, support=cantor_support, coefficient=coef)
    return u


def _random_flux_term(rng, lo, hi, cantor_support):
    """One coefficient function K: polynomial, jumpy, or Cantor-carrying."""
    kind = rng.random()
    if cantor_support is not None and kind < 0.8:
        base = BVFunction.cantor_fn(
            lo, hi, support=cantor_support,
            coefficient=float(np.round(rng.uniform(0.5, 1.5), 3)),
        )
        if rng.random() < 0.5:
            base = base + BVFunction.constant(lo, hi, float(np.round(rng.uniform(0.2, 1.0), 2)))
        return base
    if kind < 0.45:
        deg = int(rng.integers(1, 4))
        return BVFunction.from_poly(
            lo, hi, tuple(np.round(rng.uniform(-1.0, 1.0, deg + 1), 3))
        )
    K = BVFunction.constant(lo, hi, float(np.round(rng.uniform(0.3, 1.2), 2)))
    for _ in range(int(rng.integers(1, 3))):
        p = float(rng.uniform(lo + 0.1, hi - 0.1))
        size = float(np.round(rng.uniform(0.4, 1.5), 3)) * rng.choice([-1.0, 1.0])
        K = K + BVFunction.heaviside(lo, hi, p, left=0.0, right=size)
    return K


def _phi_battery(rng, lo, hi, n_phi=5):
    phis = []
    for _ in range(n_phi):
        a = float(rng.uniform(lo + 0.02, lo + 0.45 * (hi - lo)))
        b = float(rng.uniform(a + 0.25 * (hi - lo), hi - 0.02))
        if rng.random() < 0.4:
            coeffs = (float(np.round(rng.uniform(0.5, 2.0), 3)),
                      float(np.round(rng.uniform(-1.0, 1.0), 3)))
        else:
            coeffs = (float(np.round(rng.uniform(0.5, 2.0), 3)),)
        phis.append(TestFunction.poly_bump((a, b), coeffs))
    return phis


def chainrule_suite(seed=DEFAULT_SEED, n_cases=50, n_phi=5):
    """Randomized chain-rule verification cases: (label, B, u, phis).

    Coefficient functions mix polynomial pieces, Heaviside combinations
    and Cantor summands; the state dimension runs through {1, 2, 3}; state
    jumps may coincide with flux jump points.  At most one Cantor support
    per case keeps the singular reference measures aligned."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    support_pool = ((0.0, 1.0), (0.0, 1.0 / 3.0), (0.5, 1.0))
    cases = []
    for idx in range(n_cases):
        d = int(rng.integers(1, 4))
        mode = idx % 3  # rotate where the Cantor structure lives
        case_support = tuple(support_pool[int(rng.integers(0, len(support_pool)))])
        k_support = case_support if mode == 0 else None
        u_support = case_support if mode == 1 else None
        n_terms = int(rng.integers(1, 4))
        terms = []
        for k in range(n_terms):
            K = _random_flux_term(rng, lo, hi, k_support if k == 0 else None)
            terms.append((K, _random_state_function(rng, d)))
        B = FluxModel(tuple(terms), dim=d)
        exc = B.exceptional_set()
        comps = []
        for i in range(d):
            forced = ()
            if exc and rng.random() < 0.5:
                forced = (float(exc[int(rng.integers(0, len(exc)))]),)
            comps.append(
                _random_bv(
                    rng, lo, hi,
                    cantor_support=u_support if i == 0 else None,
                    forced_jumps=forced,
                    max_jumps=2,
                )
            )
        u = comps[0] if d == 1 else BVVector(tuple(comps))
        phis = _phi_battery(rng, lo, hi, n_phi)
        cases.append((f"case{idx:02d}[d={d}]", B, u, phis))
    return cases


def pwc_suite(seed=DEFAULT_SEED, n_cases=20):
    """Inputs for the piecewise-constant approximation battery:
    (label, u, n, marked set)."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    cases = []
    for idx in range(n_cases):
        d = int(rng.integers(1, 4))
        comps = [
            _random_bv(
                rng, lo, hi,
                cantor_support=(0.0, 1.0) if (idx % 4 == 0 and i == 0) else None,
                max_jumps=3,
            )
            for i in range(d)
        ]
        u = BVVector(tuple(comps))
        n = int(rng.integers(6, 48))
        jumps = sorted(set(p for c in comps for p in c.jump_set()))
        pts = []
        for _ in range(int(rng.integers(1, 5))):
            p = float(rng.uniform(lo + 0.05, hi - 0.05))
            while any(abs(p - q) < 1e-4 for q in jumps):
                p += 2e-4
            pts.append(p)
        pts = sorted(set(pts))
        exc = ExceptionalSet(tuple(pts), prefix_len=min(len(pts), n))
        cases.append((f"pwc{idx:02d}[d={d},n={n}]", u, n, exc))
    return cases


def coarea_suite(seed=DEFAULT_SEED, n_cases=20):
    """Coarea cases: (label, g, u, g_breakpoints); one Cantor-function
    case with unit weight (its level-counting side is exact)."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    cases = []
    for idx in range(n_cases - 1):
        u = _random_bv(rng, lo, hi, max_jumps=3)
        if rng.random() < 0.3:
            cut = float(rng.uniform(0.3, 0.7))
            left = float(np.round(rng.uniform(0.2, 1.5), 3))
            right = float(np.round(rng.uniform(0.2, 1.5), 3))

            def g(xs, cut=cut, left=left, right=right):
                xs = np.asarray(xs, dtype=float)
                return np.where(xs < cut, left, right)

            bps = (cut,)
        else:
            c = np.round(rng.uniform(0.2, 1.2, 3), 3)

            def g(xs, c=c):
                xs = np.asarray(xs, dtype=float)
                return c[0] + c[1] * xs + c[2] * xs * xs

            bps = ()
        cases.append((f"coarea{idx:02d}", g, u, bps))
    cantor_u = BVFunction.cantor_fn(lo, hi)

    def unit(xs):
        return np.ones_like(np.asarray(xs, dtype=float))

    cases.append(("coarea-cantor", unit, cantor_u, ()))
    return cases


def leibniz_suite(seed=DEFAULT_SEED, n_cases=20):
    """Product-rule cases: (label, v, w, phis); one case with a Cantor
    factor."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    cases = []
    for idx in range(n_cases - 1):
        shared = (0.0, 1.0) if idx % 5 == 2 else None
        v = _random_bv(rng, lo, hi, cantor_support=shared, max_jumps=2)
        w = _random_bv(rng, lo, hi, max_jumps=2)
        phis = _phi_battery(rng, lo, hi, 3)
        cases.append((f"leibniz{idx:02d}", v, w, phis))
    v = BVFunction.cantor_fn(lo, hi)
    w = _random_bv(rng, lo, hi, max_jumps=2)
    cases.append(("leibniz-cantor", v, w, _phi_battery(rng, lo, hi, 3)))
    return cases


def mollifier_suite(seed=DEFAULT_SEED):
    """Probe plans for mollifier convergence: (label, u, probes).

    Probes include jump points; Cantor probes sit in complementary gaps,
    where the mollified value stabilizes once the width clears the gap."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    plans = []

    u1 = (
        BVFunction.constant(lo, hi, 0.3)
        + BVFunction.heaviside(lo, hi, 0.35, right=1.1)
        + BVFunction.heaviside(lo, hi, 0.62, right=-0.8)
    )
    probes1 = (0.2, 0.28, 0.35, 0.45, 0.5, 0.55, 0.62, 0.7, 0.78, 0.84)
    plans.append(("two-jumps", u1, probes1))

    u2 = (
        BVFunction.from_poly(lo, hi, (0.2, -0.5, 1.0))
        + BVFunction.heaviside(lo, hi, 0.5, right=0.9)
    )
    probes2 = (0.16, 0.25, 0.33, 0.42, 0.5, 0.58, 0.66, 0.72, 0.8, 0.84)
    plans.append(("poly-jump", u2, probes2))

    u3 = BVFunction.cantor_fn(lo, hi)
    probes3 = (0.15, 0.2, 7.5 / 27, 0.4, 0.5, 0.6, 19.5 / 27, 0.8, 0.45, 0.55)
    plans.append(("cantor-gaps", u3, probes3))

    u4 = (
        BVFunction.from_poly(lo, hi, (0.0, 0.8))
        + BVFunction.heaviside(lo, hi, 0.4, right=-1.2)
        + BVFunction.cantor_fn(lo, hi, coefficient=0.7)
    )
    probes4 = (0.15, 7.5 / 27, 0.4, 0.5, 0.6, 19.5 / 27, 0.8, 0.45, 0.55, 0.2)
    plans.append(("mixed", u4, probes4))
    del rng
    return plans


def comparison_suite(seed=DEFAULT_SEED, n_cases=10):
    """Level-set comparison cases: (label, B, u, phi) with scalar state,
    piecewise-constant coefficients, B(x, 0) = 0."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    cases = []
    for idx in range(n_cases):
        n_terms = int(rng.integers(1, 3))
        terms = []
        for _ in range(n_terms):
            K = BVFunction.constant(lo, hi, float(np.round(rng.uniform(0.3, 1.0), 2)))
            for _ in range(int(rng.integers(1, 3))):
                p = float(rng.uniform(0.15, 0.85))
                size = float(np.round(rng.uniform(0.4, 1.4), 3)) * rng.choice([-1.0, 1.0])
                K = K + BVFunction.heaviside(lo, hi, p, right=size)
            power = int(rng.integers(1, 4))
            coeffs = [0.0] * power + [float(np.round(rng.uniform(0.5, 1.5), 3))]
            terms.append((K, SmoothFunction.poly1d(tuple(coeffs), f"w^{power}")))
        B = FluxModel(tuple(terms))
        pts = sorted(
            {lo, hi}
            | {float(rng.uniform(0.1, 0.9)) for _ in range(int(rng.integers(2, 5)))}
        )
        vals = tuple(
            float(np.round(rng.uniform(-1.5, 1.5), 3)) for _ in range(len(pts) - 1)
        )
        nodes = tuple(0.5 * (a + b) for a, b in zip(vals[:-1], vals[1:]))
        u = PiecewiseConstant(tuple(pts), vals, nodes)
        phi = _phi_battery(rng, lo, hi, 1)[0]
        cases.append((f"cmp{idx:02d}", B, u, phi))
    return cases


def a2_suite(seed=DEFAULT_SEED, n_models=6, n_pairs=100):
    """Models and state-pair batches for the constructed modulus bound:
    (label, B, box_lo, box_hi, pairs)."""
    rng = np.random.default_rng(seed)
    lo, hi = 0.0, 1.0
    out = []
    for idx in range(n_models):
        d = int(rng.integers(1, 4))
        k_support = (0.0, 1.0) if idx % 2 == 0 else None
        terms = []
        for k in range(int(rng.integers(1, 4))):
            K = _random_flux_term(rng, lo, hi, k_support if k == 0 else None)
            terms.append((K, _random_state_function(rng, d)))
        B = FluxModel(tuple(terms), dim=d)
        box_lo = np.full(d, -1.5)
        box_hi = np.full(d, 1.5)
        pairs = [
            (rng.uniform(box_lo, box_hi), rng.uniform(box_lo, box_hi))
            for _ in range(n_pairs)
        ]
        out.append((f"a2-{idx}[d={d}]", B, box_lo, box_hi, pairs))
    return out
