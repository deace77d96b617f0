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

Smooth cells are refined adaptively: a 7/15-point Gauss-Legendre pair gives
the error estimate, failing cells are bisected, everything evaluated batched
across cells.
"""

from __future__ import annotations

import math

import numpy as np

from .cantor import std_cells, _apply
from .errors import DomainError, QuadratureError

_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)

_MAX_PASSES = 30
_MAX_CELLS = 200_000
_LEFTOVER_CAP = 13


def _leftover_level(tol):
    """Ternary depth for leftover cells: total midpoint-rule error ~ 6^-L."""
    L = math.ceil(math.log(max(4.0 / max(tol, 1e-300), 8.0)) / math.log(6.0))
    return max(8, min(_LEFTOVER_CAP, L))


def _merge_supports(supports):
    """Validate/deduplicate (lo, hi) Cantor supports: identical or disjoint."""
    uniq = []
    for lo, hi in supports:
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            raise DomainError(f"empty Cantor support ({lo}, {hi})")
        dup = False
        for ulo, uhi in uniq:
            if abs(ulo - lo) < 1e-14 and abs(uhi - hi) < 1e-14:
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


def _support_cells(lo, hi, level, inner_bps):
    """Tile one Cantor support by gap cells ('g') and leftover cells ('m'),
    locally refining the ternary tree around breakpoints that fall inside
    leftover cells (e.g. a jump placed at a point of the Cantor set)."""
    width = hi - lo
    gap_lo, gap_hi, cel_lo, cel_hi = std_cells(level)
    smooth = [(lo + width * a, lo + width * b) for a, b in zip(gap_lo, gap_hi)]
    mid_cells = []
    pending = [(lo + width * a, lo + width * b, 0) for a, b in zip(cel_lo, cel_hi)]
    refine_depth = 10
    while pending:
        a, b, gen = pending.pop()
        inside = [p for p in inner_bps if a < p < b]
        if not inside:
            mid_cells.append((a, b))
            continue
        if gen >= 2:
            # give up structurally: split at the breakpoints, treat the tiny
            # slivers as smooth cells (length <= 3^-(level+2*refine_depth))
            edges = [a, *sorted(inside), b]
            smooth.extend(zip(edges[:-1], edges[1:]))
            continue
        g_lo, g_hi, c_lo, c_hi = std_cells(refine_depth)
        w = b - a
        smooth.extend((a + w * x, a + w * y) for x, y in zip(g_lo, g_hi))
        pending.extend((a + w * x, a + w * y, gen + 1) for x, y in zip(c_lo, c_hi))
    return smooth, mid_cells


def build_cells(lo, hi, breakpoints=(), cantor_supports=(), tol=1e-9):
    """Mandatory decomposition of [lo, hi]: list of smooth cells and a list of
    midpoint-rule cells (inside Cantor supports).

    Supports are tiled on their *original* extent (ternary alignment is what
    makes the midpoint rule accurate); a window edge cutting into a support is
    treated like a breakpoint, and cells are clipped to the window at the end.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return [], []
    bps = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    supports = [
        s for s in _merge_supports(cantor_supports)
        if s[1] > lo + 1e-15 and s[0] < hi - 1e-15
    ]
    level = _leftover_level(tol)
    smooth, mids = [], []
    # plain segments of the window not covered by any support
    edges = [lo]
    for slo, shi in supports:
        edges.append(min(max(slo, lo), hi))
        edges.append(max(min(shi, hi), lo))
    edges.append(hi)
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a <= 1e-15:
            continue
        pts = [a, *[p for p in bps if a < p < b], b]
        smooth.extend((x, y) for x, y in zip(pts[:-1], pts[1:]) if y > x)
    for slo, shi in supports:
        cuts = [p for p in bps if slo < p < shi]
        cuts.extend(e for e in (lo, hi) if slo < e < shi)
        cuts = sorted(set(cuts))
        s_cells, m_cells = _support_cells(slo, shi, level, cuts)
        for a, b in s_cells:
            pts = [a, *[p for p in cuts if a < p < b], b]
            for x, y in zip(pts[:-1], pts[1:]):
                x2, y2 = max(x, lo), min(y, hi)
                if y2 - x2 > 1e-16:
                    smooth.append((x2, y2))
        for a, b in m_cells:
            if b <= lo + 1e-15 or a >= hi - 1e-15:
                continue
            if a >= lo - 1e-12 and b <= hi + 1e-12:
                mids.append((a, b))
            else:  # safety: unexpected straddler, integrate its clipped part
                smooth.append((max(a, lo), min(b, hi)))
    return smooth, mids


def _panel(f, lo_arr, hi_arr, rule):
    nodes, wts = rule
    mid = 0.5 * (lo_arr + hi_arr)
    half = 0.5 * (hi_arr - lo_arr)
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    vals = _apply(f, xs.ravel()).reshape(xs.shape)
    return (vals @ wts) * half


def integrate_cells(f, smooth, mids, tol, total_len=None):
    """Adaptive GL-7/15 over the smooth cells plus midpoint rule on ``mids``."""
    total = 0.0
    if mids:
        lo_m = np.array([a for a, _ in mids])
        hi_m = np.array([b for _, b in mids])
        centers = 0.5 * (lo_m + hi_m)
        total += float(np.sum(_apply(f, centers) * (hi_m - lo_m)))
    if not smooth:
        return total
    lo = np.array([a for a, _ in smooth], dtype=float)
    hi = np.array([b for _, b in smooth], dtype=float)
    if total_len is None:
        total_len = float(np.sum(hi - lo))
    total_len = max(total_len, 1e-300)
    for _ in range(_MAX_PASSES):
        if lo.size == 0:
            break
        if lo.size > _MAX_CELLS:
            raise QuadratureError("quadrature cell budget exceeded")
        coarse = _panel(f, lo, hi, _GL_LO)
        fine = _panel(f, lo, hi, _GL_HI)
        err = np.abs(fine - coarse)
        budget = 0.5 * tol * (hi - lo) / total_len
        ok = err <= np.maximum(budget, 1e-17 * np.abs(fine))
        total += float(np.sum(fine[ok]))
        lo, hi = lo[~ok], hi[~ok]
        if lo.size:
            mid = 0.5 * (lo + hi)
            lo = np.concatenate((lo, mid))
            hi = np.concatenate((mid, hi))
            order = np.argsort(lo)
            lo, hi = lo[order], hi[order]
    else:
        raise QuadratureError(
            f"tolerance {tol:g} unreachable: {lo.size} cells still failing "
            f"after {_MAX_PASSES} refinement passes"
        )
    return total


def integrate_interval(f, lo, hi, tol=1e-9, breakpoints=(), cantor_supports=()):
    """Integral of ``f`` over [lo, hi] to absolute tolerance ``tol``.

    ``breakpoints`` must list every point where the integrand may jump or
    kink; ``cantor_supports`` every (lo, hi) support of a Cantor-function
    summand appearing anywhere inside ``f``.

    ``f`` may also be a tuple of integrands sharing those breakpoints and
    supports: the decomposition is then built once, each integrand is
    refined on its own, and a tuple with one integral per integrand is
    returned.
    """
    fs = f if isinstance(f, tuple) else (f,)
    if hi <= lo:
        out = (0.0,) * len(fs)
    else:
        smooth, mids = build_cells(lo, hi, breakpoints, cantor_supports, tol)
        out = tuple(integrate_cells(g, smooth, mids, tol) for g in fs)
    return out if isinstance(f, tuple) else out[0]
