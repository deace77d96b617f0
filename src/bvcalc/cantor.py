"""Standard Cantor-Lebesgue function, the ternary tiling of [0, 1] and a
fixed-depth midpoint rule for the Cantor measure.

Everything here works in the coordinates of the unit interval.  The
singular measure mu_C is the distributional derivative of the Cantor
function C: it splits equally over the two level-1 cells [0,1/3] and
[2/3,1], which gives the midpoint rule of :func:`integrate_cantor_std`.
The library integrates against mu_C by the adaptive rules of
``quadrature.integrate_cantor``, through ``CantorBase.integrate``; the
midpoint rule is only the reference that tests and the benchmark call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Depth of the exact ternary digit scan.  53 binary digits of output are all a
# float can hold; a few extra guard digits cost nothing.
_SCAN_DEPTH = 64
# The exact scan runs in uint64 on floats t >= 2^-72: each is an integer
# multiple of 2^-124, whose numerator t * 2^126 is kept in three 42-bit limbs.
_LIMB_BITS = np.uint64(42)
_LIMB_ONE = 2.0 ** 42
_LIMB_MASK = np.uint64(2 ** 42 - 1)
_DYADIC_MIN = 2.0 ** -72
# (digits a step, steps): 8 to digit 48 (a limb times 3^8 plus carry < 2^64),
# then 1.  Partial sums are exact to digit 53, so a block adds what its digits
# add one by one; past it, sums round digit by digit, as in ``_fraction_scan``.
_SCAN_BLOCKS = ((8, 6), (1, _SCAN_DEPTH - 48))

_MAX_DEPTH = 24          # hard cap for the reference rule's depth (2^24 cells)
_CACHE_DEPTH = 20        # midpoint arrays cached up to this depth


def _fraction_scan(fx):
    """Exact digit scan of one rational ``fx`` in [0, 1[."""
    val = 0.0
    scale = 0.5
    y = fx
    for _ in range(_SCAN_DEPTH):
        y *= 3
        d = int(y)  # floor; y < 3 so d in {0,1,2}
        y -= d
        if d == 1:
            val += scale
            break
        if d == 2:
            val += scale
        scale *= 0.5
        if y == 0:
            break
    return val


@lru_cache(maxsize=None)
def _digit_table(width):
    """Per index q < 3^width, read as ``width`` ternary digits of the scan:
    the Cantor bits they add (the first digit's bit is 1/2) up to and
    including their first digit 1, and whether the scan goes on past them
    (no digit 1).  Built on first use, from the table of the later digits."""
    if width == 0:
        return np.zeros(1), np.ones(1, dtype=bool)
    bits, goes_on = _digit_table(width - 1)
    return (np.concatenate((0.5 * bits, np.full(bits.size, 0.5), 0.5 + 0.5 * bits)),
            np.concatenate((goes_on, np.zeros(bits.size, dtype=bool), goes_on)))


def _dyadic_scan(ts, live, out):
    """The digit scan of :func:`_fraction_scan`, added into ``out`` at the
    points where ``live`` is set, which must be 0 or lie in [2^-72, 1[.
    It runs on the numerators ts * 2^126 in three uint64 limbs
    ``hi * 2^84 + mid * 2^42 + lo``, ``_SCAN_BLOCKS`` digits a step.
    Points stay in place, and ``live`` is cleared as their scans end:
    compacting the live points instead raised the peak memory of a run.
    ``live`` and ``out`` are updated through views of any layout (a 0-d
    array too), never through a copy."""
    ts, live, out = np.atleast_1d(ts, live, out)
    scaled, limbs = ts * _LIMB_ONE, []
    for _ in range(3):
        limbs.append(scaled.astype(np.uint64))
        scaled -= limbs[-1]
        scaled *= _LIMB_ONE
    hi, mid, lo = limbs
    q, bits, more = np.empty_like(hi), scaled, np.empty_like(live)
    scale = 1.0
    for width, steps in _SCAN_BLOCKS:
        times = np.uint64(3 ** width)
        table, goes_on = _digit_table(width)
        for _ in range(steps):
            if not live.any():
                return
            lo *= times
            mid *= times
            mid += np.right_shift(lo, _LIMB_BITS, out=q)
            lo &= _LIMB_MASK
            hi *= times
            hi += np.right_shift(mid, _LIMB_BITS, out=q)
            mid &= _LIMB_MASK
            np.right_shift(hi, _LIMB_BITS, out=q)
            hi &= _LIMB_MASK
            q *= live  # ended scans (and t = 1, at 2^126) read digits 0
            np.take(table, q, out=bits)
            bits *= scale
            out += bits
            live &= np.take(goes_on, q, out=more)
            np.bitwise_or(hi, mid, out=q)
            q |= lo
            live &= np.not_equal(q, 0, out=more)
            scale *= 0.5 ** width


def cantor_function_eval(x):
    """Exact value of the Cantor-Lebesgue function at ``x`` in [0, 1]; a
    float gives a float, an array gives an array.

    The ternary digits of each point are scanned exactly (the float is the
    dyadic rational it represents): digits 0/2 are emitted as binary 0/1
    until the first digit 1, which appends a final binary 1.  Output is
    exact whenever it is a representable dyadic rational.  Zero and points
    of [2^-72, 1[ are scanned in uint64, points of ]0, 2^-72[ in
    :class:`fractions.Fraction`.
    """
    ts = np.asarray(x, dtype=float)
    bad = ~((ts >= 0.0) & (ts <= 1.0))
    if bad.any():
        first = float(ts[bad].flat[0])
        raise DomainError(f"cantor function argument {first!r} outside [0, 1]")
    slow = (ts > 0.0) & (ts < _DYADIC_MIN)
    live = (ts < 1.0) & ~slow
    out = np.where(live, 0.0, 1.0)
    _dyadic_scan(ts, live, out)
    out[slow] = [_fraction_scan(Fraction(t)) for t in ts[slow].tolist()]
    return float(out) if ts.ndim == 0 else out


@lru_cache(maxsize=None)
def _std_lefts(depth):
    """Left endpoints of the 2^depth level-``depth`` Cantor cells (sorted)."""
    lefts = np.array([0.0])
    for k in range(depth):
        w = 3.0 ** -(k + 1)
        lefts = np.sort(np.concatenate((lefts, lefts + 2.0 * w)))
    lefts.setflags(write=False)
    return lefts


@lru_cache(maxsize=None)
def _std_mids(depth):
    if depth > _CACHE_DEPTH:
        raise ValueError("midpoint cache depth exceeded")
    mids = _std_lefts(depth) + 0.5 * 3.0 ** -depth
    mids.setflags(write=False)
    return mids


@lru_cache(maxsize=None)
def std_cells(depth):
    """Ternary tiling of [0,1]: gap intervals (C locally constant) up to
    ``depth`` plus the 2^depth leftover cells.  Returns four read-only arrays
    ``(gap_lo, gap_hi, cell_lo, cell_hi)`` that tile [0,1]: the gaps are the
    middle thirds of the cells of each level below ``depth``."""
    lefts = [_std_lefts(k) for k in range(depth + 1)]
    thirds = [3.0 ** -(k + 1) for k in range(depth)]
    arrays = (
        np.sort(np.concatenate([a + w for a, w in zip(lefts, thirds)] or [[]])),
        np.sort(np.concatenate([a + 2.0 * w for a, w in zip(lefts, thirds)] or [[]])),
        lefts[-1],
        lefts[-1] + 3.0 ** -depth,
    )
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _pointwise(f, xs):
    """``f`` called on one point of ``xs`` at a time, in the shape of
    ``xs``: the fallback for an integrand that does not take arrays."""
    flat = xs.ravel()
    return np.fromiter((float(f(x)) for x in flat), dtype=float, count=flat.size).reshape(xs.shape)


def _apply(f, xs, stacked=False):
    """Evaluate a (hopefully vectorised) callable on an array of any shape,
    with a pointwise fallback, and reject non-finite values.  With
    ``stacked`` the values may carry one leading axis of components."""
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape and not (stacked and vals.shape[1:] == xs.shape):
            raise TypeError
    except (TypeError, ValueError, IndexError):
        vals = _pointwise(f, xs)
    if not np.all(np.isfinite(vals)):
        from .errors import QuadratureError
        raise QuadratureError("integrand produced non-finite values")
    return vals


def _mids_for(depth):
    """Midpoints of the 2^depth cells, as one array (depth <= cache) or a
    generator of chunks."""
    if depth <= _CACHE_DEPTH:
        yield _std_mids(depth)
        return
    extra = depth - _CACHE_DEPTH
    prefix = _std_lefts(extra)
    base = _std_mids(_CACHE_DEPTH) * 3.0 ** -extra
    for p in prefix:
        yield p + base


def integrate_cantor_std(f, depth, breakpoints=()):
    """Average of ``f`` over the level-``depth`` cell midpoints = quadrature of
    f against the standard Cantor measure, descended around the
    ``breakpoints`` as :func:`integrate_cantor_std_restricted` does."""
    return integrate_cantor_std_restricted(f, 0.0, 1.0, depth, breakpoints)


def _piece(f, lo, hi, depth):
    """The midpoint rule on the part of the cell tree inside [lo, hi]: a
    cell fully inside averages f over its level-``depth`` midpoints (at
    least its own), and a cell still straddling an end at level ``depth``
    takes its exact mass inside at the midpoint of that part."""
    total = 0.0
    stack = [(0, 0)]
    while stack:
        k, lev = stack.pop()
        # int / int is correctly rounded, as float(Fraction(k, 3**lev)) is
        l, r = k / 3 ** lev, (k + 1) / 3 ** lev
        if r <= lo or l >= hi:
            continue
        if lo <= l and r <= hi:
            res = max(depth - lev, 0)
            sub = 0.0
            for mids in _mids_for(res):
                # the root cell is [0, 1]: no copy of a cached array
                sub += float(np.sum(_apply(f, mids if lev == 0 else l + (r - l) * mids)))
            total += 2.0 ** -lev * sub / 2 ** res
        elif lev >= depth:
            a, b = max(l, lo), min(r, hi)
            mass = cantor_function_eval(b) - cantor_function_eval(a)
            total += mass * float(_apply(f, np.array([0.5 * (a + b)]))[0])
        else:
            stack += [(3 * k, lev + 1), (3 * k + 2, lev + 1)]
    return total


def integrate_cantor_std_restricted(f, lo, hi, depth, breakpoints=()):
    """Quadrature of f against the standard Cantor measure restricted to
    [lo, hi] in [0,1], summed over the pieces between the ``breakpoints``
    strictly inside, by the midpoint rule at ``depth`` (at most
    ``_MAX_DEPTH``; see :func:`_piece`).  Its error is O(3^-depth), and
    O(4^-depth) through C, and it makes no estimate: the fixed-depth
    reference that tests and the benchmark's microbenchmark call, where
    the library integrates by ``quadrature.integrate_cantor``."""
    depth = max(1, min(int(depth), _MAX_DEPTH))
    lo, hi = max(0.0, float(lo)), min(1.0, float(hi))
    edges = [lo, *sorted(c for c in breakpoints if lo < c < hi), hi]
    return sum(_piece(f, p, q, depth) for p, q in zip(edges[:-1], edges[1:]) if q > p)
