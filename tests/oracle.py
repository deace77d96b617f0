"""Exact rational integrals of polynomials in (x, C(x)) against dx, where C
is the Cantor function of a support, by self-similarity (Strichartz,
"Evaluating integrals using self-similarity", Amer. Math. Monthly 107,
2000).  Everything is in :class:`fractions.Fraction`; the library has no
part in it, so it checks the library's quadrature from outside.

On [0, 1], C(s/3) = C(s)/2, C = 1/2 on the middle third and
C((s + 2)/3) = (1 + C(s))/2.  Splitting ∫₀¹ sⁱ Cʲ ds over the three thirds
gives, for I_ij = ∫₀¹ sⁱ C(s)ʲ ds,

    I_ij (1 - 2 · 3^-(i+1) 2^-j) = 2^-j ∫_{1/3}^{2/3} sⁱ ds
        + 3^-(i+1) 2^-j Σ_{(a, b) ≠ (i, j)} C(i, a) 2^(i-a) C(j, b) I_ab,

a recursion on moments of lower order.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def moment(i, j):
    """I_ij = ∫₀¹ sⁱ C(s)ʲ ds."""
    half = Fraction(1, 2) ** j
    third = Fraction(1, 3) ** (i + 1)
    rhs = half * (Fraction(2, 3) ** (i + 1) - Fraction(1, 3) ** (i + 1)) / (i + 1)
    for a in range(i + 1):
        for b in range(j + 1):
            if (a, b) != (i, j):
                rhs += third * half * comb(i, a) * 2 ** (i - a) * comb(j, b) * moment(a, b)
    return rhs / (1 - 2 * third * half)


def centred(a, b):
    """∫₀¹ (s - 1/2)^a (C(s) - 1/2)^b ds."""
    h = Fraction(-1, 2)
    return sum(
        comb(a, p) * h ** (a - p) * comb(b, q) * h ** (b - q) * moment(p, q)
        for p in range(a + 1)
        for q in range(b + 1)
    )


def cantor_at(k, m):
    """(gap, C): whether the level-m ternary cell [k/3^m, (k+1)/3^m] lies in
    a gap of the Cantor set, and C at its left end."""
    digits = [(k // 3 ** (m - 1 - n)) % 3 for n in range(m)]
    value = Fraction(0)
    for n, d in enumerate(digits):
        if d == 1:
            return True, value + Fraction(1, 2 ** (n + 1))
        value += Fraction(d // 2, 2 ** (n + 1))
    return False, value


def cell_moment(i, j, k, m):
    """∫ sⁱ C(s)ʲ ds over the level-m ternary cell [k/3^m, (k+1)/3^m]:
    C is constant on a gap cell, and on a Cantor cell s = (k + u)/3^m and
    C(s) = c + 2^-m C(u)."""
    gap, c = cantor_at(k, m)
    w = Fraction(1, 3 ** m)
    if gap:
        lo = k * w
        return c ** j * ((lo + w) ** (i + 1) - lo ** (i + 1)) / (i + 1)
    total = Fraction(0)
    for a in range(i + 1):
        for b in range(j + 1):
            total += (
                comb(i, a) * (k * w) ** (i - a) * w ** a
                * comb(j, b) * c ** (j - b) * Fraction(1, 2 ** m) ** b
                * moment(a, b)
            )
    return w * total


def integral(poly, support, window):
    """∫ Σ c_ij xⁱ C((x - lo)/(hi - lo))ʲ dx over a ternary-aligned window
    of the support (lo, hi): ``poly`` maps (i, j) to c_ij, the support ends
    are rationals (floats are read exactly), and ``window`` is (k, l, m),
    the part [k/3^m, l/3^m] of the support in its own coordinates."""
    lo, hi = (Fraction(v) for v in support)
    width = hi - lo
    k, l, m = window
    total = Fraction(0)
    for (i, j), c in poly.items():
        # x^i = (lo + width s)^i, and dx = width ds
        for a in range(i + 1):
            scale = comb(i, a) * lo ** (i - a) * width ** (a + 1)
            total += Fraction(c) * scale * sum(cell_moment(a, j, n, m) for n in range(k, l))
    return total



def _images(moments, n, digit):
    """The graph moments (i, j <= n) of a measure's image under
    s -> (s + digit)/3, C -> (C + digit/2)/2, digit 0 or 2, from its own."""
    return {
        (i, j): Fraction(1, 3 ** i * 2 ** j) * sum(
            comb(i, a) * digit ** (i - a) * comb(j, b) * Fraction(digit, 2) ** (j - b) * moments[a, b]
            for a in range(i + 1)
            for b in range(j + 1)
        )
        for i in range(n + 1)
        for j in range(n + 1)
    }


@lru_cache(maxsize=None)
def graph_moment(i, j):
    """M_ij = ∫ sⁱ C(s)ʲ dμ_C on [0, 1].  μ_C puts half its mass on each of
    the images of [0, 1] under s -> s/3 (C -> C/2) and s -> (s + 2)/3
    (C -> (1 + C)/2), so

        M_ij (1 - 3^-i 2^-j) = ½ 3^-i 2^-j Σ_{(a, b) ≠ (i, j)} C(i, a) 2^(i-a) C(j, b) M_ab."""
    if (i, j) == (0, 0):
        return Fraction(1)
    scale = Fraction(1, 3 ** i * 2 ** j)
    rhs = sum(
        comb(i, a) * 2 ** (i - a) * comb(j, b) * graph_moment(a, b)
        for a in range(i + 1)
        for b in range(j + 1)
        if (a, b) != (i, j)
    )
    return scale * rhs / 2 / (1 - scale)


def graph_centred(a, b):
    """∫ (s - 1/2)^a (C(s) - 1/2)^b dμ_C on [0, 1]."""
    h = Fraction(-1, 2)
    return sum(
        comb(a, p) * h ** (a - p) * comb(b, q) * h ** (b - q) * graph_moment(p, q)
        for p in range(a + 1)
        for q in range(b + 1)
    )



@lru_cache(maxsize=None)
def tail_moments(t, n):
    """The graph moments ∫_[t, 1] sⁱ C(s)ʲ dμ_C (i, j <= n) of a rational t
    in [0, 1], as a dict by (i, j).  By the digits of t, [t, 1] ∩ K is
    S0([3t, 1] ∩ K) ∪ S2(K) (digit 0), S2(K) (digit 1: t in a middle third)
    or S2([3t - 2, 1] ∩ K) (digit 2), with S_d the maps of :func:`_images`
    and half the mass on each image.  The orbit of t under t -> 3t mod 1 is
    eventually periodic, so its tails solve one small linear system per
    moment, in order of degree: a chain of substitutions that ends at 0, in
    a middle third, or in a cycle."""
    full = {(i, j): graph_moment(i, j) for i in range(n + 1) for j in range(n + 1)}
    t = Fraction(t)
    if t >= 1:
        return {key: Fraction(0) for key in full}
    right = {key: v / 2 for key, v in _images(full, n, 2).items()}
    orbit = []
    while 0 < t < 1 and int(3 * t) != 1 and t not in orbit:
        orbit.append(t)
        t = 3 * t - 2 * (int(3 * t) // 2)
    end = full if t == 0 else None if t in orbit else right
    if not orbit:
        return end
    tails = [{} for _ in orbit]
    for i, j in sorted(full, key=sum):
        r = Fraction(1, 2 * 3 ** i * 2 ** j)
        base = []
        for m, p in enumerate(orbit):
            d = int(3 * p)
            nxt = tails[m + 1] if m + 1 < len(orbit) else end or tails[orbit.index(t)]
            base.append(r * sum(
                comb(i, a) * d ** (i - a) * comb(j, b) * Fraction(d, 2) ** (j - b) * nxt[a, b]
                for a in range(i + 1)
                for b in range(j + 1)
                if (a, b) != (i, j)
            ) + (right[i, j] if d == 0 else 0))
        # x_m = base_m + r x_(m+1), and past the orbit the end or the cycle
        if end is None:
            k, x, scale = orbit.index(t), Fraction(0), Fraction(1)
            for m in range(k, len(orbit)):
                x, scale = x + scale * base[m], scale * r
            x /= 1 - scale
        else:
            x = end[i, j]
        for m in reversed(range(len(orbit))):
            x = base[m] + r * x
            tails[m][i, j] = x
    return tails[0]


def window_integral(poly, support, lo, hi):
    """∫ Σ c_ij xⁱ C((x - s0)/(s1 - s0))ʲ dμ over [lo, hi], μ the unit
    Cantor measure of the rational ``support`` (s0, s1): ``poly`` maps
    (i, j) to c_ij, and all numbers are read as exact rationals."""
    s0, s1 = (Fraction(v) for v in support)
    width = s1 - s0
    a, b = (min(max((Fraction(v) - s0) / width, Fraction(0)), Fraction(1)) for v in (lo, hi))
    n = max((max(key) for key in poly), default=0)
    inside = {k: v - tail_moments(b, n)[k] for k, v in tail_moments(a, n).items()}
    total = Fraction(0)
    for (i, j), c in poly.items():
        # x^i = (s0 + width s)^i
        total += Fraction(c) * sum(
            comb(i, p) * s0 ** (i - p) * width ** p * inside[p, j] for p in range(i + 1)
        )
    return total
