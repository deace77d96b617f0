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
