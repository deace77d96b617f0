#!/usr/bin/env python3
"""Term-by-term closing of the composition rule for v(x) = B(x, u(x)).

One flux term carries a Cantor coefficient, the state jumps where the
coefficient does not: every derivative part of v is then exercised.
The five stored terms carry the sign convention lhs + sum(terms) = 0.
"""

import numpy as np

from bvcalc import (
    BVFunction,
    FluxModel,
    SmoothFunction,
    TestFunction,
    chainrule_star_form,
    chainrule_terms,
)

K1 = BVFunction.constant(0.0, 1.0, 1.0) + BVFunction.cantor_fn(
    0.0, 1.0, support=(0.0, 1.0), coefficient=0.8
)
K2 = BVFunction.from_poly(0.0, 1.0, (0.5, 1.0))
B = FluxModel(
    (
        (K1, SmoothFunction.poly1d((0.0, 0.0, 1.0), "w^2")),
        (K2, SmoothFunction.poly1d((0.0, 1.0), "w")),
    ),
    dim=1,
)
u = BVFunction.from_poly(0.0, 1.0, (0.2, 0.9)) + BVFunction.heaviside(
    0.0, 1.0, 0.45, 0.0, -0.6
)
phi = TestFunction.bump((0.05, 0.95), 1.0)

rep = chainrule_terms(B, u, phi)
names = (
    "x-gradient against dx",
    "x-gradient against the reference Cantor measure",
    "state-gradient against the diffuse state derivative",
    "state-gradient against the state Cantor part",
    "jump bracket sum",
)
print(f"lhs (v against phi'): {rep.lhs:+.10f}")
for name, t in zip(names, rep.terms):
    print(f"  {name:<48s} {t:+.10f}")
print(f"residual lhs + sum(terms) = {rep.residual:+.3e}")

star = chainrule_star_form(B, u, phi, rep)
print(f"starred rewriting residual = {rep.lhs + star:+.3e}")
