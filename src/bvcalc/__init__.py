"""Calculus for one-dimensional functions of bounded variation.

Exact distributional derivatives (density + Cantor + atoms) for a closed
class of piecewise-polynomial / Cantor-sum functions, term-by-term
verification of the flux composition rule v(x) = B(x, u(x)), certified
piecewise-constant approximation, and scalar conservation laws with
space-discontinuous flux, including adapted entropy diagnostics.
"""

from .errors import (
    AbsoluteContinuityError,
    CFLError,
    DomainError,
    QuadratureError,
    RangeError,
    RepresentationError,
    ScenarioError,
)
from .measures import (
    CantorBase,
    Interval,
    PiecewisePolynomial,
    RadonMeasure,
    integrate_measure,
    measure_total_variation,
    mollified_measure_eval,
    radon_nikodym_cantor,
)
from .cantor import (
    cantor_function_eval,
    integrate_cantor_std,
    integrate_cantor_std_restricted,
)
from .quadrature import integrate_interval
from .bvfunction import (
    BVFunction,
    BVVector,
    TestFunction,
    coarea_lhs,
    coarea_rhs,
    integration_by_parts_residual,
    leibniz_weak_residual,
)
from .pwconst import ExceptionalSet, PiecewiseConstant, approximate_scalar, approximate_vector
from .chainrule import (
    ChainRuleReport,
    CompositeFlux,
    FluxModel,
    SmoothFunction,
    chainrule_star_form,
    chainrule_terms,
    flux_derivatives,
    levelset_comparison_pwc,
    pwc_direct_assembly,
    weighted_chainrule,
)
from .claw import (
    AffineEntropy,
    ClawField,
    EntropyFluxPair,
    ScalarFlux,
    SpaceTimeTest,
    adapted_entropy_pair,
    affine_entropy_approx,
    affine_pair,
    c_alpha_values,
    entropy_residual,
    is_rankine_hugoniot,
    solve_claw,
)
from .scenario import Scenario, parse_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "AffineEntropy",
    "BVFunction",
    "BVVector",
    "CFLError",
    "CantorBase",
    "ChainRuleReport",
    "ClawField",
    "CompositeFlux",
    "DomainError",
    "EntropyFluxPair",
    "ExceptionalSet",
    "FluxModel",
    "Interval",
    "PiecewiseConstant",
    "PiecewisePolynomial",
    "QuadratureError",
    "RadonMeasure",
    "RangeError",
    "RepresentationError",
    "ScalarFlux",
    "Scenario",
    "ScenarioError",
    "SmoothFunction",
    "SpaceTimeTest",
    "TestFunction",
    "adapted_entropy_pair",
    "affine_entropy_approx",
    "affine_pair",
    "approximate_scalar",
    "approximate_vector",
    "c_alpha_values",
    "cantor_function_eval",
    "chainrule_star_form",
    "chainrule_terms",
    "coarea_lhs",
    "coarea_rhs",
    "entropy_residual",
    "flux_derivatives",
    "integrate_cantor_std",
    "integrate_cantor_std_restricted",
    "integrate_interval",
    "integrate_measure",
    "integration_by_parts_residual",
    "is_rankine_hugoniot",
    "leibniz_weak_residual",
    "levelset_comparison_pwc",
    "measure_total_variation",
    "mollified_measure_eval",
    "parse_scenario",
    "pwc_direct_assembly",
    "radon_nikodym_cantor",
    "run_scenario",
    "solve_claw",
    "weighted_chainrule",
]
