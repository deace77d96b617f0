"""The package's public API: ``__all__`` lists exactly what ``__init__``
imports, the Cantor-measure integrals have one owner and no depth rule,
every monotone inversion shares one bisection, and the operators and knobs
that nothing reached stay deleted."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import bvcalc


def imported_public_names():
    tree = ast.parse(Path(bvcalc.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    for name in bvcalc.__all__:
        assert getattr(bvcalc, name, None) is not None, name


def test_all_matches_the_imported_public_names():
    assert len(set(bvcalc.__all__)) == len(bvcalc.__all__)
    assert set(bvcalc.__all__) == imported_public_names()


def test_cantor_integrals_have_one_owner():
    """Every integral against a Cantor base goes through
    ``CantorBase.integrate``, and every flux gives its singular density
    through ``singular_densities()``: the copies they replaced are gone."""
    sources = {p.name: p.read_text() for p in Path(bvcalc.__file__).parent.glob("*.py")}
    for name in ("cantor_dictionary", "singular_ratio", "reference_cantor", "_cantor_integral"):
        assert not [f for f, text in sources.items() if name in text], name
    # the midpoint rule is a reference only: no library path calls it
    callers = {f for f, text in sources.items() if re.search(r"integrate_cantor_std\w*\(", text)}
    assert callers == {"cantor.py"}
    callers = {f for f, text in sources.items() if re.search(r"\bintegrate_cantor\(", text)}
    assert callers == {"measures.py", "quadrature.py"}
    assert "guard=" not in sources["cantor.py"]


def _callers(tree, name):
    """The chain of enclosing function names of every call of ``name``."""
    out = []

    def walk(node, owners):
        if isinstance(node, ast.FunctionDef):
            owners = owners + (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            out.append(owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, ())
    return out


def test_level_inversion_has_one_bisection():
    """Every inversion over states or x goes through ``quadrature._bisect``:
    the c_alpha levels, the coarea level points, the adapted-flux cuts and
    the sign changes of a polynomial piece.  Each passes its slope, so the
    search has one signature and one loop.  The one-point inversion, the
    fixed-pass loops, the companion-matrix roots, the separate Newton search
    and its switch are gone."""
    sources = [p.read_text() for p in Path(bvcalc.__file__).parent.glob("*.py")]
    trees = [ast.parse(text) for text in sources]
    assert sorted(c for tree in trees for c in _callers(tree, "_bisect")) == [
        ("_invert",),
        ("_sign_changes",),
        ("adapted_entropy_pair", "cuts"),
        ("coarea_rhs", "located_sum"),
    ]
    names = {
        getattr(node, key)
        for tree in trees
        for node in ast.walk(tree)
        for key in ("id", "attr", "name", "arg")
        if isinstance(getattr(node, key, None), str)
    }
    assert not names & {"c_alpha", "eta_sided", "eta_sided_fn"}
    assert not [text for text in sources if "range(80)" in text or "range(60)" in text]
    assert not [text for text in sources if "polyroots" in text or "_NEGLIGIBLE" in text]
    assert list(inspect.signature(bvcalc.quadrature._bisect).parameters) == ["g", "lo", "hi", "ghi"]
    assert not [text for text in sources if "_rtsafe" in text or "sloped" in text]


def test_per_cell_pairings_share_one_window_pairing():
    """The per-cell parts of the piecewise-constant assembly, the
    entropy-flux slice and the level-set comparison all go through
    ``chainrule._window_pairing``.  ``claw.py`` integrates against no
    Cantor base itself, and no call of ``.integrate`` in ``claw.py`` or
    ``chainrule.py`` passes a literal depth."""
    src = Path(bvcalc.__file__).parent
    trees = {name: ast.parse((src / name).read_text()) for name in ("claw.py", "chainrule.py")}
    integrate_calls = {
        name: [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "integrate"
        ]
        for name, tree in trees.items()
    }
    assert not integrate_calls["claw.py"]
    for call in integrate_calls["chainrule.py"]:
        assert not [a for a in call.args if isinstance(a, ast.Constant)], ast.unparse(call)
    assert _callers(trees["claw.py"], "_window_pairing") == [("_slice_q_pairing",)]
    assert sorted(_callers(trees["chainrule.py"], "_window_pairing")) == [
        ("levelset_comparison_pwc", "indicator_pairing"),
        ("pwc_direct_assembly",),
    ]


def test_one_chain_rule_surface():
    """Both flux classes expose the one flux protocol and no gradient twin
    of ``diffuse_on_grid``; no wrapper around the term assembler is left,
    and in ``chainrule.py`` only the assembler and the window pairing call
    ``integrate_interval``, so the lhs has one quadrature path."""
    protocol = {
        "domain", "breakpoints", "cantor_supports", "exceptional_set",
        "value_on_grid", "diffuse_on_grid", "eval", "singular_densities",
    }
    for cls in (bvcalc.FluxModel, bvcalc.CompositeFlux):
        assert protocol <= set(dir(cls)), cls.__name__
    src = Path(bvcalc.__file__).parent
    sources = {p.name: p.read_text() for p in src.glob("*.py")}
    gone = (
        "grad_x_on_grid", "grad_w_on_grid", "chainrule_lhs", "_lhs_integrand",
        "verify_chainrule", "product_flux_terms", "composite_flux_",
    )
    for name in gone:
        assert not [f for f, text in sources.items() if name in text], name
    tree = ast.parse(sources["chainrule.py"])
    assert sorted(_callers(tree, "integrate_interval")) == [
        ("_assemble",),
        ("_window_pairing",),
    ]


def _defined(cls):
    """Names a class defines itself, not through ``object``."""
    return set().union(*(vars(c) for c in cls.__mro__ if c is not object))


def test_no_unreached_operators_or_knobs():
    """The operators, scalar-input twins and one-valued knobs that nothing
    reached are gone: the array path is the one way in."""
    gone = {
        bvcalc.BVFunction: {"__call__", "scale", "__sub__", "__neg__", "__radd__"},
        bvcalc.BVVector: {"dim", "total_variation"},
        bvcalc.PiecewisePolynomial: {"right_limit", "left_limit", "__sub__"},
        bvcalc.RadonMeasure: {"__neg__", "__sub__"},
    }
    for cls, names in gone.items():
        assert not names & _defined(cls), cls.__name__
    assert "lip" not in {f.name for f in dataclasses.fields(bvcalc.SmoothFunction)}
    assert list(inspect.signature(bvcalc.Interval.contains).parameters) == ["self", "x"]
    assert list(inspect.signature(bvcalc.Interval.contains_interval).parameters) == [
        "self", "other",
    ]
    assert "isinstance" not in inspect.getsource(bvcalc.cantor_function_eval)
    assert "isinstance(other" not in inspect.getsource(bvcalc.BVFunction.__add__)
    assert "u0(" not in inspect.getsource(bvcalc.solve_claw)


def test_no_product_slots_in_the_measure_model():
    """A weight belongs to the integrand: the Leibniz residual pairs plain
    derivative measures, so the measure model keeps no product slots, its
    total variation takes no tolerance, and Cantor parts on one base merge
    at construction."""
    from bvcalc import bvfunction, measures

    for mod in (bvcalc, bvfunction, measures):
        assert not {"leibniz_product", "ModulatedDensity"} & set(vars(mod)), mod.__name__
    assert "_merge_cantor" not in _defined(bvcalc.BVFunction)
    assert "density" not in _defined(bvcalc.RadonMeasure)
    assert "multiply" not in _defined(bvcalc.PiecewisePolynomial)
    assert [f.name for f in dataclasses.fields(measures.CantorTerm)] == ["base", "coefficient"]
    assert "ac_modulated" not in {f.name for f in dataclasses.fields(bvcalc.RadonMeasure)}
    assert list(inspect.signature(bvcalc.measure_total_variation).parameters) == ["mu"]


def test_one_cantor_depth_rule():
    """No Cantor integral runs at a depth: every one goes through the
    adaptive driver to a tol, so neither the depth rule nor the guard
    levels of the midpoint walk are left, ``CantorBase.integrate`` takes a
    tol, and neither a chain-rule depth nor a Lipschitz hint is back."""
    from bvcalc import chainrule, measures

    sources = [p.read_text() for p in Path(bvcalc.__file__).parent.glob("*.py")]
    for name in ("depth_for", "_GUARD", "lip_hint", "_cantor_depth"):
        assert not [text for text in sources if name in text], name
    params = list(inspect.signature(measures.CantorBase.integrate).parameters)
    assert params == ["self", "f", "tol", "breakpoints", "window"]
    assert not hasattr(chainrule, "_cantor_depth")
    assert "lip_hint" not in inspect.signature(bvcalc.integrate_measure).parameters


def test_the_staircase_mesh_samples_nothing():
    """The piecewise-constant mesh comes from the exact variation of the
    continuous part: no sample grid, no step-matrix product, and none of
    the sampled oscillation search is back."""
    from bvcalc import pwconst

    text = Path(pwconst.__file__).read_text()
    for token in ("np.linspace", "_osc_"):
        assert token not in text, token
    assert not [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.MatMult)]
