"""The package's public API: ``__all__`` lists exactly what ``__init__``
imports, the Cantor-measure integrals have one owner, and so does the level
inversion."""

import ast
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
    callers = {f for f, text in sources.items() if re.search(r"integrate_cantor_std\w*\(", text)}
    assert callers <= {"cantor.py", "measures.py"}
    assert {f for f, text in sources.items() if "from_std(" in text} == {"measures.py"}
    assert "guard=" not in sources["cantor.py"]


def _calls_by_function(tree, name):
    """Names of the innermost functions of ``tree`` that call ``name``."""
    out = []

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            out.append(owner)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, None)
    return out


def test_level_inversion_has_one_bisection():
    """``c_alpha`` is a one-point call of ``c_alpha_values``: it holds no
    loop, takes no tolerance, and only the sided one-point entropy handle
    calls it."""
    from bvcalc import claw

    loops = (ast.For, ast.While, ast.comprehension)
    tree = ast.parse(inspect.getsource(claw.c_alpha))
    assert not [n for n in ast.walk(tree) if isinstance(n, loops)]
    assert "tol" not in inspect.signature(claw.c_alpha).parameters
    callers = []
    for path in Path(bvcalc.__file__).parent.glob("*.py"):
        callers += _calls_by_function(ast.parse(path.read_text()), "c_alpha")
    assert callers == ["eta_sided_fn"]
