"""The package's public API: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
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
