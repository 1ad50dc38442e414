"""The package's layering, read from its source with ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

import gossipskip

PACKAGE = Path(gossipskip.__file__).resolve().parent

# each module imports only from modules of a lower layer
LAYERS = {"topology": 0, "gossip": 1, "problems": 1, "algorithms": 2, "harness": 3, "cli": 4}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports from, relatively or by full name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(node.module.split(".")[0])
            elif node.level:
                # ``from . import name``: a module only when it is one
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("gossipskip."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("gossipskip.")
            )
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_no_module_imports_from_a_layer_above_or_beside_it():
    upward = {
        (module, imported)
        for module, layer in LAYERS.items()
        for imported in _imported_modules(_tree(module))
        if LAYERS[imported] >= layer
    }
    assert upward == set()


def _names(tree: ast.Module):
    """Every name ``tree`` binds, reads or imports, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_cli_builds_nothing_itself():
    """The CLI reaches graphs, problems and the reference through the harness."""
    banned = {"build_ring", "build_random_connectivity", "build_problem", "centralized_solve"}
    assert banned.intersection(_names(_tree("cli"))) == set()
