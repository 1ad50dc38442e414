"""The package's layering, read from its source with ``ast``."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import gossipskip

PACKAGE = Path(gossipskip.__file__).resolve().parent

# each module imports only from modules of a lower layer
LAYERS = {"topology": 0, "gossip": 1, "problems": 1, "algorithms": 2, "harness": 3, "cli": 4}
# the modules whose __all__ the package republishes
API_MODULES = ("topology", "gossip", "problems", "algorithms", "harness")


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


def _subcommand_options(tree: ast.Module) -> dict[str, dict[str, bool]]:
    """Per subcommand of ``tree``'s parser, each option it adds and whether it is required."""
    parsers = {}  # variable -> subcommand name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "add_parser"
        ):
            parsers[node.targets[0].id] = node.value.args[0].value
    options = {name: {} for name in parsers.values()}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in parsers
        ):
            required = any(
                kw.arg == "required" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in node.keywords
            )
            options[parsers[node.func.value.id]][node.args[0].value] = required
    return options


def test_cli_has_one_way_in_and_one_way_out():
    """Every subcommand reads its input from a required ``--config``, and
    ``topology`` takes nothing else; the CLI writes to stderr in one place,
    its one ``config error:`` handler."""
    tree = _tree("cli")
    options = _subcommand_options(tree)
    assert set(options) == {"run", "verify", "topology", "sweep"}
    assert {name: opts.get("--config") for name, opts in options.items()} == dict.fromkeys(options, True)
    assert options["topology"] == {"--config": True}
    stderr = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "stderr"]
    assert len(stderr) == 1


def test_package_api_is_the_modules_all():
    """``gossipskip`` publishes exactly its modules' ``__all__``, and each
    module defines every name in its own list."""
    modules = [importlib.import_module(f"gossipskip.{name}") for name in API_MODULES]
    public = {name for name in dir(gossipskip) if not name.startswith("_")} - set(LAYERS)
    assert public == {name for module in modules for name in module.__all__}
    undefined = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
        or getattr(getattr(module, name), "__module__", module.__name__) != module.__name__
    ]
    assert undefined == []


def test_no_dataclass_has_a_private_field():
    """A dataclass's fields are its constructor's arguments: state derived from
    them is a property, never a private field that a caller could pass."""
    private = [
        f"{module}.{cls.__name__}.{field.name}"
        for module in LAYERS
        for cls in vars(importlib.import_module(f"gossipskip.{module}")).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == f"gossipskip.{module}"
        for field in dataclasses.fields(cls)
        if field.name.startswith("_")
    ]
    assert private == []


def _private_definitions(tree: ast.Module):
    """``(name, statement)`` for each private function, class or constant that
    a top-level statement of ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _loads(node: ast.AST):
    """Every name ``node`` reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_no_dead_private_code():
    """Every private top-level function, class or constant of a package module
    is read somewhere in the package outside its own definition: a helper
    whose last caller is gone goes with it."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    definitions = [
        (module, name, node)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
    ]
    read = {name: 0 for _, name, _ in definitions}
    for tree in trees.values():
        for name in _loads(tree):
            if name in read:
                read[name] += 1
    # a definition's reads of its own name (a recursive call) keep nothing alive
    dead = [
        f"{module}.{name}"
        for module, name, node in definitions
        if read[name] == sum(load == name for load in _loads(node))
    ]
    assert dead == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree: ast.Module) -> list[str]:
    """Each private name ``tree`` imports from a package module, or reads as
    ``<module>._name`` through a package module it imported."""
    found, modules = [], set()  # modules: the dotted names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if not (source == "gossipskip" or source.startswith((".", "gossipskip."))):
                continue
            found += [f"imports {alias.name}" for alias in node.names if _is_private(alias.name)]
            # ``from . import gossip`` binds a module; ``from .gossip import x`` binds a name
            if source in (".", "gossipskip"):
                modules.update(alias.asname or alias.name for alias in node.names if alias.name in LAYERS)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gossipskip."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and ast.unparse(node.value) in modules:
            found.append(f"reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .gossip import _chebyshev",
        "from gossipskip.gossip import MultiGossipOperator, _MBAR_BLOCK",
        "from . import gossip\ngossip._chebyshev",
        "from gossipskip import gossip as g\ng._MBAR_BLOCK",
        "import gossipskip.gossip\ngossipskip.gossip._gather",
        "import gossipskip.gossip as g\ng._gather",
    ],
)
def test_private_read_guard_sees_each_form(source):
    assert len(_private_reads(ast.parse(source))) == 1


def test_no_module_reads_another_modules_private_names():
    """A private name is its own module's to change: no package module imports
    one from another, or reads one through another it imported."""
    reads = {path.stem: _private_reads(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}
    assert {module: found for module, found in reads.items() if found} == {}
