"""Every name a dld module imports is used in that module.

`__init__.py` re-exports, so it is left out.  An import marked
`noqa: F401` is left out only when perfbench's `SPANS` names it as a
span target in that module: perfbench wraps it there by name, so it is
imported for the benchmark's tracer, not for the module's own code.
Every target perfbench's span tuples name must exist."""

import ast
import importlib
from pathlib import Path

import pytest

import dld

SOURCES = sorted(p for p in Path(dld.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _span_targets(tuple_name: str) -> set:
    """The (module, attribute) pairs of a perfbench span tuple, read
    from its source without importing perfbench."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [tuple_name]):
            return {(module, name) for module, name, _
                    in ast.literal_eval(node.value)}
    raise AssertionError(f"no {tuple_name} in {LAYERS}")


SPAN_TARGETS = _span_targets("SPANS")


@pytest.mark.parametrize("tuple_name", ["SPANS", "GENERATOR_SPANS"])
def test_every_span_target_exists(tuple_name):
    """perfbench's traced run wraps each target by name, so a target
    that moved or was renamed stops `--trace 1` at its first pass."""
    missing = sorted((module, name)
                     for module, name in _span_targets(tuple_name)
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"{tuple_name} names what dld lacks: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    module = f"dld.{path.stem}"
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any("noqa: F401" in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if marked and (module, name) in SPAN_TARGETS:
                continue
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree) -> set:
    """The `_`-prefixed functions, classes and methods a module defines;
    dunder methods are called by Python itself and left out."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree) -> set:
    """Every name a module reads, by name, attribute or import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(dld.__file__).parent.glob("*.py")}
    referenced = set().union(*map(_references, trees.values()))
    dead = {name: sorted(_private_definitions(tree) - referenced)
            for name, tree in trees.items()}
    assert not {name: d for name, d in dead.items() if d}, dead
