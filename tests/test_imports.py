"""Every import in the package sits at module level, is used, and is public.

A plain AST scan, so the check needs no linter: no ``import`` or ``from ...
import`` may appear inside a function or class body, a name bound by a
top-level import must be read somewhere in the module, and no module may
import a private (underscore) name from another module of the package.
``__init__.py`` is skipped by the unused-name check, since re-exporting is
its job.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricres"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(2, 4), os.sep)\n"
    assert unused_imports(source) == ["lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source):
    """Line numbers of import statements inside function or class bodies."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    lines = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, scopes):
            lines.update(
                node.lineno for node in ast.walk(scope)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def test_scan_finds_a_nested_import():
    source = ("import os\n"
              "def f():\n    from math import gcd\n    return gcd\n"
              "class C:\n    def g(self):\n        import json\n")
    assert nested_imports(source) == [3, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_at_top_level(path):
    assert nested_imports(path.read_text()) == []


def private_imports(source):
    """Underscore names imported from a module of the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "toricres"):
            names.extend(alias.name for alias in node.names
                         if alias.name.startswith("_"))
    return sorted(names)


def test_scan_finds_a_private_import():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .fan import Fan, _wall_census\n"
              "def f():\n    from toricres.jk import _generic_point\n")
    assert private_imports(source) == ["_generic_point", "_wall_census"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_no_private_names(path):
    assert private_imports(path.read_text()) == []
