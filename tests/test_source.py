"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import saddlekit

_MODULES = sorted(p for p in Path(saddlekit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_are_found():
    assert {"chew.py", "geodesic.py", "surface.py"} <= {p.name for p in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\nlcm(1, 2)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "gcd")]
