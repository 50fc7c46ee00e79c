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


def _private_definitions(tree):
    """Module-level private functions, classes and constants: name -> line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _loaded_names(tree):
    """Names the tree loads: a Name read, an attribute, or an import."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            loaded.update(alias.name for alias in node.names)
    return loaded


def _unloaded_private_names(trees):
    """(module, line, name) of each private module-level definition that no
    tree loads."""
    loaded = set().union(*map(_loaded_names, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in loaded
    )


def test_modules_are_found():
    assert {"chew.py", "geodesic.py", "surface.py"} <= {p.name for p in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\nlcm(1, 2)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "gcd")]


def test_package_loads_every_private_name_it_defines():
    sources = Path(saddlekit.__file__).parent.glob("*.py")
    assert _unloaded_private_names({p.stem: ast.parse(p.read_text()) for p in sources}) == []


def test_an_unloaded_private_name_is_found():
    a = (
        "_LIMIT, _spare = 3, 4\n_CAP: int = 5\n__all__ = []\n"
        "def _helper():\n    return _LIMIT\n"
        "class _Unused:\n    pass\n"
        "def _state_key(tris):\n    _state_key = 1\n"
    )
    b = "from a import _helper\nimport a\nprint(a._CAP)\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _unloaded_private_names(trees) == [
        ("a", 1, "_spare"), ("a", 6, "_Unused"), ("a", 8, "_state_key")
    ]
