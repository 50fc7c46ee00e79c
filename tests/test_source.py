"""Checks on the package source itself."""

import argparse
import ast
from pathlib import Path

import pytest

import saddlekit
from saddlekit import cli

_MODULES = sorted(p for p in Path(saddlekit.__file__).parent.glob("*.py") if p.name != "__init__.py")
_TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
_PERFBENCH_MODULES = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

# Library entry points that no program in the repo calls, kept for callers of
# the package: (module, name).
_ENTRY_POINTS = {
    ("builders", "marked_torus"),
    ("builders", "centered_octagon_h2"),
    ("builders", "sheared_torus"),
    ("surface", "apply_surface"),
    ("sv", "pair_transform"),
    ("sv", "sector_sandwich"),
}


def _trees():
    """Every module of the package, __init__ included, parsed: stem -> tree."""
    return {p.stem: ast.parse(p.read_text()) for p in Path(saddlekit.__file__).parent.glob("*.py")}


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


def _definitions(tree):
    """Module-level functions, classes and constants, dunders aside: name ->
    line."""
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
            if not name.startswith("__"):
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


def _unloaded(trees, loaded, wanted):
    """(module, line, name) of each module-level definition in trees that
    wanted(module, name) selects and that is not in loaded."""
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _definitions(tree).items()
        if wanted(module, name) and name not in loaded
    )


def _unloaded_private_names(trees):
    """(module, line, name) of each private module-level definition that no
    tree loads."""
    loaded = set().union(*map(_loaded_names, trees.values()))
    return _unloaded(trees, loaded, lambda module, name: name.startswith("_"))


def _unloaded_public_names(trees, loaders, exempt):
    """(module, line, name) of each public module-level definition in trees
    that no tree of loaders loads and that is not exempt as (module, name)."""
    loaded = set().union(*map(_loaded_names, loaders))
    return _unloaded(trees, loaded, lambda module, name: not name.startswith("_") and (module, name) not in exempt)


def _unloaded_test_helpers(trees):
    """(module, line, name) of each module-level definition in the test
    trees that is neither a test nor a pytest hook and that no test tree
    loads; a function parameter loads the fixture of its name."""
    loaded = set().union(*map(_loaded_names, trees.values()))
    loaded |= {
        arg.arg
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    }
    return _unloaded(trees, loaded, lambda module, name: not name.startswith(("test_", "Test", "pytest")))


def test_modules_are_found():
    assert {"chew.py", "geodesic.py", "surface.py"} <= {p.name for p in _MODULES}
    assert {"conftest.py", "test_source.py", "test_sv.py"} <= {p.name for p in _TEST_MODULES}


@pytest.mark.parametrize("path", _MODULES + _TEST_MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\nlcm(1, 2)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "gcd")]


def test_package_loads_every_private_name_it_defines():
    assert _unloaded_private_names(_trees()) == []


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


def _command_functions(parser):
    """("cli", name) of the ``cmd_*`` function each subcommand dispatches to."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {("cli", "cmd_" + command.replace("-", "_")) for command in subparsers.choices}


def test_package_loads_every_public_name_it_defines():
    # main() dispatches to cmd_<command> by name; the entry points are kept
    # for library callers.  Tests do not count as callers.
    loaders = list(_trees().values()) + [ast.parse(p.read_text()) for p in _PERFBENCH_MODULES]
    exempt = _command_functions(cli.build_parser()) | _ENTRY_POINTS
    assert _unloaded_public_names(_trees(), loaders, exempt) == []


def test_an_unloaded_public_name_is_found():
    a = (
        "LIMIT, spare = 3, 4\n__version__ = '1'\n"
        "def helper():\n    return LIMIT\n"
        "class Unused:\n    pass\n"
        "def cmd_run(args):\n    pass\n"
        "def entry():\n    pass\n"
    )
    b = "from a import helper\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    exempt = {("a", "cmd_run"), ("a", "entry")}
    assert _unloaded_public_names(trees, trees.values(), exempt) == [("a", 1, "spare"), ("a", 5, "Unused")]
    assert _unloaded_public_names(trees, [trees["a"]], exempt) == [("a", 1, "spare"), ("a", 3, "helper"), ("a", 5, "Unused")]
    parser = argparse.ArgumentParser()
    parser.add_subparsers(dest="command").add_parser("torus-exact")
    assert _command_functions(parser) == {("cli", "cmd_torus_exact")}


def test_every_test_helper_is_loaded():
    trees = {p.stem: ast.parse(p.read_text()) for p in _TEST_MODULES}
    assert _unloaded_test_helpers(trees) == []


def test_an_unloaded_test_helper_is_found():
    conftest = (
        "import pytest\n@pytest.fixture\ndef torus():\n    pass\n"
        "@pytest.fixture\ndef spare():\n    pass\n"
        "def pytest_configure(config):\n    pass\n"
        "def reference(x):\n    return x\n"
    )
    module = (
        "from conftest import reference\npytestmark = []\n_CASES = [1]\n_SPARE = 2\n"
        "def _check(x):\n    return reference(x)\n"
        "def test_torus(torus):\n    assert _check(_CASES)\n"
        "class TestGroup:\n    pass\n"
    )
    trees = {"conftest": ast.parse(conftest), "test_a": ast.parse(module)}
    assert _unloaded_test_helpers(trees) == [("conftest", 6, "spare"), ("test_a", 4, "_SPARE")]


def _environment_reads(trees):
    """(module, enclosing top-level definition or None, line) of each read of
    the process environment: an ``environ`` or ``getenv`` attribute, or a
    from-import of either from os."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                else:
                    continue
                if names & env_names:
                    found.append((module, owner, node.lineno))
    return sorted(found, key=lambda r: (r[0], r[2]))


def _package_imports(tree):
    """(line, module) of each saddlekit module the tree imports, at any depth:
    ``from .m import x``, ``from . import m``, ``import saddlekit.m`` and
    their absolute forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (["saddlekit"] if node.level else []) + (node.module.split(".") if node.module else [])
            if parts[:1] != ["saddlekit"]:
                continue
            if len(parts) > 1:
                found.add((node.lineno, parts[1]))
            else:
                found.update((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                (node.lineno, alias.name.split(".")[1])
                for alias in node.names
                if alias.name.startswith("saddlekit.")
            )
    return sorted(found)


def test_only_default_budget_reads_the_environment():
    reads = _environment_reads(_trees())
    assert [(module, owner) for module, owner, _ in reads] == [("exactplane", "default_budget")]


def test_an_environment_read_is_found():
    a = "import os\ndef default_budget():\n    return os.environ.get('X')\n"
    b = (
        "from os import getenv\nimport os\nLIMIT = os.environ['Y']\n"
        "class C:\n    def f(self):\n        return os.getenv('Z')\n"
    )
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _environment_reads(trees) == [
        ("a", "default_budget", 3), ("b", None, 1), ("b", None, 3), ("b", "C", 6)
    ]


def _work_parameters(trees):
    """(module, function, parameter) of each function outside ``kernels``
    with a parameter named ``budget`` or ``quadrature_n``."""
    return sorted(
        (module, node.name, arg.arg)
        for module, tree in trees.items()
        if module != "kernels"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("budget", "quadrature_n")
    )


def _command_flags(parser):
    """(command, option string) of every subcommand option."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(
        (command, flag)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        for flag in action.option_strings
    )


def test_the_budget_variable_is_the_only_way_to_set_the_work():
    # default_budget() is the one source of the budget; only the lattice
    # kernels take it as an argument, from mc's one read per batch.
    assert _work_parameters(_trees()) == []
    assert [(command, flag) for command, flag in _command_flags(cli.build_parser()) if flag == "--budget"] == []


def test_a_work_parameter_or_flag_is_found():
    trees = {
        "a": ast.parse("def f(s, budget=None):\n    pass\nclass C:\n    def g(self, *, quadrature_n=8):\n        pass\n"),
        "kernels": ast.parse("def count(a, budget=None):\n    pass\n"),
    }
    assert _work_parameters(trees) == [("a", "f", "budget"), ("a", "g", "quadrature_n")]
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("a").add_argument("--budget", "-b")
    assert _command_flags(parser) == [("a", "--budget"), ("a", "--help"), ("a", "-b"), ("a", "-h")]


@pytest.mark.parametrize("module", ["exactplane", "kernels", "oracle"])
def test_lower_layers_import_nothing_from_geodesic(module):
    assert "geodesic" not in {name for _, name in _package_imports(_trees()[module])}


def test_a_package_import_is_found():
    tree = ast.parse(
        "from .geodesic import default_budget\nfrom . import kernels, sv\n"
        "import saddlekit.oracle\nfrom saddlekit.surface import area\n"
        "from saddlekit import mc\nimport numpy\nfrom math import gcd\n"
        "def f():\n    from .builders import square_torus\n"
    )
    assert _package_imports(tree) == [
        (1, "geodesic"), (2, "kernels"), (2, "sv"), (3, "oracle"),
        (4, "surface"), (5, "mc"), (9, "builders"),
    ]


def _unread_options(parser, tree):
    """(command, dest) of each subcommand option that its ``cmd_*`` function
    never reads as ``args.<dest>`` (or ``getattr(args, "<dest>", ...)``),
    itself or through a module function that it passes ``args`` to."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, position, seen):
        if (name, position) in seen or name not in functions or position >= len(functions[name].args.args):
            return set()
        seen.add((name, position))
        param = functions[name].args.args[position].arg
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
                found.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                passed = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Name) and arg.id == param]
                if node.func.id == "getattr" and passed == [0] and isinstance(node.args[1], ast.Constant):
                    found.add(node.args[1].value)
                for i in passed:
                    found |= reads(node.func.id, i, seen)
        return found

    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(
        (command, action.dest)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        and action.dest not in reads("cmd_" + command.replace("-", "_"), 0, set())
    )


def test_every_cli_option_is_read_by_its_command():
    assert _unread_options(cli.build_parser(), _trees()["cli"]) == []


def test_an_unread_cli_option_is_found():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    a = sub.add_parser("a")
    for flag in ("--x", "--y", "--w", "--v"):
        a.add_argument(flag)
    sub.add_parser("b-c").add_argument("--z")
    tree = ast.parse(
        "def _helper(n, opts):\n    return opts.y + getattr(opts, 'w', 0)\n"
        "def cmd_a(args):\n    v = 1\n    return args.x + _helper(v, args) + v\n"
        "def cmd_b_c(args):\n    return _helper(args, None)\n"
    )
    assert _unread_options(parser, tree) == [("a", "v"), ("b-c", "z")]


def _exactplane_namesakes(trees):
    """(module, line, name) of each function, at any depth of a module other
    than exactplane, named like a module-level function of exactplane."""
    names = {node.name for node in trees["exactplane"].body if isinstance(node, ast.FunctionDef)}
    return sorted(
        (stem, node.lineno, node.name)
        for stem, tree in trees.items() if stem != "exactplane"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    )


def test_no_module_redefines_an_exactplane_function():
    assert _exactplane_namesakes(_trees()) == []


def test_a_redefined_exactplane_function_is_found():
    trees = {
        "exactplane": ast.parse("def _vec(p, scale):\n    pass\n"),
        "builders": ast.parse("def _glue():\n    def _vec(x, y):\n        pass\n"),
    }
    assert _exactplane_namesakes(trees) == [("builders", 2, "_vec")]


def _hand_copied_field_lists(trees):
    """(module, class) of each dataclass whose to_json_dict is one
    ``return {...}`` of exactly its field names, each value ``self.<field>``
    or a copy of it that ``dataclasses.asdict`` makes as well: ``list(...)``,
    ``dict(sorted(....items()))`` or ``....to_json_dict()``."""

    def copies(value, name):
        field = f"self.{name}"
        return ast.unparse(value) in (
            field, f"list({field})", f"dict(sorted({field}.items()))", f"{field}.to_json_dict()"
        )

    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).startswith("dataclass") for d in cls.decorator_list
            ):
                continue
            fields = sorted(n.target.id for n in cls.body if isinstance(n, ast.AnnAssign))
            for method in cls.body:
                if not (isinstance(method, ast.FunctionDef) and method.name == "to_json_dict"):
                    continue
                body = [n for n in method.body if not isinstance(n, ast.Expr)]  # the docstring
                ret = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
                if not isinstance(ret, ast.Dict) or not all(isinstance(k, ast.Constant) for k in ret.keys):
                    continue
                names = [k.value for k in ret.keys]
                if sorted(names) == fields and all(map(copies, ret.values, names)):
                    found.append((module, cls.name))
    return sorted(found)


def test_no_report_copies_its_field_list_by_hand():
    # A report whose JSON is its own fields is dataclasses.asdict(self).
    assert _hand_copied_field_lists(_trees()) == []


def test_a_hand_copied_field_list_is_found():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Copied:\n    n: int\n    xs: tuple\n    rep: object\n"
        "    def to_json_dict(self):\n        '''The fields.'''\n"
        "        return {'xs': list(self.xs), 'n': self.n, 'rep': self.rep.to_json_dict()}\n"
        "@dataclass\nclass Formatted:\n    q: object\n"
        "    def to_json_dict(self):\n        return {'q': str(self.q)}\n"
        "@dataclass\nclass Renamed:\n    q: object\n"
        "    def to_json_dict(self):\n        return {'value': self.q}\n"
        "class Plain:\n    q: int\n"
        "    def to_json_dict(self):\n        return {'q': self.q}\n"
        "@dataclass\nclass Partial:\n    q: int\n    r: int\n"
        "    def to_json_dict(self):\n        return {'q': self.q}\n"
    )
    assert _hand_copied_field_lists({"a": tree}) == [("a", "Copied")]
