"""Checks on the package source as a whole."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lambrack

SOURCE = Path(lambrack.__file__).parent
MODULES = ["lambrack"] + [f"lambrack.{m.name}"
                          for m in pkgutil.iter_modules([str(SOURCE)])]


def test_no_assert_statements():
    # an assert vanishes under python -O, so a check written as one
    # would let -O runs give answers plain runs refuse
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_recursion_limit_changes():
    # a raised limit only trades RecursionError for a C stack overflow;
    # deep inputs are answered by walks that keep their own stack
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if "setrecursionlimit" in path.read_text()]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []


def _imported_names(tree):
    """``{name: line}`` of every name a module's imports bind."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    # an import that outlives the code that read it is dead weight; a
    # name a module imports only to re-export is listed in its __all__
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= _exported_names(tree)
        found += [f"{path.name}:{line}: {name}"
                  for name, line in _imported_names(tree).items()
                  if name not in used]
    assert found == []
