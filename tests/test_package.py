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
