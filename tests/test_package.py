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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _calls_itself(fn, method):
    """Whether ``fn``'s own body, outside nested definitions, calls
    ``fn`` by name, or as ``self.<name>`` when it is a method."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _DEFS):
            continue
        todo.extend(ast.iter_child_nodes(node))
        f = node.func if isinstance(node, ast.Call) else None
        if method:
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"):
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def _self_recursive(node, prefix=(), method=False):
    """Qualified names of the functions under ``node`` that call
    themselves directly."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _self_recursive(child, prefix + (child.name,), True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + (child.name,)
            if _calls_itself(child, method):
                yield ".".join(name)
            yield from _self_recursive(child, name)
        else:
            yield from _self_recursive(child, prefix, method)


# Every function that recurses on itself, and so fails on inputs nested
# past the recursion limit; a walk that keeps its own stack leaves the
# list.  Mutual recursion, such as ``_extract`` through ``_pass_through``
# or ``_Parser.tree`` through ``_Parser.hedge``, is not detected.
SELF_RECURSIVE = {
    "Prover._search", "_Parser.type_operand", "_Recognizer.rebuild",
    "_descend", "_extract", "_hedge_at", "_hedge_count", "_hedges_exact",
    "_word_of_tree", "_word_of_type", "cut_reduce.reduce_step",
    "deindex.tree", "deindex.ty", "is_guarded", "plug", "print_tree",
    "replace_children", "translate_flat.go", "unit_count",
}


def test_self_recursive_functions():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found.update(_self_recursive(ast.parse(path.read_text(), str(path))))
    assert found == SELF_RECURSIVE


def _calls_to(node, names, prefix=()):
    """``(caller, callee)`` for every call by name of one of ``names``
    under ``node``, with the caller's qualified name (``""`` at module
    level)."""
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = prefix + (child.name,)
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in names):
            yield ".".join(prefix), child.func.id
        yield from _calls_to(child, names, inner)


def test_one_candidate_enumerator():
    # every sweep reads its word-balanced hedges from ``_balanced``; a
    # loop of its own over hedges or bracket counts shows up here
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found.update(_calls_to(ast.parse(path.read_text(), str(path)),
                               {"_hedges_exact", "_bracket_count"}))
    assert found == {("_balanced", "_bracket_count"),
                     ("_balanced", "_hedges_exact"),
                     ("_hedges_exact", "_hedges_exact")}


# Every module-level function or class that no code in the package
# reads and the package does not export.
UNREACHED = set()


def test_unreached_definitions():
    # dead weight shows up here, in a diff, instead of being found by
    # hand; a definition's reads of itself do not reach it
    defined, read = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = getattr(stmt, "name", None)
            if own is not None:
                defined.append((path.stem, own))
            read |= {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    found = {f"{module}.{name}" for module, name in defined
             if name not in read and name not in lambrack.__all__}
    assert found == UNREACHED


PROOF_FIELDS = {"conclusion", "rule", "premises", "principal", "_checked"}


def test_proof_fields_are_never_assigned():
    # a proof node keeps the principal it is built with: no module
    # assigns or deletes a field of that name, and only prover.py, which
    # builds and marks nodes, calls a slot setter past the read-only
    # ``__setattr__`` (``object.__setattr__`` or a descriptor's
    # ``__set__``) or the ``setattr`` builtin
    assigned, bypass = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr in PROOF_FIELDS
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                assigned.append(where)
            elif path.name != "prover.py" and (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("__setattr__", "__set__")
                    or isinstance(node, ast.Name) and node.id == "setattr"):
                bypass.append(where)
    assert assigned == [] and bypass == []
