"""Syntax for the Lambek calculus with brackets.

This module defines the object language shared by the whole package:

* types, built from primitive names, the unit constant ``1``, the two
  residual implications ``\\`` and ``/``, the product ``*``, and the
  bracket modalities ``dia`` and ``boxd``, optionally indexed by
  positive integers;
* the bracketed antecedent structure: trees, hedges (sequences of
  trees) and contexts (hedges with exactly one hole);
* sequents, grammars, the occurrence measures used by the
  interpolation machinery, and the concrete text syntax shared by the
  CLI and the test suite.

Types are hash-consed: the factory functions return the identical
object for structurally equal formulas, so type equality is pointer
equality.  Trees and sequents are immutable values with structural
equality and cached hashes; enumeration code may therefore build and
discard large numbers of them without leaking interned state.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "ParseError",
    "Type", "Prim", "UnitType", "Under", "Over", "Prod", "Dia", "BoxDown",
    "prim", "UNIT", "under", "over", "prod", "dia", "boxdown",
    "Tree", "Leaf", "Bracket", "Hole", "HOLE", "leaf", "bracket",
    "Hedge", "Sequent", "sequent",
    "print_type", "print_tree", "print_hedge", "print_sequent",
    "parse_type", "parse_hedge", "parse_context",
    "parse_sequent", "parse_grammar",
    "length", "prim_count", "prim_counts", "mod_total", "unit_count",
    "is_thin", "deindex",
    "BINARY", "nodes", "preorder", "fold",
    "plug", "yield_of", "subtree", "children_at", "replace_children",
    "replace_span", "span_partition", "hole_coords", "bracket_addresses",
    "partitions", "is_flat", "sequent_types",
    "Calculus", "LDIA", "LDIA_M", "LSTAR_DIA", "L1STAR_DIA",
    "L1STAR_DIA_M", "L", "LSTAR", "L1STAR", "CALCULI", "calculus",
    "validate_sequent", "Grammar",
]


class ParseError(ValueError):
    """Malformed text input; carries the offending character position."""

    def __init__(self, message: str, pos: Optional[int] = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


# Indexing discipline: a formula either carries indices on every
# modality ("indexed"), on none of them ("plain"), or contains no
# modalities at all (None, compatible with both worlds).

def _join_mode(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError("mixed indexed and non-indexed modalities")


def _check_index(index: Optional[int]) -> Optional[int]:
    if index is not None and (not isinstance(index, int) or index < 1):
        raise ValueError(f"modality index must be a positive integer, got {index!r}")
    return index


# ---------------------------------------------------------------------------
# Types


class Type:
    """A formula.  Instances are interned; equality is identity."""

    __slots__ = ("length", "prims", "mods", "units", "mode", "_str", "_word",
                 "_leaf")

    length: int
    prims: Counter
    mods: Counter
    units: int
    mode: Optional[str]
    _str: str
    _word: Optional[tuple]
    _leaf: Optional["Leaf"]

    def __repr__(self) -> str:
        return f"<type {self._str}>"

    def __str__(self) -> str:
        return self._str


class Prim(Type):
    __slots__ = ("name",)


class UnitType(Type):
    __slots__ = ()


class Under(Type):
    """``left \\ right``: the argument is on the left."""

    __slots__ = ("left", "right")


class Over(Type):
    """``left / right``: the argument is on the right."""

    __slots__ = ("left", "right")


class Prod(Type):
    __slots__ = ("left", "right")


class Dia(Type):
    __slots__ = ("index", "body")


class BoxDown(Type):
    __slots__ = ("index", "body")


_EMPTY_COUNTER = Counter()

# The interning table.  It lives as long as the process and only grows:
# every type ever built stays in it.  Keys are ``("p", name)`` for a
# primitive, ``(tag, left, right)`` for a binary type with tag ``\``, ``/``
# or ``*``, and ``(tag, index, body)`` for a modality with tag ``dia`` or
# ``boxd``; children in keys are themselves interned types.  The unit is
# the constant ``UNIT`` and has no entry.  The lexer resolves each
# distinct primitive token through it once per parse call.  Each type
# also holds its one leaf (see ``leaf``), so leaves live exactly as long
# as the types in this table.
_type_table: dict = {}


def _operand_str(t: Type) -> str:
    if type(t) in BINARY:
        return f"({t._str})"
    return t._str


def _fill(t: Type, mode, length, prims, mods, units, text) -> Type:
    t.mode = mode
    t.length = length
    t.prims = prims
    t.mods = mods
    t.units = units
    t._str = text
    t._word = None
    t._leaf = None
    return t


def prim(name: str) -> Prim:
    """The primitive type with the given name."""
    key = ("p", name)
    t = _type_table.get(key)
    if t is None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"primitive name must be a nonempty string, got {name!r}")
        t = Prim.__new__(Prim)
        t.name = name
        _fill(t, None, 1, Counter({name: 1}), _EMPTY_COUNTER, 0, name)
        _type_table[key] = t
    return t


def _make_unit() -> UnitType:
    t = UnitType.__new__(UnitType)
    return _fill(t, None, 0, _EMPTY_COUNTER, _EMPTY_COUNTER, 1, "1")


UNIT = _make_unit()


def _binary(cls, tag: str, op: str, left: Type, right: Type) -> Type:
    key = (tag, left, right)
    t = _type_table.get(key)
    if t is None:
        t = cls.__new__(cls)
        t.left = left
        t.right = right
        _fill(t, _join_mode(left.mode, right.mode),
              left.length + right.length,
              left.prims + right.prims, left.mods + right.mods,
              left.units + right.units,
              f"{_operand_str(left)} {op} {_operand_str(right)}")
        _type_table[key] = t
    return t


def under(left: Type, right: Type) -> Under:
    """``left \\ right`` (consume ``left`` on the left, yield ``right``)."""
    return _binary(Under, "\\", "\\", left, right)


def over(left: Type, right: Type) -> Over:
    """``left / right`` (consume ``right`` on the right, yield ``left``)."""
    return _binary(Over, "/", "/", left, right)


def prod(left: Type, right: Type) -> Prod:
    return _binary(Prod, "*", "*", left, right)


# The constructor of each binary type class: a map that rebuilds a type
# node by node reads it instead of spelling out the three connectives.
BINARY = {Under: under, Over: over, Prod: prod}


def _modality(cls, tag: str, word: str, body: Type, index: Optional[int]) -> Type:
    key = (tag, index, body)
    t = _type_table.get(key)
    if t is None:
        _check_index(index)
        own = "plain" if index is None else "indexed"
        t = cls.__new__(cls)
        t.index = index
        t.body = body
        head = word if index is None else f"{word}:{index}"
        _fill(t, _join_mode(own, body.mode), body.length + 2,
              body.prims, body.mods + Counter({index: 1}), body.units,
              f"{head} {_operand_str(body)}")
        _type_table[key] = t
    return t


def dia(body: Type, index: Optional[int] = None) -> Dia:
    return _modality(Dia, "dia", "dia", body, index)


def boxdown(body: Type, index: Optional[int] = None) -> BoxDown:
    return _modality(BoxDown, "boxd", "boxd", body, index)


# ---------------------------------------------------------------------------
# Trees, hedges, contexts


class Tree:
    """A node of the bracketed antecedent structure."""

    __slots__ = ("mode", "holes", "empty_brackets", "units", "_hash",
                 "_str", "_word")

    def __hash__(self) -> int:
        return self._hash


class Leaf(Tree):
    """A type occurrence.  A leaf is a value: two are equal when they
    hold the same type, and its other slots are caches derived from the
    type.  ``leaf`` interns them, one per type."""

    __slots__ = ("type",)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Leaf) and self.type is other.type

    __hash__ = Tree.__hash__

    def __repr__(self):
        return f"<leaf {self.type._str}>"


class Bracket(Tree):
    __slots__ = ("index", "children")

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Bracket) and self._hash == other._hash
                and self.index == other.index and self.children == other.children)

    __hash__ = Tree.__hash__

    def __repr__(self):
        return f"<tree {print_tree(self)}>"


class Hole(Tree):
    __slots__ = ()

    def __eq__(self, other):
        return self is other

    __hash__ = Tree.__hash__

    def __repr__(self):
        return "<hole>"


Hedge = tuple  # tuple[Tree, ...]


def leaf(t: Type) -> Leaf:
    """The leaf holding ``t``.

    Leaves are interned like types: the one leaf of a type is kept on
    it, so it lives as long as its type, and every hedge, sequent and
    memo key that mentions ``t`` shares it.
    """
    tr = t._leaf
    if tr is not None:
        return tr
    tr = Leaf.__new__(Leaf)
    tr.type = t
    tr.mode = t.mode
    tr.holes = 0
    tr.empty_brackets = 0
    tr.units = t.units
    tr._hash = hash(("leaf", t))
    tr._str = None
    tr._word = None
    t._leaf = tr
    return tr


def bracket(children, index: Optional[int] = None) -> Bracket:
    children = tuple(children)
    _check_index(index)
    mode = "plain" if index is None else "indexed"
    holes = 0
    empties = 0 if children else 1
    units = 0
    for ch in children:
        mode = _join_mode(mode, ch.mode)
        holes += ch.holes
        empties += ch.empty_brackets
        units += ch.units
    if holes > 1:
        raise ValueError("a context may contain at most one hole")
    tr = Bracket.__new__(Bracket)
    tr.index = index
    tr.children = children
    tr.mode = mode
    tr.holes = holes
    tr.empty_brackets = empties
    tr.units = units
    tr._hash = hash(("bracket", index, children))
    tr._str = None
    tr._word = None
    return tr


def _make_hole() -> Hole:
    tr = Hole.__new__(Hole)
    tr.mode = None
    tr.holes = 1
    tr.empty_brackets = 0
    tr.units = 0
    tr._hash = hash(("hole",))
    tr._str = "_"
    tr._word = None
    return tr


HOLE = _make_hole()


# ---------------------------------------------------------------------------
# Sequents


class Sequent:
    """``antecedent => succedent`` where the antecedent is a hedge."""

    __slots__ = ("antecedent", "succedent", "mode", "_hash", "_str")

    def __init__(self, antecedent, succedent: Type):
        antecedent = tuple(antecedent)
        mode = succedent.mode
        for tr in antecedent:
            if tr.holes:
                raise ValueError("a sequent may not contain a hole")
            mode = _join_mode(mode, tr.mode)
        self.antecedent = antecedent
        self.succedent = succedent
        self.mode = mode
        self._hash = hash((antecedent, succedent))
        self._str = None

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Sequent) and self._hash == other._hash
                and self.succedent is other.succedent
                and self.antecedent == other.antecedent)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<sequent {print_sequent(self)}>"

    def __str__(self):
        return print_sequent(self)


# The public constructor is the class itself: a wrapper function
# would add one Python frame to every sequent built.
sequent = Sequent


# ---------------------------------------------------------------------------
# Printing


def print_type(t: Type) -> str:
    return t._str


def print_tree(tr: Tree) -> str:
    if tr._str is None:
        if isinstance(tr, Leaf):
            tr._str = tr.type._str
        else:
            inner = " ".join(print_tree(ch) for ch in tr.children)
            if tr.index is None:
                tr._str = f"[ {inner} ]" if inner else "[ ]"
            else:
                head, tail = f"[:{tr.index}", f"]:{tr.index}"
                tr._str = f"{head} {inner} {tail}" if inner else f"{head} {tail}"
    return tr._str


def print_hedge(h: Hedge) -> str:
    return " ".join(print_tree(tr) for tr in h)


def print_sequent(s: Sequent) -> str:
    if s._str is None:
        ante = print_hedge(s.antecedent)
        s._str = f"{ante} => {s.succedent._str}" if ante else f"=> {s.succedent._str}"
    return s._str


# ---------------------------------------------------------------------------
# Parsing

# One scan splits a text into token strings: ``findall`` skips the blanks
# between them, and the last alternative takes everything from the first
# character no other alternative accepts, so nothing non-blank is dropped
# and a refused token is never equal to an accepted one.
_TOKEN_RE = re.compile(
    r"""
      =>
    | [\[\]](?::\d+)?                   # brackets, optionally indexed
    | [()\\/*]
    | _(?![A-Za-z0-9_])                 # the hole
    | [A-Za-z][A-Za-z0-9_]*(?::\d+)?    # primitives and modality prefixes
    | 1(?!\d)
    | \d+
    | \S[\s\S]*
    """,
    re.VERBOSE,
)

_PLAIN_TOKENS = {
    "=>": ("arrow", None), "[": ("lbrk", None), "]": ("rbrk", None),
    "(": ("lpar", None), ")": ("rpar", None), "_": ("hole", None),
    "\\": ("op", under), "/": ("op", over), "*": ("op", prod),
    "1": ("atom", UNIT),
}
_END = ("end", None)


def _classify(tok: str) -> tuple:
    """The ``(kind, value)`` of one token string.

    Primitives and the unit are ``atom`` tokens whose value is the
    interned type.  A refused token is ``("error", message)``.
    """
    plain = _PLAIN_TOKENS.get(tok)
    if plain is not None:
        return plain
    head = tok[0]
    if head in "[]":
        index = int(tok[2:])
        if head == "]":
            return "rbrk", index
        if index < 1:
            return "error", "bracket index must be positive"
        return "lbrk", index
    if head.isascii() and head.isalpha():
        base, _, idx = tok.partition(":")
        if base in ("dia", "boxd"):
            if idx and int(idx) < 1:
                return "error", "modality index must be positive"
            return "prefix", (base, int(idx) if idx else None)
        if idx:
            return "error", f"unexpected index on identifier {base!r}"
        return "atom", prim(tok)
    if head.isdecimal():    # what ``\d`` matches
        return "error", f"unexpected number {tok!r}"
    return "error", f"unexpected character {head!r}"


def _token_pos(text: str, i: int) -> int:
    """Where the ``i``-th token of ``text`` starts (its length for the end)."""
    for m in islice(_TOKEN_RE.finditer(text), i, None):
        return m.start()
    return len(text)


def _tokenize(text: str) -> list:
    """The ``(kind, value)`` of every token of ``text``, then the end token.

    Each distinct token string is classified once per call, in order of
    first occurrence, so the first refused token in the text is the one
    reported.  Tokens carry no positions; an error recovers its own.
    """
    strings = _TOKEN_RE.findall(text)
    table = {}
    for tok in dict.fromkeys(strings):
        entry = table[tok] = _classify(tok)
        if entry[0] == "error":
            raise ParseError(entry[1], _token_pos(text, strings.index(tok)))
    tokens = [table[tok] for tok in strings]
    tokens.append(_END)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, _token_pos(self.text, i))

    def expect(self, kind: str, what: str):
        if self.tokens[self.i][0] != kind:
            raise self.error(f"expected {what}", self.i)
        self.i += 1

    def expect_end(self):
        if self.tokens[self.i][0] != "end":
            raise self.error("unexpected trailing input", self.i)

    # types

    def type_operand(self) -> Type:
        kind, value = self.tokens[self.i]
        self.i += 1
        if kind == "atom":
            return value
        if kind == "prefix":
            word, index = value
            body = self.type_operand()
            return dia(body, index) if word == "dia" else boxdown(body, index)
        if kind == "lpar":
            t = self.type_expr()
            self.expect("rpar", "')'")
            return t
        raise self.error("expected a type", self.i - 1)

    def type_expr(self) -> Type:
        left = self.type_operand()
        kind, op = self.tokens[self.i]
        if kind != "op":
            return left
        self.i += 1
        right = self.type_operand()
        if self.tokens[self.i][0] == "op":
            raise self.error("nested binary operators need parentheses",
                             self.i)
        return op(left, right)

    # trees and hedges

    def tree(self) -> Tree:
        kind, value = self.tokens[self.i]
        if kind == "hole":
            self.i += 1
            return HOLE
        if kind == "lbrk":
            self.i += 1
            children = self.hedge()
            ckind, cvalue = self.tokens[self.i]
            if ckind != "rbrk":
                raise self.error("expected a closing bracket", self.i)
            if cvalue != value:
                raise self.error(
                    f"bracket index mismatch: opened {value!r}, closed {cvalue!r}",
                    self.i)
            self.i += 1
            return bracket(children, value)
        return leaf(self.type_expr())

    def hedge(self) -> Hedge:
        trees = []
        tokens = self.tokens
        while tokens[self.i][0] not in ("rbrk", "arrow", "end"):
            trees.append(self.tree())
        return tuple(trees)


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_expr()
    p.expect_end()
    return t


def _parse_hedge(text: str) -> Hedge:
    p = _Parser(text)
    h = p.hedge()
    p.expect_end()
    return h


def parse_hedge(text: str) -> Hedge:
    """Parse a hedge; hole tokens are rejected."""
    h = _parse_hedge(text)
    if any(tr.holes for tr in h):
        raise ParseError("hole token outside context parsing")
    return h


def parse_context(text: str) -> Hedge:
    """Parse a hedge containing exactly one hole token ``_``."""
    h = _parse_hedge(text)
    holes = sum(tr.holes for tr in h)
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}")
    return h


def parse_sequent(text: str, calc: Optional["Calculus"] = None) -> Sequent:
    p = _Parser(text)
    ante = p.hedge()
    p.expect("arrow", "'=>'")
    succ = p.type_expr()
    p.expect_end()
    if any(tr.holes for tr in ante):
        raise ParseError("hole token outside context parsing")
    s = sequent(ante, succ)
    if calc is not None:
        validate_sequent(s, calc)
    return s


# ---------------------------------------------------------------------------
# Measures

_Countable = Union[Type, Tree, tuple, Sequent]


def length(t: Type) -> int:
    """``||t||``: primitives count 1, the unit 0, modalities add 2."""
    return t.length


def _counts_of(x: _Countable) -> tuple:
    """``(primitives, modality indices)`` of ``x`` as two counters: the
    leaf types' counters plus one index per bracket, summed over one
    ``nodes`` walk, so no depth of nesting is bounded by recursion.  A
    type's own counters are returned as they are, not copied."""
    if isinstance(x, Type):
        return x.prims, x.mods
    if isinstance(x, Sequent):
        h, types = x.antecedent, [x.succedent]
    elif isinstance(x, Tree):
        h, types = (x,), []
    elif isinstance(x, tuple):
        h, types = x, []
    else:
        raise TypeError(f"cannot count primitives or modalities of {x!r}")
    prims, mods = Counter(), Counter()
    for _, _, tr, _ in nodes(h):
        if isinstance(tr, Leaf):
            types.append(tr.type)
        elif isinstance(tr, Bracket):
            mods[tr.index] += 1
    for t in types:
        prims.update(t.prims)
        mods.update(t.mods)
    return prims, mods


def prim_count(name: str, x: _Countable) -> int:
    """Occurrences of the primitive ``name`` in ``x``."""
    return _counts_of(x)[0][name]


def prim_counts(x: _Countable) -> Counter:
    return Counter(_counts_of(x)[0])


def mod_total(x: _Countable) -> int:
    return sum(_counts_of(x)[1].values())


def unit_count(x: _Countable) -> int:
    if isinstance(x, (Type, Tree)):
        return x.units
    if isinstance(x, tuple):
        return sum(tr.units for tr in x)
    if isinstance(x, Sequent):
        return unit_count(x.antecedent) + x.succedent.units
    raise TypeError(f"cannot count units of {x!r}")


def is_thin(s: Sequent) -> bool:
    """True iff every primitive and every index occurs at most twice."""
    if s.mode == "plain":
        raise ValueError("is_thin needs an indexed sequent")
    prims, mods = _counts_of(s)
    return (all(v <= 2 for v in prims.values())
            and all(v <= 2 for v in mods.values()))


# ---------------------------------------------------------------------------
# Walks
#
# The one place that decides traversal order.  ``nodes`` walks a hedge
# by address; ``preorder`` and ``fold`` walk any tree given a function
# from a node to its children (a proof's premises, a Cut derivation's
# two sub-derivations, a grammar derivation's children).  Each keeps its
# own stack, so no depth of nesting is bounded by recursion.


def nodes(h: Hedge) -> Iterator[tuple]:
    """``(parent, j, tree, siblings)`` for every tree of ``h``, preorder:
    ``tree`` is ``siblings[j]``, and ``siblings`` are the children of
    the bracket at address ``parent`` (the root hedge at ``()``)."""
    stack = [((), h, enumerate(h))]
    while stack:
        parent, trees, rest = stack[-1]
        for j, tr in rest:
            yield parent, j, tr, trees
            if isinstance(tr, Bracket):
                stack.append((parent + (j,), tr.children,
                              enumerate(tr.children)))
                break
        else:
            stack.pop()


def preorder(root, children: Callable) -> Iterator[tuple]:
    """``(node, depth)`` for every node under ``root``, preorder, left to
    right; ``children(node)`` is a node's sequence of children."""
    stack = [(root, 0)]
    push = stack.append
    while stack:
        item = stack.pop()
        yield item
        kids = children(item[0])
        if kids:
            depth = item[1] + 1
            for k in reversed(kids):
                push((k, depth))


def fold(root, children: Callable, combine: Callable):
    """``combine(node, values)`` at every node under ``root``, in
    left-to-right post-order, where ``values`` is the tuple of what the
    node's children combined to; returns the root's value."""
    values = []
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack.extend([(k, None) for k in kids[::-1]])
        else:
            k = len(values) - len(kids)
            args = tuple(values[k:])
            del values[k:]
            values.append(combine(node, args))
    return values[0]


# ---------------------------------------------------------------------------
# Structure: plugging, yields, addresses, spans


def plug(context: Hedge, filling: Hedge) -> Hedge:
    """Splice ``filling`` into the unique hole of ``context``."""
    out = []
    found = 0
    for tr in context:
        if tr is HOLE:
            out.extend(filling)
            found += 1
        elif isinstance(tr, Bracket) and tr.holes:
            out.append(bracket(plug(tr.children, filling), tr.index))
            found += 1
        else:
            out.append(tr)
    if found != 1:
        raise ValueError(f"a context needs exactly one hole, found {found}")
    return tuple(out)


def yield_of(h: Hedge) -> list:
    """Left-to-right leaf types of ``h`` (holes are not leaves)."""
    return [tr.type for _, _, tr, _ in nodes(h) if isinstance(tr, Leaf)]


def subtree(h: Hedge, addr: tuple) -> Tree:
    """The tree at a nonempty address (a path of child positions)."""
    if not addr:
        raise ValueError("the empty address names the root hedge, not a tree")
    node = None
    cur = h
    for i in addr:
        node = cur[i]
        cur = node.children if isinstance(node, Bracket) else None
    return node


def children_at(h: Hedge, parent: tuple) -> Hedge:
    cur = h
    for i in parent:
        cur = cur[i].children
    return cur


def replace_children(h: Hedge, parent: tuple, new_children: Hedge) -> Hedge:
    if not parent:
        return tuple(new_children)
    i = parent[0]
    node = h[i]
    inner = replace_children(node.children, parent[1:], new_children)
    return h[:i] + (bracket(inner, node.index),) + h[i + 1:]


def replace_span(h: Hedge, parent: tuple, start: int, end: int,
                 replacement: Hedge) -> Hedge:
    ch = children_at(h, parent)
    return replace_children(h, parent, ch[:start] + tuple(replacement) + ch[end:])


def span_partition(h: Hedge, parent: tuple, start: int, end: int):
    """Split ``h`` into (context, selected) along the given sibling span."""
    ch = children_at(h, parent)
    if not (0 <= start <= end <= len(ch)):
        raise ValueError(f"span {start}:{end} out of range at {parent!r}")
    return replace_span(h, parent, start, end, (HOLE,)), ch[start:end]


def hole_coords(context: Hedge) -> tuple:
    """(parent address, position) of the hole in ``context``."""
    for parent, j, tr, _ in nodes(context):
        if tr is HOLE:
            return parent, j
    raise ValueError("context has no hole")


def bracket_addresses(h: Hedge) -> list:
    """Addresses of all bracket nodes, preorder, left to right."""
    return [parent + (j,) for parent, j, tr, _ in nodes(h)
            if isinstance(tr, Bracket)]


def partitions(h: Hedge, include_empty: bool = False) -> Iterator[tuple]:
    """All (parent, start, end) sibling spans of ``h``.

    With ``include_empty`` the empty spans (start == end) are yielded
    too; those only make sense for calculi with the unit.
    """
    for parent in [()] + bracket_addresses(h):
        n = len(children_at(h, parent))
        for s in range(n + 1):
            for e in range(s if include_empty else s + 1, n + 1):
                yield parent, s, e


def is_flat(h: Hedge) -> bool:
    return all(isinstance(tr, Leaf) for tr in h)


def sequent_types(s: Sequent) -> list:
    """Yield types of the antecedent followed by the succedent."""
    return yield_of(s.antecedent) + [s.succedent]


# ---------------------------------------------------------------------------
# Deindexing


def deindex(x, theta: Optional[dict] = None):
    """Strip all indices and rename primitives through ``theta``.

    ``theta`` maps primitive names to primitive names; missing names
    pass through unchanged.  Works on types, trees, hedges and
    sequents.
    """
    theta = theta or {}

    def ty(t: Type) -> Type:
        if isinstance(t, Prim):
            return prim(theta.get(t.name, t.name))
        if t is UNIT:
            return t
        make = BINARY.get(type(t))
        if make is not None:
            return make(ty(t.left), ty(t.right))
        if isinstance(t, Dia):
            return dia(ty(t.body))
        return boxdown(ty(t.body))

    def tree(tr: Tree) -> Tree:
        if tr is HOLE:
            return tr
        if isinstance(tr, Leaf):
            return leaf(ty(tr.type))
        return bracket(tuple(tree(ch) for ch in tr.children))

    if isinstance(x, Type):
        return ty(x)
    if isinstance(x, Tree):
        return tree(x)
    if isinstance(x, tuple):
        return tuple(tree(tr) for tr in x)
    if isinstance(x, Sequent):
        return sequent(tuple(tree(tr) for tr in x.antecedent), ty(x.succedent))
    raise TypeError(f"cannot deindex {x!r}")


# ---------------------------------------------------------------------------
# Calculi


@dataclass(frozen=True)
class Calculus:
    """Feature switches identifying one calculus of the family.

    ``brackets``: brackets and the two modalities are part of the
    language.  ``indexed``: modalities and brackets carry positive
    integer indices.  ``unit``: the constant 1 and its two rules are
    available.  ``starred``: empty antecedents and empty bracket pairs
    are legal.
    """

    name: str
    brackets: bool
    indexed: bool
    unit: bool
    starred: bool

    def __str__(self):
        return self.name


LDIA = Calculus("Ldia", brackets=True, indexed=False, unit=False, starred=False)
LDIA_M = Calculus("LdiaM", brackets=True, indexed=True, unit=False, starred=False)
LSTAR_DIA = Calculus("LstarDia", brackets=True, indexed=False, unit=False, starred=True)
L1STAR_DIA = Calculus("L1starDia", brackets=True, indexed=False, unit=True, starred=True)
L1STAR_DIA_M = Calculus("L1starDiaM", brackets=True, indexed=True, unit=True, starred=True)
L = Calculus("L", brackets=False, indexed=False, unit=False, starred=False)
LSTAR = Calculus("Lstar", brackets=False, indexed=False, unit=False, starred=True)
L1STAR = Calculus("L1star", brackets=False, indexed=False, unit=True, starred=True)

CALCULI = {c.name: c for c in
           (LDIA, LDIA_M, LSTAR_DIA, L1STAR_DIA, L1STAR_DIA_M, L, LSTAR, L1STAR)}


def calculus(name) -> Calculus:
    if isinstance(name, Calculus):
        return name
    try:
        return CALCULI[name]
    except KeyError:
        raise ValueError(f"unknown calculus {name!r}; expected one of "
                         f"{', '.join(sorted(CALCULI))}") from None


def validate_sequent(s: Sequent, calc: Calculus) -> None:
    """Raise ValueError unless ``s`` is well formed for ``calc``."""
    calc = calculus(calc)
    if calc.indexed:
        if s.mode == "plain":
            raise ValueError(f"{calc.name} needs indexed modalities: {s}")
    elif s.mode == "indexed":
        raise ValueError(f"{calc.name} does not allow indexed modalities: {s}")
    if not calc.unit and unit_count(s) > 0:
        raise ValueError(f"{calc.name} does not include the unit: {s}")
    if not calc.brackets and s.mode is not None:
        # only a bracket or a modality gives a sequent a mode
        if not is_flat(s.antecedent):
            raise ValueError(f"{calc.name} does not allow brackets: {s}")
        raise ValueError(f"{calc.name} does not allow modalities: {s}")
    if not calc.starred:
        if not s.antecedent:
            raise ValueError(f"{calc.name} does not allow empty antecedents: {s}")
        if any(tr.empty_brackets for tr in s.antecedent):
            raise ValueError(f"{calc.name} does not allow empty brackets: {s}")


# ---------------------------------------------------------------------------
# Grammars


@dataclass(frozen=True)
class Grammar:
    """A categorial grammar: a lexicon and a distinguished type.

    The grammar generates a string of terminals iff some bracketing of
    some choice of lexicon types for its letters derives the
    distinguished type in the recognition calculus.
    """

    lexicon: tuple  # tuple[tuple[str, Type], ...]
    distinguished: Type

    @property
    def alphabet(self) -> tuple:
        seen = []
        for terminal, _ in self.lexicon:
            if terminal not in seen:
                seen.append(terminal)
        return tuple(seen)

    def types_of(self, terminal: str) -> tuple:
        return tuple(t for term, t in self.lexicon if term == terminal)

    def primitives(self) -> frozenset:
        names = set(self.distinguished.prims)
        for _, t in self.lexicon:
            names.update(t.prims)
        return frozenset(names)


_LEXICON_RE = re.compile(r"^lexicon\s+([A-Za-z][A-Za-z0-9_]*)\s*:\s*(.+)$")
_TARGET_RE = re.compile(r"^target\s*:\s*(.+)$")


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar file: ``lexicon <terminal> : <type>`` lines and
    one ``target : <type>`` line; ``#`` starts a comment."""
    lexicon = []
    target = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LEXICON_RE.match(line)
        if m:
            terminal, type_text = m.group(1), m.group(2)
            try:
                t = parse_type(type_text)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if (terminal, t) not in lexicon:
                lexicon.append((terminal, t))
            continue
        m = _TARGET_RE.match(line)
        if m:
            if target is not None:
                raise ParseError(f"line {lineno}: duplicate target line")
            try:
                target = parse_type(m.group(1))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            continue
        raise ParseError(f"line {lineno}: expected 'lexicon <terminal> : <type>' "
                         f"or 'target : <type>'")
    if target is None:
        raise ParseError("grammar file has no target line")
    for t in [target] + [t for _, t in lexicon]:
        if t.mode == "indexed":
            raise ParseError("grammar types must not carry indices")
        if t.units:
            raise ParseError("grammar types must not contain the unit")
    return Grammar(tuple(lexicon), target)
