"""Context-free grammars and Cut-only derivations over sequents.

Two kinds of finite objects live here.  ``Cfg`` is a plain context-free
grammar whose nonterminals are category types.  Membership testing works
on an epsilon-eliminated, binarized image with back-mapping of only the
productions useful for the query: those the queried nonterminal reaches
whose symbols all generate.  The grammar keeps one image per queried
nonterminal and set of nonterminals in the form, built on first use.
``language_upto`` enumerates the generated strings up to a length bound.
``CutDerivation`` is a tree of Cut inferences over a finite base set of
sequents: a leaf is a base sequent, and an inner node combines a
derivation of ``Γ ⇒ A`` with a derivation of ``Δ[A] ⇒ B`` into one of
``Δ[Γ] ⇒ B``, where ``position`` records the context ``Δ[∎]``.
``cut_derives`` searches for such a derivation by deductive parsing
over the sub-hedges of the goal's antecedent: items are filled
innermost bracket first and narrowest span first, each span closed
from an agenda of its new types, and each span tries only the base
sequents whose first tree can start there; inside a goal bracket no
base bracket can enter, nothing is filled.  The base is indexed once
as a ``CutBase`` (by succedent, by first tree, by leaf type for the
same-span closure, and by the indices of its non-empty brackets);
callers build one per rule set and pass it to every call.
"""

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Optional

from .syntax import (
    HOLE, Bracket, Hedge, Leaf, Sequent, Type,
    bracket_addresses, leaf, nodes, parse_type, plug, preorder,
    print_sequent, print_type, replace_span, sequent,
)

__all__ = [
    "Cfg", "Derivation", "derives", "language_upto",
    "print_cfg", "parse_cfg",
    "CutBase", "CutDerivation", "cut_leaf", "cut_node", "replay_cuts",
    "cut_derives",
]


# ---------------------------------------------------------------------------
# Cut derivations


@dataclass(frozen=True)
class CutDerivation:
    """A derivation using only the Cut rule from a base set of sequents.

    Leaves carry just a conclusion.  Inner nodes hold two
    sub-derivations and the context ``position`` (a hedge with one
    hole): plugging the left conclusion's antecedent into ``position``
    gives this node's antecedent, and plugging a single leaf of the
    left conclusion's succedent gives the right conclusion's
    antecedent.
    """

    conclusion: Sequent
    left: Optional["CutDerivation"] = None
    right: Optional["CutDerivation"] = None
    position: Optional[Hedge] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def premises(self) -> tuple:
        """The two sub-derivations of a Cut; none for a leaf."""
        return () if self.left is None else (self.left, self.right)

    def leaves(self):
        """Base sequents used, left to right."""
        return (d.conclusion for d, _ in preorder(self, _premises)
                if d.is_leaf)

    def cut_count(self) -> int:
        return sum(not d.is_leaf for d, _ in preorder(self, _premises))

    def __repr__(self):
        kind = "leaf" if self.is_leaf else f"{self.cut_count()} cuts"
        return f"<cut derivation {print_sequent(self.conclusion)} ({kind})>"


# ``children`` for ``syntax.preorder`` over Cut and grammar derivations
_premises, _children = attrgetter("premises"), attrgetter("children")


def cut_leaf(s: Sequent) -> CutDerivation:
    return CutDerivation(s)


def cut_node(left: CutDerivation, right: CutDerivation,
             position: Hedge) -> CutDerivation:
    """One Cut: from ``Γ ⇒ A`` and ``Δ[A] ⇒ B`` infer ``Δ[Γ] ⇒ B``.

    The conclusion is computed from the parts;  a mismatch between
    ``position`` and the right premise raises.
    """
    cut_type = left.conclusion.succedent
    expected = plug(position, (leaf(cut_type),))
    if expected != right.conclusion.antecedent:
        raise ValueError(
            "position filled with the cut type does not match the right "
            f"premise: {print_sequent(right.conclusion)}")
    conclusion = sequent(plug(position, left.conclusion.antecedent),
                         right.conclusion.succedent)
    return CutDerivation(conclusion, left, right, position)


def replay_cuts(d: CutDerivation, base=None) -> bool:
    """Re-check every node of a derivation.

    Every inner node must be a correct Cut instance, and when ``base``
    is given (any container supporting ``in``), every leaf conclusion
    must belong to it.
    """
    for node, _ in preorder(d, _premises):
        if node.is_leaf:
            if base is not None and node.conclusion not in base:
                return False
            continue
        if node.right is None or node.position is None:
            return False
        try:
            rebuilt = cut_node(node.left, node.right, node.position)
        except ValueError:
            return False
        if rebuilt.conclusion != node.conclusion:
            return False
    return True


# ---------------------------------------------------------------------------
# Context-free grammars

# A grammar symbol is a Type (nonterminal) or a str (terminal).


@dataclass(frozen=True)
class Cfg:
    """A context-free grammar whose nonterminals are types.

    ``productions`` is an ordered, duplicate-free tuple of
    ``(lhs, rhs)`` pairs; ``rhs`` is a tuple of symbols and may be
    empty.  Two structurally equal types are the same nonterminal.
    """

    nonterminals: frozenset
    terminals: frozenset
    start: Type
    productions: tuple

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise ValueError("the start symbol is not a nonterminal")
        for lhs, rhs in self.productions:
            if lhs not in self.nonterminals:
                raise ValueError(f"unknown production head {lhs!r}")
            for sym in rhs:
                if isinstance(sym, Type):
                    if sym not in self.nonterminals:
                        raise ValueError(
                            f"unknown nonterminal {print_type(sym)!r}")
                elif sym not in self.terminals:
                    raise ValueError(f"unknown terminal {sym!r}")

    @cached_property
    def _recognizers(self) -> dict:
        # (nt, nonterminals of the form) -> the trimmed recognizer the
        # first ``derives`` with that key built, kept as long as the grammar
        return {}

    @cached_property
    def _production_set(self) -> frozenset:
        return frozenset(self.productions)

    def __repr__(self):
        return (f"<cfg start {print_type(self.start)}: "
                f"{len(self.nonterminals)} nonterminals, "
                f"{len(self.productions)} productions>")


def cfg(start: Type, productions) -> Cfg:
    """Build a ``Cfg``, inferring the symbol sets from the productions."""
    prods = []
    seen = set()
    nts = {start}
    terms = set()
    for lhs, rhs in productions:
        entry = (lhs, tuple(rhs))
        if entry in seen:
            continue
        seen.add(entry)
        prods.append(entry)
        nts.add(lhs)
        for sym in entry[1]:
            if isinstance(sym, Type):
                nts.add(sym)
            else:
                terms.add(sym)
    return Cfg(frozenset(nts), frozenset(terms), start, tuple(prods))


@dataclass(frozen=True)
class Derivation:
    """A grammar derivation tree down to a sentential form.

    A node with a ``production`` applied it and carries one child per
    right-hand-side symbol; a node without one is a fringe symbol (a
    terminal, or a nonterminal left underived).
    """

    symbol: object
    production: Optional[tuple] = None
    children: tuple = ()

    def fringe(self) -> tuple:
        return tuple(d.symbol for d, _ in preorder(self, _children)
                     if d.production is None)

    def __repr__(self):
        return f"<derivation of {_show_symbol(self.symbol)!r}>"


def _show_symbol(sym) -> str:
    return print_type(sym) if isinstance(sym, Type) else sym


def replay_derivation(d: Derivation, g: Cfg) -> bool:
    """Check that every step of ``d`` applies a production of ``g``."""
    for d, _ in preorder(d, _children):
        if d.production is None:
            if not (isinstance(d.symbol, Type) or d.symbol in g.terminals):
                return False
            continue
        lhs, rhs = d.production
        if d.production not in g._production_set or lhs != d.symbol:
            return False
        if len(rhs) != len(d.children):
            return False
        if any(c.symbol != sym for sym, c in zip(rhs, d.children)):
            return False
    return True


def _null_derivations(g: Cfg) -> dict:
    """An empty-string derivation for every nullable nonterminal."""
    null = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs in null:
                continue
            if all(sym in null for sym in rhs):
                null[lhs] = Derivation(
                    lhs, (lhs, rhs), tuple(null[sym] for sym in rhs))
                changed = True
    return null


def _eps_free(g: Cfg, null: dict) -> dict:
    """Epsilon-eliminated productions with back-mapping.

    Maps ``(lhs, reduced_rhs)`` (nonempty) to ``(original_production,
    kept_positions)``; dropping any subset of nullable positions of an
    original right-hand side yields a reduced one.
    """
    out = {}
    for prod in g.productions:
        lhs, rhs = prod
        nullable = [i for i, sym in enumerate(rhs) if sym in null]
        for r in range(len(nullable) + 1):
            for drop in itertools.combinations(nullable, r):
                kept = tuple(i for i in range(len(rhs)) if i not in drop)
                if not kept:
                    continue
                rhs2 = tuple(rhs[i] for i in kept)
                key = (lhs, rhs2)
                if key not in out:
                    out[key] = (prod, kept)
    return out


def _apply_efree(key, efree, null, children):
    """Rebuild an original-production node from reduced children."""
    (lhs, rhs2) = key
    prod, kept = efree[key]
    _, rhs = prod
    full = []
    it = iter(children)
    for i, sym in enumerate(rhs):
        if i in kept:
            full.append(next(it))
        else:
            full.append(null[sym])
    return Derivation(lhs, prod, tuple(full))


def _useful(g: Cfg, nt: Type, given: frozenset) -> tuple:
    """The productions of ``g`` a derivation from ``nt`` can use.

    Useless-symbol removal (Hopcroft & Ullman), with the nonterminals
    in ``given`` generating by themselves, as they do in a sentential
    form: first the generating nonterminals, those that derive a string
    over the terminals and ``given``, by a worklist over each
    production's count of nonterminal occurrences not yet generating;
    then the productions that ``nt`` reaches through productions whose
    symbols all generate.  Kept in grammar order.
    """
    prods = g.productions
    waiting = []
    uses = {}     # nonterminal -> one production index per occurrence
    todo = list(given)
    for i, (lhs, rhs) in enumerate(prods):
        count = 0
        for sym in rhs:
            if isinstance(sym, Type):
                uses.setdefault(sym, []).append(i)
                count += 1
        waiting.append(count)
        if not count:
            todo.append(lhs)
    generating = set()
    while todo:
        sym = todo.pop()
        if sym in generating:
            continue
        generating.add(sym)
        for i in uses.get(sym, ()):
            waiting[i] -= 1
            if not waiting[i]:
                todo.append(prods[i][0])
    by_head = {}
    for i, (lhs, _) in enumerate(prods):
        if not waiting[i]:
            by_head.setdefault(lhs, []).append(i)
    keep = []
    reached = {nt}
    todo = [nt]
    while todo:
        for i in by_head.get(todo.pop(), ()):
            keep.append(i)
            for sym in prods[i][1]:
                if isinstance(sym, Type) and sym not in reached:
                    reached.add(sym)
                    todo.append(sym)
    return tuple(prods[i] for i in sorted(keep))


class _Recognizer:
    """The epsilon-free, binarized, unary-closed image of a grammar."""

    def __init__(self, g: Cfg):
        self.g = g
        self.null = _null_derivations(g)
        self.efree = _eps_free(g, self.null)
        # token rules: lhs -> single symbol
        self.unary = {}      # key (lhs, rhs2) with len(rhs2) == 1
        self.binary = []     # (head, x, y, efree_key, part_index)
        for key in self.efree:
            lhs, rhs2 = key
            if len(rhs2) == 1:
                self.unary[key] = None
            elif len(rhs2) == 2:
                self.binary.append((lhs, rhs2[0], rhs2[1], key, 0))
            else:
                syn = [("#syn", key, t) for t in range(len(rhs2) - 2)]
                heads = [lhs] + syn
                tails = syn + [rhs2[-1]]
                for t in range(len(rhs2) - 1):
                    self.binary.append(
                        (heads[t], rhs2[t], tails[t], key, t))
        # unary closure over nonterminal-to-nonterminal reduced rules
        self.chains = {}     # (a, b) -> tuple of unary efree keys, a =>+ b
        frontier = {}
        for key in self.unary:
            lhs, (sym,) = key
            if isinstance(sym, Type):
                if (lhs, sym) not in self.chains:
                    self.chains[(lhs, sym)] = (key,)
                    frontier[(lhs, sym)] = (key,)
        while frontier:
            new = {}
            for (a, b), chain in frontier.items():
                for key in self.unary:
                    lhs, (sym,) = key
                    if sym == a and isinstance(sym, Type):
                        pair = (lhs, b)
                        if pair not in self.chains and lhs != b:
                            ext = (key,) + chain
                            self.chains[pair] = ext
                            new[pair] = ext
            frontier = new

    def parse(self, tokens):
        """CKY chart for a sentential form; returns the chart."""
        n = len(tokens)
        chart = {}

        def close(cell):
            # ``chains`` is transitively closed, so one pass adds every
            # symbol that derives some symbol of the cell
            for (a, b), chain in self.chains.items():
                if b in cell and a not in cell:
                    cell[a] = ("chain", chain, b)

        for i, tok in enumerate(tokens):
            # the token stands for itself, so binary rules can consume
            # terminals directly wherever they sit in a right-hand side
            cell = {tok: ("self",)}
            for key in self.unary:
                lhs, (sym,) = key
                if not isinstance(sym, Type) and sym == tok:
                    cell.setdefault(lhs, ("tok", key))
            close(cell)
            chart[(i, i + 1)] = cell
        for width in range(2, n + 1):
            for i in range(n - width + 1):
                j = i + width
                cell = {}
                for k in range(i + 1, j):
                    left, right = chart[(i, k)], chart[(k, j)]
                    for rule in self.binary:
                        head, x, y, key, part = rule
                        if head in cell:
                            continue
                        if x in left and y in right:
                            cell[head] = ("bin", rule, k)
                close(cell)
                chart[(i, j)] = cell
        return chart

    def rebuild(self, chart, i, j, sym, tokens):
        """A Derivation over original productions for a chart entry."""
        entry = chart[(i, j)][sym]
        tag = entry[0]
        if tag == "self":
            return Derivation(sym)
        if tag == "tok":
            key = entry[1]
            child = Derivation(tokens[i])
            return _apply_efree(key, self.efree, self.null, (child,))
        if tag == "chain":
            _, chain, b = entry
            d = self.rebuild(chart, i, j, b, tokens)
            for key in reversed(chain):
                d = _apply_efree(key, self.efree, self.null, (d,))
            return d
        # binary: walk the synthetic tail to gather all reduced children
        _, rule, k = entry
        head, x, y, key, part = rule
        children = [self.rebuild(chart, i, k, x, tokens)]
        cur, lo = y, k
        while isinstance(cur, tuple) and cur and cur[0] == "#syn":
            sub = chart[(lo, j)][cur]
            _, rule2, k2 = sub
            _, x2, y2, _, _ = rule2
            children.append(self.rebuild(chart, lo, k2, x2, tokens))
            cur, lo = y2, k2
        children.append(self.rebuild(chart, lo, j, cur, tokens))
        return _apply_efree(key, self.efree, self.null, tuple(children))


def derives(g: Cfg, nt: Type, symbols) -> Optional[Derivation]:
    """A derivation of the sentential form ``symbols`` from ``nt``.

    ``symbols`` mixes terminals and nonterminals; the empty sequence
    asks whether ``nt`` is nullable.  Returns ``None`` when no
    derivation exists, and raises on symbols outside the grammar.

    The chart recognizer is the epsilon-free, binarized, unary-closed
    image of only the productions ``_useful`` for ``nt``, given the
    nonterminals of the form.  The first call with a pair of ``nt`` and
    form nonterminals builds it, and ``g`` keeps it for as long as the
    grammar lives; later calls with that pair only parse.

    The derivation is the one a recognizer of all of ``g`` returns.  A
    symbol in a chart cell derives the cell's span, so it generates, and
    so do the symbols of the rules, chains and null derivations that
    put it there.  For a symbol ``nt`` reaches, those are exactly the
    kept ones, in the same relative order, so every chart entry that
    the rebuild from ``nt`` reads is the same in both charts.
    """
    if nt not in g.nonterminals:
        raise ValueError(f"unknown nonterminal {print_type(nt)!r}")
    toks = tuple(symbols)
    for sym in toks:
        if isinstance(sym, Type):
            if sym not in g.nonterminals:
                raise ValueError(f"unknown nonterminal {print_type(sym)!r}")
        elif sym not in g.terminals:
            raise ValueError(f"unknown symbol {sym!r}")
    given = frozenset(sym for sym in toks if isinstance(sym, Type))
    key = (nt, given)
    rec = g._recognizers.get(key)
    if rec is None:
        rec = g._recognizers[key] = _Recognizer(
            replace(g, start=nt, productions=_useful(g, nt, given)))
    if not toks:
        return rec.null.get(nt)
    chart = rec.parse(toks)
    if nt not in chart[(0, len(toks))]:
        return None
    d = rec.rebuild(chart, 0, len(toks), nt, toks)
    if d.fringe() != toks:
        raise RuntimeError(
            f"derivation from {print_type(nt)} does not yield the form "
            f"{' '.join(_show_symbol(sym) for sym in toks)}")
    return d


def language_upto(g: Cfg, n: int) -> set:
    """Exactly the generated strings of at most ``n`` terminals.

    Strings are space-joined terminal sequences; the empty string
    stands for the empty sequence.
    """
    sets = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            acc = {()}
            for sym in rhs:
                if isinstance(sym, Type):
                    parts = sets[sym]
                else:
                    parts = {(sym,)}
                acc = {a + b for a in acc for b in parts
                       if len(a) + len(b) <= n}
                if not acc:
                    break
            new = acc - sets[lhs]
            if new:
                sets[lhs].update(new)
                changed = True
    return {" ".join(w) for w in sets[g.start]}


# ---------------------------------------------------------------------------
# Grammar text format


def print_cfg(g: Cfg) -> str:
    """Render a grammar in the line-oriented text format.

    The first line names the start type; each further line is one
    production, with types double-quoted, terminals bare, and ``eps``
    for an empty right-hand side.
    """
    def show(sym):
        if isinstance(sym, Type):
            return f'"{print_type(sym)}"'
        if not sym or any(c.isspace() for c in sym) or '"' in sym \
                or sym in ("eps", "->") or sym.startswith("start:"):
            raise ValueError(f"terminal not printable in this format: "
                             f"{sym!r}")
        return sym

    lines = [f'start: "{print_type(g.start)}"']
    for lhs, rhs in g.productions:
        body = " ".join(show(s) for s in rhs) if rhs else "eps"
        lines.append(f'{show(lhs)} -> {body}')
    return "\n".join(lines) + "\n"


# A symbol is a quoted type, or a bare token running to the next blank
# (quotes inside it included); a quote that is never closed is refused.
_CFG_SYMBOL_RE = re.compile(r'"([^"]*)"|([^\s"]\S*)|(")')


def parse_cfg(text: str) -> Cfg:
    """Parse the output of ``print_cfg``; errors name their line.

    Each distinct quoted type text is parsed once per call.
    """
    types = {}

    def symbols(lineno, part):
        out = []
        for quoted, bare, stray in _CFG_SYMBOL_RE.findall(part):
            if stray:
                raise ValueError(f"line {lineno}: unterminated quote")
            if bare:
                out.append(bare)
                continue
            t = types.get(quoted)
            if t is None:
                try:
                    t = types[quoted] = parse_type(quoted)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            out.append(t)
        return out

    def one_type(lineno, part, what):
        syms = symbols(lineno, part)
        if len(syms) != 1 or not isinstance(syms[0], Type):
            raise ValueError(f"line {lineno}: {what} must be one quoted type")
        return syms[0]

    start = None
    prods = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start:"):
            if start is not None:
                raise ValueError(f"line {lineno}: duplicate start line")
            start = one_type(lineno, line[len("start:"):], "the start symbol")
            continue
        if "->" not in line:
            raise ValueError(f"line {lineno}: not a production line: {line!r}")
        head, _, body = line.partition("->")
        lhs = one_type(lineno, head, "a production head")
        rhs = symbols(lineno, body)
        if rhs == ["eps"]:
            rhs = []
        prods.append((lhs, tuple(rhs)))
    if start is None:
        raise ValueError("missing start line")
    return cfg(start, prods)


# ---------------------------------------------------------------------------
# Cut-only derivability


class CutBase:
    """A base set of sequents, indexed once for ``cut_derives``.

    ``rules`` keeps the base without duplicates, in its given order,
    and so does every rule list of the indexes:

    - ``by_succedent`` maps each succedent to its rules;
    - ``by_first`` maps the key of each antecedent's first top-level
      tree (its leaf type, or ``("bracket", index)``) to the rules
      starting with it;
    - ``by_leaf`` maps a type to the rules whose antecedent is a row of
      leaves with one of that type: the only rules that can rewrite a
      span again once the span rewrites to that type;
    - ``empty`` holds the rules with an empty antecedent;
    - ``inner_indices`` holds the indices of the base's brackets, at any
      depth, that have something inside: only a goal bracket with one
      of these indices can have items inside it that a match reads.

    Build one per rule set and pass it to every ``cut_derives`` call
    over that set.  It supports ``in``, so it can also be the base of
    ``replay_cuts``.
    """

    def __init__(self, rules):
        self.rules = tuple(dict.fromkeys(rules))
        self._members = frozenset(self.rules)
        self.by_succedent = {}
        self.by_first = {}
        self.by_leaf = {}
        self.empty = []
        self.inner_indices = set()
        for r in self.rules:
            ante = r.antecedent
            self.inner_indices.update(
                tr.index for _, _, tr, _ in nodes(ante)
                if isinstance(tr, Bracket) and tr.children)
            self.by_succedent.setdefault(r.succedent, []).append(r)
            if not ante:
                self.empty.append(r)
                continue
            self.by_first.setdefault(_first_key(ante[0]), []).append(r)
            if all(isinstance(tr, Leaf) for tr in ante):
                for t in dict.fromkeys(tr.type for tr in ante):
                    self.by_leaf.setdefault(t, []).append(r)

    def __contains__(self, s) -> bool:
        return s in self._members

    def __repr__(self):
        return f"<cut base of {len(self.rules)} sequents>"


def _first_key(tr) -> object:
    """The ``CutBase.by_first`` key of a tree."""
    return tr.type if isinstance(tr, Leaf) else ("bracket", tr.index)


def cut_derives(base, s: Sequent) -> Optional[CutDerivation]:
    """A Cut-only derivation of ``s`` from the base set, or ``None``.

    ``base`` is a ``CutBase`` or any iterable of sequents, which is
    wrapped in one; build the ``CutBase`` once when many goals share a
    base.

    Deductive parsing over the connected sub-hedges of the goal's
    antecedent: an item ``(parent, lo, hi, E)`` says that the children
    ``lo:hi`` under the bracket at ``parent`` rewrite to the type ``E``,
    because some base sequent with succedent ``E`` matches that span,
    each of its antecedent leaves covering either one equal goal leaf
    or a sub-span that already rewrites to that leaf's type, and each
    of its brackets one goal bracket with the same index whose children
    it matches whole.  This normal form is complete: in any Cut tree
    the final base sequent's antecedent splits the goal the same way.

    Items are filled in dependency order: the children of a bracket
    before its parent, and narrow spans before wide ones.  Inside a goal
    bracket, items are filled only when a match can read them: when its
    index is in ``CutBase.inner_indices`` and the brackets around it are
    filled too.  A span first tries the base rules whose first tree can
    start at ``lo`` (the goal tree there, or a type with an item from
    ``lo``), then closes itself from an agenda of the types it has newly
    rewritten to: each retries only the ``CutBase.by_leaf`` rules of
    that type, until the agenda is empty.  Sub-items are read from the
    filled ends, kept per ``(parent, start)`` and type in ascending
    order.  A goal whose succedent no base sequent has is refused before
    any item is built, since the last Cut of a derivation ends in a base
    sequent's succedent.
    """
    if not isinstance(base, CutBase):
        base = CutBase(base)
    if s.succedent not in base.by_succedent:
        return None
    goal_ante = s.antecedent
    # bracket_addresses lists a bracket after the brackets around it
    sibs_at = {(): goal_ante}
    for addr in bracket_addresses(goal_ante):
        if addr[:-1] in sibs_at:
            tr = sibs_at[addr[:-1]][addr[-1]]
            if tr.index in base.inner_indices:
                sibs_at[addr] = tr.children
    parents = list(sibs_at)
    table = {}   # item -> (base sequent, substitutions)
    ends = {}    # (parent, start) -> {type: ascending ends of its items}

    def match(trees, ti, qpath, parent, pos, hi):
        """Match ``trees[ti:]`` against the children ``pos:hi`` at
        ``parent``; a list of (base leaf address, item) substitutions,
        or None."""
        if ti == len(trees):
            return [] if pos == hi else None
        tr = trees[ti]
        sibs = sibs_at[parent]
        if isinstance(tr, Bracket):
            if pos < hi:
                orig = sibs[pos]
                if isinstance(orig, Bracket) and orig.index == tr.index:
                    sub = match(tr.children, 0, qpath + (ti,),
                                parent + (pos,), 0, len(orig.children))
                    if sub is not None:
                        rest = match(trees, ti + 1, qpath, parent, pos + 1,
                                     hi)
                        if rest is not None:
                            return sub + rest
            return None
        f = tr.type
        if pos < hi and isinstance(sibs[pos], Leaf) and sibs[pos].type is f:
            rest = match(trees, ti + 1, qpath, parent, pos + 1, hi)
            if rest is not None:
                return rest
        for end in ends[(parent, pos)].get(f, ()):
            if end > hi:
                break
            rest = match(trees, ti + 1, qpath, parent, end, hi)
            if rest is not None:
                return [((qpath, ti), (parent, pos, end, f))] + rest
        return None

    for parent in reversed(parents):
        sibs = sibs_at[parent]
        n = len(sibs)
        for width in range(n + 1):
            for lo in range(n - width + 1):
                hi = lo + width
                # every item from lo filled so far ends at or before hi
                from_lo = ends.setdefault((parent, lo), {})
                starts = dict.fromkeys(from_lo)
                if lo < hi:
                    starts[_first_key(sibs[lo])] = None
                candidates = [base.by_first.get(k, ()) for k in starts]
                if lo == hi:
                    candidates.append(base.empty)
                agenda = []
                rules = itertools.chain.from_iterable(candidates)
                while True:
                    for b in rules:
                        e = b.succedent
                        item = (parent, lo, hi, e)
                        if item in table:
                            continue
                        sub = match(b.antecedent, 0, (), parent, lo, hi)
                        if sub is not None:
                            table[item] = (b, sub)
                            from_lo.setdefault(e, []).append(hi)
                            agenda.append(e)
                    if not agenda:
                        break
                    rules = base.by_leaf.get(agenda.pop(), ())

    top = ((), 0, len(goal_ante), s.succedent)
    if top not in table:
        return None
    built = {}

    def build(state):
        if state in built:
            return built[state]
        b, subs = table[state]
        d = cut_leaf(b)
        for (qpath, c), substate in sorted(
                subs, key=lambda it: it[0][0] + (it[0][1],), reverse=True):
            piece = build(substate)
            position = replace_span(d.conclusion.antecedent, qpath, c, c + 1,
                                    (HOLE,))
            d = cut_node(piece, d, position)
        built[state] = d
        return d

    d = build(top)
    if d.conclusion != s:
        raise RuntimeError(
            f"Cut derivation of {print_sequent(s)} concludes "
            f"{print_sequent(d.conclusion)}")
    return d
