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
One chart parser serves both.  ``cut_derives`` reads the base as a
grammar (a ``CutBase``: each base sequent ``Δ ⇒ E`` is the production
``E -> tokens(Δ)``, with brackets as terminal tokens), parses the goal's
antecedent with the recognizer ``derives`` uses, and turns the grammar
derivation into Cut inferences; callers build one ``CutBase`` per rule
set and pass it to every call.
"""

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Optional

from .syntax import (
    HOLE, Hedge, Leaf, Sequent, Type, fold, leaf, nodes, parse_type, plug,
    preorder, print_sequent, print_type, replace_span, sequent,
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
        if not nullable:
            if rhs:
                out.setdefault(prod, (prod, tuple(range(len(rhs)))))
            continue
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
    """The epsilon-free, binarized image of a grammar, and its chart.

    ``units`` maps a symbol to the reduced rules ``lhs -> symbol`` that
    read it.  ``by_left`` maps a symbol to the binary rules whose left
    symbol it is, each as ``(n, head, x, y, efree_key)``, where ``n``
    numbers the binary rules in grammar order; the heads of all but the
    first part of a binarized right-hand side are synthetic tuples.
    """

    def __init__(self, g: Cfg):
        self.g = g
        self.null = _null_derivations(g)
        self.efree = _eps_free(g, self.null)
        self.units = {}
        self.by_left = {}
        n = 0
        for key in self.efree:
            lhs, rhs2 = key
            if len(rhs2) == 1:
                self.units.setdefault(rhs2[0], []).append(key)
                continue
            syn = [("#syn", key, t) for t in range(len(rhs2) - 2)]
            heads = [lhs] + syn
            tails = syn + [rhs2[-1]]
            for t in range(len(rhs2) - 1):
                self.by_left.setdefault(rhs2[t], []).append(
                    (n, heads[t], rhs2[t], tails[t], key))
                n += 1

    def close(self, cell):
        """Add to ``cell`` every symbol that derives one of its symbols
        by unit rules: each symbol new to the cell tries only the unit
        rules that read it."""
        agenda = list(cell)
        for sym in agenda:
            for key in self.units.get(sym, ()):
                if key[0] not in cell:
                    cell[key[0]] = ("unit", key, sym)
                    agenda.append(key[0])

    def parse(self, tokens):
        """CKY chart for a sentential form; returns the chart.

        A cell maps each symbol that derives its span to how: ``self``
        for the token itself, ``unit`` or ``bin``.  For each head and
        split, the first matching binary rule in grammar order wins.
        """
        n = len(tokens)
        chart = {}
        by_left = self.by_left
        for i, tok in enumerate(tokens):
            # the token stands for itself, so binary rules can consume
            # terminals directly wherever they sit in a right-hand side
            cell = chart[(i, i + 1)] = {tok: ("self",)}
            self.close(cell)
        for width in range(2, n + 1):
            for i in range(n - width + 1):
                j = i + width
                cell = chart[(i, j)] = {}
                for k in range(i + 1, j):
                    right = chart[(k, j)]
                    if not right:
                        continue
                    hits = [rule for x in chart[(i, k)]
                            for rule in by_left.get(x, ())
                            if rule[3] in right]
                    hits.sort()
                    for rule in hits:
                        if rule[1] not in cell:
                            cell[rule[1]] = ("bin", rule, k)
                self.close(cell)
        return chart

    def rebuild(self, chart, i, j, sym, tokens):
        """A Derivation over original productions for a chart entry.

        A cell's unit steps are followed in a loop, so only binary
        splits recurse.
        """
        cell = chart[(i, j)]
        steps = []
        entry = cell[sym]
        while entry[0] == "unit":
            steps.append(entry[1])
            entry = cell[entry[2]]
        if entry[0] == "self":
            d = Derivation(tokens[i])
        else:
            # binary: walk the synthetic tail to gather all reduced children
            _, (_, _, x, cur, key), k = entry
            children = [self.rebuild(chart, i, k, x, tokens)]
            lo = k
            while isinstance(cur, tuple):
                _, (_, _, x2, cur, _), k2 = chart[(lo, j)][cur]
                children.append(self.rebuild(chart, lo, k2, x2, tokens))
                lo = k2
            children.append(self.rebuild(chart, lo, j, cur, tokens))
            d = _apply_efree(key, self.efree, self.null, tuple(children))
        for key in reversed(steps):
            d = _apply_efree(key, self.efree, self.null, (d,))
        return d

    def derive(self, nt, tokens) -> Optional[Derivation]:
        """A derivation of ``tokens`` from ``nt``, or None."""
        if not tokens:
            return self.null.get(nt)
        chart = self.parse(tokens)
        if nt not in chart[(0, len(tokens))]:
            return None
        return self.rebuild(chart, 0, len(tokens), nt, tokens)


def derives(g: Cfg, nt: Type, symbols) -> Optional[Derivation]:
    """A derivation of the sentential form ``symbols`` from ``nt``.

    ``symbols`` mixes terminals and nonterminals; the empty sequence
    asks whether ``nt`` is nullable.  Returns ``None`` when no
    derivation exists, and raises on symbols outside the grammar.

    The chart recognizer is the epsilon-free, binarized image of only
    the productions ``_useful`` for ``nt``, given the nonterminals of
    the form.  The first call with a pair of ``nt`` and form
    nonterminals builds it, and ``g`` keeps it for as long as the
    grammar lives; later calls with that pair only parse.

    The derivation is the one a recognizer of all of ``g`` returns.  A
    symbol in a chart cell derives the cell's span, so it generates, and
    so do the symbols of the rules and null derivations that put it
    there.  For a symbol ``nt`` reaches, those are exactly the kept
    ones, in the same relative order, and a cell's agenda meets them in
    the same relative order, so every chart entry that the rebuild from
    ``nt`` reads is the same in both charts.
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
    d = rec.derive(nt, toks)
    if d is not None and d.fringe() != toks:
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
    """A base set of sequents, read as a grammar for ``cut_derives``.

    ``rules`` keeps the base without duplicates, in its given order.
    Each rule ``Δ ⇒ E`` is the production ``E -> tokens(Δ)``, whose leaf
    types are nonterminals and whose brackets are the terminal tokens
    ``[``, ``]``, ``[:i`` and ``]:i``.  The recognizer of that grammar
    is built on the first ``cut_derives`` call, so build one ``CutBase``
    per rule set and pass it to every call over that set.  It supports
    ``in``, so it can also be the base of ``replay_cuts``.
    """

    def __init__(self, rules):
        self.rules = tuple(dict.fromkeys(rules))
        self._members = frozenset(self.rules)

    @cached_property
    def _grammar(self) -> tuple:
        """The recognizer of the base's productions, and the rule of
        each production."""
        rule_of = {(r.succedent, _tokens(r.antecedent)): r
                   for r in self.rules}
        return _Recognizer(cfg(self.rules[0].succedent, rule_of)), rule_of

    def __contains__(self, s) -> bool:
        return s in self._members

    def __repr__(self):
        return f"<cut base of {len(self.rules)} sequents>"


def _tokens(h: Hedge) -> tuple:
    """The grammar symbols of a hedge, left to right: a leaf is its
    type, and a bracket an opening and a closing token."""
    toks, closes = [], []
    for parent, _, tr, _ in nodes(h):
        # the brackets still open are the ones around ``tr``
        while len(closes) > len(parent):
            toks.append(closes.pop())
        if isinstance(tr, Leaf):
            toks.append(tr.type)
        else:
            mark = "" if tr.index is None else f":{tr.index}"
            toks.append("[" + mark)
            closes.append("]" + mark)
    toks.extend(reversed(closes))
    return tuple(toks)


def cut_derives(base, s: Sequent) -> Optional[CutDerivation]:
    """A Cut-only derivation of ``s`` from the base set, or ``None``.

    ``base`` is a ``CutBase`` or any iterable of sequents, which is
    wrapped in one; build the ``CutBase`` once when many goals share a
    base.

    A Cut-only derivation from the base is a derivation in the base's
    grammar: each base sequent a production, each Cut a substitution of
    one production's derivation for a nonterminal of another.  So the
    goal's antecedent is tokenized like a base antecedent and parsed
    from its succedent by the chart recognizer ``derives`` uses; brackets
    nest in the parse as they do in the goal, since every right-hand
    side is balanced.  A goal ``C ⇒ C`` is a form the grammar derives in
    no steps, while a Cut derivation uses at least one base sequent, so
    it needs one unit rule back to ``C``.  A goal with a succedent, leaf
    type or bracket token the base does not have is refused before any
    parse.

    Each grammar node becomes its base sequent with the derivations of
    its derived children cut into their leaves, right to left, so the
    addresses of the leaves not yet cut stay put.
    """
    if not isinstance(base, CutBase):
        base = CutBase(base)
    if not base.rules:
        return None
    rec, rule_of = base._grammar
    g = rec.g
    toks = _tokens(s.antecedent)
    c = s.succedent
    if c not in g.nonterminals or any(
            sym not in g.nonterminals and sym not in g.terminals
            for sym in toks):
        return None
    if toks == (c,):
        # derived in no steps, but a Cut derivation uses a base sequent
        chart = rec.parse(toks)
        step = next(((key, y) for y in chart[(0, 1)]
                     for key in rec.units.get(y, ()) if key[0] == c), None)
        if step is None:
            return None
        gd = _apply_efree(step[0], rec.efree, rec.null,
                          (rec.rebuild(chart, 0, 1, step[1], toks),))
    else:
        gd = rec.derive(c, toks)
        if gd is None:
            return None

    def cut_in(node, pieces):
        if node.production is None:
            return None
        d = cut_leaf(rule_of[node.production])
        leaves = [(parent, j) for parent, j, tr, _
                  in nodes(d.conclusion.antecedent) if isinstance(tr, Leaf)]
        pieces = [piece for sym, piece in zip(node.production[1], pieces)
                  if isinstance(sym, Type)]
        for (qpath, i), piece in reversed(list(zip(leaves, pieces))):
            if piece is not None:
                position = replace_span(d.conclusion.antecedent, qpath, i,
                                        i + 1, (HOLE,))
                d = cut_node(piece, d, position)
        return d

    d = fold(gd, _children, cut_in)
    if d.conclusion != s:
        raise RuntimeError(
            f"Cut derivation of {print_sequent(s)} concludes "
            f"{print_sequent(d.conclusion)}")
    return d
