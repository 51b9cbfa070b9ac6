"""Compilation of bracketed categorial grammars into context-free form.

A grammar over length-bounded types only ever needs finitely many
provable building blocks: the flat sequents with at most two antecedent
types, and the bridges that trade one bracket pair against a diamond or
box-down occurrence.  Every bounded provable sequent is reachable from
these by Cut alone, so a context-free grammar whose productions mirror
the building blocks generates exactly the strings the categorial
grammar recognizes.  ``build_rulesets`` builds the full base over all
bounded types; ``compile_cfg`` proves only the blocks whose antecedent
types generate, so its nonterminals are the generating types.
"""

import itertools
from dataclasses import dataclass, field
from operator import itemgetter

from .cfgkit import Cfg
from .freegroup import IDENTITY, mul, word_of
from .prover import Prover
from .syntax import (
    L1STAR_DIA, LDIA, UNIT, BoxDown, Grammar, boxdown, bracket, calculus,
    dia, leaf, length, over, prim, print_sequent, print_type, prod, sequent,
    under, yield_of,
)

__all__ = ["RuleSets", "enum_types", "build_rulesets", "compile_cfg"]


def enum_types(prims, m: int, guarded: bool = False) -> list:
    """All types over the primitives with length at most ``m``.

    In guarded mode the unit is admitted, but only directly under a
    diamond, so ``dia 1`` acts as one extra atom of length two; every
    guarded type arises that way, and nothing else does.  The order is
    deterministic: by length, then by printed form.
    """
    if m < 1:
        raise ValueError("the length bound must be at least 1")
    names = sorted({str(name) for name in prims})
    by_len = {n: [] for n in range(m + 1)}
    by_len[1] = [prim(name) for name in names]
    if guarded and m >= 2:
        by_len[2].append(dia(UNIT))
    for n in range(2, m + 1):
        layer = by_len[n]
        for a in by_len[n - 2]:
            layer.append(dia(a))
            layer.append(boxdown(a))
        for k in range(1, n):
            for a in by_len[k]:
                for b in by_len[n - k]:
                    layer.extend((under(a, b), over(a, b), prod(a, b)))
    out = []
    for n in range(1, m + 1):
        out.extend(sorted(by_len[n], key=print_type))
    return out


@dataclass(frozen=True)
class RuleSets:
    """The finite sequent bases a compiled grammar rests on.

    ``flat_rules`` holds every provable flat sequent with at most two
    antecedent types drawn from the bounded enumeration;
    ``bridge_rules`` holds the bracket bridges (and, in guarded mode,
    the empty-bracket axiom).  Each member's proof is kept alongside.
    """

    flat_rules: tuple
    bridge_rules: tuple
    proofs: dict = field(compare=False, repr=False)

    @property
    def rules(self) -> tuple:
        return self.flat_rules + self.bridge_rules


def _buckets(types) -> dict:
    """The types grouped by free-group word, each group in type order."""
    buckets = {}
    for t in types:
        buckets.setdefault(word_of(t), []).append(t)
    return buckets


def _proved(rows, buckets, prover):
    """The provable flat sequents ``row => c`` over the given rows.

    Candidates are pruned through the free-group image first: the
    antecedent's word must equal the succedent's, a necessary
    condition for provability, so only the row's bucket reaches the
    prover.  Yields ``(row, c, sequent, proof)`` in row order, then
    bucket order.
    """
    for row in rows:
        w = IDENTITY
        for t in row:
            w = mul(w, word_of(t))
        for c in buckets.get(w, ()):
            s = sequent(tuple(leaf(t) for t in row), c)
            proof = prover.prove(s)
            if proof is not None:
                yield row, c, s, proof


def _flat_candidates(types, prover):
    """Provable flat sequents with at most two antecedent types.

    The surviving order equals the plain nested-loop order.  Every
    candidate goes through the build's one ``Prover``, so goals shared
    between candidates are searched once.
    """
    widths = (0, 1, 2) if prover.calc.unit else (1, 2)
    rows = (row for n in widths for row in itertools.product(types, repeat=n))
    return [(s, proof) for _, _, s, proof in _proved(rows, _buckets(types),
                                                     prover)]


def _bridge_sequents(types, m, calc):
    short = [a for a in types if length(a) <= m - 2]
    out = [sequent((bracket(()),), dia(UNIT))] if calc.unit else []
    out += [sequent((bracket((leaf(a),)),), dia(a)) for a in short]
    out += [sequent((bracket((leaf(boxdown(a)),)),), a) for a in short]
    return out


def _bridge_proof(prover, s):
    proof = prover.prove(s)
    if proof is None:
        # every bridge is provable in both calculi; a refuted one means
        # the prover is wrong, and nothing is built on it
        raise RuntimeError(
            f"bridge not provable in {prover.calc.name}: {print_sequent(s)}")
    return proof


def build_rulesets(prims, m: int, calc) -> RuleSets:
    """Enumerate the bounded types and collect their rule sets.

    ``calc`` picks the mode: the plain bracket calculus gives the
    plain sets, the unit calculus the guarded ones.

    One ``Prover`` serves the whole build: the candidate search, then
    the bridges.  Its memo holds facts about sequents, so sharing it
    changes no proof, only how often a goal common to many rules is
    searched.
    """
    calc = calculus(calc)
    if calc.name not in ("Ldia", "L1starDia"):
        raise ValueError(
            f"rule sets are built in Ldia or L1starDia, not {calc.name}")
    if m < 1:
        raise ValueError("the length bound must be at least 1")
    prims = frozenset(str(p) for p in prims)
    types = enum_types(prims, m, guarded=calc.unit)
    prover = Prover(calc)
    flat = _flat_candidates(types, prover)
    bridges = _bridge_sequents(types, m, calc)
    proofs = dict(flat)
    proofs.update((s, _bridge_proof(prover, s)) for s in bridges)
    return RuleSets(tuple(s for s, _ in flat), tuple(bridges), proofs)


def compile_cfg(g: Grammar, calc, max_types: int = 4000) -> Cfg:
    """The context-free grammar equivalent to a categorial grammar.

    ``calc`` is the recognition calculus (plain or starred bracket
    calculus).  The construction is ``build_rulesets``' over the types
    bounded by the longest type mentioned, cut down to the rules a
    derivation can use: nonterminals are the generating types (those
    that derive some string) and the start type, and every production
    copies a rule whose antecedent types all generate, with its
    brackets erased (the bridges trade modalities for brackets, and in
    starred mode close the unit diamond off), followed by the lexicon.
    A rule with a non-generating antecedent type takes part in no
    derivation of a string, so dropping it keeps the language.

    The rules are found by demand.  An agenda starts from the lexicon
    types and, in starred mode, from ``dia 1`` and every ``C`` with a
    provable ``=> C``.  A type taken off the agenda is tried alone and
    beside itself and every type taken before it, in both orders, and
    in its bridges; the succedent of each provable rule joins the
    agenda.  The productions come out in the full construction's order.
    """
    calc = calculus(calc)
    if calc.name not in ("Ldia", "LstarDia"):
        raise ValueError(
            f"grammars are compiled for Ldia or LstarDia, not {calc.name}")
    starred = calc.starred
    for _, t in g.lexicon + (("", g.distinguished),):
        if t.units or t.mode == "indexed":
            raise ValueError(
                f"grammar types must be unit-free and unindexed: "
                f"{print_type(t)}")
    m = max([length(t) for _, t in g.lexicon] + [length(g.distinguished)])
    types = enum_types(g.primitives(), m, guarded=starred)
    if len(types) > max_types:
        raise ValueError(
            f"type enumeration too large: {len(types)} > {max_types}")
    rank = {t: i for i, t in enumerate(types)}
    buckets = _buckets(types)
    prover = Prover(L1STAR_DIA if starred else LDIA)
    agenda = list(dict.fromkeys(t for _, t in g.lexicon))
    seen = set(agenda)
    rules = []   # (position in the full construction's order, sequent)

    def found(key, s):
        rules.append((key, s))
        if s.succedent not in seen:
            seen.add(s.succedent)
            agenda.append(s.succedent)

    def flat(rows):
        for row, c, s, _ in _proved(rows, buckets, prover):
            found((0, len(row), tuple(rank[t] for t in row), rank[c]), s)

    def bridge(key, s):
        _bridge_proof(prover, s)
        found((1,) + key, s)

    if starred:
        bridge((0, 0), sequent((bracket(()),), dia(UNIT)))
        flat([()])
    done = []
    while agenda:
        x = agenda.pop()
        done.append(x)
        rows = [(x,), (x, x)]
        for y in done[:-1]:
            rows += [(x, y), (y, x)]
        flat(rows)
        if length(x) <= m - 2:
            bridge((1, rank[x]), sequent((bracket((leaf(x),)),), dia(x)))
        if isinstance(x, BoxDown):
            bridge((2, rank[x.body]), sequent((bracket((leaf(x),)),), x.body))
    rules.sort(key=itemgetter(0))
    prods = [(s.succedent, tuple(yield_of(s.antecedent))) for _, s in rules]
    prods += [(t, (word,)) for word, t in g.lexicon]
    terminals = frozenset(word for word, _ in g.lexicon)
    heads = frozenset(lhs for lhs, _ in prods)
    return Cfg(heads | {g.distinguished}, terminals, g.distinguished,
               tuple(dict.fromkeys(prods)))
