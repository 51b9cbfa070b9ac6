"""Compilation of bracketed categorial grammars into context-free form.

A grammar over length-bounded types only ever needs finitely many
provable building blocks: the flat sequents with at most two antecedent
types, and the bridges that trade one bracket pair against a diamond or
box-down occurrence.  Every bounded provable sequent is reachable from
these by Cut alone, so a context-free grammar whose productions mirror
the building blocks generates exactly the strings the categorial
grammar recognizes.  One builder, ``_build``, finds the blocks a set of
seed types reaches; ``build_rulesets`` seeds it with every bounded type,
``compile_cfg`` with the lexicon's, so its nonterminals are the
generating types.
"""

from dataclasses import dataclass, field
from operator import itemgetter

from .cfgkit import Cfg, cfg
from .freegroup import IDENTITY, mul, word_of
from .prover import Prover, check
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


def _build(seeds, types, prover) -> list:
    """The rules the ``seeds`` reach, as ``(key, sequent, proof)``.

    An agenda starts from the seeds and, when ``prover``'s calculus has
    the unit, from the empty-bracket axiom ``[ ] => dia 1`` and the
    empty row.  A type taken off the agenda is tried alone and beside
    itself and every type taken before it, in both orders, and in its
    bridges ``[ x ] => dia x`` (when ``dia x`` is among ``types``) and
    ``[ boxd B ] => B``; the succedent of each provable rule joins the
    agenda.  A flat candidate ``row => c`` reaches the prover
    only if ``c`` is among ``types`` with the row's free-group word, a
    necessary condition for provability.  Seeded with every type, the
    agenda tries every row of at most two types and every bridge.  The
    one ``prover`` serves every goal; its memo holds facts about
    sequents, so sharing it changes no proof, only how often a goal
    common to many rules is searched.

    Every bridge is provable in both calculi, so a refuted one means the
    prover is wrong: it raises ``RuntimeError``.  The triples come out
    sorted by key, the full construction's order: flat rules by width,
    row and succedent in type order, then the bridges.
    """
    rank = {t: i for i, t in enumerate(types)}
    buckets = {}
    for t in types:
        buckets.setdefault(word_of(t), []).append(t)
    agenda = list(dict.fromkeys(seeds))
    seen = set(agenda)
    rules = []

    def found(key, s, proof):
        rules.append((key, s, proof))
        if s.succedent not in seen:
            seen.add(s.succedent)
            agenda.append(s.succedent)

    def flat(rows):
        for row in rows:
            w = IDENTITY
            for t in row:
                w = mul(w, word_of(t))
            for c in buckets.get(w, ()):
                s = sequent(tuple(leaf(t) for t in row), c)
                proof = prover.prove(s)
                if proof is not None:
                    found((0, len(row), tuple(rank[t] for t in row), rank[c]),
                          s, proof)

    def bridge(key, s):
        proof = prover.prove(s)
        if proof is None:
            raise RuntimeError(
                f"bridge not provable in {prover.calc.name}: "
                f"{print_sequent(s)}")
        found((1,) + key, s, proof)

    if prover.calc.unit:
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
        if dia(x) in rank:
            bridge((1, rank[x]), sequent((bracket((leaf(x),)),), dia(x)))
        if isinstance(x, BoxDown):
            bridge((2, rank[x.body]), sequent((bracket((leaf(x),)),), x.body))
    rules.sort(key=itemgetter(0))
    return rules


def build_rulesets(prims, m: int, calc) -> RuleSets:
    """The full rule base over the bounded types, with its proofs.

    ``calc`` picks the mode: the plain bracket calculus gives the
    plain sets, the unit calculus the guarded ones.  The base is
    ``_build`` seeded with every bounded type, under one ``Prover``.
    """
    calc = calculus(calc)
    if calc.name not in ("Ldia", "L1starDia"):
        raise ValueError(
            f"rule sets are built in Ldia or L1starDia, not {calc.name}")
    types = enum_types(prims, m, guarded=calc.unit)
    rules = _build(types, types, Prover(calc))
    return RuleSets(tuple(s for key, s, _ in rules if key[0] == 0),
                    tuple(s for key, s, _ in rules if key[0] == 1),
                    {s: proof for _, s, proof in rules})


def compile_cfg(g: Grammar, calc, max_types: int = 4000) -> Cfg:
    """The context-free grammar equivalent to a categorial grammar.

    ``calc`` is the recognition calculus (plain or starred bracket
    calculus).  The rules are ``_build``'s seeded with the lexicon
    types, over the types bounded by the longest type mentioned: every
    rule whose antecedent types all generate (derive some string).  A
    rule with a non-generating antecedent type takes part in no
    derivation, so dropping it keeps the language.  Each rule's proof
    must conclude the rule and pass ``check``, which matches each node
    the proofs share once, or nothing is returned (``RuntimeError``).
    The productions are the rules with their brackets erased (the
    bridges trade modalities for brackets, and in starred mode close
    the unit diamond off), then the lexicon.
    """
    calc = calculus(calc)
    if calc.name not in ("Ldia", "LstarDia"):
        raise ValueError(
            f"grammars are compiled for Ldia or LstarDia, not {calc.name}")
    for _, t in g.lexicon + (("", g.distinguished),):
        if t.units or t.mode == "indexed":
            raise ValueError(
                f"grammar types must be unit-free and unindexed: "
                f"{print_type(t)}")
    m = max([length(t) for _, t in g.lexicon] + [length(g.distinguished)])
    types = enum_types(g.primitives(), m, guarded=calc.starred)
    if len(types) > max_types:
        raise ValueError(
            f"type enumeration too large: {len(types)} > {max_types}")
    logic = L1STAR_DIA if calc.starred else LDIA
    rules = _build((t for _, t in g.lexicon), types, Prover(logic))
    for _, s, proof in rules:
        if proof.conclusion != s or not check(proof, logic):
            raise RuntimeError(
                f"rule proof fails its check: {print_sequent(s)}")
    prods = [(s.succedent, tuple(yield_of(s.antecedent))) for _, s, _ in rules]
    prods += [(t, (word,)) for word, t in g.lexicon]
    return cfg(g.distinguished, prods)
