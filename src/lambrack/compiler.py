"""Compilation of bracketed categorial grammars into context-free form.

A grammar over length-bounded types only ever needs finitely many
provable building blocks: the flat sequents with at most two antecedent
types, and the bridges that trade one bracket pair against a diamond or
box-down occurrence.  Every bounded provable sequent is reachable from
these by Cut alone, so a context-free grammar whose nonterminals are
the bounded types and whose productions mirror the building blocks
generates exactly the strings the categorial grammar recognizes.
"""

import itertools
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .cfgkit import Cfg
from .freegroup import IDENTITY, mul, word_of
from .prover import Prover
from .syntax import (
    L1STAR_DIA, LDIA, UNIT, Grammar, boxdown, bracket, calculus, dia, leaf,
    length, over, parse_sequent, prim, print_sequent, print_type, prod,
    sequent, under, yield_of,
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


def _flat_candidates(types, prover):
    """Provable flat sequents with at most two antecedent types.

    Candidates are pruned through the free-group image first: the
    antecedent's word must equal the succedent's, a necessary
    condition for provability, so only matching buckets reach the
    prover.  The surviving order equals the plain nested-loop order.
    Every candidate goes through the build's one ``Prover``, so goals
    shared between candidates are searched once.
    """
    buckets = {}
    for t in types:
        buckets.setdefault(word_of(t), []).append(t)
    found = []
    for n in (0, 1, 2) if prover.calc.unit else (1, 2):
        for row in itertools.product(types, repeat=n):
            w = IDENTITY
            for t in row:
                w = mul(w, word_of(t))
            for c in buckets.get(w, ()):
                s = sequent(tuple(leaf(t) for t in row), c)
                proof = prover.prove(s)
                if proof is not None:
                    found.append((s, proof))
    return found


def _bridge_sequents(types, m, calc):
    short = [a for a in types if length(a) <= m - 2]
    out = [sequent((bracket(()),), dia(UNIT))] if calc.unit else []
    out += [sequent((bracket((leaf(a),)),), dia(a)) for a in short]
    out += [sequent((bracket((leaf(boxdown(a)),)),), a) for a in short]
    return out


def _cache_file(cache_dir, prims, m, calc) -> Path:
    tag = "-".join(sorted(prims)) or "none"
    return Path(cache_dir) / f"rules-{calc.name}-{tag}-m{m}.txt"


def _cache_header(prims, m, calc) -> str:
    return (f"# rule cache v{__version__} "
            f"B={','.join(sorted(prims))} m={m} calculus={calc.name}")


def _cache_trailer(rules) -> str:
    # imported here: hashlib loads OpenSSL, which costs every process
    # that imports lambrack about 4 MB, and only the rule cache needs it
    import hashlib

    body = "".join(line + "\n" for line in rules)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"# {len(rules)} rules sha256={digest}"


def _load_cached_flat(path: Path, prims, m, prover):
    """The cached flat rules with their proofs, or None to rebuild.

    Every cached rule is re-proved on load, through the build's one
    ``Prover``; a rule that does not parse or prove rejects the file.
    """
    calc = prover.calc
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    # the trailer counts and digests the rule lines, so a truncated or
    # edited file is rejected rather than read as a smaller rule set
    if (len(lines) < 2 or lines[0] != _cache_header(prims, m, calc)
            or lines[-1] != _cache_trailer(lines[1:-1])):
        return None
    out = []
    for line in lines[1:-1]:
        try:
            s = parse_sequent(line)
        except ValueError:
            return None
        proof = prover.prove(s)
        if proof is None:
            return None
        out.append((s, proof))
    return out


def _store_cached_flat(path: Path, prims, m, calc, flat) -> None:
    rules = [print_sequent(s) for s, _ in flat]
    lines = [_cache_header(prims, m, calc)] + rules + [_cache_trailer(rules)]
    path.parent.mkdir(parents=True, exist_ok=True)
    # write a sibling file and rename it over the target, so a reader
    # never sees a partly written cache
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build_rulesets(prims, m: int, calc, cache_dir=None) -> RuleSets:
    """Enumerate the bounded types and collect their rule sets.

    ``calc`` picks the mode: the plain bracket calculus gives the
    plain sets, the unit calculus the guarded ones.  The expensive
    flat-sequent search can be cached on disk: the cache is keyed by
    primitive set, bound, calculus and tool version, written
    atomically, ends with the count and SHA-256 of its rule lines, and
    every cached rule is re-proved on load, so a stale, truncated or
    edited file only costs time, never soundness or completeness.

    One ``Prover`` serves the whole build: the candidate search or the
    cache re-proof, then the bridges.  Its memo holds facts about
    sequents, so sharing it changes no proof, only how often a goal
    common to many rules is searched.
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
    flat = None
    path = None
    if cache_dir is not None:
        path = _cache_file(cache_dir, prims, m, calc)
        flat = _load_cached_flat(path, prims, m, prover)
    if flat is None:
        flat = _flat_candidates(types, prover)
        if path is not None:
            _store_cached_flat(path, prims, m, calc, flat)
    proofs = dict(flat)
    bridges = []
    for s in _bridge_sequents(types, m, calc):
        proof = prover.prove(s)
        if proof is None:
            # every bridge is provable in both calculi; a refuted one
            # means the prover is wrong, and no rule base is built on it
            raise RuntimeError(
                f"bridge not provable in {calc.name}: {print_sequent(s)}")
        bridges.append(s)
        proofs[s] = proof
    return RuleSets(tuple(s for s, _ in flat), tuple(bridges), proofs)


def compile_cfg(g: Grammar, calc, max_types: int = 4000,
                cache_dir=None) -> Cfg:
    """The context-free grammar equivalent to a categorial grammar.

    ``calc`` is the recognition calculus (plain or starred bracket
    calculus).  Nonterminals are all types over the grammar's
    primitives bounded by the longest type mentioned; productions copy
    every rule of the rule sets with its brackets erased (the bridges
    trade modalities for brackets, and in starred mode close the unit
    diamond off), and attach the lexicon.
    """
    calc = calculus(calc)
    if calc.name not in ("Ldia", "LstarDia"):
        raise ValueError(
            f"grammars are compiled for Ldia or LstarDia, not {calc.name}")
    starred = calc.starred
    for _, t in g.lexicon + (("", g.distinguished),):
        if t.units:
            raise ValueError(
                f"grammar types must be unit-free: {print_type(t)}")
    base = sorted(g.primitives())
    m = max([length(t) for _, t in g.lexicon] + [length(g.distinguished)])
    types = enum_types(base, m, guarded=starred)
    if len(types) > max_types:
        raise ValueError(
            f"type enumeration too large: {len(types)} > {max_types}")
    rs = build_rulesets(base, m, L1STAR_DIA if starred else LDIA,
                        cache_dir=cache_dir)
    prods = [(s.succedent, tuple(yield_of(s.antecedent))) for s in rs.rules]
    for word, t in g.lexicon:
        prods.append((t, (word,)))
    terminals = frozenset(word for word, _ in g.lexicon)
    return Cfg(frozenset(types), terminals, g.distinguished,
               tuple(dict.fromkeys(prods)))
