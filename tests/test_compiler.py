"""Tests for bounded type enumeration, rule-set construction, and
grammar compilation."""

import functools
import itertools
import random
import re
from importlib import resources

import pytest

from lambrack.cfgkit import cfg, derives, language_upto
from lambrack.compiler import build_rulesets, compile_cfg, enum_types
from lambrack.harness import BUNDLED_GRAMMARS, run_equivalence
from lambrack.freegroup import IDENTITY, mul, word_of
from lambrack.prover import Prover, check, is_guarded, print_proof, prove
from lambrack.syntax import (
    L1STAR_DIA, LDIA, LDIA_M, LSTAR_DIA, UNIT, Grammar, Type, boxdown,
    bracket, calculus, dia, leaf, length, parse_grammar, parse_sequent, prim,
    print_type, sequent, under, yield_of,
)

P = prim("p")


def _bundled(name):
    path = resources.files("lambrack") / "grammars" / name
    return parse_grammar(path.read_text())


class TestEnumTypes:
    def test_single_primitive_m1(self):
        assert enum_types({"p"}, 1) == [P]

    def test_frozen_counts(self):
        assert len(enum_types({"p"}, 2)) == 4
        assert len(enum_types({"p"}, 3)) == 24
        assert len(enum_types({"p"}, 2, guarded=True)) == 5
        assert len(enum_types({"p"}, 3, guarded=True)) == 31
        assert len(enum_types({"s", "b"}, 3)) == 162

    def test_guarded_admits_unit_only_under_dia(self):
        out = enum_types({"p"}, 2, guarded=True)
        assert dia(UNIT) in out
        assert UNIT not in out
        assert all(is_guarded(t) for t in enum_types({"p"}, 4, guarded=True))

    def test_plain_is_unit_free(self):
        assert all(t.units == 0 for t in enum_types({"p", "q"}, 3))

    def test_bounds_order_and_uniqueness(self):
        out = enum_types({"p", "q"}, 3)
        assert all(1 <= length(t) <= 3 for t in out)
        assert len(set(out)) == len(out)
        assert out == sorted(out, key=lambda t: (length(t), print_type(t)))
        assert out == enum_types({"p", "q"}, 3)

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            enum_types({"p"}, 0)


def _plain_search(types, calc):
    """The unpruned cubic sweep, for cross-checking the bucketed one."""
    found = []
    widths = (0, 1, 2) if calc.unit else (1, 2)
    for n in widths:
        if n == 0:
            rows = [()]
        elif n == 1:
            rows = [(a,) for a in types]
        else:
            rows = [(a, b) for a in types for b in types]
        for row in rows:
            for c in types:
                s = sequent(tuple(leaf(t) for t in row), c)
                if prove(s, calc) is not None:
                    found.append(s)
    return found


def _reference_rulesets(prims, m, calc):
    """The rule base as built with a fresh memo per sequent.

    Every flat candidate, in the bucketed nested-loop order, and every
    bridge goes through ``prove``, which starts from an empty memo, so
    the build's shared ``Prover`` must reproduce these proofs exactly.
    Returns ``(flat, bridges)`` as lists of ``(sequent, proof)``.
    """
    calc = calculus(calc)
    types = enum_types(prims, m, guarded=calc.unit)
    buckets = {}
    for t in types:
        buckets.setdefault(word_of(t), []).append(t)
    flat = []
    for n in (0, 1, 2) if calc.unit else (1, 2):
        for row in itertools.product(types, repeat=n):
            w = IDENTITY
            for t in row:
                w = mul(w, word_of(t))
            for c in buckets.get(w, ()):
                s = sequent(tuple(leaf(t) for t in row), c)
                proof = prove(s, calc)
                if proof is not None:
                    flat.append((s, proof))
    short = [a for a in types if length(a) <= m - 2]
    bridges = [sequent((bracket(()),), dia(UNIT))] if calc.unit else []
    bridges += [sequent((bracket((leaf(a),)),), dia(a)) for a in short]
    bridges += [sequent((bracket((leaf(boxdown(a)),)),), a) for a in short]
    return flat, [(s, prove(s, calc)) for s in bridges]


@pytest.mark.parametrize("prims,m,calc", [
    ({"b", "s"}, 3, LDIA), ({"p"}, 3, LDIA), ({"b"}, 3, L1STAR_DIA),
])
def test_shared_prover_matches_fresh_memos(prims, m, calc):
    flat, bridges = _reference_rulesets(prims, m, calc)
    rs = build_rulesets(prims, m, calc)
    assert rs.flat_rules == tuple(s for s, _ in flat)
    assert rs.bridge_rules == tuple(s for s, _ in bridges)
    for s, proof in flat + bridges:
        assert print_proof(rs.proofs[s]) == print_proof(proof)


class TestBuildRulesets:
    def test_plain_m2(self):
        rs = build_rulesets({"p"}, 2, LDIA)
        assert len(rs.flat_rules) == 11
        assert rs.bridge_rules == ()
        assert parse_sequent("p p \\ p => p") in rs.flat_rules
        for s in rs.rules:
            proof = rs.proofs[s]
            assert proof.conclusion == s
            assert check(proof, LDIA)

    def test_bridges_need_room(self):
        rs = build_rulesets({"p"}, 3, LDIA)
        assert parse_sequent("[ p ] => dia p") in rs.bridge_rules
        assert parse_sequent("[ boxd p ] => p") in rs.bridge_rules
        assert len(rs.bridge_rules) == 2
        for s in rs.bridge_rules:
            assert check(rs.proofs[s], LDIA)

    def test_guarded_empty_bracket_axiom(self):
        rs = build_rulesets({"p"}, 1, L1STAR_DIA)
        assert rs.bridge_rules == (parse_sequent("[ ] => dia 1"),)
        rs2 = build_rulesets({"p"}, 2, L1STAR_DIA)
        assert parse_sequent("[ ] => dia 1") in rs2.bridge_rules
        assert parse_sequent("=> p / p") in rs2.flat_rules

    def test_matches_unpruned_search(self):
        for calc in (LDIA, L1STAR_DIA):
            rs = build_rulesets({"p"}, 2, calc)
            guarded = calc.unit
            types = enum_types({"p"}, 2, guarded=guarded)
            assert list(rs.flat_rules) == _plain_search(types, calc)

    def test_rejects_other_calculi(self):
        for calc in (LSTAR_DIA, LDIA_M, "L", "L1star"):
            with pytest.raises(ValueError):
                build_rulesets({"p"}, 2, calc)
        with pytest.raises(ValueError):
            build_rulesets({"p"}, 0, LDIA)

    def test_refuted_bridge_raises(self, monkeypatch):
        # under ``python -O`` an assert would let a bridge without a
        # proof into the rule base; the build must refuse it outright
        bridge = parse_sequent("[ p ] => dia p")

        class Refuting(Prover):
            def prove(self, s):
                return None if s == bridge else super().prove(s)

        monkeypatch.setattr("lambrack.compiler.Prover", Refuting)
        with pytest.raises(RuntimeError, match=re.escape("[ p ] => dia p")):
            build_rulesets({"p"}, 3, LDIA)
        with pytest.raises(RuntimeError, match=re.escape("[ p ] => dia p")):
            compile_cfg(_bundled("brackets.lg"), LDIA)


class TestCompileCfg:
    def test_two_letter_grammar(self):
        g = parse_grammar(
            "lexicon a : p\nlexicon b : p \\ d\ntarget : d\n")
        c = compile_cfg(g, LDIA)
        d = prim("d")
        assert c.start is d
        assert (d, (P, under(P, d))) in c.productions
        assert (P, ("a",)) in c.productions
        assert derives(c, d, ["a", "b"]) is not None
        assert derives(c, d, ["a"]) is None
        assert derives(c, d, ["b", "a"]) is None

    def test_starred_has_unit_epsilon(self):
        c = compile_cfg(_bundled("starred.lg"), LSTAR_DIA)
        assert (dia(UNIT), ()) in c.productions

    def test_plain_modal_productions(self):
        c = compile_cfg(_bundled("brackets.lg"), LDIA)
        assert (dia(P), (P,)) in c.productions
        assert (P, (boxdown(P),)) in c.productions

    def test_bundled_anbn(self):
        c = compile_cfg(_bundled("anbn.lg"), LDIA)
        assert len(c.nonterminals) == 53
        assert language_upto(c, 4) == {"a b", "a a b b"}

    def test_bundled_brackets(self):
        c = compile_cfg(_bundled("brackets.lg"), LDIA)
        assert len(c.nonterminals) == 13
        assert language_upto(c, 3) == {
            "a", "a c", "a c c", "b", "b c", "b c c"}

    def test_bundled_starred(self):
        c = compile_cfg(_bundled("starred.lg"), LSTAR_DIA)
        assert len(c.nonterminals) == 3
        assert language_upto(c, 2) == {"", "b", "b b"}
        assert derives(c, c.start, []) is not None

    def test_rejects_unit_types(self):
        # an indexed type lies outside the bounded enumeration too
        for t in (UNIT, dia(P, 1)):
            with pytest.raises(ValueError):
                compile_cfg(Grammar((("x", t),), P), LDIA)

    def test_rejects_other_calculi(self):
        g = _bundled("starred.lg")
        for calc in (L1STAR_DIA, LDIA_M, "L"):
            with pytest.raises(ValueError):
                compile_cfg(g, calc)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            compile_cfg(_bundled("anbn.lg"), LDIA, max_types=100)

    def test_flat_equivalence_smoke(self):
        # the lexicon is modality-free, so provable sequents are flat
        # rows and the categorial side reduces to the prover alone
        g = _bundled("anbn.lg")
        c = compile_cfg(g, LDIA)
        assert derives(c, c.start, []) is None
        for n in range(1, 4):
            for word in itertools.product(g.alphabet, repeat=n):
                rows = itertools.product(
                    *[g.types_of(letter) for letter in word])
                direct = any(
                    prove(sequent(tuple(map(leaf, row)),
                                  g.distinguished), LDIA) is not None
                    for row in rows)
                compiled = derives(c, c.start, list(word)) is not None
                assert direct == compiled, word


# ---------------------------------------------------------------------------
# Compiling by demand against the full construction


@functools.lru_cache(maxsize=None)
def _full_base(prims, m, calc):
    return build_rulesets(prims, m, calc)


def _filtered_full(g, calc):
    """The full construction's productions without the unusable ones.

    The full construction's CFG is every rule of ``build_rulesets``
    over all bounded types, brackets erased, then the lexicon; every
    production whose right-hand side holds a type that derives no
    string is removed from it (useless-symbol removal keeps the
    language).  Returns ``(kept productions, full CFG)``.
    """
    m = max(length(t) for t in [g.distinguished] + [t for _, t in g.lexicon])
    rs = _full_base(g.primitives(), m,
                    L1STAR_DIA if calculus(calc).starred else LDIA)
    prods = [(s.succedent, tuple(yield_of(s.antecedent))) for s in rs.rules]
    prods = list(dict.fromkeys(prods + [(t, (w,)) for w, t in g.lexicon]))
    generating = set()
    grew = True
    while grew:
        grew = False
        for lhs, rhs in prods:
            if lhs not in generating and all(
                    sym in generating for sym in rhs if isinstance(sym, Type)):
                generating.add(lhs)
                grew = True
    kept = [(lhs, rhs) for lhs, rhs in prods
            if all(sym in generating for sym in rhs if isinstance(sym, Type))]
    return kept, cfg(g.distinguished, prods)


@pytest.mark.parametrize("name,calc", BUNDLED_GRAMMARS)
def test_demand_compile_matches_filtered_full(name, calc):
    g = _bundled(name)
    kept, _ = _filtered_full(g, calc)
    assert list(compile_cfg(g, calc).productions) == kept


def test_demand_compile_proves_few_goals(monkeypatch):
    # the full construction asks 39,674 goals for anbn
    calls = []

    class Counting(Prover):
        def prove(self, s):
            calls.append(s)
            return super().prove(s)

    monkeypatch.setattr("lambrack.compiler.Prover", Counting)
    compile_cfg(_bundled("anbn.lg"), LDIA)
    assert len(calls) <= 1870


_ORACLE_TYPES = enum_types({"p", "q"}, 3)


def _subtypes(t):
    out = [t]
    for part in ("left", "right", "body"):
        if hasattr(t, part):
            out += _subtypes(getattr(t, part))
    return out


def _random_grammar(seed):
    """A seeded grammar over {p, q}: three words, each with a type of a
    uniformly drawn length up to 3, one more entry with a modal type so
    the bridges take part, one with a primitive type, and a target drawn
    from the lexicon's subtypes, so that most languages are non-empty."""
    rng = random.Random(seed)
    by_len = {n: [t for t in _ORACLE_TYPES if length(t) == n]
              for n in (1, 2, 3)}
    words = ("a", "b", "c")
    lexicon = [(w, rng.choice(by_len[rng.randint(1, 3)])) for w in words]
    lexicon.append((rng.choice(words),
                    rng.choice([t for t in _ORACLE_TYPES if t.mods])))
    lexicon.append((rng.choice(words), rng.choice(by_len[1])))
    subs = sorted({u for _, t in lexicon for u in _subtypes(t)},
                  key=print_type)
    return Grammar(tuple(dict.fromkeys(lexicon)), rng.choice(subs))


def test_random_grammar_oracle(tmp_path):
    non_empty = with_bridges = 0
    for seed in range(8):
        calc = LSTAR_DIA if seed % 2 else LDIA
        g = _random_grammar(seed)
        c = compile_cfg(g, calc)
        kept, full = _filtered_full(g, calc)
        assert list(c.productions) == kept, seed
        language = language_upto(c, 4)
        assert language == language_upto(full, 4), seed
        non_empty += bool(language)
        with_bridges += any(rhs and isinstance(rhs[0], Type) and (
            lhs == dia(rhs[0]) or rhs[0] == boxdown(lhs))
            for lhs, rhs in c.productions)
        path = tmp_path / f"oracle-{seed}.lg"
        path.write_text("".join(f"lexicon {w} : {print_type(t)}\n"
                                for w, t in g.lexicon)
                        + f"target : {print_type(g.distinguished)}\n")
        report = run_equivalence(str(path), calc, max_len=3)
        assert report.ok, (seed, report.reproducer)
    # seven of the eight languages are non-empty, and every compiled
    # grammar holds a bridge production
    assert non_empty >= 6
    assert with_bridges >= 6
