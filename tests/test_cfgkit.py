"""Tests for the grammar toolkit: CFG membership, bounded languages,
the text format, and derivability from a base set by Cut alone."""

import itertools
import random
import sys

import pytest

from lambrack import cfgkit, harness
from lambrack.cfgkit import (
    Cfg, CutBase, CutDerivation, Derivation, cfg, cut_derives, cut_leaf,
    cut_node, derives, language_upto, parse_cfg, print_cfg, replay_cuts,
)
from lambrack.cfgkit import replay_derivation
from lambrack.compiler import build_rulesets, compile_cfg
from lambrack.harness import BUNDLED_GRAMMARS, bundled_grammar
from lambrack.syntax import (
    HOLE, LDIA, UNIT, Bracket, Leaf, Type, bracket, bracket_addresses,
    children_at,
    dia, leaf, nodes, over, parse_sequent, parse_type, prim, print_sequent,
    print_type, replace_span, sequent, under,
)

P, Q, D = prim("p"), prim("q"), prim("d")
DU = dia(UNIT)


@pytest.fixture(scope="module")
def bundled_cfgs():
    """Each bundled grammar compiled once for the tests of this module."""
    return {name: compile_cfg(bundled_grammar(name), calc)
            for name, calc in BUNDLED_GRAMMARS}


def _fragment():
    """A start symbol that repeats one lexical type and then vanishes.

    The shape mirrors a compiled right-branching grammar: the start
    types rewrite one terminal's type at a time, and the diamond unit
    closes the chain off silently.
    """
    return cfg(D, [(D, (P, D)), (D, (DU,)), (DU, ()), (P, ("a",))])


class TestCfgConstruction:
    def test_symbol_inference(self):
        g = _fragment()
        assert g.start is D
        assert g.nonterminals == frozenset({D, P, DU})
        assert g.terminals == frozenset({"a"})

    def test_duplicates_dropped(self):
        g = cfg(D, [(D, ("a",)), (D, ("a",))])
        assert len(g.productions) == 1

    def test_unknown_start_rejected(self):
        with pytest.raises(ValueError):
            Cfg(frozenset({P}), frozenset(), D, ((P, ("a",)),))


class TestDerives:
    def test_zero_step(self):
        g = _fragment()
        d = derives(g, D, [D])
        assert d is not None and d.production is None
        assert d.fringe() == (D,)
        assert replay_derivation(d, g)

    def test_empty_string_through_unit(self):
        g = _fragment()
        d = derives(g, DU, [])
        assert d is not None
        assert d.production == (DU, ())
        assert d.fringe() == ()

    def test_start_derives_empty(self):
        g = _fragment()
        d = derives(g, D, [])
        assert d is not None and d.fringe() == ()
        assert replay_derivation(d, g)

    def test_terminal_strings(self):
        g = _fragment()
        for n in range(4):
            word = ["a"] * n
            d = derives(g, D, word)
            assert d is not None
            assert d.fringe() == tuple(word)
            assert replay_derivation(d, g)

    def test_sentential_forms(self):
        g = _fragment()
        assert derives(g, D, [P, P, DU]) is not None
        assert derives(g, D, ["a", P]) is not None
        assert derives(g, D, [P, "a"]) is not None

    def test_non_members(self):
        g = _fragment()
        assert derives(g, P, []) is None
        assert derives(g, DU, ["a"]) is None

    def test_unknown_symbol_rejected(self):
        g = _fragment()
        with pytest.raises(ValueError):
            derives(g, D, ["b"])
        with pytest.raises(ValueError):
            derives(g, prim("zz"), ["a"])

    def test_long_rules_and_unary_cycle(self):
        a, b, s = prim("a1"), prim("b1"), prim("s1")
        g = cfg(s, [
            (s, (a,)), (a, (b,)), (b, (s,)),
            (s, ("x", s, "y")),
            (s, ("z",)),
        ])
        assert derives(g, s, ["x", "z", "y"]) is not None
        assert derives(g, s, ["x", "x", "z", "y", "y"]) is not None
        assert derives(g, s, ["x", "z"]) is None
        assert derives(g, b, ["x", "z", "y"]) is not None
        assert language_upto(g, 3) == {"z", "x z y"}

    def test_recognizer_built_once(self, monkeypatch):
        built = []

        class Counting(cfgkit._Recognizer):
            def __init__(self, g):
                built.append((g.start, g.productions))
                super().__init__(g)

        monkeypatch.setattr(cfgkit, "_Recognizer", Counting)
        g = _fragment()
        queries = [(D, ["a"]), (D, []), (D, ["a", "a"]), (D, [P, D]),
                   (D, [DU]), (D, ["a"]), (P, ["a"]), (D, [D, P]),
                   (D, [DU, "a"])]
        for nt, toks in queries * 2:
            derives(g, nt, toks)
        # one build per (nonterminal, form nonterminals), none on repeats
        assert [start for start, _ in built] == [D, D, D, P]
        assert set(g._recognizers) == {
            (D, frozenset()), (D, frozenset({P, D})), (D, frozenset({DU})),
            (P, frozenset())}
        assert built[-1][1] == ((P, ("a",)),)

    def test_wrong_fringe_raises(self, monkeypatch):
        g = _fragment()
        wrong = derives(g, D, ["a"])
        monkeypatch.setattr(cfgkit._Recognizer, "rebuild",
                            lambda self, chart, i, j, sym, toks: wrong)
        with pytest.raises(RuntimeError, match="does not yield the form"):
            derives(g, D, ["a", "a"])

    @pytest.mark.parametrize("name,calc", BUNDLED_GRAMMARS)
    def test_reused_recognizer_matches_fresh(self, name, calc,
                                             bundled_cfgs):
        g = bundled_cfgs[name]
        members = [tuple(w.split()) for w in sorted(language_upto(g, 4))]
        near = {w + (t,) for w in members for t in sorted(g.terminals)}
        near |= {w[:-1] for w in members if w}
        near |= {w[1:] + w[:1] for w in members}
        assert len(near - set(members)) > 0
        for toks in members + sorted(near):
            expected = _untrimmed(cfgkit._Recognizer(g), g.start, toks)
            assert derives(g, g.start, toks) == expected
            if len(toks) <= 4:
                assert (expected is not None) == (toks in members)

    @pytest.mark.parametrize("name,useful", [
        ("anbn.lg", 109), ("brackets.lg", 23), ("starred.lg", 4)])
    def test_start_recognizer_indexes_useful_productions(self, name, useful,
                                                         bundled_cfgs):
        g = bundled_cfgs[name]
        derives(g, g.start, [])
        assert len(g._recognizers[(g.start, frozenset())].g.productions) \
            == useful

    @pytest.mark.parametrize("seed", range(5))
    def test_trimmed_matches_untrimmed_on_random_cfgs(self, seed):
        rng = random.Random(seed)
        g, extras = _random_cfg(rng)
        fresh = cfgkit._Recognizer(g)
        found = 0
        for extra in extras:
            alphabet = sorted(g.terminals) + list(extra)
            forms = [w for n in range(5)
                     for w in itertools.product(alphabet, repeat=n)]
            for nt in sorted(g.nonterminals, key=print_type):
                for toks in forms:
                    expected = _untrimmed(fresh, nt, toks)
                    assert derives(g, nt, toks) == expected, (nt, toks)
                    found += expected is not None
        assert found > 0
        assert any(len(rec.g.productions) < len(g.productions)
                   for rec in g._recognizers.values())


def _untrimmed(rec, nt, toks):
    """What ``derives`` answers, read off a recognizer of the whole
    grammar."""
    if not toks:
        return rec.null.get(nt)
    chart = rec.parse(toks)
    if nt not in chart[(0, len(toks))]:
        return None
    return rec.rebuild(chart, 0, len(toks), nt, toks)


_RANDOM_NTS = tuple(prim(f"n{i}") for i in range(6))


def _random_cfg(rng):
    """A small grammar over {a, b} with six nonterminals, and the form
    nonterminals to query it with.

    ``n0`` to ``n3`` get three or four random productions each, with
    right-hand sides of length 0 to 3 over the terminals, ``n0`` to
    ``n3`` and ``n5``; with that many, some strings have two
    derivations, and which one the recognizer returns depends on the
    order of the productions.  ``n4`` occurs in no right-hand side, so
    only a query from itself reaches it.  Every production of ``n5``
    mentions ``n5``, so it generates only where a form holds it.  The
    forms get one random nonterminal, then ``n5`` with another one.
    """
    nts = _RANDOM_NTS
    body = ("a", "b") + nts[:4] + nts[5:]
    prods = []
    for lhs in nts[:4]:
        for _ in range(rng.randint(3, 4)):
            prods.append((lhs, tuple(rng.choice(body)
                                     for _ in range(rng.randint(0, 3)))))
    for _ in range(2):
        prods.append((nts[4], tuple(rng.choice(body)
                                    for _ in range(rng.randint(0, 2)))))
        rhs = [rng.choice(body) for _ in range(rng.randint(0, 2))]
        rhs.insert(rng.randint(0, len(rhs)), nts[5])
        prods.append((nts[5], tuple(rhs)))
    rng.shuffle(prods)
    g = cfg(nts[0], prods + [(nts[0], ("a",))])
    extras = [(rng.choice(nts),),
              (nts[5], rng.choice(nts[:5]))]
    return g, extras


class _ChainRecognizer(cfgkit._Recognizer):
    """The chart recognizer ``derives`` used before each cell was closed
    by an agenda: a materialized, transitively closed table of unit
    chains, scanned in full for every cell, and every binary rule tried
    at every split.  Kept as the reference for chart symbol sets."""

    def __init__(self, g):
        super().__init__(g)
        unary = [key for key in self.efree if len(key[1]) == 1]
        self.binary = []     # (n, head, x, y, efree_key)
        for key in self.efree:
            lhs, rhs2 = key
            syn = [("#syn", key, t) for t in range(len(rhs2) - 2)]
            heads, tails = [lhs] + syn, syn + [rhs2[-1]]
            for t in range(len(rhs2) - 1):
                self.binary.append((len(self.binary), heads[t], rhs2[t],
                                    tails[t], key))
        self.chains = {}     # (a, b) -> tuple of unary efree keys, a =>+ b
        frontier = {}
        for key in unary:
            lhs, (sym,) = key
            if isinstance(sym, Type) and (lhs, sym) not in self.chains:
                self.chains[(lhs, sym)] = frontier[(lhs, sym)] = (key,)
        while frontier:
            new = {}
            for (a, b), chain in frontier.items():
                for key in unary:
                    lhs, (sym,) = key
                    if sym == a and isinstance(sym, Type):
                        pair = (lhs, b)
                        if pair not in self.chains and lhs != b:
                            self.chains[pair] = new[pair] = (key,) + chain
            frontier = new
        self.unary = unary

    def parse(self, tokens):
        n = len(tokens)
        chart = {}

        def close(cell):
            for (a, b), chain in self.chains.items():
                if b in cell and a not in cell:
                    cell[a] = ("chain", chain, b)

        for i, tok in enumerate(tokens):
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
                        if rule[1] not in cell and rule[2] in left \
                                and rule[3] in right:
                            cell[rule[1]] = ("bin", rule, k)
                close(cell)
                chart[(i, j)] = cell
        return chart


# unary cycles, an epsilon rule inside long right-hand sides, and
# terminals that only long rules consume
_CHAIN_GRAMMAR = (
    'start: "s1"\n'
    '"s1" -> "a1"\n"a1" -> "b1"\n"b1" -> "s1"\n"b1" -> "e1"\n'
    '"s1" -> x "s1" "e1" y "s1" z\n'
    '"e1" -> eps\n"e1" -> w\n'
    '"b1" -> x y z w\n"a1" -> x "e1" "e1" y\n'
    '"s1" -> v\n')


def _chart_forms(name, bundled_cfgs):
    """A grammar and sentential forms over it that mix terminals and
    nonterminals."""
    if name.startswith("random"):
        g, extras = _random_cfg(random.Random(int(name[len("random"):])))
        alphabet = dict.fromkeys(sorted(g.terminals) + [
            sym for extra in extras for sym in extra])
        return g, [w for n in range(1, 5)
                   for w in itertools.product(alphabet, repeat=n)]
    g = bundled_cfgs.get(name) or parse_cfg(_CHAIN_GRAMMAR)
    terms = sorted(g.terminals)
    forms = [w for n in range(1, 4) for w in itertools.product(terms,
                                                                repeat=n)]
    forms += [rhs for _, rhs in g.productions[::40] if rhs]
    forms += [(g.start,) + w for w in forms[:20]]
    return g, forms


@pytest.mark.parametrize("name", [n for n, _ in BUNDLED_GRAMMARS]
                         + ["chains"] + [f"random{i}" for i in range(10)])
def test_chart_matches_the_chain_closure(name, bundled_cfgs):
    # the agenda closure against the materialized chains it replaced:
    # the same symbols in every cell, and every derivation replays
    g, forms = _chart_forms(name, bundled_cfgs)
    rec, ref = cfgkit._Recognizer(g), _ChainRecognizer(g)
    derived = 0
    for toks in forms:
        got, want = rec.parse(toks), ref.parse(toks)
        assert list(got) == list(want)
        for span, cell in got.items():
            assert set(cell) == set(want[span]), (toks, span)
        d = derives(g, g.start, toks)
        if d is not None:
            derived += 1
            assert d.fringe() == toks and replay_derivation(d, g)
    assert derived > 0


def _bfs_language(g, n, cap=60000):
    """Breadth-first expansion of sentential forms, an independent check."""
    seen = {(g.start,)}
    queue = [(g.start,)]
    out = set()
    by_head = {}
    for lhs, rhs in g.productions:
        by_head.setdefault(lhs, []).append(rhs)
    while queue and len(seen) < cap:
        form = queue.pop(0)
        nts = [i for i, sym in enumerate(form) if sym in g.nonterminals]
        if not nts:
            if len(form) <= n:
                out.add(" ".join(form))
            continue
        i = nts[0]
        terminal_count = len(form) - len(nts)
        if terminal_count > n:
            continue
        for rhs in by_head.get(form[i], ()):
            new = form[:i] + rhs + form[i + 1:]
            if len(new) <= n + 4 and new not in seen:
                seen.add(new)
                queue.append(new)
    return out


class TestLanguageUpto:
    def test_fragment_language(self):
        g = _fragment()
        assert language_upto(g, 3) == {"", "a", "a a", "a a a"}

    def test_agrees_with_breadth_first(self):
        g = _fragment()
        for n in (0, 1, 2, 4):
            assert language_upto(g, n) == _bfs_language(g, n)

    def test_agrees_with_membership(self):
        # the fixpoint enumeration and the chart recognizer are
        # independent procedures and must accept the same strings
        rng = random.Random(11)
        nts = [prim(f"n{i}") for i in range(4)]
        for trial in range(40):
            prods = []
            for nt in nts:
                for _ in range(rng.randint(1, 3)):
                    r = rng.random()
                    if r < 0.2:
                        rhs = ()
                    elif r < 0.4:
                        rhs = (rng.choice("ab"),)
                    elif r < 0.6:
                        rhs = (rng.choice(nts),)
                    elif r < 0.8:
                        rhs = (rng.choice(nts), rng.choice(nts))
                    else:
                        rhs = tuple(
                            rng.choice(nts + ["a", "b"])
                            for _ in range(rng.randint(2, 3)))
                    prods.append((nt, rhs))
            g = cfg(nts[0], prods)
            lang = language_upto(g, 3)
            for k in range(4):
                for word in itertools.product("ab", repeat=k):
                    if not set(word) <= g.terminals:
                        assert " ".join(word) not in lang
                        continue
                    member = derives(g, g.start, list(word)) is not None
                    assert member == (" ".join(word) in lang), (
                        trial, word)


class TestTextFormat:
    def test_golden_text(self):
        g = _fragment()
        assert print_cfg(g) == (
            'start: "d"\n'
            '"d" -> "p" "d"\n'
            '"d" -> "dia 1"\n'
            '"dia 1" -> eps\n'
            '"p" -> a\n')

    def test_round_trip(self):
        g = _fragment()
        assert parse_cfg(print_cfg(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(5)
        nts = [prim("x"), under(P, Q), dia(P, 2)]
        for _ in range(20):
            prods = []
            for nt in nts:
                rhs = tuple(rng.choice(nts + ["tok", "w2"])
                            for _ in range(rng.randint(0, 2)))
                prods.append((nt, rhs))
            g = cfg(nts[0], prods)
            assert parse_cfg(print_cfg(g)) == g

    def test_unprintable_terminal_rejected(self):
        for term in ("w w", "", 'say"hi"', "eps"):
            g = cfg(P, [(P, (term,))])
            with pytest.raises(ValueError):
                print_cfg(g)

    def test_comments_and_blanks(self):
        text = '# generated\nstart: "p"\n\n"p" -> a\n# done\n'
        g = parse_cfg(text)
        assert g.start is P
        assert g.productions == ((P, ("a",)),)

    def test_missing_start_rejected(self):
        with pytest.raises(ValueError):
            parse_cfg('"p" -> a\n')

    def test_unquoted_head_rejected(self):
        with pytest.raises(ValueError):
            parse_cfg('start: "p"\np -> a\n')

    @pytest.mark.parametrize("text,message", [
        ('start: "s\n', "line 1: unterminated quote"),
        ('start: "p"\n"p" -> a "q\n', "line 2: unterminated quote"),
        ('start: "p"\n\n"p" a\n',
         "line 3: not a production line: '\"p\" a'"),
        ('start: "p"\nstart: "p"\n', "line 2: duplicate start line"),
        ('start: p\n', "line 1: the start symbol must be one quoted type"),
        ('start: "p" "q"\n',
         "line 1: the start symbol must be one quoted type"),
        ('start: "p"\np -> a\n',
         "line 2: a production head must be one quoted type"),
        ('start: "p"\n"p" "p" -> a\n',
         "line 2: a production head must be one quoted type"),
        ('# c\nstart: "p"\n"p" -> "(q"\n',
         "line 3: expected ')' (at position 2)"),
    ])
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_cfg(text)
        assert str(info.value) == message

    def test_quotes_inside_bare_tokens(self):
        g = parse_cfg('start: "p"\n"p" -> a"b "q"c\n"q" -> eps\n')
        assert g.productions == ((P, ('a"b', Q, "c")), (Q, ()))

    def test_each_quoted_text_parsed_once(self, monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return parse_type(text)

        monkeypatch.setattr(cfgkit, "parse_type", counting)
        g = parse_cfg('start: "p"\n"p" -> "q" "p"\n"q" -> "p" "p / q"\n'
                      '"p / q" -> a\n')
        assert sorted(texts) == ["p", "p / q", "q"]
        assert g.start is P

    @pytest.mark.parametrize("name,calc", BUNDLED_GRAMMARS)
    def test_round_trip_compiled(self, name, calc, bundled_cfgs):
        g = bundled_cfgs[name]
        assert parse_cfg(print_cfg(g)) == g


def _cut_base_simple():
    delta = parse_sequent("p p \\ p => p")
    via = sequent((bracket((leaf(P),)),), dia(P))
    mono = parse_sequent("dia p => dia p")
    return [delta, via, mono]


class TestCutDerives:
    def test_member_is_a_leaf(self):
        base = [parse_sequent("p => p"),
                sequent((bracket((leaf(P),)),), dia(P))]
        s = base[1]
        d = cut_derives(base, s)
        assert d is not None and d.is_leaf
        assert d.conclusion == s

    def test_bracket_composition(self):
        base = _cut_base_simple()
        s = sequent((bracket((leaf(P), leaf(under(P, P)))),), dia(P))
        d = cut_derives(base, s)
        assert d is not None
        assert d.conclusion == s
        assert d.cut_count() == 1
        assert replay_cuts(d, set(base))

    def test_underivable(self):
        base = _cut_base_simple()
        assert cut_derives(base, sequent((bracket((leaf(Q),)),),
                                         dia(P))) is None
        assert cut_derives(base, sequent((bracket((leaf(under(P, P)),)),),
                                         dia(P))) is None
        assert cut_derives(base, parse_sequent("p => q")) is None

    def test_flat_chain(self):
        base = [parse_sequent("p p \\ p => p"), parse_sequent("p => p")]
        s = parse_sequent("p p \\ p p \\ p p \\ p => p")
        d = cut_derives(base, s)
        assert d is not None and d.conclusion == s
        assert d.cut_count() == 2
        assert replay_cuts(d, set(base))

    def test_empty_antecedent_substitution(self):
        base = [sequent((), UNIT), parse_sequent("1 p => p")]
        s = parse_sequent("p => p")
        d = cut_derives(base, s)
        assert d is not None and d.conclusion == s
        assert replay_cuts(d, set(base))

    def test_same_span_closure(self):
        # a span rewrites to q, then again to d from q
        base = [parse_sequent("q => d"), parse_sequent("p => q")]
        s = parse_sequent("p => d")
        d = cut_derives(base, s)
        assert d is not None and d.conclusion == s and d.cut_count() == 1
        # "1 p => d" is tried at the span before p is found there, with
        # 1 covering the empty span in front of it
        base = [sequent((), UNIT), parse_sequent("1 p => d"),
                parse_sequent("q => p")]
        s = parse_sequent("q => d")
        d = cut_derives(base, s)
        assert d is not None and d.conclusion == s
        assert replay_cuts(d, set(base))

    def test_agrees_with_forward_closure(self):
        rng = random.Random(7)
        pool = [P, Q, under(P, Q), dia(P)]

        def rand_tree(depth):
            if depth == 0 or rng.random() < 0.6:
                return leaf(rng.choice(pool))
            return bracket(tuple(
                rand_tree(depth - 1) for _ in range(rng.randint(0, 2))))

        def rand_hedge(width):
            return tuple(rand_tree(1) for _ in range(width))

        for _ in range(25):
            base = list(dict.fromkeys(
                sequent(rand_hedge(rng.randint(0, 2)), rng.choice(pool))
                for _ in range(rng.randint(2, 4))))
            closure = _forward_closure(base, size_cap=8)
            goals = sorted(closure, key=print_sequent)[:8] + [
                sequent(rand_hedge(rng.randint(1, 3)), rng.choice(pool))
                for _ in range(8)]
            for s in goals:
                if _hedge_size(s.antecedent) > 6:
                    continue
                d = cut_derives(base, s)
                if d is None:
                    assert s not in closure
                else:
                    assert replay_cuts(d, set(base))
                    assert d.conclusion == s


class TestCutBase:
    def test_deduplicated_in_order_and_indexed(self):
        a, b, c = (parse_sequent("p p \\ p => p"), parse_sequent("p => p"),
                   sequent((bracket((leaf(P),)),), dia(P)))
        cb = CutBase([a, b, a, c, b])
        assert cb.rules == (a, b, c) and a in cb
        assert parse_sequent("q => q") not in cb

    def test_brackets_the_base_cannot_enter(self):
        base = [parse_sequent("q => p"), parse_sequent("[:1 p ]:1 => q"),
                parse_sequent("[:2 ]:2 => q"),
                parse_sequent("[:4 [:3 p ]:3 ]:4 => q")]
        for text, derivable in [("[:1 q ]:1 => q", True),
                                ("[:1 [:2 ]:2 ]:1 => q", True),
                                ("[:2 ]:2 => q", True),
                                ("[:4 [:3 q ]:3 ]:4 => q", True),
                                ("[:2 q ]:2 => q", False),
                                ("[:1 [:2 q ]:2 ]:1 => q", False),
                                ("[:1 [:3 q ]:3 ]:1 => q", False)]:
            s = parse_sequent(text)
            d = cut_derives(base, s)
            assert (d is not None) == derivable == \
                _reference_cut_derives(base, s), text
            assert d is None or replay_cuts(d, CutBase(base))

    def test_iterables_are_wrapped(self):
        base = _cut_base_simple()
        s = sequent((bracket((leaf(P), leaf(under(P, P)))),), dia(P))
        for given in (base, tuple(base), iter(base), CutBase(base)):
            d = cut_derives(given, s)
            assert d is not None and d.conclusion == s
            assert replay_cuts(d, CutBase(base))

    def test_unknown_succedent_refused_before_any_item(self, monkeypatch):
        monkeypatch.setattr(cfgkit._Recognizer, "parse", None)
        assert cut_derives(_cut_base_simple(), parse_sequent("p => q")) \
            is None

    @pytest.mark.parametrize("text", ["q p \\ p => p",
                                      "[:1 p ]:1 => p"])
    def test_unknown_symbols_refused_before_any_parse(self, monkeypatch,
                                                      text):
        # a leaf type, or a bracket token, that no base sequent has
        monkeypatch.setattr(cfgkit._Recognizer, "parse", None)
        assert cut_derives(_cut_base_simple(), parse_sequent(text)) is None


def _reference_cut_derives(base, s):
    """The fixpoint search ``cut_derives`` replaced, reduced to its
    verdict: every state of every span, re-scanned until a full pass
    changes nothing."""
    base_seqs = list(dict.fromkeys(base))
    by_succ = {}
    for b in base_seqs:
        by_succ.setdefault(b.succedent, []).append(b)
    goal_ante = s.antecedent
    parents = [()] + list(bracket_addresses(goal_ante))
    states = []
    for parent in parents:
        w = len(children_at(goal_ante, parent))
        for lo in range(w + 1):
            for hi in range(lo, w + 1):
                for e in by_succ:
                    states.append((parent, lo, hi, e))
    table = {}

    def match_hedge(trees, parent, lo, hi):
        sibs = children_at(goal_ante, parent)

        def go(ti, pos):
            if ti == len(trees):
                return pos == hi
            tr = trees[ti]
            if isinstance(tr, Bracket):
                return (pos < hi and isinstance(sibs[pos], Bracket)
                        and sibs[pos].index == tr.index
                        and match_hedge(tr.children, parent + (pos,), 0,
                                        len(sibs[pos].children))
                        and go(ti + 1, pos + 1))
            f = tr.type
            if (pos < hi and isinstance(sibs[pos], Leaf)
                    and sibs[pos].type is f and go(ti + 1, pos + 1)):
                return True
            return any((parent, pos, end, f) in table and go(ti + 1, end)
                       for end in range(pos, hi + 1))

        return go(0, lo)

    changed = True
    while changed:
        changed = False
        for state in states:
            if state in table:
                continue
            parent, lo, hi, e = state
            for b in by_succ[e]:
                if match_hedge(b.antecedent, parent, lo, hi):
                    table[state] = b
                    changed = True
                    break
    return ((), 0, len(goal_ante), s.succedent) in table


def _criterion_6_goals(monkeypatch, stride=500):
    """Every (base, goal) that criterion 6 at ``stride`` hands to
    ``cut_derives``."""
    goals = []
    monkeypatch.setattr(harness, "cut_derives",
                        lambda base, s: goals.append((base, s)))
    harness.run_cut_completeness(sample_stride=stride)
    monkeypatch.undo()
    return goals


def _bracketed_goals(n):
    """Goals over {p} with types of length at most 3: application chains
    whose head may be a box-down leaf in its bracket, under a bracket
    when the goal is a diamond; every odd one has two neighbours
    swapped."""
    rng = random.Random(8)
    out = []
    for i in range(n):
        trees = ([rng.choice(("p", "[ boxd p ]"))] + ["(p \\ p)"] * (i % 4))
        if rng.random() < 0.5:
            trees.insert(0, "(p / p)")
        if i % 2 == 1 and len(trees) > 1:
            j = rng.randrange(len(trees) - 1)
            trees[j:j + 2] = reversed(trees[j:j + 2])
        if rng.random() < 0.5:
            out.append(parse_sequent(f"[ {' '.join(trees)} ] => dia p"))
        else:
            out.append(parse_sequent(f"{' '.join(trees)} => p"))
    return out


class TestCutDerivesDifferential:
    """The indexed item search against the fixpoint it replaced."""

    def _agree(self, base, goals):
        derivable = 0
        for s in goals:
            d = cut_derives(base, s)
            assert (d is not None) == _reference_cut_derives(base.rules, s), \
                print_sequent(s)
            if d is not None:
                derivable += 1
                assert d.conclusion == s
                assert replay_cuts(d, base)
        return derivable

    def test_criterion_6_goals(self, monkeypatch):
        goals = _criterion_6_goals(monkeypatch)
        assert len(goals) == 3050
        bases = {id(base): base for base, _ in goals}
        assert len(bases) == 2
        assert all(isinstance(b, CutBase) for b in bases.values())
        derivable = sum(self._agree(base, [s for b, s in goals if b is base])
                        for base in bases.values())
        assert derivable == 90

    def test_bracketed_goals_over_a_larger_base(self):
        base = CutBase(build_rulesets({"p"}, 3, LDIA).rules)
        derivable = self._agree(base, _bracketed_goals(60))
        assert 0 < derivable < 60


def _item_cut_derivable(rules, s):
    """The deductive item parser ``cut_derives`` used before it parsed
    with the chart recognizer, reduced to its verdict.

    An item ``(parent, lo, hi, E)`` says that the children ``lo:hi``
    under the bracket at ``parent`` rewrite to ``E``.  Items are filled
    innermost bracket first and narrowest span first; a span tries the
    rules whose first tree can start at ``lo``, then closes itself from
    an agenda of its new types over the rules whose antecedent is a row
    of leaves with that type."""
    rules = list(dict.fromkeys(rules))

    def first_key(tr):
        return tr.type if isinstance(tr, Leaf) else ("bracket", tr.index)

    by_succedent, by_first, by_leaf, empty = {}, {}, {}, []
    inner_indices = set()
    for r in rules:
        ante = r.antecedent
        inner_indices.update(tr.index for _, _, tr, _ in nodes(ante)
                             if isinstance(tr, Bracket) and tr.children)
        by_succedent.setdefault(r.succedent, []).append(r)
        if not ante:
            empty.append(r)
            continue
        by_first.setdefault(first_key(ante[0]), []).append(r)
        if all(isinstance(tr, Leaf) for tr in ante):
            for t in dict.fromkeys(tr.type for tr in ante):
                by_leaf.setdefault(t, []).append(r)
    if s.succedent not in by_succedent:
        return False
    goal_ante = s.antecedent
    sibs_at = {(): goal_ante}
    for addr in bracket_addresses(goal_ante):
        if addr[:-1] in sibs_at:
            tr = sibs_at[addr[:-1]][addr[-1]]
            if tr.index in inner_indices:
                sibs_at[addr] = tr.children
    table = set()
    ends = {}    # (parent, start) -> {type: ascending ends of its items}

    def match(trees, ti, parent, pos, hi):
        if ti == len(trees):
            return pos == hi
        tr = trees[ti]
        sibs = sibs_at[parent]
        if isinstance(tr, Bracket):
            return (pos < hi and isinstance(sibs[pos], Bracket)
                    and sibs[pos].index == tr.index
                    and match(tr.children, 0, parent + (pos,), 0,
                              len(sibs[pos].children))
                    and match(trees, ti + 1, parent, pos + 1, hi))
        f = tr.type
        if (pos < hi and isinstance(sibs[pos], Leaf) and sibs[pos].type is f
                and match(trees, ti + 1, parent, pos + 1, hi)):
            return True
        return any(match(trees, ti + 1, parent, end, hi)
                   for end in ends[(parent, pos)].get(f, ()) if end <= hi)

    for parent in reversed(list(sibs_at)):
        sibs = sibs_at[parent]
        n = len(sibs)
        for width in range(n + 1):
            for lo in range(n - width + 1):
                hi = lo + width
                from_lo = ends.setdefault((parent, lo), {})
                starts = dict.fromkeys(from_lo)
                if lo < hi:
                    starts[first_key(sibs[lo])] = None
                candidates = [by_first.get(k, ()) for k in starts]
                if lo == hi:
                    candidates.append(empty)
                agenda = []
                todo = itertools.chain.from_iterable(candidates)
                while True:
                    for b in todo:
                        item = (parent, lo, hi, b.succedent)
                        if item not in table and match(b.antecedent, 0,
                                                       parent, lo, hi):
                            table.add(item)
                            from_lo.setdefault(b.succedent, []).append(hi)
                            agenda.append(b.succedent)
                    if not agenda:
                        break
                    todo = by_leaf.get(agenda.pop(), ())
    return ((), 0, len(goal_ante), s.succedent) in table


def _random_bracketed(rng, n_bases, n_goals):
    """``(base, goals)`` pairs over {p, q}: in each, every bracket and
    diamond is plain, or every one carries an index 1 or 2.  Bases have
    empty antecedents, empty brackets and brackets inside brackets; the
    goals are members of the base's Cut closure and random hedges."""
    out = []
    for trial in range(n_bases):
        indices = (None,) if trial % 2 else (1, 2)
        pool = [P, Q, under(P, Q), over(Q, P)] + [dia(P, i) for i in indices]

        def tree(depth):
            if depth == 0 or rng.random() < 0.6:
                return leaf(rng.choice(pool))
            return bracket([tree(depth - 1)
                            for _ in range(rng.randint(0, 2))],
                           rng.choice(indices))

        def hedge(width, depth):
            return tuple(tree(depth) for _ in range(width))

        base = list(dict.fromkeys(
            sequent(hedge(rng.randint(0, 2), 2), rng.choice(pool))
            for _ in range(rng.randint(2, 5))))
        closure = _forward_closure(base, size_cap=7, rounds=4)
        goals = rng.sample(sorted(closure, key=print_sequent),
                           min(n_goals, len(closure)))
        goals += [sequent(hedge(rng.randint(0, 3), 2), rng.choice(pool))
                  for _ in range(n_goals)]
        out.append((base, goals))
    return out


class TestCutDerivesAgainstItemParser:
    """The chart parse against the deductive item parser it replaced."""

    def _agree(self, base, goals):
        derivable = 0
        for s in goals:
            d = cut_derives(base, s)
            assert (d is not None) == _item_cut_derivable(base.rules, s), \
                print_sequent(s)
            if d is not None:
                derivable += 1
                assert d.conclusion == s
                assert replay_cuts(d, base)
        return derivable

    def test_criterion_6_candidates(self, monkeypatch):
        goals = _criterion_6_goals(monkeypatch, stride=50)
        assert len(goals) == 780 + 12159
        bases = {id(base): base for base, _ in goals}
        derivable = sum(self._agree(base, [s for b, s in goals if b is base])
                        for base in bases.values())
        assert derivable == 90

    def test_cut_goal_shapes(self):
        base = CutBase(build_rulesets({"p"}, 3, LDIA).rules)
        derivable = self._agree(base, _bracketed_goals(300))
        assert 0 < derivable < 300

    def test_random_bracketed_bases(self):
        derivable = total = 0
        for base, goals in _random_bracketed(random.Random(25), 600, 12):
            derivable += self._agree(CutBase(base), goals)
            total += len(goals)
        assert 0 < derivable < total


def _tree_size(tr):
    if hasattr(tr, "type"):
        return 1
    return 1 + sum(_tree_size(c) for c in tr.children)


def _hedge_size(h):
    return sum(_tree_size(tr) for tr in h)


def _leaf_addresses(h):
    out = []

    def walk(trees, prefix):
        for i, tr in enumerate(trees):
            if hasattr(tr, "type"):
                out.append((prefix, i, tr.type))
            else:
                walk(tr.children, prefix + (i,))

    walk(h, ())
    return out


def _forward_closure(base, size_cap, rounds=6):
    """Cut-closure by blind saturation, for cross-checking.

    Semi-naive: each round cuts only pairs with a member new in the
    last round, since every pair of older members was cut before.  A
    cut replaces one leaf of the right sequent by the left one's
    antecedent, so the candidate's size is known before it is built.
    """
    closure, fresh = set(), set(base)
    size, by_succedent = {}, {}
    for _ in range(rounds):
        closure |= fresh
        fresh_by_succedent = {}
        for s in fresh:
            size[s] = n = _hedge_size(s.antecedent)
            by_succedent.setdefault(s.succedent, []).append((n, s))
            fresh_by_succedent.setdefault(s.succedent, []).append((n, s))
        for lefts in (*by_succedent.values(), *fresh_by_succedent.values()):
            lefts.sort(key=lambda item: item[0])
        new = set()
        for right in closure:
            room = size_cap + 1 - size[right]
            lefts = by_succedent if right in fresh else fresh_by_succedent
            for path, i, t in _leaf_addresses(right.antecedent):
                for n, left in lefts.get(t, ()):
                    if n > room:
                        break
                    cand = sequent(replace_span(right.antecedent, path, i,
                                                i + 1, left.antecedent),
                                   right.succedent)
                    if cand not in closure:
                        new.add(cand)
        if not new:
            break
        fresh = new
    return closure


class TestCutNodes:
    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cut_node(cut_leaf(parse_sequent("p => p")),
                     cut_leaf(parse_sequent("q => q")), (HOLE,))

    def test_replay_catches_tampering(self):
        good = cut_node(cut_leaf(parse_sequent("p p \\ p => p")),
                        cut_leaf(parse_sequent("p => p")), (HOLE,))
        assert replay_cuts(good)
        bad = CutDerivation(parse_sequent("q => q"), good.left, good.right,
                            good.position)
        assert not replay_cuts(bad)

    def test_leaf_base_check(self):
        d = cut_leaf(parse_sequent("p => p"))
        assert replay_cuts(d)
        assert replay_cuts(d, {parse_sequent("p => p")})
        assert not replay_cuts(d, {parse_sequent("q => q")})


class TestDeepDerivations:
    N = 1500

    def test_cut_chain(self):
        # q => p0, then p_k => p_k+1 cut in below, 1500 times
        assert self.N > sys.getrecursionlimit()
        ps = [prim(f"p{k}") for k in range(self.N + 1)]
        base = [sequent((leaf(Q),), ps[0])] + [
            sequent((leaf(ps[k]),), ps[k + 1]) for k in range(self.N)]
        d = cut_leaf(base[0])
        for b in base[1:]:
            d = cut_node(d, cut_leaf(b), (HOLE,))
        assert d.conclusion == sequent((leaf(Q),), ps[-1])
        assert list(d.leaves()) == base
        assert d.cut_count() == self.N
        assert replay_cuts(d, CutBase(base))
        assert not replay_cuts(d, CutBase(base[1:]))
        found = cut_derives(base, d.conclusion)
        assert found.conclusion == d.conclusion
        assert found.cut_count() == self.N
        assert replay_cuts(found, CutBase(base))

    def test_unit_chain_as_a_grammar(self):
        # p_k+1 -> p_k, 1500 times, then p0 -> q
        ps = [prim(f"p{k}") for k in range(self.N + 1)]
        g = cfg(ps[-1], [(ps[0], (Q,))] + [
            (ps[k + 1], (ps[k],)) for k in range(self.N)])
        d = derives(g, ps[-1], [Q])
        assert d.fringe() == (Q,) and replay_derivation(d, g)
        steps = 0
        while d.production is not None:
            (d,) = d.children
            steps += 1
        assert steps == self.N + 1 and d.symbol is Q
        assert derives(g, ps[-1], [Q, Q]) is None

    def test_grammar_derivation_chain(self):
        # S -> a S, 1500 times, then S -> b
        g = cfg(P, [(P, ("a", P)), (P, ("b",))])
        d = Derivation(P, (P, ("b",)), (Derivation("b"),))
        for _ in range(self.N):
            d = Derivation(P, (P, ("a", P)), (Derivation("a"), d))
        assert d.fringe() == ("a",) * self.N + ("b",)
        assert replay_derivation(d, g)
        bad = cfg(P, [(P, ("a", P)), (P, ("c",))])
        assert not replay_derivation(d, bad)
