"""Tests for the object language: parsing, printing, measures, structure."""

import re
import sys
from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from lambrack.interpolate import _thin_rebuild
from lambrack.prover import print_proof, prove
from lambrack.syntax import (
    HOLE, L1STAR_DIA_M, LDIA, LDIA_M, L, L1STAR, LSTAR_DIA,
    Bracket, BoxDown, Dia, Leaf, Over, Prim, Prod, UNIT, Under,
    ParseError, Sequent, Type, boxdown, bracket, bracket_addresses,
    calculus, children_at, deindex, dia, hole_coords, is_flat, is_thin,
    _counts_of, leaf, length, mod_total, nodes, over, parse_context,
    parse_grammar, parse_hedge,
    parse_sequent, parse_type, partitions, plug, prim,
    prim_count, prim_counts, print_hedge, print_sequent, print_tree,
    print_type, prod, replace_span, sequent, span_partition, subtree,
    under, unit_count, validate_sequent, yield_of,
)

p, q = prim("p"), prim("q")


# --- parsing and printing ---------------------------------------------------

def test_parse_atom():
    assert parse_type("p") is p
    assert parse_type("1") is UNIT


def test_parse_prefix_chain():
    t = parse_type("boxd dia dia p")
    assert t is boxdown(dia(dia(p)))


def test_parse_ai_member():
    t = parse_type("(1/q) \\ 1")
    assert t is under(over(UNIT, q), UNIT)


def test_parse_indexed():
    t = parse_type("dia:1 (p1 * dia:2 1)")
    assert t is dia(prod(prim("p1"), dia(UNIT, 2)), 1)
    assert t.mode == "indexed"


def test_parse_no_space_punctuation():
    t = parse_type("p3/dia:1(p1 * dia:2(p2/p2))")
    expected = over(prim("p3"),
                    dia(prod(prim("p1"), dia(over(prim("p2"), prim("p2")), 2)), 1))
    assert t is expected


def test_nested_binaries_need_parens():
    with pytest.raises(ParseError):
        parse_type("p \\ q \\ p")
    with pytest.raises(ParseError):
        parse_type("p / q * p")


def test_mixed_indexing_rejected():
    with pytest.raises(ValueError):
        parse_type("dia:1 dia p")
    with pytest.raises(ValueError):
        parse_sequent("[ p ] => dia:1 p")


def test_parse_sequent_golden():
    s = parse_sequent("[ [ p ] dia p \\ p ] => boxd dia dia p")
    inner = bracket((leaf(p),))
    outer = bracket((inner, leaf(under(dia(p), p))))
    assert s == sequent((outer,), boxdown(dia(dia(p))))


def test_parse_sequent_axiom():
    s = parse_sequent("p => p")
    assert s == sequent((leaf(p),), p)


def test_parse_sequent_indexed_empty_bracket():
    s = parse_sequent("[:1 p1 [:2 ]:2 ]:1 => dia:1 (p1 * dia:2 1)")
    tree = bracket((leaf(prim("p1")), bracket((), 2)), 1)
    assert s.antecedent == (tree,)
    assert s.succedent is dia(prod(prim("p1"), dia(UNIT, 2)), 1)


def test_parse_empty_antecedent():
    s = parse_sequent("=> p \\ p")
    assert s.antecedent == ()
    assert print_sequent(s) == "=> p \\ p"


def test_bracket_index_mismatch():
    with pytest.raises(ParseError):
        parse_hedge("[:1 p ]:2")
    with pytest.raises(ParseError):
        parse_hedge("[:1 p ]")


def test_hole_rejected_outside_context():
    with pytest.raises(ParseError):
        parse_sequent("p _ => p")
    with pytest.raises(ParseError):
        parse_hedge("_")


def test_parse_context():
    ctx = parse_context("p3/dia:1(p1 * dia:2(p2/p2)) _")
    assert len(ctx) == 2 and ctx[1] is HOLE
    with pytest.raises(ParseError):
        parse_context("p q")
    with pytest.raises(ParseError):
        parse_context("_ _")


def test_print_round_trip_golden():
    for text in [
        "p => p",
        "[ [ p ] dia p \\ p ] => boxd dia dia p",
        "[:1 p1 [:2 ]:2 ]:1 => dia:1 (p1 * dia:2 1)",
        "dia boxd p dia boxd q => dia boxd (p * q)",
        "(1/1) 1/q q (1 \\ 1) => 1",
        "=> dia (p \\ p)",
    ]:
        s = parse_sequent(text)
        assert parse_sequent(print_sequent(s)) == s


def test_print_empty_bracket():
    assert print_tree(bracket(())) == "[ ]"
    assert print_tree(bracket((), 2)) == "[:2 ]:2"


def test_print_minimal_parens():
    assert print_type(under(over(UNIT, q), UNIT)) == "(1 / q) \\ 1"
    assert print_type(dia(prod(p, q))) == "dia (p * q)"
    assert print_type(under(dia(p), p)) == "dia p \\ p"
    assert print_type(prod(prim("m"), prod(p, prim("n")))) == "m * (p * n)"


# random types: parse . print is the identity

def _types(draw_depth=3):
    base = st.sampled_from([p, q, UNIT])
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.builds(under, children, children),
            st.builds(over, children, children),
            st.builds(prod, children, children),
            st.builds(dia, children),
            st.builds(boxdown, children),
        ),
        max_leaves=8,
    )


@settings(derandomize=True, max_examples=200)
@given(_types())
def test_type_round_trip(t):
    assert parse_type(print_type(t)) is t


@settings(derandomize=True, max_examples=200)
@given(_types())
def test_length_decomposition(t):
    assert length(t) == sum(prim_counts(t).values()) + 2 * mod_total(t)


def test_leaves_are_interned_per_type():
    t = under(p, dia(q))
    assert leaf(t) is leaf(t)
    assert leaf(t) != leaf(p)
    text = "[ p p \\ dia q ] dia q => p * dia q"
    first, second = parse_sequent(text), parse_sequent(text)
    for s in (first, second):
        got = s.antecedent[0].children + s.antecedent[1:]
        assert list(map(id, got)) == [id(leaf(x)) for x in (p, t, dia(q))]
    assert first == second and first is not second


# --- measures ---------------------------------------------------------------

def test_length_examples():
    assert length(p) == 1
    assert length(dia(UNIT)) == 2
    assert length(parse_type("(1/q) \\ 1")) == 1
    assert length(boxdown(dia(dia(p)))) == 7


def test_prim_count_examples():
    assert prim_count("p1", parse_type("dia:1 p1 \\ p2")) == 1
    assert prim_count("p2", parse_type("dia:1 p1 \\ p2")) == 1
    assert prim_count("q", parse_type("dia:1 p1 \\ p2")) == 0


INDEXED_GOLDEN = "[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2"


def test_mod_count_examples():
    s = parse_sequent(INDEXED_GOLDEN)
    counts = _counts_of(s)[1]
    assert counts[2] == 2
    assert counts[1] == 2
    assert counts[3] == 2
    assert counts[5] == 0


def test_counts_tables():
    s = parse_sequent(INDEXED_GOLDEN)
    assert prim_counts(s) == Counter({"p1": 2, "p2": 2})
    assert _counts_of(s)[1] == Counter({1: 2, 2: 2, 3: 2})


def _ref_counts(x):
    """Primitive and modality-index counters by the replaced per-tree
    recursion, which summed each bracket's children."""
    if isinstance(x, Sequent):
        prims, mods = _ref_counts(x.antecedent)
        return prims + x.succedent.prims, mods + x.succedent.mods
    if isinstance(x, tuple):
        prims, mods = Counter(), Counter()
        for tr in x:
            a, b = _ref_counts(tr)
            prims.update(a)
            mods.update(b)
        return prims, mods
    if isinstance(x, Leaf):
        x = x.type
    if isinstance(x, Type):
        return Counter(x.prims), Counter(x.mods)
    if x is HOLE:
        return Counter(), Counter()
    prims, mods = _ref_counts(x.children)
    mods[x.index] += 1
    return prims, mods


def test_counts_match_the_replaced_recursion(interp_population):
    # every node conclusion of the population and of the thin forms of
    # every 4th proof, with its hedges, trees, types and one context per
    # bracket level
    proofs = [pf for _, pf in interp_population]
    proofs += [_thin_rebuild(pf)[0] for pf in proofs[::4]]
    seen, stack, compared = set(), list(proofs), 0
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        s = node.conclusion
        if s in seen:
            continue
        seen.add(s)
        items = [s, s.antecedent, s.succedent]
        items += [tr for _, _, tr, _ in nodes(s.antecedent)]
        items += [span_partition(s.antecedent, parent, 0, 1)[0]
                  for parent in [()] + bracket_addresses(s.antecedent)
                  if children_at(s.antecedent, parent)]
        for x in items:
            prims, mods = _ref_counts(x)
            assert (prim_counts(x), _counts_of(x)[1]) == (prims, mods), x
            assert mod_total(x) == sum(mods.values())
            assert all(prim_count(name, x) == n
                       for name, n in prims.items())
            compared += 1
        if s.mode != "plain":
            prims, mods = _ref_counts(s)
            assert is_thin(s) == all(
                v <= 2 for v in (prims + mods).values())
    assert compared > 15000


def test_counts_of_a_deep_nest():
    # deeper than the recursion limit: the counts walk with ``nodes``
    n = 2000
    assert n > sys.getrecursionlimit()
    h, plain = (leaf(p),), (leaf(p),)
    for i in range(1, n + 1):
        h, plain = (bracket(h, i),), (bracket(plain),)
    s = sequent(h, p)
    assert prim_counts(s) == Counter({"p": 2})
    assert prim_count("p", h[0]) == 1
    assert _counts_of(h)[1] == Counter(range(1, n + 1))
    assert mod_total(s) == n and mod_total(plain) == n
    assert _counts_of(plain[0])[1] == Counter({None: n})
    assert is_thin(s)


def test_is_thin():
    assert is_thin(parse_sequent(INDEXED_GOLDEN))
    assert not is_thin(parse_sequent("p1 p1 p1 => p1"))
    assert not is_thin(parse_sequent("dia:1 p1 dia:1 p1 dia:1 p1 => p2"))
    with pytest.raises(ValueError):
        is_thin(parse_sequent("dia p => dia p"))


def test_unit_count():
    assert unit_count(parse_type("(1/1) \\ (q * 1)")) == 3
    assert unit_count(parse_sequent("p => p")) == 0


# --- structure --------------------------------------------------------------

def test_plug_trivial():
    h = parse_hedge("p q")
    assert plug((HOLE,), h) == h


def test_plug_splice():
    ctx = parse_context("[ _ q ]")
    filled = plug(ctx, parse_hedge("p p"))
    assert filled == parse_hedge("[ p p q ]")


def test_plug_empty_filling():
    ctx = parse_context("[ _ q ]")
    assert plug(ctx, ()) == parse_hedge("[ q ]")


def test_plug_composition():
    outer = parse_context("p [ _ ] q")
    inner = parse_context("[ p _ ]")
    d = parse_hedge("q q")
    assert plug(outer, plug(inner, d)) == plug(plug(outer, inner), d)


def test_yield_of():
    h = parse_hedge("[ [ p ] dia p \\ p ]")
    assert yield_of(h) == [p, under(dia(p), p)]
    assert yield_of(()) == []


def test_yield_plug_decomposition():
    ctx = parse_context("p [ _ q ]")
    d = parse_hedge("[ q ] p")
    pre = yield_of(plug(ctx, ()))
    # the hole splits the context yield at the hole's leaf position
    full = yield_of(plug(ctx, d))
    assert full == [p] + yield_of(d) + [q]
    assert pre == [p, q]


def test_addresses_and_spans():
    h = parse_hedge("p [ q [ p ] ] q")
    assert bracket_addresses(h) == [(1,), (1, 1)]
    assert subtree(h, (1, 1)) == bracket((leaf(p),))
    assert children_at(h, (1,)) == (leaf(q), bracket((leaf(p),)))
    ctx, sel = span_partition(h, (1,), 0, 1)
    assert sel == (leaf(q),)
    assert plug(ctx, sel) == h
    assert hole_coords(ctx) == ((1,), 0)
    swapped = replace_span(h, (), 0, 1, (leaf(q),))
    assert swapped == parse_hedge("q [ q [ p ] ] q")


def test_deeper_than_the_recursion_limit():
    # 2000 brackets, each the only child of the next, built directly
    n = 2000
    assert n > sys.getrecursionlimit()
    h, context = (leaf(prim("p")),), (HOLE,)
    for _ in range(n):
        h, context = (bracket(h),), (bracket(context),)
    assert bracket_addresses(h) == [(0,) * k for k in range(1, n + 1)]
    assert yield_of(h) == [prim("p")]
    assert hole_coords(context) == ((0,) * n, 0)


def test_partitions_cover_all_spans():
    h = parse_hedge("p [ q ]")
    spans = set(partitions(h))
    assert ((), 0, 1) in spans and ((), 0, 2) in spans and ((1,), 0, 1) in spans
    assert all(s < e for _, s, e in spans)
    with_empty = set(partitions(h, include_empty=True))
    assert ((), 2, 2) in with_empty and ((1,), 1, 1) in with_empty
    for parent, s, e in with_empty:
        ctx, sel = span_partition(h, parent, s, e)
        assert plug(ctx, sel) == h


# --- deindex ----------------------------------------------------------------

def test_deindex_golden():
    s = parse_sequent(INDEXED_GOLDEN)
    plain = deindex(s, {"p1": "p", "p2": "p"})
    assert plain == parse_sequent("[ [ p ] dia p \\ p ] => boxd dia dia p")


def test_deindex_trivial():
    assert deindex(parse_sequent("p1 => p1"), {"p1": "q"}) == parse_sequent("q => q")
    assert (deindex(parse_sequent("dia:7 p3 => dia:7 p3"), {"p3": "p"})
            == parse_sequent("dia p => dia p"))


# --- calculi and validation -------------------------------------------------

def test_calculus_lookup():
    assert calculus("Ldia") is LDIA
    assert calculus(LDIA) is LDIA
    with pytest.raises(ValueError):
        calculus("nope")


def test_validate_indexing():
    s = parse_sequent(INDEXED_GOLDEN)
    validate_sequent(s, LDIA_M)
    with pytest.raises(ValueError):
        validate_sequent(s, LDIA)
    plain = parse_sequent("dia p => dia p")
    validate_sequent(plain, LDIA)
    with pytest.raises(ValueError):
        validate_sequent(plain, LDIA_M)
    # no modalities at all: fine in both
    validate_sequent(parse_sequent("p => p"), LDIA)
    validate_sequent(parse_sequent("p => p"), LDIA_M)


def test_validate_unit_and_brackets():
    with pytest.raises(ValueError):
        validate_sequent(parse_sequent("1 => 1"), LDIA)
    validate_sequent(parse_sequent("1 => 1"), L1STAR)
    for text, what in (("[ p ] => dia p", "brackets"),
                       ("[ p ] => p", "brackets"),
                       ("dia p => dia p", "modalities"),
                       ("p => boxd p", "modalities")):
        with pytest.raises(ValueError, match=f"L does not allow {what}"):
            validate_sequent(parse_sequent(text), L)


def test_validate_starred():
    empty = parse_sequent("=> p \\ p")
    with pytest.raises(ValueError):
        validate_sequent(empty, LDIA)
    validate_sequent(empty, LSTAR_DIA)
    eb = parse_sequent("[ ] => dia (p \\ p)")
    with pytest.raises(ValueError):
        validate_sequent(eb, LDIA)
    validate_sequent(eb, LSTAR_DIA)


def test_sequent_rejects_hole():
    with pytest.raises(ValueError):
        sequent((HOLE,), p)


# --- grammar files ----------------------------------------------------------

GRAMMAR_TEXT = """
# a toy grammar
lexicon a : s / b
lexicon a : (s/b) / s
lexicon b : b
target : s
"""


def test_parse_grammar():
    g = parse_grammar(GRAMMAR_TEXT)
    assert g.alphabet == ("a", "b")
    assert g.types_of("a") == (over(prim("s"), prim("b")),
                               over(over(prim("s"), prim("b")), prim("s")))
    assert g.distinguished is prim("s")
    assert g.primitives() == frozenset({"s", "b"})


def test_parse_grammar_errors():
    with pytest.raises(ParseError):
        parse_grammar("lexicon a : p")          # no target
    with pytest.raises(ParseError):
        parse_grammar("target : p\ntarget : q")  # duplicate target
    with pytest.raises(ParseError):
        parse_grammar("nonsense\ntarget : p")
    with pytest.raises(ParseError):
        parse_grammar("lexicon a : dia:1 p\ntarget : p")   # indexed
    with pytest.raises(ParseError):
        parse_grammar("lexicon a : 1 / p\ntarget : p")     # unit


# --- the one-scan lexer against the per-token lexer it replaced -------------
#
# The reference below is the tokenizer and parser as they were before the
# lexer became one regex scan: one match per token, one whitespace match
# after it, positions carried on every token.  Both build types through
# the same interning factories, so equal results are identical objects.

_REF_TOKEN_RE = re.compile(
    r"""
      (?P<arrow>=>)
    | (?P<lbrk_i>\[:(?P<lbrk_n>\d+))
    | (?P<rbrk_i>\]:(?P<rbrk_n>\d+))
    | (?P<lbrk>\[)
    | (?P<rbrk>\])
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<op>[\\/*])
    | (?P<hole>_(?![A-Za-z0-9_]))
    | (?P<word>[A-Za-z][A-Za-z0-9_]*(?::\d+)?)
    | (?P<one>1(?!\d))
    | (?P<num>\d+)
    """,
    re.VERBOSE,
)

_REF_WS_RE = re.compile(r"\s*")


def _ref_tokenize(text):
    tokens = []
    pos = _REF_WS_RE.match(text).end()
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "lbrk_i":
            kind, value = "lbrk", int(m.group("lbrk_n"))
        elif kind == "rbrk_i":
            kind, value = "rbrk", int(m.group("rbrk_n"))
        elif kind == "lbrk":
            value = None
        elif kind == "rbrk":
            value = None
        elif kind == "word":
            base, _, idx = value.partition(":")
            if base in ("dia", "boxd"):
                kind = "prefix"
                value = (base, int(idx) if idx else None)
                if idx and int(idx) < 1:
                    raise ParseError("modality index must be positive", pos)
            elif idx:
                raise ParseError(f"unexpected index on identifier {base!r}", pos)
        elif kind == "num":
            raise ParseError(f"unexpected number {value!r}", pos)
        if kind == "lbrk" and isinstance(value, int) and value < 1:
            raise ParseError("bracket index must be positive", pos)
        tokens.append((kind, value, pos))
        pos = _REF_WS_RE.match(text, m.end()).end()
    tokens.append(("end", None, len(text)))
    return tokens


class _RefParser:
    def __init__(self, text):
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])

    def type_operand(self):
        kind, value, pos = self.next()
        if kind == "prefix":
            word, index = value
            body = self.type_operand()
            return dia(body, index) if word == "dia" else boxdown(body, index)
        if kind == "lpar":
            t = self.type_expr()
            self.expect("rpar", "')'")
            return t
        if kind == "one":
            return UNIT
        if kind == "word":
            return prim(value)
        raise ParseError("expected a type", pos)

    def type_expr(self):
        left = self.type_operand()
        if self.peek()[0] != "op":
            return left
        _, op, _ = self.next()
        right = self.type_operand()
        if self.peek()[0] == "op":
            raise ParseError("nested binary operators need parentheses",
                             self.peek()[2])
        if op == "\\":
            return under(left, right)
        if op == "/":
            return over(left, right)
        return prod(left, right)

    def tree(self):
        kind, value, pos = self.peek()
        if kind == "hole":
            self.next()
            return HOLE
        if kind == "lbrk":
            self.next()
            children = self.hedge()
            ckind, cvalue, cpos = self.next()
            if ckind != "rbrk":
                raise ParseError("expected a closing bracket", cpos)
            if cvalue != value:
                raise ParseError(
                    f"bracket index mismatch: opened {value!r}, closed {cvalue!r}",
                    cpos)
            return bracket(children, value)
        return leaf(self.type_expr())

    def hedge(self):
        trees = []
        while self.peek()[0] not in ("rbrk", "arrow", "end"):
            trees.append(self.tree())
        return tuple(trees)


def _ref_parse_type(text):
    p = _RefParser(text)
    t = p.type_expr()
    p.expect_end()
    return t


def _ref_parse_any_hedge(text):
    p = _RefParser(text)
    h = p.hedge()
    p.expect_end()
    return h


def _ref_parse_hedge(text):
    h = _ref_parse_any_hedge(text)
    if any(tr.holes for tr in h):
        raise ParseError("hole token outside context parsing")
    return h


def _ref_parse_context(text):
    h = _ref_parse_any_hedge(text)
    holes = sum(tr.holes for tr in h)
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}")
    return h


def _ref_parse_sequent(text):
    p = _RefParser(text)
    ante = p.hedge()
    p.expect("arrow", "'=>'")
    succ = p.type_expr()
    p.expect_end()
    if any(tr.holes for tr in ante):
        raise ParseError("hole token outside context parsing")
    return sequent(ante, succ)


_PARSERS = (
    (parse_type, _ref_parse_type),
    (parse_hedge, _ref_parse_hedge),
    (parse_context, _ref_parse_context),
    (parse_sequent, _ref_parse_sequent),
)


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except ValueError as exc:   # ParseError, and mixed indexing or holes
        return type(exc), str(exc), getattr(exc, "pos", None)


def _assert_same_parses(text):
    for new, ref in _PARSERS:
        got, want = _outcome(new, text), _outcome(ref, text)
        if want[0] == "ok" and got[0] == "ok" and new is parse_type:
            assert got[1] is want[1], (new.__name__, text)
        else:
            assert got == want, (new.__name__, text)


# Pieces of text, well formed and malformed; drawn lists of them are joined
# by drawn separators, the empty one included, so neighbours also fuse
# into longer words and numbers.
_PIECES = (
    "p", "q", "p1", "x_2", "a1b", "1", "dia", "boxd", "dia:1", "boxd:2",
    "dia:12", "[", "]", "[:1", "]:1", "[:2", "]:2", "(", ")", "\\", "/",
    "*", "=>", "_", "dia:0", "p:1", "[:0", "]:0", "12", "0", "_a", "=",
    "⇒", "$", "\t", "é", ":", "1p",
)
_SEPARATORS = ("", " ", " ", "  ", "\t", "\n")


@st.composite
def _piece_texts(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(_PIECES),
                                    st.sampled_from(_SEPARATORS)),
                          max_size=14))
    return draw(st.sampled_from(("", " "))) + "".join(a + b for a, b in pairs)


def _random_sequent(rng):
    """A random sequent, plain or indexed throughout."""
    indexed = rng.random() < 0.3

    def index():
        return rng.randint(1, 3) if indexed else None

    def ty(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return rng.choice((p, q, prim("x1"), UNIT))
        if r < 0.5:
            return rng.choice((dia, boxdown))(ty(depth - 1), index())
        op = rng.choice((under, over, prod))
        return op(ty(depth - 1), ty(depth - 1))

    def hedge(depth):
        trees = []
        for _ in range(rng.randint(0, 3)):
            if depth and rng.random() < 0.3:
                trees.append(bracket(hedge(depth - 1), index()))
            else:
                trees.append(leaf(ty(3)))
        return tuple(trees)

    return sequent(hedge(3), ty(3))


@st.composite
def _sequent_texts(draw):
    """Printed sequents, half of them with one piece spliced in."""
    rng = draw(st.randoms(use_true_random=False))
    text = print_sequent(_random_sequent(rng))
    if rng.random() < 0.5:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_PIECES) + text[at + rng.randint(0, 3):]
    return text


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.one_of(_piece_texts(), _sequent_texts()))
def test_lexer_matches_reference(text):
    _assert_same_parses(text)


@pytest.mark.parametrize("text", [
    "", " ", "p", "p => p", "_a", "p _a", "dia:0 p", "p:1 => p", "[:0 p ]:0",
    "[ p ]:0 => p", "12 => p", "p = > p", "p ⇒ p", "p\t=>\tq", "[:1 _ ]:1",
    "$", "p $", "(p", "p)", "p \\ q \\ r", "[ p => p", "1 1p", "dia:01 p",
])
def test_lexer_matches_reference_examples(text):
    _assert_same_parses(text)


def _chain_row(family, n):
    """Antecedent types and succedent of a chain goal of size ``n`` over
    alternating atoms, built as the benchmark's ladder families are."""
    xs = [("a", "b")[i % 2] for i in range(n + 1)]
    if family == "chain_under":
        row = [xs[0]] + [f"{xs[i]} \\ {xs[i + 1]}" for i in range(n - 1)]
        return row, xs[n - 1]
    if family == "chain_over":
        row = [f"{xs[i + 1]} / {xs[i]}" for i in reversed(range(n - 1))]
        return row + [xs[0]], xs[n - 1]
    row = [f"{xs[i]} \\ {xs[i + 1]}" for i in range(n)]
    return row, f"{xs[0]} \\ {xs[n]}"


@pytest.mark.parametrize("family", ["chain_under", "chain_over", "composition"])
def test_lexer_matches_reference_on_chain_proofs(family):
    for n in (1, 2, 5, 13, 50, 200):
        row, succ = _chain_row(family, n)
        goal = " ".join(f"({t})" if " " in t else t for t in row)
        proof = prove(parse_sequent(f"{goal} => {succ}"), L)
        assert proof is not None, (family, n)
        for line in print_proof(proof).splitlines():
            text = line.split(None, 1)[1]
            assert parse_sequent(text) == _ref_parse_sequent(text)
