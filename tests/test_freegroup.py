"""Tests for reduced-word arithmetic and the free-group interpretation."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lambrack.compiler import enum_types
from lambrack.freegroup import (
    IDENTITY, close_letter, inv, mul, open_letter, prim_letter, print_word,
    shrinking_pair, wlen, word, word_of,
)
from lambrack.harness import _hedges_exact, bundled_grammar
from lambrack.syntax import (
    L1STAR_DIA, UNIT, BoxDown, Bracket, Dia, Leaf, Over, Prim, Prod, Under,
    length, mod_total, parse_hedge, parse_sequent, parse_type,
)

from helpers import cut_candidates

a = (prim_letter("a"),)
b = (prim_letter("b"),)


def test_mul_cancellation():
    assert mul(a, inv(a)) == IDENTITY
    assert mul((prim_letter("a"), prim_letter("b")),
               (prim_letter("b", -1), prim_letter("a"))) == \
        (prim_letter("a"), prim_letter("a"))


def test_wlen_inverse():
    u = (open_letter(1), prim_letter("p1"))
    assert wlen(inv(u)) == wlen(u) == 2


def test_word_normalizes():
    letters = [prim_letter("a"), prim_letter("b"), prim_letter("b", -1),
               prim_letter("a", -1)]
    assert word(letters) == IDENTITY


def test_interpret_examples():
    assert word_of(parse_type("dia:2 p1")) == \
        (open_letter(2), prim_letter("p1"), close_letter(2))
    assert word_of(parse_type("boxd:2 p1")) == \
        (open_letter(2, -1), prim_letter("p1"), close_letter(2, -1))
    assert word_of(parse_hedge("[:1 p1 [:2 ]:2 ]:1")) == \
        (open_letter(1), prim_letter("p1"), open_letter(2), close_letter(2),
         close_letter(1))


def test_interpret_under_over_unit():
    assert word_of(parse_type("p1 \\ p2")) == \
        (prim_letter("p1", -1), prim_letter("p2"))
    assert word_of(parse_type("p2 / p1")) == \
        (prim_letter("p2"), prim_letter("p1", -1))
    assert word_of(parse_type("1")) == IDENTITY
    # dia boxd p collapses to p
    assert word_of(parse_type("dia:1 boxd:1 p1")) == (prim_letter("p1"),)


def test_interpret_rejects_plain():
    # plain modalities are read with one collapsed index, None
    assert word_of(parse_type("dia p")) == \
        (open_letter(None), prim_letter("p"), close_letter(None))
    assert word_of(parse_type("p \\ q")) == \
        (prim_letter("p", -1), prim_letter("q"))


_letters = st.builds(
    lambda kind, idx, sign: (kind, idx, sign),
    st.sampled_from(["p", "<", ">"]),
    st.sampled_from(["x", "y", 1, 2]),
    st.sampled_from([1, -1]),
)
_words = st.lists(_letters, max_size=12).map(word)


@settings(derandomize=True, max_examples=200)
@given(_words, _words, _words)
def test_group_laws(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))
    assert mul(u, IDENTITY) == u == mul(IDENTITY, u)
    assert mul(u, inv(u)) == IDENTITY == mul(inv(u), u)
    assert wlen(inv(u)) == wlen(u)


@settings(derandomize=True, max_examples=100)
@given(st.lists(_letters, max_size=14), st.randoms(use_true_random=False))
def test_reduction_confluence(letters, rng):
    """Cancelling adjacent inverse pairs in any order gives the normal form."""
    work = list(letters)
    while True:
        pairs = [i for i in range(len(work) - 1)
                 if work[i] == (work[i + 1][0], work[i + 1][1], -work[i + 1][2])]
        if not pairs:
            break
        i = rng.choice(pairs)
        del work[i:i + 2]
    assert tuple(work) == word(letters)


def test_shrinking_pair_examples():
    u = (open_letter(1), prim_letter("p"))
    assert shrinking_pair([u, inv(u)]) == 1
    assert shrinking_pair([a, b, inv(b), inv(a)]) == 2


def test_shrinking_pair_errors():
    with pytest.raises(ValueError):
        shrinking_pair([a])
    with pytest.raises(ValueError):
        shrinking_pair([a, a])


def _random_identity_tuple(rng, n, max_half=2, gens="abc"):
    """Telescoping factorization: u_i = v_{i-1}^{-1} v_i with v_0 = v_n = e."""
    vs = [IDENTITY]
    for _ in range(n - 1):
        letters = [prim_letter(rng.choice(gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, max_half))]
        vs.append(word(letters))
    vs.append(IDENTITY)
    return [mul(inv(vs[i]), vs[i + 1]) for i in range(n)]


def test_shrinking_pair_randomized():
    rng = random.Random(20240817)
    for _ in range(500):
        n = rng.randint(2, 6)
        words = _random_identity_tuple(rng, n)
        k = shrinking_pair(words)
        assert 1 <= k < n
        assert wlen(mul(words[k - 1], words[k])) <= max(wlen(words[k - 1]),
                                                        wlen(words[k]))
        # least witness: brute-force scan agrees
        oracle = next(i + 1 for i in range(n - 1)
                      if wlen(mul(words[i], words[i + 1]))
                      <= max(wlen(words[i]), wlen(words[i + 1])))
        assert k == oracle


def test_word_length_bounded_by_type_length():
    for text in ["p1", "dia:1 p1", "boxd:2 (p1 * p2)", "(p1 \\ p2) / p1",
                 "dia:1 boxd:1 p1", "1", "dia:3 1"]:
        t = parse_type(text)
        assert wlen(word_of(t)) <= t.length


def test_provable_reference_sequent_is_word_balanced():
    s = parse_sequent("[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2")
    assert word_of(s.antecedent) == word_of(s.succedent)


def test_print_word():
    assert print_word(IDENTITY) == "e"
    assert print_word((open_letter(1), prim_letter("p1"),
                       close_letter(2, -1))) == "<1 p1 >2'"


# ---------------------------------------------------------------------------
# Differential check: cached words against words read off the syntax


def _inverse_letters(letters):
    return [(kind, value, -sign) for kind, value, sign in reversed(letters)]


def _flat_letters(x):
    """The unreduced letters of a type or tree, with no cache involved."""
    if isinstance(x, Leaf):
        return _flat_letters(x.type)
    if isinstance(x, Bracket):
        out = [open_letter(x.index)]
        for ch in x.children:
            out += _flat_letters(ch)
        return out + [close_letter(x.index)]
    if isinstance(x, Prim):
        return [prim_letter(x.name)]
    if x is UNIT:
        return []
    if isinstance(x, Under):
        return _inverse_letters(_flat_letters(x.left)) + _flat_letters(x.right)
    if isinstance(x, Over):
        return _flat_letters(x.left) + _inverse_letters(_flat_letters(x.right))
    if isinstance(x, Prod):
        return _flat_letters(x.left) + _flat_letters(x.right)
    assert isinstance(x, (Dia, BoxDown)), x
    sign = 1 if isinstance(x, Dia) else -1
    return ([open_letter(x.index, sign)] + _flat_letters(x.body)
            + [close_letter(x.index, sign)])


def _nodes(x):
    yield x
    if isinstance(x, Leaf):
        yield from _nodes(x.type)
    elif isinstance(x, Bracket):
        for ch in x.children:
            yield from _nodes(ch)
    elif isinstance(x, (Under, Over, Prod)):
        yield from _nodes(x.left)
        yield from _nodes(x.right)
    elif isinstance(x, (Dia, BoxDown)):
        yield from _nodes(x.body)


def _check_words(items):
    """Every node of every hedge or type in ``items`` has the word its
    letters reduce to, on the first (filling) and the second (cached)
    request alike.  ``items`` must stay alive: nodes are told apart by
    identity."""
    seen = set()
    for item in items:
        trees = item if isinstance(item, tuple) else (item,)
        letters = [x for tr in trees for x in _flat_letters(tr)]
        assert word_of(item) == word(letters)
        for tr in trees:
            for node in _nodes(tr):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                expected = word(_flat_letters(node))
                assert word_of(node) == expected
                assert word_of(node) == expected
    return len(seen)


def _interp_items(pairs):
    return [x for s, _ in pairs for x in (s.antecedent, s.succedent)]


def _cut_items():
    types = enum_types({"p"}, 2, guarded=True)
    sampled = [s for i, s in enumerate(cut_candidates(L1STAR_DIA, types))
               if i % 97 == 0]
    return [x for s in sampled for x in (s.antecedent, s.succedent)]


def _grammar_items():
    # every hedge over each lexicon assignment of the brackets.lg
    # strings up to length 3, at every bracket count up to the
    # assignment's modalities plus the distinguished type's length plus
    # one: a superset of what _grammar_member brackets, which is the
    # hedges at the one balancing count, a count within that budget
    g = bundled_grammar("brackets.lg")
    budget = length(g.distinguished) + 1
    memo = {}
    items = []
    for n in range(1, 4):
        for toks in product(sorted(g.alphabet), repeat=n):
            for row in product(*(g.types_of(tok) for tok in toks)):
                mods = sum(mod_total(t) for t in row)
                for b in range(mods + budget + 1):
                    items.extend(_hedges_exact(row, b, False, memo))
    return items


@pytest.mark.parametrize("population", ["interp", "cut", "grammar"])
def test_cached_words_match_letters(population, request):
    if population == "interp":
        items = _interp_items(request.getfixturevalue("interp_population"))
    elif population == "cut":
        items = _cut_items()
    else:
        items = _grammar_items()
    assert _check_words(items) >= 1000
