"""The one candidate enumerator: ``harness._rows`` and
``harness._balanced``.

The loops they replaced stay here, inline, as references: every sweep
must hand its prover and its Cut parser the same candidates, in the
same order, as the loop it used to run.
"""

from itertools import chain, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lambrack import harness
from lambrack.compiler import enum_types
from lambrack.freegroup import IDENTITY, count_key, mul, word_of
from lambrack.harness import (
    _balanced, _bracket_count, _grammar_member, _hedge_at, _hedge_count,
    _hedges_exact, _interp_population, _reduction_candidates, _rows,
    _succedents, _types_by_connectives, bundled_grammar,
)
from lambrack.syntax import (
    LDIA, L1STAR_DIA, UNIT, boxdown, dia, leaf, mod_total, over, prim, prod,
    sequent, under,
)


class _Recorder:
    """A prover that notes every goal it is handed and proves none."""

    def __init__(self, calc=None, timeout_ms=None):
        self.goals = []

    def prove(self, s):
        self.goals.append(s)


def _row_key(row, words):
    return count_key(chain.from_iterable(words[t] for t in row))


# ---------------------------------------------------------------------------
# The replaced loops


def _reference_interp_goals():
    """The goals the interpolation population handed to its prover,
    from the connective-budget recursion and a count key per row."""
    by_conn = {}
    for t, c in _types_by_connectives(("p", "q"), 3).items():
        by_conn.setdefault(c, []).append(t)
    words, succ_by_word, succ_keys = {}, {}, {}
    for c in range(4):
        for t in by_conn[c]:
            w = words[t] = word_of(t)
            succ_by_word.setdefault(w, []).append((c, t))
            key = count_key(w)
            succ_keys.setdefault(key[0], set()).add((c, key))

    rows = []

    def grow(row, conn, mods):
        if row:
            rows.append((row, conn, mods))
        if len(row) == 3:
            return
        for c in range(4 - conn):
            for t in by_conn[c]:
                grow(row + (t,), conn + c, mods + mod_total(t))

    grow((), 0, 0)
    hedges = {}
    for row, conn, mods in rows:
        row_key = _row_key(row, words)
        feasible = set()
        for c_succ, key in succ_keys.get(row_key[0], ()):
            b = _bracket_count(row_key, key)
            if b is not None and b <= mods and conn + c_succ <= 3:
                feasible.add(b)
        for b in sorted(feasible):
            for h in _hedges_exact(row, b, False, hedges):
                for c_succ, succ in succ_by_word.get(word_of(h), ()):
                    if conn + c_succ <= 3:
                        yield sequent(h, succ)


def _reference_reduction_candidates():
    """The flat reduction sweep's candidates, from the recursive walk
    that carried each row's word."""
    types = enum_types({"p", "q"}, 2)
    words = {t: word_of(t) for t in types}
    by_word = {}
    for t in types:
        by_word.setdefault(words[t], []).append(t)

    def walk(row, w, depth):
        if row:
            for succ in by_word.get(w, ()):
                yield sequent(tuple(leaf(t) for t in row), succ)
        if depth < 5:
            for t in types:
                yield from walk(row + (t,), mul(w, words[t]), depth + 1)

    return walk((), IDENTITY, 0)


def _cut_groups(calc, types):
    for n in range(0 if calc.starred else 1, 5):
        for row in product(types, repeat=n):
            mods = sum(mod_total(t) for t in row)
            for succ in types:
                for b in range(mods + mod_total(succ) + 1):
                    yield row, succ, b


def _reference_cut_calls(sample_stride):
    """The ``prove`` and ``cut_derives`` calls of Cut completeness, in
    order, and its candidate total, from the grouped loop that filtered
    each group by its row's count key."""
    calls, total = [], 0
    for calc, guarded in ((LDIA, False), (L1STAR_DIA, True)):
        types = enum_types({"p"}, 2, guarded=guarded)
        words = {t: word_of(t) for t in types}
        counts = {}
        n_candidates = sum(_hedge_count(len(row), b, calc.starred, counts)
                           for row, _, b in _cut_groups(calc, types))
        total += n_candidates
        stride = 1 if n_candidates <= 10000 else sample_stride
        unbalanced_i = 0
        hedges = {}
        for row, succ, b in _cut_groups(calc, types):
            if _bracket_count(_row_key(row, words),
                              count_key(words[succ])) != b:
                size = _hedge_count(len(row), b, calc.starred, counts)
                for j in range(-unbalanced_i % stride, size, stride):
                    calls.append(("cut", sequent(
                        _hedge_at(row, b, calc.starred, j, counts), succ)))
                unbalanced_i += size
                continue
            for h in _hedges_exact(row, b, calc.starred, hedges):
                s = sequent(h, succ)
                if word_of(h) != words[succ]:
                    if unbalanced_i % stride == 0:
                        calls.append(("cut", s))
                    unbalanced_i += 1
                    continue
                calls += [("prove", s), ("cut", s)]
    return calls, total


def _reference_member_goals(g, toks, calc):
    """Every goal the membership search could hand its prover for
    ``toks``: each lexicon assignment in ``product`` order, bracketed
    at the one count its count key admits, filtered by word."""
    target = g.distinguished
    target_word = word_of(target)
    target_key = count_key(target_word)
    assigns = [g.types_of(tok) for tok in toks]
    words = {t: word_of(t) for ts in assigns for t in ts}
    hedges = {}
    for row in product(*assigns):
        b = _bracket_count(_row_key(row, words), target_key)
        if b is None:
            continue
        for h in _hedges_exact(row, b, calc.starred, hedges):
            if (h or calc.starred) and word_of(h) == target_word:
                yield sequent(h, target)


# ---------------------------------------------------------------------------
# Each consumer against the loop it replaced


def test_interpolation_population(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(harness, "Prover", lambda *a, **k: recorder)
    assert _interp_population() == []
    assert recorder.goals == list(_reference_interp_goals())
    assert len(recorder.goals) == 1996 + 6490


def test_reduction_candidates():
    got = list(_reduction_candidates())
    assert len(got) == 71010
    assert got == list(_reference_reduction_candidates())


@pytest.mark.parametrize("stride", [50, 500])
def test_cut_completeness(monkeypatch, stride):
    calls = []

    class Recorder:
        def __init__(self, calc, timeout_ms=None):
            pass

        def prove(self, s):
            calls.append(("prove", s))

    monkeypatch.setattr(harness, "Prover", Recorder)
    monkeypatch.setattr(harness, "cut_derives",
                        lambda base, s: calls.append(("cut", s)))
    monkeypatch.setattr(harness, "build_rulesets",
                        lambda *a, **k: SimpleNamespace(rules=()))
    r = harness.run_cut_completeness(sample_stride=stride)
    want, total = _reference_cut_calls(stride)
    assert r.counts["candidates"] == total == 551326
    assert calls == want
    assert r.counts["unbalanced_checked"] == sum(
        1 for kind, _ in want if kind == "cut") - r.counts["balanced"]


@pytest.mark.parametrize("name,max_len", [
    ("brackets.lg", 4), ("anbn.lg", 5),
])
def test_grammar_member(name, max_len):
    g = bundled_grammar(name)
    goals = 0
    for n in range(1, max_len + 1):
        for toks in product(sorted(g.alphabet), repeat=n):
            recorder = _Recorder()
            assert not _grammar_member(g, toks, LDIA, recorder, {})
            assert recorder.goals == list(
                _reference_member_goals(g, toks, LDIA)), toks
            goals += len(recorder.goals)
    assert goals > 0


# ---------------------------------------------------------------------------
# The generator and the candidate function on random type lists


_types = st.recursive(
    st.sampled_from([prim("p"), prim("q"), UNIT]),
    lambda inner: st.one_of(
        st.builds(dia, inner), st.builds(boxdown, inner),
        st.builds(under, inner, inner), st.builds(over, inner, inner),
        st.builds(prod, inner, inner)),
    max_leaves=3)


def _preorder(types, shortest, row=()):
    if len(row) >= shortest:
        yield row
    if len(row) < len(types):
        for t in types[len(row)]:
            yield from _preorder(types, shortest, row + (t,))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(_types, min_size=1, max_size=3), min_size=4,
                max_size=4),
       st.lists(_types, min_size=1, max_size=4), st.booleans())
def test_rows_carry_their_words_and_pairs_balance(types, succ_types,
                                                  allow_empty):
    succs = _succedents(succ_types)
    succ_words = {word_of(t) for t in succ_types}
    # DFS preorder over lengths 0-4, then product order at each length
    for shortest, longest in [(0, 4)] + [(n, n) for n in range(5)]:
        positions = types[:longest]
        got = list(_rows(positions, shortest))
        rows = [row for row, _, _ in got]
        assert rows == list(_preorder(positions, shortest))
        if shortest == longest:
            assert rows == list(product(*positions))
        for row, w, mods in got:
            flat = tuple(map(leaf, row))
            assert w == word_of(flat)
            assert count_key(w) == count_key(
                chain.from_iterable(word_of(t) for t in row))
            assert mods == mod_total(flat)
            if len(row) > 3:
                continue
            pairs = list(_balanced(row, w, succs, allow_empty, {}))
            for b, j, h, succ in pairs:
                assert word_of(h) == word_of(succ)
                assert _hedges_exact(row, b, allow_empty, {})[j] == h
            # every balanced pair, in order, up to three brackets
            want = [(b, j, h, succ) for b in range(4)
                    for j, h in enumerate(
                        _hedges_exact(row, b, allow_empty, {}))
                    if word_of(h) in succ_words
                    for succ in succs[0][word_of(h)]]
            assert [p for p in pairs if p[0] <= 3] == want
            assert list(_balanced(row, w, succs, allow_empty, {}, 1)) == \
                [p for p in pairs if p[0] <= 1]


def test_admit_drops_the_rest_of_a_position():
    p, q = prim("p"), prim("q")
    pq = under(p, q)
    rows = [row for row, _, _ in _rows([(p, q, pq)] * 2, 1,
                                       lambda row: row.count(pq) < 1
                                       and row[-1] is not q)]
    assert rows == [(p,), (p, p)]
