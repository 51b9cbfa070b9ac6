"""Proof search, proof checking, and the bracket-erasing translation."""

import functools
import gc
import random
import sys
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from lambrack import compiler
from lambrack.compiler import build_rulesets
from lambrack.freegroup import word_of
from lambrack.harness import _reduction_candidates
from lambrack.interpolate import thin_index
from lambrack.prover import (
    Proof, ProofSearchTimeout, Prover, check, deindex_proof, instances,
    is_guarded, parse_proof, print_proof, prove, translate_flat,
)
from lambrack.prover import RULES
from lambrack.syntax import (
    L, L1STAR, L1STAR_DIA, L1STAR_DIA_M, LDIA, LDIA_M, LSTAR, LSTAR_DIA,
    UNIT, BoxDown, Bracket, Dia, Leaf, Over, ParseError, Prim, Prod, Under,
    boxdown, bracket, calculus, children_at, dia, is_thin, leaf, nodes,
    over, parse_sequent, parse_type, preorder, prim, print_sequent, prod,
    replace_span, sequent, under,
)

GOLDEN = "[ [ p ] dia p \\ p ] => boxd dia dia p"

GOLDEN_PROOF = """\
BoxDownR  [ [ p ] dia p \\ p ] => boxd dia dia p
  DiaR  [ [ [ p ] dia p \\ p ] ] => dia dia p
    DiaR  [ [ p ] dia p \\ p ] => dia p
      UnderL  [ p ] dia p \\ p => p
        DiaR  [ p ] => dia p
          Ax  p => p
        Ax  p => p"""


class TestGoldens:
    def test_bracket_modality_proof(self):
        p = prove(parse_sequent(GOLDEN), LDIA)
        assert p is not None
        assert print_proof(p) == GOLDEN_PROOF
        assert check(p, LDIA)

    def test_canonical_proof_is_deterministic(self):
        s = parse_sequent(GOLDEN)
        a, b = prove(s, LDIA), prove(s, LDIA)

        def principals(q):
            yield q.principal
            for sub in q.premises:
                yield from principals(sub)

        assert a == b
        assert list(principals(a)) == list(principals(b))

    def test_distribution_over_product_fails(self):
        s = parse_sequent("dia boxd p dia boxd q => dia boxd (p * q)")
        assert prove(s, LDIA) is None
        # both sides have the same free-group image, so the refutation
        # comes from the search itself, not from the word filter
        assert word_of(s.antecedent) == word_of(s.succedent)

    def test_modality_adjunction_asymmetry(self):
        assert prove(parse_sequent("p => boxd dia p"), LDIA) is not None
        assert prove(parse_sequent("dia boxd p => p"), LDIA) is not None
        assert prove(parse_sequent("dia boxd p => boxd dia p"), LDIA) is not None
        assert prove(parse_sequent("boxd dia p => dia boxd p"), LDIA) is None

    def test_bracket_introduces_diamond(self):
        assert prove(parse_sequent("[ p ] => dia p"), LDIA) is not None
        assert prove(parse_sequent("p => dia p"), LDIA) is None

    def test_indexed_sequent(self):
        s = parse_sequent("[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2")
        p = prove(s, LDIA_M)
        assert p is not None and check(p, LDIA_M)
        # mismatched indices are rejected by the search
        bad = parse_sequent("[:2 p1 ]:2 => dia:1 p1")
        assert prove(bad, LDIA_M) is None

    def test_conclusion_is_the_input(self):
        s = parse_sequent(GOLDEN)
        assert prove(s, LDIA).conclusion == s


class TestStarredAndUnit:
    def test_empty_antecedent(self):
        assert prove(parse_sequent("=> p / p"), LSTAR) is not None
        assert prove(parse_sequent("=> p \\ p"), LSTAR) is not None
        with pytest.raises(ValueError):
            prove(parse_sequent("=> p / p"), L)

    def test_unit_axiom_and_deletion(self):
        assert print_proof(prove(parse_sequent("=> 1"), L1STAR)) == "UnitR  => 1"
        p = prove(parse_sequent("1 => 1"), L1STAR)
        assert print_proof(p) == "UnitL  1 => 1\n  UnitR  => 1"
        assert prove(parse_sequent("q 1 => q"), L1STAR) is not None

    def test_empty_bracket(self):
        p = prove(parse_sequent("[ ] => dia 1"), L1STAR_DIA)
        assert print_proof(p) == "DiaR  [ ] => dia 1\n  UnitR  => 1"
        with pytest.raises(ValueError):
            prove(parse_sequent("[ ] => dia 1"), LDIA)

    def test_short_unit_double_dual_tower(self):
        # the tower q, (1/q)\1, (1/((1/q)\1))\1, ... applies the double
        # dual X -> (1/X)\1 repeatedly; that map is a closure operator,
        # so from the first level on all levels are interderivable and
        # only the bottom level sits strictly below
        tower = [parse_type("q")]
        for _ in range(4):
            tower.append(under(over(UNIT, tower[-1]), UNIT))
        assert all(t.length == 1 for t in tower)
        for i, a in enumerate(tower):
            for j, b in enumerate(tower):
                p = prove(sequent((leaf(a),), b), L1STAR)
                if j == 0 and i > 0:
                    assert p is None, (i, j)
                else:
                    assert p is not None and check(p, L1STAR), (i, j)

    def test_telescope_sequent(self):
        s = parse_sequent("1/1 1/q q 1\\1 1\\1 => 1")
        p = prove(s, L1STAR)
        assert p is not None and check(p, L1STAR)

    def test_plain_proofs_lift_to_starred(self):
        # every rule instance of the non-starred calculus is also an
        # instance of the starred one, so the proof itself lifts
        p = prove(parse_sequent(GOLDEN), LDIA)
        assert check(p, LSTAR_DIA)


def _types(max_conn, prims=("p", "q"), unit=False, mods=True):
    levels = [[prim(x) for x in prims] + ([UNIT] if unit else [])]
    for c in range(1, max_conn + 1):
        layer = []
        for i in range(c):
            for a in levels[i]:
                for b in levels[c - 1 - i]:
                    layer += [under(a, b), over(a, b), prod(a, b)]
        if mods:
            layer += [dia(a) for a in levels[c - 1]]
            layer += [boxdown(a) for a in levels[c - 1]]
        levels.append(layer)
    return [t for layer in levels for t in layer]


_SHAPES_1 = [
    lambda t: (leaf(t),),
    lambda t: (bracket((leaf(t),)),),
    lambda t: (bracket((bracket((leaf(t),)),)),),
]
_SHAPES_2 = [
    lambda t, u: (leaf(t), leaf(u)),
    lambda t, u: (bracket((leaf(t),)), leaf(u)),
    lambda t, u: (leaf(t), bracket((leaf(u),))),
    lambda t, u: (bracket((leaf(t), leaf(u))),),
    lambda t, u: (bracket((leaf(t),)), bracket((leaf(u),))),
    lambda t, u: (bracket((bracket((leaf(t),)),)), leaf(u)),
    lambda t, u: (leaf(t), bracket((bracket((leaf(u),)),))),
    lambda t, u: (bracket((bracket((leaf(t),)), leaf(u))),),
    lambda t, u: (bracket((leaf(t), bracket((leaf(u),)))),),
    lambda t, u: (bracket((bracket((leaf(t), leaf(u))),)),),
]


def _small_sequents(max_total_conn=2):
    """Every sequent over {p} with at most two antecedent leaves, two
    brackets, and the given total connective budget."""
    by_conn = {}
    for t in _types(max_total_conn, prims=("p",)):
        by_conn.setdefault(_type_conn(t), []).append(t)
    out = []
    for cs, succs in by_conn.items():
        for c1 in range(max_total_conn - cs + 1):
            for t in by_conn.get(c1, ()):
                for shape in _SHAPES_1:
                    for c in succs:
                        out.append(sequent(shape(t), c))
                for c2 in range(max_total_conn - cs - c1 + 1):
                    for u in by_conn.get(c2, ()):
                        for shape in _SHAPES_2:
                            for c in succs:
                                out.append(sequent(shape(t, u), c))
    return out


def _type_conn(t):
    if isinstance(t, type(prim("p"))):
        return 0
    if t is UNIT:
        return 0
    if hasattr(t, "body"):
        return 1 + _type_conn(t.body)
    return 1 + _type_conn(t.left) + _type_conn(t.right)


# An independent reference search: no memoization, no free-group
# filter, rule instances built by direct tuple surgery and explored in
# the reverse of the canonical order.  Agreement with the main prover
# on an exhaustive universe guards against ordering, filtering, and
# transcription slips.

def _alt_positions(h):
    acc = []

    def walk(trees, prefix):
        for j, tr in enumerate(trees):
            acc.append((prefix, j, tr, trees))
            if not hasattr(tr, "type"):
                walk(tr.children, prefix + (j,))

    walk(h, ())
    return acc


def _alt_rebuild(h, parent, lo, hi, repl):
    if not parent:
        return h[:lo] + repl + h[hi:]
    i = parent[0]
    inner = _alt_rebuild(h[i].children, parent[1:], lo, hi, repl)
    return h[:i] + (bracket(inner, h[i].index),) + h[i + 1:]


def _alt_provable(s, calc):
    calc = calculus(calc)
    ante, c = s.antecedent, s.succedent
    goals = []
    for parent, j, tr, sibs in reversed(_alt_positions(ante)):
        if hasattr(tr, "type"):
            t = tr.type
            k = type(t).__name__
            if k == "Under":
                hi = j + 1 if calc.starred else j
                for g in reversed(range(0, hi)):
                    goals.append([sequent(sibs[g:j], t.left),
                                  sequent(_alt_rebuild(ante, parent, g, j + 1,
                                                       (leaf(t.right),)), c)])
            elif k == "Over":
                lo = j + 1 if calc.starred else j + 2
                for e in reversed(range(lo, len(sibs) + 1)):
                    goals.append([sequent(sibs[j + 1:e], t.right),
                                  sequent(_alt_rebuild(ante, parent, j, e,
                                                       (leaf(t.left),)), c)])
            elif k == "Prod":
                goals.append([sequent(_alt_rebuild(
                    ante, parent, j, j + 1,
                    (leaf(t.left), leaf(t.right))), c)])
            elif k == "Dia":
                goals.append([sequent(_alt_rebuild(
                    ante, parent, j, j + 1,
                    (bracket((leaf(t.body),), t.index),)), c)])
            elif t is UNIT and calc.unit:
                goals.append([sequent(_alt_rebuild(ante, parent, j, j + 1, ()), c)])
        elif (len(tr.children) == 1 and hasattr(tr.children[0], "type")
                and type(tr.children[0].type).__name__ == "BoxDown"
                and tr.children[0].type.index == tr.index):
            goals.append([sequent(_alt_rebuild(
                ante, parent, j, j + 1,
                (leaf(tr.children[0].type.body),)), c)])
    k = type(c).__name__
    if k == "Under":
        goals.append([sequent((leaf(c.left),) + ante, c.right)])
    elif k == "Over":
        goals.append([sequent(ante + (leaf(c.right),), c.left)])
    elif k == "Prod":
        lo, hi = (0, len(ante)) if calc.starred else (1, len(ante) - 1)
        for i in reversed(range(lo, hi + 1)):
            goals.append([sequent(ante[:i], c.left),
                          sequent(ante[i:], c.right)])
    elif k == "Dia":
        if len(ante) == 1 and not hasattr(ante[0], "type") \
                and ante[0].index == c.index:
            goals.append([sequent(ante[0].children, c.body)])
    elif k == "BoxDown":
        goals.append([sequent((bracket(ante, c.index),), c.body)])
    if calc.unit and c is UNIT and not ante:
        return True
    if len(ante) == 1 and hasattr(ante[0], "type") and ante[0].type == c \
            and type(c).__name__ == "Prim":
        return True
    return any(all(_alt_provable(g, calc) for g in gs) for gs in goals)


# The pair the one generator replaced: ``instances`` yielding
# ``(rule, principal)`` and ``premises_of`` deciding each instance again
# and building its premises, with no free-group filter.  Kept verbatim
# as the reference for ``TestAgreement``'s instance and word-guided
# search tests, through ``_ref_balanced_triples`` and ``_RefProver``;
# the recursive ``_ref_positions`` is also the reference for
# ``syntax.nodes``, which replaced the prover's copy of it.

def _ref_positions(h):
    def walk(trees, prefix):
        for j, tr in enumerate(trees):
            yield prefix, j, tr, trees
            if isinstance(tr, Bracket):
                yield from walk(tr.children, prefix + (j,))

    yield from walk(h, ())


def _ref_instances(s, calc):
    ante, succ = s.antecedent, s.succedent
    if (len(ante) == 1 and isinstance(ante[0], Leaf)
            and isinstance(succ, Prim) and ante[0].type is succ):
        yield "Ax", None
    if calc.unit and not ante and succ is UNIT:
        yield "UnitR", None
    if isinstance(succ, (Under, Over)):
        yield ("OverR" if isinstance(succ, Over) else "UnderR"), None
    elif isinstance(succ, Prod):
        lo, hi = (0, len(ante)) if calc.starred else (1, len(ante) - 1)
        for k in range(lo, hi + 1):
            yield "ProdR", k
    elif isinstance(succ, Dia):
        if (len(ante) == 1 and isinstance(ante[0], Bracket)
                and ante[0].index == succ.index):
            yield "DiaR", None
    elif isinstance(succ, BoxDown):
        yield "BoxDownR", None
    for parent, j, tr, siblings in _ref_positions(ante):
        if isinstance(tr, Bracket):
            if (len(tr.children) == 1 and isinstance(tr.children[0], Leaf)
                    and isinstance(tr.children[0].type, BoxDown)
                    and tr.children[0].type.index == tr.index):
                yield "BoxDownL", (parent, j)
            continue
        t = tr.type
        if isinstance(t, (Under, Over)):
            side = isinstance(t, Over)
            empty = 1 if calc.starred else 0
            rule = "OverL" if side else "UnderL"
            for f in (range(j + 2 - empty, len(siblings) + 1) if side
                      else range(0, j + empty)):
                yield rule, ((parent, j, f) if side else (parent, f, j))
        elif isinstance(t, Prod):
            yield "ProdL", (parent, j)
        elif isinstance(t, Dia):
            yield "DiaL", (parent, j)
        elif t is UNIT and calc.unit:
            yield "UnitL", (parent, j)


def _ref_premises_of(s, rule, principal, calc):
    ante, succ = s.antecedent, s.succedent
    if rule == "Ax":
        ok = (len(ante) == 1 and isinstance(ante[0], Leaf)
              and isinstance(succ, Prim) and ante[0].type is succ)
        return () if ok else None
    if rule == "UnitR":
        return () if calc.unit and not ante and succ is UNIT else None
    if rule == "UnderR" or rule == "OverR":
        side = rule == "OverR"
        if not isinstance(succ, Over if side else Under):
            return None
        arg, res = ((succ.right, succ.left) if side
                    else (succ.left, succ.right))
        a = (leaf(arg),)
        return (sequent(ante + a if side else a + ante, res),)
    if rule == "ProdR":
        if not isinstance(succ, Prod) or not isinstance(principal, int):
            return None
        k = principal
        lo, hi = (0, len(ante)) if calc.starred else (1, len(ante) - 1)
        if not lo <= k <= hi:
            return None
        return (sequent(ante[:k], succ.left), sequent(ante[k:], succ.right))
    if rule == "DiaR":
        if (isinstance(succ, Dia) and len(ante) == 1
                and isinstance(ante[0], Bracket) and ante[0].index == succ.index):
            return (sequent(ante[0].children, succ.body),)
        return None
    if rule == "BoxDownR":
        if not isinstance(succ, BoxDown):
            return None
        return (sequent((bracket(ante, succ.index),), succ.body),)

    try:
        parent, rest = principal[0], principal[1:]
        siblings = children_at(ante, parent)
    except (TypeError, IndexError, AttributeError):
        return None

    def leaf_at(j):
        if 0 <= j < len(siblings) and isinstance(siblings[j], Leaf):
            return siblings[j].type
        return None

    if rule == "UnderL" or rule == "OverL":
        if len(rest) != 2:
            return None
        x, y = rest
        side = 1 if rule == "OverL" else 0
        t = leaf_at(x if side else y)
        if (not isinstance(t, Over if side else Under)
                or not 0 <= x + side <= y <= len(siblings)):
            return None
        if x + side == y and not calc.starred:
            return None
        arg, res = (t.right, t.left) if side else (t.left, t.right)
        return (sequent(siblings[x + side:y], arg),
                sequent(replace_span(ante, parent, x, y + 1 - side,
                                     (leaf(res),)), succ))
    if len(rest) != 1:
        return None
    (j,) = rest
    if rule == "ProdL":
        t = leaf_at(j)
        if not isinstance(t, Prod):
            return None
        return (sequent(replace_span(ante, parent, j, j + 1,
                                     (leaf(t.left), leaf(t.right))), succ),)
    if rule == "DiaL":
        t = leaf_at(j)
        if not isinstance(t, Dia):
            return None
        return (sequent(replace_span(ante, parent, j, j + 1,
                                     (bracket((leaf(t.body),), t.index),)),
                        succ),)
    if rule == "UnitL":
        if not calc.unit or leaf_at(j) is not UNIT:
            return None
        return (sequent(replace_span(ante, parent, j, j + 1, ()), succ),)
    if rule == "BoxDownL":
        if not (0 <= j < len(siblings) and isinstance(siblings[j], Bracket)):
            return None
        br = siblings[j]
        if len(br.children) != 1 or not isinstance(br.children[0], Leaf):
            return None
        t = br.children[0].type
        if not isinstance(t, BoxDown) or t.index != br.index:
            return None
        return (sequent(replace_span(ante, parent, j, j + 1,
                                     (leaf(t.body),)), succ),)
    return None


def _ref_triples(s, calc):
    out = []
    for rule, principal in _ref_instances(s, calc):
        premises = _ref_premises_of(s, rule, principal, calc)
        assert premises is not None, (print_sequent(s), rule, principal)
        out.append((rule, principal, premises))
    return out


def _balanced(s):
    return word_of(s.antecedent) == word_of(s.succedent)


def _ref_balanced_triples(s, calc):
    """``_ref_triples`` filtered by the free-group balance.

    On a balanced conclusion: the instances whose premises are all
    balanced.  On an unbalanced one, where no instance has only
    balanced premises, ``instances`` still filters the argument alone:
    the instances whose first of two premises is balanced.
    """
    triples = _ref_triples(s, calc)
    if _balanced(s):
        return [t for t in triples if all(map(_balanced, t[2]))]
    return [t for t in triples if len(t[2]) < 2 or _balanced(t[2][0])]


class _RefProver:
    """The search as it was before word-guided instances: it tries every
    instance of ``_ref_triples`` and checks each goal's balance when
    the goal is entered."""

    def __init__(self, calc):
        self.calc, self.memo = calc, {}

    def prove(self, s):
        if not _balanced(s):
            return None
        if s in self.memo:
            return self.memo[s]
        result = None
        for rule, principal, premises in _ref_triples(s, self.calc):
            subproofs = []
            for premise in premises:
                sub = self.prove(premise)
                if sub is None:
                    break
                subproofs.append(sub)
            else:
                result = Proof(s, rule, subproofs, principal)
                break
        self.memo[s] = result
        return result


def _shape(p):
    """Rule, principal and conclusion of every node, in preorder."""
    return p if p is None else [(node.rule, node.principal, node.conclusion)
                                for node, _ in preorder(p, _premises)]


_premises = attrgetter("premises")


def _node_conclusions(proofs):
    """The distinct conclusions of every node of ``proofs``."""
    seen = set()
    stack = list(proofs)
    while stack:
        node = stack.pop()
        seen.add(node.conclusion)
        stack.extend(node.premises)
    return seen


# L1starDiaM goals the thin-indexed population does not reach: units,
# empty brackets, empty slash arguments, mismatched indices
_INDEXED_GOALS = [
    "[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2",
    "[:1 boxd:1 p ]:1 => p",
    "[:1 boxd:2 p ]:1 => p",
    "[:1 ]:1 => dia:1 1",
    "[:1 ]:1 => dia:2 1",
    "1 [:1 p 1 ]:1 => dia:1 p",
    "=> boxd:1 (p / p)",
    "dia:1 (p / 1) [:2 1 \\ q ]:2 => (dia:1 p) * q",
    "p / (q / q) [:1 q \\ (q * 1) ]:1 => p * dia:1 (1 \\ q)",
    "[:1 boxd:1 (p \\ p) ]:1 [:2 dia:2 1 ]:2 p => p * dia:2 1",
]


class TestAgreement:
    def test_exhaustive_small_universe(self):
        prover = Prover(LDIA)
        n_provable = 0
        for s in _small_sequents(2):
            got = prover.prove(s)
            want = _alt_provable(s, LDIA)
            assert (got is not None) == want, print_sequent(s)
            if got is not None:
                n_provable += 1
                assert got.conclusion == s
                assert check(got, LDIA)
                assert check(got, LSTAR_DIA)
                # derivability forces equal free-group images
                assert word_of(s.antecedent) == word_of(s.succedent)
        assert n_provable > 20

    def test_sampled_unit_universe(self):
        import random
        rng = random.Random(20240817)
        ts = _types(2, prims=("p",), unit=True)
        prover = Prover(L1STAR_DIA)
        batch = [sequent((leaf(t),), t) for t in ts[:40]]
        for _ in range(300):
            shape = rng.choice(_SHAPES_1 + _SHAPES_2 + [lambda: ()])
            n = shape.__code__.co_argcount
            batch.append(sequent(shape(*(rng.choice(ts) for _ in range(n))),
                                 rng.choice(ts)))
        seen_provable = 0
        for s in batch:
            got = prover.prove(s)
            assert (got is not None) == _alt_provable(s, L1STAR_DIA), \
                print_sequent(s)
            if got is not None:
                seen_provable += 1
                assert check(got, L1STAR_DIA)
        assert seen_provable >= 40

    def test_nodes_match_the_recursive_positions(self, interp_population):
        goals = _node_conclusions(pf for _, pf in interp_population)
        for s in goals:
            h = s.antecedent
            assert list(nodes(h)) == list(_ref_positions(h)), \
                print_sequent(s)

    def test_instances_match_the_replaced_pair(self, interp_population):
        def agree(goals, *calcs):
            for s in goals:
                for calc in calcs:
                    assert list(instances(s, calc)) == \
                        _ref_balanced_triples(s, calc), \
                        (print_sequent(s), calc.name)

        agree(_small_sequents(2), LDIA, LSTAR_DIA, L1STAR_DIA)
        ts = _types(1, prims=("p",), unit=True)
        agree([sequent(shape(t), c) for shape in _SHAPES_1
               for t in ts for c in ts]
              + [sequent((), c) for c in ts]
              + [sequent((leaf(t), leaf(u)), UNIT) for t in ts for u in ts],
              L1STAR_DIA)
        proofs = [pf for _, pf in interp_population]
        agree(_node_conclusions(proofs), LDIA, L1STAR_DIA)
        thin = [thin_index(pf, LDIA)[0] for pf in proofs[::10]]
        agree(_node_conclusions(thin), L1STAR_DIA_M)
        agree(map(parse_sequent, _INDEXED_GOALS), L1STAR_DIA_M)

    def test_word_guided_search_matches_the_reference(
            self, interp_population, monkeypatch):
        # every canonical proof is the one the unfiltered search finds,
        # and on every goal the search reaches, ``instances`` yields the
        # reference instances whose premises are all balanced (for the
        # interpolation population, the test above covers the goals)
        def agree(roots, proofs, goals):
            ref = _RefProver(LDIA)
            for s, pf in zip(roots, proofs):
                assert _shape(pf) == _shape(ref.prove(s)), print_sequent(s)
            for s in goals:
                assert _balanced(s), print_sequent(s)
                assert list(instances(s, LDIA)) == \
                    _ref_balanced_triples(s, LDIA), print_sequent(s)

        roots, proofs = zip(*interp_population)
        agree(roots, proofs, ())

        prover = Prover(LDIA)
        rows = [(s, pf) for s in _reduction_candidates()
                for pf in [prover.prove(s)] if pf is not None]
        assert len(rows) == 2424
        roots, proofs = zip(*rows)
        agree(roots, proofs, _node_conclusions(proofs))

        calls, provers = [], []

        class Recording(Prover):
            def __init__(self, calc):
                super().__init__(calc)
                provers.append(self)

            def prove(self, s):
                pf = super().prove(s)
                calls.append((s, pf))
                return pf

        monkeypatch.setattr(compiler, "Prover", Recording)
        build_rulesets({"p"}, 3, "Ldia")
        (build,) = provers
        roots, proofs = zip(*calls)
        agree(roots, proofs, build.memo)



_type_strategy = st.recursive(
    st.sampled_from([prim("p"), prim("q")]),
    lambda inner: st.one_of(
        st.builds(under, inner, inner),
        st.builds(over, inner, inner),
        st.builds(prod, inner, inner),
        st.builds(dia, inner),
        st.builds(boxdown, inner),
    ),
    max_leaves=4,
)


class TestProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_type_strategy)
    def test_identity_is_provable(self, t):
        p = prove(sequent((leaf(t),), t), LDIA)
        assert p is not None and check(p, LDIA)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_type_strategy)
    def test_proof_text_roundtrip(self, t):
        p = prove(sequent((leaf(t),), t), LDIA)
        q = parse_proof(print_proof(p))
        assert q == p
        assert check(q, LDIA)
        assert print_proof(q) == print_proof(p)


_AX = Proof(parse_sequent("p => p"), "Ax")


@functools.lru_cache(maxsize=None)
def _chain_conclusions():
    """``p (p\\p)^k => p`` for k = 1..1500, built once."""
    p, pp = leaf(prim("p")), leaf(under(prim("p"), prim("p")))
    return [sequent((p,) + (pp,) * k, prim("p")) for k in range(1, 1501)]


def _chain(bottom):
    """``p (p\\p)^1500 => p`` by 1500 UnderL nodes, each over an Ax leaf
    and the chain one shorter, built bottom up from ``bottom``."""
    node = bottom
    for s in _chain_conclusions():
        node = Proof(s, "UnderL", (_AX, node))
    return node


class TestCheck:
    def test_rejects_wrong_calculus(self):
        p = prove(parse_sequent(GOLDEN), LDIA)
        assert not check(p, L)
        u = prove(parse_sequent("=> 1"), L1STAR)
        assert check(u, L1STAR_DIA)
        assert not check(u, LSTAR)

    def test_rejects_tampering(self):
        p = prove(parse_sequent(GOLDEN), LDIA)
        wrong_rule = Proof(p.conclusion, "DiaR", p.premises)
        assert not check(wrong_rule, LDIA)
        missing = Proof(p.conclusion, p.rule, (), p.principal)
        assert not check(missing, LDIA)
        swapped = Proof(p.conclusion, p.rule,
                        (prove(parse_sequent("p => p"), LDIA),), p.principal)
        assert not check(swapped, LDIA)

    def test_infers_and_records_principals(self):
        q = parse_proof(GOLDEN_PROOF)
        assert q.principal is None
        assert check(q, LDIA)
        under_node = q.premises[0].premises[0].premises[0]
        assert under_node.rule == "UnderL"
        assert under_node.principal == ((), 0, 1)

    def test_rejects_illegal_instances_without_raising(self):
        ax = {t: Proof(parse_sequent(f"{t} => {t}"), "Ax") for t in "pq"}
        # UnderL with its principal on a non-slash leaf, or of the wrong
        # arity or shape
        s = parse_sequent("p p \\ q => q")
        assert check(Proof(s, "UnderL", (ax["p"], ax["q"]), ((), 0, 1)), LDIA)
        for bad in (((), 0, 0), ((), 1), ((), 0, 1, 2), ((7,), 0, 1), 7):
            assert not check(Proof(s, "UnderL", (ax["p"], ax["q"]), bad),
                             LDIA), bad
        # a rule that takes no principal must not record one
        assert not check(Proof(ax["p"].conclusion, "Ax", (), ((), 0)), LDIA)
        # ProdR at k = 0 and OverL with an empty argument: starred only
        empty_arg = Proof(parse_sequent("=> q / q"), "OverR", (ax["q"],))
        split0 = Proof(parse_sequent("q => (q / q) * q"), "ProdR",
                       (empty_arg, ax["q"]), 0)
        over0 = Proof(parse_sequent("p / (q / q) => p"), "OverL",
                      (empty_arg, ax["p"]), ((), 0, 1))
        for node in (split0, over0):
            assert check(node, LSTAR_DIA)
            assert not check(node, LDIA)
            node.principal = None
            assert not check(node, LDIA)
            assert check(node, LSTAR_DIA)
        # BoxDownL needs the bracket's index to be the boxd's
        for text, ok in (("[:2 boxd:2 p ]:2 => p", True),
                         ("[:1 boxd:2 p ]:1 => p", False)):
            for principal in (((), 0), None):
                node = Proof(parse_sequent(text), "BoxDownL", (ax["p"],),
                             principal)
                assert check(node, LDIA_M) is ok, (text, principal)
        # a recorded principal must be the one that matches
        q = parse_proof(GOLDEN_PROOF)
        under_node = q.premises[0].premises[0].premises[0]
        under_node.principal = ((), 1, 1)
        assert not check(q, LSTAR_DIA)
        under_node.principal = None
        assert check(q, LSTAR_DIA)
        assert under_node.principal == ((), 0, 1)

    def test_rejects_unbalanced_arguments(self, interp_population):
        # each node concludes a balanced sequent at an instance whose
        # argument span does not have the argument type's word
        for calc, text, rule, principal, premises in (
                (LSTAR_DIA, "p p \\ p => p", "UnderL", ((), 1, 1),
                 ("=> p", "p p => p")),
                (LDIA, "q q \\ q p \\ p => q", "UnderL", ((), 1, 2),
                 ("q \\ q => p", "q p => q")),
                (LDIA, "p / p p \\ p p => p", "OverL", ((), 0, 2),
                 ("p \\ p => p", "p p => p")),
                (LDIA, "p p p \\ p => p * p", "ProdR", 2,
                 ("p p => p", "p \\ p => p"))):
            s = parse_sequent(text)
            assert _balanced(s)
            assert principal not in {pr for r, pr, _ in instances(s, calc)}
            subproofs = [Proof(parse_sequent(t), "Ax") for t in premises]
            assert _ref_premises_of(s, rule, principal, calc) == \
                tuple(q.conclusion for q in subproofs)
            for recorded in (principal, None):
                node = Proof(s, rule, subproofs, recorded)
                assert check(node, calc) is False, (text, recorded)
        assert all(check(pf, LDIA) for _, pf in interp_population)

    def test_deeper_than_the_recursion_limit(self):
        assert len(_chain_conclusions()) > sys.getrecursionlimit()
        assert check(_chain(_AX), LDIA)
        tampered = Proof(_AX.conclusion, "Ax", (_AX,))
        assert not check(_chain(tampered), LDIA)

    def test_deep_proof_walks(self):
        # every walk over a proof takes one deeper than the recursion limit
        pf = _chain(_AX)
        assert pf == _chain(_AX) and hash(pf) == hash(_chain(_AX))
        for bottom in (Proof(_AX.conclusion, "Ax", (_AX,)),
                       Proof(parse_sequent("q => q"), "Ax"),
                       Proof(_AX.conclusion, "UnitR")):
            assert pf != _chain(bottom)
        assert parse_proof(print_proof(pf)) == pf
        thin, theta = thin_index(pf, LDIA)
        assert is_thin(thin.conclusion) and check(thin, LDIA_M)
        assert deindex_proof(thin, theta) == pf

    def test_parse_proof_errors(self):
        with pytest.raises(ValueError):
            parse_proof("")
        with pytest.raises(ValueError):
            parse_proof(" Ax  p => p")
        with pytest.raises(ValueError):
            parse_proof("Nope  p => p")
        with pytest.raises(ValueError):
            parse_proof("Ax  p => p\nAx  q => q")

    def test_deindex_proof(self):
        s = parse_sequent("[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2")
        p = prove(s, LDIA_M)
        theta = {"p1": "a", "p2": "b"}
        q = deindex_proof(p, theta)
        assert print_sequent(q.conclusion) == "[ [ a ] dia a \\ b ] => boxd dia dia b"
        assert check(q, LDIA)



def _print_proof_recursive(p):
    """The recursive ``print_proof`` the stack loop replaced."""
    lines = []

    def walk(node, depth):
        lines.append(f"{'  ' * depth}{node.rule}  {print_sequent(node.conclusion)}")
        for q in node.premises:
            walk(q, depth + 1)

    walk(p, 0)
    return "\n".join(lines)


def _parse_proof_recursive(text):
    """The recursive ``parse_proof`` the stack loop replaced."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise ValueError(f"line {lineno}: odd indentation")
        parts = stripped.split(None, 1)
        if len(parts) != 2 or parts[0] not in RULES:
            raise ValueError(f"line {lineno}: expected '<rule>  <sequent>'")
        try:
            s = parse_sequent(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries.append((indent // 2, parts[0], s))
    if not entries:
        raise ValueError("empty proof text")

    def build(i, depth):
        d, rule, s = entries[i]
        if d != depth:
            raise ValueError(f"node {i}: expected depth {depth}, got {d}")
        i += 1
        premises = []
        while i < len(entries) and entries[i][0] > depth:
            sub, i = build(i, depth + 1)
            premises.append(sub)
        return Proof(s, rule, tuple(premises)), i

    root, end = build(0, 0)
    if end != len(entries):
        raise ValueError("trailing proof lines outside the root derivation")
    return root


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _random_proof_text(rng):
    """Proof-shaped text, often malformed: depth jumps, stray roots,
    odd indents, blank lines, unknown rules and bad sequents."""
    lines, depth = [], 0
    for i in range(rng.randint(0, 9)):
        depth = rng.randint(0, depth + 2) if i else rng.choice((0, 0, 0, 1))
        rule = rng.choice(("Ax", "UnderL", "DiaR", "ProdR"))
        seq = rng.choice(("p => p", "[ p ] p \\ q => dia q", "=> 1"))
        if rng.random() < 0.03:
            rule, seq = rng.choice(((rule, "p =>"), ("Nope", seq)))
        indent = "  " * depth + (" " if rng.random() < 0.03 else "")
        lines.append(f"{indent}{rule}  {seq}")
        if rng.random() < 0.1:
            lines.append("   ")
    return "\n".join(lines)


class TestProofText:
    def test_matches_the_recursive_versions(self):
        rng = random.Random(11)
        for _ in range(2000):
            text = _random_proof_text(rng)
            got = _parse_outcome(parse_proof, text)
            assert got == _parse_outcome(_parse_proof_recursive, text), text
            if isinstance(got, Proof):
                assert print_proof(got) == _print_proof_recursive(got)
        for text in (GOLDEN, "=> 1", "[ p p \\ q ] => dia q",
                     "p / q q => p", "p * q => p * q"):
            p = prove(parse_sequent(text), L1STAR_DIA)
            assert print_proof(p) == _print_proof_recursive(p)

    def test_deep_chain_roundtrips(self):
        text = "\n".join(f"{'  ' * d}Ax  p => p" for d in range(5000))
        assert print_proof(parse_proof(text)) == text

    def test_parse_leaves_no_cycles(self):
        gc.collect()
        gc.disable()
        try:
            print_proof(parse_proof(GOLDEN_PROOF))
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


class TestEngine:
    def test_timeout(self):
        s = parse_sequent(" ".join(["q"] + ["p \\ p"] * 12 + ["=> q"]))
        with pytest.raises(ProofSearchTimeout):
            prove(s, LDIA, timeout_ms=0)
        assert prove(s, LDIA) is None

    def test_timeout_polled_on_the_first_goal(self):
        with pytest.raises(ProofSearchTimeout):
            prove(parse_sequent("p => p"), LDIA, timeout_ms=0)
        # a reused prover polls again on the first goal of the next call
        shared = Prover(LDIA, timeout_ms=0)
        for _ in range(2):
            with pytest.raises(ProofSearchTimeout):
                shared.prove(parse_sequent("p => p"))

    def test_slash_chains_enter_linear_goals(self):
        # ``OverL`` tries argument ends shortest first and ``UnderL``
        # longest first, but both reach only the one balanced end, so
        # the two chains enter the same goals: the chain one shorter
        # and ``p => p`` per level
        class Counting(Prover):
            goals = 0

            def _search(self, s):
                self.goals += 1
                return super()._search(s)

        n = 100
        counts = []
        for text in ("p / p " * n + "p => p", "p" + " p \\ p" * n + " => p"):
            prover = Counting(LDIA)
            assert prover.prove(parse_sequent(text)) is not None
            counts.append(prover.goals)
        assert counts == [2 * n + 1] * 2

    def test_prover_reuse_matches_fresh_calls(self):
        shared = Prover(LDIA)
        for text in [GOLDEN, "dia boxd p dia boxd q => dia boxd (p * q)",
                     "p => boxd dia p", GOLDEN]:
            s = parse_sequent(text)
            a, b = shared.prove(s), prove(s, LDIA)
            assert (a is None) == (b is None)
            if a is not None:
                assert print_proof(a) == print_proof(b)
        assert len(shared.memo) > 0


class TestTranslation:
    def test_goldens(self):
        assert str(translate_flat(parse_type("dia p"))) == "m * (p * n)"
        assert str(translate_flat(parse_type("boxd p"))) == "(m \\ p) / n"
        assert str(translate_flat(parse_type("dia boxd p"))) == \
            "m * (((m \\ p) / n) * n)"
        assert str(translate_flat(parse_type("p \\ q"))) == "p \\ q"
        assert translate_flat(parse_type("p * q")) is parse_type("p * q")

    def test_errors(self):
        with pytest.raises(ValueError):
            translate_flat(parse_type("dia m"))
        with pytest.raises(ValueError):
            translate_flat(parse_type("n"))
        with pytest.raises(ValueError):
            translate_flat(parse_type("dia:1 p"))

    def test_image_of_failed_distribution_is_provable(self):
        # the translation forgets bracket discipline: the distribution
        # over the product, underivable with brackets, holds flatly
        a = translate_flat(parse_type("dia boxd p"))
        b = translate_flat(parse_type("dia boxd q"))
        c = translate_flat(parse_type("dia boxd (p * q)"))
        assert prove(parse_sequent("dia boxd p dia boxd q => dia boxd (p * q)"),
                     LDIA) is None
        assert prove(sequent((leaf(a), leaf(b)), c), L) is not None

    def test_translation_preserves_provability(self):
        s = parse_sequent("dia p => dia p")
        img = sequent(tuple(leaf(translate_flat(tr.type))
                            for tr in s.antecedent),
                      translate_flat(s.succedent))
        assert prove(s, LDIA) is not None
        assert prove(img, L) is not None


class TestGuardedness:
    def test_cases(self):
        good = ["p", "dia 1", "dia dia 1", "p \\ dia 1", "boxd dia 1",
                "dia (p * dia 1)"]
        bad = ["1", "boxd 1", "dia (1 \\ 1)", "1 \\ p", "dia (p * 1)"]
        for text in good:
            assert is_guarded(parse_type(text)), text
        for text in bad:
            assert not is_guarded(parse_type(text)), text
