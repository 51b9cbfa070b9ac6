"""Tests for interpolant extraction, thin indexing, bracket
elimination, and the Cut reduction."""

import hashlib
import re
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from lambrack.cfgkit import (
    CutBase, cut_derives, cut_leaf, cut_node, replay_cuts,
)
from lambrack.compiler import build_rulesets, enum_types
from lambrack.freegroup import wlen, word_of
from lambrack import interpolate, syntax
from lambrack.harness import _balanced, _rows, _succedents
from lambrack.interpolate import (
    InterpolationResult, _contract_fault, _extract, cut_reduce,
    cut_reduce_flat, extract_interpolant, indexed_counterpart, partition_at,
    thin_index,
)
from lambrack.prover import (
    RULES, Proof, Prover, apply_rule, check, is_guarded, print_proof, prove,
)
from lambrack.syntax import (
    HOLE, L1STAR, L1STAR_DIA, L1STAR_DIA_M, LDIA, LDIA_M, LSTAR_DIA, UNIT,
    boxdown, bracket, bracket_addresses, children_at, deindex, dia, fold,
    _counts_of, hole_coords, is_thin, leaf, length, over, parse_sequent,
    parse_type, partitions, plug, preorder, prim, prim_counts, print_hedge,
    print_sequent, print_type, prod, replace_span, sequent, sequent_types,
    subtree, under,
)
from helpers import cut_candidates, eliminate_bracket
from test_prover import (
    GOLDEN, _principals, _ref_check, _ref_principals, _shape,
    _small_sequents,
)

P, Q = prim("p"), prim("q")


# Sequent rows swept at every partition, by calculus: the unit
# calculus unguarded, the starred calculus, the unit calculus in
# guarded mode, and plain rows whose brackets get eliminated.
UNIT_ROWS = [
    "p => p",
    "p p \\ q => q",
    "1 p => p",
    "p 1 => p",
    "1 => 1",
    "=> 1",
    "p p \\ q q \\ q => q",
    "[ p ] => dia p",
    "[ 1 p ] => dia p",
    "[ p ] dia p \\ q => q",
    "[ [ p ] ] => dia dia p",
    "p * q => p * (q * 1)",
    "[ 1 ] => dia 1",
    "q / p p => q * 1",
    "q / p p 1 => q",
    "[ [ boxd q ] 1 ] => dia q",
]

STARRED_ROWS = [
    "=> p / p",
    "p => q / (p \\ q)",
    "[ p p \\ q ] => dia q",
    "q / p => q / p",
    "p \\ p => p \\ p",
    "dia boxd p => dia boxd p",
]

GUARDED_ROWS = [
    "[ ] => dia 1",
    "dia 1 / dia 1 [ ] => dia 1",
    "[ ] dia 1 \\ p p \\ q => q",
    "[ dia 1 dia 1 \\ p ] => dia p",
    "[ p [ ] ] => dia (p * dia 1)",
    "p => (p * dia 1) / dia 1",
]

BRACKET_ROWS = [
    "[ p p \\ boxd p ] => p",
    "[ [ p ] dia p \\ p ] => dia p",
    "q / dia p [ p ] => q",
    "[ p ] dia p \\ dia p => dia p",
]


def _partitions(ante, calc):
    """Every selectable span of the hedge, empty ones only with a unit."""
    for parent in [()] + list(bracket_addresses(ante)):
        width = len(children_at(ante, parent))
        for lo in range(width + 1):
            start = lo if calc.unit else lo + 1
            for hi in range(start, width + 1):
                yield partition_at(ante, parent, lo, hi)


def _provable_small(calc=LDIA):
    out = []
    for s in _small_sequents(2):
        pf = prove(s, calc)
        if pf is not None:
            out.append((s, pf))
    return out


class TestPartitionAt:
    def test_round_trip(self):
        ante = (leaf(P), bracket((leaf(Q), leaf(P))), leaf(Q))
        part = partition_at(ante, (1,), 0, 1)
        assert plug(part.context, part.selected) == ante
        assert part.selected == (leaf(Q),)
        assert hole_coords(part.context) == ((1,), 0)

    types = st.sampled_from([P, Q, under(P, Q), dia(P), prod(P, Q)])

    @st.composite
    def hedges(draw, depth=2):
        kids = []
        for _ in range(draw(st.integers(0, 3))):
            if depth > 0 and draw(st.booleans()):
                kids.append(bracket(draw(TestPartitionAt.hedges(depth - 1))))
            else:
                kids.append(leaf(draw(TestPartitionAt.types)))
        return tuple(kids)

    @settings(max_examples=120, deadline=None)
    @given(hedges(), st.data())
    def test_plug_restores_antecedent(self, ante, data):
        parents = [()] + list(bracket_addresses(ante))
        parent = data.draw(st.sampled_from(parents))
        width = len(children_at(ante, parent))
        lo = data.draw(st.integers(0, width))
        hi = data.draw(st.integers(lo, width))
        part = partition_at(ante, parent, lo, hi)
        assert plug(part.context, part.selected) == ante
        assert hole_coords(part.context) == (parent, lo)
        assert len(part.selected) == hi - lo


class TestIndexedCounterpart:
    def test_mapping(self):
        assert indexed_counterpart(LDIA) is LDIA_M
        assert indexed_counterpart(LDIA_M) is LDIA_M
        assert indexed_counterpart(LSTAR_DIA) is L1STAR_DIA_M
        assert indexed_counterpart(L1STAR_DIA) is L1STAR_DIA_M
        assert indexed_counterpart(L1STAR_DIA_M) is L1STAR_DIA_M


class TestThinIndex:
    def test_golden_conclusion(self):
        pf = prove(parse_sequent(GOLDEN), LDIA)
        q, theta = thin_index(pf, LDIA)
        p1, p2 = prim("p1"), prim("p2")
        expected = sequent(
            (bracket((bracket((leaf(p1),), 1),
                      leaf(under(dia(p1, 1), p2))), 2),),
            boxdown(dia(dia(p2, 2), 3), 3))
        assert q.conclusion == expected
        assert theta == {"p1": "p", "p2": "p"}
        assert is_thin(q.conclusion)
        assert check(q, LDIA_M)
        assert deindex(q.conclusion, theta) == pf.conclusion

    def test_axiom(self):
        pf = prove(parse_sequent("p => p"), LDIA)
        q, theta = thin_index(pf, LDIA)
        assert q.conclusion == parse_sequent("p1 => p1")
        assert theta == {"p1": "p"}

    def test_small_sweep(self):
        for s, pf in _provable_small():
            q, theta = thin_index(pf, LDIA)
            assert is_thin(q.conclusion)
            assert check(q, LDIA_M)
            assert deindex(q.conclusion, theta) == s

    def test_indexed_proofs(self):
        # an indexed input is renamed apart like any other; deindexing
        # the new conclusion through theta strips the old indices too
        rows = [
            "[:1 p ]:1 => dia:1 p",
            "p3 / dia:1 (p1 * dia:2 (p2 / p2)) [:1 p1 [:2 ]:2 ]:1 => p3",
        ]
        for text in rows:
            s = parse_sequent(text)
            pf = prove(s, L1STAR_DIA_M)
            q, theta = thin_index(pf, L1STAR_DIA_M)
            assert is_thin(q.conclusion), text
            assert check(q, L1STAR_DIA_M), text
            assert deindex(q.conclusion, theta) == deindex(s), text

    def test_changed_conclusion_is_a_runtime_error(self, monkeypatch):
        # a rebuild whose conclusion does not deindex back to the input
        # stops with an error naming the sequent, also under python -O
        monkeypatch.setattr(interpolate, "prim", lambda name: P)
        pf = prove(parse_sequent("p p \\ q => q"), LDIA)
        with pytest.raises(RuntimeError,
                           match=re.escape("of p p \\ q => q to p p \\ p => p")):
            thin_index(pf, LDIA)


def _occurrence_bounds_ok(res, part, succedent):
    """Interpolant occurrence counts within the min of the two sides."""
    pe, me = prim_counts(res.interpolant), _counts_of(res.interpolant)[1]
    pl = prim_counts(part.selected)
    ml = _counts_of(part.selected)[1]
    ctx = sequent(plug(part.context, ()), succedent)
    pr_, mr = prim_counts(ctx), _counts_of(ctx)[1]
    return (all(v <= min(pl[k], pr_[k]) for k, v in pe.items())
            and all(v <= min(ml[k], mr[k]) for k, v in me.items()))


def _extraction_ok(res, part, s, calc):
    return (res.left_proof.conclusion == sequent(part.selected,
                                                 res.interpolant)
            and res.right_proof.conclusion == sequent(
                plug(part.context, (leaf(res.interpolant),)), s.succedent)
            and check(res.left_proof, calc)
            and check(res.right_proof, calc)
            and _occurrence_bounds_ok(res, part, s.succedent))


def _reference_thin_rebuild(p):
    """The rule-by-rule thin rebuild that ``apply_rule`` replaced, kept
    verbatim as the reference for its differential test."""
    counters = {"prim": 0, "index": 0}
    theta = {}

    def fresh_prim(original):
        counters["prim"] += 1
        name = f"p{counters['prim']}"
        theta[name] = original.name
        return prim(name)

    def fresh_index() -> int:
        counters["index"] += 1
        return counters["index"]

    def rebuild(node: Proof) -> Proof:
        prems = tuple(rebuild(q) for q in node.premises)
        rule, pr = node.rule, node.principal
        if rule == "Ax":
            t = fresh_prim(node.conclusion.succedent)
            return Proof(sequent((leaf(t),), t), "Ax")
        if rule == "UnitR":
            return Proof(sequent((), UNIT), "UnitR")
        if rule == "UnderR" or rule == "OverR":
            # the argument is the premise's first (\) or last (/) leaf
            side = rule == "OverR"
            s1 = prems[0].conclusion
            h, c = s1.antecedent, s1.succedent
            a, rest = (h[-1], h[:-1]) if side else (h[0], h[1:])
            t = over(c, a.type) if side else under(a.type, c)
            return Proof(sequent(rest, t), rule, prems)
        if rule == "ProdR":
            s1, s2 = prems[0].conclusion, prems[1].conclusion
            return Proof(sequent(s1.antecedent + s2.antecedent,
                                 prod(s1.succedent, s2.succedent)),
                         "ProdR", prems, principal=pr)
        if rule == "DiaR":
            n = fresh_index()
            s1 = prems[0].conclusion
            return Proof(sequent((bracket(s1.antecedent, n),),
                                 dia(s1.succedent, n)), "DiaR", prems)
        if rule == "BoxDownR":
            s1 = prems[0].conclusion
            br = s1.antecedent[0]
            return Proof(sequent(br.children, boxdown(s1.succedent, br.index)),
                         "BoxDownR", prems)
        if rule == "UnderL" or rule == "OverL":
            # the result leaf at the block's start becomes the argument
            # hedge with the connective leaf on its right (\) or left (/)
            side = rule == "OverL"
            parent, x = pr[0], pr[1]
            arg, ctx = prems[0].conclusion, prems[1].conclusion
            b = children_at(ctx.antecedent, parent)[x].type
            a = arg.succedent
            c = (leaf(over(b, a) if side else under(a, b)),)
            new_ante = replace_span(
                ctx.antecedent, parent, x, x + 1,
                c + arg.antecedent if side else arg.antecedent + c)
            return Proof(sequent(new_ante, ctx.succedent), rule, prems,
                         principal=pr)
        ctx = prems[0].conclusion
        parent, j = pr
        if rule == "ProdL":
            sibs = children_at(ctx.antecedent, parent)
            t = prod(sibs[j].type, sibs[j + 1].type)
            new_ante = replace_span(ctx.antecedent, parent, j, j + 2,
                                    (leaf(t),))
        elif rule == "DiaL":
            br = children_at(ctx.antecedent, parent)[j]
            t = dia(br.children[0].type, br.index)
            new_ante = replace_span(ctx.antecedent, parent, j, j + 1,
                                    (leaf(t),))
        elif rule == "UnitL":
            new_ante = replace_span(ctx.antecedent, parent, j, j,
                                    (leaf(UNIT),))
        elif rule == "BoxDownL":
            n = fresh_index()
            a = children_at(ctx.antecedent, parent)[j].type
            new_ante = replace_span(
                ctx.antecedent, parent, j, j + 1,
                (bracket((leaf(boxdown(a, n)),), n),))
        else:
            raise AssertionError(f"unhandled rule {rule}")
        return Proof(sequent(new_ante, ctx.succedent), rule, prems,
                     principal=pr)

    out = rebuild(p)
    assert deindex(out.conclusion, theta) == deindex(p.conclusion)
    return out, theta


def _apply_rule_proofs(population):
    """Every population proof, the digest's unit, starred and guarded
    rows, and the thin rebuild of each."""
    proofs = [pf for _, pf in population]
    for rows, calc in ((UNIT_ROWS, L1STAR_DIA), (STARRED_ROWS, LSTAR_DIA),
                       (GUARDED_ROWS, L1STAR_DIA)):
        proofs += [prove(parse_sequent(t), calc) for t in rows]
    return proofs + [interpolate._thin_rebuild(pf)[0] for pf in proofs]


class TestApplyRule:
    def test_reproduces_every_node(self, interp_population):
        seen = set()
        for pf in _apply_rule_proofs(interp_population):
            stack = [pf]
            while stack:
                node = stack.pop()
                stack.extend(node.premises)
                if not node.premises:
                    continue
                s = node.conclusion
                index = None
                if node.rule == "DiaR":
                    index = s.succedent.index
                elif node.rule == "BoxDownL":
                    parent, j = node.principal
                    index = children_at(s.antecedent, parent)[j].index
                out = apply_rule(node.rule, node.principal, node.premises,
                                 index)
                assert out.conclusion == s, print_proof(node)
                assert out.principal == node.principal
                seen.add((node.rule, index is not None))
        rules = set(RULES) - {"Ax", "UnitR"}
        assert {rule for rule, _ in seen} == rules
        assert {("DiaR", False), ("DiaR", True), ("BoxDownL", False),
                ("BoxDownL", True)} <= seen

    def test_thin_rebuild_matches_the_rule_by_rule_reference(
            self, interp_population):
        for pf in _apply_rule_proofs(interp_population):
            got, theta = interpolate._thin_rebuild(pf)
            want, want_theta = _reference_thin_rebuild(pf)
            # the proof text and every node's principal
            assert _proof_record(got) == _proof_record(want)
            assert theta == want_theta

    def test_rules_without_premises(self):
        with pytest.raises(ValueError):
            apply_rule("Ax", None, ())
        with pytest.raises(ValueError):
            apply_rule("UnitR", None, ())


class TestExtractGoldens:
    def test_unit_bracket_interpolant(self):
        # without the unit no interpolant exists for this partition;
        # with it, the diamond-wrapped product does the job
        s = parse_sequent(
            "p3 / dia:1 (p1 * dia:2 (p2 / p2)) [:1 p1 [:2 ]:2 ]:1 => p3")
        pf = prove(s, L1STAR_DIA_M)
        assert pf is not None
        part = partition_at(s.antecedent, (), 1, 2)
        res = extract_interpolant(pf, part, L1STAR_DIA_M)
        assert res.interpolant is parse_type("dia:1 (p1 * dia:2 1)")
        assert _extraction_ok(res, part, s, L1STAR_DIA_M)

    def test_axiom_whole_span(self):
        s = parse_sequent("p => p")
        pf = prove(s, LDIA)
        part = partition_at(s.antecedent, (), 0, 1)
        res = extract_interpolant(pf, part, LDIA)
        assert res.interpolant is P

    def test_empty_selection_gives_unit(self):
        s = parse_sequent("p p \\ p => p")
        pf = prove(s, L1STAR_DIA)
        part = partition_at(s.antecedent, (), 1, 1)
        res = extract_interpolant(pf, part, L1STAR_DIA, guarded=False)
        assert res.interpolant is UNIT
        assert _extraction_ok(res, part, s, L1STAR_DIA)

    def test_empty_selection_needs_unit(self):
        s = parse_sequent("p p \\ p => p")
        pf = prove(s, LDIA)
        part = partition_at(s.antecedent, (), 1, 1)
        with pytest.raises(ValueError):
            extract_interpolant(pf, part, LDIA)

    def test_guarded_needs_nonempty_selection(self):
        s = parse_sequent("p p \\ p => p")
        pf = prove(s, L1STAR_DIA)
        part = partition_at(s.antecedent, (), 1, 1)
        with pytest.raises(ValueError):
            extract_interpolant(pf, part, L1STAR_DIA, guarded=True)

    def test_mismatched_partition(self):
        s = parse_sequent("p p \\ p => p")
        pf = prove(s, LDIA)
        other = parse_sequent("q q \\ p => p")
        part = partition_at(other.antecedent, (), 0, 1)
        with pytest.raises(ValueError):
            extract_interpolant(pf, part, LDIA)


def _reference_bounds_ok(interpolant, part, succedent):
    """The occurrence bound as ``_interpolant_bounds_ok`` stated it."""
    ctx = sequent(plug(part.context, ()), succedent)
    for counter in (prim_counts, lambda x: _counts_of(x)[1]):
        inner = counter(interpolant)
        selected = counter(part.selected)
        outer = counter(ctx)
        for key, n in inner.items():
            if n > min(selected[key], outer[key]):
                return False
    return True


def _reference_cli_fault(s, part, res, calc):
    """The check ``lambrack interpolate`` wrote out by hand."""
    left = sequent(part.selected, res.interpolant)
    right = sequent(plug(part.context, (leaf(res.interpolant),)),
                    s.succedent)
    if (res.left_proof.conclusion != left
            or res.right_proof.conclusion != right
            or not check(res.left_proof, calc)
            or not check(res.right_proof, calc)):
        return "an interpolation proof fails its check against its cut half"
    if not _reference_bounds_ok(res.interpolant, part, s.succedent):
        return "the interpolant has more occurrences than a side of the cut"
    return None


def _reference_sweep_ok(s, part, res, calc):
    """The check the interpolation sweep wrote out by hand."""
    left = sequent(part.selected, res.interpolant)
    right = sequent(plug(part.context, (leaf(res.interpolant),)),
                    s.succedent)
    return (res.left_proof.conclusion == left
            and res.right_proof.conclusion == right
            and check(res.left_proof, calc)
            and check(res.right_proof, calc)
            and _reference_bounds_ok(res.interpolant, part, s.succedent))


class TestContractFault:
    def _agree(self, s, coords, res, calc):
        part = partition_at(s.antecedent, *coords)
        fault = _contract_fault(s, *coords, res, calc)
        assert fault == _reference_cli_fault(s, part, res, calc)
        assert (fault is None) == _reference_sweep_ok(s, part, res, calc)
        return fault

    def test_matches_the_checks_it_replaces(self, interp_population):
        # every interpolation of the population, then each tampered:
        # a wrong interpolant, the two proofs swapped, and the whole
        # proof as the left one; the last two still hold where both
        # cut halves are one sequent or the selection is everything
        tally = Counter()
        for s, pf in interp_population:
            assert check(pf, LDIA)
            for coords in partitions(s.antecedent):
                e, left, right = _extract(pf, *coords, LDIA, False)
                tally["real", self._agree(
                    s, coords, InterpolationResult(e, left, right), LDIA)] += 1
                for kind, res in [
                        ("interpolant", InterpolationResult(
                            prod(e, e), left, right)),
                        ("swapped", InterpolationResult(e, right, left)),
                        ("other", InterpolationResult(e, pf, right))]:
                    tally[kind, self._agree(s, coords, res, LDIA)] += 1
        assert tally["real", None] == 9342
        assert tally["interpolant", None] == 0
        assert tally["swapped", None] == 22
        assert tally["other", None] == 1710

    def test_one_count_walk_per_object(self, monkeypatch):
        # the interpolant, the selection and the outer sequent are each
        # walked once for their primitive and modality counts together
        counts_of, calls = syntax._counts_of, []

        def counting(x):
            calls.append(x)
            return counts_of(x)

        monkeypatch.setattr(syntax, "_counts_of", counting)
        monkeypatch.setattr(interpolate, "_counts_of", counting,
                            raising=False)
        s = parse_sequent("p / p [ boxd p ] p \\ p p \\ p => p")
        pf = prove(s, LDIA)
        spans = 0
        for coords in partitions(s.antecedent):
            e, left, right = _extract(pf, *coords, LDIA, False)
            del calls[:]
            assert _contract_fault(s, *coords,
                                   InterpolationResult(e, left, right),
                                   LDIA) is None
            assert len(calls) == 3
            spans += 1
        assert spans > 5

    def test_interpolant_over_the_bound(self):
        # both cut halves of (p / p) \ p are provable in LstarDia, but p
        # occurs 3 times in it and once in the selection
        s = parse_sequent("p => p")
        e = parse_type("(p / p) \\ p")
        res = InterpolationResult(e, prove(sequent(s.antecedent, e),
                                           LSTAR_DIA),
                                  prove(sequent((leaf(e),), P), LSTAR_DIA))
        fault = self._agree(s, ((), 0, 1), res, LSTAR_DIA)
        assert fault == ("the interpolant has more occurrences than a side "
                         "of the cut")


def _bare(p):
    """A copy of ``p`` with no principal recorded, as ``parse_proof``
    builds it."""
    return fold(p, attrgetter("premises"), lambda node, prems: Proof(
        node.conclusion, node.rule, prems))


class TestSweepMemos:
    def test_memos_change_no_result(self, interp_population):
        # in the sweep's order, with one shared _extract memo and the
        # marks check leaves on accepted nodes: every plain
        # interpolation is the one a memo-free _extract builds, node by
        # node, and its check gives the verdict of the reference check,
        # which keeps no marks; its copy bare of principals shares no
        # marked node and is refused wherever a node takes a principal
        extracted = {}
        proofs = 0
        for s, pf in interp_population:
            assert check(pf, LDIA)
            for coords in partitions(s.antecedent):
                got = _extract(pf, *coords, LDIA, False, extracted)
                want = _extract(pf, *coords, LDIA, False)
                assert got[0] is want[0]
                for g, w in zip(got[1:], want[1:]):
                    assert _shape(g) == _shape(w)
                    assert check(g, LDIA) is _ref_check(w, LDIA) is True
                    bare = _bare(g)
                    assert check(bare, LDIA) is all(
                        pr is None for pr in _principals(g))
                    assert _ref_principals(bare, LDIA) == _principals(g)
                    proofs += 1
        assert proofs == 2 * 9342


def _unit_identity():
    return Proof(sequent((leaf(UNIT),), UNIT), "UnitL",
                 (Proof(sequent((), UNIT), "UnitR", ()),), principal=((), 0))


def _telescope(i):
    """The canonical derivation of (1/1)^(i-1) 1/q q (1\\1)^i => 1.

    Each step strips one end of the row: the rightmost 1\\1 consumes
    everything to its left, then the leftmost 1/1 consumes everything
    to its right, down to 1/q q => 1.
    """
    lunit, runit, uq = over(UNIT, UNIT), under(UNIT, UNIT), over(UNIT, Q)
    row = (lunit,) * (i - 1) + (uq, Q) + (runit,) * i
    if i == 1:
        ax = Proof(sequent((leaf(Q),), Q), "Ax", ())
        e = Proof(sequent((leaf(uq), leaf(Q)), UNIT), "OverL",
                  (ax, _unit_identity()), principal=((), 0, 2))
    else:
        erow = (lunit,) * (i - 1) + (uq, Q) + (runit,) * (i - 1)
        e = Proof(sequent(tuple(map(leaf, erow)), UNIT), "OverL",
                  (_telescope(i - 1), _unit_identity()),
                  principal=((), 0, 2 * i))
    return Proof(sequent(tuple(map(leaf, row)), UNIT), "UnderL",
                 (e, _unit_identity()), principal=((), 0, 2 * i))


def _slash_family(n):
    """q, (1/q)\\1, (1/((1/q)\\1))\\1, ... all of free-group length one."""
    out = [Q]
    for _ in range(n):
        out.append(under(over(UNIT, out[-1]), UNIT))
    return out


class TestTelescopeFamily:
    def test_interpolants(self):
        family = _slash_family(3)
        for i in (1, 2, 3):
            d = _telescope(i)
            assert check(d, L1STAR)
            part = partition_at(d.conclusion.antecedent, (), i, 2 * i + 1)
            res = extract_interpolant(d, part, L1STAR)
            assert res.interpolant is family[i]
            assert _extraction_ok(res, part, d.conclusion, L1STAR)

    def test_family_facts(self):
        family = _slash_family(4)
        for a in family:
            assert wlen(word_of(a)) == 1
            assert prove(sequent((leaf(a),), a), L1STAR) is not None
        for a in family[1:]:
            assert prove(sequent((leaf(a),), family[0]), L1STAR) is None


class TestExtractSweeps:
    def test_plain_small_universe(self):
        seen = 0
        for s, pf in _provable_small():
            for part in _partitions(s.antecedent, LDIA):
                res = extract_interpolant(pf, part, LDIA)
                assert _extraction_ok(res, part, s, LDIA), print_sequent(s)
                seen += 1
        assert seen > 50

    def test_unit_universe(self):
        seen = 0
        for text in UNIT_ROWS:
            s = parse_sequent(text)
            pf = prove(s, L1STAR_DIA)
            assert pf is not None, text
            for part in _partitions(s.antecedent, L1STAR_DIA):
                res = extract_interpolant(pf, part, L1STAR_DIA,
                                          guarded=False)
                assert _extraction_ok(res, part, s, L1STAR_DIA), text
                seen += 1
        assert seen > 60

    def test_starred_universe(self):
        for text in STARRED_ROWS:
            s = parse_sequent(text)
            pf = prove(s, LSTAR_DIA)
            assert pf is not None, text
            for part in _partitions(s.antecedent, LSTAR_DIA):
                res = extract_interpolant(pf, part, LSTAR_DIA)
                assert _extraction_ok(res, part, s, LSTAR_DIA), text

    def test_guarded_universe(self):
        seen = 0
        for text in GUARDED_ROWS:
            s = parse_sequent(text)
            assert all(is_guarded(t) for t in sequent_types(s)), text
            pf = prove(s, L1STAR_DIA)
            assert pf is not None, text
            for parent in [()] + list(bracket_addresses(s.antecedent)):
                width = len(children_at(s.antecedent, parent))
                for lo in range(width):
                    for hi in range(lo + 1, width + 1):
                        part = partition_at(s.antecedent, parent, lo, hi)
                        res = extract_interpolant(pf, part, L1STAR_DIA)
                        assert is_guarded(res.interpolant), text
                        assert _extraction_ok(res, part, s, L1STAR_DIA)
                        seen += 1
        assert seen > 10


def thin_interpolant_length_ok(p, part, calc=LDIA_M):
    """``||E|| == |word(selected)|`` for a thin-conclusion proof."""
    if not is_thin(p.conclusion):
        raise ValueError("the conclusion is not thin")
    res = extract_interpolant(p, part, calc)
    return length(res.interpolant) == wlen(word_of(part.selected))


class TestThinInterpolantLength:
    def test_small_sweep(self):
        for s, pf in _provable_small():
            q, _ = thin_index(pf, LDIA)
            for part in _partitions(q.conclusion.antecedent, LDIA_M):
                assert thin_interpolant_length_ok(q, part)

    def test_golden(self):
        pf = prove(parse_sequent(GOLDEN), LDIA)
        q, _ = thin_index(pf, LDIA)
        ante = q.conclusion.antecedent
        part = partition_at(ante, (0,), 0, 1)
        assert thin_interpolant_length_ok(q, part)
        res = extract_interpolant(q, part, LDIA_M)
        assert length(res.interpolant) == wlen(word_of(part.selected))

    def test_rejects_non_thin(self):
        s = parse_sequent("p p \\ p => p")
        pf = prove(s, LDIA)
        part = partition_at(s.antecedent, (), 0, 1)
        with pytest.raises(ValueError):
            thin_interpolant_length_ok(pf, part)


def _bracket_hole(ante, beta):
    """The antecedent with the bracket at ``beta`` replaced by a hole."""
    return replace_span(ante, beta[:-1], beta[-1], beta[-1] + 1, (HOLE,))


def _recompose(s, beta, b, variant, pa, pb, calc):
    """Cut the two halves back together through the bridging sequent."""
    idx = 1 if calc.indexed else None
    if variant == "dia":
        bridge = sequent((bracket((leaf(b),), idx),), dia(b, idx))
    else:
        bridge = sequent((bracket((leaf(boxdown(b, idx)),), idx),), b)
    assert prove(bridge, calc) is not None
    inner = cut_node(cut_leaf(pa.conclusion), cut_leaf(bridge),
                     (bracket((HOLE,), idx),))
    full = cut_node(inner, cut_leaf(pb.conclusion), _bracket_hole(
        s.antecedent, beta))
    assert full.conclusion == s
    assert replay_cuts(full, {pa.conclusion, pb.conclusion, bridge})


class TestEliminateBracket:
    def test_dia_variant(self):
        s = parse_sequent("[ p ] => dia p")
        pf = prove(s, LDIA)
        b, variant, (pa, pb) = eliminate_bracket(pf, LDIA, (0,))
        assert (b, variant) == (P, "dia")
        assert pa.conclusion == parse_sequent("p => p")
        assert pb.conclusion == parse_sequent("dia p => dia p")
        assert check(pa, LDIA) and check(pb, LDIA)

    def test_boxd_variant(self):
        s = parse_sequent("[ boxd q ] => q")
        pf = prove(s, LDIA)
        b, variant, (pa, pb) = eliminate_bracket(pf, LDIA, (0,))
        assert (b, variant) == (Q, "boxd")
        assert pa.conclusion == parse_sequent("boxd q => boxd q")
        assert pb.conclusion == parse_sequent("q => q")

    def test_rule_acting_inside_the_bracket(self):
        # the slash step rewrites the bracket's own contents, so the
        # rebuilt half must carry the step, re-rooted to the bracket
        s = parse_sequent("[ p p \\ boxd p ] => p")
        pf = prove(s, LDIA)
        b, variant, (pa, pb) = eliminate_bracket(pf, LDIA, (0,))
        assert (b, variant) == (P, "boxd")
        assert pa.conclusion == parse_sequent("p p \\ boxd p => boxd p")
        assert pb.conclusion == parse_sequent("p => p")
        assert check(pa, LDIA) and check(pb, LDIA)
        _recompose(s, (0,), b, variant, pa, pb, LDIA)

    def test_recomposition_sweep(self):
        cases = [(s, pf) for s, pf in _provable_small()
                 if bracket_addresses(s.antecedent)]
        cases += [(parse_sequent(t), prove(parse_sequent(t), LDIA))
                  for t in BRACKET_ROWS]
        assert len(cases) >= 10
        for s, pf in cases:
            for beta in bracket_addresses(s.antecedent):
                b, variant, (pa, pb) = eliminate_bracket(pf, LDIA, beta)
                assert check(pa, LDIA) and check(pb, LDIA)
                _recompose(s, beta, b, variant, pa, pb, LDIA)

    def test_bridge_length_bound(self):
        # the bridging type is as short as the bracket contents' image
        s = parse_sequent("[ [ p ] dia p \\ p ] => dia p")
        pf = prove(s, LDIA)
        b, _, _ = eliminate_bracket(pf, LDIA, (0,))
        contents = children_at(s.antecedent, (0,))
        image = wlen(word_of(contents))
        assert length(b) <= max(1, image)


class TestCutReduce:
    def test_bracketless_calculus(self):
        with pytest.raises(ValueError):
            cut_reduce(prove(parse_sequent("p => p"), "L"), {"p"}, 2, "L")

    def test_failed_check_is_a_value_error(self):
        # the entry contract thin_index and extract_interpolant share
        with pytest.raises(ValueError, match=re.escape(
                "proof does not check in Ldia")):
            cut_reduce(Proof(parse_sequent("p => q"), "Ax"), {"p", "q"}, 2,
                       LDIA)

    def test_searches_nothing(self, monkeypatch):
        # the reduction works on the proof it is given, bracketed or flat
        proofs = [prove(parse_sequent(text), LDIA) for text in
                  ("[ [ p ] dia p \\ p ] => dia p",
                   "p p \\ p p \\ p p \\ p => p")]

        def no_search(*args):
            raise AssertionError("cut_reduce searched for a proof")

        monkeypatch.setattr(interpolate, "prove", no_search)
        monkeypatch.setattr(Prover, "prove", no_search)
        for pf in proofs:
            d = cut_reduce(pf, {"p"}, 4, LDIA)
            assert d.conclusion == pf.conclusion and replay_cuts(d)

    def test_empty_bracket_is_one_cut(self):
        s = parse_sequent("[ ] => dia 1")
        d = cut_reduce(prove(s, L1STAR_DIA), set(), 2, L1STAR_DIA)
        assert d.conclusion == s and d.cut_count() == 1 and replay_cuts(d)
        assert list(d.leaves()) == [s, parse_sequent("dia 1 => dia 1")]

    @pytest.mark.parametrize("text, bridge, leaves", [
        ("[ p ] => dia p", "[ p ] => dia p", ["p => p", "dia p => dia p"]),
        ("[ boxd q ] => q", "[ boxd q ] => q",
         ["boxd q => boxd q", "q => q"]),
    ])
    def test_two_cuts_through_the_bridge(self, text, bridge, leaves):
        s = parse_sequent(text)
        d = cut_reduce(prove(s, LDIA), {"p", "q"}, 3, LDIA)
        assert d.conclusion == s and d.cut_count() == 2 and replay_cuts(d)
        first, last = map(parse_sequent, leaves)
        assert list(d.leaves()) == [first, parse_sequent(bridge), last]

    def test_checks_the_proof_once(self, monkeypatch):
        # a bracketed input is checked and thin-indexed on entry, and
        # the bridge pieces are neither checked nor thin-indexed again
        s = parse_sequent("[ [ p ] dia p \\ p ] => dia p")
        pf = prove(s, LDIA)
        checked, rebuilt = [], []
        monkeypatch.setattr(interpolate, "check", lambda p, calc: (
            checked.append(p.conclusion) or check(p, calc)))
        monkeypatch.setattr(
            interpolate, "_thin_rebuild",
            lambda p, real=interpolate._thin_rebuild: (
                rebuilt.append(p.conclusion) or real(p)))
        d = cut_reduce(pf, {"p"}, 4, LDIA)
        assert d.cut_count() == 4 and replay_cuts(d)
        assert checked == [s]
        assert rebuilt == [s]

    def test_wrong_bridge_piece_is_a_runtime_error(self, monkeypatch):
        wrong = prove(parse_sequent("p => p"), LDIA)
        pf = prove(parse_sequent("[ p p \\ p ] => dia p"), LDIA)
        monkeypatch.setattr(interpolate, "_descend",
                            lambda *args: (P, "dia", wrong, wrong))
        with pytest.raises(RuntimeError, match=re.escape(
                "a reduction piece proves p => p, not p p \\ p => p")):
            cut_reduce(pf, {"p"}, 3, LDIA)

    def test_overlong_bridge_is_a_runtime_error(self, monkeypatch):
        wrong = prove(parse_sequent("p => p"), LDIA)
        pf = prove(parse_sequent("[ p ] => dia p"), LDIA)
        monkeypatch.setattr(interpolate, "_descend",
                            lambda *args: (over(P, P), "dia", wrong, wrong))
        with pytest.raises(RuntimeError, match=re.escape(
                "bridge type p / p of [ p ] => dia p exceeds the length "
                "bound 3 - 2")):
            cut_reduce(pf, {"p"}, 3, LDIA)

    def test_starred_empty_bracket_leaves_carry_the_unit(self):
        # LstarDia has no unit, yet an empty bracket is cut from
        # [ ] => dia 1: the leaves are sequents of the guarded L1starDia
        # base that compile_cfg builds for starred grammars
        s = parse_sequent("[ ] => dia (p / p)", LSTAR_DIA)
        d = cut_reduce(prove(s, LSTAR_DIA), {"p"}, 4, LSTAR_DIA)
        leaves = [parse_sequent("[ ] => dia 1", L1STAR_DIA),
                  parse_sequent("dia 1 => dia (p / p)", L1STAR_DIA)]
        assert d.conclusion == s and list(d.leaves()) == leaves
        for leaf_seq in leaves:
            with pytest.raises(ValueError):
                syntax.validate_sequent(leaf_seq, LSTAR_DIA)
            assert prove(leaf_seq, L1STAR_DIA) is not None

    @pytest.mark.parametrize("calc, counts", [
        (LDIA, (1691, 361, 64)), (L1STAR_DIA, (3181, 931, 319)),
    ], ids=["Ldia", "L1starDia"])
    def test_bracketed_cut_completeness(self, calc, counts):
        # every word-balanced candidate over {p} at length bound 3, with
        # rows of up to two types: provability and Cut-derivability
        # agree, and every bracketed provable is reduced by cut_reduce
        # to a derivation over the same base
        rules = build_rulesets({"p"}, 3, calc).rules
        base, members = CutBase(rules), set(rules)
        types = enum_types({"p"}, 3, calc.unit)
        succs = _succedents(types)
        prover, hedges = Prover(calc), {}
        balanced = provable = bracketed = 0
        for row, w, _ in _rows([types] * 2, 0 if calc.starred else 1):
            for _, _, h, succ in _balanced(row, w, succs, calc.starred,
                                           hedges):
                s = sequent(h, succ)
                balanced += 1
                pf = prover.prove(s)
                d = cut_derives(base, s)
                assert (pf is None) == (d is None), s
                if pf is None:
                    continue
                provable += 1
                if bracket_addresses(h):
                    bracketed += 1
                    d = cut_reduce(pf, {"p"}, 3, calc)
                    assert d.conclusion == s, s
                    assert replay_cuts(d, members), s
        assert (balanced, provable, bracketed) == counts


class TestCutReduceFlat:
    def test_width_two_is_a_leaf(self):
        s = parse_sequent("p p \\ p => p")
        d = cut_reduce_flat(s, {"p"}, 2, LDIA)
        assert d.is_leaf and d.conclusion == s

    def test_width_one_is_a_leaf(self):
        s = parse_sequent("p => p")
        d = cut_reduce_flat(s, {"p"}, 2, LDIA)
        assert d.is_leaf and d.conclusion == s

    def test_single_cut_chain(self):
        s = parse_sequent("p p \\ p p \\ p => p")
        d = cut_reduce_flat(s, {"p"}, 2, LDIA)
        assert d.conclusion == s
        assert d.cut_count() == 1
        assert set(d.leaves()) == {parse_sequent("p p \\ p => p")}
        assert replay_cuts(d)

    def _check_reduction(self, s, d, prims, m, calc):
        assert d.conclusion == s
        assert replay_cuts(d)
        for leaf_seq in d.leaves():
            assert len(leaf_seq.antecedent) <= 2
            for t in sequent_types(leaf_seq):
                assert length(t) <= m
                assert set(prim_counts(t)) <= prims
            assert prove(leaf_seq, calc) is not None

    def test_sweep_small_rows(self):
        import itertools
        pool = [P, under(P, P), over(P, P), prod(P, P)]
        assert all(length(t) <= 2 for t in pool)
        reduced = 0
        for width in (3, 4):
            for row in itertools.product(pool, repeat=width):
                for succ in (P, prod(P, P)):
                    s = sequent(tuple(map(leaf, row)), succ)
                    if prove(s, LDIA) is None:
                        continue
                    d = cut_reduce_flat(s, {"p"}, 2, LDIA)
                    self._check_reduction(s, d, {"p"}, 2, LDIA)
                    reduced += 1
        assert reduced == 28

    def test_unit_guarded_rows(self):
        rows = [
            "dia 1 dia 1 \\ p p \\ p => p",
            "p p \\ dia 1 dia 1 \\ p => p",
            "dia 1 dia 1 \\ (p / p) p => p",
        ]
        for text in rows:
            s = parse_sequent(text)
            d = cut_reduce_flat(s, {"p"}, 4, L1STAR_DIA)
            self._check_reduction(s, d, {"p"}, 4, L1STAR_DIA)

    def test_rejects_bracketed_antecedent(self):
        s = parse_sequent("[ p ] => dia p")
        with pytest.raises(ValueError):
            cut_reduce_flat(s, {"p"}, 2, LDIA)

    def test_wrong_piece_is_a_runtime_error(self, monkeypatch):
        # a piece proof that concludes the wrong sequent stops the
        # reduction with an error naming both, also under python -O
        wrong = prove(parse_sequent("p => p"), LDIA)
        monkeypatch.setattr(interpolate, "_extract",
                            lambda *args: (P, wrong, wrong))
        with pytest.raises(RuntimeError, match=re.escape(
                "a reduction piece proves p => p, not p p \\ p => p")):
            cut_reduce_flat(parse_sequent("p p \\ p p \\ p => p"),
                            {"p"}, 2, LDIA)

    def test_checks_the_proof_once(self, monkeypatch):
        # the prover's proof is checked and thin-indexed on entry; every
        # piece proof is built from it and neither checked nor
        # thin-indexed again
        s = parse_sequent("p p \\ p p \\ p p \\ p p \\ p p \\ p => p")
        checked, rebuilt = [], []
        monkeypatch.setattr(interpolate, "check", lambda p, calc: (
            checked.append(p.conclusion) or check(p, calc)))
        monkeypatch.setattr(
            interpolate, "_thin_rebuild",
            lambda p, real=interpolate._thin_rebuild: (
                rebuilt.append(p.conclusion) or real(p)))
        d = cut_reduce_flat(s, {"p"}, 2, LDIA)
        assert d.cut_count() == 4 and replay_cuts(d)
        assert checked == [s]
        assert rebuilt == [s]

    def test_thin_indexes_each_proof_once(self, monkeypatch,
                                          reduction_population):
        rebuilt = []
        monkeypatch.setattr(
            interpolate, "_thin_rebuild",
            lambda p, real=interpolate._thin_rebuild: (
                rebuilt.append(p.conclusion) or real(p)))
        for s, _ in reduction_population:
            cut_reduce_flat(s, {"p", "q"}, 2, LDIA)
        assert len(reduction_population) == 2424
        assert rebuilt == [s for s, _ in reduction_population]

    def test_rejects_foreign_primitive(self):
        s = parse_sequent("q => q")
        with pytest.raises(ValueError):
            cut_reduce_flat(s, {"p"}, 2, LDIA)

    def test_rejects_long_type(self):
        s = parse_sequent("p p \\ (p \\ p) => p")
        with pytest.raises(ValueError):
            cut_reduce_flat(s, {"p"}, 2, LDIA)

    def test_rejects_unprovable(self):
        s = parse_sequent("p p p \\ p => p")
        with pytest.raises(ValueError):
            cut_reduce_flat(s, {"p"}, 2, LDIA)


# ---------------------------------------------------------------------------
# Differential digest
#
# One SHA-256 over everything the proof-walking code produces on the
# sweep populations: canonical proofs, interpolants with both proofs,
# thin-indexed proofs, and bracket eliminations, each proof with its
# principals.  A refactor of the prover or the interpolator must leave
# it unchanged; any change to an answer, a proof or a principal
# encoding moves it, and only a deliberate one may update DIGEST.

# The last rule is a one-premise left rule whose principal leaf sits
# next to a bracket, so the selection or the eliminated bracket lies
# inside a sibling tree before or after the rule's position.
SIBLING_ROWS = [
    ("p * q [ q ] => p * (q * dia q)", LDIA),
    ("1 [ p ] => dia p", L1STAR_DIA),
    ("[ p ] 1 => dia p", L1STAR_DIA),
]

DIGEST = "afba3157f632a094093dd4bad5fb9085346542ca484195dfa29587af2bd57b94"


def _proof_record(p):
    """The proof text plus every node's principal, preorder."""
    principals, stack = [], [p]
    while stack:
        node = stack.pop()
        principals.append(repr(node.principal))
        stack.extend(reversed(node.premises))
    return print_proof(p) + "\n" + " ".join(principals)


def _extractions(pf, calc, empty, modes, tally):
    ante = pf.conclusion.antecedent
    for parent, lo, hi in partitions(ante, include_empty=empty):
        part = partition_at(ante, parent, lo, hi)
        for guarded in modes:
            tally["extractions"] += 1
            yield f"extract {parent} {lo} {hi} {guarded}"
            try:
                res = extract_interpolant(pf, part, calc, guarded)
            except ValueError as exc:
                yield f"ValueError {exc}"
                continue
            yield print_type(res.interpolant)
            yield _proof_record(res.left_proof)
            yield _proof_record(res.right_proof)


def _sweep(pf, calc, empty, modes, tally):
    """Records of one canonical proof, its extractions at every
    partition, its thin form with the thin extractions, and the
    elimination of every nonempty bracket."""
    tally["proofs"] += 1
    yield _proof_record(pf)
    yield from _extractions(pf, calc, empty, modes, tally)
    thin, theta = thin_index(pf, calc)
    yield _proof_record(thin)
    yield repr(sorted(theta.items()))
    yield from _extractions(thin, indexed_counterpart(calc), empty, modes,
                            tally)
    if not calc.brackets:
        return
    ante = pf.conclusion.antecedent
    for beta in bracket_addresses(ante):
        if subtree(ante, beta).children:
            tally["eliminations"] += 1
            b, variant, (pa, pb) = eliminate_bracket(pf, calc, beta)
            yield f"eliminate {beta} {print_type(b)} {variant}"
            yield _proof_record(pa)
            yield _proof_record(pb)


def _digest_records(population, tally):
    for _, pf in population:
        yield from _sweep(pf, LDIA, False, (None,), tally)
    tally["plain"] = dict(tally)
    prover = Prover(L1STAR_DIA)
    for s in cut_candidates(L1STAR_DIA, enum_types({"p"}, 2, guarded=True)):
        pf = prover.prove(s)
        if pf is not None:
            tally["unit provables"] += 1
            yield from _sweep(pf, L1STAR_DIA, True, (None, False), tally)
    rows = ([(t, L1STAR_DIA, True, (False,)) for t in UNIT_ROWS]
            + [(t, LSTAR_DIA, False, (None,)) for t in STARRED_ROWS]
            + [(t, L1STAR_DIA, False, (None,)) for t in GUARDED_ROWS]
            + [(t, LDIA, False, (None,)) for t in BRACKET_ROWS + [GOLDEN]]
            + [(t, c, True, (None,)) for t, c in SIBLING_ROWS])
    for text, calc, empty, modes in rows:
        yield from _sweep(prove(parse_sequent(text), calc), calc, empty,
                          modes, tally)
    for i in (1, 2, 3):
        yield from _sweep(_telescope(i), L1STAR, True, (None,), tally)


# Flat reductions in the starred and the unit calculus, with the base
# primitives and the length bound of each
REDUCTION_ROWS = [
    ("p p \\ p p \\ p p \\ p => p", {"p"}, 2, LSTAR_DIA),
    ("(p / p) p p \\ p => p", {"p"}, 2, LSTAR_DIA),
    ("p p \\ (q / q) q => q", {"p", "q"}, 3, LSTAR_DIA),
    ("dia 1 dia 1 \\ p p \\ p => p", {"p"}, 4, L1STAR_DIA),
    ("p p \\ dia 1 dia 1 \\ p => p", {"p"}, 4, L1STAR_DIA),
    ("dia 1 / dia 1 dia 1 p => dia 1 * p", {"p"}, 4, L1STAR_DIA),
]

REDUCTION_DIGEST = "f4595a1fbeaf0dffea516a39989f0be0c0d4212ef679331e3295e6d902051e85"


def _reduction_record(d):
    """Every node of a Cut derivation, preorder, indented by depth, with
    the context position of each Cut."""
    return "\n".join(
        "  " * depth + print_sequent(node.conclusion)
        + ("" if node.is_leaf else "  at " + print_hedge(node.position))
        for node, depth in preorder(d, attrgetter("premises")))


class TestReductionDigest:
    def test_digest(self, reduction_population):
        rows = [(s, {"p", "q"}, 2, LDIA)
                for s, _ in reduction_population[::10]]
        assert len(rows) == 243
        rows += [(parse_sequent(t), prims, m, calc)
                 for t, prims, m, calc in REDUCTION_ROWS]
        h = hashlib.sha256()
        cuts = 0
        for s, prims, m, calc in rows:
            d = cut_reduce_flat(s, prims, m, calc)
            cuts += d.cut_count()
            h.update(_reduction_record(d).encode() + b"\n")
        assert cuts > 300
        assert h.hexdigest() == REDUCTION_DIGEST

    def test_given_proof_matches_a_fresh_search(self, reduction_population):
        # cut_reduce of a shared Prover's proof reduces as cut_reduce_flat
        # does with its own fresh search, on the digest's rows
        provers = {}
        rows = [(s, pf, {"p", "q"}, 2, LDIA)
                for s, pf in reduction_population[::10]]
        for text, prims, m, calc in REDUCTION_ROWS:
            s = parse_sequent(text)
            shared = provers.setdefault(calc, Prover(calc))
            rows.append((s, shared.prove(s), prims, m, calc))
        assert len(rows) == 249
        for s, pf, prims, m, calc in rows:
            assert (_reduction_record(cut_reduce(pf, prims, m, calc))
                    == _reduction_record(cut_reduce_flat(s, prims, m, calc))
                    ), print_sequent(s)


class TestDifferentialDigest:
    def test_digest(self, interp_population):
        tally = Counter()
        h = hashlib.sha256()
        for record in _digest_records(interp_population, tally):
            h.update(record.encode() + b"\n")
        assert tally["plain"] == {"proofs": 1996, "extractions": 18684,
                                  "eliminations": 1058}
        assert tally["unit provables"] == 47
        assert h.hexdigest() == DIGEST
