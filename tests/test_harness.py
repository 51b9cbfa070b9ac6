"""Tests for the report harness: reference checks, randomized trials,
equivalence runs, and report plumbing."""

import gc
import json
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lambrack import harness, interpolate, prover
from lambrack.cfgkit import cut_leaf
from lambrack.compiler import enum_types
from lambrack.freegroup import count_key, word_of
from lambrack.harness import (
    BUNDLED_GRAMMARS, DEFAULT_SEED, Report, _bracket_count, _grammar_member,
    _hedge_at, _hedge_count, _hedges_exact, bundled_grammar,
    format_reports, load_grammar, run_freegroup_soundness,
    run_identity_family, run_equivalence, run_golden,
    run_interpolation_sweep, run_reduction_sweep, run_shrinking_trials,
    write_reports,
)
from lambrack.prover import Proof, Prover, check, parse_proof, prove
from lambrack.syntax import (
    LDIA, L1STAR_DIA, L1STAR_DIA_M, UNIT, Bracket, Leaf, boxdown, calculus,
    dia, leaf, length, mod_total, over, parse_sequent, prim, prod, sequent,
    under,
)

from helpers import cut_candidates


class TestReportType:
    def test_ok_and_dict(self):
        r = Report(claim="demo", status="pass", counts={"n": 3},
                   elapsed=0.5, notes=("a note",))
        assert r.ok
        d = r.to_dict()
        assert d["claim"] == "demo"
        assert d["counts"] == {"n": 3}
        assert d["reproducer"] is None
        json.dumps(d)

    def test_thin_sequents_stay_out_of_the_dict(self):
        s = parse_sequent("p1 => p1")
        r = Report(claim="demo", status="pass", counts={}, elapsed=0.0,
                   thin_sequents=(s,))
        assert list(r.to_dict()) == ["claim", "status", "counts", "elapsed",
                                     "artifacts", "reproducer", "notes"]
        assert r == Report(claim="demo", status="pass", counts={},
                           elapsed=0.0)
        assert "p1" not in repr(r) and "p1" not in format_reports([r])

    def test_failing_report(self):
        r = Report(claim="demo", status="fail", counts={}, elapsed=0.1,
                   reproducer="p => q")
        assert not r.ok
        assert r.to_dict()["reproducer"] == "p => q"


def _live_brackets():
    gc.collect()
    return sum(1 for x in gc.get_objects() if isinstance(x, Bracket))


class TestHedgeEnumeration:
    def test_flat_base_case(self):
        p = prim("p")
        assert _hedges_exact((p, p), 0, False, {}) == \
            _hedges_exact((p, p), 0, True, {})
        assert len(_hedges_exact((p, p), 0, False, {})) == 1

    def test_empty_bracket_control(self):
        assert len(_hedges_exact((), 2, True, {})) == 2
        assert _hedges_exact((), 2, False, {}) == ()

    def test_single_leaf_one_bracket(self):
        p = prim("p")
        assert len(_hedges_exact((p,), 1, False, {})) == 1
        assert len(_hedges_exact((p,), 1, True, {})) == 3

    def test_no_duplicates(self):
        p, q = prim("p"), prim("q")
        memo = {}
        for b in range(4):
            out = _hedges_exact((p, q), b, True, memo)
            assert len(set(out)) == len(out)
            # the same memo answers a repeated request with the same
            # hedges, and a fresh one with equal hedges
            assert _hedges_exact((p, q), b, True, memo) is out
            assert _hedges_exact((p, q), b, True, {}) == out

    def test_count_and_unranking_follow_the_enumeration(self):
        seg = (prim("p"), prim("q"), under(prim("p"), prim("q")),
               dia(prim("p")))
        for n, b, allow_empty in product(range(5), range(6), (False, True)):
            row = seg[:n]
            hedges = _hedges_exact(row, b, allow_empty, {})
            counts = {}
            assert _hedge_count(n, b, allow_empty, counts) == len(hedges)
            for i, h in enumerate(hedges):
                assert _hedge_at(row, b, allow_empty, i, counts) == h
            with pytest.raises(IndexError):
                _hedge_at(row, b, allow_empty, len(hedges), counts)

    def test_memo_ends_with_the_claim(self):
        before = _live_brackets()
        assert run_equivalence("brackets.lg", max_len=2).ok
        assert _live_brackets() == before


# ---------------------------------------------------------------------------
# Differential checks: the count prefilter against enumerating every
# bracket count and filtering each hedge by its word


class _RecordingProver:
    """A prover that notes every goal it is handed, in order."""

    def __init__(self, calc):
        self.inner = Prover(calc)
        self.goals = []

    def prove(self, s):
        self.goals.append(s)
        return self.inner.prove(s)


def _reference_member(g, toks, calc, prover, extra_brackets):
    target = g.distinguished
    target_word = word_of(target)
    memo = {}
    for row in product(*(g.types_of(tok) for tok in toks)):
        budget = (sum(mod_total(t) for t in row) + length(target)
                  + extra_brackets)
        for b in range(budget + 1):
            for h in _hedges_exact(row, b, calc.starred, memo):
                if not h and not calc.starred:
                    continue
                if word_of(h) != target_word:
                    continue
                if prover.prove(sequent(h, target)) is not None:
                    return True
    return False


@pytest.mark.parametrize("name,calc_name,max_len", [
    ("brackets.lg", "Ldia", 4), ("anbn.lg", "Ldia", 5),
    ("starred.lg", "LstarDia", 3),
])
def test_grammar_member_matches_reference(name, calc_name, max_len):
    g = bundled_grammar(name)
    calc = calculus(calc_name)
    hedges = {}
    members = 0
    for n in range(0 if calc.starred else 1, max_len + 1):
        for toks in product(sorted(g.alphabet), repeat=n):
            got = _RecordingProver(calc)
            answer = _grammar_member(g, toks, calc, got, hedges)
            # no witness and no goal lies at or past the budget boundary
            for extra in (0, 1):
                want = _RecordingProver(calc)
                assert answer == _reference_member(g, toks, calc, want,
                                                   extra), (toks, extra)
                assert got.goals == want.goals, (toks, extra)
            members += answer
    assert members > 0


def test_cut_completeness_hands_over_the_same_sequents(monkeypatch):
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
    r = harness.run_cut_completeness()

    expected = []
    total = balanced = 0
    for calc, guarded in ((LDIA, False), (L1STAR_DIA, True)):
        types = enum_types({"p"}, 2, guarded=guarded)
        candidates = list(cut_candidates(calc, types))
        total += len(candidates)
        stride = 1 if len(candidates) <= 10000 else 50
        unbalanced_i = 0
        for s in candidates:
            if word_of(s.antecedent) == word_of(s.succedent):
                balanced += 1
                expected += [("prove", s), ("cut", s)]
            else:
                if unbalanced_i % stride == 0:
                    expected.append(("cut", s))
                unbalanced_i += 1
    assert r.ok
    assert (r.counts["candidates"], r.counts["balanced"]) == \
        (total, balanced)
    assert calls == expected
    assert r.thin_sequents == ()


@pytest.mark.parametrize("stride", [0, -500])
def test_cut_completeness_refuses_a_stride_below_one(stride):
    # a stride of 0 would divide by zero, and a negative one would
    # sample none of the guarded population
    with pytest.raises(ValueError, match="below 1"):
        harness.run_cut_completeness(sample_stride=stride)


_types = st.recursive(
    st.sampled_from([prim("p"), prim("q")]),
    lambda inner: st.one_of(
        st.builds(dia, inner), st.builds(boxdown, inner),
        st.builds(under, inner, inner), st.builds(over, inner, inner),
        st.builds(prod, inner, inner)),
    max_leaves=3)


def _type_of_hedge(h):
    """A type whose word is the hedge's: brackets read as diamonds."""
    out = UNIT
    for tr in h:
        t = (tr.type if isinstance(tr, Leaf)
             else dia(_type_of_hedge(tr.children)))
        out = t if out is UNIT else prod(out, t)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_types, max_size=3), st.integers(0, 3), st.booleans(),
       _types)
def test_count_key_fixes_the_bracket_count(row, b, allow_empty, succ):
    row = tuple(row)
    row_key = count_key(
        word_of(tuple(leaf(t) for t in row)))
    rest, opens, closes = row_key
    for h in _hedges_exact(row, b, allow_empty, {}):
        hw = word_of(h)
        assert count_key(hw) == (rest, opens + b, closes + b)
        for s in (succ, _type_of_hedge(h)):
            sw = word_of(s)
            if hw == sw:
                assert _bracket_count(row_key, count_key(sw)) == b


class TestGolden:
    def test_passes(self):
        r = run_golden()
        assert r.ok
        assert r.counts["checks"] == 13
        assert r.reproducer is None

    def test_artifacts(self, tmp_path):
        r = run_golden(out_dir=tmp_path)
        assert r.ok
        names = sorted(p.split("/")[-1] for p in r.artifacts)
        assert names == ["reference-bracketed.proof", "reference-unit.proof"]
        bracketed = parse_proof(
            (tmp_path / "reference-bracketed.proof").read_text())
        assert check(bracketed, LDIA)
        unit = parse_proof((tmp_path / "reference-unit.proof").read_text())
        assert check(unit, L1STAR_DIA_M)


class TestInterpolationSweep:
    def test_checks_each_proof_once(self, monkeypatch, interp_population):
        # one check per population proof and one per emitted proof; the
        # thin proofs are built from checked ones and not checked again
        checked = []
        monkeypatch.setattr(harness, "_interp_population",
                            lambda timeout_ms=None: interp_population)
        for module in (harness, interpolate):
            monkeypatch.setattr(module, "check", lambda p, calc: (
                checked.append(p) or check(p, calc)))
        r = run_interpolation_sweep()
        assert r.ok and r.counts["partitions"] == 9342
        assert len(checked) == 1996 + 2 * 9342

    def test_matches_each_rule_instance_once(self, monkeypatch):
        # the population and contract checks skip the nodes check has
        # accepted, so each distinct proof node they meet is matched
        # once: the sweep builds its own population, so every node
        # starts unaccepted and is matched at least once, and there are
        # as many matches as nodes.  Each of the 93,608 node visits was
        # a match before any memo; a memo of rule instances made 4,330.
        first_fit, fits, checked = prover._first_fit, [], []

        def counting(*args):
            fits.append(args)
            return first_fit(*args)

        monkeypatch.setattr(prover, "_first_fit", counting)
        for module in (harness, interpolate):
            monkeypatch.setattr(module, "check", lambda p, calc: (
                checked.append(p) or check(p, calc)))
        assert run_interpolation_sweep().ok
        nodes, stack = {}, list(checked)
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.premises)
        assert len(fits) == len(nodes) == 15618

    def test_proof_failing_its_check_is_a_failure(self, monkeypatch):
        s = parse_sequent("p p \\ q => q")
        monkeypatch.setattr(harness, "_interp_population",
                            lambda timeout_ms=None: [(s, Proof(s, "Ax"))])
        r = run_interpolation_sweep()
        assert not r.ok
        assert r.reproducer == ("population proof fails its check: "
                                "p p \\ q => q")

    def test_contract_fault_is_a_failure(self, monkeypatch):
        # a result failing the contract at one span names that span
        s = parse_sequent("p p \\ q => q")
        monkeypatch.setattr(harness, "_interp_population",
                            lambda timeout_ms=None: [(s, prove(s, LDIA))])
        monkeypatch.setattr(
            harness, "_contract_fault",
            lambda s, parent, lo, hi, res, calc:
                "wrong" if (lo, hi) == (1, 2) else None)
        r = run_interpolation_sweep()
        assert not r.ok
        assert r.reproducer == ("interpolation contract fails at () "
                                "[1:2] of p p \\ q => q")
        assert r.counts == {"sequents": 1, "partitions": 3,
                            "thin_partitions": 3}


class TestReductionSweep:
    def test_leaf_outside_the_rule_set_fails_the_replay(self, monkeypatch):
        # a reduction is replayed against the rule set, so a leaf that
        # is not a rule fails the sequent it was reducing
        ok, bad = (parse_sequent(t) for t in ("p p \\ q => q",
                                              "p p \\ q q \\ p => p"))
        monkeypatch.setattr(harness, "_reduction_candidates",
                            lambda: [ok, bad])
        monkeypatch.setattr(harness, "cut_reduce",
                            lambda proof, *args: cut_leaf(proof.conclusion))
        r = run_reduction_sweep()
        assert not r.ok
        assert r.reproducer == "reduction fails for p p \\ q q \\ p => p"
        assert r.counts == {"balanced_candidates": 2, "provable": 2,
                            "derivation_nodes": 1}


class TestShrinkingTrials:
    def test_small_run_passes(self):
        r = run_shrinking_trials(trials=300, seed=7)
        assert r.ok
        assert r.counts == {"trials": 300, "splits": 300}

    def test_deterministic_given_seed(self):
        a = run_shrinking_trials(trials=150, seed=DEFAULT_SEED)
        b = run_shrinking_trials(trials=150, seed=DEFAULT_SEED)
        assert (a.status, a.counts, a.reproducer) == \
            (b.status, b.counts, b.reproducer)

    def test_other_seeds_pass_too(self):
        for seed in (1, 2, 3):
            assert run_shrinking_trials(trials=100, seed=seed).ok


class TestIdentityFamily:
    def test_measured_matrix(self):
        r = run_identity_family()
        assert r.ok
        assert r.counts == {"members": 5, "identities": 5,
                            "base_refutations": 4,
                            "provable_ordered_pairs": 16}
        assert r.notes

    def test_failures_keep_their_order(self, monkeypatch):
        # member 2's identity fails and member 3 proves q: the identity
        # failure is reported first, then the base-primitive one
        family = [prim("q")]
        for _ in range(4):
            family.append(under(over(UNIT, family[-1]), UNIT))
        rigged = {sequent((leaf(family[2]),), family[2]): None,
                  sequent((leaf(family[3]),), family[0]): True}
        search, finish, reported = Prover.prove, harness._finish, []

        def prove_rigged(self, s):
            return rigged[s] if s in rigged else search(self, s)

        def recorded(claim, started, counts, failures, *args, **kwargs):
            reported.extend(failures)
            return finish(claim, started, counts, failures, *args, **kwargs)

        monkeypatch.setattr(Prover, "prove", prove_rigged)
        monkeypatch.setattr(harness, "_finish", recorded)
        r = run_identity_family()
        assert reported == ["identity fails for member 2",
                            "member 3 unexpectedly proves the base "
                            "primitive"]
        assert r.reproducer == reported[0]
        assert r.counts == {"members": 5, "identities": 4,
                            "base_refutations": 3,
                            "provable_ordered_pairs": 17}


class TestBundledGrammars:
    def test_all_load(self):
        for name, _ in BUNDLED_GRAMMARS:
            g = bundled_grammar(name)
            assert g.lexicon
    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            bundled_grammar("missing.lg")

    def test_load_grammar_path_and_bundled(self, tmp_path):
        path = tmp_path / "tiny.lg"
        path.write_text("lexicon a : p\ntarget : p\n")
        name, g = load_grammar(path)
        assert name == "tiny"
        assert g.types_of("a") == (prim("p"),)
        name, g = load_grammar("anbn.lg")
        assert name == "anbn"


class TestEquivalence:
    def test_starred_grammar(self, tmp_path):
        r = run_equivalence("starred.lg", "LstarDia", out_dir=tmp_path)
        assert r.ok
        assert r.counts == {"strings": 5, "members": 5}
        assert (tmp_path / "starred-cfg.txt").exists()

    def test_plain_with_max_len(self, tmp_path):
        # cache_dir is accepted and ignored: nothing is written there
        r = run_equivalence("anbn.lg", "Ldia", max_len=2, cache_dir=tmp_path)
        assert r.ok
        assert r.counts == {"strings": 6, "members": 1}
        assert list(tmp_path.iterdir()) == []

    def test_membership_disagreement_is_a_failure(self, monkeypatch):
        # a compiled side that recognizes nothing disagrees on the first
        # member of anbn, a b
        monkeypatch.setattr(harness, "derives", lambda *args: None)
        r = run_equivalence("anbn.lg", "Ldia", max_len=2)
        assert not r.ok
        assert r.reproducer == ("membership disagrees on a b: grammar "
                                "side True, compiled side False")
        assert r.counts == {"strings": 6, "members": 0}

    def test_rejects_other_calculi(self):
        with pytest.raises(ValueError):
            run_equivalence("anbn.lg", "L1starDia")

    def test_empty_string_in_an_empty_bracket(self, tmp_path):
        # the empty string is a member on both sides, by [ ] => dia (p / p)
        # and by the compiled CFG; the bracket-free => dia (p / p) is
        # unprovable and decides nothing about it
        path = tmp_path / "unit.lg"
        path.write_text("lexicon a : p / p\ntarget : dia (p / p)\n")
        r = run_equivalence(path, "LstarDia", max_len=0)
        assert r.ok, r.reproducer
        assert r.counts == {"strings": 1, "members": 1}


class TestReportOutput:
    def _reports(self):
        return [
            Report(claim="good", status="pass", counts={"n": 1},
                   elapsed=0.1, notes=("fine",)),
            Report(claim="bad", status="fail", counts={"n": 2},
                   elapsed=0.2, reproducer="p => q"),
        ]

    def test_format(self):
        text = format_reports(self._reports(), seed=5)
        assert "seed 5" in text
        assert "PASS good" in text
        assert "FAIL bad" in text
        assert "reproducer: p => q" in text
        assert "FAILURES PRESENT" in text
        ok_text = format_reports(self._reports()[:1])
        assert "ALL PASS" in ok_text

    def test_write(self, tmp_path):
        json_path, txt_path = write_reports(self._reports(), tmp_path,
                                            seed=9)
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 9
        assert payload["ok"] is False
        assert [r["claim"] for r in payload["reports"]] == ["good", "bad"]
        assert "FAIL bad" in txt_path.read_text()


class TestFreegroupSoundness:
    def test_unbalanced_sequent_fails_with_reproducer(self):
        r = run_freegroup_soundness((parse_sequent("p1 => p1"),
                                     parse_sequent("p1 => p2")))
        assert not r.ok
        assert r.counts == {"sequents": 2}
        assert r.reproducer == "unbalanced thin provable sequent: p1 => p2"

    def test_empty_population_passes(self):
        r = run_freegroup_soundness(())
        assert r.ok
        assert r.counts == {"sequents": 0}

    def test_run_all_hands_over_the_sweeps_thin_sequents(self, monkeypatch):
        interp = (parse_sequent("p1 => p1"), parse_sequent("p2 => p2"))
        cut = (parse_sequent("p3 => p3"),)
        handed = []

        def stub(claim, thin=()):
            def run(*args, **kwargs):
                return Report(claim=claim, status="pass", counts={},
                              elapsed=0.0, thin_sequents=thin)
            return run

        def soundness(thin_sequents):
            handed.append(thin_sequents)
            return stub("soundness")()

        for name in ("run_golden", "run_shrinking_trials",
                     "run_reduction_sweep", "run_equivalence",
                     "run_identity_family"):
            monkeypatch.setattr(harness, name, stub(name))
        monkeypatch.setattr(harness, "run_interpolation_sweep",
                            stub("interp", interp))
        monkeypatch.setattr(harness, "run_cut_completeness", stub("cut", cut))
        monkeypatch.setattr(harness, "run_freegroup_soundness", soundness)
        reports = harness.run_all()
        assert handed == [interp + cut]
        assert [r.claim for r in reports] == [
            "run_golden", "interp", "run_shrinking_trials",
            "run_reduction_sweep", "cut"] + ["run_equivalence"] * 3 + [
            "run_identity_family", "soundness"]
