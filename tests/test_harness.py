"""Tests for the report harness: reference checks, randomized trials,
equivalence runs, and report plumbing."""

import gc
import json

import pytest

from lambrack.harness import (
    BUNDLED_GRAMMARS, DEFAULT_SEED, Report, _hedges_exact, bundled_grammar,
    format_reports, load_grammar, run_identity_family, run_equivalence,
    run_golden, run_shrinking_trials, write_reports,
)
from lambrack.prover import check, parse_proof
from lambrack.syntax import LDIA, L1STAR_DIA_M, Bracket, prim


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

    def test_memo_ends_with_the_claim(self):
        before = _live_brackets()
        assert run_equivalence("brackets.lg", max_len=2).ok
        assert _live_brackets() == before


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

    def test_index_validation(self):
        with pytest.raises(ValueError):
            run_identity_family(max_i=0)
        with pytest.raises(ValueError):
            run_identity_family(max_i=7)


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

    def test_plain_with_max_len(self):
        r = run_equivalence("anbn.lg", "Ldia", max_len=2)
        assert r.ok
        assert r.counts == {"strings": 6, "members": 1}

    def test_rejects_other_calculi(self):
        with pytest.raises(ValueError):
            run_equivalence("anbn.lg", "L1starDia")


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
