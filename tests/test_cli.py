"""Tests for the command-line interface, driving main() directly."""

import io
import json
from dataclasses import replace

import pytest

from lambrack.cfgkit import (
    CutDerivation, Derivation, cut_derives, replay_cuts,
)
from lambrack.cli import _build_parser, _cut_lines, _read_base, main
from lambrack.compiler import build_rulesets
from lambrack.harness import (
    Report, default_max_len, run_equivalence, write_reports,
)
from lambrack.interpolate import (
    InterpolationResult, extract_interpolant, thin_index,
)
from lambrack.prover import (
    Proof, ProofSearchTimeout, Prover, check, parse_proof, prove,
)
from lambrack.syntax import (
    L1STAR_DIA_M, LDIA, LDIA_M, ParseError, leaf, parse_sequent, parse_type,
    prim, print_sequent, sequent,
)

THIN_GOAL = "[ [ p ] dia p \\ p ] => boxd dia dia p"
THIN_CONCLUSION = ("[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 "
                   "=> boxd:3 dia:3 dia:2 p2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_provable(self, capsys):
        code, out, err = run(capsys, "prove", "p => p")
        assert code == 0
        assert err == ""
        assert "Ax" in out
        assert parse_proof(out) is not None

    def test_provable_json(self, capsys):
        code, out, _ = run(capsys, "prove", "--json", "dia p => dia p")
        assert code == 0
        payload = json.loads(out)
        assert payload["provable"] is True
        assert parse_proof(payload["proof"]) is not None

    def test_unprovable(self, capsys):
        code, out, _ = run(capsys, "prove",
                           "dia boxd p dia boxd q => dia boxd (p * q)")
        assert code == 0
        assert out.strip() == "UNPROVABLE"

    def test_unprovable_json(self, capsys):
        code, out, _ = run(capsys, "prove", "--json", "p => q")
        assert code == 0
        assert json.loads(out) == {"provable": False, "proof": None}

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "prove", "p =>")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_calculus(self, capsys):
        code, _, err = run(capsys, "prove", "--calculus", "L9", "p => p")
        assert code == 2
        assert "L9" in err

    def test_calculus_respected(self, capsys):
        code, out, _ = run(capsys, "prove", "--calculus", "L1star", "=> 1")
        assert code == 0
        assert out.strip() != "UNPROVABLE"

    def test_timeout_exit_code(self, capsys, monkeypatch):
        def explode(*a, **k):
            raise ProofSearchTimeout("budget spent")
        monkeypatch.setattr("lambrack.cli.prove", explode)
        code, _, err = run(capsys, "prove", "p => p")
        assert code == 1
        assert "timed out" in err

    @pytest.mark.parametrize("budget, code", [
        ("nan", 2), ("-5", 2), ("0", 1)])
    def test_negative_or_nan_budget_is_usage_error(self, capsys, budget,
                                                   code):
        # NaN would switch the deadline off; 0 is a budget spent at once
        got, out, err = run(capsys, "prove", "p => p", "--timeout-ms", budget)
        assert (got, out) == (code, "") and err.count("\n") == 1
        assert err.startswith("error: timeout_ms must be 0 or more"
                              if code == 2 else "error: proof search timed")

    def test_deep_chain_is_answered(self, capsys):
        # 900 leaves: the search fits the recursion limit, and the round
        # trip and the check walk the proof without recursing
        code, out, err = run(capsys, "prove", "p " + "p\\p " * 900 + "=> p")
        assert code == 0 and err == ""
        assert check(parse_proof(out), LDIA)

    def test_deep_input_is_usage_error(self, capsys):
        goal = "p " + "p\\p " * 4999 + "=> p"
        code, out, err = run(capsys, "prove", goal)
        assert code == 2
        assert out == ""
        assert err.startswith("error: input nests too deeply")

    @pytest.mark.parametrize("mutation", ["rule", "conclusion"])
    def test_wrong_answer_is_refused(self, capsys, monkeypatch, mutation):
        # the tampered proof prints and reads back as itself, but fails
        # its check; nothing is printed
        def tampered(s, calc, timeout_ms=None):
            pf = prove(s, calc, timeout_ms)
            if mutation == "rule":
                return Proof(pf.conclusion, "OverL", pf.premises)
            ax, _ = pf.premises
            return Proof(pf.conclusion, pf.rule,
                         (ax, Proof(parse_sequent("r => r"), "Ax")))

        monkeypatch.setattr("lambrack.cli.prove", tampered)
        code, out, err = run(capsys, "prove", "p p \\ q => q")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestInterpolate:
    SEQUENT = "p3 / dia:1 (p1 * dia:2 (p2 / p2)) [:1 p1 [:2 ]:2 ]:1 => p3"
    CONTEXT = "p3 / dia:1 (p1 * dia:2 (p2 / p2)) _"

    def test_reference_interpolant(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--calculus", "L1starDiaM",
                           self.SEQUENT, self.CONTEXT)
        assert code == 0
        payload = json.loads(out)
        assert payload["provable"] is True
        assert payload["interpolant"] == "dia:1 (p1 * dia:2 1)"
        assert parse_proof(payload["left_proof"]) is not None
        assert parse_proof(payload["right_proof"]) is not None

    def test_unprovable(self, capsys):
        code, out, _ = run(capsys, "interpolate", "q p => p * q", "q _")
        assert (code, out.strip()) == (0, "UNPROVABLE")

    def test_unprovable_json(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--json",
                           "q p => p * q", "q _")
        assert code == 0
        assert json.loads(out) == {"provable": False}

    def test_context_mismatch(self, capsys):
        code, _, err = run(capsys, "interpolate", "p p \\ p => p", "q _")
        assert code == 2
        assert "context" in err

    @pytest.mark.parametrize("goal, context", [
        ("p => p", "[ _ ]"),
        ("[ p ] => dia p", "q [ _ ]"),
    ])
    def test_hole_at_an_address_the_sequent_lacks(self, capsys, goal,
                                                  context):
        code, out, err = run(capsys, "interpolate", goal, context)
        assert (code, out) == (2, "")
        assert err == ("error: the context does not match the sequent "
                       "outside its hole\n")

    @pytest.mark.parametrize("mutation", ["swapped", "interpolant",
                                          "left", "right"])
    def test_wrong_answer_is_refused(self, capsys, monkeypatch, mutation):
        # each mutated result either concludes the wrong cut half or
        # fails its check; none is printed
        def mutated(proof, part, calc):
            res = extract_interpolant(proof, part, calc)
            e, left, right = res.interpolant, res.left_proof, res.right_proof
            if mutation == "swapped":
                left, right = right, left
            elif mutation == "interpolant":
                e = prim("q")
            elif mutation == "left":
                left = Proof(left.conclusion, "DiaR", left.premises)
            else:
                right = Proof(right.conclusion, "Ax")
            return InterpolationResult(e, left, right)

        monkeypatch.setattr("lambrack.cli.extract_interpolant", mutated)
        code, out, err = run(capsys, "interpolate", "p p \\ q => q",
                             "_ p \\ q")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_interpolant_over_the_bound_is_refused(self, capsys,
                                                   monkeypatch):
        # both cut halves of (p / p) \ p are provable in LstarDia, but p
        # occurs 3 times in it and once in the selection
        e = parse_type("(p / p) \\ p")

        def mutated(proof, part, calc):
            left = prove(sequent(part.selected, e), calc)
            right = prove(sequent((leaf(e),), proof.conclusion.succedent),
                          calc)
            assert check(left, calc) and check(right, calc)
            return InterpolationResult(e, left, right)

        monkeypatch.setattr("lambrack.cli.extract_interpolant", mutated)
        code, out, err = run(capsys, "interpolate", "--calculus",
                             "LstarDia", "p => p", "_")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


    def test_deep_proof_is_usage_error(self, capsys):
        # prove answers this chain, but interpolating at its last leaf
        # walks the proof with two frames per level and passes the
        # recursion limit
        goal = "p " + "p\\p " * 600 + "=> p"
        code, out, err = run(capsys, "interpolate", goal,
                             "p " + "p\\p " * 599 + "_")
        assert (code, out) == (2, "")
        assert err.startswith("error: input nests too deeply")
        code, _, _ = run(capsys, "prove", goal)
        assert code == 0


class TestThin:
    def _proof_text(self, capsys):
        code, out, _ = run(capsys, "prove", THIN_GOAL)
        assert code == 0
        return out

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "goal.proof"
        path.write_text(self._proof_text(capsys))
        code, out, _ = run(capsys, "thin", str(path))
        assert code == 0
        assert "theta: p1 -> p" in out
        assert "theta: p2 -> p" in out
        proof_part = out.split("theta:")[0]
        thin = parse_proof(proof_part)
        assert thin.conclusion == parse_sequent(THIN_CONCLUSION)
        assert check(thin, LDIA_M)

    def test_from_stdin_json(self, capsys, monkeypatch):
        text = self._proof_text(capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "thin", "--json", "-")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == {"p1": "p", "p2": "p"}
        assert parse_proof(payload["proof"]) is not None

    def test_indexed_proof(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "--calculus", "L1starDiaM",
                           "[:1 p ]:1 => dia:1 p")
        assert code == 0
        path = tmp_path / "indexed.proof"
        path.write_text(out)
        code, out, err = run(capsys, "thin", str(path),
                             "--calculus", "L1starDiaM")
        assert (code, err) == (0, "")
        thin = parse_proof(out.split("theta:")[0])
        assert thin.conclusion == parse_sequent("[:1 p1 ]:1 => dia:1 p1")
        assert check(thin, L1STAR_DIA_M)

    @pytest.mark.parametrize("mutation", ["proof", "theta"])
    def test_wrong_answer_is_refused(self, capsys, monkeypatch, tmp_path,
                                     mutation):
        # a tampered thin proof fails its check; a wrong theta deindexes
        # the thin conclusion to another sequent; neither is printed
        def tampered(proof, calc):
            thin, theta = thin_index(proof, calc)
            if mutation == "proof":
                thin = Proof(thin.conclusion, "ProdR", thin.premises)
            else:
                theta = dict(theta, p1="q")
            return thin, theta

        path = tmp_path / "goal.proof"
        path.write_text(self._proof_text(capsys))
        monkeypatch.setattr("lambrack.cli.thin_index", tampered)
        code, out, err = run(capsys, "thin", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_line_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.proof"
        path.write_text("Ax  b => b\nAx  a => a\nAx  b => (b\n")
        code, _, err = run(capsys, "thin", str(path))
        assert code == 2
        assert err == "error: line 3: expected ')' (at position 7)\n"


class TestSmallCommands:
    def test_interpret_type(self, capsys):
        code, out, _ = run(capsys, "interpret", "dia p")
        assert (code, out.strip()) == (0, "< p >")

    def test_interpret_collapses_to_identity(self, capsys):
        code, out, _ = run(capsys, "interpret", "p \\ p")
        assert (code, out.strip()) == (0, "e")

    def test_interpret_hedge(self, capsys):
        code, out, _ = run(capsys, "interpret", "[ p ]")
        assert (code, out.strip()) == (0, "< p >")

    def test_interpret_bad_text(self, capsys):
        code, _, err = run(capsys, "interpret", "p //")
        assert code == 2
        assert err.startswith("error:")

    def test_translate_flat(self, capsys):
        code, out, _ = run(capsys, "translate-flat", "dia boxd (p * q)")
        assert code == 0
        assert out.strip() == "m * (((m \\ (p * q)) / n) * n)"


class TestCompileAndParse:
    def test_compile_parse_round_trip(self, capsys, tmp_path):
        cfg_path = tmp_path / "anbn.cfg"
        code, out, _ = run(capsys, "compile", "anbn.lg",
                           "--output", str(cfg_path))
        assert code == 0
        assert "wrote" in out

        code, out, _ = run(capsys, "parse", str(cfg_path), "a b")
        assert code == 0
        assert "->" in out

        code, out, _ = run(capsys, "parse", str(cfg_path), "a a")
        assert (code, out.strip()) == (0, "NO")

    def test_compile_stdout_json(self, capsys):
        code, out, _ = run(capsys, "compile", "--json", "starred.lg",
                           "--calculus", "LstarDia")
        assert code == 0
        payload = json.loads(out)
        assert payload["nonterminals"] == 3
        assert "->" in payload["cfg"]

    @pytest.mark.parametrize("mutation", ["rule", "conclusion"])
    def test_wrong_answer_is_refused(self, capsys, monkeypatch, tmp_path,
                                     mutation):
        # a bridge proof that fails its check, and one that proves some
        # other sequent; the grammar built on it is not written
        bridge = parse_sequent("[ p ] => dia p")

        class Tampering(Prover):
            def prove(self, s):
                pf = super().prove(s)
                if s != bridge:
                    return pf
                if mutation == "rule":
                    return Proof(pf.conclusion, "OverL", pf.premises)
                return super().prove(parse_sequent("p => p"))

        monkeypatch.setattr("lambrack.compiler.Prover", Tampering)
        cfg_path = tmp_path / "brackets.cfg"
        code, out, err = run(capsys, "compile", "brackets.lg",
                             "--output", str(cfg_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert not cfg_path.exists()

    def test_parse_unknown_terminal(self, capsys, tmp_path):
        cfg_path = tmp_path / "anbn.cfg"
        run(capsys, "compile", "anbn.lg", "--output", str(cfg_path))
        code, _, err = run(capsys, "parse", str(cfg_path), "z")
        assert code == 2
        assert err.startswith("error:")

    def test_parse_replays_its_derivation(self, capsys, monkeypatch,
                                          tmp_path):
        cfg_path = tmp_path / "anbn.cfg"
        run(capsys, "compile", "anbn.lg", "--output", str(cfg_path))

        def forged(g, nt, tokens):
            # the right root and fringe, through a production anbn lacks
            return Derivation(nt, (nt, tuple(tokens)),
                              tuple(Derivation(t) for t in tokens))

        monkeypatch.setattr("lambrack.cli.derives", forged)
        code, out, err = run(capsys, "parse", str(cfg_path), "a b")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_grammar_file(self, capsys):
        code, _, err = run(capsys, "compile", "nowhere.lg")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["compile"])
    def test_unusable_cache_dir(self, capsys, tmp_path, command):
        # --cache-dir is accepted and ignored, so even a path under a
        # plain file changes neither the exit code nor the output
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        argv = [command, "starred.lg", "--calculus", "LstarDia"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--cache-dir", str(blocker / "sub")) \
            == plain


class TestCutDerive:
    BASE = "p p \\ p => p\n# a comment\n\n[ p ] => dia p\n"

    def test_derivable(self, capsys, tmp_path):
        path = tmp_path / "base.seq"
        path.write_text(self.BASE)
        code, out, _ = run(capsys, "cut-derive", str(path),
                           "[ p p \\ p ] => dia p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[ p p \\ p ] => dia p"
        assert sum(1 for line in lines if line.endswith("[base]")) == 2

    def test_not_derivable(self, capsys, tmp_path):
        path = tmp_path / "base.seq"
        path.write_text(self.BASE)
        code, out, _ = run(capsys, "cut-derive", str(path), "p => dia p")
        assert (code, out.strip()) == (0, "NO")

    def test_json_tree(self, capsys, tmp_path):
        path = tmp_path / "base.seq"
        path.write_text(self.BASE)
        code, out, _ = run(capsys, "cut-derive", "--json", str(path),
                           "[ p p \\ p ] => dia p")
        assert code == 0
        payload = json.loads(out)
        assert payload["derivable"] is True
        d = cut_derives([parse_sequent(line) for line in
                         ("p p \\ p => p", "[ p ] => dia p")],
                        parse_sequent("[ p p \\ p ] => dia p"))
        assert payload["derivation"] == list(_cut_lines(d))

    def test_bad_base_line(self, capsys, tmp_path):
        path = tmp_path / "base.seq"
        path.write_text("p =>\n")
        code, _, err = run(capsys, "cut-derive", str(path), "p => p")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("line,message", [
        pytest.param("b => (b", "expected ')' (at position 7)",
                     id="unclosed-paren"),
        pytest.param("p p", "expected '=>' (at position 3)", id="no-arrow"),
        pytest.param("p => p => p",
                     "unexpected trailing input (at position 7)",
                     id="two-arrows"),
        pytest.param("_ => p", "hole token outside context parsing",
                     id="hole"),
        pytest.param("p $ => p", "unexpected character '$' (at position 2)",
                     id="refused-character"),
        pytest.param("[ p => dia p",
                     "expected a closing bracket (at position 4)",
                     id="unclosed-bracket"),
        pytest.param("p =>", "expected a type (at position 4)",
                     id="empty-succedent"),
    ])
    def test_bad_base_line_is_named(self, capsys, tmp_path, line, message):
        # the position is the whole line's, as parse_sequent reports it
        with pytest.raises(ParseError) as exc:
            parse_sequent(line)
        assert str(exc.value) == message
        path = tmp_path / "base.seq"
        path.write_text(f"# base\np => p\n\n{line}\n")
        code, _, err = run(capsys, "cut-derive", str(path), "p => p")
        assert code == 2
        assert err == f"error: line 4: {message}\n"

    @pytest.mark.parametrize("m,calc,goals", [
        (3, "Ldia", ["[ p p \\ p ] => dia p", "p => dia p",
                     "p p \\ p p \\ p => p", "[ boxd p ] => p", "p p => p",
                     "[ [ p ] ] => dia dia p"]),
        (2, "L1starDia", ["[ ] => dia 1", "p => p", "1 => 1",
                          "p / p p p \\ p => p", "dia p => p"]),
    ], ids=["Ldia-3", "L1starDia-2"])
    def test_base_reads_as_its_lines(self, capsys, tmp_path, m, calc, goals):
        # the file the rule base prints reads as per-line parse_sequent
        # reads it, and each goal gets the reference base's answer
        lines = [print_sequent(s) for s in build_rulesets({"p"}, m, calc).rules]
        path = tmp_path / "base.seq"
        path.write_text("".join(line + "\n" for line in lines))
        ref = [parse_sequent(line) for line in lines]
        assert _read_base(path.read_text()) == ref
        verdicts = set()
        for goal in goals:
            d = cut_derives(ref, parse_sequent(goal))
            verdicts.add(d is not None)
            want = "NO" if d is None else "\n".join(_cut_lines(d))
            assert run(capsys, "cut-derive", str(path), goal) \
                == (0, want + "\n", "")
        assert verdicts == {True, False}

    def test_deep_unit_chain(self, capsys, tmp_path):
        # q => p0, then p_k => p_k+1 for 1500 steps: every Cut nests
        n = 1500
        lines = ["q => p0"] + [f"p{k} => p{k + 1}" for k in range(n)]
        path = tmp_path / "base.seq"
        path.write_text("\n".join(lines) + "\n")
        goal = f"q => p{n}"
        code, out, err = run(capsys, "cut-derive", str(path), goal)
        assert (code, err) == (0, "")
        base = [parse_sequent(line) for line in lines]
        d = cut_derives(base, parse_sequent(goal))
        assert out.splitlines() == list(_cut_lines(d))
        assert out.splitlines()[0] == goal
        assert d.cut_count() == n and replay_cuts(d, set(base))
        # the JSON form lists the same lines, so it nests no deeper
        code, out, err = run(capsys, "cut-derive", "--json", str(path), goal)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"derivable": True,
                                   "derivation": list(_cut_lines(d))}

    @pytest.mark.parametrize("mutation", ["leaf", "swapped"])
    def test_wrong_answer_is_refused(self, capsys, monkeypatch, tmp_path,
                                     mutation):
        # a derivation from outside the base, and one whose Cut does not
        # rebuild its conclusion; neither is printed
        def mutated(base, goal):
            d = cut_derives(base, goal)
            if mutation == "leaf":
                return CutDerivation(goal)
            return replace(d, left=d.right, right=d.left)

        monkeypatch.setattr("lambrack.cli.cut_derives", mutated)
        path = tmp_path / "base.seq"
        path.write_text(self.BASE)
        code, out, err = run(capsys, "cut-derive", str(path),
                             "[ p p \\ p ] => dia p")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestCompare:
    def test_starred_grammar(self, capsys):
        code, out, _ = run(capsys, "compare", "starred.lg",
                           "--calculus", "LstarDia")
        assert code == 0
        assert out.strip() == "EQUIVALENT up to 4"

    @pytest.mark.parametrize("grammar,calc,bound", [
        ("brackets.lg", "Ldia", 5), ("starred.lg", "LstarDia", 4)])
    def test_default_bound_is_the_checked_one(self, capsys, monkeypatch,
                                              grammar, calc, bound):
        checked = []

        def spy(*args, **kwargs):
            checked.append(kwargs["max_len"])
            return run_equivalence(*args, **kwargs)

        monkeypatch.setattr("lambrack.cli.run_equivalence", spy)
        code, out, _ = run(capsys, "compare", grammar, "--calculus", calc)
        assert (code, out) == (0, f"EQUIVALENT up to {bound}\n")
        assert checked == [bound] and default_max_len(calc) == bound

    @pytest.mark.parametrize("grammar, calc, bound", [
        ("brackets.lg", "Ldia", "0"), ("brackets.lg", "Ldia", "-1"),
        ("starred.lg", "LstarDia", "-1")])
    def test_bound_admitting_no_string(self, capsys, grammar, calc, bound):
        code, out, err = run(capsys, "compare", grammar, "--calculus", calc,
                             "--max-len", bound)
        assert (code, out) == (2, "")
        assert err == f"error: a length bound of {bound} admits no string\n"

    def test_max_len_override(self, capsys):
        code, out, _ = run(capsys, "compare", "anbn.lg", "--max-len", "2")
        assert code == 0
        assert out.strip() == "EQUIVALENT up to 2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "compare", "--json", "anbn.lg",
                           "--max-len", "2")
        assert code == 0
        assert json.loads(out)["status"] == "pass"


class TestReport:
    def _fake(self, reports):
        def run_all(**kwargs):
            return reports
        return run_all

    def test_all_pass(self, capsys, monkeypatch, tmp_path):
        good = Report(claim="demo", status="pass", counts={"n": 1},
                      elapsed=0.0)
        monkeypatch.setattr("lambrack.cli.run_all", self._fake([good]))
        code, out, _ = run(capsys, "report", "--out", str(tmp_path))
        assert code == 0
        assert "ALL PASS" in out
        assert "wrote" in out

    def test_failure_sets_exit_code(self, capsys, monkeypatch, tmp_path):
        bad = Report(claim="demo", status="fail", counts={}, elapsed=0.0,
                     reproducer="p => q")
        monkeypatch.setattr("lambrack.cli.run_all", self._fake([bad]))
        code, out, _ = run(capsys, "report", "--json", "--out",
                           str(tmp_path))
        assert code == 1
        assert json.loads(out)["ok"] is False


    def test_json_is_the_written_report(self, capsys, monkeypatch,
                                        tmp_path):
        # report --json prints byte for byte what report.json holds
        reports = [Report(claim="demo", status="pass", counts={"n": 1},
                          elapsed=0.5, notes=("a note",)),
                   Report(claim="other", status="fail", counts={},
                          elapsed=0.0, reproducer="p => q")]

        def run_all(seed, out_dir, **kwargs):
            write_reports(reports, out_dir, seed=seed)
            return reports

        monkeypatch.setattr("lambrack.cli.run_all", run_all)
        code, out, _ = run(capsys, "report", "--json", "--seed", "7",
                           "--out", str(tmp_path))
        assert code == 1
        assert out == (tmp_path / "report.json").read_text()
        assert json.loads(out)["seed"] == 7


class TestInternalErrors:
    # a RuntimeError from a failed internal check is one line and exit 1;
    # its two subclasses keep their own clauses
    @pytest.mark.parametrize("callee, argv", [
        ("prove", ["prove", "p => p"]),
        ("extract_interpolant", ["interpolate", "p p \\ q => q",
                                 "_ p \\ q"]),
        ("word_of", ["interpret", "p"]),
    ])
    def test_runtime_error_is_one_line(self, capsys, monkeypatch, callee,
                                       argv):
        def fail(*args, **kwargs):
            raise RuntimeError("a reduction piece proves p => p, not q => q")

        monkeypatch.setattr(f"lambrack.cli.{callee}", fail)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("error: a reduction piece proves p => p, "
                       "not q => q\n")

    @pytest.mark.parametrize("exc, code, message", [
        (RecursionError, 2, "error: input nests too deeply"),
        (ProofSearchTimeout, 1, "error: proof search timed out"),
    ])
    def test_subclasses_keep_their_clauses(self, capsys, monkeypatch, exc,
                                           code, message):
        def fail(*args, **kwargs):
            raise exc("no answer")

        monkeypatch.setattr("lambrack.cli.prove", fail)
        got, out, err = run(capsys, "prove", "p => p")
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["compile", "anbn.lg", "--timeout-ms", "5"],
        ["parse", "-", "a b", "--calculus", "Ldia"],
        ["report", "--calculus", "Ldia"],
        ["interpret", "p", "--cache-dir", "."],
        ["thin", "-", "--timeout-ms", "5"],
        ["compare", "anbn.lg", "--cache-dir", "."],
        ["report", "--cache-dir", "."],
    ])
    def test_flag_the_handler_ignores(self, capsys, argv):
        # a flag is offered only where its handler reads it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestParserReuse:
    """One argument parser serves every ``main`` call of a process."""

    def test_two_calls_build_it_once(self, capsys):
        _build_parser.cache_clear()
        assert run(capsys, "prove", "p => p")[0] == 0
        assert run(capsys, "interpret", "p")[0] == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_usage_error_leaves_no_state(self, capsys):
        _build_parser.cache_clear()
        alone = run(capsys, "prove", "--json", "p p \\ q => q")
        _build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "prove", "--json", "p p \\ q => q") == alone
        assert alone[0] == 0
        assert _build_parser.cache_info().misses == 1

    def test_callee_patched_after_the_build(self, capsys, monkeypatch):
        assert run(capsys, "prove", "p => p")[0] == 0
        built = _build_parser()
        monkeypatch.setattr("lambrack.cli.prove", lambda *a, **k: None)
        assert run(capsys, "prove", "p => p") == (0, "UNPROVABLE\n", "")
        assert _build_parser() is built
