"""The three workloads: set-up, timed phase and checks.

A workload is a class with ``setup`` (build the inputs, run any
warm-up), ``timed`` (the closed loop of operations, one after the
other), ``verify`` (compare every answer with its reference, after the
timed phase, with tracing off) and ``extra_metrics`` (its own metrics
for the report line).  Each operation's record is
``[kind, ms, error, answer, round]``.  An operation fails when it
raised, timed out, exited non-zero or answered wrongly; ``verify``
sets the error of a wrong answer to a string starting with "wrong".
"""

import contextlib
import io
import json
import time
from collections import Counter
from itertools import product
from pathlib import Path

import inputs

# Generous per-request proof budget: a hang guard far above the slowest
# goal (a few seconds), so that no goal times out by chance.
TIMEOUT_MS = 120_000

# lambrack modules, filled in by bind() after the import.
L = None


def bind(package):
    global L
    L = package


def _closed_loop(tracer, ops, execute):
    """Run ``ops`` one after the other; returns (records, wall seconds).

    ``ops`` holds (kind, payload, round); round -1 marks operations
    outside the repeated rounds.
    """
    records = []
    clock = time.perf_counter
    started = clock()
    for op_id, (kind, payload, rnd) in enumerate(ops):
        error = answer = None
        with tracer.op(kind, op_id):
            t0 = clock()
            try:
                answer = execute(kind, payload)
            except RecursionError:
                error = "RecursionError"
            except L.prover.ProofSearchTimeout:
                error = "ProofSearchTimeout"
            except Exception as exc:    # any other crash is a failed op
                error = f"{type(exc).__name__}: {exc}"[:200]
            ms = (clock() - t0) * 1000.0
        records.append([kind, ms, error, answer, rnd])
    return records, clock() - started


# --- requests ----------------------------------------------------------------

class Requests:
    """Single-sequent library requests with a cold memo each."""

    name = "requests"

    def setup(self, seed, seconds, workdir):
        self.ops = [(kind, (goal, extra), r) for r, ops
                    in enumerate(inputs.request_rounds(seed, seconds))
                    for kind, goal, extra in ops]

    def execute(self, kind, payload):
        goal, extra = payload
        syntax, prover = L.syntax, L.prover
        calc = syntax.calculus(goal.calc)
        s = syntax.parse_sequent(goal.text, calc)
        if kind == "reduce":
            return s, L.interpolate.cut_reduce_flat(s, {"p", "q"}, 2, calc)
        proof = prover.Prover(calc, timeout_ms=TIMEOUT_MS).prove(s)
        if kind == "prove":
            if proof is None:
                return False, None
            back = prover.parse_proof(prover.print_proof(proof))
            return True, back == proof and prover.check(back, calc)
        if proof is None:
            return s, None, None, None, None
        thin, theta = L.interpolate.thin_index(proof, calc)
        part = L.interpolate.partition_at(s.antecedent, *extra)
        res = L.interpolate.extract_interpolant(proof, part, calc)
        return s, thin, theta, part, res

    def timed(self, tracer):
        return _closed_loop(tracer, self.ops, self.execute)

    def verify(self, records):
        base = set(L.compiler.build_rulesets({"p", "q"}, 2, "Ldia").flat_rules)
        for rec, (kind, (goal, extra), _) in zip(records, self.ops):
            if rec[2] is None:
                wrong = self._wrong(kind, goal, extra, rec[3], base)
                if wrong:
                    rec[2] = f"wrong: {wrong}"
            if rec[2] is not None:
                rec[2] += f" | {kind} {goal.calc} {goal.text[:160]}"

    def _wrong(self, kind, goal, extra, answer, base):
        if kind == "prove":
            provable, round_trip = answer
            if provable != goal.provable:
                return f"verdict {provable}, schema {goal.schema} says " \
                       f"{goal.provable}"
            if provable and not round_trip:
                return "proof fails its text round trip or check"
            return None
        if kind == "reduce":
            s, d = answer
            if d.conclusion != s or not L.cfgkit.replay_cuts(d, base):
                return "reduction does not replay over the rule base"
            if any(len(leaf.antecedent) > 2 for leaf in d.leaves()):
                return "reduction leaf with more than two types"
            return None
        return _interpolation_wrong(goal, extra, answer)

    def extra_metrics(self, records):
        return {}

    def describe(self):
        by_calc = Counter()
        mix = Counter()
        for kind, (goal, _), _ in self.ops:
            mix[kind] += 1
            if kind == "prove":
                by_calc[f"{goal.calc}/{inputs.bucket_of(goal.size)}"] += 1
        return {"op_mix": dict(mix), "prove_goals_by_calculus_and_size":
                dict(sorted(by_calc.items())),
                "timeout_ms": TIMEOUT_MS}


def _atom_counts(text):
    out = Counter()
    for tok in text.replace("(", " ").replace(")", " ").split():
        if tok.isalpha() and tok not in ("dia", "boxd"):
            out[tok] += 1
    return out


def _interpolation_wrong(goal, extra, answer):
    s, thin, theta, part, res = answer
    syntax, prover = L.syntax, L.prover
    if s is None or res is None:
        return "provable goal found unprovable"
    calc = syntax.calculus(goal.calc)
    interp = res.interpolant
    left = syntax.sequent(part.selected, interp)
    right = syntax.sequent(syntax.plug(part.context, (syntax.leaf(interp),)),
                           s.succedent)
    if res.left_proof.conclusion != left or \
            res.right_proof.conclusion != right:
        return "interpolant proofs do not conclude the cut halves"
    if not (prover.check(res.left_proof, calc)
            and prover.check(res.right_proof, calc)):
        return "interpolant proofs fail check"
    # occurrence bound, counted on the printed text
    inner = _atom_counts(syntax.print_type(interp))
    selected = _atom_counts(syntax.print_hedge(part.selected))
    outer = _atom_counts(syntax.print_hedge(syntax.plug(part.context, ()))
                         + " " + syntax.print_type(s.succedent))
    for atom, n in inner.items():
        if n > min(selected[atom], outer[atom]):
            return f"interpolant uses {atom} {n} times"
    icalc = L.interpolate.indexed_counterpart(calc)
    if not (syntax.is_thin(thin.conclusion)
            and syntax.deindex(thin.conclusion, theta) == s
            and prover.check(thin, icalc)):
        return "thin-indexed proof is not a thin renaming that checks"
    return None


# --- grammars -----------------------------------------------------------------

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = L.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Grammars:
    """The command-line flow: compile, then parse and cut-derive."""

    name = "grammars"

    def setup(self, seed, seconds, workdir):
        self.workdir = workdir
        self.cache = workdir / "rule-cache"
        self.ops = []
        for name, (calc, *_) in inputs.LANGUAGES.items():
            cfg = str(workdir / f"{name}.cfg")
            argv = ["compile", name, "--calculus", calc, "--cache-dir",
                    str(self.cache), "--output", cfg]
            self.ops += [("compile_cold", (argv, name), -1),
                         ("compile_warm", (argv, name), -1)]
        rules = L.compiler.build_rulesets({"p"}, inputs.CUT_BASE_M, "Ldia")
        self.base = list(rules.rules)
        base_file = workdir / "base.seq"
        base_file.write_text("".join(L.syntax.print_sequent(b) + "\n"
                                     for b in self.base))
        for r, ops in enumerate(inputs.grammar_rounds(seed, seconds)):
            for kind, item in ops:
                if kind == "parse":
                    name, tokens, expected = item
                    argv = ["parse", str(workdir / f"{name}.cfg"),
                            " ".join(tokens), "--json"]
                    self.ops.append((kind, (argv, expected), r))
                else:
                    argv = ["cut-derive", str(base_file), item, "--json"]
                    self.ops.append((kind, (argv, item), r))

    def execute(self, kind, payload):
        return _cli(payload[0])

    def timed(self, tracer):
        return _closed_loop(tracer, self.ops, self.execute)

    def verify(self, records):
        self.derivable = Counter()
        for rec, (kind, payload, _) in zip(records, self.ops):
            if rec[2] is None:
                wrong = self._wrong(kind, payload, rec[3])
                if wrong:
                    rec[2] = wrong
            if rec[2] is not None:
                rec[2] += " | lambrack " + " ".join(
                    repr(a) if " " in a else a for a in payload[0])[:240]
            rec[3] = None

    def _wrong(self, kind, payload, answer):
        code, out, err = answer
        if code != 0:
            return f"exit {code}: {err.strip()[:160]}"
        if kind.startswith("compile"):
            return None
        verdict = json.loads(out)["derivable"]
        if kind == "parse":
            if verdict != payload[1]:
                return f"wrong: derivable {verdict}, the language says " \
                       f"{payload[1]}"
            return None
        goal = L.syntax.parse_sequent(payload[1])
        d = L.cfgkit.cut_derives(self.base, goal)
        self.derivable[verdict] += 1
        provable = L.prover.prove(goal, "Ldia") is not None
        if verdict != (d is not None):
            return "wrong: the command and the library disagree"
        if d is not None and not L.cfgkit.replay_cuts(d, self.base):
            return "wrong: the Cut derivation does not replay"
        if verdict != provable:
            return f"wrong: Cut-derivable {verdict} but provable {provable}"
        return None

    def extra_metrics(self, records):
        """Compile times, and the productions across the compiled files."""
        out = {}
        for kind in ("compile_cold", "compile_warm"):
            out[f"{kind}_s"] = (sum(r[1] for r in records if r[0] == kind)
                                / 1000.0, "s")
        total = 0
        for name in inputs.LANGUAGES:
            lines = (self.workdir / f"{name}.cfg").read_text().splitlines()
            total += sum(1 for line in lines if "->" in line)
        out["cfg_productions"] = (total, "count")
        return out

    def describe(self):
        mix = Counter(kind for kind, _, _ in self.ops)
        lengths = Counter()
        for kind, payload, _ in self.ops:
            if kind == "parse":
                grammar = Path(payload[0][1]).name[:-len(".cfg")]
                lengths[f"{grammar}/{len(payload[0][2].split())}"] += 1
        return {"op_mix": dict(mix),
                "parse_strings_by_grammar_and_length":
                    dict(sorted(lengths.items())),
                "cut_derive_answers": {"derivable": self.derivable[True],
                                       "not_derivable": self.derivable[False]},
                "cut_base_rules": len(self.base),
                "cut_base": f"build_rulesets({{p}}, {inputs.CUT_BASE_M}, "
                            f"Ldia)"}


# --- claims --------------------------------------------------------------------

CUT_STRIDE = 500
BRACKETS_MAX_LEN = 4
ANBN_MAX_LEN = 5


def _language_counts(name, max_len):
    """(strings, members) the equivalence claim must report."""
    _, alphabet, member, _ = inputs.LANGUAGES[name]
    strings = members = 0
    for n in range(1, max_len + 1):
        for toks in product(alphabet, repeat=n):
            strings += 1
            members += member(toks)
    return {"strings": strings, "members": members}


# The frozen acceptance counts; "unbalanced_checked" depends on the
# stride: at the acceptance stride of 50 it is 12159, made of 1171
# candidates of the small plain population checked in full and one in
# 50 of the rest.  At stride 500 the same split gives 2270.
EXPECTED = {
    "interpolation-sweep": {"sequents": 1996, "partitions": 9342,
                            "thin_partitions": 9342},
    "cut-completeness": {"candidates": 551326, "balanced": 780,
                         "provable": 90, "cut_derivable": 90,
                         "unbalanced_checked": 2270},
    "equivalence-brackets": _language_counts("brackets.lg",
                                             BRACKETS_MAX_LEN),
    "equivalence-anbn": _language_counts("anbn.lg", ANBN_MAX_LEN),
}


class Claims:
    """Part of the report battery, through the public run_* functions."""

    name = "claims"

    def setup(self, seed, seconds, workdir):
        # the equivalence claims read a warm rule cache
        self.cache = str(workdir / "rule-cache")
        for name in ("anbn.lg", "brackets.lg"):
            code, _, err = _cli(["compile", name, "--cache-dir", self.cache,
                                 "--output", str(workdir / f"{name}.cfg")])
            if code != 0:
                raise RuntimeError(f"warm-up compile of {name} failed: "
                                   f"{err.strip()}")
        self.ops = [
            ("interpolation-sweep", {}, 0),
            ("cut-completeness", {"sample_stride": CUT_STRIDE}, 0),
            ("equivalence-brackets", {"source": "brackets.lg",
                                      "max_len": BRACKETS_MAX_LEN}, 0),
            ("equivalence-anbn", {"source": "anbn.lg",
                                  "max_len": ANBN_MAX_LEN}, 0),
        ]

    def execute(self, kind, params):
        harness = L.harness
        if kind == "interpolation-sweep":
            return harness.run_interpolation_sweep(timeout_ms=TIMEOUT_MS)
        if kind == "cut-completeness":
            return harness.run_cut_completeness(timeout_ms=TIMEOUT_MS,
                                                **params)
        return harness.run_equivalence(calc="Ldia", timeout_ms=TIMEOUT_MS,
                                       cache_dir=self.cache, **params)

    def timed(self, tracer):
        return _closed_loop(tracer, self.ops, self.execute)

    def verify(self, records):
        for rec, (kind, params, _) in zip(records, self.ops):
            report = rec[3]
            if rec[2] is None:
                if not report.ok:
                    rec[2] = f"wrong: claim failed: {report.reproducer}"
                elif dict(report.counts) != EXPECTED[kind]:
                    rec[2] = (f"wrong: counts {dict(report.counts)}, "
                              f"expected {EXPECTED[kind]}")
            if rec[2] is not None:
                rec[2] += f" | {kind} {params}"
            rec[3] = None

    def extra_metrics(self, records):
        return {}

    def describe(self):
        return {"claims": {kind: params for kind, params, _ in self.ops},
                "expected_counts": EXPECTED, "timeout_ms": TIMEOUT_MS,
                "note": "exhaustive inputs: the seed changes nothing"}


WORKLOADS = {w.name: w for w in (Requests, Grammars, Claims)}
