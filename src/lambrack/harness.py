"""Cross-validation harness: every checkable claim as an executable report.

Each ``run_*`` function exercises one family of claims end to end and
returns a Report; ``run_all`` executes the whole battery in a fixed
order and can persist the results as ``report.json`` and ``report.txt``.
Randomized suites take an explicit seed, exhaustive suites enumerate in
a deterministic order, so two runs with the same arguments reach the
same verdicts and counts (elapsed times naturally vary).

Claims share no state: a claim that builds a population the free-group
soundness check re-reads hands it over in its Report's
``thin_sequents``, and ``run_all`` passes it on.

Where a sweep needs the language of a grammar, the two sides are
decided by disjoint code paths: the grammar side by brute-force hedge
enumeration plus proof search, the compiled side by chart parsing.
Agreement between them is therefore a genuine cross-check rather than
one implementation confirming itself.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, product
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Optional

from .cfgkit import CutBase, cut_derives, derives, print_cfg, replay_cuts
from .compiler import build_rulesets, compile_cfg, enum_types
from .freegroup import (
    IDENTITY, count_key, inv, mul, prim_letter, print_word, shrinking_pair,
    wlen, word, word_of,
)
from .interpolate import (
    InterpolationResult, _contract_fault, _extract, _guarded, _thin_rebuild,
    cut_reduce, extract_interpolant, partition_at, thin_index,
)
from .prover import (
    ProofSearchTimeout, Prover, check, parse_proof, print_proof, prove,
    translate_flat,
)
from .syntax import (
    L, L1STAR, L1STAR_DIA, L1STAR_DIA_M, LDIA, LDIA_M, UNIT,
    Grammar, boxdown, bracket, calculus, children_at, deindex, dia, is_thin,
    leaf, length, mod_total, over, parse_grammar, parse_sequent, parse_type,
    partitions, preorder, prim, print_sequent, prod, sequent, under,
)

__all__ = [
    "Report",
    "BUNDLED_GRAMMARS",
    "DEFAULT_SEED",
    "bundled_grammar",
    "load_grammar",
    "run_golden",
    "run_interpolation_sweep",
    "run_shrinking_trials",
    "run_reduction_sweep",
    "run_cut_completeness",
    "run_equivalence",
    "default_max_len",
    "run_identity_family",
    "run_freegroup_soundness",
    "run_all",
    "format_reports",
    "report_payload",
    "write_reports",
]

DEFAULT_SEED = 1729

# Reference sequents exercised by run_golden.
REFERENCE_BRACKETED = "[ [ p ] dia p \\ p ] => boxd dia dia p"
REFERENCE_BRACKETED_THIN = \
    "[:2 [:1 p1 ]:1 dia:1 p1 \\ p2 ]:2 => boxd:3 dia:3 dia:2 p2"
REFERENCE_UNDERIVABLE = "dia boxd p dia boxd q => dia boxd (p * q)"
REFERENCE_UNIT = \
    "p3 / dia:1 (p1 * dia:2 (p2 / p2)) [:1 p1 [:2 ]:2 ]:1 => p3"
REFERENCE_UNIT_INTERPOLANT = "dia:1 (p1 * dia:2 1)"

# Grammars shipped with the package and the calculus each recognizes in.
BUNDLED_GRAMMARS = (
    ("anbn.lg", "Ldia"),
    ("brackets.lg", "Ldia"),
    ("starred.lg", "LstarDia"),
)


def bundled_grammar(name: str) -> Grammar:
    """Load one of the grammars shipped under ``lambrack/grammars``."""
    path = resources.files("lambrack") / "grammars" / name
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        known = ", ".join(n for n, _ in BUNDLED_GRAMMARS)
        raise ValueError(f"no bundled grammar {name!r}; have {known}")
    return parse_grammar(text)


@dataclass(frozen=True)
class Report:
    """Outcome of one claim family: verdict, tallies, and provenance."""

    claim: str
    status: str
    counts: Mapping[str, int]
    elapsed: float
    artifacts: tuple = ()
    reproducer: Optional[str] = None
    notes: tuple = field(default=())
    # thin-indexed conclusions of the provable sequents the claim built,
    # for run_freegroup_soundness; not part of the persisted report
    thin_sequents: tuple = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "counts": dict(self.counts),
            "elapsed": self.elapsed,
            "artifacts": list(self.artifacts),
            "reproducer": self.reproducer,
            "notes": list(self.notes),
        }


def _finish(claim, started, counts, failures, notes=(), artifacts=(),
            thin_sequents=()):
    failures = list(failures)
    return Report(
        claim=claim,
        status="fail" if failures else "pass",
        counts=dict(counts),
        elapsed=time.monotonic() - started,
        artifacts=tuple(str(a) for a in artifacts),
        reproducer=failures[0] if failures else None,
        notes=tuple(notes),
        thin_sequents=tuple(thin_sequents),
    )


# ---------------------------------------------------------------------------
# The one candidate enumerator: rows of types and their balanced hedges


def _bracket_blocks(n: int, b: int, allow_empty: bool):
    """The one hedge order: after the hedges over ``n`` types with
    ``b`` bracket pairs that start with a leaf come those whose first
    bracket holds the first ``k`` types and ``i`` brackets, by ``(k,
    i)`` ascending.  The empty ``(0, 0)`` comes only with
    ``allow_empty``; without it a wider empty bracket has no hedges."""
    for k in range(n + 1):
        for i in range(b):
            if k or i or allow_empty:
                yield k, i


def _hedges_exact(seg: tuple, b: int, allow_empty: bool, memo: dict) -> tuple:
    """All hedges with yield ``seg`` and exactly ``b`` bracket pairs.

    Decomposition by the first tree is unique, so no hedge is produced
    twice.  ``allow_empty`` admits brackets with no contents, which only
    the calculi with empty antecedents accept.

    ``memo`` maps each ``(seg, b, allow_empty)`` enumerated so far to
    its hedges, so sub-hedges are shared between the hedges that
    contain them and each bracket node computes its free-group word
    once.  The caller owns the memo: every claim keeps one for its own
    run only, so the hedges and their cached words are dropped when
    the claim returns.
    """
    key = (seg, b, allow_empty)
    out = memo.get(key)
    if out is not None:
        return out
    if b == 0:
        out = (tuple(leaf(t) for t in seg),)
        memo[key] = out
        return out
    out = []
    if seg:
        first = leaf(seg[0])
        for rest in _hedges_exact(seg[1:], b, allow_empty, memo):
            out.append((first,) + rest)
    for k, i in _bracket_blocks(len(seg), b, allow_empty):
        for inner in _hedges_exact(seg[:k], i, allow_empty, memo):
            first = bracket(inner)
            for rest in _hedges_exact(seg[k:], b - 1 - i, allow_empty, memo):
                out.append((first,) + rest)
    out = tuple(out)
    memo[key] = out
    return out


def _hedge_count(n: int, b: int, allow_empty: bool, memo: dict) -> int:
    """``len(_hedges_exact(seg, b, allow_empty, ...))`` for any ``seg``
    of length ``n``, by the same decomposition; ``memo`` maps each
    ``(n, b, allow_empty)`` counted so far to its count."""
    key = (n, b, allow_empty)
    out = memo.get(key)
    if out is not None:
        return out
    if b == 0:
        out = 1
    else:
        out = _hedge_count(n - 1, b, allow_empty, memo) if n else 0
        for k, i in _bracket_blocks(n, b, allow_empty):
            out += (_hedge_count(k, i, allow_empty, memo)
                    * _hedge_count(n - k, b - 1 - i, allow_empty, memo))
    memo[key] = out
    return out


def _hedge_at(seg: tuple, b: int, allow_empty: bool, index: int,
              counts: dict) -> tuple:
    """``_hedges_exact(seg, b, allow_empty, ...)[index]``, built alone.

    Unranks along ``_hedges_exact``'s decomposition: first the hedges
    that start with a leaf, then the ``_bracket_blocks``; within one
    ``(k, i)`` the inner hedge varies slowest.
    ``counts`` is ``_hedge_count``'s memo.
    """
    if b == 0:
        if index:
            raise IndexError("hedge index out of range")
        return tuple(leaf(t) for t in seg)
    n = len(seg)
    if n:
        c = _hedge_count(n - 1, b, allow_empty, counts)
        if index < c:
            return (leaf(seg[0]),) + _hedge_at(seg[1:], b, allow_empty,
                                               index, counts)
        index -= c
    for k, i in _bracket_blocks(n, b, allow_empty):
        rest = _hedge_count(n - k, b - 1 - i, allow_empty, counts)
        block = _hedge_count(k, i, allow_empty, counts) * rest
        if index < block:
            inner, index = divmod(index, rest)
            first = bracket(_hedge_at(seg[:k], i, allow_empty, inner, counts))
            return (first,) + _hedge_at(seg[k:], b - 1 - i, allow_empty,
                                        index, counts)
        index -= block
    raise IndexError("hedge index out of range")


def _bracket_count(row_key, succ_key):
    """The one number of plain bracket pairs that can balance a row
    against a succedent, or None.

    A plain bracket adds one ``<`` and one ``>`` letter, so every hedge
    over the row with ``b`` brackets has the row's count key with both
    bracket sums raised by ``b``.  Equal words have equal count keys, so
    no hedge at any other ``b`` has the succedent's word.
    """
    rest, opens, closes = row_key
    succ_rest, succ_opens, succ_closes = succ_key
    b = succ_opens - opens
    if b < 0 or succ_closes - closes != b or succ_rest != rest:
        return None
    return b


def _rows(types, shortest, admit=None):
    """Yield ``(row, w, mods)`` for the rows of ``shortest`` up to
    ``len(types)`` types, the ``i``-th from ``types[i]``, in DFS
    preorder (at one length, ``product`` order); the reduced word ``w``
    and the modality total ``mods`` grow with the row.  ``admit(row)``
    is asked of each nonempty row before it is yielded or grown: a
    refused row drops with its extensions and the rest of its position,
    so ``admit`` must refuse only at the end of each position's types.
    """
    words, mods = {}, {}
    for t in set(chain.from_iterable(types)):
        words[t], mods[t] = word_of(t), mod_total(t)
    if shortest == 0:
        yield (), IDENTITY, 0
    stack = [((), IDENTITY, 0, iter(types[0]))] if types else []
    while stack:
        row, w, m, rest = stack[-1]
        n = len(row) + 1
        for t in rest:
            grown = row + (t,)
            if admit is not None and not admit(grown):
                stack.pop()
                break
            item = grown, mul(w, words[t]), m + mods[t]
            if n >= shortest:
                yield item
            if n < len(types):
                stack.append(item + (iter(types[n]),))
                break
        else:
            stack.pop()


def _succedents(types):
    """``types`` indexed for ``_balanced``: by word, by the non-bracket
    part of their count keys, and an empty memo of row words."""
    by_word, keys = {}, {}
    for t in types:
        w = word_of(t)
        by_word.setdefault(w, []).append(t)
        key = count_key(w)
        keys.setdefault(key[0], set()).add(key)
    return by_word, keys, {}


def _balanced(row, w, succs, allow_empty, hedges, max_b=None):
    """Yield ``(b, j, h, succ)`` for every hedge ``h`` over ``row`` that
    has the word of a succedent ``succ`` of ``succs`` (``_succedents``):
    ``h`` is the ``j``-th of ``_hedges_exact(row, b, ...)``, and only
    the ``b`` up to ``max_b`` at which ``_bracket_count`` balances some
    succedent are enumerated.  Order: by ``b``, ``j``, then succedent.
    ``w`` is the row's word from ``_rows``; the count key is read off
    it once per word, as exponent sums ignore cancellation, and at
    ``b = 0`` the one hedge is the row itself, whose word is ``w``.
    """
    by_word, keys, memo = succs
    bs = memo.get(w)
    if bs is None:
        key = count_key(w)
        bs = memo[w] = sorted(
            {_bracket_count(key, k) for k in keys.get(key[0], ())} - {None})
    for b in bs:
        if max_b is not None and b > max_b:
            return
        if b == 0:
            for succ in by_word.get(w, ()):
                yield 0, 0, tuple(map(leaf, row)), succ
            continue
        for j, h in enumerate(_hedges_exact(row, b, allow_empty, hedges)):
            for succ in by_word.get(word_of(h), ()):
                yield b, j, h, succ


# ---------------------------------------------------------------------------
# Reference sequents


def run_golden(timeout_ms: Optional[float] = None, out_dir=None) -> Report:
    """Check the fixed reference sequents and the thin-indexing golden.

    Covers: the bracketed demonstration sequent proves and its emitted
    derivation survives a text round-trip plus replay; thin indexing of
    that proof yields the expected indexed conclusion and substitution;
    the modal distribution sequent is underivable while its flat
    translation proves; the unit-calculus reference interpolates to the
    expected guarded type.
    """
    started = time.monotonic()
    failures = []
    notes = []
    artifacts = []
    checks = 0

    def expect(cond, label):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(label)

    try:
        s1 = parse_sequent(REFERENCE_BRACKETED)
        p1 = prove(s1, LDIA, timeout_ms=timeout_ms)
        expect(p1 is not None, f"not provable: {REFERENCE_BRACKETED}")
        if p1 is not None:
            expect(check(p1, LDIA), "emitted derivation fails replay")
            back = parse_proof(print_proof(p1))
            expect(back == p1 and check(back, LDIA),
                   "proof text round-trip changed the derivation")
            thin, theta = thin_index(p1, LDIA)
            expect(thin.conclusion == parse_sequent(REFERENCE_BRACKETED_THIN),
                   f"thin conclusion is {print_sequent(thin.conclusion)}")
            expect(theta == {"p1": "p", "p2": "p"},
                   f"thin substitution is {theta}")
            expect(is_thin(thin.conclusion), "thin conclusion is not thin")
            expect(check(thin, LDIA_M), "thin proof fails replay")
            expect(deindex(thin.conclusion, theta) == s1,
                   "deindexing does not recover the original")
            if out_dir is not None:
                path = Path(out_dir) / "reference-bracketed.proof"
                path.write_text(print_proof(p1))
                artifacts.append(path)

        s2 = parse_sequent(REFERENCE_UNDERIVABLE)
        expect(prove(s2, LDIA, timeout_ms=timeout_ms) is None,
               f"unexpectedly provable: {REFERENCE_UNDERIVABLE}")
        flat = sequent(
            tuple(leaf(translate_flat(tr.type)) for tr in s2.antecedent),
            translate_flat(s2.succedent))
        expect(prove(flat, L, timeout_ms=timeout_ms) is not None,
               f"flat translation not provable: {print_sequent(flat)}")
        notes.append(
            "flat translation of the underivable reference: "
            + print_sequent(flat))

        s3 = parse_sequent(REFERENCE_UNIT)
        p3 = prove(s3, L1STAR_DIA_M, timeout_ms=timeout_ms)
        expect(p3 is not None, f"not provable: {REFERENCE_UNIT}")
        if p3 is not None:
            part = partition_at(s3.antecedent, (), 1, 2)
            res = extract_interpolant(p3, part, L1STAR_DIA_M)
            expect(res.interpolant is parse_type(REFERENCE_UNIT_INTERPOLANT),
                   f"interpolant is {res.interpolant}")
            expect(check(res.left_proof, L1STAR_DIA_M)
                   and check(res.right_proof, L1STAR_DIA_M),
                   "interpolation proofs fail replay")
            if out_dir is not None:
                path = Path(out_dir) / "reference-unit.proof"
                path.write_text(print_proof(p3))
                artifacts.append(path)
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    return _finish("golden-sequents", started, {"checks": checks},
                   failures, notes, artifacts)


# ---------------------------------------------------------------------------
# Interpolation sweep


def _types_by_connectives(prims, max_conn):
    """Types over ``prims`` with at most ``max_conn`` connectives, each
    mapped to its connective count, in order of that count."""
    by_conn = [[prim(str(name)) for name in sorted(prims)]]
    for c in range(1, max_conn + 1):
        layer = []
        for a in by_conn[c - 1]:
            layer.extend((dia(a), boxdown(a)))
        for k in range(c):
            for a in by_conn[k]:
                for b in by_conn[c - 1 - k]:
                    layer.extend((under(a, b), over(a, b), prod(a, b)))
        by_conn.append(layer)
    return {t: c for c, layer in enumerate(by_conn) for t in layer}


def _interp_population(timeout_ms=None):
    """All bracketed sequents provable in the plain bracket calculus with
    at most 3 antecedent leaves, 3 connectives in total, primitives
    {p, q}, and no more bracket pairs than antecedent modalities, as
    ``(sequent, proof)`` pairs in enumeration order.

    The bracket cap is a choice, not a need: the count invariant already
    bounds the bracket count, so the enumeration ends without it.  It
    leaves out the sequents whose brackets a succedent diamond consumes,
    such as ``[ p ] => dia p``; the acceptance tests freeze the 1,996
    sequents it keeps.
    """
    conn = _types_by_connectives(("p", "q"), 3)
    types = list(conn)

    def spent(row):
        return sum(map(conn.__getitem__, row))

    # the succedents that fit in what a row leaves of the budget
    succs = [_succedents(t for t in types if conn[t] <= left)
             for left in range(4)]
    prover = Prover(LDIA, timeout_ms=timeout_ms)
    hedges = {}
    found = []
    for row, w, mods in _rows([types] * 3, 1, lambda row: spent(row) <= 3):
        for _, _, h, succ in _balanced(row, w, succs[3 - spent(row)],
                                       False, hedges, mods):
            s = sequent(h, succ)
            pf = prover.prove(s)
            if pf is not None:
                found.append((s, pf))
    return found


def run_interpolation_sweep(timeout_ms: Optional[float] = None) -> Report:
    """Interpolate every partition of every small provable sequent.

    Each population proof is checked once and interpolated at every
    span coordinate, and each result must meet ``_contract_fault``'s
    contract.  The prover hands out one proof per settled goal, so the
    population proofs share subproofs: ``check`` skips the nodes it has
    accepted, and one ``_extract`` memo serves the plain interpolations
    (``Ldia`` has no unit, so none is guarded), so each proof node is
    matched once and each (proof node, span) problem solved once.  The
    interpolant at every span of the proof's thin form (built from the
    checked proof, not checked again) must have the length of the
    selected span's reduced free-group word.  Thin forms share no nodes
    across proofs, and they go without a memo.  A proof failing its
    check is a failure with its sequent as reproducer.  The
    thin-indexed conclusions are the Report's ``thin_sequents``.
    """
    started = time.monotonic()
    failures = []
    n_parts = n_thin = 0
    pairs = []
    thin_forms = []
    extracted = {}
    try:
        pairs = _interp_population(timeout_ms)
        for s, pf in pairs:
            if pf.conclusion != s or not check(pf, LDIA):
                failures.append(f"population proof fails its check: "
                                f"{print_sequent(s)}")
                continue
            guarded = _guarded(LDIA, s)
            for parent, lo, hi in partitions(s.antecedent):
                n_parts += 1
                res = InterpolationResult(
                    *_extract(pf, parent, lo, hi, LDIA, guarded, extracted))
                if _contract_fault(s, parent, lo, hi, res, LDIA):
                    failures.append(
                        f"interpolation contract fails at {parent} "
                        f"[{lo}:{hi}] of {print_sequent(s)}")
            thin, _ = _thin_rebuild(pf)
            t = thin.conclusion
            thin_forms.append(t)
            guarded = _guarded(LDIA_M, t)
            for parent, lo, hi in partitions(t.antecedent):
                n_thin += 1
                e, _, _ = _extract(thin, parent, lo, hi, LDIA_M, guarded)
                selected = children_at(t.antecedent, parent)[lo:hi]
                if length(e) != wlen(word_of(selected)):
                    failures.append(
                        f"thin interpolant length mismatch at {parent} "
                        f"[{lo}:{hi}] of {print_sequent(t)}")
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    counts = {"sequents": len(pairs), "partitions": n_parts,
              "thin_partitions": n_thin}
    return _finish("interpolation-sweep", started, counts, failures,
                   thin_sequents=thin_forms)


# ---------------------------------------------------------------------------
# Shrinking-pair trials


def run_shrinking_trials(trials: int = 10000, max_factors: int = 6,
                      max_len: int = 4,
                      seed: int = DEFAULT_SEED) -> Report:
    """Randomized check that identity products admit a shrinking pair.

    Tuples are built by telescoping: random short words ``v_i`` give
    factors ``u_i = inv(v_{i-1}) * v_i`` whose product collapses to the
    identity and whose lengths stay within ``max_len``.  Every tuple
    must yield an adjacent pair whose product is no longer than the
    longer factor.
    """
    started = time.monotonic()
    failures = []
    rng = random.Random(seed)
    letters = [prim_letter(name, sign)
               for name in ("a", "b", "c") for sign in (1, -1)]

    def random_word(max_half):
        out = IDENTITY
        for _ in range(rng.randint(0, max_half)):
            grown = [mul(out, word([l])) for l in letters]
            out = rng.choice([w for w in grown if wlen(w) > wlen(out)])
        return out

    splits = 0
    for _ in range(trials):
        n = rng.randint(2, max_factors)
        vs = [IDENTITY] + [random_word(max_len // 2) for _ in range(n - 1)]
        vs.append(IDENTITY)
        us = [mul(inv(vs[i]), vs[i + 1]) for i in range(n)]
        total = IDENTITY
        for u in us:
            total = mul(total, u)
        if total != IDENTITY or any(wlen(u) > max_len for u in us):
            failures.append("generator emitted an invalid tuple: "
                            + ", ".join(print_word(u) for u in us))
            continue
        k = shrinking_pair(us)
        merged = mul(us[k - 1], us[k])
        if not (1 <= k <= n - 1
                and wlen(merged) <= max(wlen(us[k - 1]), wlen(us[k]))):
            failures.append("no valid shrinking pair for: "
                            + ", ".join(print_word(u) for u in us))
        else:
            splits += 1

    counts = {"trials": trials, "splits": splits}
    return _finish("shrinking-pairs", started, counts, failures)


# ---------------------------------------------------------------------------
# Flat reduction sweep


def _reduction_candidates():
    """Yield the word-balanced flat sequents with one to five antecedent
    types from the length-2 enumeration over {p, q}, in enumeration
    order: by the free-group invariant no other one is provable."""
    types = enum_types({"p", "q"}, 2)
    succs, hedges = _succedents(types), {}
    for row, w, _ in _rows([types] * 5, 1):
        for _, _, h, succ in _balanced(row, w, succs, False, hedges):
            yield sequent(h, succ)


def run_reduction_sweep(timeout_ms: Optional[float] = None) -> Report:
    """Reduce every short provable flat sequent to bounded Cut pieces.

    The population is every provable one of ``_reduction_candidates``,
    each reduced from the proof the sweep's one ``Prover`` found.
    Each reduction must replay to its sequent, its leaves must be
    members of the two-premise rule set, and every intermediate
    conclusion must be provable on its own.
    """
    started = time.monotonic()
    failures = []
    prover = Prover(LDIA, timeout_ms=timeout_ms)
    rules = build_rulesets({"p", "q"}, 2, LDIA)
    base = set(rules.flat_rules)
    candidates = provable = nodes = 0
    try:
        for s in _reduction_candidates():
            candidates += 1
            proof = prover.prove(s)
            if proof is None:
                continue
            provable += 1
            d = cut_reduce(proof, {"p", "q"}, 2, LDIA)
            if d.conclusion != s or not replay_cuts(d, base):
                failures.append(f"reduction fails for {print_sequent(s)}")
                continue
            for node, _ in preorder(d, attrgetter("premises")):
                nodes += 1
                if node.is_leaf:
                    if node.conclusion not in base:
                        failures.append(
                            f"leaf outside the rule set: "
                            f"{print_sequent(node.conclusion)}")
                elif prover.prove(node.conclusion) is None:
                    failures.append(
                        f"unprovable intermediate: "
                        f"{print_sequent(node.conclusion)}")
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    counts = {"balanced_candidates": candidates, "provable": provable,
              "derivation_nodes": nodes}
    return _finish("flat-reduction-sweep", started, counts, failures)


# ---------------------------------------------------------------------------
# Cut completeness


def run_cut_completeness(timeout_ms: Optional[float] = None,
                         sample_stride: int = 50) -> Report:
    """Provability coincides with Cut-derivability from the rule sets.

    For primitive set {p} at length bound 2, in both the plain and the
    guarded mode: every candidate whose free-group words balance gets
    the full biconditional check (prove, Cut-derive, replay the
    derivation against the base).  Word-unbalanced candidates are
    unprovable by the free-group invariant, and Cut-derivability would
    contradict the provability of the base, so on that side every
    ``sample_stride``-th candidate is checked to be underivable rather
    than all of them; small populations are checked exhaustively.  A
    stride below 1 is a ``ValueError``.

    Of the candidate groups ``(row, succ, b)``, ``_balanced`` builds
    only the balanced candidates, each with its index in its group; the
    groups are counted with ``_hedge_count`` and the sampled unbalanced
    candidates built by ``_hedge_at``, so the same ones are sampled as
    if every group were enumerated.  Each mode's rule set is read as a
    grammar once, as a ``CutBase``.  The thin-indexed conclusions of
    the provable candidates are the Report's ``thin_sequents``.
    """
    if sample_stride < 1:
        raise ValueError(f"a sample stride of {sample_stride} is below 1")
    started = time.monotonic()
    failures = []
    total = balanced_n = provable = derivable = sampled = 0
    thin_forms = []
    try:
        for calc, guarded in ((LDIA, False), (L1STAR_DIA, True)):
            types = enum_types({"p"}, 2, guarded=guarded)
            rules = build_rulesets({"p"}, 2, calc)
            base = CutBase(rules.rules)
            prover = Prover(calc, timeout_ms=timeout_ms)
            succs = _succedents(types)
            empty = calc.starred
            rows = [r for n in range(0 if empty else 1, 5)
                    for r in _rows([types] * n, n)]

            def groups(m):
                # a row's candidate groups (succ, b): every succedent, at
                # every bracket count within the sequent's modality budget
                return [(succ, b) for succ in types
                        for b in range(m + mod_total(succ) + 1)]

            counts = {}
            n_candidates = sum(_hedge_count(len(row), b, empty, counts)
                               for row, _, m in rows for _, b in groups(m))
            total += n_candidates
            stride = 1 if n_candidates <= 10000 else sample_stride
            unbalanced_i = 0
            hedges = {}
            for row, w, m in rows:
                hits = {}
                for b, j, h, succ in _balanced(row, w, succs, empty, hedges):
                    hits.setdefault((succ, b), []).append((j, h))
                for succ, b in groups(m):
                    # the unbalanced candidates before each balanced one
                    # are sampled by their index in the group
                    size = _hedge_count(len(row), b, empty, counts)
                    start = 0
                    for j, h in hits.get((succ, b), []) + [(size, None)]:
                        for k in range(start + -unbalanced_i % stride, j,
                                       stride):
                            sampled += 1
                            s = sequent(_hedge_at(row, b, empty, k, counts),
                                        succ)
                            if cut_derives(base, s) is not None:
                                failures.append(
                                    f"word-unbalanced sequent Cut-derives: "
                                    f"{print_sequent(s)}")
                        unbalanced_i += j - start
                        start = j + 1
                        if h is None:
                            continue
                        s = sequent(h, succ)
                        balanced_n += 1
                        pf = prover.prove(s)
                        d = cut_derives(base, s)
                        if pf is not None:
                            provable += 1
                            # a search proof is built with the
                            # principals the rebuild reads
                            thin_forms.append(_thin_rebuild(pf)[0].conclusion)
                        if d is not None:
                            derivable += 1
                            if not replay_cuts(d, base):
                                failures.append(f"derivation fails replay: "
                                                f"{print_sequent(s)}")
                        if (pf is None) != (d is None):
                            failures.append(
                                f"provability and Cut-derivability "
                                f"disagree: {print_sequent(s)}")
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    counts = {"candidates": total, "balanced": balanced_n,
              "provable": provable, "cut_derivable": derivable,
              "unbalanced_checked": sampled}
    notes = ("word-unbalanced candidates are spot-checked at a fixed "
             "stride; the full biconditional runs on every balanced one",)
    return _finish("cut-completeness", started, counts, failures, notes,
                   thin_sequents=thin_forms)


# ---------------------------------------------------------------------------
# Grammar equivalence


def load_grammar(source):
    """Load a grammar from a filesystem path or a bundled grammar name.

    Returns the pair of a short display name and the parsed grammar.
    """
    path = Path(source)
    if path.exists():
        return path.stem, parse_grammar(path.read_text())
    name = str(source)
    return name.rsplit(".", 1)[0], bundled_grammar(name)


def _grammar_member(g, word_toks, calc, prover, hedges):
    """Brute-force membership: some bracketing of some lexicon type
    assignment derives the distinguished type.  ``hedges`` is the
    caller's memo for ``_hedges_exact``.

    The prover sees the word-balanced hedges of each assignment, in
    ``product`` order, from ``_balanced``.  No modality budget is
    needed: by the count invariant a balancing count is at most the
    modalities of the assignment plus those of the distinguished type,
    below the assignment's modalities plus the distinguished type's
    length.
    """
    target = g.distinguished
    succs = _succedents((target,))
    assigns = [g.types_of(tok) for tok in word_toks]
    for row, w, _ in _rows(assigns, len(assigns)):
        for _, _, h, _ in _balanced(row, w, succs, calc.starred, hedges):
            if prover.prove(sequent(h, target)) is not None:
                return True
    return False


def default_max_len(calc) -> int:
    """``run_equivalence``'s string length bound when none is given: 4
    in a starred calculus, 5 otherwise."""
    return 4 if calculus(calc).starred else 5


def run_equivalence(source, calc=LDIA, max_len: Optional[int] = None,
                    timeout_ms: Optional[float] = None, out_dir=None,
                    cache_dir=None) -> Report:
    """Grammar and compiled CFG agree on all short strings.

    The grammar side asks the prover of every word-balanced bracketing
    of every lexicon type assignment (``_grammar_member``); the
    compiled side parses with the chart recognizer.  ``cache_dir`` is
    accepted and ignored, since compiles no longer cache their rules;
    it goes with the next change to the benchmark that passes it.
    """
    started = time.monotonic()
    failures = []
    calc = calculus(calc)
    if calc.name not in ("Ldia", "LstarDia"):
        raise ValueError("equivalence runs on the plain or the starred "
                         f"bracket calculus, not {calc.name}")
    name, g = load_grammar(source)
    if max_len is None:
        max_len = default_max_len(calc)
    if max_len < (0 if calc.starred else 1):
        raise ValueError(f"a length bound of {max_len} admits no string")
    cfg = compile_cfg(g, calc)
    prover = Prover(calc, timeout_ms=timeout_ms)
    hedges = {}
    alphabet = sorted(g.alphabet)
    strings = []
    for n in range(0 if calc.starred else 1, max_len + 1):
        strings.extend(product(alphabet, repeat=n))
    members = 0
    artifacts = []
    try:
        for toks in strings:
            direct = _grammar_member(g, toks, calc, prover, hedges)
            compiled = derives(cfg, cfg.start, list(toks)) is not None
            shown = " ".join(toks) if toks else "the empty string"
            if direct != compiled:
                failures.append(
                    f"membership disagrees on {shown}: grammar side "
                    f"{direct}, compiled side {compiled}")
                continue
            if direct:
                members += 1
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    if out_dir is not None:
        path = Path(out_dir) / f"{name}-cfg.txt"
        path.write_text(print_cfg(cfg))
        artifacts.append(path)
    counts = {"strings": len(strings), "members": members}
    return _finish(f"equivalence-{name}", started, counts, failures,
                   artifacts=artifacts)


# ---------------------------------------------------------------------------
# The length-one identity family


def run_identity_family(max_i: int = 4,
                  timeout_ms: Optional[float] = None) -> Report:
    """Facts about the family q, (1/q)\\1, (1/(1/q)\\1)\\1, ...

    Every member has length one, proves itself, and fails to prove the
    base primitive; those are the checked claims.  The full ordered
    provability matrix is also measured and reported in the counts: in
    this calculus every member proves every other member except the
    bare primitive, so only the arrows into the base distinguish the
    family.
    """
    if not 1 <= max_i <= 6:
        raise ValueError("the family sweep is sized for indices 1 to 6")
    started = time.monotonic()
    failures = []
    family = [prim("q")]
    for _ in range(max_i):
        family.append(under(over(UNIT, family[-1]), UNIT))

    identities = refutations = provable_pairs = 0
    try:
        for i, t in enumerate(family):
            if length(t) != 1:
                failures.append(f"member {i} has length {length(t)}")
            s = sequent((leaf(t),), t)
            if prove(s, L1STAR, timeout_ms=timeout_ms) is None:
                failures.append(f"identity fails for member {i}")
            else:
                identities += 1
        for i in range(1, max_i + 1):
            s = sequent((leaf(family[i]),), family[0])
            if prove(s, L1STAR, timeout_ms=timeout_ms) is not None:
                failures.append(
                    f"member {i} unexpectedly proves the base primitive")
            else:
                refutations += 1
        for i in range(max_i + 1):
            for j in range(max_i + 1):
                if i == j:
                    continue
                s = sequent((leaf(family[i]),), family[j])
                if prove(s, L1STAR, timeout_ms=timeout_ms) is not None:
                    provable_pairs += 1
    except ProofSearchTimeout as exc:
        failures.append(f"proof search timed out: {exc}")

    counts = {"members": max_i + 1, "identities": identities,
              "base_refutations": refutations,
              "provable_ordered_pairs": provable_pairs}
    notes = ("all ordered pairs prove except the arrows into the base "
             "primitive; the members beyond the base are mutually "
             "interderivable",)
    return _finish("identity-family", started, counts, failures, notes)


# ---------------------------------------------------------------------------
# Free-group soundness over the sweep populations


def run_freegroup_soundness(thin_sequents) -> Report:
    """Thin-indexed provable sequents interpret to equal group words.

    ``thin_sequents`` are the thin-indexed conclusions of provable
    sequents, as the interpolation sweep and Cut completeness hand them
    over in their Reports' ``thin_sequents``; the free-group
    interpretations of each antecedent and succedent are compared.
    """
    started = time.monotonic()
    failures = [f"unbalanced thin provable sequent: {print_sequent(s)}"
                for s in thin_sequents
                if word_of(s.antecedent) != word_of(s.succedent)]
    counts = {"sequents": len(thin_sequents)}
    return _finish("free-group-soundness", started, counts, failures)


# ---------------------------------------------------------------------------
# The full battery


def run_all(seed: int = DEFAULT_SEED,
            timeout_ms: Optional[float] = 60000.0,
            out_dir=None) -> list:
    """Run every claim family in a fixed order.

    When ``out_dir`` is given, artifacts are emitted there and the
    combined results are written as ``report.json`` and ``report.txt``.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    reports = [
        run_golden(timeout_ms=timeout_ms, out_dir=out_dir),
        interp := run_interpolation_sweep(timeout_ms=timeout_ms),
        run_shrinking_trials(seed=seed),
        run_reduction_sweep(timeout_ms=timeout_ms),
        cut := run_cut_completeness(timeout_ms=timeout_ms),
    ]
    for name, calc_name in BUNDLED_GRAMMARS:
        reports.append(run_equivalence(name, calc_name,
                                       timeout_ms=timeout_ms,
                                       out_dir=out_dir))
    reports.append(run_identity_family(timeout_ms=timeout_ms))
    reports.append(run_freegroup_soundness(interp.thin_sequents
                                           + cut.thin_sequents))
    if out_dir is not None:
        write_reports(reports, out_dir, seed=seed)
    return reports


def format_reports(reports, seed: Optional[int] = None) -> str:
    lines = []
    if seed is not None:
        lines.append(f"seed {seed}")
    for r in reports:
        tallies = ", ".join(f"{k}={v}" for k, v in r.counts.items())
        lines.append(f"{r.status.upper():4s} {r.claim} "
                     f"({tallies}; {r.elapsed:.1f}s)")
        if r.reproducer is not None:
            lines.append(f"     reproducer: {r.reproducer}")
        for note in r.notes:
            lines.append(f"     note: {note}")
        for a in r.artifacts:
            lines.append(f"     artifact: {a}")
    ok = all(r.ok for r in reports)
    lines.append("ALL PASS" if ok else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def report_payload(reports, seed: Optional[int] = None) -> dict:
    """The document ``report.json`` holds and ``report --json`` prints:
    the seed, whether every claim passed, and each report."""
    return {"seed": seed, "ok": all(r.ok for r in reports),
            "reports": [r.to_dict() for r in reports]}


def write_reports(reports, out_dir, seed: Optional[int] = None):
    """Persist reports as ``report.json`` and ``report.txt``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    txt_path = out_dir / "report.txt"
    json_path.write_text(json.dumps(report_payload(reports, seed), indent=2)
                         + "\n")
    txt_path.write_text(format_reports(reports, seed=seed))
    return json_path, txt_path
