"""Interpolant extraction, thin indexing, and the Cut reduction.

The centre of this module is ``extract_interpolant``: given a cut-free
proof of ``Γ[Δ] ⇒ C`` and the partition ``(Δ; Γ[∎])`` of its
antecedent, it computes a type ``E`` together with cut-free proofs of
``Δ ⇒ E`` and ``Γ[E] ⇒ C`` whose primitive and modality counts are
bounded by both sides of the partition.  The recursion follows the
last rule of the proof; every rule splits into subcases by how the
selected span sits relative to the rule's active positions, and when
several subcases apply the first matching one (in a fixed order) is
taken.  Unit calculi add two interceptions (an empty selection and a
selection that is exactly the unit leaf deleted by the last rule, both
with interpolant ``1``); guarded mode adds two more (a selection that
is an empty bracket or a single ``dia 1`` leaf, with interpolant
``dia 1``), keeping interpolants inside the guarded fragment.

``thin_index`` renames primitives and modality indices apart so that
each occurs at most twice in the conclusion; on such thin sequents the
interpolant's length equals the reduced free-group length of the
selection's image, which is what makes the length bounds of the
grammar compilation work.  ``cut_reduce`` rebuilds the conclusion of a
proof from bounded pieces using only Cut: ``_descend`` interpolates at the
spot where a bracket pair is introduced to replace that pair by a
single bridging type, and flat rows are split by iterated
interpolation into two-premise pieces; ``cut_reduce_flat`` is its
bracket-free case.

A proof is checked once, where it enters; ``_extract`` then works on it
at span coordinates ``(parent, lo, hi)``, and ``_contract_fault`` is the
one statement of what an interpolation must satisfy.
"""

from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Optional

from .cfgkit import CutDerivation, cut_leaf, cut_node
from .freegroup import inv, shrinking_pair, word_of
from .prover import LEFT_RULES, Proof, apply_rule, check, is_guarded, prove
from .syntax import (
    HOLE, L1STAR_DIA_M, LDIA_M, UNIT,
    Bracket, Calculus, Dia, Hedge, Leaf, Sequent, Type, _counts_of,
    boxdown, bracket, bracket_addresses, calculus, children_at, deindex,
    dia, fold, hole_coords, is_flat, leaf, length, plug, prim, prim_counts,
    print_sequent, print_type, replace_span, sequent, sequent_types,
    span_partition,
)

__all__ = [
    "Partition", "InterpolationResult", "partition_at",
    "indexed_counterpart", "thin_index",
    "extract_interpolant",
    "cut_reduce", "cut_reduce_flat",
]

# The one UnitR leaf, ``=> 1``, that every rebuilt proof shares.
_UNIT_R = Proof(sequent((), UNIT), "UnitR")


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """A split of an antecedent into a context and a selected span.

    ``context`` is a hedge with exactly one hole; plugging ``selected``
    into it restores the antecedent.  The selection is always a run of
    adjacent siblings somewhere in the tree.
    """

    context: Hedge
    selected: Hedge


@dataclass(frozen=True)
class InterpolationResult:
    """An interpolant with its two witnessing proofs.

    ``left_proof`` concludes ``selected ⇒ interpolant`` and
    ``right_proof`` concludes ``context[interpolant] ⇒ succedent``.
    """

    interpolant: Type
    left_proof: Proof
    right_proof: Proof


def partition_at(h: Hedge, parent: tuple, lo: int, hi: int) -> Partition:
    """The partition selecting siblings ``lo..hi-1`` under ``parent``."""
    context, selected = span_partition(h, parent, lo, hi)
    return Partition(context, selected)


# ---------------------------------------------------------------------------
# Thin indexing


def indexed_counterpart(calc) -> Calculus:
    """The indexed calculus in which thin-indexed proofs are checked."""
    calc = calculus(calc)
    if calc.unit or calc.starred:
        return L1STAR_DIA_M
    return LDIA_M


def thin_index(p: Proof, calc):
    """Rebuild ``p`` with fresh primitives and fresh modality indices.

    Every initial sequent gets a fresh primitive ``p1, p2, ...`` and
    every bracket-introducing rule instance a fresh index ``1, 2, ...``
    (both in post-order), so the conclusion becomes thin: no symbol
    occurs more than twice.  Returns the rebuilt proof together with
    the substitution ``theta`` mapping fresh primitive names back to
    the originals; deindexing the new conclusion through ``theta``
    gives the old one with its indices stripped (the old one itself
    when ``p`` is not indexed).
    """
    calc = calculus(calc)
    if not check(p, calc):
        raise ValueError(f"proof does not check in {calc.name}")
    return _thin_rebuild(p)


def _thin_rebuild(p: Proof):
    """``thin_index`` of a proof that ``check`` has already passed,
    which confirmed the principals the rebuild reads."""
    theta = {}
    indices = count(1)

    def rebuild(node: Proof, prems: tuple) -> Proof:
        rule = node.rule
        if rule == "Ax":
            t = prim(f"p{len(theta) + 1}")
            theta[t.name] = node.conclusion.succedent.name
            return Proof(sequent((leaf(t),), t), "Ax")
        if rule == "UnitR":
            return _UNIT_R
        index = next(indices) if rule in ("DiaR", "BoxDownL") else None
        return apply_rule(rule, node.principal, prems, index)

    out = fold(p, attrgetter("premises"), rebuild)
    if deindex(out.conclusion, theta) != deindex(p.conclusion):
        raise RuntimeError("thin indexing changed the conclusion of "
                           f"{print_sequent(p.conclusion)} to "
                           f"{print_sequent(out.conclusion)}")
    return out, theta


# ---------------------------------------------------------------------------
# Interpolant extraction


def extract_interpolant(p: Proof, part: Partition, calc,
                        guarded: Optional[bool] = None) -> InterpolationResult:
    """Interpolate ``p``'s conclusion at the given partition.

    ``guarded`` selects the guarded-fragment variant (interpolants stay
    inside types whose only unit occurrences sit directly under a
    diamond); by default it is on exactly when the calculus has the
    unit and every type in the conclusion is guarded.
    """
    calc = calculus(calc)
    if not check(p, calc):
        raise ValueError(f"proof does not check in {calc.name}")
    s = p.conclusion
    if guarded is None:
        guarded = _guarded(calc, s)
    elif guarded:
        if not calc.unit:
            raise ValueError("guarded interpolation needs a unit calculus")
        if not all(is_guarded(t) for t in sequent_types(s)):
            raise ValueError("guarded interpolation needs guarded types")
    if plug(part.context, part.selected) != s.antecedent:
        raise ValueError("partition does not match the proof's antecedent")
    parent, lo = hole_coords(part.context)
    hi = lo + len(part.selected)
    if lo == hi and guarded:
        raise ValueError("guarded interpolation needs a nonempty selection")
    if lo == hi and not calc.unit:
        raise ValueError("an empty selection needs a unit calculus")
    return InterpolationResult(*_extract(p, parent, lo, hi, calc, guarded))


def _contract_fault(s: Sequent, parent: tuple, lo: int, hi: int,
                    res: InterpolationResult, calc) -> Optional[str]:
    """Why ``res`` does not interpolate ``s`` at the span ``[lo, hi)``
    under ``parent``, or None: its proofs must conclude the two cut
    halves and pass ``check``, and each primitive and modality index
    may occur in ``E`` no more often than on either side of the cut."""
    ante, e = s.antecedent, res.interpolant
    selected = children_at(ante, parent)[lo:hi]
    right = sequent(replace_span(ante, parent, lo, hi, (leaf(e),)),
                    s.succedent)
    if (res.left_proof.conclusion != sequent(selected, e)
            or res.right_proof.conclusion != right
            or not check(res.left_proof, calc)
            or not check(res.right_proof, calc)):
        return "an interpolation proof fails its check against its cut half"
    outer = sequent(replace_span(ante, parent, lo, hi, ()), s.succedent)
    # one walk per object gives its primitive and its modality counts
    counts = [_counts_of(x) for x in (e, selected, outer)]
    for inner, sel, out in zip(*counts):
        if any(n > min(sel[k], out[k]) for k, n in inner.items()):
            return ("the interpolant has more occurrences than a side of "
                    "the cut")
    return None


def _guarded(calc: Calculus, s: Sequent) -> bool:
    """The default interpolation mode: guarded exactly when ``calc`` has
    the unit and every type of ``s`` is guarded."""
    return calc.unit and all(is_guarded(t) for t in sequent_types(s))


def _index_of(node: Proof) -> Optional[int]:
    """The bracket index ``node``'s rule introduces, for re-applying
    that rule through ``apply_rule``: DiaR's and BoxDownL's, else None."""
    if node.rule == "DiaR":
        return node.conclusion.succedent.index
    if node.rule == "BoxDownL":
        P, j = node.principal
        return children_at(node.conclusion.antecedent, P)[j].index
    return None


def _shift(pr, parent: tuple, at: int, d: int):
    """The principal ``pr`` with each position at ``parent``'s level
    that is ``at`` or more moved by ``d``: the sibling positions of a
    left rule acting there, the tree a deeper one acts under, or
    ProdR's root split."""
    lp = len(parent)
    if isinstance(pr, int):
        return pr + d if not parent and pr >= at else pr
    if pr is None or pr[0][:lp] != parent:
        return pr
    P = pr[0]
    if len(P) == lp:
        return (P,) + tuple(v + d if v >= at else v for v in pr[1:])
    if P[lp] >= at:
        return (parent + (P[lp] + d,) + P[lp + 1:],) + pr[1:]
    return pr


# Width change, at the principal's level, from a one-premise left rule's
# conclusion to its premise.
_GROWTH = {"ProdL": 1, "DiaL": 0, "UnitL": -1, "BoxDownL": 0}


def _rule_span(rule: str, pr: tuple) -> tuple:
    """Where a left rule acts on its principal's level.

    Returns ``(b0, b1, a0, a1, delta)``: the rule rewrites the siblings
    ``[b0, b1)`` of its conclusion, a slash rule's first premise proves
    the argument hedge ``[a0, a1)`` (empty for the other rules), and
    the last premise is ``delta`` trees wider there than the conclusion.
    """
    x, y = pr[1], pr[-1]
    if rule == "UnderL" or rule == "OverL":
        side = 1 if rule == "OverL" else 0
        return x, y + 1 - side, x + side, y, x + side - y
    return x, x + 1, x, x, _GROWTH[rule]


def _mirror(side, width: int, lo: int, hi: int) -> tuple:
    """The span ``[lo, hi)`` of a level of ``width`` trees, read right
    to left when ``side`` is set."""
    return (width - hi, width - lo) if side else (lo, hi)


def _slash_principal(side, parent: tuple, width: int, g: int, j: int):
    """The principal of a slash rule whose argument is ``[g, j)`` in
    UnderL's orientation, at a level of ``width`` trees: UnderL's own
    ``(parent, g, j)``, or the OverL one of the mirror image."""
    if side:
        return parent, width - 1 - j, width - g
    return parent, g, j


def _extract(p: Proof, parent: tuple, lo: int, hi: int,
             calc: Calculus, guarded: bool, memo: Optional[dict] = None):
    """Return ``(E, left, right)`` for the span ``[lo, hi)`` at ``parent``.

    ``left`` proves the selected trees (as a whole antecedent) yield
    ``E``; ``right`` proves the conclusion with the span replaced by a
    single ``E`` leaf.

    ``memo``, when given, is owned by the caller and serves one
    calculus and one ``guarded`` mode.  It maps ``(id(p), parent, lo,
    hi)`` to ``(p, result)`` for every problem solved under it, so a
    proof node shared by several proofs is interpolated once per span.
    The key is the node's identity, not its conclusion, because the
    interpolant depends on the proof; keeping ``p`` keeps its id from
    being reused.
    """
    if memo is not None:
        key = (id(p), parent, lo, hi)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
    s = p.conclusion
    ante, succ = s.antecedent, s.succedent
    sel = children_at(ante, parent)[lo:hi]
    tr = sel[0] if len(sel) == 1 else None
    rule, pr = p.rule, p.principal

    # Guarded-fragment interceptions: an empty bracket or a lone
    # ``dia 1`` leaf interpolates to ``dia 1`` no matter the last rule.
    if guarded and isinstance(tr, Bracket) and not tr.children:
        left = apply_rule("DiaR", None, (_UNIT_R,), tr.index)
        inner = apply_rule("UnitL", (parent + (lo,), 0), (p,))
        right = apply_rule("DiaL", (parent, lo), (inner,))
        out = left.conclusion.succedent, left, right
    elif (guarded and isinstance(tr, Leaf) and isinstance(tr.type, Dia)
            and tr.type.body is UNIT):
        unit_id = apply_rule("UnitL", ((), 0), (_UNIT_R,))
        opened = apply_rule("DiaR", None, (unit_id,), tr.type.index)
        out = tr.type, apply_rule("DiaL", ((), 0), (opened,)), p

    # Unit-calculus interception: an empty selection interpolates to 1.
    elif lo == hi:
        if guarded:
            raise RuntimeError(
                "guarded recursion reached an empty selection "
                f"(at {parent!r}:{lo} in {print_sequent(s)})")
        if not calc.unit:
            raise ValueError(
                "an empty sub-selection has no interpolant without the unit "
                f"(at {parent!r}:{lo} in {print_sequent(s)})")
        out = UNIT, _UNIT_R, apply_rule("UnitL", (parent, lo), (p,))

    elif rule == "Ax":
        # The only nonempty span selects the single antecedent leaf.
        out = ante[0].type, p, p

    elif rule == "ProdR" and not parent and lo < pr < hi:
        # The selection crosses the split: interpolate both halves
        # and join them with a product.
        _, l1, r1 = _extract(p.premises[0], (), lo, pr, calc, guarded, memo)
        _, l2, r2 = _extract(p.premises[1], (), 0, hi - pr, calc, guarded,
                             memo)
        left = apply_rule("ProdR", pr - lo, (l1, l2))
        inner = apply_rule("ProdR", lo + 1, (r1, r2))
        right = apply_rule("ProdL", ((), lo), (inner,))
        out = left.conclusion.succedent, left, right

    elif rule == "DiaR" and not parent:
        # sel is the whole bracketed antecedent.
        _, l0, r0 = _extract(p.premises[0], (), 0, len(ante[0].children),
                             calc, guarded, memo)
        left = apply_rule("DiaR", None, (l0,), succ.index)
        mid = apply_rule("DiaR", None, (r0,), succ.index)
        right = apply_rule("DiaL", ((), 0), (mid,))
        out = left.conclusion.succedent, left, right

    elif rule in LEFT_RULES:
        # The last premise holds the rewritten context; a slash rule's
        # first premise proves its argument hedge.
        P, lp = pr[0], len(parent)
        q = p.premises[-1]
        b0, b1, a0, a1, delta = _rule_span(rule, pr)
        if P == parent:
            inside = lo <= b0 and b1 <= hi
        else:
            inside = len(P) > lp and P[:lp] == parent and lo <= P[lp] < hi
            delta = 0
        if (rule == "UnitL" and P == parent
                and (lo, hi) == (pr[1], pr[1] + 1)):
            # The selection is exactly the unit leaf this rule deletes.
            out = UNIT, apply_rule("UnitL", ((), 0), (_UNIT_R,)), p
        elif rule == "BoxDownL" and parent == P + (pr[1],):
            # The selection is exactly the boxed leaf inside the
            # principal bracket: interpolate the replacing type and box
            # the result.
            j, index = pr[1], _index_of(p)
            _, l0, r0 = _extract(q, P, j, j + 1, calc, guarded, memo)
            inner = apply_rule("BoxDownL", ((), 0), (l0,), index)
            left = apply_rule("BoxDownR", None, (inner,))
            right = apply_rule("BoxDownL", pr, (r0,), index)
            out = left.conclusion.succedent, left, right
        elif inside:
            # The whole rule block sits inside the selection.
            e, l, r = _extract(q, parent, lo, hi + delta, calc, guarded,
                               memo)
            inner = _shift(pr, parent, lo, -lo)
            left = apply_rule(rule, (inner[0][lp:],) + inner[1:],
                              p.premises[:-1] + (l,), _index_of(p))
            out = e, left, r
        elif (P == parent and lo < b1 and b0 < hi
                and not a0 <= lo < hi <= a1):
            # The selection crosses one end of a slash rule's block.
            # The two cases are written for UnderL, whose argument
            # [g, j) precedes the connective leaf at j; OverL reads them
            # through the mirror image of this one level (n trees wide,
            # with m selected and na in the argument).
            side = rule == "OverL"
            n, m, na = len(children_at(ante, P)), hi - lo, a1 - a0
            g, lo_, hi_ = (n - b1, n - hi, n - lo) if side else (b0, lo, hi)
            j = g + na
            if j < hi_:
                # Keeps the connective leaf, loses the far end of its
                # argument: interpolate as E \ F (or F / E).
                _, le, re = _extract(p.premises[0], (),
                                     *_mirror(side, na, 0, lo_ - g),
                                     calc, guarded, memo)
                _, lf, rf = _extract(q, P,
                                     *_mirror(side, n - na, g, g + hi_ - j),
                                     calc, guarded, memo)
                inner = apply_rule(rule, _slash_principal(
                    side, (), m + 1, 0, 1 + j - lo_), (re, lf))
                left = apply_rule("OverR" if side else "UnderR", None,
                                  (inner,))
                right = apply_rule(rule, _slash_principal(
                    side, P, n - m + 1, g, lo_), (le, rf))
            else:
                # Loses the connective leaf, keeps the far end of its
                # argument: interpolate as E • F (or F • E).
                _, lf, rf = _extract(p.premises[0], (),
                                     *_mirror(side, na, 0, hi_ - g),
                                     calc, guarded, memo)
                _, le, re = _extract(q, P, *_mirror(side, n - na, lo_, g),
                                     calc, guarded, memo)
                halves, split = (le, lf), g - lo_
                if side:
                    halves, split = (lf, le), m - split
                left = apply_rule("ProdR", split, halves)
                inner = apply_rule(rule, _slash_principal(
                    side, P, n - m + 2, lo_ + 1, j - m + 2), (rf, re))
                right = apply_rule("ProdL", (P, lo), (inner,))
            out = left.conclusion.succedent, left, right
        else:
            out = _pass_through(p, parent, lo, hi, calc, guarded, memo)

    else:
        out = _pass_through(p, parent, lo, hi, calc, guarded, memo)
    if memo is not None:
        memo[key] = p, out
    return out


def _pass_through(p: Proof, parent: tuple, lo: int, hi: int,
                  calc: Calculus, guarded: bool, memo: Optional[dict]):
    """``_extract`` for a span the last rule only carries: interpolate it
    in the premise that holds it, then re-apply the rule to the
    conclusion with the span collapsed to one leaf."""
    k, path = _premise_route(p, parent + (lo,))
    e, l, r = _extract(p.premises[k], path[:-1], path[-1],
                       path[-1] + hi - lo, calc, guarded, memo)
    right = apply_rule(p.rule, _shift(p.principal, parent, hi, 1 - (hi - lo)),
                       p.premises[:k] + (r,) + p.premises[k + 1:],
                       _index_of(p))
    return e, l, right


# ---------------------------------------------------------------------------
# Bracket bridges


def _premise_route(node: Proof, beta: tuple):
    """Which premise holds the tree at ``beta``, and at what address.

    ``beta`` must not address a tree the rule itself rewrites.
    ``_descend`` follows a bracket up the proof with it, and
    ``_pass_through`` carries a selected span through a rule by routing
    the span's first tree.
    """
    rule, pr = node.rule, node.principal
    if rule == "UnderR" or rule == "OverR":
        # UnderR's premise has the argument leaf in front of the root
        return 0, (beta[0] + (1 if rule == "UnderR" else 0),) + beta[1:]
    if rule == "ProdR":
        if beta[0] < pr:
            return 0, beta
        return 1, (beta[0] - pr,) + beta[1:]
    if rule == "DiaR":
        return 0, beta[1:]
    if rule == "BoxDownR":
        return 0, (0,) + beta
    if rule in LEFT_RULES:
        P = pr[0]
        lP = len(P)
        if len(beta) > lP and beta[:lP] == P:
            b0, b1, a0, a1, delta = _rule_span(rule, pr)
            t = beta[lP]
            if a0 <= t < a1:
                return 0, (t - a0,) + beta[lP + 1:]
            if t >= b1:
                return (len(node.premises) - 1,
                        P + (t + delta,) + beta[lP + 1:])
        return len(node.premises) - 1, beta
    raise AssertionError(f"no premise holds a tree under rule {rule}")


def _descend(node: Proof, beta: tuple, icalc: Calculus):
    """Walk the nonempty bracket ``⟨Δ⟩`` at ``beta`` of ``Γ[⟨Δ⟩] ⇒ C`` up
    to its introduction and bridge it: ``(B, "dia", a, b)`` with
    ``a : Δ ⇒ B`` and ``b : Γ[◊B] ⇒ C`` for a bracket read off a diamond
    succedent, ``(B, "boxd", a, b)`` with ``a : Δ ⇒ □↓B`` and
    ``b : Γ[B] ⇒ C`` for one wrapped round a box-down leaf."""
    rule, pr = node.rule, node.principal
    if rule == "DiaR" and beta == (0,):
        inner = node.premises[0]
        e, left, right = _extract(
            inner, (), 0, len(inner.conclusion.antecedent), icalc,
            _guarded(icalc, inner.conclusion))
        mid = apply_rule("DiaR", None, (right,), _index_of(node))
        return e, "dia", left, apply_rule("DiaL", ((), 0), (mid,))
    if rule == "BoxDownL" and beta == pr[0] + (pr[1],):
        P, j = pr
        inner = node.premises[0]
        e, left, right = _extract(inner, P, j, j + 1, icalc,
                                  _guarded(icalc, inner.conclusion))
        opened = apply_rule("BoxDownL", ((), 0), (left,), _index_of(node))
        return e, "boxd", apply_rule("BoxDownR", None, (opened,)), right
    target, beta2 = _premise_route(node, beta)
    b, variant, pa, pb = _descend(node.premises[target], beta2, icalc)
    if rule in LEFT_RULES and pr[0][:len(beta)] == beta:
        # The rule only transforms the bracket's contents: the proof of
        # the replaced conclusion passes through unchanged, and the rule
        # is re-applied on the contents side, re-rooted to the bracket.
        prems = node.premises[:target] + (pa,) + node.premises[target + 1:]
        pa = apply_rule(rule, (pr[0][len(beta):],) + pr[1:], prems,
                        _index_of(node))
        return b, variant, pa, pb
    prems = node.premises[:target] + (pb,) + node.premises[target + 1:]
    return b, variant, pa, apply_rule(rule, pr, prems, _index_of(node))


# ---------------------------------------------------------------------------
# Reduction to bounded pieces


def cut_reduce(p: Proof, prims, m: int, calc) -> CutDerivation:
    """Derive the conclusion of ``p`` from bounded pieces using Cut.

    ``prims`` is the allowed primitive set and ``m`` bounds type
    lengths.  Each step first cuts out the deepest bracket ``⟨Δ⟩``: an
    empty one from ``[ ] ⇒ ◊1``, any other from the bridge ``[B] ⇒ ◊B``
    or ``[□↓B] ⇒ B`` that ``_descend`` finds, with ``Δ ⇒ B`` or
    ``Δ ⇒ □↓B`` cut into it.  A flat row wider than two is split by
    interpolating an adjacent pair whose free-group images shrink when
    multiplied, or else the prefix before the last type.  Both halves
    recurse; every leaf is a bridge or a provable flat sequent with at
    most two antecedent types, all of length at most ``m`` over
    ``prims``.  In ``LstarDia`` an empty bracket brings in the unit:
    ``[ ] ⇒ ◊(p / p)`` at ``m = 4`` reduces to ``[ ] ⇒ ◊1`` and
    ``◊1 ⇒ ◊(p / p)``, so the leaves belong to the guarded base
    ``build_rulesets(prims, m, L1STAR_DIA)`` of starred grammars.
    ``p`` is checked (else ``ValueError``) and thin-indexed once; each
    step cuts a thin piece of it, unchecked.  A piece whose deindexed
    conclusion is not its sequent, an overlong interpolant or a bridge
    type longer than ``m - 2`` raise ``RuntimeError``.
    """
    calc = calculus(calc)
    if not calc.brackets:
        raise ValueError("the reduction searches proofs with brackets; "
                         f"{calc.name} has none")
    if not check(p, calc):
        raise ValueError(f"proof does not check in {calc.name}")
    prims = set(prims)
    for t in sequent_types(p.conclusion):
        extra = set(prim_counts(t)) - prims
        if extra:
            raise ValueError(
                f"primitives outside the base set: {sorted(extra)}")
        if length(t) > m:
            raise ValueError(f"type exceeds the length bound: "
                             f"{print_type(t)}")
        if calc.unit and not is_guarded(t):
            raise ValueError(f"unit mode needs guarded types: "
                             f"{print_type(t)}")
    thin, theta = _thin_rebuild(p)
    icalc = indexed_counterpart(calc)

    def reduce_step(seq: Sequent, prf: Proof) -> CutDerivation:
        # ``prf`` is a thin proof whose conclusion deindexes to ``seq``
        got = deindex(prf.conclusion, theta)
        if got != seq:
            raise RuntimeError(f"a reduction piece proves "
                               f"{print_sequent(got)}, not "
                               f"{print_sequent(seq)}")
        ante = seq.antecedent
        addrs = bracket_addresses(ante)
        if addrs:
            # Cut ``[Δ] ⇒ X`` into the rest ``Γ[X] ⇒ C`` at the deepest
            # bracket, whose contents ``Δ`` are flat
            beta = max(addrs, key=len)
            parent, j = beta[:-1], beta[-1]
            contents = children_at(ante, beta)
            if not contents:
                unit = apply_rule("UnitL", (beta, 0), (prf,))
                right = apply_rule("DiaL", (parent, j), (unit,))
                cut = cut_leaf(sequent((bracket(()),), dia(UNIT)))
            else:
                e, variant, left, right = _descend(prf, beta, icalc)
                b = deindex(e, theta)
                if length(b) > m - 2:
                    raise RuntimeError(f"bridge type {print_type(b)} of "
                                       f"{print_sequent(seq)} exceeds the "
                                       f"length bound {m} - 2")
                x, y = (b, dia(b)) if variant == "dia" else (boxdown(b), b)
                bridge = sequent((bracket((leaf(x),)),), y)
                cut = cut_node(reduce_step(sequent(contents, x), left),
                               cut_leaf(bridge), (bracket((HOLE,)),))
            position = replace_span(ante, parent, j, j + 1, (HOLE,))
            rest = sequent(replace_span(ante, parent, j, j + 1,
                                        (leaf(cut.conclusion.succedent),)),
                           seq.succedent)
            return cut_node(cut, reduce_step(rest, right), position)
        n = len(ante)
        if n <= 2:
            return cut_leaf(seq)
        tante = prf.conclusion.antecedent
        words = [word_of(tr) for tr in tante]
        words.append(inv(word_of(prf.conclusion.succedent)))
        k = shrinking_pair(words)
        pair = k <= n - 1
        lo, hi = (k - 1, k + 1) if pair else (0, n - 1)
        e, left, right = _extract(prf, (), lo, hi, icalc,
                                  _guarded(icalc, prf.conclusion))
        e = deindex(e, theta)
        if length(e) > m:
            raise RuntimeError(f"interpolant {print_type(e)} of "
                               f"{print_sequent(seq)} exceeds the length "
                               f"bound {m}")
        # Cut ``cut`` into ``rest`` at ``position``; the pair is a piece
        # and the rest recurses, or the prefix recurses and the rest is
        # a piece
        cut = sequent(ante[lo:hi], e)
        rest = sequent(ante[:lo] + (leaf(e),) + ante[hi:], seq.succedent)
        position = ante[:lo] + (HOLE,) + ante[hi:]
        if pair:
            return cut_node(cut_leaf(cut), reduce_step(rest, right),
                            position)
        return cut_node(reduce_step(cut, left), cut_leaf(rest), position)

    return reduce_step(p.conclusion, thin)


def cut_reduce_flat(s: Sequent, prims, m: int, calc) -> CutDerivation:
    """``cut_reduce`` of the proof ``prove`` finds for a sequent whose
    antecedent is a flat row of types."""
    if not is_flat(s.antecedent):
        raise ValueError("the antecedent must be a flat row of types")
    proof = prove(s, calc)
    if proof is None:
        raise ValueError(f"not provable: {print_sequent(s)}")
    return cut_reduce(proof, prims, m, calc)
