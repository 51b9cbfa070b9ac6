"""Interpolant extraction, thin indexing, and bracket elimination.

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
grammar compilation work.  ``eliminate_bracket`` uses an interpolant
at the spot where a designated bracket pair is introduced to replace
that pair by a single bridging type, and ``cut_reduce_flat`` iterates
interpolation to rebuild a flat provable sequent from bounded-length
two-premise pieces using only Cut.
"""

from dataclasses import dataclass
from typing import Optional

from .cfgkit import CutDerivation, cut_leaf, cut_node
from .freegroup import inv, shrinking_pair, wlen, word_of
from .prover import (
    LEFT_RULES, Proof, check, deindex_proof, is_guarded, prove,
)
from .syntax import (
    HOLE, L1STAR_DIA_M, LDIA_M, UNIT,
    Bracket, Calculus, Dia, Hedge, Leaf, Sequent, Type,
    boxdown, bracket, bracket_addresses, calculus, children_at, deindex,
    dia, hole_coords, is_flat, is_thin, leaf, length, over, plug, prim,
    prim_counts, print_sequent, print_type, prod, replace_span, sequent,
    sequent_types, span_partition, subtree, under, validate_sequent,
)

__all__ = [
    "Partition", "InterpolationResult", "partition_at",
    "indexed_counterpart", "thin_index",
    "extract_interpolant", "extract_interpolants",
    "thin_interpolant_length_ok",
    "eliminate_bracket", "cut_reduce_flat",
]


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
    which records the principals the rebuild reads."""
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
    (res,) = extract_interpolants(p, (part,), calc, guarded)
    return res


def extract_interpolants(p: Proof, parts, calc,
                         guarded: Optional[bool] = None) -> list:
    """``extract_interpolant`` at each of ``parts``, in order.

    ``p`` is checked once for all of them, which is what a sweep over
    every partition of one proof wants.
    """
    calc = calculus(calc)
    if not check(p, calc):
        raise ValueError(f"proof does not check in {calc.name}")
    s = p.conclusion
    if guarded is None:
        guarded = calc.unit and all(is_guarded(t) for t in sequent_types(s))
    elif guarded:
        if not calc.unit:
            raise ValueError("guarded interpolation needs a unit calculus")
        if not all(is_guarded(t) for t in sequent_types(s)):
            raise ValueError("guarded interpolation needs guarded types")
    out = []
    for part in parts:
        if plug(part.context, part.selected) != s.antecedent:
            raise ValueError(
                "partition does not match the proof's antecedent")
        parent, lo = hole_coords(part.context)
        hi = lo + len(part.selected)
        if lo == hi and guarded:
            raise ValueError("guarded interpolation needs a nonempty "
                             "selection")
        if lo == hi and not calc.unit:
            raise ValueError("an empty selection needs a unit calculus")
        out.append(InterpolationResult(
            *_extract(p, parent, lo, hi, calc, guarded)))
    return out


def _plug_type(ante: Hedge, parent: tuple, lo: int, hi: int, e: Type) -> Hedge:
    """Replace the span by a single leaf of the interpolant."""
    return replace_span(ante, parent, lo, hi, (leaf(e),))


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
             calc: Calculus, guarded: bool):
    """Return ``(E, left, right)`` for the span ``[lo, hi)`` at ``parent``.

    ``left`` proves the selected trees (as a whole antecedent) yield
    ``E``; ``right`` proves the conclusion with the span replaced by a
    single ``E`` leaf.
    """
    s = p.conclusion
    ante, succ = s.antecedent, s.succedent
    sel = children_at(ante, parent)[lo:hi]

    # Guarded-fragment interceptions: an empty bracket or a lone
    # ``dia 1`` leaf interpolates to ``dia 1`` no matter the last rule.
    if guarded and len(sel) == 1:
        tr = sel[0]
        if isinstance(tr, Bracket) and not tr.children:
            e = dia(UNIT, tr.index)
            left = Proof(sequent(sel, e), "DiaR",
                         (Proof(sequent((), UNIT), "UnitR"),))
            inner = Proof(
                sequent(replace_span(ante, parent + (lo,), 0, 0,
                                     (leaf(UNIT),)), succ),
                "UnitL", (p,), principal=(parent + (lo,), 0))
            right = Proof(sequent(_plug_type(ante, parent, lo, hi, e), succ),
                          "DiaL", (inner,), principal=(parent, lo))
            return e, left, right
        if (isinstance(tr, Leaf) and isinstance(tr.type, Dia)
                and tr.type.body is UNIT):
            e = tr.type
            unit_ax = Proof(sequent((), UNIT), "UnitR")
            unit_id = Proof(sequent((leaf(UNIT),), UNIT), "UnitL",
                            (unit_ax,), principal=((), 0))
            opened = Proof(sequent((bracket((leaf(UNIT),), e.index),), e),
                           "DiaR", (unit_id,))
            left = Proof(sequent(sel, e), "DiaL", (opened,),
                         principal=((), 0))
            return e, left, p

    # Unit-calculus interception: an empty selection interpolates to 1.
    if lo == hi:
        assert not guarded, "guarded recursion reached an empty selection"
        if not calc.unit:
            raise ValueError(
                "an empty sub-selection has no interpolant without the unit "
                f"(at {parent!r}:{lo} in {print_sequent(s)})")
        left = Proof(sequent((), UNIT), "UnitR")
        right = Proof(sequent(_plug_type(ante, parent, lo, hi, UNIT), succ),
                      "UnitL", (p,), principal=(parent, lo))
        return UNIT, left, right

    rule = p.rule
    if rule == "Ax":
        # The only nonempty span selects the single antecedent leaf.
        return ante[0].type, p, p

    if rule == "ProdR" and not parent and lo < p.principal < hi:
        # The selection crosses the split: interpolate both halves
        # and join them with a product.
        k = p.principal
        e1, l1, r1 = _extract(p.premises[0], (), lo, k, calc, guarded)
        e2, l2, r2 = _extract(p.premises[1], (), 0, hi - k, calc, guarded)
        e = prod(e1, e2)
        left = Proof(sequent(sel, e), "ProdR", (l1, l2), principal=k - lo)
        two = replace_span(ante, parent, lo, hi, (leaf(e1), leaf(e2)))
        inner = Proof(sequent(two, succ), "ProdR", (r1, r2),
                      principal=lo + 1)
        right = Proof(sequent(_plug_type(ante, parent, lo, hi, e), succ),
                      "ProdL", (inner,), principal=((), lo))
        return e, left, right

    if rule == "DiaR" and not parent:
        # sel is the whole bracketed antecedent.
        e0, l0, r0 = _extract(p.premises[0], (), 0, len(ante[0].children),
                              calc, guarded)
        e = dia(e0, succ.index)
        left = Proof(sequent(ante, e), "DiaR", (l0,))
        mid = Proof(sequent((bracket((leaf(e0),), succ.index),), succ),
                    "DiaR", (r0,))
        right = Proof(sequent((leaf(e),), succ), "DiaL", (mid,),
                      principal=((), 0))
        return e, left, right

    if rule not in LEFT_RULES:
        return _pass_through(p, parent, lo, hi, calc, guarded)

    # Left rules.  The last premise holds the rewritten context; a slash
    # rule's first premise proves its argument hedge.
    pr = p.principal
    P, lp = pr[0], len(parent)
    q = p.premises[-1]
    if rule == "UnitL" and P == parent and (lo, hi) == (pr[1], pr[1] + 1):
        # The selection is exactly the unit leaf this rule deletes.
        left = Proof(sequent(sel, UNIT), "UnitL",
                     (Proof(sequent((), UNIT), "UnitR"),),
                     principal=((), 0))
        return UNIT, left, p
    if rule == "BoxDownL" and parent == P + (pr[1],):
        # The selection is exactly the boxed leaf inside the principal
        # bracket: interpolate the replacing type and box the result.
        j = pr[1]
        e0, l0, r0 = _extract(q, P, j, j + 1, calc, guarded)
        br = children_at(ante, P)[j]
        e = boxdown(e0, br.index)
        t = br.children[0].type
        inner = Proof(sequent((bracket((leaf(t),), br.index),), e0),
                      "BoxDownL", (l0,), principal=((), 0))
        left = Proof(sequent((leaf(t),), e), "BoxDownR", (inner,))
        right = Proof(
            sequent(_plug_type(ante, parent, lo, hi, e), succ),
            "BoxDownL", (r0,), principal=pr)
        return e, left, right
    b0, b1, a0, a1, delta = _rule_span(rule, pr)
    if P == parent:
        inside = lo <= b0 and b1 <= hi
    else:
        inside = len(P) > lp and P[:lp] == parent and lo <= P[lp] < hi
        delta = 0
    if inside:
        # The whole rule block sits inside the selection.
        e, l, r = _extract(q, parent, lo, hi + delta, calc, guarded)
        inner = _shift(pr, parent, lo, -lo)
        left = Proof(sequent(sel, e), rule, p.premises[:-1] + (l,),
                     principal=(inner[0][lp:],) + inner[1:])
        return e, left, r
    if P == parent and lo < b1 and b0 < hi and not a0 <= lo < hi <= a1:
        # The selection crosses one end of a slash rule's block.  The
        # two cases are written for UnderL, whose argument [g, j)
        # precedes the connective leaf at j; OverL reads them through
        # the mirror image of this one level (n trees wide, with m
        # selected and na in the argument).
        side = rule == "OverL"
        n, m, na = len(children_at(ante, P)), hi - lo, a1 - a0
        g, lo_, hi_ = (n - b1, n - hi, n - lo) if side else (b0, lo, hi)
        j = g + na
        if j < hi_:
            # Keeps the connective leaf, loses the far end of its
            # argument: interpolate as E \ F (or F / E).
            e1, le, re = _extract(p.premises[0], (),
                                  *_mirror(side, na, 0, lo_ - g),
                                  calc, guarded)
            f, lf, rf = _extract(q, P,
                                 *_mirror(side, n - na, g, g + hi_ - j),
                                 calc, guarded)
            e = over(f, e1) if side else under(e1, f)
            a = (leaf(e1),)
            inner = Proof(sequent(sel + a if side else a + sel, f), rule,
                          (re, lf), principal=_slash_principal(
                              side, (), m + 1, 0, 1 + j - lo_))
            left = Proof(sequent(sel, e), "OverR" if side else "UnderR",
                         (inner,))
            right = Proof(
                sequent(_plug_type(ante, parent, lo, hi, e), succ),
                rule, (le, rf), principal=_slash_principal(
                    side, P, n - m + 1, g, lo_))
            return e, left, right
        # Loses the connective leaf, keeps the far end of its
        # argument: interpolate as E • F (or F • E).
        f, lf, rf = _extract(p.premises[0], (),
                             *_mirror(side, na, 0, hi_ - g), calc, guarded)
        e1, le, re = _extract(q, P, *_mirror(side, n - na, lo_, g),
                              calc, guarded)
        pair, halves, split = (e1, f), (le, lf), g - lo_
        if side:
            pair, halves, split = (f, e1), (lf, le), m - split
        e = prod(*pair)
        left = Proof(sequent(sel, e), "ProdR", halves, principal=split)
        two = replace_span(ante, parent, lo, hi,
                           (leaf(pair[0]), leaf(pair[1])))
        inner = Proof(sequent(two, succ), rule, (rf, re),
                      principal=_slash_principal(
                          side, P, n - m + 2, lo_ + 1, j - m + 2))
        right = Proof(sequent(_plug_type(ante, parent, lo, hi, e), succ),
                      "ProdL", (inner,), principal=(P, lo))
        return e, left, right

    return _pass_through(p, parent, lo, hi, calc, guarded)


def _pass_through(p: Proof, parent: tuple, lo: int, hi: int,
                  calc: Calculus, guarded: bool):
    """``_extract`` for a span the last rule only carries: interpolate it
    in the premise that holds it, then re-apply the rule to the
    conclusion with the span collapsed to one leaf."""
    s = p.conclusion
    k, path = _premise_route(p, parent + (lo,))
    e, l, r = _extract(p.premises[k], path[:-1], path[-1],
                       path[-1] + hi - lo, calc, guarded)
    right = Proof(sequent(_plug_type(s.antecedent, parent, lo, hi, e),
                          s.succedent), p.rule,
                  p.premises[:k] + (r,) + p.premises[k + 1:],
                  principal=_shift(p.principal, parent, hi, 1 - (hi - lo)))
    return e, l, right


# ---------------------------------------------------------------------------
# Thin-sequent length identity


def thin_interpolant_length_ok(p: Proof, part: Partition,
                               calc=LDIA_M) -> bool:
    """``||E|| == |word(selected)|`` for a thin-conclusion proof."""
    if not is_thin(p.conclusion):
        raise ValueError("the conclusion is not thin")
    res = extract_interpolant(p, part, calc)
    return length(res.interpolant) == wlen(word_of(part.selected))


# ---------------------------------------------------------------------------
# Bracket elimination


def eliminate_bracket(p: Proof, calc, bracket_addr=None):
    """Replace one bracket pair by a single bridging type.

    Follows the designated bracket up the proof to the step that
    introduced it.  If that step read the bracket off a diamond
    succedent, returns ``(B, "dia", (a, b))`` with ``a : Δ ⇒ B`` and
    ``b : Γ[◊B] ⇒ C``; if it wrapped a box-down leaf, returns
    ``(B, "boxd", (a, b))`` with ``a : Δ ⇒ □↓B`` and ``b : Γ[B] ⇒ C``
    (writing the input conclusion as ``Γ[⟨Δ⟩] ⇒ C``).  The proof is
    thin-indexed internally so that the bridging type's length is
    bounded by the free-group image of the bracket's contents.
    """
    calc = calculus(calc)
    if not calc.brackets:
        raise ValueError(f"{calc.name} has no brackets to eliminate")
    if not check(p, calc):
        raise ValueError(f"proof does not check in {calc.name}")
    addrs = bracket_addresses(p.conclusion.antecedent)
    if bracket_addr is None:
        if not addrs:
            raise ValueError("the antecedent has no bracket")
        beta = addrs[0]
    else:
        beta = tuple(bracket_addr)
        if beta not in addrs:
            raise ValueError(f"no bracket at address {beta!r}")
    if not subtree(p.conclusion.antecedent, beta).children:
        raise ValueError("cannot eliminate an empty bracket; use the "
                         "empty-bracket base sequent instead")
    icalc = indexed_counterpart(calc)
    q, theta = thin_index(p, calc)
    b, variant, pa, pb = _descend(q, beta, icalc)
    return (deindex(b, theta), variant,
            (deindex_proof(pa, theta), deindex_proof(pb, theta)))


def _acts_inside(rule: str, pr, beta: tuple) -> bool:
    """Whether a rule's active region lies inside the bracket at ``beta``.

    Only the left rules carry an antecedent position; the right rules
    restructure the root and never work strictly inside a surviving
    bracket.
    """
    if rule not in LEFT_RULES:
        return False
    path = pr[0]
    return len(path) >= len(beta) and path[:len(beta)] == beta


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
    """Walk the bracket at ``beta`` up to its introduction and bridge it."""
    rule, pr = node.rule, node.principal
    s = node.conclusion
    if rule == "DiaR" and beta == (0,):
        inner = node.premises[0]
        res = extract_interpolant(
            inner,
            partition_at(inner.conclusion.antecedent, (), 0,
                         len(inner.conclusion.antecedent)),
            icalc)
        b = res.interpolant
        i = s.succedent.index
        mid = Proof(sequent((bracket((leaf(b),), i),), s.succedent),
                    "DiaR", (res.right_proof,))
        pb = Proof(sequent((leaf(dia(b, i)),), s.succedent), "DiaL",
                   (mid,), principal=((), 0))
        return b, "dia", res.left_proof, pb
    if rule == "BoxDownL" and beta == pr[0] + (pr[1],):
        P, j = pr
        inner = node.premises[0]
        res = extract_interpolant(
            inner, partition_at(inner.conclusion.antecedent, P, j, j + 1),
            icalc)
        b = res.interpolant
        br = children_at(s.antecedent, P)[j]
        t = br.children[0].type
        opened = Proof(sequent((bracket((leaf(t),), br.index),), b),
                       "BoxDownL", (res.left_proof,), principal=((), 0))
        pa = Proof(sequent((leaf(t),), boxdown(b, br.index)),
                   "BoxDownR", (opened,))
        return b, "boxd", pa, res.right_proof
    target, beta2 = _premise_route(node, beta)
    b, variant, pa, pb = _descend(node.premises[target], beta2, icalc)
    if _acts_inside(rule, pr, beta):
        # The rule only transforms the bracket's contents: the proof of
        # the replaced conclusion passes through unchanged, and the rule
        # is re-applied on the contents side, re-rooted to the bracket.
        contents = subtree(s.antecedent, beta).children
        prems = list(node.premises)
        prems[target] = pa
        inner = (pr[0][len(beta):],) + pr[1:]
        new_pa = Proof(sequent(contents, pa.conclusion.succedent), rule,
                       tuple(prems), principal=inner)
        return b, variant, new_pa, pb
    br = subtree(s.antecedent, beta)
    bridge = leaf(dia(b, br.index)) if variant == "dia" else leaf(b)
    new_ante = replace_span(s.antecedent, beta[:-1], beta[-1],
                            beta[-1] + 1, (bridge,))
    prems = list(node.premises)
    prems[target] = pb
    rebuilt = Proof(sequent(new_ante, s.succedent), rule, tuple(prems),
                    principal=pr)
    return b, variant, pa, rebuilt


# ---------------------------------------------------------------------------
# Flat reduction to bounded two-premise pieces


def cut_reduce_flat(s: Sequent, prims, m: int, calc) -> CutDerivation:
    """Derive a flat provable sequent from bounded pieces using Cut.

    ``prims`` is the allowed primitive set and ``m`` bounds type
    lengths.  Sequents of width at most two become leaves; longer ones
    are split by interpolating either an adjacent pair whose free-group
    images shrink when multiplied, or the prefix before the last type,
    and recursing.  Every leaf is a provable sequent with at most two
    antecedent types, all of length at most ``m`` over ``prims``.
    """
    calc = calculus(calc)
    if not calc.brackets:
        raise ValueError("the reduction searches proofs with brackets; "
                         f"{calc.name} has none")
    validate_sequent(s, calc)
    if not is_flat(s.antecedent):
        raise ValueError("the antecedent must be a flat row of types")
    prims = set(prims)
    for t in sequent_types(s):
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
    proof = prove(s, calc)
    if proof is None:
        raise ValueError(f"not provable: {print_sequent(s)}")
    icalc = indexed_counterpart(calc)

    def reduce_step(seq: Sequent, prf: Proof) -> CutDerivation:
        n = len(seq.antecedent)
        if n <= 2:
            return cut_leaf(seq)
        thin, theta = thin_index(prf, calc)
        tante = thin.conclusion.antecedent
        words = [word_of(tr) for tr in tante]
        words.append(inv(word_of(thin.conclusion.succedent)))
        k = shrinking_pair(words)
        if k <= n - 1:
            res = extract_interpolant(
                thin, partition_at(tante, (), k - 1, k + 1), icalc)
            e = deindex(res.interpolant, theta)
            assert length(e) <= m
            piece = sequent(seq.antecedent[k - 1:k + 1], e)
            rest = sequent(seq.antecedent[:k - 1] + (leaf(e),)
                           + seq.antecedent[k + 1:], seq.succedent)
            rest_proof = deindex_proof(res.right_proof, theta)
            assert rest_proof.conclusion == rest
            position = (seq.antecedent[:k - 1] + (HOLE,)
                        + seq.antecedent[k + 1:])
            return cut_node(cut_leaf(piece), reduce_step(rest, rest_proof),
                            position)
        res = extract_interpolant(
            thin, partition_at(tante, (), 0, n - 1), icalc)
        e = deindex(res.interpolant, theta)
        assert length(e) <= m
        head = sequent(seq.antecedent[:n - 1], e)
        head_proof = deindex_proof(res.left_proof, theta)
        assert head_proof.conclusion == head
        piece = sequent((leaf(e), seq.antecedent[n - 1]), seq.succedent)
        position = (HOLE, seq.antecedent[n - 1])
        return cut_node(reduce_step(head, head_proof), cut_leaf(piece),
                        position)

    return reduce_step(s, proof)
