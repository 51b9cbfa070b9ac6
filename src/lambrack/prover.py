"""Cut-free backward proof search for the bracketed Lambek calculi.

The sequent rules, read backward, all strictly decrease the number of
connective and unit occurrences in the sequent, so depth-first search
with memoization terminates and is complete.  The search explores rule
instances in one fixed order (axioms, then the right rule matching the
succedent, then left rules by principal position in preorder, with
antecedent splits tried left to right), so the first proof found is a
deterministic function of the sequent: the canonical proof.  All
downstream machinery (thin indexing, interpolant extraction) consumes
canonical proofs, which keeps every derived artifact reproducible.

``instances`` is the one place that says what a rule instance is: it
yields each instance with its premises, in that canonical order, and
both the search and the independent checker ``check`` read it.  It is
the backward reading of the rules; ``apply_rule`` is the forward one,
over the same principal encodings, and every proof node with premises
that the interpolator rebuilds goes through it.

The search is guided by the free-group interpretation: every rule
preserves equality of the antecedent's and the succedent's images from
premises to conclusion, so no sequent whose images differ is derivable.
``Prover.prove`` refutes such a root without search, and ``instances``
yields a slash or product instance only where its argument span's word
equals the argument type's, so every premise of a balanced conclusion
is balanced and no subgoal needs the comparison again.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Iterator, Optional

from .freegroup import IDENTITY, mul, word_of
from .syntax import (
    BINARY, UNIT, BoxDown, Bracket, Dia, Leaf, Over, Prim, Prod, Sequent,
    Type, Under, Calculus, ParseError, boxdown, bracket, calculus,
    children_at, deindex, dia, fold, leaf, nodes, over, parse_sequent,
    preorder, prim, prim_count, print_sequent, prod, replace_children,
    replace_span, sequent, under, validate_sequent,
)

__all__ = [
    "Proof", "ProofSearchTimeout", "RULES", "LEFT_RULES",
    "Prover", "prove", "check", "instances", "apply_rule",
    "print_proof", "parse_proof", "deindex_proof",
    "translate_flat", "is_guarded",
]

RULES = ("Ax", "UnderL", "UnderR", "OverL", "OverR", "ProdL", "ProdR",
         "DiaL", "DiaR", "BoxDownL", "BoxDownR", "UnitL", "UnitR")

# rules whose principal is a position tuple ``(parent, ...)`` in the
# antecedent; all other rules but ProdR have principal None
LEFT_RULES = frozenset(["UnderL", "OverL", "ProdL", "DiaL", "BoxDownL",
                        "UnitL"])


class ProofSearchTimeout(RuntimeError):
    """Raised when a prover call exceeds its wall-clock budget."""


class Proof:
    """A rule-labeled derivation tree.

    ``principal`` identifies the rule instance: ``None`` for rules
    determined by the sequent alone, the split position ``k`` for the
    product right rule, and a position tuple for left rules (see
    ``instances``).  Proofs parsed from text carry ``None``
    principals throughout; ``check`` infers them.
    """

    __slots__ = ("conclusion", "rule", "premises", "principal")

    def __init__(self, conclusion: Sequent, rule: str, premises=(),
                 principal=None):
        if rule not in RULES:
            raise ValueError(f"unknown rule tag {rule!r}")
        self.conclusion = conclusion
        self.rule = rule
        self.premises = tuple(premises)
        self.principal = principal

    def __repr__(self):
        return f"<proof {self.rule} {print_sequent(self.conclusion)}>"

    def __eq__(self, other):
        # two trees are equal when their preorders agree node by node on
        # rule, conclusion and number of premises
        if not isinstance(other, Proof):
            return False
        for (a, _), (b, _) in zip(preorder(self, _premises),
                                  preorder(other, _premises)):
            if (a.rule != b.rule or len(a.premises) != len(b.premises)
                    or a.conclusion != b.conclusion):
                return False
        return True

    def __hash__(self):
        return hash((self.conclusion, self.rule))


_premises = attrgetter("premises")


# ---------------------------------------------------------------------------
# Rule instances


def instances(s: Sequent, calc: Calculus) -> Iterator:
    """Every rule instance concluding ``s``, in canonical order.

    Yields ``(rule, principal, premises)``.  This is the single
    constructor of rule instances and their premise sequents: the
    search and the checker both go through it, so they cannot disagree
    on what a rule instance means.  Each instance's premises are built
    when it is reached, so a search that stops early builds no more.

    UnderL, OverL and ProdR instances are yielded only where the
    argument (the span of the first premise) has the free-group word of
    its type.  The others cannot be derived, and on a balanced
    conclusion the kept instances are exactly those whose premises are
    all balanced.  The span words are computed lazily, one product per
    tree, walking out from each slash leaf and up the ``ProdR`` splits.

    Principal encodings:
      UnderL   (parent, g, j): leaf ``A \\ B`` at position j under the
               bracket node at ``parent`` (() is the root hedge), with the
               argument hedge being the siblings g..j-1.
      OverL    (parent, j, e): leaf ``B / A`` at j, argument siblings
               j+1..e-1.  The two are mirror images: with side = 0 for
               UnderL and 1 for OverL, a principal (parent, x, y) rewrites
               the siblings x..y-side, whose argument hedge is x+side..y-1.
      ProdL, DiaL, UnitL  (parent, j): the principal leaf position.
      BoxDownL (parent, j): position of the bracket holding the boxd leaf.
      ProdR    k: the antecedent split point.
      All other rules have principal None.
    """
    ante, succ = s.antecedent, s.succedent
    if (len(ante) == 1 and isinstance(ante[0], Leaf)
            and isinstance(succ, Prim) and ante[0].type is succ):
        yield "Ax", None, ()
    if calc.unit and not ante and succ is UNIT:
        yield "UnitR", None, ()
    if isinstance(succ, Over):
        yield "OverR", None, (sequent(ante + (leaf(succ.right),), succ.left),)
    elif isinstance(succ, Under):
        yield "UnderR", None, (sequent((leaf(succ.left),) + ante, succ.right),)
    elif isinstance(succ, Prod):
        # a split k only where ante[:k] balances the left factor; the
        # prefix's word grows by one tree per step
        lo, hi = (0, len(ante)) if calc.starred else (1, len(ante) - 1)
        target, w = word_of(succ.left), IDENTITY
        for k in range(hi + 1):
            if k:
                w = mul(w, word_of(ante[k - 1]))
            if k >= lo and w == target:
                yield "ProdR", k, (sequent(ante[:k], succ.left),
                                   sequent(ante[k:], succ.right))
    elif isinstance(succ, Dia):
        if (len(ante) == 1 and isinstance(ante[0], Bracket)
                and ante[0].index == succ.index):
            yield "DiaR", None, (sequent(ante[0].children, succ.body),)
    elif isinstance(succ, BoxDown):
        yield "BoxDownR", None, (sequent((bracket(ante, succ.index),),
                                         succ.body),)
    for parent, j, tr, siblings in nodes(ante):
        if isinstance(tr, Bracket):
            inner = tr.children
            t = (inner[0].type if len(inner) == 1
                 and isinstance(inner[0], Leaf) else None)
            if not (isinstance(t, BoxDown) and t.index == tr.index):
                continue
            rule, repl = "BoxDownL", (leaf(t.body),)
        else:
            t = tr.type
            if isinstance(t, (Under, Over)):
                # the argument's far end, only where the argument span
                # balances the argument type: UnderL tries g = 0, 1, ...
                # (longest argument first), OverL tries e = j+1, j+2, ...
                # (shortest first); canonical proofs depend on both orders
                side = 1 if isinstance(t, Over) else 0
                rule = "OverL" if side else "UnderL"
                arg, res = (t.right, t.left) if side else (t.left, t.right)
                target = word_of(arg)
                ends = (f for f, w in _spans_out(siblings, j, side)
                        if w == target and (calc.starred or f != j + side))
                for f in ends if side else reversed(list(ends)):
                    x, y = (j, f) if side else (f, j)
                    yield rule, (parent, x, y), (
                        sequent(siblings[x + side:y], arg),
                        sequent(replace_span(ante, parent, x, y + 1 - side,
                                             (leaf(res),)), succ))
                continue
            if isinstance(t, Prod):
                rule, repl = "ProdL", (leaf(t.left), leaf(t.right))
            elif isinstance(t, Dia):
                rule, repl = "DiaL", (bracket((leaf(t.body),), t.index),)
            elif t is UNIT and calc.unit:
                rule, repl = "UnitL", ()
            else:
                continue
        yield rule, (parent, j), (
            sequent(replace_span(ante, parent, j, j + 1, repl), succ),)


def _spans_out(siblings, j: int, side: int) -> Iterator:
    """``(f, word)`` for each argument span of the slash leaf at ``j``,
    walking out from it: siblings j+1..f-1 for f = j+1, j+2, ... when
    ``side`` is 1 (``/``), siblings f..j-1 for f = j, j-1, ... when it
    is 0 (``\\``).  Each word is the one before times one more tree, so
    a walk that stops early computes no further words."""
    w = IDENTITY
    yield j + side, w
    if side:
        for f in range(j + 1, len(siblings)):
            w = mul(w, word_of(siblings[f]))
            yield f + 1, w
    else:
        for f in range(j - 1, -1, -1):
            w = mul(word_of(siblings[f]), w)
            yield f, w


def apply_rule(rule: str, principal, premises,
               index: Optional[int] = None) -> Proof:
    """The proof that ``rule`` at ``principal`` builds from ``premises``.

    The forward reading of ``instances``, with the same principal
    encodings: the conclusion is computed from the premises'
    conclusions, which must fit the rule as ``check`` would confirm.
    ``index`` is the bracket index that DiaR and BoxDownL introduce,
    since no premise records it.  Ax and UnitR have no premises and are
    built as ``Proof`` literals.
    """
    if not premises:
        raise ValueError(f"{rule} has no premises to apply it to")
    s = premises[-1].conclusion
    ante, succ = s.antecedent, s.succedent
    if rule in LEFT_RULES:
        parent, x = principal[0], principal[1]
        sibs = children_at(ante, parent)
        y = x + 1
        if rule == "UnderL" or rule == "OverL":
            # the result leaf at x becomes the argument hedge with the
            # connective leaf on its right (\) or left (/)
            arg = premises[0].conclusion
            if rule == "OverL":
                repl = ((leaf(over(sibs[x].type, arg.succedent)),)
                        + arg.antecedent)
            else:
                repl = arg.antecedent + (
                    leaf(under(arg.succedent, sibs[x].type)),)
        elif rule == "ProdL":
            repl, y = (leaf(prod(sibs[x].type, sibs[x + 1].type)),), x + 2
        elif rule == "DiaL":
            br = sibs[x]
            repl = (leaf(dia(br.children[0].type, br.index)),)
        elif rule == "UnitL":
            repl, y = (leaf(UNIT),), x
        else:
            repl = (bracket((leaf(boxdown(sibs[x].type, index)),), index),)
        ante = replace_children(ante, parent, sibs[:x] + repl + sibs[y:])
    elif rule == "UnderR":
        ante, succ = ante[1:], under(ante[0].type, succ)
    elif rule == "OverR":
        ante, succ = ante[:-1], over(succ, ante[-1].type)
    elif rule == "ProdR":
        first = premises[0].conclusion
        ante, succ = first.antecedent + ante, prod(first.succedent, succ)
    elif rule == "DiaR":
        ante, succ = (bracket(ante, index),), dia(succ, index)
    elif rule == "BoxDownR":
        ante, succ = ante[0].children, boxdown(succ, ante[0].index)
    else:
        raise ValueError(f"{rule} takes no premises")
    return Proof(sequent(ante, succ), rule, premises, principal)


# ---------------------------------------------------------------------------
# Search


class Prover:
    """Backward proof search with a persistent memo table.

    One instance may serve many ``prove`` calls; memoized results are
    facts about sequents, independent of which top-level call computed
    them, so sharing an instance across a sweep changes nothing except
    speed.  Instances are not thread-safe.
    """

    def __init__(self, calc, timeout_ms: Optional[float] = None):
        self.calc = calculus(calc)
        self.timeout_ms = timeout_ms
        self.memo: dict = {}
        self._deadline = None
        self._ticks = 0

    def prove(self, s: Sequent) -> Optional[Proof]:
        """A cut-free proof of ``s``, or None when there is none.

        Every goal the search settles is kept in ``self.memo`` for the
        life of this instance.  The free-group words of the two sides
        are compared once, at the root: a root whose words differ is
        refuted without search and not stored, so bulk enumeration of
        unbalanced goals does not grow the table.  Below a balanced
        root every goal is balanced, because ``instances`` yields only
        balanced premises of a balanced conclusion.  The words are
        cached on the type and tree nodes (see ``freegroup.word_of``).
        """
        validate_sequent(s, self.calc)
        if self.timeout_ms is not None:
            self._deadline = time.monotonic() + self.timeout_ms / 1000.0
            self._ticks = 0
            self._poll(s)
        if word_of(s.antecedent) != word_of(s.succedent):
            return None
        return self._search(s)

    def _poll(self, s: Sequent) -> None:
        if time.monotonic() >= self._deadline:
            raise ProofSearchTimeout(
                f"no answer for {print_sequent(s)} within "
                f"{self.timeout_ms} ms")

    def _search(self, s: Sequent) -> Optional[Proof]:
        # the deadline is read by ``prove`` before the search and on
        # every 32nd goal of it
        if self._deadline is not None:
            self._ticks += 1
            if self._ticks % 32 == 0:
                self._poll(s)
        result = self.memo.get(s, _MISSING)
        if result is not _MISSING:
            return result
        result = None
        for rule, principal, premises in instances(s, self.calc):
            subproofs = []
            for premise in premises:
                sub = self._search(premise)
                if sub is None:
                    break
                subproofs.append(sub)
            else:
                result = Proof(s, rule, tuple(subproofs), principal)
                break
        self.memo[s] = result
        return result


_MISSING = object()


def prove(s: Sequent, calc, timeout_ms: Optional[float] = None) -> Optional[Proof]:
    """Search for a cut-free proof; None means not provable.

    Each call uses a fresh memo table; reuse a ``Prover`` instance when
    running many related queries.
    """
    return Prover(calc, timeout_ms).prove(s)


# ---------------------------------------------------------------------------
# Checking


def check(p: Proof, calc) -> bool:
    """True iff every node of ``p`` is a legal rule instance of ``calc``.

    Independent of the search: usable as an oracle on hand-built or
    parsed proofs.  Each node must match an instance of ``instances``:
    the first one, in canonical order, with the node's rule, the node's
    premise conclusions and, when the node records a principal, that
    principal (``None`` for the rules that take none).  A node whose
    argument span does not balance its argument type matches none, as
    ``instances`` never yields it; no node of a legal proof is such.
    The matching principal is recorded on the node, so a checked proof
    is ready for the machinery that dispatches on principal positions.
    The walk is ``syntax.preorder``, so proof depth is not bounded by
    recursion.
    """
    calc = calculus(calc)
    for node, _ in preorder(p, _premises):
        try:
            validate_sequent(node.conclusion, calc)
        except ValueError:
            return False
        stored = tuple(q.conclusion for q in node.premises)
        for rule, principal, premises in instances(node.conclusion, calc):
            if (rule == node.rule and premises == stored
                    and node.principal in (None, principal)):
                node.principal = principal
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Proof text


def print_proof(p: Proof) -> str:
    """One node per line, two-space indentation per premise depth."""
    return "\n".join(
        f"{'  ' * depth}{node.rule}  {print_sequent(node.conclusion)}"
        for node, depth in preorder(p, _premises))


def parse_proof(text: str) -> Proof:
    """Inverse of ``print_proof``; principals are left to be inferred."""
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

    # The open nodes, root first: the one at index k has depth k and
    # collects its premises until a line at depth k or less closes it.
    stack = []

    def close():
        rule, s, premises = stack.pop()
        stack[-1][2].append(Proof(s, rule, premises))

    for i, (d, rule, s) in enumerate(entries):
        if stack and d == 0:
            raise ValueError("trailing proof lines outside the root "
                             "derivation")
        while len(stack) > d:
            close()
        if d != len(stack):
            raise ValueError(f"node {i}: expected depth {len(stack)}, got {d}")
        stack.append((rule, s, []))
    while len(stack) > 1:
        close()
    rule, s, premises = stack[0]
    return Proof(s, rule, premises)


def deindex_proof(p: Proof, theta: Optional[dict] = None) -> Proof:
    """Deindex every sequent in the proof; rule structure is unchanged."""
    return fold(p, _premises, lambda node, premises: Proof(
        deindex(node.conclusion, theta), node.rule, premises, node.principal))


# ---------------------------------------------------------------------------
# The bracket-erasing translation and guardedness

_M = "m"
_N = "n"


def translate_flat(t: Type) -> Type:
    """Erase modalities into bracket-simulating primitives ``m``, ``n``.

    ``dia A`` becomes ``m * (A * n)`` and ``boxd A`` becomes
    ``(m \\ A) / n``; everything else is homomorphic.  The input must
    not mention the reserved primitives and must be non-indexed.
    """
    if t.mode == "indexed":
        raise ValueError("translate_flat needs non-indexed input")
    if prim_count(_M, t) or prim_count(_N, t):
        raise ValueError(f"type {t} already uses the reserved primitives m, n")
    m, n = prim(_M), prim(_N)

    def go(x: Type) -> Type:
        if isinstance(x, Prim) or x is UNIT:
            return x
        make = BINARY.get(type(x))
        if make is not None:
            return make(go(x.left), go(x.right))
        if isinstance(x, Dia):
            return prod(m, prod(go(x.body), n))
        return over(under(m, go(x.body)), n)

    return go(t)


def is_guarded(t: Type) -> bool:
    """True iff every unit occurrence is the immediate body of a dia."""
    if t is UNIT:
        return False
    if isinstance(t, (Prim,)):
        return True
    if isinstance(t, Dia):
        return t.body is UNIT or is_guarded(t.body)
    if isinstance(t, BoxDown):
        return is_guarded(t.body)
    return is_guarded(t.left) and is_guarded(t.right)
