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
the search, the independent checker ``check`` and the proof reader
``parse_proof`` all read it.  It is
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
    BINARY, L1STAR_DIA_M, UNIT, BoxDown, Bracket, Dia, Leaf, Over, Prim,
    Prod, Sequent, Type, Under, Calculus, ParseError, boxdown, bracket,
    calculus, children_at, dia, leaf, nodes, over,
    parse_sequent, preorder, prim, prim_count, print_sequent, prod,
    replace_children, replace_span, sequent, under, validate_sequent,
)

__all__ = [
    "Proof", "ProofSearchTimeout", "RULES", "LEFT_RULES",
    "Prover", "prove", "check", "instances", "apply_rule",
    "print_proof", "parse_proof",
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
    """A rule-labeled derivation tree, read-only once built.

    ``principal`` identifies the rule instance: ``None`` for rules
    determined by the sequent alone, the split position ``k`` for the
    product right rule, and a position tuple for left rules (see
    ``instances``), recorded by whatever builds the node.  Assigning a
    field raises ``AttributeError``; ``check`` alone records, in
    ``_checked``, the calculi in which it accepted the node's subtree.
    """

    __slots__ = ("conclusion", "rule", "premises", "principal", "_checked")

    def __init__(self, conclusion: Sequent, rule: str, premises=(),
                 principal=None):
        if rule not in RULES:
            raise ValueError(f"unknown rule tag {rule!r}")
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_premises(self, tuple(premises))
        _set_principal(self, principal)
        _set_checked(self, ())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"proof nodes are read-only: {name}")

    __delattr__ = __setattr__

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


(_set_conclusion, _set_rule, _set_premises, _set_principal,
 _set_checked) = (Proof.__dict__[f].__set__ for f in Proof.__slots__)
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
        # ``not >=`` refuses NaN too, which would turn the deadline off
        if timeout_ms is not None and not timeout_ms >= 0:
            raise ValueError(f"timeout_ms must be 0 or more, not {timeout_ms}")
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
    parsed proofs.  The root's conclusion must be well formed for
    ``calc``, and each node must match an instance of ``instances``
    with the node's rule, the node's premise conclusions and exactly
    the node's recorded principal (``None`` only for the rules that
    take none).  No other node is validated: each equals a premise
    ``instances`` yielded for its accepted parent, and those are well
    formed for ``calc``.  A node whose argument span does not balance
    its argument type matches none.  No principal is written.  When
    ``p`` passes, each node it matched records ``calc``, and later
    calls in ``calc`` skip that subtree, so each node of proofs that
    share subtrees is matched once; a failed call records nothing.  The
    walk keeps its own stack, so depth is not bounded by recursion.
    """
    calc = calculus(calc)
    try:
        validate_sequent(p.conclusion, calc)
    except ValueError:
        return False
    name = calc.name
    matched, stack = {}, [p]
    while stack:
        node = stack.pop()
        if name in node._checked or id(node) in matched:
            continue
        stored = tuple(q.conclusion for q in node.premises)
        fit = _first_fit(node.conclusion, calc, node.rule, node.principal,
                         stored.__eq__)
        if fit is None or fit[0] != node.principal:
            return False
        matched[id(node)] = node
        stack.extend(node.premises)
    for node in matched.values():
        _set_checked(node, node._checked + (name,))
    return True


def _first_fit(s: Sequent, calc: Calculus, rule: str, principal,
               fits) -> Optional[tuple]:
    """``(principal, premises)`` of the first instance of ``rule``
    concluding ``s``, in canonical order, with that principal (any when
    ``principal`` is None) and premises that ``fits`` accepts, or None.
    The one node matcher: ``check`` compares premises by value, and
    ``parse_proof`` by printed text, then by value once that fails."""
    for r, pr, premises in instances(s, calc):
        if r == rule and principal in (None, pr) and fits(premises):
            return pr, premises
    return None


# ---------------------------------------------------------------------------
# Proof text


def print_proof(p: Proof) -> str:
    """One node per line, two-space indentation per premise depth."""
    return "\n".join(
        f"{'  ' * depth}{node.rule}  {print_sequent(node.conclusion)}"
        for node, depth in preorder(p, _premises))


def parse_proof(text: str) -> Proof:
    """Inverse of ``print_proof``, with every principal recorded.

    Only the root line is parsed as a sequent.  Walking the lines in
    preorder, each node's children take their conclusions from the
    first instance of the node's rule (``instances`` in the unit and
    starred calculus, whose instances include every calculus's) whose
    premises print exactly as the child lines, and the node its
    principal.  A premise that prints as a line is the sequent that
    parsing the line gives, so the proof is the one a line-by-line
    parse builds.  Once a node's children fit no instance (hand-spaced
    text, or a proof no calculus accepts), the remaining lines are
    parsed one by one and matched by value; a node that fits nothing
    records no principal.  A text whose indentation does not form one
    tree is parsed line by line in full, so the first bad line, in line
    order, is reported before any structure error.
    """
    rows = []      # (line number, format error, depth, rule, sequent text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        parts = stripped.split(None, 1)
        if indent % 2:
            error = f"line {lineno}: odd indentation"
        elif len(parts) != 2 or parts[0] not in RULES:
            error = f"line {lineno}: expected '<rule>  <sequent>'"
        else:
            error = None
        rows.append((lineno, error, indent // 2, parts[0], parts[-1]))
    if not rows:
        raise ValueError("empty proof text")

    # The children of each line by the stack of open nodes, root first:
    # the one at index k has depth k and collects its children until a
    # line at depth k or less closes it.
    kids = [[] for _ in rows]
    shape_error, stack = None, []
    for i, (_, _, d, _, _) in enumerate(rows):
        if stack and d == 0:
            shape_error = ("trailing proof lines outside the root "
                           "derivation")
            break
        del stack[d:]
        if d != len(stack):
            shape_error = f"node {i}: expected depth {len(stack)}, got {d}"
            break
        if stack:
            kids[stack[-1]].append(i)
        stack.append(i)

    conclusions, principals = [None] * len(rows), [None] * len(rows)
    if shape_error is None and not any(row[1] for row in rows):
        conclusions[0] = _parse_line(rows[0])
        for i, (_, _, _, rule, _) in enumerate(rows):
            fitted = i     # each line before fits its printed children
            if not kids[i]:
                continue
            texts = [rows[k][4] for k in kids[i]]
            fit = _first_fit(
                conclusions[i], L1STAR_DIA_M, rule, None,
                lambda premises: len(premises) == len(texts) and all(
                    print_sequent(s) == t for s, t in zip(premises, texts)))
            if fit is None:
                break
            principals[i] = fit[0]
            for k, s in zip(kids[i], fit[1]):
                conclusions[k] = s
    for i, row in enumerate(rows):
        if conclusions[i] is None:
            if row[1]:
                raise ValueError(row[1])
            conclusions[i] = _parse_line(row)
    if shape_error is not None:
        raise ValueError(shape_error)

    # every child line comes after its parent, so building from the last
    # line up finds each node's premises already built
    built = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        premises = [built[k] for k in kids[i]]
        if i >= fitted and premises:
            fit = _first_fit(conclusions[i], L1STAR_DIA_M, rows[i][3], None,
                             tuple(conclusions[k] for k in kids[i]).__eq__)
            principals[i] = fit and fit[0]
        built[i] = Proof(conclusions[i], rows[i][3], premises, principals[i])
    return built[0]


def _parse_line(row) -> Sequent:
    lineno, _, _, _, body = row
    try:
        return parse_sequent(body)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


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
