"""Free-group interpretation of types and hedges.

Types and hedges map into the free group generated by the primitive
names together with one opening and one closing generator per bracket
index.  Words are kept reduced at all times, so the group-theoretic
length of a word is just ``len``.

A word is a tuple of letters; a letter is ``(kind, value, sign)`` with
``kind`` one of ``"p"`` (primitive), ``"<"`` (opening bracket) or
``">"`` (closing bracket), ``value`` the primitive name or bracket
index (None for a plain one), and ``sign`` +1 or -1.

The provability-invariant carried by this interpretation: in every
derivable sequent the word of the antecedent equals the word of the
succedent.  The prover refutes an unbalanced goal with it and keeps
only the rule instances whose argument spans balance; the harness
re-verifies it on every provable sequent it encounters.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .syntax import (
    UNIT, BoxDown, Bracket, Dia, Leaf, Over, Prim, Prod, Tree, Type, Under,
)

__all__ = [
    "Letter", "Word", "IDENTITY",
    "prim_letter", "open_letter", "close_letter", "word",
    "mul", "inv", "wlen", "word_of", "count_key", "shrinking_pair",
    "print_word",
]

Letter = Tuple[str, object, int]
Word = Tuple[Letter, ...]

IDENTITY: Word = ()


def prim_letter(name: str, sign: int = 1) -> Letter:
    return ("p", name, sign)


def open_letter(index: Optional[int], sign: int = 1) -> Letter:
    return ("<", index, sign)


def close_letter(index: Optional[int], sign: int = 1) -> Letter:
    return (">", index, sign)


def _inverse_letter(letter: Letter) -> Letter:
    kind, value, sign = letter
    return (kind, value, -sign)


def word(letters: Iterable[Letter]) -> Word:
    """Reduce an arbitrary letter sequence to its normal form."""
    stack = []
    for letter in letters:
        if stack and stack[-1] == _inverse_letter(letter):
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def mul(u: Word, v: Word) -> Word:
    """Product of two reduced words (cancellation happens at the seam)."""
    i = len(u)
    j = 0
    n = len(v)
    while i > 0 and j < n and u[i - 1] == _inverse_letter(v[j]):
        i -= 1
        j += 1
    return u[:i] + v[j:]


def inv(u: Word) -> Word:
    return tuple((kind, value, -sign) for kind, value, sign in reversed(u))


def wlen(u: Word) -> int:
    return len(u)


def _word_of_type(t: Type) -> Word:
    w = t._word
    if w is not None:
        return w
    if isinstance(t, Prim):
        w = (prim_letter(t.name),)
    elif t is UNIT:
        w = IDENTITY
    elif isinstance(t, Under):
        w = mul(inv(_word_of_type(t.left)), _word_of_type(t.right))
    elif isinstance(t, Over):
        w = mul(_word_of_type(t.left), inv(_word_of_type(t.right)))
    elif isinstance(t, Prod):
        w = mul(_word_of_type(t.left), _word_of_type(t.right))
    elif isinstance(t, Dia):
        w = mul(mul((open_letter(t.index),), _word_of_type(t.body)),
                (close_letter(t.index),))
    elif isinstance(t, BoxDown):
        w = mul(mul((open_letter(t.index, -1),), _word_of_type(t.body)),
                (close_letter(t.index, -1),))
    else:
        raise TypeError(f"cannot interpret {t!r}")
    t._word = w
    return w


def _word_of_tree(tr: Tree) -> Word:
    w = tr._word
    if w is not None:
        return w
    if isinstance(tr, Leaf):
        w = _word_of_type(tr.type)
    elif isinstance(tr, Bracket):
        w = (open_letter(tr.index),)
        for ch in tr.children:
            w = mul(w, _word_of_tree(ch))
        w = mul(w, (close_letter(tr.index),))
    else:
        raise TypeError(f"cannot interpret {tr!r}")
    tr._word = w
    return w


def word_of(x) -> Word:
    """Interpret a type, tree or hedge as a reduced group word.

    Non-indexed modalities and brackets are all read as carrying one
    fixed index.  That collapsed reading is what the prover's root
    check and its argument-span filter use; it is sound because the
    provability invariant holds index by index and in the collapsed
    form alike.

    The word of each type and tree node is computed once and kept in
    the node's ``_word`` slot, so it lives exactly as long as the node:
    forever for interned types, until the last reference goes for
    trees.  A hedge is a plain tuple and has no slot; its word is the
    product of its trees' cached words, formed anew on each call.
    """
    if isinstance(x, tuple):
        w = IDENTITY
        for tr in x:
            w = mul(w, _word_of_tree(tr))
        return w
    if isinstance(x, Type):
        return _word_of_type(x)
    if isinstance(x, Tree):
        return _word_of_tree(x)
    raise TypeError(f"cannot interpret {x!r}")


def count_key(letters: Iterable[Letter]) -> tuple:
    """The image of a word in the free abelian group, as a count key.

    Returns ``(rest, opens, closes)``: ``rest`` is the frozen set of the
    nonzero exponent sums ``((kind, value), n)`` of every generator but
    the plain brackets, and ``opens``/``closes`` are the exponent sums
    of ``("<", None)`` and ``(">", None)``.  Exponent sums ignore
    cancellation, so any spelling of a word, reduced or not, has the
    same key, and equal words have equal keys: this is the count
    invariant of the Lambek calculus, read off the free-group one.
    """
    sums = {}
    for kind, value, sign in letters:
        sums[kind, value] = sums.get((kind, value), 0) + sign
    opens = sums.pop(("<", None), 0)
    closes = sums.pop((">", None), 0)
    return frozenset(kv for kv in sums.items() if kv[1]), opens, closes


def shrinking_pair(words: Sequence[Word]) -> int:
    """Least 1-based ``k`` with ``|u_k u_{k+1}| <= max(|u_k|, |u_{k+1}|)``.

    The input words must be reduced and multiply out to the identity;
    such a pair then always exists for two or more factors.
    """
    n = len(words)
    if n < 2:
        raise ValueError(f"need at least two words, got {n}")
    total = IDENTITY
    for u in words:
        total = mul(total, u)
    if total != IDENTITY:
        raise ValueError("the words do not multiply out to the identity")
    for k in range(n - 1):
        u, v = words[k], words[k + 1]
        if wlen(mul(u, v)) <= max(wlen(u), wlen(v)):
            return k + 1
    raise AssertionError("unreachable: an identity product admits a shrinking pair")


def print_word(u: Word) -> str:
    """Debug rendering: ``p1 <2 >2'`` style, ``e`` for the identity."""
    if not u:
        return "e"
    parts = []
    for kind, value, sign in u:
        if kind == "p":
            text = str(value)
        else:
            text = kind if value is None else f"{kind}{value}"
        parts.append(text + ("'" if sign < 0 else ""))
    return " ".join(parts)
