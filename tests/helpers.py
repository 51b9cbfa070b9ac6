"""Helpers shared by several test modules."""

from operator import attrgetter

from lambrack.harness import _hedges_exact, _rows
from lambrack.interpolate import _descend, indexed_counterpart, thin_index
from lambrack.prover import Proof
from lambrack.syntax import deindex, fold, mod_total, sequent


def cut_candidates(calc, types):
    """The candidate sequents of ``harness.run_cut_completeness``, one by
    one, balanced or not: rows of up to 4 types in ``product`` order,
    each with every succedent at every bracket count within the
    sequent's modality budget."""
    hedges = {}
    for n in range(0 if calc.starred else 1, 5):
        for row, _, mods in _rows([types] * n, n):
            for succ in types:
                for b in range(mods + mod_total(succ) + 1):
                    for h in _hedges_exact(row, b, calc.starred, hedges):
                        yield sequent(h, succ)


def deindex_proof(p, theta=None):
    """``p`` with every conclusion deindexed through ``theta``; the rule
    structure and the principals are unchanged."""
    return fold(p, attrgetter("premises"), lambda node, premises: Proof(
        deindex(node.conclusion, theta), node.rule, premises, node.principal))


def eliminate_bracket(p, calc, beta):
    """Jäger's step on the nonempty bracket at ``beta`` of ``p``'s
    conclusion ``Γ[⟨Δ⟩] ⇒ C``, read off ``p``'s thin form by
    ``interpolate._descend``: ``(B, "dia", (a, b))`` with ``a : Δ ⇒ B``
    and ``b : Γ[◊B] ⇒ C``, or ``(B, "boxd", (a, b))`` with
    ``a : Δ ⇒ □↓B`` and ``b : Γ[B] ⇒ C``, all deindexed."""
    thin, theta = thin_index(p, calc)
    b, variant, pa, pb = _descend(thin, beta, indexed_counterpart(calc))
    return (deindex(b, theta), variant,
            (deindex_proof(pa, theta), deindex_proof(pb, theta)))
