"""Helpers shared by several test modules."""

from lambrack.harness import _cut_groups, _hedges_exact
from lambrack.syntax import sequent


def cut_candidates(calc, types):
    """The candidate sequents of ``harness._cut_groups``, one by one."""
    hedges = {}
    for row, succ, b in _cut_groups(calc, types):
        for h in _hedges_exact(row, b, calc.starred, hedges):
            yield sequent(h, succ)
