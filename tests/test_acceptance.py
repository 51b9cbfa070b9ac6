"""End-to-end acceptance checks, one per contract criterion.

Each criterion is a single test that runs the corresponding harness
sweep (or a direct reconstruction), asserts the result together with
its time cap, and prints one ``ACCEPTANCE n: PASS`` line (visible
under ``pytest -s``; under plain ``-v`` the test verdict itself is the
pass/fail line).

The counts asserted here are frozen from audited runs; a change means
the enumerated population or the measured facts drifted, and both
deserve a fresh look rather than a silent pass.
"""

import time

import pytest

from lambrack.harness import (
    DEFAULT_SEED, REFERENCE_BRACKETED, REFERENCE_BRACKETED_THIN,
    run_identity_family, run_cut_completeness, run_equivalence,
    run_freegroup_soundness, run_golden, run_interpolation_sweep,
    run_shrinking_trials, run_reduction_sweep,
)
from lambrack.interpolate import extract_interpolant, partition_at, thin_index
from lambrack.prover import Proof, check, prove
from lambrack.syntax import (
    L1STAR, LDIA, LDIA_M, UNIT, deindex, is_thin, leaf, over, parse_sequent,
    prim, sequent, under,
)

Q = prim("q")


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _accept(n: int, label: str, report, cap: float) -> None:
    assert report.ok, f"{label}: {report.reproducer}"
    assert report.elapsed <= cap, (
        f"{label}: {report.elapsed:.1f}s exceeds the {cap:.0f}s cap")
    _passed(n, label)


def test_criterion_1_golden_sequents():
    report = run_golden()
    assert report.counts["checks"] == 13
    _accept(1, "golden sequents", report, cap=1.0)


def test_criterion_2_thin_indexing():
    started = time.monotonic()
    s = parse_sequent(REFERENCE_BRACKETED, LDIA)
    proof = prove(s, LDIA)
    assert proof is not None
    thin, theta = thin_index(proof, LDIA)
    assert thin.conclusion == parse_sequent(REFERENCE_BRACKETED_THIN, LDIA_M)
    assert theta == {"p1": "p", "p2": "p"}
    assert is_thin(thin.conclusion)
    assert check(thin, LDIA_M)
    assert deindex(thin.conclusion, theta) == s
    assert time.monotonic() - started <= 1.0
    _passed(2, "thin indexing")


@pytest.fixture(scope="module")
def interp_report():
    return run_interpolation_sweep()


@pytest.fixture(scope="module")
def cut_report():
    return run_cut_completeness()


def test_criterion_3_interpolation_sweep(interp_report):
    report = interp_report
    assert report.counts == {"sequents": 1996, "partitions": 9342,
                             "thin_partitions": 9342}
    _accept(3, "interpolation sweep", report, cap=300.0)


def test_criterion_4_shrinking_pairs():
    report = run_shrinking_trials(trials=10000, seed=DEFAULT_SEED)
    assert report.counts == {"trials": 10000, "splits": 10000}
    _accept(4, "shrinking pairs", report, cap=60.0)


def test_criterion_5_flat_reduction():
    report = run_reduction_sweep()
    assert report.counts == {"balanced_candidates": 71010,
                             "provable": 2424,
                             "derivation_nodes": 15084}
    _accept(5, "flat reduction", report, cap=300.0)


def test_criterion_6_cut_completeness(cut_report):
    report = cut_report
    assert report.counts == {"candidates": 551326, "balanced": 780,
                             "provable": 90, "cut_derivable": 90,
                             "unbalanced_checked": 12159}
    _accept(6, "cut completeness", report, cap=600.0)


def test_criterion_7_equivalence_anbn():
    report = run_equivalence("anbn.lg", "Ldia")
    assert report.counts == {"strings": 62, "members": 2}
    _accept(7, "equivalence anbn", report, cap=900.0)


def test_criterion_7_equivalence_brackets():
    report = run_equivalence("brackets.lg", "Ldia")
    assert report.counts == {"strings": 363, "members": 10}
    _accept(7, "equivalence brackets", report, cap=900.0)


def test_criterion_7_equivalence_starred():
    report = run_equivalence("starred.lg", "LstarDia")
    assert report.counts == {"strings": 5, "members": 5}
    _accept(7, "equivalence starred", report, cap=900.0)


def _unit_identity():
    return Proof(sequent((leaf(UNIT),), UNIT), "UnitL",
                 (Proof(sequent((), UNIT), "UnitR", ()),), principal=((), 0))


def _telescope(i):
    """The canonical derivation of (1/1)^(i-1) 1/q q (1\\1)^i => 1."""
    lunit, runit, uq = over(UNIT, UNIT), under(UNIT, UNIT), over(UNIT, Q)
    row = (lunit,) * (i - 1) + (uq, Q) + (runit,) * i
    if i == 1:
        ax = Proof(sequent((leaf(Q),), Q), "Ax", ())
        e = Proof(sequent((leaf(uq), leaf(Q)), UNIT), "OverL",
                  (ax, _unit_identity()), principal=((), 0, 2))
    else:
        erow = (lunit,) * (i - 1) + (uq, Q) + (runit,) * (i - 1)
        e = Proof(sequent(tuple(map(leaf, erow)), UNIT), "OverL",
                  (_telescope(i - 1), _unit_identity()),
                  principal=((), 0, 2 * i))
    return Proof(sequent(tuple(map(leaf, row)), UNIT), "UnderL",
                 (e, _unit_identity()), principal=((), 0, 2 * i))


def _slash_family(n):
    """q, (1/q)\\1, (1/((1/q)\\1))\\1, ... all of free-group length one."""
    out = [Q]
    for _ in range(n):
        out.append(under(over(UNIT, out[-1]), UNIT))
    return out


def test_criterion_8_identity_family():
    started = time.monotonic()
    report = run_identity_family()
    assert report.ok, report.reproducer
    assert report.counts == {"members": 5, "identities": 5,
                             "base_refutations": 4,
                             "provable_ordered_pairs": 16}
    family = _slash_family(3)
    for i in (2, 3):
        derivation = _telescope(i)
        assert check(derivation, L1STAR)
        part = partition_at(derivation.conclusion.antecedent, (),
                            i, 2 * i + 1)
        res = extract_interpolant(derivation, part, L1STAR)
        assert res.interpolant is family[i]
    assert time.monotonic() - started <= 60.0
    _passed(8, "identity family")


@pytest.mark.xfail(
    strict=True,
    reason="the claimed pairwise separation does not hold: every member "
           "beyond the base primitive is interderivable with the others, "
           "so only the arrows into the base fail (see the identity-family "
           "report notes and the decision record)")
def test_criterion_8_pairwise_separation_as_stated():
    family = _slash_family(4)
    for i in range(1, 5):
        for j in range(i):
            assert prove(sequent((leaf(family[i]),), family[j]),
                         L1STAR) is None, f"A_{i} => A_{j} is provable"


def test_criterion_9_freegroup_soundness(interp_report, cut_report):
    report = run_freegroup_soundness(interp_report.thin_sequents
                                     + cut_report.thin_sequents)
    assert report.counts == {"sequents": 2086}
    _accept(9, "free-group soundness", report, cap=120.0)
