"""Fixtures shared by the test modules."""

import pytest

from lambrack.harness import _interp_population, _reduction_candidates
from lambrack.prover import Prover
from lambrack.syntax import LDIA


@pytest.fixture(scope="session")
def interp_population():
    """The interpolation sweep's ``(sequent, proof)`` pairs, built once
    for every test that reads them."""
    return _interp_population()


@pytest.fixture(scope="session")
def reduction_population():
    """The flat reduction sweep's provable ``(sequent, proof)`` pairs, in
    enumeration order, proved by one shared ``Prover``."""
    prover = Prover(LDIA)
    return [(s, pf) for s in _reduction_candidates()
            for pf in [prover.prove(s)] if pf is not None]
