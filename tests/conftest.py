"""Fixtures shared by the test modules."""

import pytest

from lambrack.harness import _interp_population


@pytest.fixture(scope="session")
def interp_population():
    """The interpolation sweep's ``(sequent, proof)`` pairs, built once
    for every test that reads them."""
    return _interp_population()
