"""Fixtures shared by the test modules."""

import pytest

from lambrack.compiler import compile_cfg
from lambrack.harness import (
    _interp_population, _reduction_candidates, bundled_grammar,
)
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


@pytest.fixture(scope="session")
def rule_cache(tmp_path_factory):
    """A rule-cache directory that already holds anbn's rule base.

    Tests that only read a compiled grammar pass it as ``cache_dir``
    (or ``--cache-dir``) and pay a warm load, which still re-proves
    every cached rule, instead of a cold compile.  Tests of compilation
    and of the cache itself keep their own cold builds.
    """
    path = tmp_path_factory.mktemp("rule-cache")
    compile_cfg(bundled_grammar("anbn.lg"), LDIA, cache_dir=path)
    return path
