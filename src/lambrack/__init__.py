"""Lambek calculus with brackets: proof search, interpolation, and
compilation of bracketed categorial grammars into context-free form.

The package-level names cover the everyday surface: build or parse
types and sequents, prove them in a chosen calculus, extract
interpolants, interpret into the free group, and compile a bracketed
grammar into an equivalent CFG.  Each module exports the finer-grained
tools behind these entry points.
"""

__version__ = "0.1.0"

from .syntax import (
    CALCULI, Calculus, Grammar, HOLE, L, L1STAR, L1STAR_DIA, L1STAR_DIA_M,
    LDIA, LDIA_M, LSTAR, LSTAR_DIA, ParseError, Sequent, Type, UNIT,
    boxdown, bracket, calculus, dia, leaf, length, over, parse_grammar,
    parse_hedge, parse_sequent, parse_type, prim, print_hedge,
    print_sequent, print_type, prod, sequent, under, validate_sequent,
)
from .prover import (
    Proof, ProofSearchTimeout, Prover, check, parse_proof, print_proof,
    prove, translate_flat,
)
from .freegroup import IDENTITY, Word, print_word, shrinking_pair, word_of
from .interpolate import (
    InterpolationResult, cut_reduce, cut_reduce_flat, extract_interpolant,
    partition_at, thin_index,
)
from .cfgkit import (
    Cfg, CutBase, CutDerivation, Derivation, cut_derives, derives,
    language_upto, parse_cfg, print_cfg, replay_cuts,
)
from .compiler import build_rulesets, compile_cfg, enum_types
from .harness import Report, bundled_grammar, load_grammar, run_all

__all__ = [
    "CALCULI", "Calculus", "Cfg", "CutBase", "CutDerivation", "Derivation",
    "Grammar", "HOLE", "IDENTITY", "InterpolationResult", "L", "L1STAR",
    "L1STAR_DIA", "L1STAR_DIA_M", "LDIA", "LDIA_M", "LSTAR", "LSTAR_DIA",
    "ParseError", "Proof", "ProofSearchTimeout", "Prover", "Report",
    "Sequent", "Type", "UNIT", "Word", "boxdown", "bracket", "build_rulesets",
    "bundled_grammar", "calculus", "check", "compile_cfg", "cut_derives",
    "cut_reduce", "cut_reduce_flat", "derives", "dia", "enum_types",
    "extract_interpolant", "language_upto", "leaf", "length", "load_grammar",
    "over", "parse_cfg",
    "parse_grammar", "parse_hedge", "parse_proof", "parse_sequent",
    "parse_type", "partition_at", "prim", "print_cfg", "print_hedge",
    "print_proof", "print_sequent", "print_type", "print_word", "prod",
    "prove", "replay_cuts", "run_all", "sequent", "shrinking_pair",
    "thin_index", "translate_flat", "under", "validate_sequent", "word_of",
]
