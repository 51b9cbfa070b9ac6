"""Command-line entry point.

One subcommand per operation: prove a sequent, interpolate at a marked
context, thin-index a proof, interpret into the free group, translate
away brackets, compile a grammar, parse with a compiled CFG, search
Cut-only derivations, compare a grammar against its compilation, and
run the full report battery.

Exit codes: 0 for any completed computation (an underivable goal is a
successful answer), 1 for failed claims or internal check failures,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .cfgkit import (
    cut_derives, derives, parse_cfg, print_cfg, replay_cuts,
    replay_derivation,
)
from .compiler import compile_cfg
from .harness import (
    DEFAULT_SEED, default_max_len, format_reports, load_grammar,
    report_payload, run_all, run_equivalence,
)
from .interpolate import (
    _contract_fault, extract_interpolant, indexed_counterpart, partition_at,
    thin_index,
)
from .prover import (
    ProofSearchTimeout, check, parse_proof, print_proof, prove,
    translate_flat,
)
from .syntax import (
    ParseError, Type, calculus, children_at, deindex, hole_coords,
    is_thin, parse_context, parse_hedge, parse_sequent, parse_type, preorder,
    print_sequent, print_type,
)
from .freegroup import print_word, word_of

__all__ = ["main"]


def _common(sub, calc=False, timeout=False, cache=False):
    """Add ``--json`` and the shared flags the subcommand's handler
    reads, so no flag is accepted and then ignored."""
    if calc:
        sub.add_argument("--calculus", default="Ldia",
                         help="calculus name (default Ldia)")
    if timeout:
        sub.add_argument("--timeout-ms", type=float, default=None,
                         help="per-call proof search budget in "
                              "milliseconds")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")
    if cache:
        sub.add_argument("--cache-dir", default=None,
                         help="rule-set cache directory for grammar compiles")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _cmd_prove(args) -> int:
    calc = calculus(args.calculus)
    s = parse_sequent(args.sequent, calc)
    proof = prove(s, calc, timeout_ms=args.timeout_ms)
    if proof is None:
        _emit(args, {"provable": False, "proof": None}, "UNPROVABLE")
        return 0
    text = print_proof(proof)
    back = parse_proof(text)
    if back != proof or not check(back, calc):
        print("error: emitted proof fails its own round-trip check",
              file=sys.stderr)
        return 1
    _emit(args, {"provable": True, "proof": text}, text.rstrip("\n"))
    return 0


def _cmd_interpolate(args) -> int:
    calc = calculus(args.calculus)
    s = parse_sequent(args.sequent, calc)
    context = parse_context(args.context)
    parent, lo = hole_coords(context)
    width = len(children_at(s.antecedent, parent))
    hi = lo + width - len(children_at(context, parent)) + 1
    part = partition_at(s.antecedent, parent, lo, hi)
    if part.context != context:
        raise ValueError("the context does not match the sequent "
                         "outside its hole")
    proof = prove(s, calc, timeout_ms=args.timeout_ms)
    if proof is None:
        _emit(args, {"provable": False}, "UNPROVABLE")
        return 0
    res = extract_interpolant(proof, part, calc)
    fault = _contract_fault(s, parent, lo, hi, res, calc)
    if fault is not None:
        print(f"error: {fault}", file=sys.stderr)
        return 1
    payload = {
        "provable": True,
        "interpolant": print_type(res.interpolant),
        "left_proof": print_proof(res.left_proof),
        "right_proof": print_proof(res.right_proof),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_thin(args) -> int:
    calc = calculus(args.calculus)
    proof = parse_proof(_read_text(args.proof))
    thin, theta = thin_index(proof, calc)
    if (not check(thin, indexed_counterpart(calc))
            or not is_thin(thin.conclusion)
            or deindex(thin.conclusion, theta) != deindex(proof.conclusion)):
        print("error: the thin proof fails its check against the input "
              "proof", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"proof": print_proof(thin), "theta": theta},
                         indent=2))
        return 0
    print(print_proof(thin).rstrip("\n"))
    for fresh in sorted(theta):
        print(f"theta: {fresh} -> {theta[fresh]}")
    return 0


def _cmd_interpret(args) -> int:
    try:
        item = parse_type(args.text)
    except ParseError:
        item = parse_hedge(args.text)
    w = word_of(item)
    _emit(args, {"word": print_word(w)}, print_word(w))
    return 0


def _cmd_translate_flat(args) -> int:
    image = translate_flat(parse_type(args.type))
    _emit(args, {"type": print_type(image)}, print_type(image))
    return 0


def _cmd_compile(args) -> int:
    calc = calculus(args.calculus)
    _, grammar = load_grammar(args.grammar)
    cfg = compile_cfg(grammar, calc, cache_dir=args.cache_dir)
    text = print_cfg(cfg)
    if args.output is not None:
        Path(args.output).write_text(text)
        _emit(args, {"output": args.output,
                     "nonterminals": len(cfg.nonterminals),
                     "productions": len(cfg.productions)},
              f"wrote {args.output}")
        return 0
    if args.json:
        print(json.dumps({"cfg": text,
                          "nonterminals": len(cfg.nonterminals),
                          "productions": len(cfg.productions)}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def _derivation_lines(d):
    def show(sym):
        return print_type(sym) if isinstance(sym, Type) else str(sym)

    for node, depth in preorder(d, attrgetter("children")):
        line = show(node.symbol)
        if node.production is not None:
            rhs = node.production[1]
            line += " -> " + (" ".join(map(show, rhs)) if rhs else "eps")
        yield "  " * depth + line


def _cmd_parse(args) -> int:
    cfg = parse_cfg(_read_text(args.cfg))
    tokens = args.string.split()
    d = derives(cfg, cfg.start, tokens)
    if d is None:
        _emit(args, {"derivable": False}, "NO")
        return 0
    if (d.symbol != cfg.start or d.fringe() != tuple(tokens)
            or not replay_derivation(d, cfg)):
        print("error: derivation fails its replay against the grammar",
              file=sys.stderr)
        return 1
    lines = list(_derivation_lines(d))
    _emit(args, {"derivable": True, "derivation": lines}, "\n".join(lines))
    return 0


def _cut_lines(d):
    for node, depth in preorder(d, attrgetter("premises")):
        tag = "  [base]" if node.is_leaf else ""
        yield "  " * depth + print_sequent(node.conclusion) + tag


def _cmd_cut_derive(args) -> int:
    base = []
    for lineno, line in enumerate(_read_text(args.base).splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                base.append(parse_sequent(line))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    goal = parse_sequent(args.sequent)
    d = cut_derives(base, goal)
    if d is None:
        _emit(args, {"derivable": False}, "NO")
        return 0
    if d.conclusion != goal or not replay_cuts(d, set(base)):
        print("error: Cut derivation fails its replay over the base",
              file=sys.stderr)
        return 1
    lines = list(_cut_lines(d))
    _emit(args, {"derivable": True, "derivation": lines}, "\n".join(lines))
    return 0


def _cmd_compare(args) -> int:
    bound = args.max_len
    if bound is None:
        bound = default_max_len(args.calculus)
    report = run_equivalence(args.grammar, args.calculus, max_len=bound,
                             timeout_ms=args.timeout_ms,
                             cache_dir=args.cache_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif report.ok:
        print(f"EQUIVALENT up to {bound}")
    else:
        print(f"NOT EQUIVALENT: {report.reproducer}")
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    reports = run_all(seed=args.seed, timeout_ms=args.timeout_ms,
                      out_dir=out_dir, cache_dir=args.cache_dir)
    if args.json:
        print(json.dumps(report_payload(reports, args.seed), indent=2))
    else:
        sys.stdout.write(format_reports(reports, seed=args.seed))
        json_path, txt_path = out_dir / "report.json", out_dir / "report.txt"
        print(f"wrote {json_path} and {txt_path}")
    return 0 if all(r.ok for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambrack",
        description="Proof search, interpolation, and grammar compilation "
                    "for the Lambek calculus with brackets.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("prove", help="search for a derivation")
    sub.add_argument("sequent", help="sequent text, e.g. 'p p \\\\ q => q'")
    _common(sub, calc=True, timeout=True)
    sub.set_defaults(func=_cmd_prove)

    sub = subs.add_parser(
        "interpolate",
        help="extract an interpolant at the span a context marks with _")
    sub.add_argument("sequent")
    sub.add_argument("context",
                     help="the antecedent with the selected span replaced "
                          "by _")
    _common(sub, calc=True, timeout=True)
    sub.set_defaults(func=_cmd_interpolate)

    sub = subs.add_parser("thin",
                          help="thin-index a proof read from a file or -")
    sub.add_argument("proof", help="path to proof text, or - for stdin")
    _common(sub, calc=True)
    sub.set_defaults(func=_cmd_thin)

    sub = subs.add_parser("interpret",
                          help="free-group word of a type or hedge")
    sub.add_argument("text")
    _common(sub)
    sub.set_defaults(func=_cmd_interpret)

    sub = subs.add_parser("translate-flat",
                          help="erase brackets and modalities from a type")
    sub.add_argument("type")
    _common(sub)
    sub.set_defaults(func=_cmd_translate_flat)

    sub = subs.add_parser("compile",
                          help="compile a grammar into an equivalent CFG")
    sub.add_argument("grammar", help="grammar file path or bundled name")
    sub.add_argument("--output", default=None,
                     help="write the CFG here instead of stdout")
    _common(sub, calc=True, cache=True)
    sub.set_defaults(func=_cmd_compile)

    sub = subs.add_parser("parse",
                          help="decide membership with a compiled CFG")
    sub.add_argument("cfg", help="CFG file path, or - for stdin")
    sub.add_argument("string", help="space-separated terminals; '' for "
                                    "the empty string")
    _common(sub)
    sub.set_defaults(func=_cmd_parse)

    sub = subs.add_parser("cut-derive",
                          help="derive a sequent from a base by Cut alone")
    sub.add_argument("base", help="file with one base sequent per line")
    sub.add_argument("sequent")
    _common(sub)
    sub.set_defaults(func=_cmd_cut_derive)

    sub = subs.add_parser("compare",
                          help="check a grammar against its compilation")
    sub.add_argument("grammar", help="grammar file path or bundled name")
    sub.add_argument("--max-len", type=int, default=None,
                     help="string length bound (default 5 plain, "
                          "4 starred)")
    _common(sub, calc=True, timeout=True, cache=True)
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("report", help="run the full claim battery")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", default=".",
                     help="directory for report.json, report.txt, and "
                          "artifacts")
    _common(sub, timeout=True, cache=True)
    sub.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away mid-stream (e.g. piping into head); it is
        # an OSError, so this clause must come before the one below
        return 0
    except (ParseError, ValueError, OSError) as exc:
        # OSError: an input file that cannot be read, or an output file
        # or --cache-dir that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProofSearchTimeout as exc:
        print(f"error: proof search timed out: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the sequent parser, the proof search and the interpolation
        # walk still recurse: once per nesting level, once per goal,
        # and twice per proof level (``_extract`` and ``_pass_through``),
        # so an input deep enough to pass Python's recursion limit is
        # refused rather than answered
        print("error: input nests too deeply for the recursion limit",
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an internal check failed; ProofSearchTimeout and RecursionError
        # are subclasses, so their clauses must come before this one
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
