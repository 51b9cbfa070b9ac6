"""Run one workload of the lambrack benchmark and print its metrics.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 10 --trace 0

Run it from the root of a lambrack checkout: the package is imported
from ``src/`` there, and scratch files go to ``.perfbench/``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it, ``{"report": ...}``, holds every metric the workload
produces, the input counts and the first failures.  See README.md.
"""

import time

STARTED = time.perf_counter()   # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 3

# The end-to-end metrics BENCHMARK.json bounds.  ``op_tail_ms`` is on
# the report line only: on the reference box its spread over ten seeds
# reached 0.28 of its median, more than any bound may be.
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# The per-layer metrics BENCHMARK.json lists: call counts and counters,
# which may be zero on a workload, and the times every workload accrues.
# A time on a layer some workload never enters would read a constant
# zero there, so those are on the report line and in the trace file.
PER_LAYER = (
    "freegroup.word_of.calls", "freegroup.word_of.s",
    "prover.Prover.prove.calls", "prover.Prover.prove.s",
    "prover.Prover.prove.self_s", "prover.prove.calls", "prover.prove.s",
    "prover.goals", "prover.root_refutations",
    "syntax.parse_sequent.calls", "syntax.parse_sequent.s",
    "prover.check.calls", "prover.print_proof.calls",
    "prover.parse_proof.calls",
    "interpolate.extract_interpolant.calls",
    "interpolate.thin_index.calls", "interpolate.cut_reduce_flat.calls",
    "compiler.enum_types.calls", "compiler.build_rulesets.calls",
    "compiler.compile_cfg.calls", "compiler.types", "compiler.flat_rules",
    "cfgkit.parse_cfg.calls", "cfgkit.derives.calls",
    "cfgkit.cut_derives.calls", "cfgkit.nonterminals",
    "cli.main.calls", "trace.wall_s", "trace.overhead_s",
)

# A child run's own time limit when it measures the untraced wall time.
CHILD_TIMEOUT_S = 170


def tail_latency(latencies):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with 10 samples or
    fewer no percentile qualifies and the maximum is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _import_lambrack(root):
    src = root / "src"
    if not (src / "lambrack" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import lambrack
    import lambrack.cli  # noqa: F401  (not imported by the package)
    if Path(lambrack.__file__).resolve().parent != \
            (src / "lambrack").resolve():
        return None
    return lambrack


def _untraced_wall(args):
    """wall_s of the same run without tracing, in a child process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: "
                           f"{done.stderr.strip()[-300:]}")
    last = done.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["wall_s"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    lambrack = _import_lambrack(root)
    if lambrack is None:
        print(f"error: no lambrack source tree under {root / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    workloads.bind(lambrack)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(lambrack)

    scratch = root / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # a traced run reports no set-up time, so it sets up once
        setup_reps = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            work = workloads.WORKLOADS[args.workload]()
            rep_dir = workdir / f"setup{i}"
            rep_dir.mkdir(parents=True)
            work.setup(args.seed, args.seconds, rep_dir)
            setup_reps.append(time.perf_counter() - t0)

        tracer.enabled = bool(args.trace)
        records, wall = work.timed(tracer)
        tracer.enabled = False
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work.verify(records)
        extra = work.extra_metrics(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r[2] is not None]
    wrong = [r for r in failed if r[2].startswith("wrong")]
    rounds = _per_round(records)
    # latency over the repeated rounds (for grammars: the parse and
    # cut-derive stream after the compile phase)
    latencies = [r[1] for r in records if r[4] >= 0]
    tail_ms, tail_pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_reps), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (statistics.median(r["ops_per_s"] for r in rounds),
                      "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_share": (len(failed) / len(records), "share"),
    }
    by_kind = {}
    for kind, ms, *_ in records:
        by_kind.setdefault(kind, []).append(ms)
    for kind, xs in sorted(by_kind.items()):
        metrics[f"op.{kind}.p50_ms"] = (statistics.median(xs), "ms")
    metrics.update(extra)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "loop": "closed, one caller, one thread",
        "import_s": import_s, "setup_reps_s": setup_reps,
        "attempted": len(records), "failed": len(failed),
        "wrong": len(wrong),
        "failures_by_cause": _causes(failed),
        "first_failures": [r[2] for r in failed[:12]],
        "tail": {"percentile": tail_pct, "samples": len(latencies),
                 "samples_beyond": beyond},
        "rounds": rounds,
        "inputs": work.describe(),
    }
    if args.trace:
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = (wall, "s")
        layers["trace.overhead_s"] = (wall - _untraced_wall(args), "s")
        scratch.mkdir(exist_ok=True)
        trace_file = scratch / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file, {"report": report})
        report["trace_file"] = str(trace_file.relative_to(root))
        all_metrics = dict(metrics, **layers)
        shown = {name: layers[name] for name in PER_LAYER}
    else:
        all_metrics = metrics
        shown = {name: metrics[name] for name in END_TO_END}
    report["metrics"] = _as_json(all_metrics)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": _as_json(shown)}))
    return 0


def _per_round(records):
    """Operations, completions and throughput of each round.

    Operations outside the rounds (the grammars compile phase) count in
    ``wall_s`` only.  A round's time is the sum of its operation times.
    """
    by_round = {}
    for kind, ms, error, _, rnd in records:
        if rnd >= 0:
            by_round.setdefault(rnd, []).append((ms, error))
    out = []
    for rnd, ops in sorted(by_round.items()):
        done = sum(1 for _, error in ops if error is None)
        seconds = sum(ms for ms, _ in ops) / 1000.0
        out.append({"round": rnd, "ops": len(ops), "completed": done,
                    "seconds": seconds, "ops_per_s": done / seconds})
    return out


def _causes(failed):
    out = {}
    for rec in failed:
        cause = rec[2].split("|")[0].split(":")[0].strip()
        key = f"{rec[0]}: {cause}"
        out[key] = out.get(key, 0) + 1
    return out


def _as_json(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
