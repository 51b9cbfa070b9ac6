"""Layer tracing from outside the package.

``Tracer.install`` rebinds selected public functions of the lambrack
modules to timing wrappers.  A function imported by name into another
module (``from .prover import prove``) is a separate module attribute,
so every lambrack module attribute bound to the original function is
rebound.  Nothing in the package is edited.

Each wrapped call is a span: name, start, end, parent span and the id
of the benchmark operation that caused it.  Spans stay in memory and
are written out when the run ends.  Per name the tracer also keeps the
call count, the inclusive time of outermost activations (so a function
that reaches itself again is not counted twice) and the self time: the
span's duration minus the time its child spans cover.
"""

import contextlib
import json
import time
from collections import Counter

# Module -> public functions timed in the traced run.  "Prover.prove"
# names the method; "prove" the module-level function that builds a
# fresh Prover per call.
TRACED = {
    "syntax": ("parse_sequent",),
    "freegroup": ("word_of",),
    "prover": ("prove", "Prover.prove", "check", "print_proof",
               "parse_proof"),
    "interpolate": ("extract_interpolant", "thin_index", "cut_reduce_flat"),
    "compiler": ("enum_types", "build_rulesets", "compile_cfg"),
    "cfgkit": ("parse_cfg", "derives", "cut_derives"),
    "harness": ("run_interpolation_sweep", "run_cut_completeness",
                "run_equivalence"),
    "cli": ("main",),
}

MODULES = ("syntax", "freegroup", "prover", "interpolate", "compiler",
           "cfgkit", "harness", "cli")

# Spans kept in memory at most; calls beyond it still count in the
# per-name totals, and the number dropped is reported.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.stack = []          # open frames: [span id, start, child time]
        self.active = Counter()  # open activations per name
        self.spans = []          # (id, name, start, end, parent, op id)
        self.next_id = 0
        self.dropped = 0
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        span_id = self.next_id
        self.next_id += 1
        frame = [span_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, name, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self.active[name] == 0:
            self.inclusive[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        else:
            parent = None
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def wrap(self, name, fn, observe=None):
        """A function that times ``fn`` under ``name`` while enabled.

        ``observe(args, result)`` runs after a call that returned, to
        record counts at the same boundary.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            tracer.active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.active[name] -= 1
                tracer._leave(name, frame)
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op(self, kind, op_id):
        """One benchmark operation: a root span named ``op.<kind>``."""
        if not self.enabled:
            yield
            return
        self.op_id = op_id
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(f"op.{kind}", frame)
            self.op_id = None

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Rebind the traced functions in every lambrack module."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for mod_name, names in TRACED.items():
            module = getattr(package, mod_name)
            for fname in names:
                name = f"{mod_name}.{fname}"
                if fname == "Prover.prove":
                    cls = module.Prover
                    cls.prove = self.wrap(name, self._counting_prove(
                        cls.prove))
                    continue
                original = getattr(module, fname)
                wrapped = self.wrap(name, original, self._observer(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _counting_prove(self, method):
        """Prover.prove plus the memo counts taken at its boundary."""
        tracer = self

        def prove(prover, s):
            before = len(prover.memo)
            result = method(prover, s)
            if tracer.enabled:
                tracer.counts["prover.goals"] += len(prover.memo) - before
                # the search stores every goal it visits, so a goal that
                # is absent afterwards was refuted by the free-group
                # check at the root
                if result is None and s not in prover.memo:
                    tracer.counts["prover.root_refutations"] += 1
            return result

        return prove

    def _observer(self, name):
        counts = self.counts
        if name == "compiler.enum_types":
            return lambda args, result: counts.update(
                {"compiler.types": len(result)})
        if name == "compiler.build_rulesets":
            return lambda args, result: counts.update(
                {"compiler.flat_rules": len(result.flat_rules)})
        if name == "compiler.compile_cfg":
            return lambda args, result: counts.update(
                {"compiler.cfg_productions": len(result.productions)})
        if name == "cfgkit.derives":
            return lambda args, result: counts.update(
                {"cfgkit.nonterminals": len(args[0].nonterminals)})
        if name == "cli.main":
            return lambda args, result: counts.update(
                {f"cli.exit.{result}": 1})
        if name.startswith("harness.run_"):
            return lambda args, result: counts.update(
                {f"harness.{result.claim}.elapsed_s": result.elapsed})
        return None

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """``<name>.{calls,s,self_s}`` for every traced name, plus counts."""
        out = {}
        names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        names += sorted(n for n in self.calls if n.startswith("op."))
        for name in names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.inclusive[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for key, value in sorted(self.counts.items()):
            out[key] = (value, "s" if key.endswith("_s") else "count")
        for key in ("prover.goals", "prover.root_refutations",
                    "compiler.types", "compiler.flat_rules",
                    "cfgkit.nonterminals"):
            out.setdefault(key, (0, "count"))
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.spans_dropped"] = (self.dropped, "count")
        return out

    def write(self, path, extra):
        payload = dict(extra)
        payload["span_fields"] = ["id", "name", "start", "end", "parent",
                                  "op"]
        payload["spans"] = self.spans
        payload["spans_dropped"] = self.dropped
        with open(path, "w") as fh:
            json.dump(payload, fh)

