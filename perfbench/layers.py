"""Per-layer self times, taken from the benchmark's side.

The traced run wraps the public functions of each layer in spans
(:meth:`Tracer.install`).  A span's *self time* is its duration minus the
time of the spans it encloses, so the self times of one operation sum to
the operation's wall time.  ``api`` (the ``check_source`` entry) is the
outermost span; the entry point's own known costs — deep-stack threads,
fingerprint, config digest, session construction — are spans of their
own, so what is left of ``api``'s self time, plus any time outside every
span, is the *residual*: work no layer accounts for.  A call into the
layer that is already innermost runs without a new span (recursion, and
one layer function calling another).

Only one thread runs checker code at a time here — ``run_deep`` starts a
thread and joins it — so one span stack serves every thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, attribute, span layer, count key or None).  Methods are given
#: as ``Class.method``.  ``count`` counts every call, re-entrant ones too.
PATCHES = (
    ("repro.lang.lexer", "tokenize", "lang.tokenize", None),
    ("repro.lang.module", "parse_module", "lang.parse", None),
    ("repro.infer.session", "InferSession.check", "session", None),
    ("repro.infer.engines", "FlowSessionEngine.check_decl", "engine", None),
    ("repro.types.unify", "_Unifier.unify", "types.unify", None),
    ("repro.types.unify", "_Unifier.to_subst", "types.unify", None),
    ("repro.infer.applys", "apply_subst", "infer.applys",
     "infer.applys_calls"),
    ("repro.boolfn.projection", "eliminate_variable", "boolfn.eliminate",
     "boolfn.eliminations"),
    ("repro.boolfn.projection", "project_onto", "boolfn.eliminate", None),
    ("repro.boolfn.projection", "projected", "boolfn.eliminate", None),
    ("repro.boolfn.expansion", "expand", "boolfn.expand",
     "boolfn.expansions"),
    ("repro.boolfn.expansion", "expand_many", "boolfn.expand", None),
    ("repro.boolfn.engine", "SatEngine.solve", "boolfn.sat",
     "boolfn.sat_queries"),
    ("repro.boolfn.engine", "SatEngine.unsat_core", "boolfn.core",
     "boolfn.cores"),
    ("repro.diag.flow_unsat", "diagnose_unsat", "diag.diagnose", None),
    ("repro.util", "run_deep", "api.deep", None),
    ("repro.server.service", "fingerprint_source", "api.setup", None),
    ("repro.store.keys", "config_digest", "api.setup", None),
    ("repro.infer.session", "InferSession.__init__", "api.setup", None),
    ("repro.server.service", "check_source", "api", None),
    ("repro.api", "check_source", "api", None),
    ("repro.api", "CheckReport.to_json", "api.render", None),
)

#: Counted without a span: too hot and too cheap to time one by one.
COUNTS = (
    ("repro.boolfn.cnf", "Cnf.add_clause", "boolfn.clauses_added"),
)

#: Self-time layer -> per-layer metric name.
SELF_METRICS = {
    "lang.tokenize": "lang.tokenize_ms",
    "lang.parse": "lang.parse_ms",
    "session": "session.plan_ms",
    "engine": "infer.engine_other_ms",
    "types.unify": "types.unify_ms",
    "infer.applys": "infer.applys_ms",
    "boolfn.eliminate": "boolfn.eliminate_ms",
    "boolfn.expand": "boolfn.expand_ms",
    "boolfn.sat": "boolfn.sat_ms",
    "boolfn.core": "boolfn.core_ms",
    "diag.diagnose": "diag.diagnose_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "api.deep": "api.deep_thread_ms",
    "api.render": "api.render_ms",
}

#: Self-time layers whose sum is ``api.overhead_ms``: a ``check_source``
#: call minus parse, session, store and rendering.
API_LAYERS = ("api", "api.deep", "api.setup")


class Tracer:
    """Span stack plus per-layer self time, inclusive time and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def wrap(self, fn, layer: str, count: str | None = None,
             on_result=None):
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                total_s[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, count: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------
    def _replace(self, module_name: str, attribute: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attribute:
            owner_name, name = attribute.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            self._set(owner, name, make(original))
            return
        original = getattr(module, attribute)
        replacement = make(original)
        # ``from x import f`` copies the binding: rebind it everywhere.
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, name, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        import repro.api  # noqa: F401 — loads every patched module
        import repro.server.service  # noqa: F401

        counts = self.counts

        def session_result(result, args) -> None:
            counts["session.decls_checked"] += result.checked
            counts["session.decls_reused"] += result.reused

        def diagnostics(result, args) -> None:
            counts["diag.diagnostics"] += len(result or ())

        def tokens(result, args) -> None:
            counts["lang.tokens"] += len(result)

        def dispatched(result, args) -> None:
            counts[f"boolfn.dispatch.{args[0].stats().dispatch_class}"] += 1

        hooks = {
            "session": session_result,
            "diag.diagnose": diagnostics,
            "lang.tokenize": tokens,
            "boolfn.sat": dispatched,
        }
        for module, attribute, layer, count in PATCHES:
            self._replace(module, attribute, lambda fn, layer=layer,
                          count=count: self.wrap(fn, layer, count,
                                                 hooks.get(layer)))
        for module, attribute, count in COUNTS:
            self._replace(module, attribute,
                          lambda fn, count=count: self.counter(fn, count))

        def minimized(fn):
            # Minimization queries are counted by the engine itself.
            def unsat_core(engine, *args, **kwargs):
                before = engine.stats().core_minimize_queries
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    counts["boolfn.core_minimize_queries"] += (
                        engine.stats().core_minimize_queries - before
                    )
            return unsat_core

        self._replace("repro.boolfn.engine", "SatEngine.unsat_core",
                      minimized)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def wrap_store(self, store):
        """Time a store object's ``get``/``put`` (hits and misses too)."""

        def looked_up(payload, args) -> None:
            self.counts["store.hits" if payload is not None
                        else "store.misses"] += 1

        store.get = self.wrap(store.get, "store.get", None, looked_up)
        store.put = self.wrap(store.put, "store.put")
        return store


def layer_metrics(tracer: Tracer, ops: int,
                  op_seconds: float) -> dict[str, float]:
    """Per-operation layer metrics: self times in ms, counts summed/op.

    ``trace.residual_ms`` is the self time of the ``api`` span itself plus
    the operation's wall time outside every span.
    """
    def per_op(seconds: float) -> float:
        return seconds * 1000.0 / ops

    self_s = tracer.self_s
    metrics = {name: per_op(self_s.get(layer, 0.0))
               for layer, name in SELF_METRICS.items()}
    metrics["api.overhead_ms"] = per_op(
        sum(self_s.get(layer, 0.0) for layer in API_LAYERS))
    metrics["session.check_ms"] = per_op(tracer.total_s.get("session", 0.0))
    for name, value in tracer.counts.items():
        metrics[name] = value / ops
    metrics["trace.op_ms"] = per_op(op_seconds)
    metrics["trace.residual_ms"] = per_op(
        self_s.get("api", 0.0) + op_seconds - sum(self_s.values()))
    return metrics
