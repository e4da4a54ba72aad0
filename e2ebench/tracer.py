"""In-memory span tracer for the traced run of the benchmark.

Every span is opened and closed by a wrapper that this package installs
around a public entry point of the simulator (see ``instrument``); no
file under ``src/`` is touched.  A span's *self time* is its duration
minus the time covered by the spans it directly caused.

Two kinds of spans are kept:

* coarse spans (one per run, per sweep point, per verification ...)
  are recorded in full: ``(id, name, start, end, parent id, run id)``,
  where the run id is the id of the top-level program call the span
  belongs to;
* hot spans (context switches, window traps, event-bus emits, observer
  callbacks, all called up to a few hundred thousand times per run) are
  folded into per-name totals only, so the trace stays small and the
  memory of the traced run stays comparable to the untraced one.

``Tracer.dump`` writes both, with the per-name totals, when the traced
run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List

#: spans folded into totals instead of being recorded one by one
HOT_SPANS = frozenset({
    "core.context_switch", "core.handle_overflow", "core.handle_underflow",
    "isa.scheme.context_switch", "isa.scheme.handle_overflow",
    "isa.scheme.handle_underflow",
    "metrics.emit", "metrics.tracker", "metrics.timeline",
})


class Tracer:
    """Span stack plus per-name totals ``[count, inclusive_s, self_s]``."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        totals = self.totals
        record = name not in HOT_SPANS
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # frame: [child seconds, span id, run id]; a run is one
            # top-level call into the program (a child of a root span)
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_id, 0]
            tracer._next_id += 1
            if parent is not None:
                frame[2] = parent[2] or frame[1]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                total = totals.get(name)
                if total is None:
                    total = totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if record:
                    spans.append((frame[1], name, start, end,
                                  parent[1] if parent is not None else 0,
                                  frame[2]))
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive(self, *names: str) -> float:
        return sum((self.totals.get(n, (0, 0.0, 0.0))[1] for n in names),
                   0.0)

    def self_time(self, *names: str) -> float:
        return sum((self.totals.get(n, (0, 0.0, 0.0))[2] for n in names),
                   0.0)

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer (the name's first component)."""
        layers: Dict[str, float] = {}
        for name, (__, __, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def dump(self, path, extra: Dict[str, object]) -> None:
        doc = dict(extra)
        doc["totals"] = {
            name: {"count": int(c), "inclusive_s": incl, "self_s": own}
            for name, (c, incl, own) in sorted(self.totals.items())}
        doc["spans"] = [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "run": run}
            for sid, name, start, end, parent, run in self.spans]
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1)


# ---------------------------------------------------------------------------
# instrumentation of the simulator's public entry points


def _wrap_attr(tracer: Tracer, owner, attr: str, name: str) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def wrap_scheme(tracer: Tracer, scheme, prefix: str) -> None:
    """Wrap one scheme instance's switch and trap entry points.

    Instance attributes shadow the class methods, so the batched kernel
    loop (which binds them once per run) and the CPU's trap path (which
    looks them up on every trap) both go through the wrappers.
    """
    for attr in ("context_switch", "handle_overflow", "handle_underflow"):
        _wrap_attr(tracer, scheme, attr, "%s.%s" % (prefix, attr))


def kernel_hook(tracer: Tracer) -> Callable:
    """An ``instrument`` callback for ``run_spellchecker``: wraps the
    kernel's scheme and its event bus before any thread is spawned."""
    def instrument(kernel) -> None:
        wrap_scheme(tracer, kernel.scheme, "core")
        _wrap_attr(tracer, kernel.events, "emit", "metrics.emit")
    return instrument


def instrument(tracer: Tracer) -> None:
    """Install every wrapper, before the workload's set-up runs."""
    from repro.analysis import verifier
    from repro.apps.spellcheck import corpus, pipeline
    from repro.experiments import engine, figures, harness, table1, table2
    from repro.isa import assembler, machine
    from repro.metrics.behavior import BehaviorTracker
    from repro.metrics.tracing import OccupancyTimeline
    from repro.runtime.kernel import Kernel

    # repro.apps.spellcheck: input generation and pipeline construction
    # (patched where they are looked up: the corpus module, for the
    # benchmark's own set-up, and the pipeline module, for every run)
    for module in (corpus, pipeline):
        _wrap_attr(tracer, module, "generate_corpus",
                   "spellcheck.generate_corpus")
        _wrap_attr(tracer, module, "generate_dictionaries",
                   "spellcheck.generate_dictionaries")
    _wrap_attr(tracer, pipeline, "build_spellchecker",
               "spellcheck.build_spellchecker")

    # repro.runtime: kernel construction and the kernel run (self time =
    # dispatch loop, streams, guest bodies)
    _wrap_attr(tracer, Kernel, "__init__", "runtime.init")
    _wrap_attr(tracer, Kernel, "run", "runtime.run")

    # repro.core + repro.metrics emit: every run_spellchecker call, the
    # benchmark's own and run_report_point's, gets the kernel hook as its
    # instrument callback, chained in front of the caller's own callback
    hook = kernel_hook(tracer)
    run_spellchecker = pipeline.run_spellchecker

    def hooked(*args, instrument=None, **kwargs):
        def both(kernel):
            hook(kernel)
            if instrument is not None:
                instrument(kernel)
        return run_spellchecker(*args, instrument=both, **kwargs)

    traced = tracer.wrap("spellcheck.run_spellchecker", hooked)
    pipeline.run_spellchecker = harness.run_spellchecker = traced

    # repro.metrics: observers (subscribed by bound method, so patched
    # on the class before any instance exists) and report building
    _wrap_attr(tracer, BehaviorTracker, "on_event", "metrics.tracker")
    _wrap_attr(tracer, OccupancyTimeline, "on_event", "metrics.timeline")
    _wrap_attr(tracer, harness, "build_run_report",
               "metrics.build_run_report")

    # repro.experiments: targets, engine, per-point runner, cache I/O
    _wrap_attr(tracer, table1, "run_table1", "experiments.run_table1")
    _wrap_attr(tracer, table2, "run_table2", "experiments.run_table2")
    for fig in ("run_fig11", "run_fig12", "run_fig13", "run_fig14",
                "run_fig15"):
        _wrap_attr(tracer, figures, fig, "experiments." + fig)
    _wrap_attr(tracer, engine, "cache_fingerprint",
               "experiments.cache_fingerprint")
    _wrap_attr(tracer, engine.Engine, "run_reports",
               "experiments.run_reports")
    _wrap_attr(tracer, engine, "run_report_point",
               "experiments.run_report_point")
    _wrap_attr(tracer, engine.ResultCache, "get", "experiments.cache_get")
    _wrap_attr(tracer, engine.ResultCache, "put", "experiments.cache_put")

    # repro.isa: assembly, machine construction (which also wraps the
    # machine's scheme) and the fetch loop
    _wrap_attr(tracer, assembler, "assemble", "isa.assemble")
    machine_init = machine.Machine.__init__

    def init_and_wrap(self, *args, **kwargs):
        machine_init(self, *args, **kwargs)
        wrap_scheme(tracer, self.scheme, "isa.scheme")

    machine.Machine.__init__ = tracer.wrap("isa.init", init_and_wrap)
    _wrap_attr(tracer, machine.Machine, "run", "isa.run")

    # repro.analysis: static verification with predictions
    _wrap_attr(tracer, verifier, "verify_program", "analysis.verify_program")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, counts: Dict[str, float],
              wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of a traced round.

    ``counts`` are the round's boundary counts (steps, window traffic
    from ``Counters``, engine statistics); ``wall_s`` is the traced
    wall time: set-up work plus the round's program calls.  Metrics of
    a layer the workload never enters are 0.
    """
    t = tracer
    steps = counts.get("runtime.steps", 0)
    switches = t.count("core.context_switch")
    traps = t.count("core.handle_overflow") + t.count("core.handle_underflow")
    switch_s = t.self_time("core.context_switch")
    events = t.count("metrics.emit")
    requested = counts.get("experiments.total", 0)
    explained = sum(s for layer, s in t.layer_self().items()
                    if layer != "bench")
    return {
        "spellcheck.inputs_s": t.inclusive(
            "spellcheck.generate_corpus", "spellcheck.generate_dictionaries"),
        "spellcheck.build_s": t.inclusive("spellcheck.build_spellchecker"),
        "runtime.steps": steps,
        "runtime.self_s": t.self_time("runtime.run"),
        "runtime.self_ns_per_step": 1e9 * _ratio(
            t.self_time("runtime.run"), steps),
        "core.switches": switches,
        "core.switch_s": switch_s,
        "core.switch_ns_per_call": 1e9 * _ratio(switch_s, switches),
        "core.traps": traps,
        "core.trap_s": t.self_time("core.handle_overflow",
                                   "core.handle_underflow"),
        "core.traps_per_switch": _ratio(traps, switches),
        "windows.spilled": counts.get("windows.spilled", 0),
        "windows.restored": counts.get("windows.restored", 0),
        "windows.spills_per_switch": _ratio(
            counts.get("windows.spilled", 0),
            counts.get("context_switches", 0)),
        "metrics.events": events,
        "metrics.events_per_step": _ratio(events, steps),
        "metrics.emit_s": t.inclusive("metrics.emit"),
        "metrics.observe_s": t.inclusive("metrics.tracker",
                                         "metrics.timeline"),
        "metrics.report_s": t.inclusive("metrics.build_run_report"),
        "experiments.points_requested": requested,
        "experiments.points_executed": counts.get("experiments.executed", 0),
        "experiments.hit_ratio": _ratio(counts.get("experiments.hits", 0),
                                        requested),
        "experiments.cache_io_s": t.inclusive("experiments.cache_get",
                                              "experiments.cache_put"),
        "experiments.self_s": t.self_time(*[
            name for name in t.totals
            if name.startswith("experiments.") and name not in (
                "experiments.run_report_point", "experiments.cache_get",
                "experiments.cache_put")]),
        "isa.instructions": counts.get("isa.instructions", 0),
        "isa.run_s": t.self_time("isa.run"),
        "isa.scheme_s": t.self_time("isa.scheme.context_switch",
                                    "isa.scheme.handle_overflow",
                                    "isa.scheme.handle_underflow"),
        "isa.traps": t.count("isa.scheme.handle_overflow")
        + t.count("isa.scheme.handle_underflow"),
        "analysis.verify_s": t.inclusive("analysis.verify_program"),
        "analysis.exact_ratio": _ratio(counts.get("analysis.exact", 0),
                                       counts.get("analysis.launches", 0)),
        "trace.closure": _ratio(explained, wall_s),
    }


def residual(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Where the traced wall time went, per layer, and what is left."""
    layers = {k: v for k, v in tracer.layer_self().items() if k != "bench"}
    return {"wall_s": wall_s, "layers_self_s": layers,
            "unexplained_s": wall_s - sum(layers.values()),
            "note": "unexplained = benchmark code between its timers "
                    "and the first wrapped entry point (thread and "
                    "memory set-up of Machine launches) plus the "
                    "wrappers' own cost outside their spans"}
