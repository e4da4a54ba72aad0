"""Quantum-boundary observation: what a RunReport needs, per quantum.

Every RunReport section except the counters is a per-quantum fact: the
§5 behaviour measures (depth excursion and run length of each
scheduling quantum), the occupancy timeline (one window-map snapshot
per dispatch) and the event statistics (switch costs, per-thread
cycles, tallies of what happened).  The kernel therefore offers one
observation hook at quantum boundaries (:meth:`Kernel.observe
<repro.runtime.kernel.Kernel.observe>`), fired from the kernel's
execution loop once per dispatch and quantum exit instead of once per
event.  An observer implements three callbacks:

* ``on_quantum_start(tid, depth, cycle, switch_cost)`` — after each
  dispatch: the dispatched thread, its call depth, the cycle clock
  (context switch included) and the switch's cycle cost;
* ``on_quantum_end(tid, exit_code, cycle, min_depth, max_depth)`` —
  when the quantum ends in a block, yield or retirement
  (:data:`~repro.runtime.batch.EXIT_BLOCKED` / ``EXIT_YIELDED`` /
  ``EXIT_DONE``), with the depth range the quantum reached;
* ``on_run_end(kernel, cycle)`` — once, when the run completes.

:class:`~repro.metrics.behavior.BehaviorTracker` and
:class:`~repro.metrics.tracing.OccupancyTimeline` are observers;
:class:`QuantumLog` (here) produces the ``events`` section with the
statistics API of :class:`~repro.metrics.events.TraceRecorder`, so
:func:`~repro.metrics.report.build_run_report` accepts either.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.events import percentile_of_histogram
from repro.runtime.batch import EXIT_DONE, EXIT_YIELDED


class QuantumLog:
    """Quantum-boundary records of one run, summarised as the event
    statistics a :class:`~repro.metrics.events.TraceRecorder` would
    derive from the full event stream of the same run.

    Per quantum it keeps the dispatch-to-exit interval (per-thread
    cycles); at run end it reads the switch-cost histogram from the
    scheme's cost counts (:meth:`~repro.core.scheme.Scheme.cycle_counts`)
    and derives the per-kind event tallies from the counters, the
    threads, the closed streams and the fault injector.  Attach it
    before the run (and before spawning) with
    ``kernel.observe(QuantumLog())``: the histogram and the tallies
    cover the whole run.
    """

    def __init__(self):
        #: switch cost (cycles) -> number of context switches; filled
        #: at run end
        self.switch_cost_hist: Dict[int, int] = {}
        #: tid -> cycles between its dispatches and quantum exits
        self.cycles: Dict[int, int] = {}
        self.dispatches = 0
        self.yields = 0
        self.retires = 0
        #: event kind -> count; filled at run end
        self.tallies: Dict[str, int] = {}
        self._tid: Optional[int] = None
        self._start = 0

    # -- quantum-boundary observer -----------------------------------------

    def on_quantum_start(self, tid: int, depth: int, cycle: int,
                         switch_cost: int) -> None:
        self.dispatches += 1
        if self._tid is not None:
            self._close(cycle)
        self._tid = tid
        self._start = cycle

    def on_quantum_end(self, tid: int, exit_code: int, cycle: int,
                       min_depth: int, max_depth: int) -> None:
        if exit_code == EXIT_YIELDED:
            self.yields += 1
        elif exit_code == EXIT_DONE:
            self.retires += 1
        if tid == self._tid:
            cycles = self.cycles
            cycles[tid] = cycles.get(tid, 0) + cycle - self._start
            self._tid = None

    def on_run_end(self, kernel, cycle: int) -> None:
        self._close(cycle)
        self.switch_cost_hist = kernel.scheme.cycle_counts()[0]
        counters = kernel.counters
        threads = kernel.threads
        # A completed run leaves no thread blocked, so every block was
        # matched by exactly one wake.
        blocks = sum(t.blocks for t in threads)
        faults = kernel.faults
        self.tallies = {
            "spawn": len(threads),
            "enqueue": len(threads) + blocks + self.yields,
            "switch": counters.context_switches,
            "dispatch": self.dispatches,
            "save": counters.saves,
            "restore": counters.restores,
            "overflow": counters.overflow_traps,
            "underflow": counters.underflow_traps,
            "block": blocks,
            "wake": blocks,
            "yield": self.yields,
            "retire": self.retires,
            "stream_close": kernel.streams_closed,
            "fault": (len(faults.fired) + faults.trap_actions
                      if faults is not None else 0),
            "run_end": 1,
        }

    def _close(self, cycle: int) -> None:
        tid = self._tid
        if tid is not None:
            self.cycles[tid] = self.cycles.get(tid, 0) + cycle - self._start
            self._tid = None

    # -- TraceRecorder statistics API --------------------------------------

    def __len__(self) -> int:
        return sum(self.tallies.values())

    def by_kind(self) -> Dict[str, int]:
        return {kind: n for kind, n in self.tallies.items() if n}

    def per_thread_cycles(self) -> Dict[int, int]:
        return dict(self.cycles)

    def switch_cost_stats(self) -> Dict[str, float]:
        """Mean / p50 / p95 / p99 / max of the switch-cost distribution."""
        hist = self.switch_cost_hist
        count = sum(hist.values())
        if not count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": count,
            "mean": sum(c * n for c, n in hist.items()) / count,
            "p50": percentile_of_histogram(hist, 50),
            "p95": percentile_of_histogram(hist, 95),
            "p99": percentile_of_histogram(hist, 99),
            "max": float(max(hist)),
        }
