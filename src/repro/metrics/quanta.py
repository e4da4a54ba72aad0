"""The quantum record: what a RunReport needs, per quantum.

Every RunReport section except the counters is a per-quantum fact: the
§5 behaviour measures (depth excursion and run length of each
scheduling quantum), the occupancy timeline (one window-map snapshot
per dispatch) and the event statistics (switch costs, per-thread
cycles, tallies of what happened).  The kernel keeps them in one
columnar :class:`QuantumRecord`, filled inline by its execution loop
at the two quantum boundaries it already observes — after the context
switch at dispatch, and after the lazy cycle fold at quantum end — with
no Python call per quantum.  The record exists only once something
reads it: a plain run allocates none.

The readers are views over the record, bound with
``kernel.tracker = BehaviorTracker()``, ``kernel.timeline =
OccupancyTimeline()`` or ``kernel.attach_view(QuantumLog())``.  A view
covers the quanta dispatched after it was bound (so binding mid-run
takes effect at the next dispatch) and computes its measures from the
columns when asked — for a RunReport, inside
:func:`~repro.metrics.report.build_run_report`:

* :class:`~repro.metrics.behavior.BehaviorTracker` — the §5 measures;
* :class:`~repro.metrics.tracing.OccupancyTimeline` — the window-map
  snapshots (:class:`OccupancySamples`, decimated online);
* :class:`QuantumLog` (here) — the ``events`` section, with the
  statistics API of :class:`~repro.metrics.events.TraceRecorder`, so
  :func:`~repro.metrics.report.build_run_report` accepts either.

Callers that must act at a boundary attach a live observer instead
(:meth:`Kernel.observe <repro.runtime.kernel.Kernel.observe>`).
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.metrics.events import percentile_of_histogram
from repro.runtime.batch import EXIT_DONE, EXIT_YIELDED


class OccupancySamples:
    """Window-map snapshots ``(cycle, running_tid, kinds, tids)``, one
    offered per dispatch, decimated online.

    When the list is full, every other snapshot is discarded and the
    stride doubles, so the retained ones always span the whole run (at
    progressively coarser resolution) and memory stays bounded.  The
    kernel's execution loop inlines :meth:`offer`.
    """

    __slots__ = ("rows", "max_samples", "stride", "skip", "dropped")

    def __init__(self, max_samples: int):
        self.rows: list = []
        self.max_samples = max_samples
        self.stride = 1
        #: offers still to drop before the next one is kept
        self.skip = 0
        #: snapshots not retained (decimated or skipped mid-stride)
        self.dropped = 0

    def offer(self, cycle: int, tid: int, kinds, tids) -> None:
        if self.skip:
            self.skip -= 1
            self.dropped += 1
            return
        if len(self.rows) >= self.max_samples:
            self.decimate()
        self.rows.append((cycle, tid, tuple(kinds), tuple(tids)))
        self.skip = self.stride - 1

    def decimate(self) -> None:
        """Keep every other snapshot and double the stride."""
        rows = self.rows
        self.dropped += len(rows) // 2
        del rows[1::2]
        self.stride *= 2


class QuantumRecord:
    """Columnar record of a run's scheduling quanta.

    One row per dispatch: ``tid``, ``start`` (the cycle clock after the
    context switch) and ``depth`` (the call depth) are appended at
    dispatch; ``end`` (the cycle clock when the quantum blocked, yielded
    or retired), ``exit`` (a :mod:`repro.runtime.batch` ``EXIT_*``
    code) and ``low``/``high`` (the depth range the quantum reached)
    when it ends.  ``stop`` is the cycle clock at run end.  While a
    timeline samples, ``occupancy`` takes one snapshot per dispatch.
    """

    __slots__ = ("tid", "start", "depth", "end", "exit", "low", "high",
                 "stop", "n_windows", "occupancy")

    def __init__(self, n_windows: int = 0):
        self.tid = array("q")
        self.start = array("q")
        self.depth = array("q")
        self.end = array("q")
        self.exit = array("q")
        self.low = array("q")
        self.high = array("q")
        self.stop: Optional[int] = None
        self.n_windows = n_windows
        self.occupancy: Optional[OccupancySamples] = None

    @property
    def open(self) -> bool:
        """True while the last dispatched quantum has not ended."""
        return len(self.end) < len(self.tid)

    def appends(self):
        """The bound ``append`` methods of the seven columns, in
        declaration order (the execution loop hoists these)."""
        return (self.tid.append, self.start.append, self.depth.append,
                self.end.append, self.exit.append, self.low.append,
                self.high.append)

    def sample_occupancy(self, max_samples: int) -> OccupancySamples:
        """Start a fresh snapshot store, offered every later dispatch."""
        self.occupancy = OccupancySamples(max_samples)
        return self.occupancy

    # -- the slow path (the execution loop inlines both) ---------------------

    def dispatched(self, tid: int, cycle: int, depth: int, wmap) -> None:
        self.tid.append(tid)
        self.start.append(cycle)
        self.depth.append(depth)
        if self.occupancy is not None:
            self.occupancy.offer(cycle, tid, wmap._kind, wmap._tid)

    def ended(self, cycle: int, code: int, low: int, high: int) -> None:
        if self.open:
            self.end.append(cycle)
            self.exit.append(code)
            self.low.append(low)
            self.high.append(high)


class QuantumLog:
    """The event statistics a :class:`~repro.metrics.events.TraceRecorder`
    would derive from the full event stream of a run, as a view over
    the kernel's quantum record.

    Per-thread cycles are each quantum's dispatch-to-exit interval; the
    switch-cost histogram comes from the scheme's cost counts
    (:meth:`~repro.core.scheme.Scheme.cycle_counts`) and the per-kind
    tallies from the counters, the threads, the closed streams and the
    fault injector, read once the run has ended.  Bind it before the
    run (and before spawning) with ``kernel.attach_view(QuantumLog())``:
    the histogram and the tallies cover the whole run.
    """

    def __init__(self):
        self._record: Optional[QuantumRecord] = None
        self._kernel = None
        self._first = 0

    def _bind(self, record: QuantumRecord, kernel) -> None:
        self._record = record
        self._kernel = kernel
        self._first = len(record.tid)

    def _ended(self) -> bool:
        return self._record is not None and self._record.stop is not None

    def _tallies(self) -> Dict[str, int]:
        """event kind -> count, once the run has ended."""
        if not self._ended():
            return {}
        record = self._record
        exits = record.exit[self._first:]
        yields = exits.count(EXIT_YIELDED)
        kernel = self._kernel
        counters = kernel.counters
        threads = kernel.threads
        # A completed run leaves no thread blocked, so every block was
        # matched by exactly one wake.
        blocks = sum(t.blocks for t in threads)
        faults = kernel.faults
        return {
            "spawn": len(threads),
            "enqueue": len(threads) + blocks + yields,
            "switch": counters.context_switches,
            "dispatch": len(record.tid) - self._first,
            "save": counters.saves,
            "restore": counters.restores,
            "overflow": counters.overflow_traps,
            "underflow": counters.underflow_traps,
            "block": blocks,
            "wake": blocks,
            "yield": yields,
            "retire": exits.count(EXIT_DONE),
            "stream_close": kernel.streams_closed,
            "fault": (len(faults.fired) + faults.trap_actions
                      if faults is not None else 0),
            "run_end": 1,
        }

    # -- TraceRecorder statistics API --------------------------------------

    def __len__(self) -> int:
        return sum(self._tallies().values())

    def by_kind(self) -> Dict[str, int]:
        return {kind: n for kind, n in self._tallies().items() if n}

    def per_thread_cycles(self) -> Dict[int, int]:
        """tid -> cycles between its dispatches and quantum exits (a
        quantum still open at run end counts up to the run's end)."""
        record = self._record
        if record is None:
            return {}
        first = self._first
        ends = record.end[first:]
        if record.stop is not None and record.open:
            ends.append(record.stop)
        cycles: Dict[int, int] = {}
        for tid, start, end in zip(record.tid[first:], record.start[first:],
                                   ends):
            cycles[tid] = cycles.get(tid, 0) + end - start
        return cycles

    def switch_cost_stats(self) -> Dict[str, float]:
        """Mean / p50 / p95 / p99 / max of the switch-cost distribution
        (switch cost in cycles -> number of context switches), once the
        run has ended."""
        hist = (self._kernel.scheme.cycle_counts()[0] if self._ended()
                else {})
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
