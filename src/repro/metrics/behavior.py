"""Program-behaviour analysis: the five measures of paper §5.

* **Window activity per thread** — windows used between two successive
  context switches of a thread, assuming infinitely many windows.  For
  one scheduling quantum this is ``max_depth - min_depth + 1`` (the
  distinct stack slots touched).
* **Total window activity** — windows used during a period by all
  threads together (a repeatedly-used window counts once).
* **Concurrency** — distinct threads scheduled at least once in a
  period.
* **Granularity** — execution run length between switches (cycles).
* **Parallel slackness** — ready-queue length when a thread is picked
  (sampled by :class:`repro.runtime.scheduler.ReadyQueue`).

The tracker is a view over the kernel's quantum record (bind with
``kernel.tracker = BehaviorTracker()``; see :mod:`repro.metrics.quanta`):
one row per scheduling quantum, whose depth range the execution loop
reports at the quantum's end.  A quantum runs from its dispatch to the
next dispatch (or the end of the run).  The measures are computed from
the columns when asked; :attr:`BehaviorTracker.quanta` builds
:class:`Quantum` objects on demand.  Fed by hand or from the event bus
instead (:meth:`BehaviorTracker.on_event`), the tracker fills a record
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.metrics.quanta import QuantumRecord


@dataclass
class Quantum:
    """One scheduling quantum of one thread."""

    __slots__ = ("tid", "start_cycle", "end_cycle", "min_depth",
                 "max_depth")

    tid: int
    start_cycle: int
    end_cycle: int
    min_depth: int
    max_depth: int

    @property
    def windows_used(self) -> int:
        return self.max_depth - self.min_depth + 1

    @property
    def run_length(self) -> int:
        return self.end_cycle - self.start_cycle


class BehaviorTracker:
    """Per-quantum depth excursions and run lengths."""

    def __init__(self):
        self._record = QuantumRecord()
        self._first = 0
        #: hand- or bus-fed: the last row is open (its depth range grows)
        self._feeding = False

    def _bind(self, record: QuantumRecord, kernel) -> None:
        self._record = record
        self._first = len(record.tid)
        self._feeding = False

    # -- event-bus adapter -----------------------------------------------------

    def on_event(self, event) -> None:
        """Consume bus events instead (``kernel.events.subscribe``):
        quanta open on ``dispatch``, depth excursions come from every
        ``save``/``restore``, and ``run_end`` closes the final quantum.
        The quanta are the same as the kernel-filled record's."""
        kind = event.kind
        if kind == "dispatch":
            self.on_dispatch(event.tid, event.attrs["depth"], event.cycle)
        elif kind == "save" or kind == "restore":
            self.on_depth(event.attrs["depth"])
        elif kind == "run_end":
            self.finish(event.cycle)

    # -- hand feeding ---------------------------------------------------------

    def on_dispatch(self, tid: int, depth: int, cycles: int) -> None:
        record = self._record
        record.stop = None
        record.tid.append(tid)
        record.start.append(cycles)
        record.depth.append(depth)
        record.low.append(depth)
        record.high.append(depth)
        self._feeding = True

    def on_depth(self, depth: int) -> None:
        if self._feeding:
            record = self._record
            if depth < record.low[-1]:
                record.low[-1] = depth
            elif depth > record.high[-1]:
                record.high[-1] = depth

    def finish(self, cycles: int) -> None:
        if self._feeding:
            self._record.stop = cycles
            self._feeding = False

    # -- the columns ----------------------------------------------------------

    def _columns(self):
        """``(tids, starts, ends, lows, highs)`` of the closed quanta:
        every quantum but a still-running last one."""
        record = self._record
        first = self._first
        last = len(record.tid)
        ends = record.start[first + 1:last]
        if record.stop is None:
            last -= 1
        else:
            ends.append(record.stop)
        if last <= first:
            return (), (), (), (), ()
        return (record.tid[first:last], record.start[first:last], ends,
                record.low[first:last], record.high[first:last])

    @property
    def n_quanta(self) -> int:
        record = self._record
        n = len(record.tid) - self._first
        if record.stop is None:
            n -= 1
        return max(n, 0)

    @property
    def quanta(self) -> List[Quantum]:
        """The closed quanta as :class:`Quantum` objects (built on each
        access; the measures below read the columns directly)."""
        return [Quantum(*row) for row in zip(*self._columns())]

    # -- §5 measures ------------------------------------------------------------

    def window_activity_per_thread(self) -> Dict[int, float]:
        """Mean windows used per quantum, per thread."""
        tids, __, __, lows, highs = self._columns()
        sums: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for tid, low, high in zip(tids, lows, highs):
            sums[tid] = sums.get(tid, 0) + high - low + 1
            counts[tid] = counts.get(tid, 0) + 1
        return {tid: sums[tid] / counts[tid] for tid in sums}

    def mean_window_activity(self) -> float:
        __, __, __, lows, highs = self._columns()
        if not lows:
            return 0.0
        return (sum(highs) - sum(lows) + len(lows)) / len(lows)

    def concurrency(self, period: int = 64) -> List[int]:
        """Distinct threads scheduled in each window of ``period``
        consecutive quanta."""
        tids = self._columns()[0]
        return [len(set(tids[i:i + period]))
                for i in range(0, len(tids), period)]

    def total_window_activity(self, period: int = 64) -> List[int]:
        """Windows used per period by all threads together: the union
        of (thread, depth-slot) pairs touched (a repeatedly used window
        counts once) — the measure the sharing schemes' saturation
        point is proportional to (§6.3)."""
        tids, __, __, lows, highs = self._columns()
        out = []
        for i in range(0, len(tids), period):
            slots = set()
            for tid, low, high in zip(tids[i:i + period],
                                      lows[i:i + period],
                                      highs[i:i + period]):
                for d in range(low, high + 1):
                    slots.add((tid, d))
            out.append(len(slots))
        return out

    def mean_total_window_activity(self, period: int = 64) -> float:
        values = self.total_window_activity(period)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def mean_concurrency(self, period: int = 64) -> float:
        values = self.concurrency(period)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def granularity(self) -> float:
        """Mean run length (cycles) between context switches."""
        __, starts, ends, __, __ = self._columns()
        if not starts:
            return 0.0
        return (sum(ends) - sum(starts)) / len(starts)
