"""The structured trace-event bus: one stream of timestamped events for
everything the kernel, CPU, schemes, ready queue and streams do.

Every observable action of a run — a ``save``/``restore`` instruction, a
window trap, a context switch, a dispatch, a block/wake, a spawn/retire —
is published as one :class:`TraceEvent` stamped with the simulated cycle
clock.  Consumers subscribe to the bus instead of being hand-wired into
the kernel; the stock ones are:

* :class:`TraceRecorder` (here) — keeps the raw event list and computes
  per-thread cycle attribution and switch-cost percentiles;
* :class:`repro.metrics.perfetto.PerfettoExporter` — Chrome trace-event
  JSON for ``chrome://tracing`` / Perfetto;
* :class:`RingRecorder` (here) — the crash-bundle flight recorder.

The RunReport views — :class:`repro.metrics.behavior.BehaviorTracker`,
:class:`repro.metrics.tracing.OccupancyTimeline` and
:class:`repro.metrics.quanta.QuantumLog` — are not bus subscribers: they
read the columnar quantum record the execution loop fills inline
(:mod:`repro.metrics.quanta`), with no callback per event or quantum.
Neither kind of consumer changes which code path runs: the kernel has
one execution loop, and emitting is a hook on it.

The bus is **disabled by default**: publishers guard every emit with a
single ``if bus.active`` check, so an uninstrumented run pays one no-op
branch per event site and allocates nothing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

#: every event kind the runtime publishes, in rough lifecycle order
EVENT_KINDS = (
    "spawn",        # thread created                 (tid, name)
    "enqueue",      # thread entered the ready queue (tid, reason, position)
    "switch",       # scheme context switch          (tid=in, out_tid, saves,
                    #                                 restores, cycles)
    "dispatch",     # thread starts a quantum        (tid, depth)
    "save",         # save instruction retired       (tid, window, depth)
    "restore",      # restore instruction retired    (tid, window, depth,
                    #                                 inplace)
    "overflow",     # window overflow trap           (tid, spilled, cycles)
    "underflow",    # window underflow trap          (tid, restored, cycles,
                    #                                 inplace)
    "block",        # thread blocked                 (tid, on, op)
    "wake",         # thread woken                   (tid, on, op)
    "yield",        # thread yielded the CPU         (tid)
    "retire",       # thread finished                (tid, name)
    "stream_close", # stream closed                  (stream, written, read)
    "fault",        # injected fault fired           (tid, kind, at, site)
    "run_end",      # simulation finished            ()
)


@dataclass
class TraceEvent:
    """One structured event, stamped with the simulated cycle clock."""

    kind: str
    cycle: int
    tid: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        out = {"kind": self.kind, "cycle": self.cycle}
        if self.tid is not None:
            out["tid"] = self.tid
        out.update(self.attrs)
        return out

    def __str__(self) -> str:
        attrs = " ".join("%s=%s" % (k, v) for k, v in self.attrs.items())
        tid = "-" if self.tid is None else str(self.tid)
        return "%10d  tid=%-3s %-12s %s" % (self.cycle, tid, self.kind,
                                            attrs)


class EventBus:
    """Publish/subscribe fan-out for :class:`TraceEvent`.

    ``active`` is maintained as a plain attribute so the hot path in the
    kernel and CPU is a single attribute check when nobody listens.
    Publishers that emit on every simulated step go one cheaper: they
    register an *activity watcher* (:meth:`watch_activity`) and mirror
    ``active`` into a ``_tracing`` boolean of their own, turning the
    per-emit-site guard into one load on ``self`` with no cross-object
    hop.  ``clock`` supplies the simulated cycle stamp (the kernel binds
    it to ``counters.total_cycles``).
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._subscribers: List[tuple] = []
        self._watchers: List[Callable[[bool], None]] = []
        self.active = False
        self.clock = clock if clock is not None else (lambda: 0)

    def watch_activity(self, watcher: Callable[[bool], None]):
        """Register ``watcher(active)``; called immediately with the
        current state and again on every subscribe/unsubscribe edge.

        A bound method is held weakly: the publishers that mirror their
        own bus (kernel, CPU, scheme, ready queue) would otherwise form
        a reference cycle with it, and a finished run — its record and
        report views included — would wait for the cyclic garbage
        collector instead of being freed when its last reference goes.
        """
        try:
            ref = weakref.WeakMethod(watcher)
        except TypeError:  # a function or a builtin method: hold it
            def ref(watcher=watcher):
                return watcher
        self._watchers.append(ref)
        watcher(self.active)
        return watcher

    def _set_active(self, active: bool) -> None:
        if active == self.active:
            return
        self.active = active
        for ref in self._watchers:
            watcher = ref()
            if watcher is not None:
                watcher(active)

    def subscribe(self, consumer) -> Any:
        """Attach ``consumer`` (a callable, or an object with an
        ``on_event(event)`` method); returns it for later unsubscribe."""
        fn = getattr(consumer, "on_event", None)
        if fn is None:
            fn = consumer
        self._subscribers.append((consumer, fn))
        self._set_active(True)
        return consumer

    def unsubscribe(self, consumer) -> None:
        self._subscribers = [(c, f) for c, f in self._subscribers
                             if c is not consumer]
        self._set_active(bool(self._subscribers))

    def emit(self, kind: str, tid: Optional[int] = None,
             **attrs) -> TraceEvent:
        """Build an event stamped with the current clock and fan it out."""
        event = TraceEvent(kind, self.clock(), tid, attrs)
        for __, fn in self._subscribers:
            fn(event)
        return event


class RingRecorder:
    """Bus subscriber that keeps only the last ``capacity`` events.

    This is the kernel's crash-bundle flight recorder: cheap enough to
    leave on for whole runs, and what it holds at the moment of a crash
    is exactly the window of history worth dumping.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        from collections import deque

        self.capacity = capacity
        self._events = deque(maxlen=capacity)

    def on_event(self, event: TraceEvent) -> None:
        self._events.append(event)

    def tail(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = int(round(q / 100.0 * (len(ordered) - 1)))
    return float(ordered[rank])


def percentile_of_histogram(hist: Dict[int, int], q: float) -> float:
    """:func:`percentile` of the multiset ``{value: count}`` — the same
    nearest-rank pick, without expanding the histogram."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank = int(round(q / 100.0 * (total - 1)))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen > rank:
            return float(value)
    raise AssertionError("rank beyond the histogram")  # unreachable


class TraceRecorder:
    """Bus subscriber that keeps every event and derives run statistics."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- filtering ---------------------------------------------------------

    def filter(self, kinds: Optional[Iterable[str]] = None,
               tid: Optional[int] = None,
               start: Optional[int] = None,
               end: Optional[int] = None) -> List[TraceEvent]:
        """Events matching every given constraint."""
        kindset = set(kinds) if kinds is not None else None
        out = []
        for e in self.events:
            if kindset is not None and e.kind not in kindset:
                continue
            if tid is not None and e.tid != tid:
                continue
            if start is not None and e.cycle < start:
                continue
            if end is not None and e.cycle > end:
                continue
            out.append(e)
        return out

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    # -- derived statistics ------------------------------------------------

    def per_thread_cycles(self) -> Dict[int, int]:
        """Cycles attributed to each thread: the time between its
        ``dispatch`` and the moment it stops running (the next
        ``block``/``yield``/``retire``/``switch``-out or the run end)."""
        totals: Dict[int, int] = {}
        current: Optional[int] = None
        started = 0
        last_cycle = 0
        for e in self.events:
            last_cycle = e.cycle
            if e.kind == "dispatch":
                if current is not None:
                    totals[current] = (totals.get(current, 0)
                                       + e.cycle - started)
                current = e.tid
                started = e.cycle
            elif e.kind in ("block", "yield", "retire", "run_end"):
                if current is not None and (e.tid == current
                                            or e.kind == "run_end"):
                    totals[current] = (totals.get(current, 0)
                                       + e.cycle - started)
                    current = None
        if current is not None:
            totals[current] = totals.get(current, 0) + last_cycle - started
        return totals

    def switch_costs(self) -> List[int]:
        """Cycle cost of every recorded context switch."""
        return [e.attrs.get("cycles", 0) for e in self.events
                if e.kind == "switch"]

    def switch_cost_stats(self) -> Dict[str, float]:
        """Mean / p50 / p95 / p99 / max of the switch-cost distribution."""
        costs = self.switch_costs()
        if not costs:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": len(costs),
            "mean": sum(costs) / len(costs),
            "p50": percentile(costs, 50),
            "p95": percentile(costs, 95),
            "p99": percentile(costs, 99),
            "max": float(max(costs)),
        }

    def trap_timeline(self) -> List[TraceEvent]:
        """Every overflow/underflow trap, in cycle order."""
        return self.filter(kinds=("overflow", "underflow"))
