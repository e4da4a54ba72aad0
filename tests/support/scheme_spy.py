"""Test-only record of every context switch and window trap.

The schemes keep no per-event records: a switch or trap site writes the
:class:`~repro.metrics.counters.Counters` fields and, only while the
event bus has a subscriber, emits its event.  Differential tests that
compare switch and trap sequences without tracing wrap the scheme
instance's three entry points instead — the way the benchmark's span
tracer does — and read each call's effect off the counters, so the
untraced execution loop stays under test.

Each record is ``(kind, tid, out_tid, spilled, restored, cycles)``:

* ``kind`` — ``"switch"``, ``"overflow"`` or ``"underflow"``;
* ``tid`` — the dispatched thread (switch) or the trapping thread;
* ``out_tid`` — the suspended thread of a switch (``None`` when there
  is none, and for traps);
* ``spilled`` / ``restored`` — windows moved out / in by the call;
* ``cycles`` — the switch or trap cycles it charged.

:func:`records_from_events` builds the same tuples from a traced run's
``switch`` / ``overflow`` / ``underflow`` bus events.
"""

from __future__ import annotations

from typing import List, Tuple

Record = Tuple[str, int, object, int, int, int]


class SchemeSpy:
    """Wraps one scheme instance; ``records`` fills as the run goes.

    Install it before the run: the kernel loop binds the scheme's entry
    points when it starts, and instance attributes shadow the class
    methods from then on.
    """

    def __init__(self, scheme):
        self.records: List[Record] = []
        counters = scheme.counters
        records = self.records

        def spy(kind, fn, cycles_field):
            def spied(tw, *args, **kwargs):
                spilled = counters.windows_spilled
                restored = counters.windows_restored
                cycles = getattr(counters, cycles_field)
                result = fn(tw, *args, **kwargs)
                if kind == "switch":
                    out_tw, tw = tw, args[0]
                    out_tid = out_tw.tid if out_tw is not None else None
                else:
                    out_tid = None
                records.append((
                    kind, tw.tid, out_tid,
                    counters.windows_spilled - spilled,
                    counters.windows_restored - restored,
                    getattr(counters, cycles_field) - cycles))
                return result
            return spied

        scheme.context_switch = spy("switch", scheme.context_switch,
                                    "switch_cycles")
        scheme.handle_overflow = spy("overflow", scheme.handle_overflow,
                                     "trap_cycles")
        scheme.handle_underflow = spy("underflow", scheme.handle_underflow,
                                      "trap_cycles")

    def of_kind(self, *kinds: str) -> List[Record]:
        return [r for r in self.records if r[0] in kinds]


def records_from_events(events) -> List[Record]:
    """The :class:`SchemeSpy` records of a traced run, read from its
    ``switch`` / ``overflow`` / ``underflow`` events."""
    records: List[Record] = []
    for e in events:
        a = e.attrs
        if e.kind == "switch":
            records.append(("switch", e.tid, a["out_tid"], a["saves"],
                            a["restores"], a["cycles"]))
        elif e.kind == "overflow":
            records.append(("overflow", e.tid, None, a["spilled"], 0,
                            a["cycles"]))
        elif e.kind == "underflow":
            records.append(("underflow", e.tid, None, 0, a["restored"],
                            a["cycles"]))
    return records
