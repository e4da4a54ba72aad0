"""Test-only reference oracle for RunReports: the event-bus observers.

RunReports are built from views over the kernel's columnar quantum
record (:func:`repro.experiments.harness.attach_report_observers`).
Before that, every report came from three event-bus subscribers — a
:class:`~repro.metrics.events.TraceRecorder` for the ``events``
section, and the tracker and timeline consuming
``dispatch``/``save``/``restore``/``run_end`` events — which see every
single event.  This module keeps that path, run on the step-granular
reference loop (``tests/support/trampoline.py``), as the oracle the
differential report test compares the production path against.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import harness
from repro.metrics.behavior import BehaviorTracker
from repro.metrics.tracing import OccupancyTimeline
from tests.support.trampoline import force_trampoline


def attach_bus_observers(kernel) -> Dict[str, object]:
    """The pre-hook report observers, all subscribed to the bus, on
    the reference loop."""
    force_trampoline(kernel)
    tracker = BehaviorTracker()
    timeline = OccupancyTimeline()
    timeline.cpu = kernel.cpu
    kernel.events.subscribe(tracker)
    kernel.events.subscribe(timeline)
    return {"recorder": kernel.enable_tracing(), "tracker": tracker,
            "timeline": timeline}


def oracle_report_point(*args, **kwargs) -> Dict:
    """:func:`repro.experiments.harness.run_report_point` with the
    report built from the event bus instead of the quantum record."""
    hook = harness.attach_report_observers
    harness.attach_report_observers = attach_bus_observers
    try:
        return harness.run_report_point(*args, **kwargs)
    finally:
        harness.attach_report_observers = hook
