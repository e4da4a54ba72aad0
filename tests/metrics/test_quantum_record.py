"""The columnar quantum record and the report views over it.

The kernel's execution loop fills one :class:`QuantumRecord` inline at
its quantum boundaries; the tracker, the timeline and the event log
are views over it.  These tests pin the views to the bus-fed objects
they replace, on the same run, and the record itself to the
step-granular reference loop.
"""

from __future__ import annotations

import pytest

from repro import Call, Kernel, Tick, YieldCPU
from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.metrics import quanta
from repro.metrics.behavior import BehaviorTracker
from repro.metrics.tracing import OccupancyTimeline
from repro.runtime.batch import EXIT_DONE
from tests.support.trampoline import force_trampoline

SCALE = 0.01
CONFIG = SpellConfig.named("high", "fine", scale=SCALE, seed=1993)


def _spell(scheme="SNP", n_windows=6, instrument=None):
    kernels = []

    def hook(kernel):
        kernels.append(kernel)
        if instrument is not None:
            instrument(kernel)

    result, __ = run_spellchecker(n_windows, scheme, CONFIG,
                                  instrument=hook)
    return kernels[0], result


def _quanta(tracker):
    return [(q.tid, q.start_cycle, q.end_cycle, q.min_depth, q.max_depth)
            for q in tracker.quanta]


# -- (a) decimation -----------------------------------------------------------


@pytest.mark.parametrize("scheme", ("NS", "SNP", "SP"))
def test_decimated_view_matches_bus_fed_timeline(scheme):
    bus = OccupancyTimeline(max_samples=8)

    def instrument(kernel):
        kernel.timeline = OccupancyTimeline(max_samples=8)
        bus.cpu = kernel.cpu
        kernel.events.subscribe(bus)

    kernel, __ = _spell(scheme, instrument=instrument)
    view = kernel.timeline
    assert view.dropped > 0 and len(view.samples) <= 8
    assert view.samples == bus.samples
    assert view.dropped == bus.dropped
    assert view.churn() == bus.churn()
    assert view.occupancy_ratio() == bus.occupancy_ratio()
    assert view.render() == bus.render()


# -- (b) views equal the bus-fed objects --------------------------------------


def test_tracker_view_matches_bus_fed_tracker():
    bus = BehaviorTracker()

    def instrument(kernel):
        kernel.tracker = BehaviorTracker()
        kernel.events.subscribe(bus)

    kernel, result = _spell("SP", instrument=instrument)
    view = _quanta(kernel.tracker)
    assert view and view == _quanta(bus)
    # the run ends in a retire, and the run end closes that quantum
    record = kernel._record
    assert record.exit[-1] == EXIT_DONE
    assert view[-1][2] == result.counters.total_cycles
    assert kernel.tracker.n_quanta == len(view)
    assert kernel.tracker.granularity() == bus.granularity()
    assert (kernel.tracker.mean_total_window_activity()
            == bus.mean_total_window_activity())


def _leaf(i):
    yield Tick(2)
    return i


@pytest.mark.parametrize("step_loop", (False, True),
                         ids=("batched", "reference"))
def test_tracker_bound_mid_run_matches_bus_fed_tracker(step_loop):
    """A thread binds the first view (and subscribes the bus tracker)
    in the middle of its quantum: both start at the next dispatch."""
    kernel = Kernel(n_windows=6, scheme="SNP")
    if step_loop:
        force_trampoline(kernel)
    view, bus = BehaviorTracker(), BehaviorTracker()

    def attacher():
        yield Call(_leaf, 0)
        kernel.tracker = view
        kernel.events.subscribe(bus)
        for i in range(4):
            yield YieldCPU()
            yield Call(_leaf, i)
        return None

    def other(n):
        for i in range(n):
            yield Call(_leaf, i)
            yield YieldCPU()
        return None

    kernel.spawn(attacher, name="a")
    kernel.spawn(other, 5, name="b")
    kernel.run()
    quanta_view = _quanta(view)
    assert quanta_view and quanta_view == _quanta(bus)
    record = kernel._record
    assert len(record.end) == len(record.tid)  # every row closed


# -- (c) plain runs keep no record --------------------------------------------


def test_plain_run_allocates_no_record(monkeypatch):
    made = []
    init = quanta.QuantumRecord.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quanta.QuantumRecord, "__init__", counting)
    kernel, result = _spell()
    assert result.counters.context_switches > 0
    assert kernel._record is None and not kernel._observed
    assert made == []


# -- (d) both loops fill identical records ------------------------------------


def _record_of(scheme, step_loop):
    def instrument(kernel):
        if step_loop:
            force_trampoline(kernel)
        kernel.tracker = BehaviorTracker()
        kernel.timeline = OccupancyTimeline(max_samples=16)

    kernel, __ = _spell(scheme, instrument=instrument)
    record = kernel._record
    columns = {name: list(getattr(record, name))
               for name in ("tid", "start", "depth", "end", "exit", "low",
                            "high")}
    occupancy = record.occupancy
    return (columns, record.stop, occupancy.rows, occupancy.dropped,
            occupancy.stride)


@pytest.mark.parametrize("scheme", ("NS", "SNP", "SP"))
def test_reference_loop_fills_identical_record(scheme):
    batched = _record_of(scheme, step_loop=False)
    assert batched[0]["tid"] and batched[3] > 0
    assert batched == _record_of(scheme, step_loop=True)


# -- (e) a finished run is freed without the cycle collector --------------


def test_finished_run_and_record_freed_by_refcount():
    """The publishers' activity watchers are held weakly by the bus, so
    no reference cycle keeps a finished kernel (and its record) alive
    until a full garbage collection."""
    import gc
    import weakref

    gc.disable()
    try:
        kernel = Kernel(n_windows=6, scheme="SP")
        kernel.tracker = BehaviorTracker()
        kernel.spawn(_leaf, 1, name="a")
        kernel.spawn(_leaf, 2, name="b")
        kernel.run()
        assert kernel.tracker.n_quanta == 2
        gone = weakref.ref(kernel)
        del kernel
        assert gone() is None
    finally:
        gc.enable()
