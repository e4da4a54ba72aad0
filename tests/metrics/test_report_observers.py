"""RunReports from the quantum record, and the live observer hook.

``run_report_point`` builds its ``behavior``, ``timeline`` and
``events`` sections from views over the columnar quantum record the
batched loop fills inline.  Two contracts pin that:

* **differential** — the report is byte-identical to the one the
  event-bus oracle (:mod:`tests.support.report_oracle`: a TraceRecorder
  plus bus-fed tracker and timeline, on the step-granular reference
  loop) produces for the same spec, including faulted, audited and
  watchdog-guarded specs;
* **production loop** — the kernel has one execution loop: the report
  record, live observers, bus subscribers, faults, the watchdog, step
  budgets, the audit and crash bundles all run on
  ``Kernel._run_batched``.
"""

from __future__ import annotations

import pytest

from repro import Call, CloseStream, Kernel, Read, Spawn, Tick, Write, YieldCPU
from repro.experiments.harness import run_report_point
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.behavior import BehaviorTracker
from repro.metrics.events import percentile, percentile_of_histogram
from repro.metrics.quanta import QuantumLog
from repro.metrics.report import to_json
from repro.metrics.tracing import OccupancyTimeline
from repro.runtime.batch import EXIT_BLOCKED, EXIT_DONE, EXIT_YIELDED
from tests.support.report_oracle import oracle_report_point
from tests.support.trampoline import force_trampoline

SCALE = 0.01

#: (concurrency, granularity, working_set)
WORKLOADS = (("high", "fine", False), ("low", "coarse", False),
             ("high", "fine", True))


@pytest.mark.parametrize("workload", WORKLOADS,
                         ids=lambda w: "%s-%s%s" % (w[0], w[1],
                                                    "-ws" if w[2] else ""))
@pytest.mark.parametrize("n_windows", (4, 8, 16))
@pytest.mark.parametrize("scheme", ("NS", "SNP", "SP"))
def test_report_matches_bus_oracle(scheme, n_windows, workload):
    concurrency, granularity, working_set = workload
    args = (scheme, n_windows, concurrency, granularity)
    kwargs = dict(scale=SCALE, working_set=working_set)
    assert to_json(run_report_point(*args, **kwargs)) == \
        to_json(oracle_report_point(*args, **kwargs))


@pytest.mark.parametrize("knobs", (
    {"faults": "store_delay@3,sched@5"},
    {"audit": True},
    {"watchdog": 5000},
), ids=("faulted", "audit", "watchdog"))
def test_step_granular_reports_match_bus_oracle(knobs):
    args = ("SNP", 6, "high", "fine")
    report = run_report_point(*args, scale=SCALE, **knobs)
    assert report["events"]["total"] > 0
    if "faults" in knobs:
        assert report["events"]["by_kind"]["fault"] >= 1
    assert to_json(report) == \
        to_json(oracle_report_point(*args, scale=SCALE, **knobs))


# -- production loop ---------------------------------------------------------


@pytest.fixture
def loop_entries(monkeypatch):
    """Record every entry into the kernel's execution loop."""
    entries = []
    loop = Kernel._run_batched

    def counted(kernel, max_steps=None):
        entries.append(kernel)
        return loop(kernel, max_steps)

    monkeypatch.setattr(Kernel, "_run_batched", counted)
    return entries


def _producer(stream, items):
    for i in range(items):
        yield Call(_leaf, i)
        yield Write(stream, b"x")
    yield CloseStream(stream)
    return items


def _leaf(i):
    yield Tick(2)
    return i


def _consumer(stream):
    total = 0
    while True:
        data = yield Read(stream, 3)
        if not data:
            return total
        total += len(data)
        yield YieldCPU()


def _pipeline(kernel, items=30):
    stream = kernel.stream(2, "pipe")
    kernel.spawn(_producer, stream, items, name="p")
    kernel.spawn(_consumer, stream, name="c")
    return kernel


def test_vanilla_report_point_runs_batched(loop_entries):
    report = run_report_point("SP", 8, "high", "fine", scale=SCALE)
    assert report["behavior"] and report["timeline"] and report["events"]
    assert len(loop_entries) == 1


def test_tracker_and_timeline_run_batched(loop_entries):
    kernel = Kernel(n_windows=8, scheme="SNP")
    kernel.tracker = BehaviorTracker()
    kernel.timeline = OccupancyTimeline()
    _pipeline(kernel).run()
    assert kernel.tracker.quanta and kernel.timeline.samples
    assert loop_entries == [kernel]


#: the configurations that, before the loop had hooks, selected a
#: second, step-granular loop
LOOP_CONFIGS = {
    "plain": {},
    "traced": {},
    "faulted": {"faults": "store_delay@1,sched@2"},
    "watchdog": {"watchdog": 500},
    "budgeted": {"max_steps": 10**6},
    "audited": {"audit": True},
    "crash_dir": {"crash_dir": True},
}


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
def test_every_configuration_runs_the_one_loop(config, loop_entries,
                                               tmp_path):
    knobs = dict(LOOP_CONFIGS[config])
    max_steps = knobs.pop("max_steps", None)
    if "faults" in knobs:
        knobs["faults"] = FaultInjector(FaultPlan.parse(knobs["faults"]))
    if "crash_dir" in knobs:
        knobs["crash_dir"] = tmp_path
    kernel = Kernel(n_windows=4, scheme="SNP", **knobs)
    recorder = kernel.enable_tracing() if config == "traced" else None
    result = _pipeline(kernel).run(max_steps=max_steps)
    assert result.thread_results() == {"p": 30, "c": 30}
    assert loop_entries == [kernel]
    assert not hasattr(Kernel, "_run_quantum")
    if recorder is not None:
        kinds = {e.kind for e in recorder}
        assert {"dispatch", "save", "restore", "yield", "retire"} <= kinds


# -- the hook itself -------------------------------------------------------------


class Recorder:
    """Observer keeping every callback verbatim."""

    def __init__(self):
        self.calls = []

    def on_quantum_start(self, *args):
        self.calls.append(("start",) + args)

    def on_quantum_end(self, *args):
        self.calls.append(("end",) + args)

    def on_run_end(self, kernel, cycle):
        self.calls.append(("run_end", cycle))


def _hook_calls(step_loop, scheme="SP", n_windows=6):
    kernel = Kernel(n_windows=n_windows, scheme=scheme)
    if step_loop:
        force_trampoline(kernel)
    recorder = kernel.observe(Recorder())
    result = _pipeline(kernel).run()
    return recorder.calls, result


@pytest.mark.parametrize("scheme", ("NS", "SNP", "SP"))
def test_hook_identical_on_both_loops(scheme):
    batched, result = _hook_calls(False, scheme)
    reference, __ = _hook_calls(True, scheme)
    assert batched == reference
    starts = [c for c in batched if c[0] == "start"]
    assert len(starts) == result.counters.context_switches
    assert sum(c[4] for c in starts) == result.counters.switch_cycles
    assert batched[-1] == ("run_end", result.counters.total_cycles)
    codes = {c[2] for c in batched if c[0] == "end"}
    assert codes == {EXIT_BLOCKED, EXIT_YIELDED, EXIT_DONE}
    for call in batched:
        if call[0] == "end":
            assert call[4] <= call[5]


def test_observer_attached_mid_run_sees_later_quanta():
    """Attaching from inside a thread takes effect at the next
    dispatch on either loop."""

    def runs(step_loop):
        kernel = Kernel(n_windows=8, scheme="SP")
        if step_loop:
            force_trampoline(kernel)
        tracker = BehaviorTracker()

        def attacher():
            yield Tick(5)
            kernel.tracker = tracker
            yield YieldCPU()
            yield Call(_leaf, 1)
            return None

        kernel.spawn(attacher, name="a")
        kernel.spawn(_leaf, 0, name="b")
        kernel.run()
        return [(q.tid, q.start_cycle, q.end_cycle, q.min_depth,
                 q.max_depth) for q in tracker.quanta]

    quanta = runs(False)
    assert quanta and quanta == runs(True)


def test_spawned_threads_are_tallied():
    def parent():
        child = yield Spawn(_leaf, 3, name="child")
        return child.name

    kernel = Kernel(n_windows=8, scheme="NS")
    log = kernel.attach_view(QuantumLog())
    kernel.spawn(parent, name="parent")
    kernel.run()
    assert log.by_kind()["spawn"] == 2
    assert log.by_kind()["retire"] == 2
    assert len(log) == sum(log.by_kind().values())


def test_unobserve_detaches():
    kernel = Kernel(n_windows=8, scheme="SP")
    recorder = kernel.observe(Recorder())
    assert kernel.observe(recorder) is recorder  # idempotent
    kernel.unobserve(recorder)
    _pipeline(kernel).run()
    assert recorder.calls == []


@pytest.mark.parametrize("values", (
    [7], [3, 1, 2], [5, 5, 5, 9], list(range(101)), [0, 0, 1, 40, 40, 40]))
@pytest.mark.parametrize("q", (0, 50, 95, 99, 100))
def test_histogram_percentile_matches_list_percentile(values, q):
    hist = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    assert percentile_of_histogram(hist, q) == percentile(values, q)
    assert percentile_of_histogram({}, q) == 0.0
