"""Differential equivalence harness: batched loop vs the reference loop.

The run-until-event batched loop must be *bit-identical* to the
step-granular reference loop (labelled "generator", reachable through
``tests.support.trampoline``): same step counts, same counters
(including the switch/trap cycle sums and transfer histograms), same
per-thread statistics, same switch and trap sequences, same thread
results — across every scheme and window-file size.  This suite drives
both loops over the same workloads and compares full run snapshots:

* deterministic synthetic apps (stream pipeline, spawn/join tree,
  line-oriented protocol) over NS/SNP/SP x {8, 32} windows;
* hypothesis-generated random programs (random thread counts, stream
  topologies, call depths, chunk sizes) — deadlocks count as agreement
  when both cores report the identical deadlock;
* the same workloads with a TraceRecorder attached: identical event
  lists, kinds, cycle stamps and attributes;
* every fault kind of :data:`repro.faults.plan.FAULT_KINDS`: the same
  firings, the same error and the same run snapshot;
* golden pins for the spellchecker and a synthetic app, so a
  regression that changes *both* cores in lockstep still trips.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Call,
    CloseStream,
    Join,
    Read,
    ReadLine,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from tests.support.scheme_spy import SchemeSpy, records_from_events
from tests.support.trampoline import force_trampoline, make_kernel

SCHEMES = ("NS", "SNP", "SP")
WINDOW_SIZES = (8, 32)
#: both execution loops, reference first; the ids are the names these
#: parameters have always carried, so test names stay put
CORES = ("generator", "batched")
CORE_IDS = ("generator-pure", "batched-pure")

COUNTER_FIELDS = (
    "saves", "restores", "overflow_traps", "underflow_traps",
    "windows_spilled", "windows_restored", "context_switches",
    "compute_cycles", "call_cycles", "trap_cycles", "switch_cycles",
)


def snapshot(kernel, result, error, spy):
    """Everything observable about a finished (or crashed) run."""
    c = kernel.counters
    snap = {
        "error": (type(error).__name__, str(error)) if error else None,
        "steps": kernel._steps,
        "counters": {f: getattr(c, f) for f in COUNTER_FIELDS},
        "transfer_hist": dict(c.switch_transfer_hist),
        "switch_trace": spy.of_kind("switch"),
        "trap_trace": spy.of_kind("overflow", "underflow"),
        "per_thread": [
            (t.name, t.state, t.calls, t.returns, t.blocks,
             t.windows.stat_saves, t.windows.stat_restores,
             t.windows.stat_switches, t.result)
            for t in kernel.threads
        ],
    }
    if result is not None:
        snap["result_steps"] = result.steps
        snap["slackness"] = list(result.slackness_samples)
    return snap


def run_core(core, build, scheme, n_windows, traced=False,
             max_steps=None, **kw):
    """Build a workload on a fresh kernel and run it to the end, with
    every switch and trap recorded by a :class:`SchemeSpy`
    (``traced``: with a TraceRecorder too, whose events join the
    snapshot and must carry the spy's records)."""
    kernel = make_kernel(core=core, n_windows=n_windows, scheme=scheme,
                         **kw)
    spy = SchemeSpy(kernel.scheme)
    recorder = kernel.enable_tracing() if traced else None
    build(kernel)
    result = error = None
    try:
        result = kernel.run(max_steps=max_steps)
    except Exception as exc:
        # Deadlocks and runtime faults (e.g. a random program writing
        # to a stream a peer closed) are legal outcomes — both cores
        # must fail at the same point with the same enriched message.
        error = exc
    snap = snapshot(kernel, result, error, spy)
    if recorder is not None:
        snap["events"] = trace_of(recorder)
        assert records_from_events(recorder) == spy.records
    return snap


def trace_of(recorder):
    return [(e.kind, e.cycle, e.tid, e.attrs) for e in recorder]


def assert_equivalent(build, scheme, n_windows, **kw):
    gen = run_core("generator", build, scheme, n_windows, **kw)
    bat = run_core("batched", build, scheme, n_windows, **kw)
    assert gen == bat, _diff(gen, bat)
    return bat


def _diff(gen, bat):
    lines = ["loops diverged:"]
    for key in gen:
        if gen[key] != bat[key]:
            lines.append("  %s:" % key)
            lines.append("    reference: %r" % (gen[key],))
            lines.append("    batched:   %r" % (bat[key],))
    return "\n".join(lines)


# -- deterministic synthetic workloads -----------------------------------


def depth_calls(depth):
    if depth <= 0:
        yield Tick(1)
        return 0
    below = yield Call(depth_calls, depth - 1)
    yield Tick(1)
    return below + 1


def build_pipeline(kernel):
    """producer -> filter -> consumer over two bounded streams, with
    call-depth excursions deep enough to trap on an 8-window file."""
    raw = kernel.stream(16, "raw")
    cooked = kernel.stream(8, "cooked")

    def producer():
        rng = random.Random(1234)
        for i in range(40):
            chunk = bytes(rng.randrange(256) for __ in range(
                rng.randrange(1, 24)))
            yield Write(raw, chunk)
            if i % 7 == 0:
                yield Call(depth_calls, 6)
        yield CloseStream(raw)
        return "produced"

    def filt():
        total = 0
        while True:
            data = yield Read(raw, 13)
            if not data:
                break
            total += len(data)
            yield Write(cooked, bytes(b ^ 0x5A for b in data))
            yield Tick(2)
        yield CloseStream(cooked)
        return total

    def consumer():
        seen = bytearray()
        while True:
            data = yield Read(cooked, 5)
            if not data:
                break
            seen.extend(data)
            yield Call(depth_calls, 4)
        return bytes(seen)

    kernel.spawn(producer, name="producer")
    kernel.spawn(filt, name="filter")
    kernel.spawn(consumer, name="consumer")


def build_spawn_tree(kernel):
    """A root that spawns workers mid-run and joins them in order."""

    def worker(tag, rounds):
        acc = 0
        for i in range(rounds):
            acc += yield Call(depth_calls, 3 + (i % 3))
            yield YieldCPU()
        return (tag, acc)

    def root():
        kids = []
        for i in range(4):
            kid = yield Spawn(worker, i, 3 + i, name="kid-%d" % i)
            kids.append(kid)
            yield Tick(1)
        results = []
        for kid in kids:
            results.append((yield Join(kid)))
        return results

    kernel.spawn(root, name="root")


def build_line_protocol(kernel):
    """readline-driven request/response with a close mid-stream."""
    req = kernel.stream(12, "req")
    rsp = kernel.stream(12, "rsp")

    def client():
        for i in range(9):
            yield Write(req, b"req-%d\n" % i)
            line = yield ReadLine(rsp)
            assert line == b"ok-%d\n" % i
        yield CloseStream(req)
        tail = yield ReadLine(rsp)
        return tail

    def server():
        n = 0
        while True:
            line = yield ReadLine(req)
            if not line:
                break
            yield Call(depth_calls, 5)
            yield Write(rsp, b"ok-%d\n" % n)
            n += 1
        yield Write(rsp, b"bye\n")
        yield CloseStream(rsp)
        return n

    kernel.spawn(client, name="client")
    kernel.spawn(server, name="server")


WORKLOADS = {
    "pipeline": build_pipeline,
    "spawn_tree": build_spawn_tree,
    "line_protocol": build_line_protocol,
}


@pytest.mark.parametrize("n_windows", WINDOW_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_synthetic_workloads_bit_identical(workload, scheme, n_windows):
    assert_equivalent(WORKLOADS[workload], scheme, n_windows)


@pytest.mark.parametrize("n_windows", WINDOW_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_synthetic_workloads_traces_identical(workload, scheme, n_windows):
    snap = assert_equivalent(WORKLOADS[workload], scheme, n_windows,
                             traced=True)
    kinds = {event[0] for event in snap["events"]}
    assert {"dispatch", "switch", "save", "restore", "retire",
            "run_end"} <= kinds


@pytest.mark.parametrize("scheme", SCHEMES)
def test_register_verification_on(scheme):
    """verify_registers exercises the save/restore data paths too."""
    assert_equivalent(build_pipeline, scheme, 8, verify_registers=True)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_event_bus_traces_identical(scheme):
    """A subscriber attached before the run: the recorded event
    streams of the two loops match exactly."""

    def run_traced(core):
        kernel = make_kernel(core=core, n_windows=8, scheme=scheme)
        recorder = kernel.enable_tracing()
        build_pipeline(kernel)
        kernel.run()
        return [(e.kind, e.cycle, e.tid, e.attrs) for e in recorder]

    assert run_traced("generator") == run_traced("batched")


def test_subscriber_attached_mid_run_traces_identically():
    """An observer that subscribes a TraceRecorder from
    ``on_quantum_start``: the quantum it starts is traced in full on
    both loops, with exact cycle stamps (the batched loop's lazy cycle
    accumulators must be folded before the first event)."""

    def leaf():
        yield Tick(1)
        return 0

    class LateTracer:
        def __init__(self, kernel):
            self.kernel = kernel
            self.starts = 0
            self.recorder = None

        def on_quantum_start(self, *args):
            self.starts += 1
            if self.starts == 3:
                self.recorder = self.kernel.enable_tracing()

        def on_quantum_end(self, *args):
            pass

        def on_run_end(self, kernel, cycle):
            pass

    def run(core):
        kernel = make_kernel(core=core, n_windows=6, scheme="SP")
        tracer = kernel.observe(LateTracer(kernel))
        stream = kernel.stream(2, "s")

        def producer():
            for __ in range(6):
                yield Call(leaf)
                yield Tick(7)
                yield Write(stream, b"xy")
            yield CloseStream(stream)

        def consumer():
            while (yield Read(stream, 1)):
                yield Tick(3)

        kernel.spawn(producer, name="producer")
        kernel.spawn(consumer, name="consumer")
        kernel.run()
        return trace_of(tracer.recorder)

    reference = run("generator")
    assert len(reference) == 60
    assert run("batched") == reference


def test_subscriber_attached_by_a_thread_exact_from_next_switch():
    """A thread that subscribes mid-quantum: the batched loop reads the
    bus once per quantum, so the rest of that quantum is traced only
    where the scheme publishes; from the next context switch on, the
    trace (stamps included) equals the reference loop's."""

    def leaf():
        yield Tick(1)
        return 0

    def run(core):
        kernel = make_kernel(core=core, n_windows=6, scheme="SP")
        stream = kernel.stream(2, "s")
        box = {}

        def producer():
            for i in range(6):
                if i == 2:
                    box["recorder"] = kernel.enable_tracing()
                yield Call(leaf)
                yield Tick(7)
                yield Write(stream, b"xy")
            yield CloseStream(stream)

        def consumer():
            while (yield Read(stream, 1)):
                yield Tick(3)

        kernel.spawn(producer, name="producer")
        kernel.spawn(consumer, name="consumer")
        kernel.run()
        events = trace_of(box["recorder"])
        first = [e[0] for e in events].index("switch")
        return events[first:]

    reference = run("generator")
    assert len(reference) > 20
    assert run("batched") == reference


# -- fault injection -----------------------------------------------------


#: one plan per fault kind that fires on the pipeline at 8 windows
FAULT_SPECS = {
    "register": "register@3:0",
    "retval": "retval@5",
    "wim": "wim@4",
    "cwp": "cwp@4",
    "trap_drop": "trap_drop@2",
    "trap_dup": "trap_dup@2",
    "store_corrupt": "store_corrupt@1",
    "store_fail": "store_fail@1",
    "store_delay": "store_delay@1",
    "sched": "sched@3",
}


def test_fault_specs_cover_every_kind():
    from repro.faults.plan import FAULT_KINDS

    assert sorted(FAULT_SPECS) == sorted(FAULT_KINDS)


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("kind", sorted(FAULT_SPECS))
def test_fault_kinds_identical(kind, traced):
    from repro.faults import FaultInjector, FaultPlan

    runs = {}
    for core in CORES:
        injector = FaultInjector(FaultPlan.parse(FAULT_SPECS[kind], seed=5))
        snap = run_core(core, build_pipeline, "SP", 8, traced=traced,
                        faults=injector, verify_registers=True)
        snap["fired"] = injector.fired
        runs[core] = snap
    assert runs["generator"]["fired"], "fault %s never fired" % kind
    assert runs["generator"] == runs["batched"], \
        _diff(runs["generator"], runs["batched"])


# -- hypothesis-driven random programs -----------------------------------


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(1, 4)),
        st.tuples(st.just("call"), st.integers(1, 9)),
        st.tuples(st.just("write"), st.integers(0, 2), st.integers(1, 20)),
        st.tuples(st.just("read"), st.integers(0, 2), st.integers(1, 20)),
        st.tuples(st.just("readline"), st.integers(0, 2)),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("yield")),
    ),
    min_size=1, max_size=12,
)

PROGRAMS = st.lists(ACTIONS, min_size=1, max_size=4)


def build_random(threads_spec, close_all):
    """A builder closure for one drawn program."""

    def build(kernel):
        streams = [kernel.stream(cap, "s%d" % i)
                   for i, cap in enumerate((6, 16, 3))]

        def run_actions(actions, tag):
            def body():
                out = []
                for step, action in enumerate(actions):
                    kind = action[0]
                    if kind == "tick":
                        yield Tick(action[1])
                    elif kind == "call":
                        out.append((yield Call(depth_calls, action[1])))
                    elif kind == "write":
                        payload = (b"%d:%d;" % (tag, step)) * (
                            1 + action[2] // 8)
                        yield Write(streams[action[1]], payload)
                    elif kind == "read":
                        out.append((yield Read(streams[action[1]],
                                               action[2])))
                    elif kind == "readline":
                        out.append((yield ReadLine(streams[action[1]])))
                    elif kind == "close":
                        yield CloseStream(streams[action[1]])
                    elif kind == "yield":
                        yield YieldCPU()
                if close_all:
                    for stream in streams:
                        if not stream.closed:
                            yield CloseStream(stream)
                return out

            return body

        for i, actions in enumerate(threads_spec):
            kernel.spawn(run_actions(actions, i), name="t%d" % i)

    return build


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(threads_spec=PROGRAMS, scheme=st.sampled_from(SCHEMES),
       n_windows=st.sampled_from(WINDOW_SIZES),
       close_all=st.booleans())
def test_random_programs_bit_identical(threads_spec, scheme, n_windows,
                                       close_all):
    assert_equivalent(build_random(threads_spec, close_all),
                      scheme, n_windows)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(threads_spec=PROGRAMS, scheme=st.sampled_from(SCHEMES),
       n_windows=st.sampled_from(WINDOW_SIZES),
       close_all=st.booleans())
def test_random_programs_traces_identical(threads_spec, scheme, n_windows,
                                          close_all):
    assert_equivalent(build_random(threads_spec, close_all),
                      scheme, n_windows, traced=True)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(threads_spec=PROGRAMS, scheme=st.sampled_from(SCHEMES),
       max_stall=st.integers(1, 6), max_steps=st.integers(1, 150))
def test_random_programs_under_watchdog_and_budget(threads_spec, scheme,
                                                   max_stall, max_steps):
    """Small stall limits and budgets land on every kind of step:
    both loops must stop at the same step with the same error."""
    assert_equivalent(build_random(threads_spec, True), scheme, 8,
                      watchdog=max_stall, max_steps=max_steps)


# -- golden pins ---------------------------------------------------------
#
# These freeze absolute numbers, not just cross-core agreement: a
# change that alters the simulation semantics of *both* cores in
# lockstep (so the differential comparison stays green) still fails
# here.  Regenerate deliberately if the cost model or workloads change.


GOLDEN_PIPELINE = {
    # scheme -> (steps, context_switches, saves, restores, total_cycles)
    "NS": (2232, 149, 607, 607, 24268),
    "SNP": (2232, 149, 607, 607, 31328),
    "SP": (2232, 149, 607, 607, 30196),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("core", CORES, ids=CORE_IDS)
def test_golden_pipeline_pins(scheme, core):
    snap = run_core(core, build_pipeline, scheme, 8)
    counters = snap["counters"]
    total = (counters["compute_cycles"] + counters["call_cycles"]
             + counters["trap_cycles"] + counters["switch_cycles"])
    observed = (snap["steps"], counters["context_switches"],
                counters["saves"], counters["restores"], total)
    assert observed == GOLDEN_PIPELINE[scheme]


GOLDEN_SPELLCHECK = {
    # scheme -> (steps, context_switches)
    "NS": (15644, 1631),
    "SNP": (15644, 1631),
    "SP": (15644, 1631),
}


def run_spell(scheme, n_windows, config, core):
    """``run_spellchecker`` on one execution loop.

    The reference loop rides the ``instrument`` hook: the pipeline
    builds an ordinary kernel and the hook pins it to the step-granular
    loop before any thread spawns.
    """
    from repro.apps.spellcheck.pipeline import run_spellchecker

    instrument = force_trampoline if core == "generator" else None
    return run_spellchecker(n_windows, scheme, config,
                            instrument=instrument)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("core", CORES, ids=CORE_IDS)
def test_golden_spellcheck_pins(scheme, core):
    from repro.apps.spellcheck.pipeline import SpellConfig

    config = SpellConfig.named("low", "medium", scale=0.05)
    result, output = run_spell(scheme, 8, config, core)
    assert (result.steps,
            result.counters.context_switches) == GOLDEN_SPELLCHECK[scheme]
    assert output  # the pipeline actually produced corrections


@pytest.mark.parametrize("n_windows", WINDOW_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_spellcheck_bit_identical(scheme, n_windows):
    from repro.apps.spellcheck.pipeline import SpellConfig

    config = SpellConfig.named("high", "medium", scale=0.05)
    runs = {}
    for core in CORES:
        result, output = run_spell(scheme, n_windows, config, core)
        c = result.counters
        runs[core] = (
            result.steps, output,
            {f: getattr(c, f) for f in COUNTER_FIELDS},
            dict(c.switch_transfer_hist),
            sorted((t.name, t.windows.stat_saves, t.windows.stat_restores,
                    t.windows.stat_switches) for t in result.threads),
        )
    assert runs["batched"] == runs["generator"]
