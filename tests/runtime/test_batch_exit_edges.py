"""Batch-exit edge cases: both loops must agree at the boundaries.

The run-until-event loop leaves a batch only on block, yield,
completion, an expired step budget or a watchdog firing — and each of
those boundaries has an edge where an off-by-one would be invisible to
throughput tests but visible in the cycle ledger.  Every test here
runs the same workload on the batched loop and on the step-granular
reference loop (via ``tests.support.trampoline``) and asserts the full
counter state matches:

* a step budget expiring exactly on the step that takes a window
  overflow trap (is the trap's cycle cost folded or lost?);
* a stream blocking on the last possible step of a batch (a write
  that exactly fills the stream, then one byte more);
* spawn and join inside one batch;
* the livelock watchdog firing mid-batch;
* exhaustive sweeps: every step budget from 1 to the run's length,
  and every watchdog stall limit, on a small pipeline and a yield
  storm;
* single-thread livelocks that never leave their batch.
"""

import pytest

from repro import (
    Call,
    CloseStream,
    FlushHint,
    Join,
    Read,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.errors import ReproError
from repro.isa import Machine, MachineFault, assemble
from tests.support.scheme_spy import SchemeSpy
from tests.support.trampoline import make_kernel

CORES = ("generator", "batched")

COUNTER_FIELDS = (
    "saves", "restores", "overflow_traps", "underflow_traps",
    "windows_spilled", "windows_restored", "context_switches",
    "compute_cycles", "call_cycles", "trap_cycles", "switch_cycles",
)


def counter_state(kernel):
    c = kernel.counters
    return {f: getattr(c, f) for f in COUNTER_FIELDS}


def run_core(core, build, max_steps=None, watchdog=None,
             scheme="SP", n_windows=6):
    kernel = make_kernel(core=core, n_windows=n_windows, scheme=scheme,
                         watchdog=watchdog)
    kernel.spy = SchemeSpy(kernel.scheme)
    build(kernel)
    error = None
    try:
        kernel.run(max_steps=max_steps)
    except ReproError as exc:
        error = exc
    return kernel, error


def assert_cores_agree(build, **kw):
    results = {}
    for core in CORES:
        kernel, error = run_core(core, build, **kw)
        results[core] = {
            "error": (type(error).__name__, str(error)) if error else None,
            "steps": kernel._steps,
            "counters": counter_state(kernel),
            "switch_trace": kernel.spy.of_kind("switch"),
            "trap_trace": kernel.spy.of_kind("overflow", "underflow"),
        }
    assert results["generator"] == results["batched"]
    return results["generator"]


# -- budget expiring exactly on a trap step ------------------------------


def deep_call_workload(kernel):
    def descend(depth):
        if depth <= 0:
            yield Tick(1)
            return 0
        below = yield Call(descend, depth - 1)
        return below + 1

    def root():
        total = 0
        for __ in range(3):
            total += yield Call(descend, 10)
        return total

    kernel.spawn(root, name="deep")


def first_trap_step():
    """Smallest budget at which the run has taken an overflow trap."""
    for budget in range(1, 300):
        kernel, error = run_core("generator", deep_call_workload,
                                 max_steps=budget)
        if kernel.counters.overflow_traps:
            assert error is not None  # budget raised, trap already taken
            return budget
    raise AssertionError("no overflow trap within 300 steps")


def test_budget_expires_exactly_on_trap_step():
    edge = first_trap_step()
    # One step earlier: no trap yet.  At the edge: exactly one trap,
    # its spill and its cycles already folded.  Both cores, both sides.
    before = assert_cores_agree(deep_call_workload, max_steps=edge - 1)
    assert before["counters"]["overflow_traps"] == 0
    at = assert_cores_agree(deep_call_workload, max_steps=edge)
    assert at["counters"]["overflow_traps"] == 1
    assert at["counters"]["trap_cycles"] > 0
    assert at["error"][0] == "RuntimeFault"
    assert "step budget" in at["error"][1]


def test_budget_unlimited_run_agrees():
    full = assert_cores_agree(deep_call_workload)
    assert full["error"] is None
    assert full["counters"]["overflow_traps"] > 0


# -- stream blocks on the last step of a batch ---------------------------


def edge_block_workload(kernel):
    pipe = kernel.stream(8, "pipe")

    def writer():
        yield Write(pipe, b"x" * 8)   # fills the stream exactly: no block
        yield Write(pipe, b"y")       # blocks with nothing left to do
        yield CloseStream(pipe)
        return "wrote"

    def reader():
        got = bytearray()
        while True:
            data = yield Read(pipe, 3)
            if not data:
                break
            got.extend(data)
            yield Tick(1)
        return bytes(got)

    kernel.spawn(writer, name="writer")
    kernel.spawn(reader, name="reader")


def test_stream_block_on_batch_edge():
    snap = assert_cores_agree(edge_block_workload)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, edge_block_workload)
        writer = kernel.threads[0]
        assert writer.result == "wrote"
        assert writer.blocks == 1, (
            "%s core: the exact-fill write must not block, the "
            "one-byte follow-up must" % core)
        reader = kernel.threads[1]
        assert reader.result == b"x" * 8 + b"y"


def test_read_block_as_first_op_of_thread():
    """The degenerate batch: blocking on the very first step."""

    def build(kernel):
        pipe = kernel.stream(4, "pipe")

        def reader():
            return (yield Read(pipe, 4))

        def writer():
            yield Tick(3)
            yield Write(pipe, b"late")
            yield CloseStream(pipe)
            return None

        kernel.spawn(reader, name="reader")
        kernel.spawn(writer, name="writer")

    snap = assert_cores_agree(build)
    assert snap["error"] is None


def test_empty_write_completes_without_waking():
    """``Write(s, b"")`` completes at once, even into a full stream,
    and moves no data, so a blocked reader stays blocked."""

    def build(kernel):
        pipe = kernel.stream(2, "pipe")

        def reader():
            return (yield Read(pipe, 2))

        def writer():
            yield Write(pipe, b"")
            yield Tick(4)
            yield Write(pipe, b"ab")
            yield Write(pipe, b"")
            yield CloseStream(pipe)
            return "done"

        kernel.spawn(reader, name="reader")
        kernel.spawn(writer, name="writer")

    snap = assert_cores_agree(build)
    assert snap["error"] is None


# -- spawn/join inside a batch -------------------------------------------


def spawn_join_workload(kernel):
    def kid(n):
        yield Tick(n)
        return n * 2

    def root():
        a = yield Spawn(kid, 3, name="a")
        b = yield Spawn(kid, 5, name="b")
        yield Tick(1)
        first = yield Join(a)
        second = yield Join(b)
        return first + second

    kernel.spawn(root, name="root")


def test_spawn_join_inside_batch():
    snap = assert_cores_agree(spawn_join_workload)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, spawn_join_workload)
        assert kernel.threads[0].result == 16


def test_join_already_done_never_blocks():
    """Joining a thread that finished earlier in the same batch."""

    def build(kernel):
        def kid():
            yield Tick(1)
            return "done"

        def root():
            child = yield Spawn(kid, name="kid")
            for __ in range(6):
                yield YieldCPU()   # let the kid run to completion
            value = yield Join(child)
            return value

        kernel.spawn(root, name="root")

    snap = assert_cores_agree(build)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, build)
        assert kernel.threads[0].result == "done"
        assert kernel.threads[0].blocks == 0, (
            "%s core: a join on a finished thread must not block" % core)


# -- watchdog firing mid-batch -------------------------------------------


def livelock_workload(kernel):
    def spinner():
        while True:
            yield YieldCPU()

    kernel.spawn(spinner, name="spin-a")
    kernel.spawn(spinner, name="spin-b")


def test_watchdog_fires_identically_mid_batch():
    snap = assert_cores_agree(livelock_workload, watchdog=40)
    assert snap["error"] is not None
    assert snap["error"][0] == "LivelockError"
    assert "no progress for" in snap["error"][1]


def test_watchdog_quiet_on_progressing_run():
    snap = assert_cores_agree(edge_block_workload, watchdog=10_000)
    assert snap["error"] is None


# -- exhaustive budget and watchdog sweeps -------------------------------


def sweep_pipeline(kernel):
    """Calls deep enough to trap on 6 windows, blocked reads and
    writes, spawn and join, and the ops that make no progress
    (FlushHint, CloseStream, a lone yield)."""
    pipe = kernel.stream(4, "pipe")

    def descend(depth):
        if depth <= 0:
            yield Tick(2)
            return 1
        below = yield Call(descend, depth - 1)
        return below + 1

    def producer():
        for i in range(4):
            yield Call(descend, 4)
            yield Write(pipe, b"abc")
            yield FlushHint(i % 2 == 0)
        yield CloseStream(pipe)
        yield CloseStream(pipe)
        return "produced"

    def consumer():
        got = 0
        while True:
            data = yield Read(pipe, 2)
            if not data:
                return got
            got += len(data)
            yield Tick(1)

    def root():
        yield YieldCPU()  # nobody else is ready yet: no switch
        kids = [(yield Spawn(producer, name="producer")),
                (yield Spawn(consumer, name="consumer"))]
        yield FlushHint(True)
        results = []
        for kid in kids:
            results.append((yield Join(kid)))
        return results

    kernel.spawn(root, name="root")


def run_state(core, build, **kw):
    """Everything a crash leaves behind: error, context, clocks,
    counters and per-thread statistics."""
    kernel, error = run_core(core, build, **kw)
    return {
        "error": (type(error).__name__, str(error)) if error else None,
        "context": dict(error.context) if error else None,
        "steps": kernel._steps,
        "progress": kernel._progress,
        "counters": kernel.counters.snapshot(),
        "threads": [(t.name, t.state, t.calls, t.returns, t.blocks,
                     t.windows.depth) for t in kernel.threads],
    }


def sweep_agrees(build, **kw):
    reference = run_state("generator", build, **kw)
    assert run_state("batched", build, **kw) == reference
    return reference


def test_budget_sweep_every_step():
    total = sweep_agrees(sweep_pipeline)["steps"]
    assert total > 50
    for budget in range(1, total + 2):
        state = sweep_agrees(sweep_pipeline, max_steps=budget)
        if budget <= total:
            assert state["error"][0] == "RuntimeFault", budget
            assert state["context"]["step"] == budget
        else:
            assert state["error"] is None


def test_watchdog_sweep_over_pipeline():
    fired = []
    for max_stall in range(1, 12):
        state = sweep_agrees(sweep_pipeline, watchdog=max_stall)
        if state["error"] is not None:
            assert state["error"][0] == "LivelockError"
            fired.append(max_stall)
    # small limits trip on the ordinary stalls (a blocked re-entry, a
    # FlushHint before a read), large ones never do
    assert fired and fired[0] == 1 and fired[-1] < 11


def test_watchdog_sweep_over_yield_storm():
    for max_stall in range(1, 41):
        state = sweep_agrees(livelock_workload, watchdog=max_stall,
                             max_steps=10 * max_stall + 10)
        assert state["error"][0] == "LivelockError", max_stall
        assert state["context"]["max_stall"] == max_stall


def lost_wakeup_storm(kernel):
    """Two readers woken by one byte: the first takes it, ticks and
    retires; the second re-enters right after that retirement (a step
    that made progress, but not by completing a blocked op), fails to
    read and blocks again, while a spinner yields forever."""
    pipe = kernel.stream(4, "pipe")

    def reader():
        data = yield Read(pipe, 1)
        yield Tick(1)
        return data

    def writer():
        yield Tick(1)
        yield Write(pipe, b"x")
        return "w"

    def spinner():
        while True:
            yield YieldCPU()

    for name in ("r1", "r2"):
        kernel.spawn(reader, name=name)
    kernel.spawn(writer, name="writer")
    kernel.spawn(spinner, name="spinner")


def second_read_storm(kernel):
    """A woken reader completes its read and, in the same step, issues
    a second one that blocks: that step made progress, so the stall
    starts at the failed attempt, not at the step that issued it."""
    pipe = kernel.stream(4, "pipe")

    def reader():
        first = yield Read(pipe, 1)
        return first + (yield Read(pipe, 1))

    def writer():
        yield Tick(1)
        yield Write(pipe, b"x")
        return "w"

    def spinner():
        while True:
            yield YieldCPU()

    kernel.spawn(reader, name="reader")
    kernel.spawn(writer, name="writer")
    kernel.spawn(spinner, name="spinner")


@pytest.mark.parametrize("build", (lost_wakeup_storm, second_read_storm),
                         ids=("lost-wakeup", "second-read"))
def test_watchdog_sweep_over_wakeups(build):
    for max_stall in range(1, 13):
        state = sweep_agrees(build, watchdog=max_stall,
                             max_steps=10 * max_stall + 20)
        assert state["error"][0] == "LivelockError", max_stall


def flush_loop(kernel):
    def spin():
        yield Tick(1)
        while True:
            yield FlushHint(True)

    kernel.spawn(spin, name="flush")


def close_loop(kernel):
    pipe = kernel.stream(2, "pipe")

    def spin():
        yield Tick(1)
        while True:
            yield CloseStream(pipe)

    kernel.spawn(spin, name="close")


def lone_yield_loop(kernel):
    def spin():
        yield Tick(1)
        while True:
            yield YieldCPU()

    kernel.spawn(spin, name="yield")


def read_then_flush_loop(kernel):
    """Reads of a closed stream, each followed by a FlushHint: issuing
    a read makes no progress, so the stall is 1 at every step that
    completes one; that step makes progress (the read completes), so
    the FlushHint sharing it does not extend the stall."""
    pipe = kernel.stream(2, "pipe")
    pipe.close()

    def spin():
        while True:
            yield Read(pipe, 1)
            yield FlushHint(False)

    kernel.spawn(spin, name="read-flush")


@pytest.mark.parametrize("build", (flush_loop, close_loop,
                                   lone_yield_loop),
                         ids=("flush", "close", "lone-yield"))
@pytest.mark.parametrize("max_stall", (1, 2, 3, 7, 50))
def test_single_thread_livelock_never_leaving_batch(build, max_stall):
    # The backstop budget turns a missed in-batch check into a
    # RuntimeFault instead of a hang.
    state = sweep_agrees(build, watchdog=max_stall,
                         max_steps=10 * max_stall + 10)
    assert state["error"][0] == "LivelockError"
    assert state["context"]["step"] == max_stall + 2


@pytest.mark.parametrize("max_stall", (1, 2, 3))
def test_watchdog_at_the_step_completing_a_read(max_stall):
    state = sweep_agrees(read_then_flush_loop, watchdog=max_stall,
                         max_steps=200)
    if max_stall == 1:
        assert state["error"][0] == "LivelockError"
        assert state["context"]["step"] == 2
    else:
        assert state["error"][0] == "RuntimeFault"  # the backstop


# -- ISA machine batch boundaries ----------------------------------------


class TestMachineBudget:
    def source(self):
        return """
        start:
            mov  0, %l0
        loop:
            add  %l0, 1, %l0
            yield
            ba   loop
        """

    def machine(self):
        machine = Machine(assemble(self.source()), n_windows=8,
                          scheme="SP")
        machine.add_thread("start", name="a")
        machine.add_thread("start", name="b")
        return machine

    def test_budget_exhaustion_names_the_boundary(self):
        machine = self.machine()
        with pytest.raises(MachineFault, match="step budget of 100"):
            machine.run(max_steps=100)
        executed = sum(t.instructions for t in machine.threads)
        assert executed == 100

    def test_budget_on_yield_boundary_reports_event(self):
        # A two-thread yield ping-pong: the budget can land exactly on
        # a yield (a batch-exit event) — the fault must say so rather
        # than claim a mid-batch budget stop.
        machine = self.machine()
        with pytest.raises(MachineFault, match=r"last batch: (event|budget)"):
            machine.run(max_steps=99)
