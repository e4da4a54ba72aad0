"""The multi-tasking kernel: one batched execution loop +
non-preemptive scheduling over the window simulator.

Every procedure call a thread makes becomes a simulated ``save`` and
every return a ``restore``; blocking stream operations suspend the
thread and context-switch through the window-management scheme.  The
register file is used *functionally*: arguments travel through the
caller's outs into the callee's ins, return values travel back through
the in/out overlap across the restore, and each frame carries a
signature in a local register — so a window-management bug corrupts
application results instead of passing silently.

Threads run on one loop, :meth:`Kernel._run_batched`, which executes
each quantum as a straight-line batch (the paper's §6.1 emulator
design: only the window operations are interpreted).  Step budgets,
the watchdog, fault injection, the invariant audit and event-bus
tracing are hooks on that loop, not a second loop; the step-granular
loop it replaced lives on in ``tests/support/trampoline.py`` as the
executable spec the differential suites compare against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import make_scheme
from repro.core.invariants import check_invariants
from repro.core.scheme import Scheme
from repro.errors import ReproError
from repro.metrics.counters import Counters
from repro.runtime.batch import EXIT_BLOCKED, EXIT_DONE, EXIT_YIELDED
from repro.runtime.errors import DeadlockError, LivelockError, RuntimeFault
from repro.runtime.ops import (
    Call,
    CloseStream,
    FlushHint,
    Join,
    Read,
    ReadLine,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.streams import Stream, StreamClosedError
from repro.runtime.thread import (
    BLOCKED,
    DONE,
    READY,
    RUNNING,
    SimThread,
)
from repro.windows.cpu import WindowCPU
from repro.windows.errors import (
    WindowError,
    WindowGeometryError,
    WindowIntegrityError,
)
from repro.windows.occupancy import FRAME, FREE

#: the step limit of an unbudgeted run (never reached)
_UNBOUNDED = sys.maxsize

#: the ops a thread can block on (``SimThread.pending``), by name
_BLOCKING_OPS = {Read: "read", ReadLine: "readline", Write: "write",
                 Join: "join"}


@dataclass
class RunResult:
    """Outcome of a completed simulation."""

    counters: Counters
    threads: List[SimThread]
    steps: int
    slackness_samples: List[int] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.counters.total_cycles

    def result_of(self, name: str) -> Any:
        for t in self.threads:
            if t.name == name:
                return t.result
        raise KeyError(name)

    def thread_results(self) -> Dict[str, Any]:
        return {t.name: t.result for t in self.threads}


class Kernel:
    """Owns the CPU, the scheme, the ready queue and all threads."""

    def __init__(self, n_windows: int = 8, scheme: str = "SP",
                 queue_policy=None, cost_model=None,
                 counters: Optional[Counters] = None,
                 allocation=None, verify_registers: bool = True,
                 scheme_kwargs: Optional[dict] = None,
                 faults=None, audit: bool = False,
                 watchdog: Optional[int] = None,
                 crash_dir=None,
                 crash_config: Optional[dict] = None,
                 analyze: bool = False):
        self.counters = counters if counters is not None else Counters()
        self.cpu = WindowCPU(n_windows, cost_model, self.counters)
        kwargs = dict(scheme_kwargs or {})
        if isinstance(scheme, Scheme):
            self.scheme = scheme
        elif scheme.upper() == "NS":
            self.scheme = make_scheme("NS", self.cpu, **kwargs)
        else:
            if allocation is not None:
                kwargs.setdefault("allocation", allocation)
            self.scheme = make_scheme(scheme, self.cpu, **kwargs)
        self.ready = ReadyQueue(queue_policy)
        self.threads: List[SimThread] = []
        self.current: Optional[SimThread] = None
        self.last_suspended: Optional[SimThread] = None
        self.verify_registers = verify_registers
        #: the structured trace-event bus (shared with the CPU, the
        #: scheme, the ready queue and every stream); disabled until a
        #: consumer subscribes
        self.events = self.cpu.events
        self.ready.bind_events(self.events)
        #: mirror of ``events.active`` (see EventBus.watch_activity)
        self._tracing = False
        self.events.watch_activity(self._set_tracing)
        self._tracker = None
        self._timeline = None
        #: the columnar quantum record the report views read (see
        #: :meth:`attach_view`); None until a view is bound, so a plain
        #: run allocates none
        self._record = None
        #: live quantum-boundary observers (see :meth:`observe`)
        self._observers = ()
        #: the loop's per-quantum guard, one truth test: a record is
        #: kept or a live observer is attached
        self._observed = False
        #: streams closed while bound to this kernel's event bus (the
        #: ``stream_close`` tally of a RunReport's events section)
        self.streams_closed = 0
        #: optional :class:`repro.metrics.telemetry.RunTelemetry`; the
        #: profiler is mirrored into ``_profiler`` so the loop's guard
        #: is a hoisted-local None check (attach_telemetry)
        self.telemetry = None
        self._profiler = None
        self._running = False
        #: run the static topology check before the first step (run())
        self._analyze = analyze
        self._steps = 0
        #: progress clock: ticks, calls, returns, spawns and completed
        #: blocking operations move it; yield storms do not
        self._progress = 0
        #: optional fault injector (see :mod:`repro.faults`), shared
        #: with the CPU, the scheme's store paths and the ready queue
        self.faults = faults
        if faults is not None:
            faults.attach(self)
        #: run check_invariants after every dispatch, call and return
        self.audit = audit
        self._watchdog = None
        if watchdog:
            from repro.faults.watchdog import Watchdog

            self._watchdog = Watchdog(watchdog)
        #: where crash bundles land (None: no bundles); crash_config is
        #: embedded in the bundle so a replay can rebuild the workload
        self.crash_dir = crash_dir
        self.crash_config = dict(crash_config or {})
        self._flight = None
        if crash_dir is not None:
            from repro.metrics.events import RingRecorder

            self._flight = RingRecorder()
            self.events.subscribe(self._flight)

    def _set_tracing(self, active: bool) -> None:
        self._tracing = active

    # -- observability ------------------------------------------------------

    def observe(self, observer):
        """Attach (and return) a live quantum-boundary observer, for
        callers that must act at a boundary (a report only reads what
        happened: bind a view with :meth:`attach_view` instead).

        The kernel calls ``observer.on_quantum_start(tid, depth, cycle,
        switch_cost)`` after every dispatch, ``on_quantum_end(tid,
        exit_code, cycle, min_depth, max_depth)`` when the quantum ends
        in a block, yield or retirement, and ``on_run_end(kernel,
        cycle)`` once the run completes.  Cycle stamps are exact; the
        exit code is one of :mod:`repro.runtime.batch`'s ``EXIT_*``.
        Observers fire at quantum granularity from the one execution
        loop.  One may subscribe to the event bus from
        ``on_quantum_start``: the quantum it starts is traced in full."""
        if observer not in self._observers:
            self._observers += (observer,)
            self._observed = True
        return observer

    def unobserve(self, observer) -> None:
        self._observers = tuple(o for o in self._observers
                                if o is not observer)
        self._observed = bool(self._observers) or self._record is not None

    def attach_view(self, view):
        """Bind (and return) a view over the kernel's quantum record
        (:mod:`repro.metrics.quanta`): a
        :class:`~repro.metrics.behavior.BehaviorTracker`, an
        :class:`~repro.metrics.tracing.OccupancyTimeline` or a
        :class:`~repro.metrics.quanta.QuantumLog`.  The execution loop
        fills the record inline at every quantum boundary once the
        first view is bound; a view covers the quanta dispatched after
        it was bound, so binding mid-run takes effect at the next
        dispatch."""
        record = self._record
        if record is None:
            from repro.metrics.quanta import QuantumRecord

            record = self._record = QuantumRecord(self.cpu.n_windows)
            self._observed = True
        view._bind(record, self)
        return view

    @property
    def tracker(self):
        """Optional :class:`repro.metrics.behavior.BehaviorTracker`,
        bound as a view over the quantum record when assigned."""
        return self._tracker

    @tracker.setter
    def tracker(self, tracker) -> None:
        self._tracker = tracker
        if tracker is not None:
            self.attach_view(tracker)

    @property
    def timeline(self):
        """Optional :class:`repro.metrics.tracing.OccupancyTimeline`,
        bound as a view over the quantum record when assigned (the
        record then snapshots the window map at every dispatch)."""
        return self._timeline

    @timeline.setter
    def timeline(self, timeline) -> None:
        if self._record is not None:
            self._record.occupancy = None
        self._timeline = timeline
        if timeline is not None:
            timeline.cpu = self.cpu
            self.attach_view(timeline)

    def attach_telemetry(self, telemetry) -> None:
        """Arm aggregate metrics (:mod:`repro.metrics.telemetry`).

        Registers the scheme's switch/trap/occupancy histograms (filled
        from the scheme's cost counts when the run is folded) and arms
        the cycle-domain sampling profiler; until this is called the
        profiler hook holds ``None`` and the loop pays a single ``is
        None`` branch per quantum.
        """
        from repro.metrics.telemetry import arm_scheme_histograms

        self.telemetry = telemetry
        arm_scheme_histograms(telemetry, self.scheme,
                              self.cpu.n_windows)
        profiler = telemetry.profiler
        if profiler is not None:
            profiler.bind(self.cpu)
        self._profiler = profiler

    def enable_tracing(self, recorder=None):
        """Subscribe (and return) a TraceRecorder capturing every event."""
        from repro.metrics.events import TraceRecorder

        if recorder is None:
            recorder = TraceRecorder()
        self.events.subscribe(recorder)
        return recorder

    # -- setup ------------------------------------------------------------

    def spawn(self, factory, *args, name: str = "") -> SimThread:
        """Create a thread running ``factory(*args)`` (a generator).

        Before ``run()`` only; running threads use the ``Spawn`` op.
        """
        if self._running:
            raise RuntimeFault(
                "spawn() after run() started; yield Spawn(...) instead")
        return self._spawn(factory, args, name)

    def _spawn(self, factory, args, name: str) -> SimThread:
        thread = SimThread(len(self.threads), name, factory, args)
        self.threads.append(thread)
        self.scheme.register(thread.windows)
        if self._tracing:
            parent = self.current.tid if self.current is not None else None
            self.events.emit("spawn", tid=thread.tid, name=thread.name,
                             parent=parent)
        self.ready.push_new(thread)
        return thread

    def stream(self, capacity: int, name: str = "") -> Stream:
        """Convenience stream constructor (wired to the event bus)."""
        stream = Stream(capacity, name)
        stream.events = self.events
        return stream

    # -- main loop -----------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run every thread to completion; raises on deadlock.

        Any escaping :class:`~repro.errors.ReproError` is enriched with
        crash context (step, cycle, running thread, CWP) and — when
        ``crash_dir`` is set — dumped as a replayable crash bundle whose
        path lands on the exception as ``bundle_path``.
        """
        if self._analyze:
            # opt-in pre-run gate: static stream-topology check over
            # everything spawned so far; a guaranteed deadlock (a
            # stream read but never written or closed) aborts before
            # the first instruction runs
            from repro.analysis.topology import analyze_kernel

            analyze_kernel(self).raise_if_errors("workload topology")
        self._running = True
        try:
            return self._run_to_completion(max_steps)
        except ReproError as exc:
            self._capture_crash(exc)
            raise

    def _run_to_completion(self, max_steps: Optional[int]) -> RunResult:
        while True:
            if self.current is None:
                if not self.ready:
                    blocked = [t for t in self.threads if t.state == BLOCKED]
                    if blocked:
                        raise self._deadlock_error(blocked)
                    break
                self._dispatch(self.ready.pop())
            # Runs quanta back-to-back (dispatch included) until
            # everything is done or blocked; the loop here decides
            # between completion and deadlock.
            self._run_batched(max_steps)
        if self._tracing:
            self.events.emit("run_end")
        if self._observed:
            cycle = self.counters.total_cycles
            if self._record is not None:
                self._record.stop = cycle
            for observer in self._observers:
                observer.on_run_end(self, cycle)
        self.counters.fold_thread_stats(t.windows for t in self.threads)
        return RunResult(self.counters, list(self.threads), self._steps,
                         list(self.ready.slackness_samples))

    # -- failure reporting --------------------------------------------------

    def _deadlock_error(self, blocked: List[SimThread]) -> DeadlockError:
        """Build a DeadlockError naming every wedged thread and what it
        waits for — including the fill state of the stream involved."""
        details = []
        for t in blocked:
            op = t.pending
            kind = _BLOCKING_OPS.get(type(op))
            if kind == "join":
                target = op.thread
                entry = {"thread": t.name, "op": "join", "on": target.name,
                         "detail": "target is %s" % target.state}
            elif kind is not None:
                stream = op.stream
                if kind == "write":
                    state = "full" if stream.is_full else (
                        "%d/%d bytes buffered"
                        % (len(stream), stream.capacity))
                else:
                    state = "empty" if stream.is_empty else (
                        "%d bytes buffered" % len(stream))
                if stream.closed:
                    state += ", closed"
                entry = {"thread": t.name, "op": kind,
                         "on": stream.name or "stream",
                         "detail": "stream %s (capacity %d)"
                                   % (state, stream.capacity)}
            else:
                entry = {"thread": t.name, "op": kind or "?",
                         "on": t.blocked_on or "?", "detail": ""}
            details.append(entry)
        lines = "; ".join(
            "%s waits to %s %r (%s)" % (d["thread"], d["op"], d["on"],
                                        d["detail"])
            if d["detail"] else
            "%s waits to %s %r" % (d["thread"], d["op"], d["on"])
            for d in details)
        return DeadlockError(
            "deadlock: no ready threads; blocked: %s" % lines,
            blocked=details, threads=len(self.threads),
            blocked_count=len(details))

    def _capture_crash(self, exc: ReproError) -> None:
        """Enrich an escaping error and (optionally) write its bundle."""
        self.counters.fold_thread_stats(t.windows for t in self.threads)
        running = self.current
        exc.with_context(step=self._steps,
                         cycle=self.counters.total_cycles)
        if running is not None:
            exc.with_context(thread=running.name, cwp=self.cpu.wf.cwp)
        if self.faults is not None and self.faults.fired:
            exc.with_context(faults_fired=len(self.faults.fired))
        exc.bundle_path = None
        if self.crash_dir is not None:
            from repro.faults.bundle import write_crash_bundle

            exc.bundle_path = write_crash_bundle(self.crash_dir, exc, self)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, thread: SimThread) -> None:
        out = self.last_suspended
        assert out is not thread, "self-switch should be impossible"
        out_tw = out.windows if out is not None else None
        flush = out.flush_on_switch if out is not None else False
        live = self._observers
        if live:
            switched_from = self.counters.switch_cycles
        self.scheme.context_switch(out_tw, thread.windows, flush_out=flush)
        self.last_suspended = None
        self.current = thread
        thread.state = RUNNING
        if not thread.gen_stack:
            thread.start_root()
            if self.verify_registers:
                self.cpu.write_local(0, ("sig", thread.tid, 1))
        if self._tracing:
            self.events.emit("dispatch", tid=thread.tid,
                             depth=thread.windows.depth)
        if self._observed:
            self._quantum_started(
                thread, self.counters.switch_cycles - switched_from
                if live else 0)
        if self.audit:
            self._audit()

    # The slow path of the two quantum boundaries, for ``_dispatch`` and
    # the step-granular reference loop; ``_run_batched`` inlines both.

    def _quantum_started(self, thread: SimThread, switch_cost: int) -> None:
        """Append the dispatch row, then fire ``on_quantum_start``
        (callers fold lazy cycles first)."""
        cycle = self.counters.total_cycles
        depth = thread.windows.depth
        record = self._record
        if record is not None:
            record.dispatched(thread.tid, cycle, depth, self.cpu.map)
        for observer in self._observers:
            observer.on_quantum_start(thread.tid, depth, cycle, switch_cost)

    def _quantum_ended(self, thread: SimThread, min_depth: int,
                       max_depth: int) -> None:
        """Close the quantum's row, then fire ``on_quantum_end``; the
        exit kind follows from the state the quantum left the thread
        in."""
        state = thread.state
        code = (EXIT_DONE if state == DONE else
                EXIT_BLOCKED if state == BLOCKED else EXIT_YIELDED)
        cycle = self.counters.total_cycles
        record = self._record
        if record is not None:
            record.ended(cycle, code, min_depth, max_depth)
        for observer in self._observers:
            observer.on_quantum_end(thread.tid, code, cycle, min_depth,
                                    max_depth)

    def _audit(self) -> None:
        """Continuous invariant audit: the full geometry check after
        every dispatch, call and return (expensive; opt-in)."""
        try:
            check_invariants(self.cpu, self.scheme,
                             [t.windows for t in self.threads])
        except WindowError as exc:
            raise exc.with_context(audit=True, step=self._steps,
                                   cycle=self.counters.total_cycles)

    # -- the execution loop ---------------------------------------------------

    def _run_batched(self, max_steps: Optional[int] = None) -> None:
        """The run-until-event loop: dispatch loop plus batch executor
        fused into one frame, and the kernel's only execution loop.

        Each thread's quantum executes as a straight-line batch of
        steps, returning control only on a batch-exit event — block,
        yield, completion (:mod:`repro.runtime.batch`) — after which
        the next thread is dispatched without leaving this frame, so
        the simulator-invariant locals (register file geometry, WIM,
        occupancy arrays, op classes) hoist once per *run*.  The two
        window instructions (``WindowCPU.save``/``restore``), stream
        completion and the counter updates are inlined.  The step and
        progress clocks, the compute/call cycles and the save/restore
        totals live in frame locals stored back in the outer
        ``finally``; per-thread statistics fold in the inner one at
        each quantum boundary.  Trap handlers and context switches run
        through the scheme and touch only the trap/switch counters,
        never these locals, so folding late is safe.  Both folds run
        on exceptional exits too, so an error escaping mid-batch leaves
        every count where the step-granular reference loop
        (``tests/support/trampoline.py``) leaves it.

        Step-granular features are hooks (DESIGN.md §10.1): the step
        budget is the batch loop's condition, checked again at the two
        steps that do not start at the loop top (a quantum's entry and
        the step completing a blocking op); the watchdog is told about
        the steps that make no progress and checks after them; the
        inlined save and restore call the CPU's fault slots and trap
        actions; the audit runs after every dispatch, call and return;
        and the loop emits the reference loop's dispatch, save,
        restore, yield, retire and join-wake events.  Tracing and the
        fault slots are re-read per quantum (an observer may subscribe
        at a dispatch).  A traced or audited quantum keeps its cycles
        in the counters as it goes, and the lazy accumulators fold at
        every boundary a record, an observer or a live bus sees, so
        each stamp reads the exact clock.  The quantum record
        (:mod:`repro.metrics.quanta`) is filled inline at both
        boundaries, inside the same per-quantum ``observed`` guard as
        the live observers.
        """
        cpu = self.cpu
        wf = cpu.wf
        regs = wf._regs
        wim = wf._wim
        above = wf._above
        below = wf._below
        in_base = wf._in_base
        out_base = wf._out_base
        wmap = cpu.map
        kinds = wmap._kind
        tids = wmap._tid
        scheme = self.scheme
        ready = self.ready
        counters = cpu.counters
        events = self.events
        verify = self.verify_registers
        save_cost = cpu._save_instr_cost
        restore_cost = cpu._restore_instr_cost
        prof = self._profiler
        prof_cd = prof._cd if prof is not None else 0
        handle_overflow = scheme.handle_overflow
        handle_underflow = scheme.handle_underflow
        context_switch = scheme.context_switch
        wake_readers = self._wake_readers
        wake_writers = self._wake_writers
        do_close = self._do_close
        queue = ready._queue
        popleft = queue.popleft
        queue_extend = queue.extend
        READY_, BLOCKED_ = READY, BLOCKED
        # op classes as frame locals (one global load each, not per step)
        Tick_, Call_, Read_, Write_ = Tick, Call, Read, Write
        ReadLine_, CloseStream_, YieldCPU_ = ReadLine, CloseStream, YieldCPU
        FlushHint_, Spawn_, Join_ = FlushHint, Spawn, Join
        # -- run-wide hooks --
        faults = cpu.faults
        faulted = faults is not None
        fault_save = fault_restore = None
        audit = self.audit
        # Plain FIFO with no enqueue fault hook: a wake is exactly
        # "state = READY, append to the deque" (the push_woken fast
        # path).  A traced quantum takes the wake methods, which emit.
        fifo_wake = ready._fifo and ready.faults is None
        watchdog = self._watchdog
        limit = _UNBOUNDED if max_steps is None else max_steps
        # a quantum's entry step checks the budget against
        # ``hook_limit``; with a watchdog armed every entry looks
        hook_limit = 0 if watchdog is not None else limit
        # -- the quantum record: filled inline at both boundaries when
        # a view is bound (hoisted again if the first binds mid-run) --
        rec = self._record
        if rec is not None:
            (q_tid, q_start, q_depth, q_end, q_exit, q_low,
             q_high) = rec.appends()
        rec_open = rec is not None and rec.open
        # -- run-global accumulators, stored back in the outer finally --
        steps = self._steps        # -> self._steps
        progress = self._progress  # -> self._progress
        compute = 0                # -> counters.compute_cycles
        call_cycles = 0            # -> counters.call_cycles
        saves_total = 0            # -> counters.saves
        restores_total = 0         # -> counters.restores
        try:
            while True:            # one iteration per quantum
                thread = self.current
                tw = thread.windows
                gen_stack = thread.gen_stack
                # Hooks re-read per quantum: an observer may have
                # subscribed at this dispatch, and the fault injector
                # unhooks a site once its last spec fired.
                events_on = self._tracing
                eager = events_on or audit
                if faulted:
                    fault_save = cpu._fault_save
                    fault_restore = cpu._fault_restore
                fast_wake = fifo_wake and not events_on
                # -- per-quantum accumulators (per-thread statistics) --
                n_saves = 0        # -> tw.stat_saves (== thread.calls)
                n_restores = 0     # -> tw.stat_restores (== thread.returns)
                low = high = tw.depth  # depth excursion (observers)
                resume = thread.resume_value
                try:
                    # A blocked thread re-dispatches the op it blocked
                    # on: its entry step tries to complete it (the
                    # handler below counts and checks that step).
                    redo = thread.pending
                    if redo is None:
                        steps += 1     # the entry step
                        entry = steps
                        if steps >= hook_limit:
                            self._check_step(thread, steps, progress,
                                             max_steps)
                    else:
                        thread.pending = None
                        entry = steps + 1
                    gen = gen_stack[-1]
                    while steps < limit:
                        if redo is None:
                            try:
                                cmd = gen.send(resume)
                            except StopIteration as stop:
                                value = stop.value
                                gen_stack.pop()
                                progress += 1
                                if not gen_stack:
                                    if verify and tw.depth != 1:
                                        raise WindowIntegrityError(
                                            "thread %s finished at call "
                                            "depth %d"
                                            % (thread.name, tw.depth))
                                    thread.result = value
                                    thread.state = DONE
                                    scheme.retire(tw)
                                    self.current = None
                                    if events_on:
                                        events.emit("retire", tid=thread.tid,
                                                    name=thread.name)
                                    for waiter in thread.join_waiters:
                                        waiter.blocked_on = None
                                        if events_on:
                                            events.emit("wake", tid=waiter.tid,
                                                        on=thread.name,
                                                        op="join")
                                        ready.push_woken(waiter)
                                    del thread.join_waiters[:]
                                    break  # EXIT_DONE
                                cwp = wf.cwp
                                if verify:
                                    sig = regs[in_base[cwp] + 8]
                                    if sig != ("sig", thread.tid, tw.depth):
                                        thread.returns += 1
                                        raise WindowIntegrityError(
                                            "thread %s frame signature "
                                            "corrupted: %r at depth %d"
                                            % (thread.name, sig, tw.depth),
                                            thread=thread.name,
                                            depth=tw.depth)
                                # The return value travels through the
                                # in/out overlap across the restore
                                # (written before, read after).
                                regs[in_base[cwp]] = value
                                # -- WindowCPU.restore, inlined --
                                if faulted and (cpu.current is not tw
                                                or tw.cwp != cwp):
                                    thread.returns += 1
                                    cpu._check_running(tw)
                                depth = tw.depth
                                if depth <= 1:
                                    thread.returns += 1
                                    raise WindowGeometryError(
                                        "thread %d executed restore at "
                                        "depth %d" % (tw.tid, depth))
                                if fault_restore is not None:
                                    fault_restore(cpu, tw)
                                if eager:
                                    counters.call_cycles += restore_cost
                                else:
                                    call_cycles += restore_cost
                                n_restores += 1
                                target = below[cwp]
                                if wim[target]:
                                    # Underflow: the in-place restore
                                    # (§3.2); the CWP does not move.
                                    handle_underflow(tw)
                                    depth = tw.depth
                                    if events_on:
                                        events.emit("restore", tid=tw.tid,
                                                    window=wf.cwp, depth=depth,
                                                    inplace=True)
                                else:
                                    kinds[cwp] = FREE
                                    tids[cwp] = None
                                    wf.cwp = target
                                    tw.cwp = target
                                    tw.resident -= 1
                                    depth -= 1
                                    tw.depth = depth
                                    if events_on:
                                        events.emit("restore", tid=tw.tid,
                                                    window=target, depth=depth,
                                                    freed=cwp, inplace=False)
                                if depth < low:
                                    low = depth
                                got = regs[out_base[wf.cwp]]
                                if verify and got is not value \
                                        and got != value:
                                    raise WindowIntegrityError(
                                        "return value of %s corrupted "
                                        "across restore: %r != %r"
                                        % (thread.name, got, value),
                                        thread=thread.name, depth=tw.depth)
                                resume = got
                                if audit:
                                    self._steps = steps
                                    self._audit()
                                gen = gen_stack[-1]
                                steps += 1
                                continue
                            resume = None
                        else:
                            cmd = redo
                            redo = None
                        t = type(cmd)
                        if t is Tick_:
                            if eager:
                                counters.compute_cycles += cmd.cycles
                            else:
                                compute += cmd.cycles
                            progress += 1
                        elif t is Call_:
                            progress += 1
                            args = cmd.args
                            cwp = wf.cwp
                            if verify:
                                ob = out_base[cwp]
                                for i, a in enumerate(args[:8]):
                                    regs[ob + i] = a
                            # -- WindowCPU.save, inlined --
                            if faulted:
                                if cpu.current is not tw or tw.cwp != cwp:
                                    thread.calls += 1
                                    cpu._check_running(tw)
                                if fault_save is not None:
                                    fault_save(cpu, tw)
                                    cwp = wf.cwp
                            if eager:
                                counters.call_cycles += save_cost
                            else:
                                call_cycles += save_cost
                            n_saves += 1
                            target = above[cwp]
                            if wim[target]:
                                action = (faults.take_trap_action(tw)
                                          if faulted else None)
                                # a dropped trap falls through: the save
                                # runs straight into the invalid window
                                if action != "drop":
                                    handle_overflow(tw)
                                    if action == "dup":
                                        handle_overflow(tw)
                                    target = above[wf.cwp]
                                    if wim[target]:
                                        raise WindowGeometryError(
                                            "overflow handler left "
                                            "target window %d invalid"
                                            % target, window=target,
                                            thread=tw.tid)
                            wf.cwp = target
                            tw.cwp = target
                            tw.resident += 1
                            depth = tw.depth + 1
                            tw.depth = depth
                            if depth > high:
                                high = depth
                            kinds[target] = FRAME
                            tids[target] = tw.tid
                            if events_on:
                                events.emit("save", tid=tw.tid,
                                            window=target, depth=depth)
                            if verify:
                                ib = in_base[target]
                                for i, a in enumerate(args[:8]):
                                    got = regs[ib + i]
                                    if got is not a and got != a:
                                        raise WindowIntegrityError(
                                            "argument %d of %s "
                                            "corrupted across save: "
                                            "%r != %r"
                                            % (i, thread.name, got, a),
                                            thread=thread.name,
                                            argument=i, depth=depth)
                                regs[ib + 8] = ("sig", thread.tid, depth)
                            if audit:
                                self._steps = steps
                                self._audit()
                            gen = cmd.factory(*args)
                            gen_stack.append(gen)
                        elif t is Read_:
                            stream = cmd.stream
                            steps += 1  # the step that tries to complete it
                            if steps >= hook_limit:
                                self._check_step(thread, steps, progress,
                                                 max_steps, cmd, entry)
                            sdata = stream._data
                            if sdata or stream.closed:
                                # -- Stream.pull, inlined --
                                take = cmd.max_bytes
                                avail = len(sdata)
                                if take >= avail:
                                    take = avail
                                    data = bytes(sdata)
                                    del sdata[:]
                                else:
                                    data = bytes(sdata[:take])
                                    del sdata[:take]
                                if take:
                                    stream.bytes_read += take
                                    if stream.write_waiters:
                                        if fast_wake:
                                            for waiter in \
                                                    stream.write_waiters:
                                                waiter.blocked_on = None
                                                waiter.state = READY_
                                            queue_extend(
                                                stream.write_waiters)
                                            del stream.write_waiters[:]
                                        else:
                                            wake_writers(stream)
                                progress += 1
                                resume = data
                                # completion shares the next send's step
                                continue
                            # -- block: the op stays pending --
                            thread.pending = cmd
                            stream.read_waiters.append(thread)
                            thread.blocked_on = stream.read_label
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=stream.name or "stream", op="read")
                            break  # EXIT_BLOCKED
                        elif t is Write_:
                            stream = cmd.stream
                            data = cmd.data
                            steps += 1
                            if steps >= hook_limit:
                                self._check_step(thread, steps, progress,
                                                 max_steps, cmd, entry)
                            # -- Stream.push, inlined --
                            if stream.closed:
                                raise StreamClosedError(
                                    "write to closed stream %r"
                                    % (stream.name,))
                            sdata = stream._data
                            pushed = stream.capacity - len(sdata)
                            want = len(data)
                            if pushed >= want:
                                pushed = want
                                sdata.extend(data)
                            elif pushed:
                                sdata.extend(data[:pushed])
                            if pushed:
                                stream.bytes_written += pushed
                                if stream.read_waiters:
                                    if fast_wake:
                                        for waiter in \
                                                stream.read_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.read_waiters)
                                        del stream.read_waiters[:]
                                    else:
                                        wake_readers(stream)
                            if pushed >= want:
                                progress += 1
                                continue
                            # -- block: the op stays pending --
                            thread.pending = (Write_(stream, data[pushed:])
                                              if pushed else cmd)
                            stream.write_waiters.append(thread)
                            thread.blocked_on = stream.write_label
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=stream.name or "stream",
                                    op="write")
                            break  # EXIT_BLOCKED
                        elif t is ReadLine_:
                            stream = cmd.stream
                            steps += 1
                            if steps >= hook_limit:
                                self._check_step(thread, steps, progress,
                                                 max_steps, cmd, entry)
                            # -- has_line/at_eof/pull_line, inlined --
                            sdata = stream._data
                            idx = sdata.find(b"\n")
                            if idx >= 0:
                                idx += 1
                                line = bytes(sdata[:idx])
                                del sdata[:idx]
                                stream.bytes_read += idx
                            elif stream.closed:
                                line = bytes(sdata)
                                if line:
                                    del sdata[:]
                                    stream.bytes_read += len(line)
                            else:
                                if len(sdata) >= stream.capacity:
                                    raise RuntimeFault(
                                        "readline on %r: line longer "
                                        "than the stream capacity"
                                        % stream.name)
                                # -- block: the op stays pending --
                                thread.pending = cmd
                                stream.read_waiters.append(thread)
                                thread.blocked_on = stream.read_label
                                thread.state = BLOCKED_
                                thread.blocks += 1
                                self.last_suspended = thread
                                self.current = None
                                if events_on:
                                    events.emit(
                                        "block", tid=thread.tid,
                                        on=stream.name or "stream",
                                        op="read")
                                break  # EXIT_BLOCKED
                            if line and stream.write_waiters:
                                if fast_wake:
                                    for waiter in stream.write_waiters:
                                        waiter.blocked_on = None
                                        waiter.state = READY_
                                    queue_extend(stream.write_waiters)
                                    del stream.write_waiters[:]
                                else:
                                    wake_writers(stream)
                            progress += 1
                            resume = line
                            continue
                        elif t is CloseStream_:
                            do_close(cmd.stream)
                            if watchdog is not None \
                                    and watchdog.note_idle(progress, steps):
                                limit = steps + 1
                        elif t is YieldCPU_:
                            if ready:
                                if events_on:
                                    events.emit("yield", tid=thread.tid)
                                ready.push_yielded(thread)
                                self.last_suspended = thread
                                self.current = None
                                break  # EXIT_YIELDED
                            # Nobody else runnable: keep going, no
                            # switch, no cost.
                            if watchdog is not None \
                                    and watchdog.note_idle(progress, steps):
                                limit = steps + 1
                        elif t is FlushHint_:
                            thread.flush_on_switch = cmd.flush
                            if watchdog is not None \
                                    and watchdog.note_idle(progress, steps):
                                limit = steps + 1
                        elif t is Spawn_:
                            resume = self._spawn(cmd.factory, cmd.args,
                                                 cmd.name)
                            progress += 1
                        elif t is Join_:
                            target_t = cmd.thread
                            if target_t is thread:
                                raise RuntimeFault(
                                    "%s tried to join itself"
                                    % thread.name)
                            steps += 1
                            if steps >= hook_limit:
                                self._check_step(thread, steps, progress,
                                                 max_steps, cmd, entry)
                            if target_t.state == DONE:
                                progress += 1
                                resume = target_t.result
                                continue
                            # -- block: the op stays pending --
                            thread.pending = cmd
                            target_t.join_waiters.append(thread)
                            thread.blocked_on = "join %s" % target_t.name
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=target_t.name, op="join")
                            break  # EXIT_BLOCKED
                        else:
                            raise RuntimeFault(
                                "thread %s yielded %r; expected a "
                                "runtime op" % (thread.name, cmd))
                        steps += 1
                    else:
                        # the budget ran out, or the watchdog fires at
                        # this step (an idle op lowered the limit)
                        self._check_step(thread, steps, progress,
                                         max_steps)
                finally:
                    # Quantum boundary: fold the per-thread statistics
                    # (the run-global accumulators keep accumulating).
                    thread.resume_value = resume
                    if n_saves:
                        saves_total += n_saves
                        tw.stat_saves += n_saves
                        thread.calls += n_saves
                    if n_restores:
                        restores_total += n_restores
                        tw.stat_restores += n_restores
                        thread.returns += n_restores
                    if prof is not None:
                        prof_cd -= 1
                        if prof_cd <= 0:
                            # The profiler reads counters.total_cycles,
                            # so the cycle accumulators fold before the
                            # sample (only on expiry, not per quantum).
                            if compute:
                                counters.compute_cycles += compute
                                compute = 0
                            if call_cycles:
                                counters.call_cycles += call_cycles
                                call_cycles = 0
                            prof._check(thread, None, counters)
                            prof_cd = prof._cd
                # Quantum boundary seen by the record and the observers:
                # the cycle clock they read must be exact, so the lazy
                # cycle accumulators fold first.  So they do for a bus
                # that came alive mid-quantum, before the switch it
                # traces (and the next quantum then counts eagerly).
                observed = self._observed
                if observed or self._tracing:
                    if compute:
                        counters.compute_cycles += compute
                        compute = 0
                    if call_cycles:
                        counters.call_cycles += call_cycles
                        call_cycles = 0
                    if observed:
                        # -- _quantum_ended, inlined --
                        cycle = counters.total_cycles
                        state = thread.state
                        code = (EXIT_DONE if state == DONE else
                                EXIT_BLOCKED if state == BLOCKED_ else
                                EXIT_YIELDED)
                        if rec_open:
                            q_end(cycle)
                            q_exit(code)
                            q_low(low)
                            q_high(high)
                            rec_open = False
                        live = self._observers
                        for observer in live:
                            observer.on_quantum_end(thread.tid, code, cycle,
                                                    low, high)
                if watchdog is not None and thread.state != DONE:
                    # a block or a yield: the last step made no progress
                    watchdog.note_idle(progress, steps)
                # Dispatch the next thread without leaving the frame.
                if not queue:
                    return  # all done, or deadlock (outer loop decides)
                # -- _dispatch, inlined --
                if ready.sample_slackness:
                    ready.slackness_samples.append(len(queue) - 1)
                nxt = popleft()
                out = self.last_suspended
                assert out is not nxt, "self-switch should be impossible"
                if observed and live:
                    switched_from = counters.switch_cycles
                if out is not None:
                    context_switch(out.windows, nxt.windows,
                                   flush_out=out.flush_on_switch)
                else:
                    context_switch(None, nxt.windows, flush_out=False)
                self.last_suspended = None
                self.current = nxt
                nxt.state = RUNNING
                if not nxt.gen_stack:
                    nxt.start_root()
                    if verify:
                        cpu.write_local(0, ("sig", nxt.tid, 1))
                if self._tracing:
                    events.emit("dispatch", tid=nxt.tid,
                                depth=nxt.windows.depth)
                if observed:
                    # -- _quantum_started, inlined: the dispatch row (and
                    # its occupancy snapshot), then the live observers --
                    cycle = counters.total_cycles
                    depth = nxt.windows.depth
                    if self._record is not rec:  # first view bound mid-run
                        rec = self._record
                        (q_tid, q_start, q_depth, q_end, q_exit, q_low,
                         q_high) = rec.appends()
                    if rec is not None:
                        q_tid(nxt.tid)
                        q_start(cycle)
                        q_depth(depth)
                        rec_open = True
                        samples = rec.occupancy
                        if samples is not None:
                            # -- OccupancySamples.offer, inlined --
                            if samples.skip:
                                samples.skip -= 1
                                samples.dropped += 1
                            else:
                                rows = samples.rows
                                if len(rows) >= samples.max_samples:
                                    samples.decimate()
                                rows.append((cycle, nxt.tid, tuple(kinds),
                                             tuple(tids)))
                                samples.skip = samples.stride - 1
                    if live:
                        switch_cost = counters.switch_cycles - switched_from
                        for observer in self._observers:
                            observer.on_quantum_start(nxt.tid, depth, cycle,
                                                      switch_cost)
                if audit:
                    self._steps = steps
                    self._audit()
        finally:
            self._steps = steps
            self._progress = progress
            if compute:
                counters.compute_cycles += compute
            if call_cycles:
                counters.call_cycles += call_cycles
            if saves_total:
                counters.saves += saves_total
            if restores_total:
                counters.restores += restores_total
            if prof is not None:
                prof._cd = prof_cd

    # -- step-start checks (the slow path of the hooks) -----------------------

    def _check_step(self, thread: SimThread, step: int, progress: int,
                    max_steps: Optional[int], op=None,
                    entry: int = 0) -> None:
        """The checks at the start of ``step`` — the budget, then the
        watchdog — for a quantum's entry step, or (``op`` given) for
        the step that tries to complete the blocking ``op``: issued by
        the previous step, or re-dispatched at the quantum's ``entry``
        step.  An escaping error leaves ``op`` pending on the thread,
        as the reference loop does."""
        if max_steps is not None and step >= max_steps:
            error = RuntimeFault("step budget of %d exceeded" % max_steps)
        else:
            watchdog = self._watchdog
            if watchdog is None:
                return
            if op is None:
                stall = watchdog.stall(progress, step)
            else:
                stall = watchdog.check_resume(progress, step, step != entry)
            if stall < watchdog.max_stall:
                return
            error = LivelockError(
                "no progress for %d steps (watchdog max_stall=%d); "
                "threads: %s" % (stall, watchdog.max_stall,
                                 ", ".join("%s=%s" % (t.name, t.state)
                                           for t in self.threads)),
                max_stall=watchdog.max_stall, progress=progress)
        if op is not None:
            thread.pending = op
        raise error

    # -- stream helpers -------------------------------------------------------

    def _do_close(self, stream: Stream) -> None:
        if not stream.closed and stream.events is not None:
            self.streams_closed += 1
        stream.close()
        if stream.read_waiters:
            self._wake_readers(stream)
        if stream.write_waiters:
            self._wake_writers(stream)

    def _wake_readers(self, stream: Stream) -> None:
        events_on = self._tracing
        for waiter in stream.read_waiters:
            waiter.blocked_on = None
            if events_on:
                self.events.emit("wake", tid=waiter.tid,
                                 on=stream.name or "stream", op="read")
            self.ready.push_woken(waiter)
        del stream.read_waiters[:]

    def _wake_writers(self, stream: Stream) -> None:
        events_on = self._tracing
        for waiter in stream.write_waiters:
            waiter.blocked_on = None
            if events_on:
                self.events.emit("wake", tid=waiter.tid,
                                 on=stream.name or "stream", op="write")
            self.ready.push_woken(waiter)
        del stream.write_waiters[:]
