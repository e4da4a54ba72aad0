"""The step-granular reference loop: the kernel's executable spec.

The kernel has one execution loop, ``Kernel._run_batched``: each
quantum runs as a straight-line batch, and every step-granular feature
(step budget, watchdog, fault injection, invariant audit, event-bus
tracing) is a hook on that loop.  This module keeps the loop it
replaced — one ``gen.send`` per step, with the budget and watchdog
checked at the top of every step and the call/return/blocking-op
machinery written out plainly — as the reference the differential
suites pin the batched loop against, bit for bit (the same pattern as
:class:`~tests.support.reference_window_file.ReferenceWindowFile`,
the retained spec of the flat register file).

:func:`force_trampoline` rebinds a kernel instance's ``_run_batched``
to run one quantum on this loop, so ``Kernel._run_to_completion``
drives every quantum through it.  Dispatch, waking, closing, spawning,
auditing and the quantum-boundary observers are the kernel's own
helpers, shared by both loops; completing and blocking on an op are
written out here, as the batched loop inlines them.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.runtime.batch import EXIT_BLOCKED, EXIT_DONE, EXIT_YIELDED
from repro.runtime.errors import LivelockError, RuntimeFault
from repro.runtime.kernel import Kernel
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
from repro.runtime.thread import BLOCKED, DONE, SimThread
from repro.windows.errors import WindowIntegrityError

#: the label tests use to parameterize over {reference, batched}
#: (the step-granular loop's historical name, kept so test ids stay put)
REFERENCE_CORE = "generator"


def force_trampoline(kernel: Kernel) -> Kernel:
    """Pin an already-built kernel to the step-granular reference loop."""
    kernel._run_batched = partial(run_quantum, kernel)
    return kernel


def make_kernel(core=None, **kwargs) -> Kernel:
    """``Kernel(**kwargs)`` on the loop a test parameter names.

    ``"generator"`` forces the reference loop; ``None`` or
    ``"batched"`` builds an ordinary kernel.
    """
    if core not in (None, "batched", REFERENCE_CORE):
        raise ValueError("unknown execution loop %r" % (core,))
    kernel = Kernel(**kwargs)
    if core == REFERENCE_CORE:
        force_trampoline(kernel)
    return kernel


def run_quantum(kernel: Kernel, max_steps: Optional[int] = None) -> int:
    """Run the current thread one step at a time until it blocks,
    yields or finishes; quantum-boundary observers see the quantum end
    exactly as the batched loop reports it.  A step budget raises
    ``RuntimeFault`` at the top of the step that reaches it."""
    thread = kernel.current
    assert thread is not None
    tw = thread.windows
    counters = kernel.cpu.counters
    watchdog = kernel._watchdog
    prof = kernel._profiler
    gen_stack = thread.gen_stack
    low = high = tw.depth  # depth excursion of this quantum
    try:
        while True:
            kernel._steps += 1
            if max_steps is not None and kernel._steps >= max_steps:
                raise RuntimeFault("step budget of %d exceeded" % max_steps)
            if watchdog is not None and watchdog.expired(kernel._progress,
                                                         kernel._steps):
                raise LivelockError(
                    "no progress for %d steps (watchdog max_stall=%d); "
                    "threads: %s" % (
                        watchdog.stalled_for(kernel._progress,
                                             kernel._steps),
                        watchdog.max_stall,
                        ", ".join("%s=%s" % (t.name, t.state)
                                  for t in kernel.threads)),
                    max_stall=watchdog.max_stall,
                    progress=kernel._progress)
            if thread.pending is not None:
                if not _continue_pending(kernel, thread):
                    _block(kernel, thread)
                    if kernel._observed:
                        kernel._quantum_ended(thread, low, high)
                    return EXIT_BLOCKED
                kernel._progress += 1
            gen = gen_stack[-1]
            try:
                cmd = gen.send(thread.resume_value)
            except StopIteration as stop:
                if _handle_return(kernel, thread,
                                  getattr(stop, "value", None)):
                    if kernel._observed:
                        kernel._quantum_ended(thread, low, high)
                    return EXIT_DONE  # thread finished
                if tw.depth < low:
                    low = tw.depth
                continue
            thread.resume_value = None
            t = type(cmd)
            if t is Tick:
                counters.compute_cycles += cmd.cycles
                kernel._progress += 1
            elif t is Call:
                _do_call(kernel, thread, cmd)
                if tw.depth > high:
                    high = tw.depth
            elif t is Read or t is Write or t is ReadLine:
                thread.pending = cmd
            elif t is CloseStream:
                kernel._do_close(cmd.stream)
            elif t is YieldCPU:
                if kernel.ready:
                    if kernel._tracing:
                        kernel.events.emit("yield", tid=thread.tid)
                    kernel.ready.push_yielded(thread)
                    kernel.last_suspended = thread
                    kernel.current = None
                    if kernel._observed:
                        kernel._quantum_ended(thread, low, high)
                    return EXIT_YIELDED
                # Nobody else to run: keep going, no switch, no cost.
            elif t is FlushHint:
                thread.flush_on_switch = cmd.flush
            elif t is Spawn:
                thread.resume_value = kernel._spawn(
                    cmd.factory, cmd.args, cmd.name)
                kernel._progress += 1
            elif t is Join:
                if cmd.thread is thread:
                    raise RuntimeFault(
                        "%s tried to join itself" % thread.name)
                thread.pending = cmd
            else:
                raise RuntimeFault(
                    "thread %s yielded %r; expected a runtime op"
                    % (thread.name, cmd))
    finally:
        # The profiler samples on quantum boundaries only.
        if prof is not None:
            prof._cd -= 1
            if prof._cd <= 0:
                prof._check(thread, None, counters)


def _do_call(kernel: Kernel, thread: SimThread, cmd: Call) -> None:
    thread.calls += 1
    kernel._progress += 1
    cpu = kernel.cpu
    tw = thread.windows
    args = cmd.args
    if kernel.verify_registers:
        for i, a in enumerate(args[:8]):
            cpu.write_out(i, a)
    cpu.save(tw)
    if kernel.verify_registers:
        for i, a in enumerate(args[:8]):
            got = cpu.read_in(i)
            if got is not a and got != a:
                raise WindowIntegrityError(
                    "argument %d of %s corrupted across save: %r != %r"
                    % (i, thread.name, got, a),
                    thread=thread.name, argument=i, depth=tw.depth)
        cpu.write_local(0, ("sig", thread.tid, tw.depth))
    if kernel.audit:
        kernel._audit()
    thread.gen_stack.append(cmd.factory(*args))
    thread.resume_value = None


def _handle_return(kernel: Kernel, thread: SimThread, value: Any) -> bool:
    """Pop a finished procedure; True when the thread is done."""
    thread.gen_stack.pop()
    kernel._progress += 1
    tw = thread.windows
    cpu = kernel.cpu
    if not thread.gen_stack:
        if kernel.verify_registers and tw.depth != 1:
            raise WindowIntegrityError(
                "thread %s finished at call depth %d"
                % (thread.name, tw.depth))
        thread.result = value
        thread.state = DONE
        kernel.scheme.retire(tw)
        kernel.current = None
        events_on = kernel._tracing
        if events_on:
            kernel.events.emit("retire", tid=thread.tid, name=thread.name)
        for waiter in thread.join_waiters:
            waiter.blocked_on = None
            if events_on:
                kernel.events.emit("wake", tid=waiter.tid,
                                   on=thread.name, op="join")
            kernel.ready.push_woken(waiter)
        del thread.join_waiters[:]
        return True
    thread.returns += 1
    if kernel.verify_registers:
        sig = cpu.read_local(0)
        if sig != ("sig", thread.tid, tw.depth):
            raise WindowIntegrityError(
                "thread %s frame signature corrupted: %r at depth %d"
                % (thread.name, sig, tw.depth),
                thread=thread.name, depth=tw.depth)
    wf = cpu.wf
    wf._regs[wf._in_base[wf.cwp]] = value
    cpu.restore(tw)
    got = wf._regs[wf._out_base[wf.cwp]]
    if kernel.verify_registers and got is not value and got != value:
        raise WindowIntegrityError(
            "return value of %s corrupted across restore: %r != %r"
            % (thread.name, got, value),
            thread=thread.name, depth=tw.depth)
    thread.resume_value = got
    if kernel.audit:
        kernel._audit()
    return False


def _continue_pending(kernel: Kernel, thread: SimThread) -> bool:
    """Try to complete the in-flight op; False means block."""
    op = thread.pending
    t = type(op)
    if t is Write:
        stream, data = op.stream, op.data
        pushed = stream.push(data)
        if pushed:
            if stream.read_waiters:
                kernel._wake_readers(stream)
            if pushed < len(data):
                thread.pending = Write(stream, data[pushed:])
        if pushed >= len(data):
            thread.pending = None
            thread.resume_value = None
            return True
        return False
    if t is Read:
        stream = op.stream
        if stream.is_empty and not stream.closed:
            return False
        data = stream.pull(op.max_bytes)
        if data and stream.write_waiters:
            kernel._wake_writers(stream)
        thread.pending = None
        thread.resume_value = data
        return True
    if t is ReadLine:
        stream = op.stream
        if stream.has_line() or stream.at_eof:
            line = stream.pull_line()
            if line is None:
                line = b""
            if line and stream.write_waiters:
                kernel._wake_writers(stream)
            thread.pending = None
            thread.resume_value = line
            return True
        if stream.is_full:
            raise RuntimeFault(
                "readline on %r: line longer than the stream capacity"
                % stream.name)
        return False
    if t is Join:
        if op.thread.state != DONE:
            return False
        thread.pending = None
        thread.resume_value = op.thread.result
        return True
    raise RuntimeFault("unknown pending op %r" % (op,))


def _block(kernel: Kernel, thread: SimThread) -> None:
    op = thread.pending
    if type(op) is Join:
        target = op.thread
        target.join_waiters.append(thread)
        thread.blocked_on = "join %s" % target.name
        kind, on = "join", target.name
    else:
        stream = op.stream
        if type(op) is Write:
            stream.write_waiters.append(thread)
            thread.blocked_on = stream.write_label
            kind = "write"
        else:
            stream.read_waiters.append(thread)
            thread.blocked_on = stream.read_label
            kind = "read"
        on = stream.name or "stream"
    thread.state = BLOCKED
    thread.blocks += 1
    kernel.last_suspended = thread
    kernel.current = None
    if kernel._tracing:
        kernel.events.emit("block", tid=thread.tid, on=on, op=kind)
