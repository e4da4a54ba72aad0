"""Batch-exit reason codes shared by the execution loops.

The kernel runs each quantum on the batched run-until-event loop: the
current thread executes a straight-line batch of steps inside one
Python frame (:meth:`repro.runtime.kernel.Kernel._run_batched`, which
fuses the dispatch loop and the batch executor into one frame),
leaving the batch only on a *batch-exit event* — block, yield,
completion — with cycle accounting and per-thread statistics folded
once per batch instead of once per step.  It is the kernel's only
loop: step budgets, the watchdog, fault injection, the audit and
event-bus tracing are hooks on it.

The step-granular loop it replaced survives as a test-only executable
spec (``tests/support/trampoline.py``).  The batched loop is required
to be *bit-identical* to it: same counters, same per-thread
statistics, same trace-event sequences, same step counts, same errors
at the same step (``tests/core/test_batched_vs_trampoline.py`` and
``tests/runtime/test_batch_exit_edges.py`` enforce this).

The exit codes below name why a batch ended.  They replace the implicit
"one yielded op per step" protocol at quantum granularity: inside a
batch the runtime ops are consumed inline, and only the batch boundary
is reported.  The ISA machine (:mod:`repro.isa.machine`) shares the
same codes for its fetch-loop batches.
"""

from __future__ import annotations

#: thread blocked on a stream or a join — it left the CPU and sits on
#: the waiter list of whatever it blocked on
EXIT_BLOCKED = 1
#: thread executed ``YieldCPU`` with other runnable threads queued
EXIT_YIELDED = 2
#: thread's root procedure returned — the thread retired
EXIT_DONE = 3
#: the caller-imposed step/instruction budget expired mid-batch
EXIT_BUDGET = 4

EXIT_NAMES = {
    EXIT_BLOCKED: "blocked",
    EXIT_YIELDED: "yielded",
    EXIT_DONE: "done",
    EXIT_BUDGET: "budget",
}
