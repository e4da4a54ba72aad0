"""Batch-exit reason codes shared by the execution loops.

The kernel runs each quantum on the batched run-until-event loop: the
current thread executes a straight-line batch of steps inside one
Python frame (:meth:`repro.runtime.kernel.Kernel._run_batched`, which
fuses the dispatch loop and the batch executor into one frame),
leaving the batch only on a *batch-exit event* — block, yield,
completion — with cycle accounting and per-thread statistics folded
once per batch instead of once per step.

The step-granular loop (:meth:`repro.runtime.kernel.Kernel._run_quantum`)
runs the configurations that need per-step hooks (fault injection,
watchdog, audit, event-bus tracing, step budgets) and is the
differential suite's reference loop (``tests/support/trampoline.py``
forces it on a kernel).

Both loops are required to be *bit-identical*: same counters, same
per-thread statistics, same trace-event sequences, same step counts
(``tests/core/test_batched_vs_trampoline.py`` enforces this).

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
