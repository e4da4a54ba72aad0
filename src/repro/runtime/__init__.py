"""Non-preemptive multithreading runtime over the window simulator.

Application code is written as Python *generator procedures*: a
procedure yields :mod:`repro.runtime.ops` commands (call a
subprocedure, read/write a stream, charge compute cycles) and returns
its result with a plain ``return``.  The kernel's execution loop runs
every procedure call as a simulated ``save`` and every return as a
simulated ``restore`` — so window traffic, traps and context switches
arise from real, data-dependent control flow, exactly as in the
paper's evaluation (§5).
"""

from repro.runtime.errors import (
    DeadlockError,
    LivelockError,
    RuntimeFault,
)
from repro.runtime.kernel import Kernel, RunResult
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
    NEW,
    READY,
    RUNNING,
    SimThread,
)

__all__ = [
    "DeadlockError",
    "LivelockError",
    "RuntimeFault",
    "Kernel",
    "RunResult",
    "Call",
    "CloseStream",
    "FlushHint",
    "Join",
    "Spawn",
    "Read",
    "ReadLine",
    "Tick",
    "Write",
    "YieldCPU",
    "ReadyQueue",
    "Stream",
    "StreamClosedError",
    "SimThread",
    "NEW",
    "READY",
    "RUNNING",
    "BLOCKED",
    "DONE",
]
