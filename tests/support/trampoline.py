"""Test-only access to the step-granular reference loop.

The kernel has one public execution path: ``Kernel._run_to_completion``
runs the batched loop (``_run_batched``) and drops to the step-granular
loop (``_run_quantum``) for configurations that need per-step hooks
(fault injection, watchdog, audit, event-bus tracing, step budgets).
That step-granular loop is also the differential suite's *reference
loop*, which the batched loop is pinned bit-identical against.

This module is the one sanctioned way for tests to run a kernel on the
reference loop.  :func:`force_trampoline` rebinds the instance's
``_run_batched`` to run one quantum on the step loop, so every quantum
takes the step-granular path the runtime itself uses for fault-injected
runs, with no production attribute involved.
"""

from __future__ import annotations

from functools import partial

from repro.runtime.kernel import Kernel

#: the label tests use to parameterize over {reference, batched}
#: (the step-granular loop's historical name, kept so test ids stay put)
REFERENCE_CORE = "generator"


def force_trampoline(kernel: Kernel) -> Kernel:
    """Pin an already-built kernel to the step-granular reference loop."""
    kernel._run_batched = partial(kernel._run_quantum, None)
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
