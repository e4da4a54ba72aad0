"""The one execution runtime, for callers that still name a backend.

The simulator runs on a single pure-Python runtime: the batched kernel
loop (:meth:`repro.runtime.kernel.Kernel._run_batched`) and the ISA
fetch loop
(:meth:`repro.isa.machine.Machine._run_thread`).  The optional compiled
twin of the batched and fetch loops was removed, so there is nothing
left to select.  :func:`select_backend` and the ``backend=`` argument
of :func:`repro.apps.spellcheck.run_spellchecker` and
:class:`repro.isa.Machine` remain only so callers written against the
two-backend API keep working: they accept ``None`` or ``"pure"`` and
reject anything else.
"""

from __future__ import annotations

from typing import Optional

#: the name of the one runtime
PURE = "pure"


def select_backend(backend: Optional[str] = None) -> str:
    """Return ``"pure"``; raise ``ValueError`` for any other request."""
    if backend is not None and backend != PURE:
        raise ValueError(
            "execution backend %r is not available: the compiled twin "
            "was removed and the pure-Python runtime is the only one"
            % (backend,))
    return PURE
