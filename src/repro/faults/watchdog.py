"""The kernel watchdog: max-steps-without-progress livelock detection.

"Progress" is anything that moves the simulation forward: a tick, a
call, a return, a spawn, or a completed blocking operation.  A pure
yield storm — threads bouncing through the ready queue without ever
moving data — makes none of these, and after ``max_stall`` such steps
the kernel raises :class:`~repro.runtime.errors.LivelockError` with
per-thread diagnostics instead of spinning forever.

The check happens at the start of every step: the watchdog fires at
step ``s`` once the ``max_stall`` steps before it all made no
progress.  :meth:`Watchdog.stalled_for` states that per step (the
step-granular reference loop calls it at every step).  The kernel's
batched loop reaches the same verdicts lazily: a stall can only grow
at a step that made no progress, so it reports just those steps
(:meth:`Watchdog.note_idle`) and checks where a check can fire: at the
steps that begin by completing a blocked operation
(:meth:`Watchdog.check_resume`) and after the steps it noted
(:meth:`Watchdog.stall`).  Steps that tick, call, return or spawn cost
the watchdog nothing.
"""

from __future__ import annotations

DEFAULT_MAX_STALL = 100_000


class Watchdog:
    """Tracks the gap between the step clock and the progress clock."""

    def __init__(self, max_stall: int = DEFAULT_MAX_STALL):
        if max_stall < 1:
            raise ValueError("watchdog max_stall must be >= 1, got %d"
                             % max_stall)
        self.max_stall = max_stall
        #: the progress clock when the current stall began, and the
        #: stall's first step
        self._last_marks = -1
        self._last_step = 0
        #: (step, progress) of the last step that began by trying to
        #: complete a blocked operation
        self._resumed = (-1, -1)

    def stalled_for(self, marks: int, step: int) -> int:
        """Steps since the progress counter last moved (0 = progress)."""
        if marks != self._last_marks:
            self._last_marks = marks
            self._last_step = step
            return 0
        return step - self._last_step

    def expired(self, marks: int, step: int) -> bool:
        return self.stalled_for(marks, step) >= self.max_stall

    # -- the lazy form ----------------------------------------------------

    def note_idle(self, marks: int, step: int) -> bool:
        """Record that ``step`` ran an operation that makes no progress.

        Every such step must be noted, in order.  Returns True when the
        check at the start of step ``step + 1`` fires.
        """
        rstep, rmarks = self._resumed
        if step == rstep and marks != rmarks:
            return False  # the step completed a blocked operation first
        if marks != self._last_marks:
            self._last_marks = marks
            self._last_step = step
        return step + 1 - self._last_step >= self.max_stall

    def stall(self, marks: int, step: int) -> int:
        """The stall the check at the start of ``step`` sees, given
        that every earlier step without progress was noted."""
        if marks != self._last_marks:
            return 0
        return step - self._last_step

    def check_resume(self, marks: int, step: int, issued: bool) -> int:
        """The check at the start of ``step``, a step that begins by
        trying to complete a blocked operation (``issued``: the
        previous step issued it); returns the stall it sees.  If the
        operation completes, the step makes progress whatever
        follows."""
        if issued:
            self.note_idle(marks, step - 1)
        self._resumed = (step, marks)
        return self.stall(marks, step)

    def __repr__(self) -> str:
        return "Watchdog(max_stall=%d)" % self.max_stall
