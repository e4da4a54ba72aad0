"""What is left of the old execution selectors.

``select_backend`` and the ``backend=`` argument of ``run_spellchecker``
and ``Machine`` outlived the removal of the compiled twin for callers
written against the two-backend API (the benchmark harness among
them): they accept ``None``/``"pure"`` and reject anything else.  Of
the retired ``"generator"`` core, two things remain: the test-support
switch to the step-granular reference loop, and bundle configs that
still name the old core.
"""

import pytest

from repro import Kernel, Tick
from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.isa import Machine, assemble
from repro.runtime.backend import select_backend

PROGRAM = """
start:
    mov 1, %l0
    halt
"""
CONFIG = SpellConfig.named("high", "coarse", scale=0.01)


def tick_workload(kernel):
    def body():
        yield Tick(3)
        return "ok"

    kernel.spawn(body, name="t")


class TestSelection:
    def test_auto_detect_matches_availability(self):
        assert select_backend(None) == "pure"
        assert select_backend("pure") == "pure"

    def test_pure_entry_points_run(self):
        result, __ = run_spellchecker(8, "SP", CONFIG, backend="pure")
        assert result.steps > 0
        machine = Machine(assemble(PROGRAM), backend="pure")
        thread = machine.add_thread("start")
        machine.run()
        assert thread.done and thread.instructions == 2

    def test_unknown_backend_rejected(self):
        for backend in ("compiled", "turbo"):
            with pytest.raises(ValueError, match="compiled twin"):
                select_backend(backend)
            with pytest.raises(ValueError, match="compiled twin"):
                run_spellchecker(8, "SP", CONFIG, backend=backend)
            with pytest.raises(ValueError, match="compiled twin"):
                Machine(assemble(PROGRAM), backend=backend)


class TestGeneratorRetirement:
    def test_trampoline_support_module_forces_reference_loop(
            self, monkeypatch):
        """A forced kernel never enters the batched loop; an ordinary
        one does."""
        from tests.support.trampoline import make_kernel

        def batched_loop(self, max_steps=None):
            raise AssertionError("batched loop entered")

        monkeypatch.setattr(Kernel, "_run_batched", batched_loop)
        kernel = make_kernel(core="generator")
        tick_workload(kernel)
        kernel.run()
        assert kernel.threads[0].result == "ok"
        assert kernel._steps > 0

        kernel = make_kernel(core="batched")
        tick_workload(kernel)
        with pytest.raises(AssertionError, match="batched loop entered"):
            kernel.run()

    def test_recorded_generator_bundle_config_still_replays(self):
        from repro.faults.workloads import run_workload

        result = run_workload({"workload": "synthetic-ping-pong",
                               "core": "generator", "rounds": 3})
        assert result.steps > 0
