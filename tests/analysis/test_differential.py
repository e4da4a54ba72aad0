"""The exactness contract: static predictions == dynamic counters.

For every committed program under its canonical launch, across all
three schemes and three window-file sizes (4, SP's minimum, where
wraparound and spill traffic is densest; 8; 32), the abstract
interpreter's predicted counters must match the real machine's
``Counters`` attribute-for-attribute (including the switch-transfer
histogram and every cycle category), the predicted WIM wraparounds
must match the dynamic count of saves landing in window ``n-1``, and
the per-thread maximum depth must match the dynamic trace.  A window file too small
for the scheme is rejected the same way on both sides.  The
stream-topology verdicts get the same treatment against both execution
cores.
"""

import pytest

from repro.analysis import AbstractMachine, ProbeKernel, analyze_kernel
from repro.analysis.cli import main as analysis_main
from repro.analysis.verifier import (comparable_counters, corpus_cases,
                                     verify_program)
from repro.isa import Machine, assemble
from repro.runtime.errors import DeadlockError
from repro.runtime.ops import Read, Write
from repro.windows.errors import WindowGeometryError
from tests.support.trampoline import make_kernel

SCHEMES = ("NS", "SNP", "SP")
WINDOW_COUNTS = (4, 8, 32)
CORES = ("batched", "generator")


def _run_dynamic(case, scheme, n_windows):
    machine = Machine(assemble(case.source), n_windows=n_windows,
                      scheme=scheme)
    wraparounds = 0
    max_depth = {}

    def watch(event):
        nonlocal wraparounds
        if event.kind == "save":
            if event.get("window") == n_windows - 1:
                wraparounds += 1
            depth = event.get("depth", 0)
            if depth > max_depth.get(event.tid, 0):
                max_depth[event.tid] = depth

    machine.cpu.events.subscribe(watch)
    for addr, value in case.pokes:
        machine.poke(addr, value)
    threads = [machine.add_thread(spec.entry, args=spec.args,
                                  name=spec.name)
               for spec in case.threads]
    exits = machine.run(max_steps=case.max_steps)
    # initial depth-1 frames never pass through a save event
    for thread in threads:
        max_depth.setdefault(thread.tid, 1)
    return exits, machine.counters, wraparounds, max_depth


def _run_static(case, scheme, n_windows):
    machine = AbstractMachine(assemble(case.source), n_windows=n_windows,
                              scheme=scheme)
    for addr, value in case.pokes:
        machine.poke(addr, value)
    threads = [machine.add_thread(spec.entry, args=spec.args,
                                  name=spec.name)
               for spec in case.threads]
    exits = machine.run(max_steps=case.max_steps)
    return exits, machine, threads


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n_windows", WINDOW_COUNTS)
def test_corpus_counters_exact(scheme, n_windows):
    for case in corpus_cases():
        exits_d, counters_d, wraps_d, depth_d = _run_dynamic(
            case, scheme, n_windows)
        exits_s, machine_s, threads_s = _run_static(
            case, scheme, n_windows)
        label = "%s/%s/w%d" % (case.name, scheme, n_windows)
        assert exits_s == exits_d, label
        static = comparable_counters(machine_s.counters)
        dynamic = comparable_counters(counters_d)
        for key in dynamic:
            assert static[key] == dynamic[key], "%s: %s" % (label, key)
        assert machine_s.wraparounds == wraps_d, label
        for thread in threads_s:
            assert thread.max_depth == depth_d[thread.tid], (
                "%s: tid %d max depth" % (label, thread.tid))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_per_thread_stats_exact(scheme):
    """The abstract machine's per-thread save/restore/switch attribution
    matches the dynamic ``ThreadWindows`` stats (two-thread interleaved
    case)."""
    case = next(c for c in corpus_cases() if c.name == "two_counters")
    machine = Machine(assemble(case.source), n_windows=6, scheme=scheme)
    for s in case.threads:
        machine.add_thread(s.entry, args=s.args, name=s.name)
    machine.run(max_steps=case.max_steps)
    amachine = AbstractMachine(assemble(case.source), n_windows=6,
                               scheme=scheme)
    for s in case.threads:
        amachine.add_thread(s.entry, args=s.args, name=s.name)
    amachine.run(max_steps=case.max_steps)
    predicted = amachine.counters
    counters = machine.counters
    assert dict(predicted.per_thread_saves) == dict(
        counters.per_thread_saves)
    assert dict(predicted.per_thread_restores) == dict(
        counters.per_thread_restores)
    assert dict(predicted.per_thread_switches) == dict(
        counters.per_thread_switches)


@pytest.mark.parametrize("scheme,n_windows",
                         [("NS", 2), ("SNP", 2), ("SP", 3)])
def test_too_few_windows_rejected_alike(scheme, n_windows, capsys):
    """Below a scheme's minimum window count, the verifier raises the
    error ``Machine`` raises at construction, and ``check`` reports it
    as a usage error (exit 2, one stderr line)."""
    case = corpus_cases()[0]
    program = assemble(case.source)
    with pytest.raises(WindowGeometryError) as dynamic:
        Machine(program, n_windows=n_windows, scheme=scheme)
    with pytest.raises(Exception) as static:
        verify_program(program, name=case.name, threads=case.threads,
                       n_windows=n_windows, scheme=scheme)
    assert type(static.value) is type(dynamic.value)
    assert str(static.value) == str(dynamic.value)

    code = analysis_main(["check", "--corpus", "--scheme", scheme,
                          "--windows", str(n_windows)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "error: %s: %s" % (type(dynamic.value).__name__, dynamic.value)]


# -- stream-topology verdicts against both execution cores ---------------


def _lonely_reader(stream):
    data = yield Read(stream, 16)
    assert data  # pragma: no cover - never reached


def _build_deadlocked(kernel):
    stream = kernel.stream(64, name="orphan")
    kernel.spawn(_lonely_reader, stream, name="reader")


def _source(stream):
    yield Write(stream, b"payload")


def _sink(stream):
    yield Read(stream, 7)


def _build_clean(kernel):
    stream = kernel.stream(8, name="pipe")
    kernel.spawn(_source, stream, name="src")
    kernel.spawn(_sink, stream, name="dst")


@pytest.mark.parametrize("core", CORES)
def test_static_deadlock_verdict_matches_dynamic(core):
    """A statically-guaranteed deadlock really deadlocks — on both
    execution cores — and a statically-clean chain really completes."""
    probe = ProbeKernel()
    _build_deadlocked(probe)
    report = analyze_kernel(probe)
    assert [f.rule for f in report.errors] == ["stream-never-written"]

    kernel = make_kernel(core=core, n_windows=8, scheme="SP")
    _build_deadlocked(kernel)
    with pytest.raises(DeadlockError):
        kernel.run()

    probe = ProbeKernel()
    _build_clean(probe)
    assert analyze_kernel(probe).ok

    kernel = make_kernel(core=core, n_windows=8, scheme="SP")
    _build_clean(kernel)
    kernel.run()  # completes


@pytest.mark.parametrize("core", CORES)
def test_cycle_candidates_are_candidates_not_errors(core):
    """Ping-pong is a static cycle *candidate* that dynamically
    completes on both cores — the verdicts must agree: reported as a
    candidate (meta), not as a guaranteed deadlock (error)."""
    from repro.apps.synthetic import spawn_ping_pong

    probe = ProbeKernel()
    spawn_ping_pong(probe, rounds=4)
    report = analyze_kernel(probe)
    assert report.ok
    assert report.meta["cycles"], "the write/read cycle must be seen"

    kernel = make_kernel(core=core, n_windows=8, scheme="SNP")
    spawn_ping_pong(kernel, rounds=4)
    kernel.run()  # completes despite the cycle


@pytest.mark.parametrize("core", CORES)
def test_committed_workloads_clean_and_complete(core):
    """Every registered workload is statically clean and dynamically
    completes under its default parameters on both cores."""
    from repro.analysis import analyze_workload_config
    from repro.faults.workloads import WORKLOADS, run_workload

    for name in sorted(WORKLOADS):
        report = analyze_workload_config({"workload": name})
        assert report.clean, (name, [f.describe() for f in report.findings])
        run_workload({"workload": name, "core": core,
                      "scale": 0.05, "max_steps": 2_000_000})
