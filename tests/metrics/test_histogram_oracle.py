"""The derived switch and trap histograms against the event stream.

``sim_switch_cycles_hist`` and ``sim_trap_cycles_hist`` are not
recorded per event: they are folded from the counts each scheme keeps
in its memoised cost cells.  On one traced run, both must equal a
histogram that observes the ``cycles`` of every ``switch`` /
``overflow`` / ``underflow`` event the bus carried — bucket for
bucket, with the same count, sum, min and max.  The runs cover every
cost-key shape: NS ``(saves, restores)`` switches and its multi-window
traps at transfer depth 2, SNP/SP switches with and without the
flush-type switch, SP's allocation flag, the sharing schemes' three
trap costs, and the ISA ``Machine``.
"""

import pytest

from repro import Call, FlushHint, Kernel, Tick, YieldCPU
from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.isa import Machine, assemble
from repro.isa.programs import TAK
from repro.metrics.events import TraceRecorder
from repro.metrics.telemetry import CYCLE_BUCKETS, Histogram, RunTelemetry

FIELDS = ("bucket_counts", "count", "sum", "min", "max")
SWITCH_KINDS = ("switch",)
TRAP_KINDS = ("overflow", "underflow")


def oracle(events, kinds):
    hist = Histogram("oracle", CYCLE_BUCKETS)
    for event in events:
        if event.kind in kinds:
            hist.observe(event.attrs["cycles"])
    return hist


def assert_matches_events(telemetry, scheme, events):
    telemetry.snapshot()  # folds the scheme counts into the histograms
    registry = telemetry.registry
    for name, kinds in (("sim_switch_cycles_hist", SWITCH_KINDS),
                        ("sim_trap_cycles_hist", TRAP_KINDS)):
        derived = registry.get('%s{scheme="%s"}' % (name, scheme))
        expected = oracle(events, kinds)
        assert expected.count > 0, "%s: the run produced no events" % name
        got = {f: getattr(derived, f) for f in FIELDS}
        want = {f: getattr(expected, f) for f in FIELDS}
        assert got == want, name


def run_traced_kernel(kernel, build):
    telemetry = RunTelemetry(every=4096)
    telemetry.attach(kernel)
    recorder = kernel.enable_tracing()
    build(kernel)
    kernel.run(max_steps=1_000_000)
    return telemetry, recorder


def deep(n):
    yield Tick(1)
    if n == 0:
        yield YieldCPU()
        return 0
    below = yield Call(deep, n - 1)
    return below + 1


def diver(rounds, depth, flush):
    """Calls ``depth`` deep and yields at the bottom — with the
    flush-type switch requested on every other round when ``flush`` —
    then unwinds."""
    total = 0
    for i in range(rounds):
        if flush:
            yield FlushHint(i % 2 == 0)
        total += yield Call(deep, depth)
    return total


def build_divers(flush):
    def build(kernel):
        for i in range(3):
            kernel.spawn(diver, 6, 4 + 3 * i, flush, name="d%d" % i)
    return build


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_spellcheck_histograms_match_events(scheme):
    telemetry = RunTelemetry(every=4096)
    recorders = []

    def instrument(kernel):
        telemetry.attach(kernel)
        recorders.append(kernel.enable_tracing())

    run_spellchecker(8, scheme, SpellConfig.named("high", "coarse",
                                                  scale=0.03),
                     instrument=instrument)
    assert_matches_events(telemetry, scheme, recorders[0])


def test_ns_transfer_depth_histograms_match_events():
    kernel = Kernel(n_windows=6, scheme="NS",
                    scheme_kwargs={"transfer_depth": 2})
    telemetry, recorder = run_traced_kernel(kernel, build_divers(False))
    __, traps = kernel.scheme.cycle_counts()
    # two-window overflows (an NS overflow on six windows always has
    # room for two), and both one- and two-window underflows
    assert len(traps) == 3, traps
    assert_matches_events(telemetry, "NS", recorder)


@pytest.mark.parametrize("scheme", ["SNP", "SP"])
def test_flush_switch_histograms_match_events(scheme):
    kernel = Kernel(n_windows=6, scheme=scheme)
    telemetry, recorder = run_traced_kernel(kernel, build_divers(True))
    flushed = [key for key, (__, n) in
               kernel.scheme._switch_cost_cache.items() if n and key[-1]]
    assert flushed, "no flush-type switch happened"
    assert_matches_events(telemetry, scheme, recorder)


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_machine_histograms_match_events(scheme):
    machine = Machine(assemble(TAK), n_windows=5, scheme=scheme)
    telemetry = RunTelemetry(every=4096)
    machine.attach_telemetry(telemetry)
    recorder = TraceRecorder()
    machine.cpu.events.subscribe(recorder)
    machine.add_thread("start", name="a")
    machine.add_thread("start", name="b")
    machine.run(max_steps=5_000_000)
    assert_matches_events(telemetry, scheme, recorder)
