"""Counter bookkeeping."""

from collections import Counter as Tally

import pytest

from repro.metrics.counters import Counters
from repro.windows.thread_windows import ThreadWindows


def _windows(tid, saves=0, restores=0, switches=0):
    tw = ThreadWindows(tid)
    tw.stat_saves = saves
    tw.stat_restores = restores
    tw.stat_switches = switches
    return tw


class TestCounters:
    def test_trap_probability(self):
        c = Counters(saves=8, restores=2, overflow_traps=1,
                     underflow_traps=1, windows_spilled=1,
                     windows_restored=1)
        assert c.trap_probability == pytest.approx(2 / 10)
        assert c.window_traps == 2
        assert c.windows_spilled == 1
        assert c.windows_restored == 1

    def test_trap_probability_empty(self):
        assert Counters().trap_probability == 0.0

    def test_avg_switch_cycles(self):
        c = Counters(context_switches=2, switch_cycles=300,
                     switch_transfer_hist=Tally({(0, 0): 1, (1, 1): 1}))
        assert c.avg_switch_cycles == 150.0
        assert c.context_switches == 2
        assert c.transfer_histogram() == {(0, 0): 1, (1, 1): 1}

    def test_avg_switch_cycles_empty(self):
        assert Counters().avg_switch_cycles == 0.0

    def test_cycle_categories_sum(self):
        c = Counters(compute_cycles=10, call_cycles=5, trap_cycles=30,
                     switch_cycles=55)
        assert c.total_cycles == 100

    def test_per_thread_counters(self):
        c = Counters()
        c.fold_thread_stats([_windows(3, saves=2, switches=1),
                             _windows(5, saves=1)])
        assert c.per_thread_saves == {3: 2, 5: 1}
        assert c.per_thread_switches == {3: 1}

    def test_per_thread_restores(self):
        c = Counters(restores=3)
        threads = [_windows(3, saves=1, restores=2),
                   _windows(7, restores=1)]
        c.fold_thread_stats(threads)
        assert c.per_thread_restores == {3: 2, 7: 1}
        assert c.restores == 3
        assert sum(c.per_thread_restores.values()) == c.restores
        # the tallies are consumed: folding again adds nothing
        c.fold_thread_stats(threads)
        assert c.per_thread_restores == {3: 2, 7: 1}

    def test_snapshot_keys(self):
        snap = Counters().snapshot()
        assert snap["total_cycles"] == 0
        assert set(snap) >= {"saves", "restores", "overflow_traps",
                             "underflow_traps", "context_switches",
                             "per_thread_saves", "per_thread_restores"}

    def test_snapshot_per_thread_maps(self):
        c = Counters()
        c.fold_thread_stats([_windows(1, saves=1, restores=1),
                             _windows(2, restores=1)])
        snap = c.snapshot()
        assert snap["per_thread_saves"] == {1: 1}
        assert snap["per_thread_restores"] == {1: 1, 2: 1}
        # snapshot returns copies, not live references
        snap["per_thread_restores"][9] = 99
        assert 9 not in c.per_thread_restores
