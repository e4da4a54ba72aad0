"""Occupancy timelines: sampling, analysis and rendering."""

import pytest

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.metrics.tracing import OccupancyTimeline


def _run(scheme, n_windows=8, items=40, max_samples=4096):
    kernel = Kernel(n_windows=n_windows, scheme=scheme)
    kernel.timeline = OccupancyTimeline(max_samples=max_samples)
    stream = kernel.stream(2, "s")

    def producer(s):
        for i in range(items):
            yield Call(_leaf, i)
            yield Write(s, bytes([i % 251]))
        yield CloseStream(s)
        return None

    def _leaf(i):
        yield Tick(2)
        return i

    def consumer(s):
        total = 0
        while True:
            data = yield Read(s, 4)
            if not data:
                return total
            total += sum(data)
            yield Call(_leaf, len(data))

    kernel.spawn(producer, stream, name="p")
    kernel.spawn(consumer, stream, name="c")
    kernel.run()
    return kernel.timeline


class TestSampling:
    def test_samples_taken_per_dispatch(self):
        timeline = _run("SP")
        assert len(timeline.samples) > 10
        assert timeline.n_windows == 8
        for sample in timeline.samples:
            assert len(sample.cells) == 8

    def test_max_samples_respected(self):
        timeline = _run("SP", max_samples=5)
        assert 0 < len(timeline.samples) <= 5
        assert timeline.dropped > 0
        assert "dropped" in timeline.render()

    def test_decimation_spans_whole_run(self):
        """Overflowing the budget decimates in place (keep every other
        sample, double the stride) instead of truncating, so the last
        retained sample is from the run's tail, not its head."""
        full = _run("SP", max_samples=4096)
        small = _run("SP", max_samples=8)
        assert len(small.samples) <= 8
        # All snapshots are accounted for: kept + dropped == taken.
        assert len(small.samples) + small.dropped == len(full.samples)
        # End-to-end coverage: the decimated timeline still reaches
        # (close to) the final dispatch of the run.
        last_full = full.samples[-1].cycle
        last_small = small.samples[-1].cycle
        assert last_small >= last_full * 0.7

    def test_decimation_keeps_even_spacing(self):
        full = _run("SP", max_samples=4096)
        small = _run("SP", max_samples=8)
        # The retained samples are a strided subsequence of the full
        # ones: every kept cycle also appears in the full timeline.
        full_cycles = [s.cycle for s in full.samples]
        kept = [s.cycle for s in small.samples]
        assert all(c in full_cycles for c in kept)
        assert kept == sorted(kept)


class TestAnalysis:
    def test_sharing_keeps_more_frames_resident(self):
        """The visual signature of sharing: suspended threads' frames
        stay in the file, so mean live-frame occupancy is higher than
        under NS (which wipes the file at every switch)."""
        ns = _run("NS")
        sp = _run("SP")
        assert sp.occupancy_ratio() > ns.occupancy_ratio()

    def test_occupancy_ratio_bounds(self):
        timeline = _run("SNP")
        assert 0.0 < timeline.occupancy_ratio() < 1.0

    def test_windows_shared_by_multiple_threads_over_time(self):
        timeline = _run("SNP", n_windows=5)
        assert any(timeline.distinct_owners(w) >= 2
                   for w in range(5))

    def test_empty_timeline_safe(self):
        timeline = OccupancyTimeline()
        assert timeline.occupancy_ratio() == 0.0
        assert timeline.churn() == 0.0
        assert timeline.render() == "(no samples)"


class TestRendering:
    def test_render_shape(self):
        timeline = _run("SP", n_windows=6)
        text = timeline.render(max_columns=20)
        lines = text.splitlines()
        assert lines[0].startswith("W0 ")
        assert lines[5].startswith("W5 ")
        body = lines[0][4:]
        assert len(body) <= 20

    def test_render_contains_thread_glyphs(self):
        timeline = _run("SP")
        text = timeline.render()
        assert "0" in text or "1" in text
        assert "." in text


class TestCompactSamples:
    """Samples keep the window map's kind/owner columns; every analysis
    must equal the glyph-based reference, including owners whose
    glyphs wrap (tid >= 26 for PRWs, >= 36 for frames)."""

    @staticmethod
    def _random_timeline(seed, n_windows=7, n_samples=300, max_tid=90):
        import random
        from types import SimpleNamespace

        from repro.windows.occupancy import WindowMap

        rng = random.Random(seed)
        wmap = WindowMap(n_windows)
        cpu = SimpleNamespace(map=wmap)
        timeline = OccupancyTimeline(max_samples=64)
        for cycle in range(n_samples):
            for __ in range(rng.randrange(3)):
                w = rng.randrange(n_windows)
                pick = rng.randrange(4)
                tid = rng.choice((0, 1, 26, 27, 36, 37, 62,
                                  rng.randrange(max_tid)))
                if pick == 0:
                    wmap.set_free(w)
                elif pick == 1:
                    wmap.set_reserved(w, None)
                elif pick == 2:
                    wmap.set_reserved(w, tid)
                else:
                    wmap.set_frame(w, tid)
            timeline.snapshot(cpu, cycle % 5, cycle)
        return timeline

    @staticmethod
    def _reference(timeline):
        from repro.metrics.tracing import _FRAME_GLYPHS

        rows = [s.cells for s in timeline.samples]
        n = timeline.n_windows
        frames = sum(sum(1 for c in r if c in _FRAME_GLYPHS) for r in rows)
        changed = sum(sum(1 for a, b in zip(p, c) if a != b)
                      for p, c in zip(rows, rows[1:]))
        owners = [len({c for r in rows for c in [r[w]]
                       if c in _FRAME_GLYPHS}) for w in range(n)]
        return (frames / (len(rows) * n),
                changed / ((len(rows) - 1) * n), owners)

    @pytest.mark.parametrize("seed", range(6))
    def test_analyses_match_glyph_reference(self, seed):
        timeline = self._random_timeline(seed)
        ratio, churn, owners = self._reference(timeline)
        assert timeline.occupancy_ratio() == ratio
        assert timeline.churn() == churn
        assert [timeline.distinct_owners(w)
                for w in range(timeline.n_windows)] == owners
        assert timeline.dropped > 0  # decimation exercised

    def test_cells_and_render_use_glyphs(self):
        timeline = self._random_timeline(3)
        sample = timeline.samples[0]
        assert len(sample.cells) == timeline.n_windows
        assert isinstance(sample.kinds, tuple)
        assert isinstance(sample.tids, tuple)
        lines = timeline.render(max_columns=10, legend=False).splitlines()
        assert len(lines) == timeline.n_windows
        step = len(timeline.samples) / 10
        columns = [timeline.samples[int(i * step)].cells
                   for i in range(10)]
        for w, line in enumerate(lines):
            assert line[4:] == "".join(col[w] for col in columns)
