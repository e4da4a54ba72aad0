"""Window-occupancy timelines: who owned each physical window, over
time.

The paper's Figures 5–9 are snapshots of the window file as threads
come and go; this module records such snapshots at every context
switch and renders the whole run as a timeline — one row per physical
window, one column per scheduling quantum — which makes the difference
between the schemes directly visible (NS wipes the file every column;
SP's columns barely change).

Bind with ``kernel.timeline = OccupancyTimeline()``: the timeline is a
view over the kernel's quantum record (:mod:`repro.metrics.quanta`),
whose execution loop offers it one snapshot per dispatch.  Its
measures are computed from the stored ``(cycle, tid, kinds, tids)``
rows when asked; :attr:`OccupancyTimeline.samples` builds
:class:`TimelineSample` objects on demand.  Fed by hand
(:meth:`OccupancyTimeline.snapshot`) or from the event bus
(:meth:`OccupancyTimeline.on_event`) instead, it keeps a store of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import List, Optional, Tuple

from repro.metrics.quanta import OccupancySamples, QuantumRecord
from repro.windows.occupancy import FRAME, FREE, RESERVED

#: cell glyphs: thread ids 0..9 then letters; free and reserved
_FREE_GLYPH = "."
_RESERVED_GLYPH = "#"
_PRW_GLYPHS = "abcdefghijklmnopqrstuvwxyz"
_FRAME_GLYPHS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _glyph(kind: str, tid: Optional[int]) -> str:
    if kind == FREE:
        return _FREE_GLYPH
    if kind == RESERVED:
        if tid is None:
            return _RESERVED_GLYPH
        return _PRW_GLYPHS[tid % len(_PRW_GLYPHS)]
    return _FRAME_GLYPHS[tid % len(_FRAME_GLYPHS)]


@dataclass
class TimelineSample:
    """Occupancy of every window at one instant: a compact copy of the
    window map's kind and owner columns."""

    __slots__ = ("cycle", "running_tid", "kinds", "tids")

    cycle: int
    running_tid: int
    kinds: Tuple[str, ...]
    tids: Tuple[Optional[int], ...]

    @property
    def cells(self) -> List[str]:
        """One glyph per physical window (derived on demand)."""
        return [_glyph(k, t) for k, t in zip(self.kinds, self.tids)]


class OccupancyTimeline:
    """Records window-map snapshots; renders them as a timeline.

    Long runs are decimated in place rather than truncated: when the
    store fills, every other snapshot is discarded and the stride
    doubles, so the retained snapshots always span the whole run (at
    progressively coarser resolution) instead of only its beginning.
    """

    def __init__(self, max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.max_samples = max_samples
        self._store = OccupancySamples(max_samples)
        self.n_windows: Optional[int] = None
        #: the CPU the bus adapter snapshots; set when the timeline is
        #: bound to a kernel (``kernel.timeline = ...``)
        self.cpu = None

    def _bind(self, record: QuantumRecord, kernel) -> None:
        self._store = record.sample_occupancy(self.max_samples)
        self.n_windows = record.n_windows

    # -- event-bus adapter -------------------------------------------------

    def on_event(self, event) -> None:
        """Take one snapshot per ``dispatch`` event instead, when
        subscribed to a bus."""
        if event.kind == "dispatch" and self.cpu is not None:
            self.snapshot(self.cpu, event.tid, event.cycle)

    # -- hand feeding ------------------------------------------------------

    def snapshot(self, cpu, running_tid: int, cycle: int) -> None:
        wmap = cpu.map
        self.n_windows = wmap.n_windows
        self._store.offer(cycle, running_tid, wmap._kind, wmap._tid)

    # -- analysis ----------------------------------------------------------------

    @property
    def samples(self) -> List[TimelineSample]:
        """The retained snapshots as :class:`TimelineSample` objects
        (built on each access; the analyses read the rows directly)."""
        return [TimelineSample(*row) for row in self._store.rows]

    @property
    def n_samples(self) -> int:
        return len(self._store.rows)

    @property
    def dropped(self) -> int:
        """Snapshots not retained (decimated or skipped mid-stride)."""
        return self._store.dropped

    def occupancy_ratio(self) -> float:
        """Mean fraction of windows holding live frames."""
        rows = self._store.rows
        if not rows or not self.n_windows:
            return 0.0
        frames = sum(kinds.count(FRAME) for __, __, kinds, __ in rows)
        return frames / (len(rows) * self.n_windows)

    def churn(self) -> float:
        """Mean fraction of windows whose occupant changed between
        consecutive samples — low churn is the visual signature of the
        sharing schemes."""
        rows = self._store.rows
        if len(rows) < 2 or not self.n_windows:
            return 0.0
        # A cell's glyph changes iff its kind changes, or its owner
        # changes to one with a different glyph (glyphs wrap at 26/36).
        changed = 0
        for (__, __, kinds, tids), (__, __, cur_kinds, cur_tids) in zip(
                rows, rows[1:]):
            if tids == cur_tids:
                if kinds != cur_kinds:
                    changed += sum(map(ne, kinds, cur_kinds))
                continue
            changed += sum(1 for a, b, c, d in zip(kinds, cur_kinds,
                                                   tids, cur_tids)
                           if a != b or (c != d
                                         and _glyph(a, c) != _glyph(b, d)))
        return changed / ((len(rows) - 1) * self.n_windows)

    def distinct_owners(self, window: int) -> int:
        """How many different threads' frames a window held."""
        owners = set()
        for __, __, kinds, tids in self._store.rows:
            if kinds[window] == FRAME:
                owners.add(_glyph(FRAME, tids[window]))
        return len(owners)

    # -- rendering ----------------------------------------------------------------

    def render(self, max_columns: int = 100, legend: bool = True) -> str:
        """Rows = windows (W0 on top), columns = samples."""
        rows = self._store.rows
        if not rows or not self.n_windows:
            return "(no samples)"
        shown = rows
        if len(rows) > max_columns:
            step = len(rows) / max_columns
            shown = [rows[int(i * step)] for i in range(max_columns)]
        columns = [TimelineSample(*row).cells for row in shown]
        lines = []
        for w in range(self.n_windows):
            row = "".join(cells[w] for cells in columns)
            lines.append("W%-2d %s" % (w, row))
        if legend:
            dropped = self.dropped
            lines.append("")
            lines.append("    digits/letters=thread frames  "
                         "lowercase=PRW  #=reserved  .=free  "
                         "(%d samples%s)"
                         % (len(rows),
                            ", %d dropped" % dropped if dropped else ""))
        return "\n".join(lines)
