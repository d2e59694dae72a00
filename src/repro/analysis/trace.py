"""Event tracing: per-rank timelines of the simulated execution.

Attach a :class:`Trace` to a :class:`repro.comm.Simulator` and every
compute interval, message transfer, and receive wait is recorded as a
``TraceEvent``. The trace answers the questions the paper's Fig. 9
discussion raises qualitatively — *where* does the critical rank spend its
time, how idle are the other layers while grid-0 factors the ancestors —
and exports a text Gantt chart plus per-rank utilization statistics.

A traced run is the production run: :meth:`repro.comm.Simulator.book`'s
clock loop appends one row per interval to :attr:`Trace.rows`. Tracing is
opt-in and adds nothing to untraced runs, whose loop is the row-free one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.comm.events import PHASES, TRACE_KINDS

__all__ = ["Trace", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One interval on one rank's timeline."""

    rank: int
    start: float
    end: float
    kind: str        # one of repro.comm.events.TRACE_KINDS
    phase: str       # one of repro.comm.events.PHASES
    words: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Event container with aggregation and rendering helpers."""

    def __init__(self) -> None:
        #: ``(rank, start, end, kind, phase, words)`` per interval, in
        #: booking order, empty ones included.
        self.rows: list[tuple] = []

    @property
    def events(self) -> list[TraceEvent]:
        """The rows as :class:`TraceEvent` s, built on each read, less the
        zero-length, zero-word ones."""
        return [TraceEvent(*r) for r in self.rows if r[2] > r[1] or r[5]]

    def record(self, rank: int, start: float, end: float, kind: str,
               phase: str, words: float = 0.0) -> None:
        if end < start:
            raise ValueError("event ends before it starts")
        # A typo'd kind/phase used to vanish silently from aggregations;
        # the vocabularies are closed (repro.comm.events), so enforce them.
        if kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}; "
                             f"expected one of {TRACE_KINDS}")
        if phase not in PHASES:
            raise ValueError(f"unknown trace event phase {phase!r}; "
                             f"expected one of {PHASES}")
        self.rows.append((rank, start, end, kind, phase, words))

    # -- aggregation ---------------------------------------------------------

    def by_rank(self) -> dict[int, list[TraceEvent]]:
        out: dict[int, list[TraceEvent]] = defaultdict(list)
        for ev in self.events:
            out[ev.rank].append(ev)
        return dict(out)

    def busy_time(self, rank: int, kinds: tuple[str, ...] | None = None
                  ) -> float:
        return sum(ev.duration for ev in self.events
                   if ev.rank == rank and (kinds is None or ev.kind in kinds))

    def utilization(self, nranks: int, horizon: float | None = None
                    ) -> np.ndarray:
        """Fraction of the makespan each rank spends in *compute* events."""
        if horizon is None:
            horizon = max((ev.end for ev in self.events), default=0.0)
        util = np.zeros(nranks)
        if horizon <= 0:
            return util
        for ev in self.events:
            if ev.kind not in ("send", "recv_wait"):
                util[ev.rank] += ev.duration
        return util / horizon

    def time_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for ev in self.events:
            out[ev.kind] += ev.duration
        return dict(out)

    # -- rendering -------------------------------------------------------------

    _GLYPHS = {"diag": "D", "panel": "P", "schur": "S", "reduce_add": "R",
               "solve": "V", "send": ">", "recv_wait": "."}

    def gantt(self, nranks: int, width: int = 72) -> str:
        """Text Gantt chart: one row per rank, one glyph per time bucket.

        Each bucket shows the kind that dominated it; idle buckets are
        blank. Meant for eyeballing schedules in tests and notebooks, not
        for precision.
        """
        events = self.events
        horizon = max((ev.end for ev in events), default=0.0)
        if horizon <= 0:
            return "\n".join(f"r{r:<3d}|" for r in range(nranks))
        dt = horizon / width
        rows = []
        for r in range(nranks):
            buckets = [defaultdict(float) for _ in range(width)]
            for ev in events:
                if ev.rank != r or ev.duration == 0:
                    continue
                b0 = min(int(ev.start / dt), width - 1)
                b1 = min(int(np.ceil(ev.end / dt)), width)
                for b in range(b0, b1):
                    lo = max(ev.start, b * dt)
                    hi = min(ev.end, (b + 1) * dt)
                    if hi > lo:
                        buckets[b][ev.kind] += hi - lo
            line = "".join(
                self._GLYPHS.get(max(b, key=b.get), "?") if b else " "
                for b in buckets)
            rows.append(f"r{r:<3d}|{line}|")
        return "\n".join(rows)

    def to_rows(self) -> list[tuple]:
        """CSV-ready rows (rank, start, end, kind, phase, words)."""
        return [(ev.rank, ev.start, ev.end, ev.kind, ev.phase, ev.words)
                for ev in sorted(self.events, key=lambda e: (e.start, e.rank))]
