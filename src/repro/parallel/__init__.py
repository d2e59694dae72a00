"""Host threads for Algorithm 1's per-level grid fan-out.

The active grids of a level factor disjoint forests on disjoint rank
sets, and each grid's slice of the level's bound kernel program writes
only that grid's replica views. With ``FactorOptions(n_workers=N)`` the
plain walk's kernel dispatch of a level (:func:`repro.plan.interpret.run`)
is cut at the level's grid boundaries and the per-grid pieces run on one
:class:`GridThreads` pool, opened and closed by the 3D pipeline
(:func:`repro.lu3d.factor3d._factor`). Booking stays on the calling
thread, so ledgers, traces and factors are the serial run's by
construction.

The merged-grid variant fans out the same way: its grid plans bind to
their first z-layer's replica views. Where the fan-out cannot engage — a
width-1 run (the resilience monitor cuts the walk at every task), a
cost-only run (no kernel program) or a count that resolves to one worker
— :func:`resolve_threads` keeps the run serial and the run records the
:class:`ParallelFallback` it returns, never silently.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

__all__ = ["GridThreads", "LevelStats", "ParallelFallback",
           "resolve_threads", "resolve_workers"]


def resolve_workers(n_workers: int) -> int:
    """``0`` means one thread per host core; otherwise the value itself."""
    if n_workers < 0:
        raise ValueError("n_workers must be non-negative")
    return n_workers if n_workers else max(1, os.cpu_count() or 1)


def resolve_threads(n_workers: int, *, full_width: bool, numeric: bool
                    ) -> tuple[int, ParallelFallback | None]:
    """How many threads a run that asked for ``n_workers`` fans its levels
    out on, and why it stays serial when it asked for more than one
    (``None``: it did not). Threads engage only on a full-width walk (no
    resilience monitor), only numeric, and only with more than one
    resolved worker."""
    if n_workers == 1:
        return 1, None
    resolved = resolve_workers(n_workers)
    if not full_width:
        why = ("width-1 run: the resilience monitor (fault_plan / "
               "checkpoint_every) watches every task boundary of one "
               "serial walk")
    elif not numeric:
        why = "cost-only run: no kernel program to fan out"
    elif resolved <= 1:
        why = f"n_workers={n_workers} resolves to a single worker on this host"
    else:
        return resolved, None
    return 1, ParallelFallback(reason=why, requested_workers=n_workers)


@dataclass
class LevelStats:
    """Host-side counters of one level's grid fan-out."""

    level: int
    n_tasks: int
    n_workers: int
    wall_seconds: float    # parallel region (submit -> last piece done)
    task_seconds: float    # sum of per-piece busy time inside the threads
    #: Always 0: nothing is forked, exported or merged around a level.
    serial_seconds: float = 0.0
    #: Always 0: the threads share the one arena, nothing is shipped.
    bytes_shipped: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the pool kept busy during the fan-out."""
        cap = self.n_workers * self.wall_seconds
        return self.task_seconds / cap if cap > 0 else 0.0


@dataclass(frozen=True)
class ParallelFallback:
    """Why a run that requested workers stayed serial.

    Appended to ``Factor3DResult.parallel_stats`` by the 3D drivers so the
    decision is reportable (:func:`repro.analysis.format_parallel_stats`)
    instead of silent.
    """

    reason: str
    requested_workers: int
    #: Always ``'thread'`` (the only pool kind).
    backend: str = "thread"


class GridThreads:
    """One thread pool for a run's level fan-outs, and their stats."""

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._pool = ThreadPoolExecutor(n_workers,
                                        thread_name_prefix="repro-grid")
        self.stats: list[LevelStats] = []

    def run(self, level: int, fn, pieces) -> int:
        """``fn(lo, hi)`` for every ``(lo, hi)`` of ``pieces`` — one per
        grid — concurrently; returns the sum of what they return. The
        first piece to raise re-raises here once every piece is done."""
        t0 = time.perf_counter()
        futures = [self._pool.submit(_timed, fn, lo, hi) for lo, hi in pieces]
        wait(futures)
        done = [f.result() for f in futures]
        self.stats.append(LevelStats(
            level=level, n_tasks=len(pieces), n_workers=self.n_workers,
            wall_seconds=time.perf_counter() - t0,
            task_seconds=sum(s for _, s in done)))
        return sum(n for n, _ in done)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def _timed(fn, lo: int, hi: int) -> tuple:
    t0 = time.perf_counter()
    return fn(lo, hi), time.perf_counter() - t0
