"""Multi-core fan-out of Algorithm 1's independent per-grid factorizations.

The paper's central structural claim is that the ``Pz`` subtree-forests of
a level factor *independently* on their own 2D grids. The simulator's
driver used to walk them in a Python loop, so host wall-clock grew
linearly in ``Pz`` — the opposite of what the algorithm promises. This
module restores the missing concurrency at the host level:

* the 3D level scheduler forks one sub-simulator per active grid
  (:meth:`repro.comm.Simulator.fork` — the grid's exact per-rank ledger
  state, nothing else) and, in numeric mode, lays the grid's replica
  blocks the level's nodes touch out in shared memory
  (:class:`repro.parallel.shm.ShmTransport`);
* a ``ProcessPoolExecutor`` runs the shared plan interpreter on each
  grid's sub-plan against its fork;
* each worker returns a :class:`repro.comm.LedgerDelta` (its block
  mutations landed in the shared segments), and the parent merges them
  **in grid order**, so ledgers and factors are bit-for-bit identical to
  the serial schedule no matter how the OS schedules the workers.

Determinism holds because the per-level rank sets are disjoint (each
z-layer is a contiguous rank block) and each fork starts from the exact
parent-side state: the merged arrays are copies of what the serial loop
would have written, and the only shared counters are integers.

The pool is created lazily on the first level with ≥ 2 runnable grids and
reused across levels; ``n_workers = 1`` (the default) never touches this
module, and ``n_workers = 0`` means one worker per host core.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.comm.simulator import CommError, LedgerDelta, Simulator
from repro.parallel.shm import ShmViewHandle, attach_views

__all__ = ["GridTask", "GridOutcome", "LevelStats", "ParallelExecutor",
           "ParallelFallback", "resolve_workers"]


def resolve_workers(n_workers: int) -> int:
    """``0`` means one worker per host core; otherwise the value itself."""
    if n_workers < 0:
        raise ValueError("n_workers must be non-negative")
    return n_workers if n_workers else max(1, os.cpu_count() or 1)


@dataclass
class GridTask:
    """One grid's share of a level, self-contained for worker transport.

    ``plan`` is the grid's :class:`repro.plan.GridPlan` (it names its
    kernel backend as a string, its 2D grid as ``(px, py, base)`` and its
    tasks as ndarrays, so it pickles as plain data); ``sub`` the forked
    simulator carrying the grid's ledger state; ``blocks`` the exported
    replica view — a :class:`repro.parallel.shm.ShmViewHandle` descriptor,
    or ``None`` in cost-only mode; ``fuse`` the walk width
    (:attr:`repro.plan.ExecMode.fuse`).
    """

    plan: object
    sub: Simulator
    blocks: ShmViewHandle | None
    fuse: bool = False


@dataclass
class GridOutcome:
    """What a worker hands back: the ledger delta and the interpreter's
    ``Factor2DResult`` (block mutations landed in shared memory)."""

    g: int
    delta: LedgerDelta
    result: object
    task_seconds: float


@dataclass
class LevelStats:
    """Host-side parallel-efficiency counters for one fanned-out level."""

    level: int
    n_tasks: int
    n_workers: int
    wall_seconds: float    # parallel region (submit -> last result)
    task_seconds: float    # sum of per-task busy time inside workers
    serial_seconds: float  # parent-side fork/export + merge/import time
    #: Bytes of shared-memory descriptors pickled to the workers this
    #: level (0 in cost-only mode: no blocks shipped).
    bytes_shipped: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool kept busy during the fan-out."""
        cap = self.n_workers * self.wall_seconds
        return self.task_seconds / cap if cap > 0 else 0.0

    @property
    def serial_fraction(self) -> float:
        """Amdahl share: parent-side serialized time over total level time."""
        total = self.serial_seconds + self.wall_seconds
        return self.serial_seconds / total if total > 0 else 0.0


@dataclass(frozen=True)
class ParallelFallback:
    """Why a run that requested workers stayed serial.

    Appended to ``Factor3DResult.parallel_stats`` by the 3D drivers so the
    decision is reportable (:func:`repro.analysis.format_parallel_stats`)
    instead of silent.
    """

    reason: str
    requested_workers: int
    #: Always ``'process'`` (the only pool kind); the field stays because
    #: callers — ``benchmarks/e2e`` among them — construct fallbacks with it.
    backend: str = "process"


# Per-process worker state, installed once per pool worker by
# ``_worker_init`` so the symbolic factorization is shipped (or inherited,
# under the fork start method) once instead of per task.
_WORKER_STATE: dict = {}


def _worker_init(sf, options) -> None:
    _WORKER_STATE["sf"] = sf
    _WORKER_STATE["options"] = options


def _worker_run(task: GridTask) -> GridOutcome:
    """Run one grid's sub-plan against its forked simulator.

    A :class:`repro.parallel.shm.ShmViewHandle` payload is materialized
    into zero-copy views over the parent's shared segments
    (:func:`repro.parallel.shm.attach_views`): the kernel program binds to
    them, so the in-place block mutations land directly in shared memory.
    """
    from repro.plan.interpret import execute_grid_plan

    t0 = time.perf_counter()
    plan = task.plan
    view = attach_views(task.blocks) if task.blocks is not None else None
    r2d = execute_grid_plan(plan, _WORKER_STATE["sf"], task.sub, data=view,
                            options=_WORKER_STATE["options"], fuse=task.fuse)
    ranks = np.arange(plan.base, plan.base + plan.px * plan.py)
    return GridOutcome(g=plan.g, delta=task.sub.extract_delta(ranks),
                       result=r2d, task_seconds=time.perf_counter() - t0)


class ParallelExecutor:
    """Worker-pool lifecycle plus the per-level fan-out/merge protocol.

    The 3D executor closes it in a ``finally`` so the pool is torn down
    even when a worker raises — the exception propagates to the caller
    unchanged after remaining tasks are cancelled.
    """

    def __init__(self, n_workers: int, sf, options):
        self.n_workers = n_workers
        self._sf = sf
        self._options = options
        self._pool = None
        self.stats: list[LevelStats] = []

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, initializer=_worker_init,
                initargs=(self._sf, self._options))
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- level fan-out ----------------------------------------------------

    def run_level(self, level: int, tasks: list[GridTask],
                  prep_seconds: float = 0.0,
                  bytes_shipped: float = 0.0) -> list[GridOutcome]:
        """Execute a level's tasks concurrently; outcomes in grid order.

        ``prep_seconds`` is the parent-side time already spent forking
        simulators and exporting views for these tasks; it is folded into
        the level's serialized share together with the merge time the
        caller reports via :meth:`add_merge_seconds`.
        """
        # Pre-flight: a task whose plan references ranks outside its own
        # grid span would book events on a sibling fork's ranks, and the
        # merge would silently corrupt the ledgers (extract_delta catches
        # it only after the work is done). Import here — repro.verify's
        # fuzzer reaches back into the 3D drivers, which import us.
        from repro.verify.static import grid_plan_rank_escapes

        for task in tasks:
            escapes = grid_plan_rank_escapes(task.plan)
            if escapes:
                raise CommError(
                    f"grid {task.plan.g} plan references ranks outside its "
                    f"span before fan-out: {escapes[:3]}")
        t0 = time.perf_counter()
        pool = self._ensure_pool()
        futures = [pool.submit(_worker_run, t) for t in tasks]
        outcomes = [f.result() for f in futures]
        wall = time.perf_counter() - t0
        outcomes.sort(key=lambda o: o.g)
        self.stats.append(LevelStats(
            level=level, n_tasks=len(tasks), n_workers=self.n_workers,
            wall_seconds=wall,
            task_seconds=sum(o.task_seconds for o in outcomes),
            serial_seconds=prep_seconds, bytes_shipped=bytes_shipped))
        return outcomes

    def add_merge_seconds(self, seconds: float) -> None:
        """Charge parent-side merge/import time to the last level's stats."""
        if self.stats:
            self.stats[-1].serial_seconds += seconds
