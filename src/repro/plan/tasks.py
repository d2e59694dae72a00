"""Typed task graph for the factorization drivers.

A *plan* is an explicit DAG of five task kinds — the three per-grid kinds
of :mod:`repro.plan.arrays` (``PANEL_FACTOR``, ``PANEL_BCAST``,
``SCHUR_UPDATE``) and :class:`AncestorReduce` and :class:`LevelBarrier`
— emitted once by a builder that walks the
:class:`SymbolicFactorization` and :class:`TreeForest`
(:mod:`repro.plan.build`), and executed by a single shared interpreter
against a pluggable kernel backend (:mod:`repro.plan.interpret` /
:mod:`repro.plan.backends`).

The three per-grid kinds exist in one form only: the struct-of-arrays of
:mod:`repro.plan.arrays`, which a :class:`LevelStep` holds for all its
grids (a :class:`GridPlan` a slice of it) and the interpreter, the
analyzer and the fuzzer all read. The two level-scope kinds are few and
already array payloads; they stay objects.

Two orders coexist on every plan:

* **list order** — the exact schedule the imperative drivers used to
  execute (including the Section II-F lookahead interleave, which the
  builder replays at plan-build time). The interpreter walks tasks in
  list order, so simulator ledgers are *bit-identical* to the historical
  loop drivers.
* **dependency order** — each task's deps (``dep_ptr`` / ``dep_idx`` of
  the arrays, ``deps`` of a level-scope task) name the data it waits on
  (tids of earlier tasks). This is analysis metadata: the critical-path
  instrumentation (:mod:`repro.analysis.planstats`) walks it to find the
  longest α-β-γ chain, mirroring the paper's Section IV latency analysis.

Tids are assigned in emission order, so ``dep < tid`` holds for every
edge and one forward pass is a topological traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.comm.events import PHASE_FACT, PHASE_RED
from repro.comm.stream import EventStream, Volume
from repro.plan.arrays import TaskArrays

__all__ = ["Task", "AncestorReduce", "LevelBarrier", "FusionStats",
           "GridPlan", "LevelStep", "Plan3D"]


@dataclass(frozen=True, kw_only=True)
class Task:
    """Base task: a stable id plus the tids of its data dependencies."""

    tid: int
    deps: tuple[int, ...] = ()

    kind = "task"


@dataclass(frozen=True, kw_only=True)
class AncestorReduce(Task):
    """One (src grid -> dst grid) hop of Algorithm 1's Ancestor-Reduction.

    ``rows`` / ``cols`` are the ancestor blocks whose replicas it sums,
    in the driver's gather order. ``srcs`` / ``dsts`` / ``words`` /
    ``adds`` are its messages on the variant's grid maps
    (:func:`repro.plan.build._build_reduce`): per block a reduce (``adds``:
    the receiver adds, one flop per word), then — merged, where the
    owner changes — a redistribution move (ledger only).
    """

    dst_grid: int
    src_grid: int
    below_level: int
    rows: np.ndarray
    cols: np.ndarray
    srcs: np.ndarray
    dsts: np.ndarray
    words: np.ndarray
    adds: np.ndarray

    kind = "ancestor_reduce"

    def stream(self) -> EventStream:
        """The hop's events: one message per entry (free where the owner
        is unchanged), each reduce followed by the receiver's add."""
        return EventStream.pairs(self.srcs, self.dsts, self.words,
                                 "reduce_add", reduce_where=self.adds)


@dataclass(frozen=True, kw_only=True)
class LevelBarrier(Task):
    """End-of-level synchronization point of Algorithm 1's schedule.

    Zero-cost: the simulator's per-rank clocks already encode waiting, so
    the interpreter books no events here — it only records the level's
    makespan. In the DAG the barrier is what the next level's root tasks
    depend on, making the level structure explicit for the critical-path
    analysis.
    """

    level: int

    kind = "level_barrier"


@dataclass(frozen=True)
class FusionStats:
    """How far a plan's full-width cut points coarsen its task list."""

    n_tasks_before: int   # tasks = width-1 dispatches
    n_tasks_after: int    # full-width dispatches (runs + level-scope tasks)
    n_fused: int          # runs of two or more tasks
    n_members: int        # tasks inside those runs

    @property
    def dispatch_reduction(self) -> float:
        """Width-1 dispatches replaced by one full-width dispatch."""
        return self.n_tasks_before / self.n_tasks_after \
            if self.n_tasks_after else 1.0

    @property
    def fusion_ratio(self) -> float:
        """Fraction of the tasks that sit in a multi-task run."""
        return self.n_members / self.n_tasks_before \
            if self.n_tasks_before else 0.0

    def summary(self) -> str:
        return (f"full-width walk: {self.n_tasks_after} dispatches for "
                f"{self.n_tasks_before} tasks ({self.dispatch_reduction:.2f}x "
                f"fewer); {self.n_fused} fused runs hold "
                f"{self.fusion_ratio:.0%} of the tasks")


def _fusion(parts: list[TaskArrays], extra: int = 0) -> FusionStats:
    """Full-width vs width-1 dispatch counts of ``parts``, O(1) from their
    cuts, plus ``extra`` tasks that are one dispatch at either width."""
    width = np.concatenate([np.diff(a.runs) for a in parts]
                           + [np.zeros(0, dtype=np.int64)])
    fused = width[width > 1]
    return FusionStats(extra + int(width.sum()), extra + int(width.size),
                       int(fused.size), int(fused.sum()))


@dataclass
class GridPlan:
    """One grid's ordered tasks for one level (at ``Pz = 1``, all of them): a
    slice of its level's arrays. Given ``arrays=(level arrays, lo, hi)``
    it is cut (:meth:`TaskArrays.cut`) on first use — the plain walk books
    whole levels and never asks.

    ``backend`` names the kernel backend (``'lu'`` / ``'cholesky'``) the
    interpreter resolves. The 2D grid is ``(px, py, base)`` and the tasks
    are :class:`~repro.plan.arrays.TaskArrays`, so the plan pickles as a
    few dozen ndarrays.
    """

    backend: str
    g: int
    level: int
    px: int
    py: int
    base: int
    nodes: list[int]
    arrays: TaskArrays

    def __getstate__(self):     # ship the slice, never the level behind it
        return {**self.__dict__, "_arrays": self.arrays}

    @property
    def n_tasks(self) -> int:
        return self.arrays.n_tasks

    def volume(self, nranks: int | None = None) -> Volume:
        """:meth:`TaskArrays.volume` of this plan (default: its grid's
        rank span)."""
        return self.arrays.volume(nranks or self.base + self.px * self.py)

    def fusion_stats(self) -> FusionStats:
        return _fusion([self.arrays])


def _cut_once(self: GridPlan) -> TaskArrays:
    if type(self._arrays) is tuple:
        whole, lo, hi = self._arrays
        self._arrays = whole.cut(lo, hi)
    return self._arrays


GridPlan.arrays = property(
    _cut_once, lambda self, arrays: setattr(self, "_arrays", arrays))


@dataclass
class LevelStep:
    """One level of Algorithm 1, the unit a plan is built, stored and
    booked in: the active grids' tasks as ONE :class:`TaskArrays`,
    grid-major, then reductions, then the barrier.
    A level's grids own disjoint rank sets, so each rank's events in the
    concatenation are its events of the grid-after-grid walk."""

    level: int
    #: Grid ``q``: tasks ``grid_ptr[q]:grid_ptr[q + 1]`` of ``arrays`` as a
    #: plan of its own, for what is per grid by nature (grid threads,
    #: rewind, fuzzer, analyzer).
    grid_plans: list[GridPlan]
    reduces: list[AncestorReduce]
    barrier: LevelBarrier
    #: The level's tasks (``None``: no grid has work at this level).
    arrays: TaskArrays | None = None
    grid_ptr: np.ndarray | None = None

    @property
    def backend(self) -> str:
        return self.grid_plans[0].backend

    @cached_property
    def nodes(self) -> list[int]:
        return [k for gp in self.grid_plans for k in gp.nodes]

    @cached_property
    def reduce_stream(self) -> EventStream:
        """The level's reductions as one event stream, hop after hop
        (their ``(dst, src)`` grid pairs are disjoint)."""
        evs = [red.stream() for red in self.reduces]
        return EventStream(*(np.concatenate([getattr(ev, c) for ev in evs])
                             for c in ("src", "dst", "val", "kind")))


@dataclass
class Plan3D:
    """The whole 3D schedule, level-major (level ``l`` down to 0)."""

    backend: str
    merged: bool
    levels: list[LevelStep]
    #: :func:`repro.plan.build.pattern_signature` of the symbolic
    #: factorization the plan was built from — what
    #: :meth:`repro.plan.PlanBundle.check` compares before a replay.
    pattern_sig: tuple | None = None
    #: :func:`repro.plan.build.partition_signature` of its tree-forest.
    partition_sig: tuple | None = None

    def _level_scope_tasks(self) -> int:
        return sum(len(s.reduces) + 1 for s in self.levels)

    @property
    def n_tasks(self) -> int:
        return self.fusion_stats().n_tasks_before

    def fusion_stats(self) -> FusionStats:
        """The levels' dispatch counts (runs cut at grid boundaries);
        level-scope tasks are one dispatch each at either width."""
        return _fusion([s.arrays for s in self.levels
                        if s.arrays is not None], self._level_scope_tasks())

    def volume(self, nranks: int) -> Volume:
        """The whole schedule reduced to per-rank volume ledgers: every
        level's tasks and reductions in executed order, under the
        phase they run in — per rank and bit for bit what a fault-free run
        books (memory: transient receive buffers only, no static
        storage)."""
        vol = Volume(nranks)
        for step in self.levels:
            vol.phase = PHASE_FACT
            if step.arrays is not None:
                vol.add(step.arrays.stream)
            vol.phase = PHASE_RED
            if step.reduces and step.level > 0:
                vol.add(step.reduce_stream)
        vol.phase = PHASE_FACT
        return vol

    # -- recovery support (repro.resilience) -------------------------------

    def recovery_schedule(self, g: int, below_index: int):
        """Grid ``g``'s share of the first ``below_index`` level steps, in
        executed order: ``('plan', GridPlan)`` and ``('reduce', task)``
        items interleaved level by level.

        This is exactly what a z-replica recovery replays after resetting
        the crashed grid to its initial (Fig. 5) state: the pairwise
        schedule makes a grid active at level ``lvl`` the *destination*
        (never the source) of every deeper boundary's reduce, and
        ``accumulate`` leaves source copies intact — so replaying the
        grid's own plans plus the reduces aimed at it rebuilds its
        ancestor contributions from the surviving sibling replicas.
        """
        for step in self.levels[:below_index]:
            for gp in step.grid_plans:
                if gp.g == g:
                    yield "plan", gp
            for red in step.reduces:
                if red.dst_grid == g:
                    yield "reduce", red
