"""The shared plan interpreter: one executor for every driver variant.

:func:`execute_grid_plan` walks a :class:`~repro.plan.tasks.GridPlan`'s
task arrays in list order between cut points — every single task when
the resilience monitor watches the run (the fuzzer picks its own), else
none: the plan is one interval. Two things happen per
interval, each a slice of something laid out once: the interval's ops of
the bound kernel program (numeric mode only, :func:`run`) and the booking
of its events in the plan's one event stream (:func:`book`, one
:meth:`repro.comm.Simulator.book` call). Neither the factors nor the
ledger of a slice depend on how it is cut, so a run that nothing
monitors executes and books the whole plan as one slice of each — in a
3D run the whole *level* (a :class:`~repro.plan.tasks.LevelStep`, whose
grids own disjoint ranks), its grid plans being slices of it. Given
a thread pool, :func:`run` cuts a level's kernel slice at its grid
boundaries and runs the pieces concurrently; :func:`book` stays on the
calling thread.

Because the plan's list order replays the historical drivers' exact event
order, every broadcast's pair sequence was flattened at build time, and
the simulator books a stream slice as its per-event loop bit for bit, the
ledgers are identical to the pre-plan loop drivers at any granularity —
the golden-ledger tests (:mod:`tests.test_plan`) pin this.

:func:`execute_reduce` is the matching executor for
:class:`~repro.plan.tasks.AncestorReduce` tasks (one form, standard or
merged grid maps), and :func:`execute_reduces` for a level's worth,
booked as one stream.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.comm.simulator import Simulator
from repro.lu2d.kernels import execute
from repro.lu2d.options import Factor2DResult, FactorOptions
from repro.plan.tasks import AncestorReduce, GridPlan

__all__ = ["GridContext", "Resume", "run", "book", "execute_grid_plan",
           "execute_reduce", "execute_reduces"]


class GridContext:
    """Mutable state of one execution of ``plan`` — a grid plan, or a
    whole level step on the plain walk; ``prog`` is its kernel program on
    the run's blocks (:meth:`KernelBackend.bind
    <repro.plan.backends.KernelBackend.bind>`; ``None``: cost-only)."""

    def __init__(self, plan, sim: Simulator, prog, opts: FactorOptions,
                 threads=None):
        self.plan = plan
        self.arrays = plan.arrays
        self.sim = sim
        self.opts = opts
        self.prog = prog
        self.result = Factor2DResult(nodes=list(plan.nodes))
        #: Per-rank level of the live transient panel-receive buffers.
        #: Crash recovery frees these, a restart from a checkpoint
        #: re-charges them.
        self.buf_current = np.zeros(sim.nranks)
        #: The run's :class:`repro.parallel.GridThreads` when ``plan`` is a
        #: level of two or more grids (``None``: :func:`run` dispatches
        #: inline).
        grid_ptr = getattr(plan, "grid_ptr", None)
        self.threads = threads if grid_ptr is not None and grid_ptr.size > 2 \
            else None

    # -- checkpoint support (repro.resilience) -----------------------------

    #: Result counters a checkpoint must roll back with the walk position.
    _RESULT_FIELDS = ("perturbed_pivots", "schur_block_updates")

    def snapshot(self) -> dict:
        """Logical state of this plan execution at a task boundary: the
        transient buffer levels and the result counters (never ledgers)."""
        return {
            "buf_current": self.buf_current.copy(),
            "result": {f: getattr(self.result, f)
                       for f in self._RESULT_FIELDS},
        }

    def restore(self, snap: dict) -> None:
        """Roll logical state back to :meth:`snapshot` (same plan only)."""
        self.buf_current = snap["buf_current"].copy()
        for f, val in snap["result"].items():
            setattr(self.result, f, val)


class Resume(NamedTuple):
    """Where a rewound walk continues: task ``ti`` of grid plan ``gi`` of
    level step ``li``, in context ``ctx`` (``None``: a fresh one) — what
    a monitor's ``before_task`` returns when a crash fires."""

    li: int
    gi: int
    ti: int
    ctx: GridContext | None


def run(ctx: GridContext, a: int, b: int) -> None:
    """The numeric kernels of tasks ``[a, b)`` (any kinds, any width): a
    slice of the bound program, the numeric twin of :func:`book` (a no-op
    in cost-only mode) — the only task body there is. With
    ``ctx.threads`` the slice is cut at the level's grid boundaries and
    the per-grid pieces run concurrently: each writes only its own grid's
    replicas."""
    if ctx.prog is None:
        return
    prog, k_ptr, eps = ctx.prog, ctx.arrays.k_ptr, ctx.opts.pivot_eps
    if ctx.threads is None:
        ctx.result.perturbed_pivots += execute(prog, k_ptr[a], k_ptr[b], eps)
        return
    cut = k_ptr[np.unique(np.clip(ctx.plan.grid_ptr, a, b))].tolist()
    ctx.result.perturbed_pivots += ctx.threads.run(
        ctx.plan.level, lambda lo, hi: execute(prog, lo, hi, eps),
        list(zip(cut, cut[1:])))


def book(ctx: GridContext, a: int, b: int) -> None:
    """Book everything tasks ``[a, b)`` (any kinds) put on the ledgers:
    their slice of the plan's event and memory streams, in one
    :meth:`~repro.comm.Simulator.book` call, and the result counters."""
    A = ctx.arrays
    prof = ctx.sim.book(A.stream, A.ev_ptr[a], A.ev_ptr[b],
                        A.mem_ptr[a], A.mem_ptr[b])
    if prof is not None:
        ctx.buf_current += prof[0]
    ctx.result.schur_block_updates += int(A.pair_ptr[b] - A.pair_ptr[a])


def execute_grid_plan(plan: GridPlan, sim: Simulator,
                      options: FactorOptions | None = None, *,
                      monitor=None, start: int = 0,
                      ctx: GridContext | None = None, prog=None,
                      threads=None) -> Factor2DResult | Resume:
    """Execute ``plan`` on ``sim``, in plan list order. With no
    ``monitor`` tasks ``[start, n)`` are one kernel dispatch and one
    booking, and ``plan`` may be a whole
    :class:`~repro.plan.tasks.LevelStep`: its grids own disjoint rank
    sets, so one dispatch and one booking of the level is, per rank and
    bit for bit, the grid-after-grid walk.

    ``prog`` is the plan's kernel program, bound to the run's blocks by
    the data strategy (``None``: cost-only simulation); the kernels
    overwrite the blocks with the packed factors.

    ``monitor`` is the resilience hook, and it cuts the walk at every
    task: ``before_task(plan, ctx, idx)`` runs before each — a
    :class:`Resume` it returns (a crash fired and was recovered) stops
    the execution and is returned for the walk to jump to — and
    ``after_task(plan, ctx, idx)`` may checkpoint; both read true clocks.
    ``start``/``ctx`` resume at task index ``start`` with a restored
    context. ``threads`` (a :class:`repro.parallel.GridThreads`) runs a
    level's grids' kernels concurrently (:func:`run`).
    """
    opts = options or FactorOptions()
    if ctx is None:
        ctx = GridContext(plan, sim, prog, opts, threads)
    n = plan.arrays.n_tasks
    if monitor is None:         # nothing watches a boundary: one slice
        run(ctx, start, n)
        book(ctx, start, n)
        return ctx.result
    for a in range(start, n):
        if (resume := monitor.before_task(plan, ctx, a)) is not None:
            return resume
        run(ctx, a, a + 1)
        book(ctx, a, a + 1)
        monitor.after_task(plan, ctx, a)
    return ctx.result


def execute_reduce(task: AncestorReduce, sim: Simulator, accumulate=None, *,
                   booked: bool = False) -> None:
    """Execute one Ancestor-Reduction task: book its events (unless
    ``booked``: they are on the ledgers already, in its level's stream)
    and sum its replicas. ``accumulate`` is the numeric callback
    ``(dst_grid, src_grid, rows, cols)``; ``None`` in cost-only mode."""
    if not booked:
        sim.book(task.stream())
    if accumulate is not None:
        accumulate(task.dst_grid, task.src_grid, task.rows, task.cols)


def execute_reduces(step, sim: Simulator, accumulate=None) -> None:
    """A level's whole Ancestor-Reduction: its hops booked as one stream
    (:attr:`~repro.plan.tasks.LevelStep.reduce_stream`), then each hop's
    numeric summation."""
    if step.reduces:
        sim.book(step.reduce_stream)
    for task in step.reduces:
        execute_reduce(task, sim, accumulate, booked=True)
