"""The shared plan interpreter: one executor for every driver variant.

:func:`execute_grid_plan` walks a :class:`~repro.plan.tasks.GridPlan` in
list order and dispatches each task to the kernel backend, threading the
shared bookkeeping every 2D driver used to duplicate: broadcast replay
with transient receive-buffer tracking, per-node buffer frees after the
Schur update, accelerator sync epilogue, and the
:class:`~repro.lu2d.options.Factor2DResult` counters.

Because the plan's list order replays the historical drivers' exact event
order and every broadcast participant list was resolved at build time, the
simulator ledgers are bit-for-bit identical to the pre-plan loop drivers —
the golden-ledger tests (:mod:`tests.test_plan`) pin this.

:func:`execute_reduce` is the matching executor for
:class:`~repro.plan.tasks.AncestorReduce` tasks (both the batched standard
variant and the merged-grid redistribution variant).
"""

from __future__ import annotations

import numpy as np

from repro.comm.collectives import bcast, reduce_pairwise
from repro.comm.grid import ProcessGrid2D
from repro.comm.simulator import Simulator
from repro.lu2d.options import Factor2DResult, FactorOptions
from repro.plan.backends import get_backend
from repro.plan.tasks import (
    AncestorReduce,
    BcastSpec,
    FusedTask,
    GridPlan,
    PanelBcast,
    PanelFactor,
    ReplicatedFactor,
    SchurUpdate,
)

__all__ = ["GridContext", "dispatch_task", "exec_fused", "execute_grid_plan",
           "execute_reduce", "execute_replicated"]


class _NullStore:
    """Cost-only mode: block lookups succeed but carry no data."""

    def __contains__(self, key) -> bool:  # pragma: no cover - trivial
        return False


class GridContext:
    """Mutable state of one grid-plan execution.

    ``data`` is the caller's block mapping (``None`` in cost-only mode);
    ``store`` wraps it so per-block code can be written uniformly.
    """

    def __init__(self, plan: GridPlan, sf, grid: ProcessGrid2D,
                 sim: Simulator, data, opts: FactorOptions):
        self.sf = sf
        self.grid = grid
        self.sim = sim
        self.opts = opts
        self.data = data
        self.numeric = data is not None
        self.store = data if self.numeric else _NullStore()
        self.sizes = sf.layout.sizes()
        self.result = Factor2DResult(nodes=list(plan.nodes))
        # Transient panel-receive buffers only; sim.mem_peak also counts
        # the static L/U storage, which buffer_peak_words must exclude.
        self.buffers: dict[int, list[tuple[int, float]]] = {}
        self.buf_current = np.zeros(sim.nranks)

    def run_bcast(self, node: int, spec: BcastSpec) -> None:
        """Replay one planned broadcast: route hop, tree, buffer charges."""
        sim = self.sim
        if spec.route_from is not None:
            sim.send(spec.route_from, spec.root, spec.words)
            sim.recv(spec.root, spec.route_from)
        bcast(sim, spec.root, list(spec.ranks), spec.words)
        result = self.result
        for r in spec.ranks:
            if r != spec.root:
                sim.alloc(r, spec.words)
                self.buffers.setdefault(node, []).append((r, spec.words))
                self.buf_current[r] += spec.words
                if self.buf_current[r] > result.buffer_peak_words:
                    result.buffer_peak_words = float(self.buf_current[r])

    def free_buffers(self, node: int) -> None:
        """Release the node's panel receive buffers (post-Schur)."""
        for r, words in self.buffers.pop(node, []):
            self.sim.free(r, words)
            self.buf_current[r] -= words

    def release_all_buffers(self) -> None:
        """Release every live transient buffer (crash-recovery cleanup)."""
        for node in list(self.buffers):
            self.free_buffers(node)

    # -- checkpoint support (repro.resilience) -----------------------------

    #: Result counters a checkpoint must roll back with the walk position.
    _RESULT_FIELDS = ("perturbed_pivots", "panel_steps",
                      "schur_block_updates", "buffer_peak_words")

    def snapshot(self) -> dict:
        """Logical state of this plan execution at a task boundary.

        Covers the transient buffer map and the result counters — what a
        resumed interpretation needs to continue as if uninterrupted.
        Simulator ledgers are deliberately *not* part of it: physical
        time and traffic keep accumulating across a rollback, which is
        exactly the recovery overhead the resilience stats report.
        """
        return {
            "buffers": {n: list(v) for n, v in self.buffers.items()},
            "buf_current": self.buf_current.copy(),
            "result": {f: getattr(self.result, f)
                       for f in self._RESULT_FIELDS},
        }

    def restore(self, snap: dict) -> None:
        """Roll logical state back to :meth:`snapshot` (same plan only)."""
        self.buffers = {n: list(v) for n, v in snap["buffers"].items()}
        self.buf_current = snap["buf_current"].copy()
        for f, val in snap["result"].items():
            setattr(self.result, f, val)


def dispatch_task(be, ctx: GridContext, task) -> None:
    """Execute one grid-plan task against its context.

    Every task kind has one body: the backend's numeric kernel (numeric
    mode only) plus event booking from the task's own ``owner`` / ``flops``
    / ``bcasts`` and the backend's per-pair Schur cost arrays — a fused run
    of width 1. Shared by :func:`execute_grid_plan` (list-order walk) and
    the schedule fuzzer (:mod:`repro.verify.fuzz`), which replays tasks in
    randomized legal orders through the same calls.
    """
    if isinstance(task, FusedTask):
        exec_fused(be, ctx, task)
    elif isinstance(task, (PanelFactor, PanelBcast)):
        _run_panel(be, ctx, task)
    elif isinstance(task, SchurUpdate):
        _run_schur(be, ctx, task)
    else:  # pragma: no cover - builders emit only the three kinds
        raise TypeError(f"unexpected task in grid plan: {task!r}")


def _run_panel(be, ctx: GridContext, task) -> None:
    sim = ctx.sim
    factor = isinstance(task, PanelFactor)
    if factor and be.accel_aware and sim.accelerator is not None:
        for r in be.accel_panel_ranks(ctx.sf, task.node, ctx.grid):
            sim.accel_sync(r)
    if ctx.numeric:
        be.panel_numeric(ctx, task)
    sim.compute(task.owner, task.flops, "diag" if factor else "panel")
    for spec in task.bcasts:
        ctx.run_bcast(task.node, spec)
    if factor:
        ctx.result.panel_steps += 1


def _run_schur(be, ctx: GridContext, task: SchurUpdate) -> None:
    sim = ctx.sim
    if ctx.numeric:
        be.schur_numeric(ctx, task)
    owners, flops = be.pair_costs(ctx.sf, task.node, ctx.sizes, ctx.grid)
    accel = sim.accelerator if be.accel_aware else None
    if accel is None:
        sim.compute_batch(owners, flops, "schur", n_block_updates=1)
    else:
        # HALO: the offload decision is per block pair — big GEMMs go to
        # the device (operands + result cross PCIe), small ones stay on
        # the host.
        words = be.pair_offload_words(ctx.sf, task.node, ctx.sizes)
        for o, f, w in zip(owners.tolist(), flops.tolist(), words.tolist()):
            if accel.should_offload(f):
                sim.offload_gemm(o, f, w)
            else:
                sim.compute(o, f, "schur", n_block_updates=1)
    ctx.result.schur_block_updates += task.n_pairs
    ctx.free_buffers(task.node)


def exec_fused(be, ctx: GridContext, task: FusedTask) -> None:
    """Execute one fused run as its precompiled vectorized dispatch.

    Books the exact event sequence the member-by-member replay would —
    one ``compute_batch`` (plus one ``sendrecv_batch`` per panel segment)
    instead of per-member Python dispatch. Panel-segment payloads are
    plain lists, which the Simulator batch entries book through a scalar
    loop below their internal threshold; the concatenated Schur cost
    arrays stay ndarrays and keep the vectorized path. Both paths book
    bit-identical ledgers by the Simulator batch contract.
    ``vector_safe=False`` fused tasks replay their members through
    :func:`dispatch_task`, preserving error behavior for plans the
    compiler could not prove safe.
    """
    if not task.vector_safe or task.payload is None:
        for m in task.members:
            dispatch_task(be, ctx, m)
        return
    sim = ctx.sim
    members = task.members
    if task.fused_kind == "schur_update":
        pay = task.payload
        if ctx.numeric:
            for m in members:
                be.schur_numeric(ctx, m)
        sim.compute_batch(pay.owners, pay.flops, "schur", n_block_updates=1)
        for m in members:
            ctx.result.schur_block_updates += m.n_pairs
            ctx.free_buffers(m.node)
        return
    kind = "diag" if task.fused_kind == "panel_factor" else "panel"
    for seg in task.payload:
        if ctx.numeric:
            for m in members[seg.start:seg.stop]:
                be.panel_numeric(ctx, m)
        sim.compute_batch(seg.owners, seg.flops, kind)
        if seg.srcs:
            sim.sendrecv_batch(seg.srcs, seg.dsts, seg.words)
        result = ctx.result
        for node, r, words in seg.allocs:
            sim.alloc(r, words)
            ctx.buffers.setdefault(node, []).append((r, words))
            ctx.buf_current[r] += words
            if ctx.buf_current[r] > result.buffer_peak_words:
                result.buffer_peak_words = float(ctx.buf_current[r])
    if task.fused_kind == "panel_factor":
        ctx.result.panel_steps += len(members)


def execute_grid_plan(plan: GridPlan, sf, sim: Simulator, data=None,
                      options: FactorOptions | None = None,
                      grid: ProcessGrid2D | None = None,
                      monitor=None, start: int = 0,
                      ctx: GridContext | None = None) -> Factor2DResult:
    """Execute ``plan`` on ``sim``, in plan list order.

    ``data`` is a mapping ``(i, j) -> ndarray`` holding this grid's copy
    of every block the plan touches (``None`` for cost-only simulation);
    blocks are overwritten with the packed factors. ``grid`` may be passed
    to reuse an existing (memoized) grid object; otherwise it is rebuilt
    from the plan's ``(px, py, base)``.

    ``monitor`` is the resilience hook (:mod:`repro.resilience.engine`):
    ``monitor.before_task(plan, ctx, idx, task)`` runs at every task
    boundary and may raise :class:`repro.resilience.GridCrash`;
    ``monitor.after_task(plan, ctx, idx, task)`` may take a checkpoint.
    ``start``/``ctx`` resume a previously checkpointed interpretation at
    task index ``start`` with its restored context.
    """
    opts = options or FactorOptions()
    be = get_backend(plan.backend)
    if grid is None:
        grid = ProcessGrid2D(plan.px, plan.py, base=plan.base)
    if ctx is None:
        ctx = GridContext(plan, sf, grid, sim, data, opts)

    tasks = plan.tasks
    for idx in range(start, len(tasks)):
        task = tasks[idx]
        if monitor is not None:
            monitor.before_task(plan, ctx, idx, task)
        dispatch_task(be, ctx, task)
        if monitor is not None:
            monitor.after_task(plan, ctx, idx, task)

    if be.accel_aware and sim.accelerator is not None:
        for r in grid.all_ranks():
            sim.accel_sync(r)
    return ctx.result


def execute_replicated(task: ReplicatedFactor, sim: Simulator) -> None:
    """Execute one 2.5D ancestor sweep's aggregate cost events.

    Event order for one forest: z-replication broadcasts of the level
    panel (one per (x, y) position), then ``steps`` ring exchanges — all
    sends, then all receives, per step — then the evenly-spread level
    flops, booked under ``'schur'``. Cost-only by construction: there is
    no per-block numeric content to execute.
    """
    for spec in task.bcasts:
        bcast(sim, spec.root, list(spec.ranks), spec.words)
    ranks = task.ranks
    nranks = len(ranks)
    chunk = task.chunk
    for _step in range(task.steps):
        for idx, r in enumerate(ranks):
            sim.send(r, ranks[(idx + 1) % nranks], chunk)
        for idx, r in enumerate(ranks):
            sim.recv(r, ranks[(idx - 1) % nranks])
    flops_each = task.flops / nranks
    for r in ranks:
        sim.compute(r, flops_each, "schur", n_block_updates=task.steps)


def execute_reduce(task: AncestorReduce, sim: Simulator, result,
                   accumulate=None) -> None:
    """Execute one Ancestor-Reduction task and book its counters.

    ``result`` is the ``Factor3DResult`` accumulating reduction counters.
    ``accumulate`` is the numeric callback ``(dst_grid, src_grid, i, j)``
    (the standard variant's replica summation); ``None`` in cost-only mode
    and in the merged variant, whose single global copy makes the numeric
    content a no-op.
    """
    if task.ops is not None:
        for op, src, dst, w in task.ops:
            if op == "red":
                reduce_pairwise(sim, src, dst, w)
            else:
                sim.send(src, dst, w)
                sim.recv(dst, src)
            result.reduction_messages += 1
            result.reduction_words += w
        return
    sim.sendrecv_batch(task.srcs, task.dsts, task.words,
                       reduce_kind="reduce_add")
    result.reduction_messages += int(task.words.size)
    result.reduction_words += float(task.words.sum())
    if accumulate is not None:
        for i, j in zip(task.rows.tolist(), task.cols.tolist()):
            accumulate(task.dst_grid, task.src_grid, i, j)
