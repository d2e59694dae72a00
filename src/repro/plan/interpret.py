"""The shared plan interpreter: one executor for every driver variant.

:func:`execute_grid_plan` walks a :class:`~repro.plan.tasks.GridPlan`'s
task arrays in list order, one :func:`run` per cut-point interval — the
plan's ``runs`` (maximal same-kind runs) for a plain or traced execution,
every single task when something observes per-task events (an
accelerator, a fault injector, the resilience monitor, the fuzzer). Both
are the same body over the same columns: the backend's numeric kernels
(numeric mode only), then the interval's events booked in batches —
``compute_batch`` + ``sendrecv_batch`` per hoist-safe segment,
``alloc_batch`` for the receive buffers a panel run charges,
``free_batch`` for the ones a Schur run releases.

Because the plan's list order replays the historical drivers' exact event
order, every broadcast's pair sequence was flattened at build time, and
every batch entry books its per-event loop bit for bit, the simulator
ledgers are identical to the pre-plan loop drivers at either width — the
golden-ledger tests (:mod:`tests.test_plan`) pin this.

:func:`execute_reduce` is the matching executor for
:class:`~repro.plan.tasks.AncestorReduce` tasks (both the batched standard
variant and the merged-grid redistribution variant).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.comm.collectives import bcast, reduce_pairwise
from repro.comm.grid import ProcessGrid2D
from repro.comm.simulator import Simulator
from repro.lu2d.options import Factor2DResult, FactorOptions
from repro.plan.arrays import PANEL_FACTOR, SCHUR_UPDATE
from repro.plan.backends import get_backend
from repro.plan.tasks import AncestorReduce, GridPlan, ReplicatedFactor

__all__ = ["GridContext", "run", "execute_grid_plan", "execute_reduce",
           "execute_replicated"]


class GridContext:
    """Mutable state of one grid-plan execution; ``store`` is the caller's
    block mapping (``None`` in cost-only mode, where nothing reads it)."""

    def __init__(self, plan: GridPlan, sf, grid: ProcessGrid2D,
                 sim: Simulator, data, opts: FactorOptions):
        self.arrays = plan.arrays
        self.be = get_backend(plan.backend)
        self.sf = sf
        self.grid = grid
        self.sim = sim
        self.opts = opts
        self.store = data
        self.numeric = data is not None
        self.sizes = sf.layout.sizes()
        self.result = Factor2DResult(nodes=list(plan.nodes))
        # Transient panel-receive buffers only; sim.mem_peak also counts
        # the static L/U storage, which buffer_peak_words must exclude.
        self.buf_current = [0.0] * sim.nranks

    def live_buffers(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ranks, words)`` of the receive buffers live once tasks
        ``[0, pos)`` have run: charged by a panel task before ``pos`` whose
        node's Schur task (which releases them) has not run yet. Crash
        recovery frees them, a restart from a checkpoint re-charges them."""
        A = self.arrays
        schur = np.flatnonzero(A.kind == SCHUR_UPDATE)
        released = set(A.node[schur[schur < pos]].tolist())
        at = [i for t in np.flatnonzero(A.kind[:pos] != SCHUR_UPDATE)
              if int(A.node[t]) not in released
              for i in range(A.buf_ptr[t], A.buf_ptr[t + 1])]
        return A.buf_rank[at], A.buf_words[at]

    # -- checkpoint support (repro.resilience) -----------------------------

    #: Result counters a checkpoint must roll back with the walk position.
    _RESULT_FIELDS = ("perturbed_pivots", "panel_steps",
                      "schur_block_updates", "buffer_peak_words")

    def snapshot(self) -> dict:
        """Logical state of this plan execution at a task boundary: the
        transient buffer levels and the result counters (which buffers
        are live follows from the walk position). Simulator ledgers are
        deliberately *not* part of it: physical time and traffic keep
        accumulating across a rollback, which is exactly the recovery
        overhead the resilience stats report."""
        return {
            "buf_current": list(self.buf_current),
            "result": {f: getattr(self.result, f)
                       for f in self._RESULT_FIELDS},
        }

    def restore(self, snap: dict) -> None:
        """Roll logical state back to :meth:`snapshot` (same plan only)."""
        self.buf_current = list(snap["buf_current"])
        for f, val in snap["result"].items():
            setattr(self.result, f, val)


def run(ctx: GridContext, a: int, b: int) -> None:
    """Execute tasks ``[a, b)`` — one same-kind interval between two cut
    points — as one dispatch: the only task body there is, shared by
    :func:`execute_grid_plan` (either width) and the schedule fuzzer.

    A panel interval books, per hoist-safe segment, its compute events
    then its flattened broadcast pairs, and charges every receive buffer
    in one ``alloc_batch`` (the memory ledger shares no state with the
    clocks, so the charges need no segmenting); a Schur interval books
    its pairs' GEMMs in one ``compute_batch`` and releases each node's
    buffers in one ``free_batch``.
    """
    h, sim, be, result = ctx.arrays.hot, ctx.sim, ctx.be, ctx.result
    kind = h.kind[a]
    if kind == SCHUR_UPDATE:
        if ctx.numeric:
            for t in range(a, b):
                be.schur_numeric(ctx, h.node[t])
        lo, hi = h.pair_ptr[a], h.pair_ptr[b]
        owners, flops = h.pair_owner[lo:hi], h.pair_flops[lo:hi]
        accel = sim.accelerator if be.accel_aware else None
        if accel is None:
            sim.compute_batch(owners, flops, "schur", n_block_updates=1)
        else:
            # HALO: the offload decision is per block pair — big GEMMs go
            # to the device (operands + result cross PCIe), small ones
            # stay on the host.
            words = np.concatenate([be.pair_offload_words(
                ctx.sf, h.node[t], ctx.sizes) for t in range(a, b)])
            for o, f, w in zip(owners, flops, words.tolist()):
                if accel.should_offload(f):
                    sim.offload_gemm(o, f, w)
                else:
                    sim.compute(o, f, "schur", n_block_updates=1)
        result.schur_block_updates += hi - lo
        level = ctx.buf_current
        for t in range(a, b):
            lo, hi = h.free_lo[t], h.free_hi[t]
            if hi > lo:
                ranks, words = h.buf_rank[lo:hi], h.buf_words[lo:hi]
                sim.free_batch(ranks, words)
                for r, w in zip(ranks, words):
                    level[r] -= w
        return
    factor = kind == PANEL_FACTOR
    if factor and be.accel_aware and sim.accelerator is not None:
        for t in range(a, b):
            for r in be.accel_panel_ranks(ctx.sf, h.node[t], ctx.grid):
                sim.accel_sync(r)
    if ctx.numeric:
        for t in range(a, b):
            be.panel_numeric(ctx, kind, h.node[t], h.bi[t], h.bj[t])
    ckind = "diag" if factor else "panel"
    seg = bisect_right(h.segs, a)
    s = a
    while s < b:
        e = min(h.segs[seg], b)
        sim.compute_batch(h.owner[s:e], h.flops[s:e], ckind)
        lo, hi = h.p2p_ptr[s], h.p2p_ptr[e]
        if hi > lo:
            sim.sendrecv_batch(h.p2p_src[lo:hi], h.p2p_dst[lo:hi],
                               h.p2p_words[lo:hi])
        s, seg = e, seg + 1
    lo, hi = h.buf_ptr[a], h.buf_ptr[b]
    if hi > lo:
        ranks, words = h.buf_rank[lo:hi], h.buf_words[lo:hi]
        sim.alloc_batch(ranks, words)
        level, peak = ctx.buf_current, result.buffer_peak_words
        for r, w in zip(ranks, words):
            level[r] += w
            if level[r] > peak:
                peak = level[r]
        result.buffer_peak_words = peak
    if factor:
        result.panel_steps += b - a


def execute_grid_plan(plan: GridPlan, sf, sim: Simulator, data=None,
                      options: FactorOptions | None = None,
                      grid: ProcessGrid2D | None = None, *,
                      fuse: bool = False, monitor=None, start: int = 0,
                      ctx: GridContext | None = None) -> Factor2DResult:
    """Execute ``plan`` on ``sim``, in plan list order.

    ``data`` is a mapping ``(i, j) -> ndarray`` holding this grid's copy
    of every block the plan touches (``None`` for cost-only simulation);
    blocks are overwritten with the packed factors. ``grid`` may be passed
    to reuse an existing grid object; otherwise it is rebuilt from the
    plan's ``(px, py, base)``.

    ``fuse`` selects the cut points: the plan's full-width runs
    (:attr:`repro.plan.ExecMode.fuse`), or — the default, valid under any
    observer — one dispatch per task. ``monitor`` is the resilience hook:
    ``before_task(plan, ctx, idx)`` runs at every dispatch boundary and
    may raise :class:`repro.resilience.GridCrash`, ``after_task(plan, ctx,
    idx)`` may take a checkpoint. ``start``/``ctx`` resume a checkpointed
    interpretation at task index ``start`` with its restored context.
    """
    opts = options or FactorOptions()
    if grid is None:
        grid = ProcessGrid2D(plan.px, plan.py, base=plan.base)
    if ctx is None:
        ctx = GridContext(plan, sf, grid, sim, data, opts)

    cuts = plan.arrays.cuts(fuse)
    for i in range(bisect_right(cuts, start) - 1, len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        if monitor is not None:
            monitor.before_task(plan, ctx, a)
        run(ctx, a, b)
        if monitor is not None:
            monitor.after_task(plan, ctx, a)

    if ctx.be.accel_aware and sim.accelerator is not None:
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


def execute_reduce(task: AncestorReduce, sim: Simulator, result=None,
                   accumulate=None) -> None:
    """Execute one Ancestor-Reduction task and book its counters.

    ``result`` is the ``Factor3DResult`` accumulating reduction counters
    (``None``: a replay whose traffic is not the result's — recovery, the
    fuzzer). ``accumulate`` is the numeric callback ``(dst_grid, src_grid,
    i, j)`` (the standard variant's replica summation); ``None`` in
    cost-only mode and in the merged variant, whose single global copy
    makes the numeric content a no-op.
    """
    if task.ops is not None:
        for op, src, dst, w in task.ops:
            if op == "red":
                reduce_pairwise(sim, src, dst, w)
            else:
                sim.send(src, dst, w)
                sim.recv(dst, src)
            if result is not None:
                result.reduction_messages += 1
                result.reduction_words += w
        return
    sim.sendrecv_batch(task.srcs, task.dsts, task.words,
                       reduce_kind="reduce_add")
    if result is not None:
        result.reduction_messages += int(task.words.size)
        result.reduction_words += float(task.words.sum())
    if accumulate is not None:
        for i, j in zip(task.rows.tolist(), task.cols.tolist()):
            accumulate(task.dst_grid, task.src_grid, i, j)
