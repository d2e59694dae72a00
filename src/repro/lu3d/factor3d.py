"""Algorithm 1: the 3D sparse LU factorization driver.

Level-by-level schedule over the elimination tree-forest ``E_f``::

    for lvl in l .. 0:
        active grids g ≡ 0 (mod 2^{l-lvl}) run dSparseLU2D on E_f[lvl]
        if lvl > 0: pairwise Ancestor-Reduction along z

Since the :mod:`repro.plan` refactor, this module no longer encodes that
schedule imperatively: :func:`repro.plan.build.build_3d_plan` emits it
once as an explicit task DAG (grid plans, ``AncestorReduce`` tasks,
``LevelBarrier`` markers) and :func:`_execute_plan3d` — shared with the
merged-grid variant — walks it. Communication in the reduction step is
point-to-point between ranks with the same (x, y) coordinate in the
sender and receiver layers, booked under the ``'red'`` phase so the
benchmarks can split ``W_fact`` / ``W_red`` exactly as Fig. 10 does.

With ``FactorOptions(n_workers != 1)`` the active grids of each level run
their kernels *concurrently* on host threads (:mod:`repro.parallel`): the
level's bound kernel program is cut at its grid boundaries and each grid's
piece writes only its own replica views, while the level is booked on the
calling thread as before — ledgers, traces and factors are the serial
run's by construction. When the threads cannot engage, the run stays
serial and records *why* on ``Factor3DResult.parallel_stats`` as a
:class:`repro.parallel.ParallelFallback` — no silent fallbacks.

How a run executes (full width or per task, how many workers) is decided
once, by :func:`repro.plan.execmode.resolve_exec`; the standard,
merged-grid and Cholesky entry points are argument bindings of one
pipeline (:func:`_factor`): validate → acquire the plan bundle → charge
storage → bind data → execute. The 2D baseline is its ``Pz = 1`` run: one
layer, no Ancestor-Reduction. :func:`_execute_plan3d` is the one execution
walk, and resilience is hooks on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.lu2d.storage import block_rows, node_block_arrays
from repro.lu3d.replication import ReplicaManager
from repro.parallel import GridThreads
from repro.plan.execmode import resolve_exec
from repro.plan.interpret import (
    Resume,
    execute_grid_plan,
    execute_reduces,
)
from repro.plan.replay import PlanBundle
from repro.plan.tasks import Plan3D
from repro.sparse.blockmatrix import BlockMatrix
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest
from repro.utils import require_finite

__all__ = ["Factor3DResult", "factor_3d"]


@dataclass
class Factor3DResult:
    """Outcome of a 3D factorization run."""

    tf: TreeForest
    perturbed_pivots: int = 0
    schur_block_updates: int = 0
    reduction_messages: int = 0
    reduction_words: float = 0.0
    replicas: ReplicaManager | None = None
    per_level_makespan: list[float] = field(default_factory=list)
    #: One :class:`repro.parallel.LevelStats` per fanned-out level, or a
    #: :class:`repro.parallel.ParallelFallback` record when workers were
    #: requested but the run stayed serial (empty for plain serial runs).
    parallel_stats: list = field(default_factory=list)
    #: The executed task-graph plan (:class:`repro.plan.Plan3D`).
    plan: Plan3D | None = None
    #: ``plan`` with its full-width dispatch statistics
    #: (:class:`repro.plan.FusedPlan`) when the run walked its full-width
    #: cut points (:attr:`repro.plan.ExecMode.fuse`); ``None`` for a
    #: width-1 run.
    compiled: object | None = None
    #: :class:`repro.resilience.ResilienceStats` when the resilience engine
    #: watched the run (``FactorOptions.resilience_active()``); ``None``
    #: for plain runs.
    resilience: object | None = None
    #: The :class:`repro.plan.PlanBundle` of pattern-only build products
    #: this run used (built cold or passed in via ``cached=``); feed it
    #: back as ``factor_3d(..., cached=result.bundle)`` to replay the plan
    #: against fresh values.
    bundle: PlanBundle | None = None

    def factors(self) -> BlockMatrix:
        """Assembled L\\U factors, a copy (numeric runs only)."""
        if self.replicas is None:
            raise ValueError("cost-only run: no numeric factors")
        out = BlockMatrix(self.replicas.sf.layout)
        out.blocks = self.replicas.home_view()
        return out.copy()


# -- data strategies -------------------------------------------------------
# What the interpreter reads/writes per grid: nothing (cost-only) or the
# per-grid replica views (numeric, every variant).

class CostOnlyData:
    """No numeric content: no program runs, reductions book only."""

    accumulate = None

    def program(self, gp, sf):
        """The kernel program of ``gp`` — a grid plan or a whole level
        step — on this run's blocks (``None``: none)."""
        return None

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass

    def restore_grid(self, g, snap) -> None:
        pass


class ReplicaData(CostOnlyData):
    """Numeric mode: per-grid replica views + z-axis summation. A grid
    plan — merged ones included — binds to the views of its first z-layer
    and writes only those, so a level's grids may run their kernels on
    separate threads."""

    def __init__(self, replicas: ReplicaManager):
        self.replicas = replicas
        self.accumulate = replicas.accumulate

    def program(self, gp, sf):
        return self.replicas.program(gp)

    def snapshot(self):
        return self.replicas.snapshot()

    def restore(self, snap) -> None:
        self.replicas.restore(snap)

    def restore_grid(self, g, snap) -> None:
        self.replicas.restore_grid(g, snap)


def factor_3d(sf: SymbolicFactorization, tf: TreeForest, grid3: ProcessGrid3D,
              sim: Simulator, numeric: bool = True,
              options: FactorOptions | None = None,
              charge_storage: bool = True, matrix=None, backend: str = "lu",
              cached: PlanBundle | None = None,
              replicas: ReplicaManager | None = None) -> Factor3DResult:
    """Run Algorithm 1 on the 3D process grid.

    Parameters
    ----------
    sf:
        Symbolic factorization of the (permuted) matrix.
    tf:
        Tree-forest partition with ``tf.pz == grid3.pz``.
    grid3:
        The process grid; each z-layer is one 2D grid.
    sim:
        Simulator carrying the cost ledgers (shared across phases).
    numeric:
        Execute real block arithmetic (and enable :meth:`Factor3DResult.factors`).
    charge_storage:
        Charge static factor + replica storage to the memory ledgers.
    matrix:
        Overrides ``sf.A_perm`` as the numeric value source (same pattern,
        fresh values — the re-factorization workflow).
    backend:
        Kernel backend executed by the shared plan interpreter: ``'lu'``
        (default) or ``'cholesky'`` (paper Section VII's "these principles
        could be applied to other variants"). Algorithm 1 itself — the
        level schedule and the pairwise reduction — is variant-independent,
        which the shared plan makes literal.

    ``cached`` replays a previous run's :class:`repro.plan.PlanBundle`
    (``result.bundle``): the build/analyze phases are skipped and
    the cached DAG executes against the fresh values — same events, same
    order, so ledgers stay bit-identical to a cold run. The bundle is
    validated against (grid shape, backend, merged mode,
    plan-relevant options, sparsity pattern) and refused loudly on
    mismatch. ``replicas``
    additionally reuses a previous run's :class:`ReplicaManager` storage
    (reset in place) instead of allocating a fresh one.

    With ``pz == 1`` (``greedy_partition(sf, 1)`` on a ``ProcessGrid3D(px,
    py, 1)``) this is the baseline 2D algorithm: one layer, no reduction.
    """
    return _factor(sf, tf, grid3, sim, numeric=numeric, options=options,
                   charge_storage=charge_storage, matrix=matrix,
                   backend=backend, merged=False, cached=cached,
                   replicas=replicas)


def _factor(sf, tf, grid3, sim, *, numeric, options, charge_storage, matrix,
            backend, merged, cached, replicas=None, perm=None
            ) -> Factor3DResult:
    """The one 3D pipeline behind every entry point (standard, merged,
    Cholesky, the facades): validate → plan bundle → storage → data →
    execute. ``perm`` takes ``matrix`` to the factors' ordering (``None``:
    it is permuted already; the facades pass ``sf.perm`` and their
    input-ordered matrix, which the bundle's value map permutes)."""
    if tf.pz != grid3.pz:
        raise ValueError(f"tree-forest pz={tf.pz} != grid pz={grid3.pz}")
    if numeric:     # the kernels do not scan for NaN/inf: stop them here
        require_finite((sf.A_perm if matrix is None else matrix).tocsr().data,
                       "sf.A_perm" if matrix is None else "matrix")
    opts = options or FactorOptions()
    mode = resolve_exec(opts, sim, numeric=numeric)
    result = Factor3DResult(tf=tf)
    if mode.fallback is not None:
        result.parallel_stats.append(mode.fallback)

    if cached is not None:
        cached.check(grid3, backend, merged, opts, sf=sf, tf=tf)
        bundle = cached
    else:
        bundle = PlanBundle.build(sf, tf, grid3, opts, backend=backend,
                                  merged=merged)
    result.plan = bundle.plan3
    result.bundle = bundle

    if charge_storage:
        # Merging re-partitions ownership, it does not change what is
        # stored: the merged variant charges the standard replica storage.
        sim.alloc_batch(np.arange(grid3.size),
                        bundle.replica_words(sf, tf, grid3))

    data = _bind_data(sf, tf, result, bundle, numeric=numeric,
                      matrix=matrix, replicas=replicas, perm=perm)

    monitor = None
    if opts.resilience_active():
        from repro.resilience.engine import ResilienceEngine
        monitor = ResilienceEngine(opts, sim, bundle.plan3, sf, data, result)
    if mode.fuse:
        result.compiled = bundle.compiled()
    threads = GridThreads(mode.n_workers) if mode.n_workers > 1 else None
    try:
        _execute_plan3d(bundle.plan3, sf, sim, result, opts, threads, data,
                        fuse=mode.fuse, monitor=monitor)
    finally:
        if threads is not None:
            threads.close()
            result.parallel_stats.extend(threads.stats)
    if monitor is not None:
        result.resilience = monitor.finish()
    return result


def _bind_data(sf, tf, result: Factor3DResult, bundle: PlanBundle, *,
               numeric: bool, matrix, replicas, perm=None):
    """Copy the values the backend binds into block storage — laid out
    once over the L blocks' row ranges, only refilled by a replay
    (``replicas``) — through the bundle's value map of the matrix's
    structure, and pick the data strategy. A value outside the blocks or
    ranges raises (:meth:`ValueMap.fill`)."""
    if not numeric:
        return CostOnlyData()
    A = (sf.A_perm if matrix is None else matrix).tocsr()
    if replicas is not None:
        replicas.reset(bundle.value_map(replicas.base, A, perm), A.data)
    else:
        _ptr, ii, jj, _ww = node_block_arrays(sf, bundle.blocks_fn)
        r0, r1, _rows = block_rows(sf, bundle.blocks_fn)
        store = BlockMatrix.zeros(sf.layout, ii, jj, (r0, r1))
        bundle.value_map(store, A, perm).fill(store.buf, A.data)
        replicas = ReplicaManager(sf, tf, store, blocks_fn=bundle.blocks_fn)
    result.replicas = replicas
    return ReplicaData(replicas)


def _absorb_2d(result: Factor3DResult, r2d) -> None:
    result.perturbed_pivots += r2d.perturbed_pivots
    result.schur_block_updates += r2d.schur_block_updates


def _execute_plan3d(plan3: Plan3D, sf, sim: Simulator,
                    result: Factor3DResult, opts: FactorOptions,
                    threads: GridThreads | None, data, *,
                    fuse: bool = False, monitor=None):
    """Walk the plan level by level: the one execution walk of every
    driver (standard, merged, Cholesky; 2D is ``Pz = 1``).

    ``data`` is one of the data strategies above; ``fuse`` selects the
    full-width cut points (see :func:`execute_grid_plan`): at full width
    the whole level is one slice — its grids' kernels on ``threads`` when
    a pool is given — at width 1 the walk goes grid slice by grid slice;
    the level's reductions are one booking either way.

    Its position is ``(li, gi, ti, ctx)``: level step, grid plan, task,
    live context. ``monitor`` (the resilience engine) sees every task
    boundary; a crash makes :func:`execute_grid_plan` return the
    :class:`Resume` position its recovery picked, and the walk jumps
    there.
    """
    levels = plan3.levels
    li, gi, ti, ctx = 0, 0, 0, None
    while li < len(levels):
        step = levels[li]
        sim.set_phase("fact")
        # At full width nothing observes a grid boundary: the level is
        # one slice. Width 1 walks grid slice by slice.
        parts = [step] if fuse else step.grid_plans
        if not step.grid_plans:
            parts = []
        while gi < len(parts):
            part = parts[gi]
            if monitor is not None:
                monitor.enter_plan(li, gi, part)
            out = execute_grid_plan(part, sf, sim, options=opts, fuse=fuse,
                                    monitor=monitor, start=ti, ctx=ctx,
                                    prog=data.program(part, sf),
                                    threads=threads)
            if isinstance(out, Resume):     # a crash rewound the walk
                li, gi, ti, ctx = out
                break
            _absorb_2d(result, out)
            gi, ti, ctx = gi + 1, 0, None
        else:       # the level's grids are done
            if step.level > 0:
                sim.set_phase("red")
                execute_reduces(step, sim, result, data.accumulate)
            result.per_level_makespan.append(sim.makespan)
            li, gi = li + 1, 0

    sim.set_phase("fact")
