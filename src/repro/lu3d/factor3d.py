"""Algorithm 1: the 3D sparse LU factorization driver.

Level-by-level schedule over the elimination tree-forest ``E_f``::

    for lvl in l .. 0:
        active grids g ≡ 0 (mod 2^{l-lvl}) run dSparseLU2D on E_f[lvl]
        if lvl > 0: pairwise Ancestor-Reduction along z

Since the :mod:`repro.plan` refactor, this module no longer encodes that
schedule imperatively: :func:`repro.plan.build.build_3d_plan` emits it
once as an explicit task DAG (grid plans, ``AncestorReduce`` tasks,
``LevelBarrier`` markers) and :func:`_execute_plan3d` walks it.
Communication in the reduction step is point-to-point between ranks with
the same (x, y) coordinate in the sender and receiver layers, booked
under the ``'red'`` phase so the benchmarks can split ``W_fact`` /
``W_red`` exactly as Fig. 10 does.

With ``FactorOptions(n_workers != 1)`` the active grids of each level run
their kernels *concurrently* on host threads (:mod:`repro.parallel`): the
level's bound kernel program is cut at its grid boundaries and each grid's
piece writes only its own replica views, while the level is booked on the
calling thread as before — ledgers, traces and factors are the serial
run's by construction. When the threads cannot engage, the run stays
serial and records *why* on ``Factor3DResult.parallel_stats`` as a
:class:`repro.parallel.ParallelFallback` — no silent fallbacks.

:func:`factor_3d` is the one entry, and the standard, merged-grid and
Cholesky runs are its arguments (``merged=``, ``backend=``): validate →
acquire the plan bundle → charge storage → bind data → execute. The 2D
baseline is its ``Pz = 1`` run: one layer, no Ancestor-Reduction.
:func:`_execute_plan3d` is the one execution walk, and resilience is a
monitor on it — the one observer of task boundaries, so the walk's width
follows from it: a level is one slice without it, and a task at a time
with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.lu2d.storage import extents, node_block_arrays
from repro.lu3d.replication import ReplicaManager
from repro.parallel import GridThreads, resolve_threads
from repro.plan.interpret import (
    Resume,
    execute_grid_plan,
    execute_reduces,
)
from repro.plan.backends import get_backend
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
    replicas: ReplicaManager | None = None
    per_level_makespan: list[float] = field(default_factory=list)
    #: One :class:`repro.parallel.LevelStats` per fanned-out level, or a
    #: :class:`repro.parallel.ParallelFallback` record when workers were
    #: requested but the run stayed serial (empty for plain serial runs).
    parallel_stats: list = field(default_factory=list)
    #: The executed task-graph plan (:class:`repro.plan.Plan3D`).
    plan: Plan3D | None = None
    #: :class:`repro.resilience.ResilienceStats` when the resilience engine
    #: watched the run (``FactorOptions.resilience_active()``), which then
    #: walked a task at a time; ``None`` for plain, full-width runs.
    resilience: object | None = None
    #: The :class:`repro.plan.PlanBundle` of pattern-only build products
    #: this run used (built cold or passed in via ``cached=``); feed it
    #: back as ``factor_3d(..., cached=result.bundle)`` to replay the plan
    #: against fresh values.
    bundle: PlanBundle | None = None

    def factors(self) -> BlockMatrix:
        """Assembled L\\U factors, full-height copies (numeric runs only)."""
        if self.replicas is None:
            raise ValueError("cost-only run: no numeric factors")
        return self.replicas.base.copy()


# -- data strategies -------------------------------------------------------
# What the interpreter reads/writes per grid: nothing (cost-only) or the
# per-grid replica views (numeric, every variant: the ReplicaManager itself).

class CostOnlyData:
    """No numeric content: no program runs, reductions book only."""

    accumulate = None

    def program(self, gp):
        """The kernel program of ``gp`` — a grid plan or a whole level
        step — on this run's blocks (``None``: none)."""
        return None

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass

    def restore_grid(self, g, snap) -> None:
        pass


def factor_3d(sf: SymbolicFactorization, tf: TreeForest, grid3: ProcessGrid3D,
              sim: Simulator, numeric: bool = True,
              options: FactorOptions | None = None,
              charge_storage: bool = True, matrix=None, backend: str = "lu",
              cached: PlanBundle | None = None,
              replicas: ReplicaManager | None = None, *,
              merged: bool = False, perm=None) -> Factor3DResult:
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
    merged:
        Factor each ancestor forest on the union of its range's layers
        (Section VII's merged grids; LU only, else ``ValueError``). The
        factors are the standard run's bit for bit; only the grid maps,
        hence the ledgers, differ.
    perm:
        Takes ``matrix`` to the factors' ordering (``None``: it is
        permuted already; the facades pass ``sf.perm`` and their
        input-ordered matrix, which the bundle's value map permutes).

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
    if tf.pz != grid3.pz:
        raise ValueError(f"tree-forest pz={tf.pz} != grid pz={grid3.pz}")
    if numeric:     # the kernels do not scan for NaN/inf: stop them here
        require_finite((sf.A_perm if matrix is None else matrix).tocsr().data,
                       "sf.A_perm" if matrix is None else "matrix")
    opts = options or FactorOptions()
    result = Factor3DResult(tf=tf)

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
        monitor = ResilienceEngine(opts, sim, bundle.plan3, data, result)
    n_workers, fallback = resolve_threads(
        opts.n_workers, full_width=monitor is None, numeric=numeric)
    if fallback is not None:
        result.parallel_stats.append(fallback)
    threads = GridThreads(n_workers) if n_workers > 1 else None
    try:
        _execute_plan3d(bundle.plan3, sim, result, opts, threads, data,
                        monitor=monitor)
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
    once over the blocks' row and column ranges (L rows packed under LU),
    only refilled by a replay (``replicas``) — through the bundle's value
    map of the matrix's structure, and pick the data strategy. A value
    outside the blocks or ranges raises (:meth:`ValueMap.fill`)."""
    if not numeric:
        return CostOnlyData()
    A = (sf.A_perm if matrix is None else matrix).tocsr()
    if replicas is not None:
        replicas.reset(bundle.value_map(replicas.base, A, perm), A.data)
    else:
        _ptr, ii, jj, _ww = node_block_arrays(sf, bundle.blocks_fn)
        e = extents(sf, bundle.blocks_fn)
        store = BlockMatrix.zeros(sf.layout, ii, jj, (e.r0, e.r1),
                                  get_backend(bundle.backend).pack,
                                  (e.c0, e.c1))
        bundle.value_map(store, A, perm).fill(store.buf, A.data)
        replicas = ReplicaManager(sf, tf, store, blocks_fn=bundle.blocks_fn)
    result.replicas = replicas
    return replicas


def _absorb_2d(result: Factor3DResult, r2d) -> None:
    result.perturbed_pivots += r2d.perturbed_pivots
    result.schur_block_updates += r2d.schur_block_updates


def _execute_plan3d(plan3: Plan3D, sim: Simulator, result: Factor3DResult,
                    opts: FactorOptions, threads: GridThreads | None, data,
                    *, monitor=None):
    """Walk the plan level by level: the one execution walk of every
    driver (standard, merged, Cholesky; 2D is ``Pz = 1``).

    ``data`` is one of the data strategies above. With no ``monitor`` the
    whole level is one slice — its grids' kernels on ``threads`` when a
    pool is given; ``monitor`` (the resilience engine) sees every task
    boundary, so the walk goes grid plan by grid plan and
    :func:`execute_grid_plan` task by task. The level's reductions are
    one booking either way.

    Its position is ``(li, gi, ti, ctx)``: level step, grid plan, task,
    live context. A crash makes :func:`execute_grid_plan` return the
    :class:`Resume` position the monitor's recovery picked, and the walk
    jumps there.
    """
    levels = plan3.levels
    li, gi, ti, ctx = 0, 0, 0, None
    while li < len(levels):
        step = levels[li]
        sim.set_phase("fact")
        parts = step.grid_plans
        if monitor is None and parts:   # nothing watches a grid boundary
            parts = [step]
        while gi < len(parts):
            part = parts[gi]
            if monitor is not None:
                monitor.enter_plan(li, gi, part)
            out = execute_grid_plan(part, sim, options=opts,
                                    monitor=monitor, start=ti, ctx=ctx,
                                    prog=data.program(part), threads=threads)
            if isinstance(out, Resume):     # a crash rewound the walk
                li, gi, ti, ctx = out
                break
            _absorb_2d(result, out)
            gi, ti, ctx = gi + 1, 0, None
        else:       # the level's grids are done
            if step.level > 0:
                sim.set_phase("red")
                execute_reduces(step, sim, data.accumulate)
            result.per_level_makespan.append(sim.makespan)
            li, gi = li + 1, 0

    sim.set_phase("fact")
