"""The right-looking 2D factorization driver (``dSparseLU2D``).

Factors a given node list (the whole matrix for the 2D baseline; one forest
of the local elimination tree-forest when called from the 3D driver) on a
2D process grid, emitting every compute and communication event to the
simulator and — in numeric mode — performing the real block arithmetic
in place on a :class:`repro.sparse.blockmatrix.BlockMatrix`-like store.

Since the :mod:`repro.plan` refactor this module is a thin wrapper: it
builds the node list's task plan (:func:`repro.plan.build.build_grid_plan`
— which replays the Section II-F lookahead pipeline at build time),
asks :func:`repro.plan.execmode.resolve_exec` how to run it, and runs it
as one level of one grid through the 3D drivers' one walk
(:func:`repro.lu3d.factor3d._execute_plan3d`), resilience hooks
included. The emitted simulator events are bit-identical to the
historical imperative loop.
"""

from __future__ import annotations

from repro.comm.grid import ProcessGrid2D
from repro.comm.simulator import Simulator
from repro.lu2d.options import Factor2DResult, FactorOptions
from repro.lu2d.storage import allocate_factor_storage, block_rows
from repro.plan.backends import get_backend
from repro.plan.build import build_grid_plan
from repro.plan.execmode import resolve_exec
from repro.plan.tasks import Plan3D
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.utils import require_finite

__all__ = ["FactorOptions", "Factor2DResult", "factor_nodes_2d", "factor_2d"]


def factor_nodes_2d(sf: SymbolicFactorization, nodes: list[int],
                    grid: ProcessGrid2D, sim: Simulator, data=None,
                    options: FactorOptions | None = None) -> Factor2DResult:
    """Factor ``nodes`` (ascending block ids) on ``grid``.

    ``data`` is a :class:`~repro.sparse.blockmatrix.BlockMatrix` holding
    this grid's copy of every block the nodes touch (their panels and all
    Schur-update targets); pass ``None`` for cost-only simulation. Blocks
    are overwritten with the packed L\\U factors. Without resilience any
    mapping ``(i, j) -> ndarray`` works; a checkpoint snapshots the
    matrix's arena. A nonzero outside an L block's structural rows
    (:func:`repro.lu2d.storage.block_rows`) raises ``ValueError``.

    The emitted plan is stored on ``result.extras['plan']`` so callers can
    inspect the schedule (:class:`repro.analysis.PlanStats`,
    ``plan.fusion_stats()``); ``result.extras['fused']`` says whether the
    run walked its full-width cut points, and
    ``result.extras['resilience']`` holds the run's
    :class:`repro.resilience.ResilienceStats` when the resilience engine
    watched it.
    """
    return _factor_nodes("lu", sf, nodes, grid, sim, data, options)


def _factor_nodes(backend: str, sf, nodes, grid, sim, data, options
                  ) -> Factor2DResult:
    """The one 2D node driver behind the LU and Cholesky entry points:
    build the grid plan → resolve how to run it → execute."""
    from repro.lu3d import factor3d as f3d      # it imports this package
    opts = options or FactorOptions()
    if data is not None:
        # The kernels neither scan for NaN/inf nor read rows outside an L
        # block's range: stop both here, on every block of the nodes.
        node_blocks = get_backend(backend).node_blocks
        rows = block_rows(sf, node_blocks)[2]
        for i, j, _w in (b for k in nodes for b in node_blocks(sf, k)):
            block, r = data[(i, j)], rows[(i, j)]
            require_finite(block, f"data block ({i}, {j})")
            if block[:r.start].any() or block[r.stop:].any():
                raise ValueError(f"data block ({i}, {j}) has a value outside "
                                 f"the block pattern (rows {r.start}:{r.stop})")
    mode = resolve_exec(opts, sim, numeric=data is not None, merged=False)
    plan = build_grid_plan(sf, nodes, grid, opts, backend=backend)
    plan3 = Plan3D.of_grid(plan)
    store = f3d.CostOnlyData() if data is None else f3d.GlobalStoreData(data)
    monitor = f3d._monitor(opts, sim, plan3, sf, store)
    result = f3d._execute_plan3d(plan3, sf, sim, f3d.Factor3DResult(tf=None),
                                 opts, None, store, fuse=mode.fuse,
                                 monitor=monitor)
    result.extras["plan"] = plan
    result.extras["fused"] = mode.fuse
    if monitor is not None:
        result.extras["resilience"] = monitor.finish()
    return result


def factor_2d(sf: SymbolicFactorization, grid: ProcessGrid2D, sim: Simulator,
              data=None, options: FactorOptions | None = None,
              charge_storage: bool = True) -> Factor2DResult:
    """Factor the whole matrix on a 2D grid (the baseline algorithm).

    With ``charge_storage`` the static L/U storage is charged to the memory
    ledgers before factorization, as SuperLU_DIST allocates it after the
    symbolic phase.
    """
    from repro.comm.volume import volume_for
    nodes = list(range(sf.nb))
    if charge_storage:
        allocate_factor_storage(sf, nodes, grid, sim,
                                volume=volume_for(sf, options))
    sim.set_phase("fact")
    return factor_nodes_2d(sf, nodes, grid, sim, data=data, options=options)
