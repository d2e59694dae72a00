"""Merged-grid ancestor factorization (paper Section VII, second idea).

    "Alternatively, for those levels, we can merge two 2D grids to make a
    larger 2D grid to factor denser blocks. However, doing so would
    require significant changes to the data structure."

In the standard Algorithm 1, a level-``q`` ancestor forest is factored by
its *home* 2D grid alone (``P_XY`` ranks) while the other ``2^{l-q} - 1``
grids of its range idle — the very effect that inflates ``T_scu`` for
non-planar matrices at large ``Pz`` (Fig. 9's Serena/nlpkkt80 retreat).
The merged variant instead factors the forest on the union of its range's
layers, a ``(2^{l-q}·P_x) × P_y`` grid. Because our rank numbering stacks
layers contiguously, the merged grid is just a taller 2D block-cyclic
grid over the same ranks — the "significant data-structure change" of the
paper reduces, in the simulator, to a redistribution step folded into the
ancestor reduction: both halves' copies of every ancestor block move to
their owner in the doubled layout and are summed there.

Structurally this is :func:`repro.plan.build.build_3d_plan` with
``merged=True``: the same level schedule, with grid plans on merged grids
and ``AncestorReduce`` tasks carrying explicit redistribution ops. The
pipeline and executor are the ones the standard driver uses
(:func:`repro.lu3d.factor3d._factor`); this entry point only binds
``merged=True``.

Numeric mode runs on the standard data path: a merged grid plan is
numbered by its first z-layer and binds to that layer's replicas
(:class:`repro.lu3d.replication.ReplicaManager`), and its reduce sums the
right half's replicas into the left half's, as the standard reduce does;
the redistribution moves are ledger only. So the factors are
:func:`repro.lu3d.factor_3d`'s bit for bit, and with ``n_workers > 1`` a
level's grids fan out as the standard driver's do.
"""

from __future__ import annotations

from repro.comm.grid import ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.lu3d.factor3d import Factor3DResult, _factor
from repro.plan.build import _merged_grid
from repro.plan.replay import PlanBundle
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest

__all__ = ["factor_3d_merged", "_merged_grid"]


def factor_3d_merged(sf: SymbolicFactorization, tf: TreeForest,
                     grid3: ProcessGrid3D, sim: Simulator,
                     options: FactorOptions | None = None,
                     charge_storage: bool = True,
                     numeric: bool = False, matrix=None,
                     cached: PlanBundle | None = None) -> Factor3DResult:
    """Algorithm 1 with merged-grid ancestor levels.

    ``matrix`` overrides ``sf.A_perm`` as the numeric value source (same
    pattern, fresh values — the re-factorization workflow); ``cached``
    replays a previous run's :class:`repro.plan.PlanBundle` instead of
    rebuilding/recompiling the plan, exactly as in
    :func:`repro.lu3d.factor_3d`.
    """
    return _factor(sf, tf, grid3, sim, numeric=numeric, options=options,
                   charge_storage=charge_storage, matrix=matrix,
                   backend="lu", merged=True, cached=cached)
