"""The paper's contribution: 3D sparse LU factorization (Algorithm 1).

``factor_3d`` runs the level-by-level schedule on a ``Px × Py × Pz`` grid:

* level ``l`` (leaves): every 2D layer factors its private leaf forest,
  accumulating Schur updates into its replicas of the common ancestors;
* after each level, *Ancestor-Reduction* pairwise-sums the replicas along
  the z axis (sender ``(2k+1)·2^{l-lvl}``, receiver ``k·2^{l-lvl+1}``, same
  (x, y) coordinate — point-to-point traffic only);
* level ``q < l``: the ``2^q`` surviving home grids factor the ancestor
  forests on their now fully-summed copies.

Each grid's 2D work is one grid plan (:func:`repro.plan.build.build_grid_plan`
is the builder's per-grid unit) — mirroring how the real implementation
reuses SuperLU_DIST's 2D factorization routine on the local tree-forest.
At ``Pz = 1`` the schedule is that 2D baseline itself.
"""

from repro.lu3d.factor3d import Factor3DResult, factor_3d
from repro.lu3d.replication import ReplicaManager, replica_words_per_rank

__all__ = [
    "Factor3DResult",
    "ReplicaManager",
    "factor_3d",
    "replica_words_per_rank",
]
