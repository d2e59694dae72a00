"""Task-graph execution plans for the factorization drivers.

The paper's Algorithm 1 is a dependency structure — per-forest 2D
eliminations, pairwise ancestor reductions, level-wise grid growth — and
this package makes that structure a first-class object. A *builder*
(:mod:`repro.plan.build`) walks the symbolic factorization and tree-forest
once and emits the task DAG — per level as one struct-of-arrays
(:mod:`repro.plan.arrays`, fused by construction, a grid plan a slice of
it; the level-scope tasks and the plan containers are
:mod:`repro.plan.tasks`); a single *interpreter*
(:mod:`repro.plan.interpret`) executes any plan against a pluggable
kernel backend (:mod:`repro.plan.backends` — LU or Cholesky, numeric or
cost-only). Every run (2D baseline, 3D, merged-grid, Cholesky) is one
entry over this machinery, :func:`repro.lu3d.factor_3d`, and the grid
threads run a level's per-grid slices of it instead of re-deriving driver
structure.

Plan list order replays the historical drivers' exact event schedule, so
ledgers are bit-identical to the pre-plan code; the dependency edges feed
the critical-path instrumentation in :mod:`repro.analysis.planstats`.
"""

from repro.plan.backends import (
    CholeskyBackend,
    KernelBackend,
    LUBackend,
    cholesky_node_blocks,
    get_backend,
)
from repro.plan.arrays import TaskArrays
from repro.plan.build import (
    build_3d_plan,
    build_grid_plan,
    build_level,
    partition_signature,
    pattern_signature,
)
from repro.plan.interpret import execute_grid_plan, execute_reduce
from repro.plan.replay import FusedPlan, PlanBundle, plan_options_key
from repro.plan.tasks import (
    AncestorReduce,
    FusionStats,
    GridPlan,
    LevelBarrier,
    LevelStep,
    Plan3D,
    Task,
)

__all__ = [
    "AncestorReduce",
    "CholeskyBackend",
    "FusedPlan",
    "FusionStats",
    "GridPlan",
    "KernelBackend",
    "LUBackend",
    "LevelBarrier",
    "LevelStep",
    "Plan3D",
    "PlanBundle",
    "Task",
    "TaskArrays",
    "build_3d_plan",
    "build_grid_plan",
    "build_level",
    "cholesky_node_blocks",
    "execute_grid_plan",
    "execute_reduce",
    "get_backend",
    "partition_signature",
    "pattern_signature",
    "plan_options_key",
]
