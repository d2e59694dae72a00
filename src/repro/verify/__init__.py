"""Correctness tooling over the plan layer.

Three independent lines of defence for every execution plan
(:class:`repro.plan.tasks.GridPlan` / :class:`~repro.plan.tasks.Plan3D`):

* :mod:`repro.verify.static` — a static analyzer that walks any plan and
  reports block-level data races, dependency cycles, malformed broadcast
  and reduction tasks, reduce destinations aliasing their sources, and
  rank escapes, *without executing anything*.
* :mod:`repro.verify.fuzz` — a schedule fuzzer that executes a plan under
  N seeded random legal topological orders through the existing
  interpreter and asserts the simulator ledgers bit-for-bit (and the
  numeric factors to 1e-12) against the canonical list order.
* :mod:`repro.verify.oracle` — conservation and cost-model cross-checks
  of the ledgers against :class:`repro.analysis.PlanStats`, plus numeric
  factor checks against dense ``numpy``/``scipy`` references.

See ``docs/verify.md`` for the analyzer rules and the fuzzer's precise
equivalence guarantees.
"""

from repro.verify.access import (
    ACCUM,
    READ,
    WRITE,
    conflicts,
    grid_task_accesses,
    reduce_accesses,
)
from repro.verify.fuzz import FuzzReport, fuzz_3d, fuzz_solve, random_legal_orders
from repro.verify.oracle import (
    VerificationError,
    check_conservation,
    cholesky_error,
    conservation_issues,
    ledger_state,
    lu_residual,
    verify_factors,
)
from repro.verify.static import (
    Issue,
    PlanVerificationError,
    StaticReport,
    analyze_plan,
    drop_dep_edge,
)

__all__ = [
    "READ", "WRITE", "ACCUM", "conflicts",
    "grid_task_accesses", "reduce_accesses",
    "Issue", "StaticReport", "PlanVerificationError", "analyze_plan",
    "drop_dep_edge",
    "FuzzReport", "fuzz_3d", "fuzz_solve",
    "random_legal_orders",
    "VerificationError", "ledger_state", "conservation_issues",
    "check_conservation", "lu_residual", "cholesky_error",
    "verify_factors",
]
