"""Shared driver options and per-grid result records.

These live in their own module because both the drivers and the
:mod:`repro.plan` layer need them: the plan builders read the options, the
plan interpreter fills the result, and keeping them here breaks the import
cycle between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FactorOptions", "Factor2DResult"]


@dataclass(frozen=True)
class FactorOptions:
    """Tunables of the factorization drivers.

    Attributes
    ----------
    lookahead:
        Pipeline window in supernodes; SuperLU_DIST uses 8-20 (Section
        II-F). ``0`` disables pipelining (strictly synchronous steps).
    pivot_eps:
        GESP threshold: diagonal pivots below ``pivot_eps * ||A_kk||_max``
        are perturbed to that magnitude.
    sparse_bcast:
        Prune broadcast receiver sets to the ranks that actually own an
        update target (SuperLU_DIST builds its BC/RD trees over exactly
        those ranks). ``False`` broadcasts along whole process rows/
        columns — the flat model Section IV analyzes.
    n_workers:
        Host threads for the 3D drivers' per-level fan-out
        (:mod:`repro.parallel`): a level's grids run their kernels
        concurrently, each on its own replicas, and the level is booked
        on the calling thread. ``1`` (default) keeps the serial schedule
        with no pool; ``0`` means one thread per host core. Ledgers,
        traces and factors are identical either way. When the threads
        cannot engage (see :func:`repro.parallel.resolve_threads`) the
        run stays serial and records a ``ParallelFallback``.
    fault_plan:
        A :class:`repro.resilience.FaultPlan` of deterministic faults to
        inject (``None`` / empty = fault-free: every ledger stays
        bit-identical to seed). A non-empty plan (or checkpointing)
        hooks the resilience engine onto every task boundary of the one
        serial walk — a requested thread fan-out is recorded as a
        ``ParallelFallback``. A crash fault that no task boundary of the
        run can match raises ``ValueError``.
    checkpoint_every:
        Take a coordinated checkpoint of the replica blocks and the plan
        walk position every this many interpreted tasks (``0`` = off).
        Checkpoint I/O cost is charged to the machine model
        (``io_alpha`` / ``io_beta``).
    recovery:
        Crash recovery policy: ``'restart'`` rolls every grid back to
        the last checkpoint; ``'z-replica'`` rebuilds only the crashed
        grid's state from the surviving sibling replicas along the z
        axis (the paper's ancestor replication, exploited for fault
        tolerance), falling back to restart where it cannot apply
        (``Pz = 1`` runs have no replicas; a merged grid's rank span
        holds the ones it would rebuild from).
    compact_comm:
        Price every block message and block of factor/replica storage with
        the sparsity-aware compact model (:mod:`repro.comm.volume`):
        ``min(dense, 1.5 * nnz)`` words per block off the filled pattern's
        per-block nnz tables, instead of dense ``rows * cols``. Numerics
        are unaffected — only the booked word counts change. This field
        is the only switch (no environment override).
    blocking:
        Supernode-boundary strategy for the symbolic phase: ``'uniform'``
        (the default — ``max_block``-capped equal chunks, SuperLU_DIST's
        ``maxsup`` behaviour) or ``'irregular'`` (pattern-driven
        boundaries from :mod:`repro.symbolic.blocking`: dense-row/
        arrowhead boundary snapping + similarity-gated amalgamation,
        floored by the uniform blocking so it never costs more words).
        Part of the plan/service cache key: different blockings never
        share a plan.
    """

    lookahead: int = 8
    pivot_eps: float = 1e-10
    sparse_bcast: bool = False
    n_workers: int = 1
    fault_plan: object | None = None   # repro.resilience.FaultPlan
    checkpoint_every: int = 0
    recovery: str = "restart"
    compact_comm: bool = False
    blocking: str = "uniform"

    def __post_init__(self):
        if self.blocking not in ("uniform", "irregular"):
            raise ValueError(f"unknown blocking strategy {self.blocking!r}; "
                             "expected 'uniform' or 'irregular'")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        if self.pivot_eps <= 0:
            raise ValueError("pivot_eps must be positive")
        if self.n_workers < 0:
            raise ValueError("n_workers must be non-negative (0 = auto)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative (0 = off)")
        if self.recovery not in ("restart", "z-replica"):
            raise ValueError(f"unknown recovery policy {self.recovery!r}; "
                             "expected 'restart' or 'z-replica'")

    def resilience_active(self) -> bool:
        """Whether the resilience engine watches this run (serial, one
        dispatch per task)."""
        return bool(self.fault_plan) or self.checkpoint_every > 0


@dataclass
class Factor2DResult:
    """Outcome of one per-grid (2D) factorization."""

    nodes: list[int]
    perturbed_pivots: int = 0
    schur_block_updates: int = 0
