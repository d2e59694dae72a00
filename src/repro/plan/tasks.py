"""Typed task graph for the factorization drivers.

A *plan* is an explicit DAG of six task kinds — ``PanelFactor``,
``PanelBcast``, ``SchurUpdate``, ``ReplicatedFactor``, ``AncestorReduce``
and ``LevelBarrier`` —
emitted once by a builder that walks the :class:`SymbolicFactorization`
and :class:`TreeForest` (:mod:`repro.plan.build`), and executed by a
single shared interpreter against a pluggable kernel backend
(:mod:`repro.plan.interpret` / :mod:`repro.plan.backends`).

Two orders coexist on every plan:

* **list order** — the exact schedule the imperative drivers used to
  execute (including the Section II-F lookahead interleave, which the
  builder replays at plan-build time). The interpreter walks tasks in
  list order, so simulator ledgers are *bit-identical* to the historical
  loop drivers.
* **dependency order** — each task's ``deps`` tuple names the data it
  waits on (tids of earlier tasks). This is analysis metadata: the
  critical-path instrumentation (:mod:`repro.analysis.planstats`) walks
  it to find the longest α-β-γ chain, mirroring the paper's Section IV
  latency analysis.

Tids are assigned in emission order, so ``dep < tid`` holds for every
edge and one forward pass is a topological traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BcastSpec", "Task", "PanelFactor", "PanelBcast", "SchurUpdate",
           "ReplicatedFactor", "AncestorReduce", "LevelBarrier", "FusedTask",
           "FusedSchurPayload", "PanelSegment", "GridPlan", "LevelStep",
           "Plan3D", "task_comm", "task_flops"]


@dataclass(frozen=True)
class BcastSpec:
    """One broadcast's participants, resolved at plan-build time.

    ``root`` is the *effective* broadcast root and is always a member of
    ``ranks``. When the owning rank is outside the target communicator,
    the two drivers historically differed: LU prepends the owner to the
    participant list (``ranks[0] == root``), while Cholesky routes the
    payload through the communicator's entry rank first
    (``route_from`` = the original owner, ``root`` = the entry rank —
    pdpotrf's transpose-and-broadcast hop). Both conventions reduce to
    plain payload fields here, so the interpreter needs no variant logic.

    ``words`` is priced at build time through the block-volume model
    (:mod:`repro.comm.volume` — dense ``rows * cols`` or compact
    ``min(dense, 1.5 * nnz)``), so the interpreter, the plan compiler's
    fused replays, :func:`task_comm` and the conservation oracle all see
    one consistent number with no per-layer re-derivation.
    """

    root: int
    ranks: tuple[int, ...]
    words: float
    route_from: int | None = None


@dataclass(frozen=True, kw_only=True)
class Task:
    """Base task: a stable id plus the tids of its data dependencies."""

    tid: int
    deps: tuple[int, ...] = ()

    kind = "task"


@dataclass(frozen=True, kw_only=True)
class PanelFactor(Task):
    """Diagonal-block factorization of supernode ``node`` (getrf/potrf)
    plus the diagonal-block broadcasts feeding its panel solves."""

    node: int
    owner: int
    flops: float
    bcasts: tuple[BcastSpec, ...] = ()

    kind = "panel_factor"


@dataclass(frozen=True, kw_only=True)
class PanelBcast(Task):
    """One panel block's triangular solve and broadcast(s).

    ``block`` is the (row, col) block id; ``side`` is ``'U'`` (row panel,
    LU only) or ``'L'``. LU panels broadcast along one communicator;
    Cholesky L panels along two (row operand + transposed column operand).
    """

    node: int
    block: tuple[int, int]
    side: str
    owner: int
    flops: float
    bcasts: tuple[BcastSpec, ...] = ()

    kind = "panel_bcast"


@dataclass(frozen=True, kw_only=True)
class SchurUpdate(Task):
    """Supernode ``node``'s whole Schur update (all (i, j) target pairs).

    ``n_pairs`` block pairs are updated by one small GEMM each; their
    per-pair owners and flops (the booked events) come from the backend's
    ``pair_costs`` at execution/compile time.
    """

    node: int
    n_pairs: int
    flops: float

    kind = "schur_update"


@dataclass(frozen=True, kw_only=True)
class ReplicatedFactor(Task):
    """One ancestor forest's aggregate 2.5D factorization sweep.

    Emitted by :func:`repro.plan.build.build_3d_plan` when
    ``FactorOptions.ancestor_replication > 1``: instead of the home grid's
    per-block 2D plan, forest ``forest`` at tree level ``level`` is
    factored by ``len(grids)``-way replication over its range's z-layers
    (paper Section VII / Solomonik-Demmel 2.5D dense LU). A first-order
    cost model — no per-block schedule, so cost-only execution only.

    ``bcasts`` replicate the level panel from the home layer along z
    (one :class:`BcastSpec` per (x, y) position); the factorization sweep
    then moves ``chunk`` words per rank per ring step for ``steps`` steps
    around ``ranks`` (ascending, ring order) and spreads ``flops`` evenly
    over them. ``words`` is the volume-priced level total the chunks were
    derived from (reporting only). ``nodes`` records which tree nodes the
    sweep factors — the verify stack derives the task's block-access
    footprint from their fill panels.
    """

    level: int
    forest: int
    nodes: tuple[int, ...]
    home: int
    grids: tuple[int, ...]
    ranks: tuple[int, ...]
    bcasts: tuple[BcastSpec, ...]
    steps: int
    chunk: float
    flops: float
    words: float

    kind = "replicated_factor"


@dataclass(frozen=True, kw_only=True)
class AncestorReduce(Task):
    """One (src grid -> dst grid) hop of Algorithm 1's Ancestor-Reduction.

    Standard variant: parallel arrays ``rows/cols/words`` (the ancestor
    blocks, in the driver's gather order) and ``srcs/dsts`` (their owner
    ranks in the two layers), executed as one ``sendrecv_batch``.

    Merged-grid variant: ``ops`` is a tuple of ``(op, src, dst, words)``
    with ``op`` = ``'red'`` (pairwise reduce) or ``'mov'`` (redistribution
    move into the doubled layout); ``srcs/dsts`` are ``None``.
    """

    dst_grid: int
    src_grid: int
    below_level: int
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    words: np.ndarray | None = None
    srcs: np.ndarray | None = None
    dsts: np.ndarray | None = None
    ops: tuple[tuple[str, int, int, float], ...] | None = None

    kind = "ancestor_reduce"


@dataclass(frozen=True, kw_only=True)
class LevelBarrier(Task):
    """End-of-level synchronization point of Algorithm 1's schedule.

    Zero-cost: the simulator's per-rank clocks already encode waiting, so
    the interpreter books no events here — it only records the level's
    makespan. In the DAG the barrier is what the next level's root tasks
    depend on, making the level structure explicit for the critical-path
    analysis.
    """

    level: int

    kind = "level_barrier"


@dataclass(frozen=True, eq=False)
class FusedSchurPayload:
    """Precomputed cost arrays of a fused ``SchurUpdate`` run.

    ``owners``/``flops`` are the members' per-pair cost arrays concatenated
    in member order — exactly what each member's unfused dispatch passes
    to ``Simulator.compute_batch``, so one batched call over the
    concatenation books the identical ledger.
    """

    owners: np.ndarray
    flops: np.ndarray


@dataclass(frozen=True, eq=False)
class PanelSegment:
    """One vectorizable slice ``members[start:stop]`` of a fused panel run.

    Within a segment no member's compute owner appears in an *earlier*
    member's communicator, so hoisting the segment's compute bookings
    above its communication (the one event reorder vectorization needs)
    cannot change any rank's clock. ``srcs``/``dsts``/``words`` are the
    members' broadcast trees flattened to point-to-point pairs in replay
    order (route hop first, then the binomial-tree spans); ``allocs`` is
    the serial order of ``(node, rank, words)`` receive-buffer charges.
    The event columns are plain lists: segments are usually a handful of
    events, where the interpreter books them through the scalar simulator
    calls anyway, and list storage skips an array round-trip per segment
    on both sides.
    """

    start: int
    stop: int
    owners: list[int]
    flops: list[float]
    srcs: list[int]
    dsts: list[int]
    words: list[float]
    allocs: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True, kw_only=True, eq=False)
class FusedTask(Task):
    """A maximal run of same-kind grid tasks executed as one dispatch.

    Emitted by the compile pass (:mod:`repro.plan.compile`), never by the
    builders. ``members`` is the original contiguous run in plan list
    order; ``deps`` is the union of the members' external dependencies and
    ``tid`` is the last member's tid, so DAG edges from later tasks into
    the run stay valid and ``dep < tid`` still holds. ``payload`` holds
    the precomputed vectorized form (:class:`FusedSchurPayload` for Schur
    runs, a tuple of :class:`PanelSegment` for panel runs); ``None`` when
    ``vector_safe`` is False, in which case the interpreter replays the
    members one by one (same ledgers, no fusion win).
    """

    members: tuple[Task, ...]
    fused_kind: str
    vector_safe: bool = True
    payload: object = None

    kind = "fused"


def _bcast_comm(spec: BcastSpec) -> tuple[int, float]:
    """(messages, words) a BcastSpec moves: binomial tree + route hop."""
    hops = len(spec.ranks) - 1
    msgs, words = hops, hops * spec.words
    if spec.route_from is not None:
        msgs += 1
        words += spec.words
    return msgs, words


def task_comm(task: Task) -> tuple[int, float]:
    """Total (messages, words) ``task`` puts on the network.

    Reads the words baked into each :class:`BcastSpec` / reduce payload,
    so it reports whatever block-volume model (dense or compact,
    :mod:`repro.comm.volume`) the plan was built under.
    """
    if isinstance(task, FusedTask):
        msgs, words = 0, 0.0
        for m in task.members:
            mm, mw = task_comm(m)
            msgs += mm
            words += mw
        return msgs, words
    if isinstance(task, (PanelFactor, PanelBcast)):
        msgs, words = 0, 0.0
        for spec in task.bcasts:
            m, w = _bcast_comm(spec)
            msgs += m
            words += w
        return msgs, words
    if isinstance(task, ReplicatedFactor):
        msgs, words = 0, 0.0
        for spec in task.bcasts:
            m, w = _bcast_comm(spec)
            msgs += m
            words += w
        nranks = len(task.ranks)
        if nranks > 1:  # a one-rank ring is a self-message: free
            msgs += task.steps * nranks
            words += task.steps * nranks * task.chunk
        return msgs, words
    if isinstance(task, AncestorReduce):
        # Self-messages (src == dst) are free in the simulator — a local
        # pointer pass — so they don't count as network traffic here
        # either. The merged redistribution hits this whenever a block's
        # owner is unchanged under the doubled layout.
        if task.ops is not None:
            live = [w for _op, src, dst, w in task.ops if src != dst]
            return len(live), float(sum(live))
        mask = task.srcs != task.dsts
        return int(mask.sum()), float(task.words[mask].sum())
    return 0, 0.0


def task_flops(task: Task) -> tuple[str, float]:
    """``(compute kind, flops)`` of ``task`` (kind '' when it computes
    nothing). Reduces pay one flop per word at the receiving copy."""
    if isinstance(task, FusedTask):
        # Members share a kind, so their flops land in one ledger.
        kind = ""
        flops = 0.0
        for m in task.members:
            kind, f = task_flops(m)
            flops += f
        return kind, flops
    if isinstance(task, PanelFactor):
        return "diag", task.flops
    if isinstance(task, PanelBcast):
        return "panel", task.flops
    if isinstance(task, SchurUpdate):
        return "schur", task.flops
    if isinstance(task, ReplicatedFactor):
        # The aggregate sweep books the whole level under 'schur' (the
        # dominant kernel).
        return "schur", task.flops
    if isinstance(task, AncestorReduce):
        if task.ops is not None:
            return "reduce_add", float(sum(
                w for op, *_x, w in task.ops if op == "red"))
        return "reduce_add", float(task.words.sum())
    return "", 0.0


@dataclass
class GridPlan:
    """One grid's ordered task list for one level (or the whole 2D run).

    ``backend`` names the kernel backend (``'lu'`` / ``'cholesky'``) the
    interpreter resolves. The 2D grid ships as ``(px, py, base)`` so the
    plan stays cheap to pickle to pool workers.
    """

    backend: str
    g: int
    level: int
    px: int
    py: int
    base: int
    nodes: list[int]
    tasks: list[Task] = field(default_factory=list)

    def iter_tasks(self):
        yield from self.tasks

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass
class LevelStep:
    """One level of Algorithm 1: independent grid plans (or, under 2.5D
    ancestor replication, :class:`ReplicatedFactor` sweeps), then
    reductions, then the barrier."""

    level: int
    grid_plans: list[GridPlan]
    reduces: list[AncestorReduce]
    barrier: LevelBarrier
    #: Aggregate 2.5D forest sweeps replacing this level's grid plans when
    #: ``FactorOptions.ancestor_replication > 1`` (empty otherwise — a
    #: level is either all grid plans or all replicated sweeps).
    replicated: list = field(default_factory=list)


@dataclass
class Plan3D:
    """The whole 3D schedule, level-major (level ``l`` down to 0)."""

    backend: str
    merged: bool
    levels: list[LevelStep]

    def iter_tasks(self):
        for step in self.levels:
            for gp in step.grid_plans:
                yield from gp.tasks
            yield from step.replicated
            yield from step.reduces
            yield step.barrier

    @property
    def n_tasks(self) -> int:
        return sum(1 for _ in self.iter_tasks())

    # -- recovery support (repro.resilience) -------------------------------

    def recovery_schedule(self, g: int, below_index: int):
        """Grid ``g``'s share of the first ``below_index`` level steps, in
        executed order: ``('plan', GridPlan)`` and ``('reduce', task)``
        items interleaved level by level.

        This is exactly what a z-replica recovery replays after resetting
        the crashed grid to its initial (Fig. 5) state: the pairwise
        schedule makes a grid active at level ``lvl`` the *destination*
        (never the source) of every deeper boundary's reduce, and
        ``accumulate`` leaves source copies intact — so replaying the
        grid's own plans plus the reduces aimed at it rebuilds its
        ancestor contributions from the surviving sibling replicas.
        """
        for step in self.levels[:below_index]:
            for gp in step.grid_plans:
                if gp.g == g:
                    yield "plan", gp
            for red in step.reduces:
                if red.dst_grid == g:
                    yield "reduce", red
