"""Static plan analyzer: prove schedule-independence before executing.

:func:`analyze_plan` walks a :class:`~repro.plan.tasks.GridPlan` or
:class:`~repro.plan.tasks.Plan3D` and reports every violation of the
properties the rest of the system silently relies on:

* **races** — two tasks touch the same ``(view, i, j)`` block in
  conflicting modes (see :mod:`repro.verify.access`) with no dependency
  path between them. Race-free plans are what make the interpreter's
  ledgers and factors schedule-independent (the fuzzer then checks this
  dynamically);
* **cycles / dangling deps** — a dep tid that does not exist or does not
  precede its task (tids are emitted in topological order, so any
  forward edge would be a cycle);
* **malformed broadcasts / reduces** — a ``BcastSpec`` whose root is
  outside its participant list, duplicate participants, negative
  payloads; an ``AncestorReduce`` whose parallel arrays are missing or
  length-mismatched (an unmatched send/recv pair in the making);
* **reduce aliasing** — the generalized z-replica invariant from the
  resilience subsystem: a reduce must never target its own source
  (``dst_grid == src_grid``), and once a grid has been a reduction
  *source* it is retired — it must never reappear at a shallower level
  as an active grid or reduce endpoint, because its replica now holds
  pre-reduction partial sums. Merged-variant redistributions instead
  promise to skip owner-preserving moves (a ``'mov'`` with
  ``src == dst`` would double-charge the ledger);
* **rank escapes** — a task referencing ranks outside its grid's span
  (a level is booked as one stream and its grids' kernels may run on
  separate threads only because each grid keeps to its own ranks);
* **disconnected roots** — a task with no dependencies that is not a
  panel root, a level barrier, or a first-level reduce;
* **inconsistent arrays** — the analyzer reads a grid plan through its
  typed width-1 view while the interpreter walks the arrays
  (:mod:`repro.plan.arrays`), so the verdicts above transfer to what
  executes only if the two agree: each grid plan's records are packed
  back into arrays and compared column by column with the plan's own,
  flattened broadcast pairs, buffer charges and cut points included.

A :class:`~repro.plan.solve.SolvePlan` (one triangular sweep) gets the
dependency checks, a check that its ``ev_ptr`` tiles its event stream, and
the race pass over the segment-level access model.

The check is exhaustive rather than sampled: reachability is computed
for every task as a Python big-int ancestor bitmask (one forward pass,
``dep < tid`` makes list order topological), and every conflicting
same-block access pair is tested against it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid2D
from repro.plan.arrays import SCHUR_UPDATE, TaskArrays
from repro.plan.solve import SolvePlan
from repro.plan.tasks import (
    GridPlan,
    LevelBarrier,
    PanelBcast,
    PanelFactor,
    Plan3D,
    ReplicatedFactor,
    SchurUpdate,
)
from repro.verify.access import (
    GLOBAL_VIEW,
    conflicts,
    grid_task_accesses,
    reduce_accesses,
    replicated_accesses,
    solve_task_accesses,
)
from repro.utils.ragged import csr_ptr

__all__ = ["Issue", "StaticReport", "PlanVerificationError", "analyze_plan",
           "grid_plan_rank_escapes", "drop_dep_edge"]


class PlanVerificationError(AssertionError):
    """Raised by :meth:`StaticReport.raise_if_issues` on a dirty plan."""


@dataclass(frozen=True)
class Issue:
    """One analyzer finding: a rule name, a message, the tasks involved."""

    kind: str  # 'race' | 'cycle' | 'malformed-bcast' | 'malformed-reduce'
    #          | 'reduce-alias' | 'rank-escape' | 'disconnected'
    #          | 'inconsistent-arrays'
    message: str
    tids: tuple[int, ...] = ()


@dataclass
class StaticReport:
    """Outcome of one :func:`analyze_plan` run."""

    n_tasks: int = 0
    n_blocks: int = 0
    n_pairs_checked: int = 0
    #: True when the race check was skipped because the plan exceeds
    #: ``max_race_tasks`` (structural checks still ran).
    race_check_skipped: bool = False
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_issues(self) -> None:
        if self.issues:
            raise PlanVerificationError(self.summary())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def summary(self) -> str:
        head = (f"plan verification: {self.n_tasks} tasks, "
                f"{self.n_blocks} block views, "
                f"{self.n_pairs_checked} conflict pairs checked"
                + (", race check skipped (plan too large)"
                   if self.race_check_skipped else ""))
        if self.ok:
            return head + " -- clean"
        lines = [head + f" -- {len(self.issues)} issue(s):"]
        for issue in self.issues[:20]:
            lines.append(f"  [{issue.kind}] {issue.message}")
        if len(self.issues) > 20:
            lines.append(f"  ... and {len(self.issues) - 20} more")
        return "\n".join(lines)


#: Per-issue-kind cap so a systematically broken plan yields a readable
#: report instead of one issue per block pair.
_MAX_ISSUES_PER_KIND = 50


@dataclass
class _Entry:
    """One task in analyzer-normalized form."""

    task: object
    pos: int
    view: object = None
    grid: ProcessGrid2D | None = None
    backend: str | None = None
    level_index: int = 0
    is_reduce: bool = False


def _entries(plan) -> tuple[list[_Entry], bool]:
    """Flatten a GridPlan or Plan3D into analyzer entries, in plan order."""
    out: list[_Entry] = []
    if isinstance(plan, GridPlan):
        grid = ProcessGrid2D(plan.px, plan.py, base=plan.base)
        view = ("replica", plan.g)
        for t in plan.tasks:
            out.append(_Entry(t, len(out), view=view, grid=grid,
                              backend=plan.backend))
        return out, False
    if not isinstance(plan, Plan3D):
        raise TypeError(f"expected GridPlan or Plan3D, got {type(plan)!r}")
    for li, step in enumerate(plan.levels):
        for gp in step.grid_plans:
            grid = ProcessGrid2D(gp.px, gp.py, base=gp.base)
            view = GLOBAL_VIEW if plan.merged else ("replica", gp.g)
            for t in gp.tasks:
                out.append(_Entry(t, len(out), view=view, grid=grid,
                                  backend=gp.backend, level_index=li))
        for rep in step.replicated:
            out.append(_Entry(rep, len(out), level_index=li))
        for red in step.reduces:
            out.append(_Entry(red, len(out), level_index=li, is_reduce=True))
        out.append(_Entry(step.barrier, len(out), level_index=li))
    return out, plan.merged


def _check_specs(task, allowed, where: str, add) -> None:
    """Every broadcast of ``task`` is well-formed and stays inside the
    rank set ``allowed`` (described as ``where`` in the finding)."""
    for spec in task.bcasts:
        for bad, what in (
                (spec.root not in spec.ranks,
                 f"bcast root {spec.root} not in its participant list"),
                (len(set(spec.ranks)) != len(spec.ranks),
                 "duplicate bcast participants"),
                (not spec.ranks, "empty bcast participant list"),
                (spec.words < 0, "negative bcast payload"),
                (spec.route_from is not None
                 and spec.route_from == spec.root,
                 "bcast routed from its own root")):
            if bad:
                add("malformed-bcast", f"task {task.tid}: {what}",
                    (task.tid,))
        route = [] if spec.route_from is None else [spec.route_from]
        bad = [r for r in dict.fromkeys((spec.root, *spec.ranks, *route))
               if r not in allowed]
        if bad:
            add("rank-escape", f"task {task.tid}: bcast ranks {bad} "
                f"outside {where}", (task.tid,))


def _check_bcasts(entry: _Entry, add) -> None:
    task = entry.task
    lo, hi = entry.grid.base, entry.grid.base + entry.grid.px * entry.grid.py
    if not (lo <= task.owner < hi):
        add("rank-escape", f"task {task.tid} ({task.kind}) owner "
            f"{task.owner} outside grid span [{lo}, {hi})", (task.tid,))
    _check_specs(task, range(lo, hi), f"grid span [{lo}, {hi})", add)


def _check_replicated(entry: _Entry, add) -> None:
    """Structural checks for a 2.5D aggregate ancestor sweep.

    The sweep spans several z-layers by design, so there is no single
    grid span to contain it; instead its broadcasts must stay within the
    recorded replication group's rank footprint, and the home layer must
    be part of the group (it holds the authoritative level data the
    z-broadcasts fan out from).
    """
    task = entry.task
    if task.home not in task.grids:
        add("malformed-bcast", f"task {task.tid}: home grid {task.home} "
            "not in its replication group", (task.tid,))
    if len(set(task.grids)) != len(task.grids):
        add("malformed-bcast", f"task {task.tid}: duplicate grids in "
            "replication group", (task.tid,))
    _check_specs(task, set(task.ranks),
                 "the replication group's footprint", add)


def _check_reduce(entry: _Entry, merged: bool, add) -> None:
    red = entry.task
    if red.ops is not None:
        for op, src, dst, w in red.ops:
            if op not in ("red", "mov"):
                add("malformed-reduce", f"reduce {red.tid}: unknown op "
                    f"{op!r}", (red.tid,))
            if w < 0:
                add("malformed-reduce", f"reduce {red.tid}: negative "
                    "payload", (red.tid,))
            if op == "mov" and src == dst:
                # The merged builder promises to emit a move only when
                # the owner changes; a self-move would double-charge.
                add("reduce-alias", f"reduce {red.tid}: redistribution "
                    f"move with src == dst == {src}", (red.tid,))
        return
    arrays = (red.rows, red.cols, red.words, red.srcs, red.dsts)
    if any(a is None for a in arrays):
        add("malformed-reduce", f"reduce {red.tid}: standard variant with "
            "missing payload arrays", (red.tid,))
        return
    lens = {len(a) for a in arrays}
    if len(lens) != 1:
        # Unequal srcs/dsts arrays are exactly an unmatched send/recv
        # pair: no stream of matched pairs can be built from them.
        add("malformed-reduce", f"reduce {red.tid}: payload arrays have "
            f"mismatched lengths {sorted(lens)} (unmatched send/recv "
            "pairs)", (red.tid,))
        return
    if np.any(red.words < 0):
        add("malformed-reduce", f"reduce {red.tid}: negative payload",
            (red.tid,))
    if red.dst_grid == red.src_grid:
        add("reduce-alias", f"reduce {red.tid}: destination grid aliases "
            f"source grid {red.src_grid}", (red.tid,))


def _check_retired_sources(plan: Plan3D, add) -> None:
    """Generalized z-replica invariant over the whole level schedule.

    Once a grid has served as a reduction *source*, its replica holds
    pre-reduction partial sums; the pairwise schedule must never use it
    again — not as an active grid, not as a reduce endpoint. This is the
    property :meth:`Plan3D.recovery_schedule` (and thereby z-replica crash
    recovery) is built on.

    2.5D aggregate sweeps (``ancestor_replication > 1``) are the one
    sanctioned exception: re-enlisting retired/idle layers as extra
    replication bandwidth is exactly their point, so group membership is
    exempt — but the *home* layer, whose replica seeds the z-broadcasts,
    must still be live.
    """
    retired: set[int] = set()
    for step in plan.levels:
        for gp in step.grid_plans:
            if gp.g in retired:
                add("reduce-alias", f"level {step.level}: grid {gp.g} is "
                    "active after serving as a reduction source",
                    tuple(t.tid for t in gp.tasks[:1]))
        for rep in step.replicated:
            if rep.home in retired:
                add("reduce-alias", f"level {step.level}: replicated "
                    f"factor {rep.tid} homes on grid {rep.home}, already "
                    "retired as a reduction source", (rep.tid,))
        for red in step.reduces:
            for role, g in (("source", red.src_grid),
                            ("destination", red.dst_grid)):
                if g in retired:
                    add("reduce-alias", f"reduce {red.tid}: {role} grid "
                        f"{g} was already retired as a reduction source",
                        (red.tid,))
        for red in step.reduces:
            retired.add(red.src_grid)


def _check_arrays(have: TaskArrays, tasks, where: str, add) -> None:
    """The arrays the interpreter walks equal what the view derives."""
    want = TaskArrays.from_records(tasks, have.schur_pair_costs())
    for f in dataclasses.fields(TaskArrays):
        if f.name in ("comms", "bc_comm"):   # interning order is free
            continue
        if not np.array_equal(getattr(have, f.name), getattr(want, f.name)):
            add("inconsistent-arrays", f"{where}: column {f.name!r} differs "
                "from what the task records derive",
                tuple(have.tid[:1].tolist()))


def analyze_plan(plan, sf, *, max_race_tasks: int = 20000) -> StaticReport:
    """Run every static check on ``plan`` (a grid plan, a 3D plan or a
    solve plan) and return a report.

    ``sf`` is the symbolic factorization the plan was built from (the
    Schur access sets come from its fill panels). Plans larger than
    ``max_race_tasks`` skip the quadratic race check (the structural
    checks are linear and always run); the report records the skip.
    """
    report = StaticReport()
    seen: dict[str, int] = {}

    def add(kind: str, message: str, tids: tuple[int, ...] = ()) -> None:
        seen[kind] = seen.get(kind, 0) + 1
        if seen[kind] <= _MAX_ISSUES_PER_KIND:
            report.issues.append(Issue(kind=kind, message=message,
                                       tids=tids))

    if isinstance(plan, SolvePlan):
        return _analyze_solve(plan, report, add, max_race_tasks)
    entries, merged = _entries(plan)
    report.n_tasks = len(entries)
    pos_of: dict[int, int] = {}

    # -- structural pass ---------------------------------------------------
    for e in entries:
        t = e.task
        if t.tid in pos_of:
            add("cycle", f"duplicate tid {t.tid}", (t.tid,))
        pos_of[t.tid] = e.pos
        if e.is_reduce:
            _check_reduce(e, merged, add)
        elif isinstance(t, ReplicatedFactor):
            _check_replicated(e, add)
        elif isinstance(t, (PanelFactor, PanelBcast)):
            _check_bcasts(e, add)
    for e in entries:
        t = e.task
        for d in t.deps:
            dp = pos_of.get(d)
            if dp is None:
                add("cycle", f"task {t.tid} depends on unknown tid {d}",
                    (t.tid, d))
            elif dp >= e.pos:
                add("cycle", f"task {t.tid} depends on later task {d} "
                    "(forward edge / cycle)", (t.tid, d))
        root_ok = isinstance(t, (PanelFactor, LevelBarrier))
        if not t.deps and not root_ok \
                and not (e.is_reduce and e.level_index == 0):
            add("disconnected", f"task {t.tid} ({t.kind}) has no "
                "dependencies but is not a panel root or level barrier",
                (t.tid,))
    if isinstance(plan, Plan3D) and not merged:
        _check_retired_sources(plan, add)
    for gp in [plan] if isinstance(plan, GridPlan) else \
            [gp for step in plan.levels for gp in step.grid_plans]:
        _check_arrays(gp.arrays, gp.tasks, f"grid {gp.g} level {gp.level}",
                      add)
    for step in getattr(plan, "levels", ()):
        # What the plain walk books: the level's arrays, against its grid
        # plans' records (a one-grid level shares its grid's arrays).
        if step.grid_plans and step.arrays is not step.grid_plans[0].arrays:
            _check_arrays(step.arrays,
                          [t for gp in step.grid_plans for t in gp.tasks],
                          f"level {step.level}", add)

    # -- race pass ---------------------------------------------------------
    if len(entries) > max_race_tasks:
        report.race_check_skipped = True
        return report

    accesses: dict[tuple, list[tuple[int, int, str]]] = {}
    for e in entries:
        t = e.task
        if e.is_reduce:
            for g, i, j, mode in reduce_accesses(t):
                key = (("replica", g), i, j)
                accesses.setdefault(key, []).append((e.pos, t.tid, mode))
        elif isinstance(t, ReplicatedFactor):
            for g, i, j, mode in replicated_accesses(sf, t):
                key = (("replica", g), i, j)
                accesses.setdefault(key, []).append((e.pos, t.tid, mode))
        elif isinstance(t, (PanelFactor, PanelBcast, SchurUpdate)):
            for i, j, mode in grid_task_accesses(e.backend, sf, t):
                key = (e.view, i, j)
                accesses.setdefault(key, []).append((e.pos, t.tid, mode))
    _race_pass(report, add, [[pos_of.get(d, len(entries))
                              for d in e.task.deps] for e in entries],
               accesses)
    return report


def _race_pass(report: StaticReport, add, deps, accesses) -> None:
    """Every conflicting same-key access pair has a dependency path.

    ``deps[p]`` are the positions entry ``p`` depends on (a position not
    before ``p`` — already reported — is ignored); ``accesses`` maps a
    memory key to its ``(position, tid, mode)`` accesses."""
    # Ancestor bitmask per task: bit p set iff entry p is reachable
    # through dep edges. One forward pass suffices because list order is
    # topological.
    reach: list[int] = [0] * len(deps)
    for p, ds in enumerate(deps):
        m = 0
        for dp in ds:
            if dp < p:
                m |= reach[dp] | (1 << dp)
        reach[p] = m
    report.n_blocks = len(accesses)
    pairs = 0
    for key, accs in accesses.items():
        n = len(accs)
        if n < 2:
            continue
        for a in range(n):
            pa, tida, ma = accs[a]
            for b in range(a + 1, n):
                pb, tidb, mb = accs[b]
                if pa == pb:
                    # Same entry: an aggregate sweep accesses the block
                    # more than once — internally ordered by construction.
                    continue
                if not conflicts(ma, mb):
                    continue
                pairs += 1
                lo, hi = (pa, pb) if pa < pb else (pb, pa)
                if not (reach[hi] >> lo) & 1:
                    add("race", f"tasks {tida} ({ma}) and {tidb} ({mb}) "
                        f"both touch {key} with no dependency path",
                        (tida, tidb))
    report.n_pairs_checked = pairs


def _analyze_solve(plan: SolvePlan, report: StaticReport, add,
                   max_race_tasks: int) -> StaticReport:
    """The solve-plan checks: dependencies precede their task, ``ev_ptr``
    tiles the event stream, no segment race."""
    T = report.n_tasks = plan.n_tasks
    ptr, dep_idx = plan.dep_ptr.tolist(), plan.dep_idx.tolist()
    deps = [dep_idx[a:b] for a, b in zip(ptr, ptr[1:])]
    for t, ds in enumerate(deps):
        for d in ds:
            if not 0 <= d < t:
                add("cycle", f"solve task {t} depends on task {d}, which "
                    "does not precede it", (t, d))
    if plan.ev_ptr[0] != 0 or plan.ev_ptr[-1] != plan.ev.src.size \
            or (np.diff(plan.ev_ptr) < 1).any():
        add("inconsistent-arrays", "ev_ptr does not tile the solve "
            "plan's event stream")
    if T > max_race_tasks:
        report.race_check_skipped = True
        return report
    accesses: dict = {}
    for t in range(T):
        for key, mode in solve_task_accesses(plan, t):
            accesses.setdefault(key, []).append((t, t, mode))
    _race_pass(report, add, deps, accesses)
    return report


def grid_plan_rank_escapes(plan: GridPlan) -> list[str]:
    """Cheap structural rank-containment check for one grid plan.

    Any rank outside ``[base, base + px*py)`` would put the grid's events
    on a sibling grid's ranks, which a level booked as one stream would
    not notice. Only the ranks recorded in task payloads are checked
    — Schur-update targets are grid-owner lookups and cannot escape by
    construction.
    """
    lo, hi = plan.base, plan.base + plan.px * plan.py
    A = plan.arrays
    panel = A.kind != SCHUR_UPDATE
    ranks = np.concatenate(
        [A.owner[panel], A.bc_root, A.bc_route[A.bc_route >= 0]]
        + [np.asarray(A.comms[c], dtype=np.int64)   # a slice shares its
           for c in np.unique(A.bc_comm).tolist()])  # level's communicators
    if not ranks.size or (lo <= ranks.min() and ranks.max() < hi):
        return []   # the common case: no record is ever built
    out: list[str] = []
    grid = ProcessGrid2D(plan.px, plan.py, base=plan.base)
    for pos, t in enumerate(plan.tasks):
        if isinstance(t, (PanelFactor, PanelBcast)):
            _check_bcasts(_Entry(t, pos, grid=grid),
                          lambda kind, message, _tids:
                          kind == "rank-escape" and out.append(message))
    return out


# -- mutation self-test helper ---------------------------------------------

def _race_edge_candidates(plan) -> list[tuple]:
    """Dep edges whose removal is *guaranteed* to create a block race.

    Two classes qualify on every real plan:

    * ``PanelBcast -> PanelFactor``: the solve reads the diagonal block
      the factorization writes, and that edge is the only path;
    * ``SchurUpdate -> PanelBcast``: the update reads the panel block the
      solve writes, again with no alternative path.

    Other edges (``PanelFactor -> SchurUpdate`` readiness edges, barrier
    anchors) are ordering-only — removing them may leave the block
    accesses transitively ordered, which would make the self-test flaky.
    """
    walk = [((), plan)] if isinstance(plan, GridPlan) else \
        [(li, step) for li, step in enumerate(plan.levels) if step.grid_plans]
    cands: list[tuple] = []
    for loc, part in walk:
        tasks = part.arrays.records
        kind_of = {t.tid: t.kind for t in tasks}
        for ti, t in enumerate(tasks):
            for d in t.deps:
                if (t.kind, kind_of.get(d)) in (("panel_bcast", "panel_factor"),
                                ("schur_update", "panel_bcast")):
                    cands.append((loc, ti, d))
    return cands


def drop_dep_edge(plan, seed: int = 0):
    """Return ``(mutated_plan, description)`` with one dep edge removed.

    The edge is drawn (seeded) from the guaranteed-race candidates of
    :func:`_race_edge_candidates`; the mutated grid plan (in a 3D plan:
    the whole level, its grid plans re-cut) is re-packed from its task
    records with the one task rebuilt. Feeding the result to
    :func:`analyze_plan` MUST produce at least one ``race`` issue — the
    mutation self-test that proves the analyzer is not vacuous. Every edge
    of a solve plan qualifies: each is the only path between a segment's
    writer and a reader or accumulator of it.
    """
    if isinstance(plan, SolvePlan):
        e = int(np.random.default_rng(seed).integers(plan.dep_idx.size))
        n_dep = np.diff(plan.dep_ptr)
        n_dep[np.searchsorted(plan.dep_ptr, e, "right") - 1] -= 1
        return dataclasses.replace(
            plan, dep_ptr=csr_ptr(n_dep), dep_idx=np.delete(plan.dep_idx, e)
        ), f"dropped solve-plan dep edge {e} (on task {plan.dep_idx[e]})"
    cands = _race_edge_candidates(plan)
    if not cands:
        raise ValueError("plan has no droppable race-guaranteed dep edges")
    rng = np.random.default_rng(seed)
    loc, ti, dep = cands[int(rng.integers(len(cands)))]

    def mutate(part):       # a grid plan, or a whole level step
        tasks = list(part.arrays.records)
        old = tasks[ti]
        tasks[ti] = dataclasses.replace(
            old, deps=tuple(d for d in old.deps if d != dep))
        desc = f"dropped dep {dep} from task {old.tid} " \
            f"({old.kind}, node {old.node})"
        return part.with_tasks(tasks), desc

    if isinstance(plan, GridPlan):
        return mutate(plan)
    levels = list(plan.levels)
    levels[loc], desc = mutate(levels[loc])
    return dataclasses.replace(plan, levels=levels), desc
