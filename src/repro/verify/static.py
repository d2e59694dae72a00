"""Static plan analyzer: prove schedule-independence before executing.

:func:`analyze_plan` walks a :class:`~repro.plan.tasks.GridPlan` or
:class:`~repro.plan.tasks.Plan3D` and reports every violation of the
properties the rest of the system silently relies on. It reads a grid
plan's task arrays (:mod:`repro.plan.arrays`) — the columns the
interpreter walks — so its verdicts are about what executes:

* **races** — two tasks touch the same ``(view, i, j)`` block in
  conflicting modes (see :mod:`repro.verify.access`) with no dependency
  path between them. Race-free plans are what make the interpreter's
  ledgers and factors schedule-independent (the fuzzer then checks this
  dynamically);
* **cycles / dangling deps** — a dep tid that does not exist or does not
  precede its task (tids are emitted in topological order, so any
  forward edge would be a cycle);
* **malformed broadcasts / reduces** — a broadcast whose root is outside
  its communicator, duplicate participants, negative payloads; an
  ``AncestorReduce`` whose parallel arrays are missing or
  length-mismatched (an unmatched send/recv pair in the making);
* **reduce aliasing** — the generalized z-replica invariant from the
  resilience subsystem: a reduce must never target its own source
  (``dst_grid == src_grid``), and once a grid has been a reduction
  *source* it is retired — it must never reappear at a shallower level
  as an active grid or reduce endpoint, because its replica now holds
  pre-reduction partial sums. Merged-variant redistributions also
  promise to skip owner-preserving moves (a ``'mov'`` with
  ``src == dst`` would double-charge the ledger);
* **rank escapes** — a panel task's owner, a Schur task's pair owners, or
  a broadcast's root, routing hop or communicator outside its grid's
  span (a level is booked as one stream and its grids' kernels may run on
  separate threads only because each grid keeps to its own ranks);
* **disconnected roots** — a task with no dependencies that is not a
  panel root, a level barrier, or a first-level reduce;
* **inconsistent arrays** — the derived columns (``ev_*``, ``mem_*``,
  ``runs``) are what :meth:`TaskArrays.assemble` derives from the primary
  ones, and each grid plan of a level is the level's arrays cut at
  ``grid_ptr``: checked on the primary columns, the verdicts above then
  hold for every stream the interpreter books, whole level or slice.

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

from repro.plan.arrays import (
    DERIVED,
    KINDS,
    PANEL_BCAST,
    PANEL_FACTOR,
    PRIMARY,
    SCHUR_UPDATE,
    TaskArrays,
)
from repro.plan.solve import SolvePlan
from repro.plan.tasks import (
    AncestorReduce,
    GridPlan,
    LevelBarrier,
    Plan3D,
)
from repro.utils.ragged import csr_ptr
from repro.verify.access import (
    conflicts,
    grid_task_accesses,
    reduce_accesses,
    solve_task_accesses,
)

__all__ = ["Issue", "StaticReport", "PlanVerificationError", "analyze_plan",
           "drop_dep_edge"]


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


def _levels(plan) -> list:
    """A GridPlan's or Plan3D's levels, in plan order: per level its grid
    plans, each with the block view its tasks touch, then its level-scope
    tasks (reduces, barrier)."""
    if isinstance(plan, GridPlan):
        return [([(plan, ("replica", plan.g))], [])]
    if not isinstance(plan, Plan3D):
        raise TypeError(f"expected GridPlan or Plan3D, got {type(plan)!r}")
    return [([(gp, ("replica", gp.g)) for gp in step.grid_plans],
             [*step.reduces, step.barrier]) for step in plan.levels]


def _check_specs(specs, allowed, where: str, add) -> None:
    """Every broadcast ``(tid, root, ranks, words, hop)`` — task ``tid``
    sending ``words`` from ``root`` over the communicator ``ranks``, routed
    from ``hop`` (-1: no hop) — is well-formed and stays inside the rank
    set ``allowed`` (``where`` in the finding)."""
    faults: dict = {}       # per distinct (root, communicator, hop)
    for t, r, ranks, w, hop in specs:
        key = r, ranks, hop
        if key not in faults:
            what = [msg for bad, msg in (
                (r not in ranks, f"bcast root {r} not in its participant "
                 "list"),
                (len(set(ranks)) != len(ranks),
                 "duplicate bcast participants"),
                (not ranks, "empty bcast participant list"),
                (0 <= hop == r, "bcast routed from its own root")) if bad]
            route = (hop,) if hop >= 0 else ()
            faults[key] = what, [x for x in dict.fromkeys((r, *ranks, *route))
                                 if x not in allowed]
        what, out = faults[key]
        for msg in [*what, "negative bcast payload"] if w < 0 else what:
            add("malformed-bcast", f"task {t}: {msg}", (t,))
        if out:
            add("rank-escape", f"task {t}: bcast ranks {out} outside "
                f"{where}", (t,))


def _check_grid(gp: GridPlan, add) -> None:
    """A grid plan's panel owners, Schur pair owners and broadcasts keep
    to its rank span."""
    A, lo, hi = gp.arrays, gp.base, gp.base + gp.px * gp.py
    span = f"grid span [{lo}, {hi})"
    owner = np.where(A.kind == SCHUR_UPDATE, lo, A.owner)
    for t in np.flatnonzero((owner < lo) | (owner >= hi)).tolist():
        tid = int(A.tid[t])
        add("rank-escape", f"task {tid} ({KINDS[A.kind[t]]}) owner "
            f"{A.owner[t]} outside {span}", (tid,))
    out = (A.pair_owner < lo) | (A.pair_owner >= hi)
    for t in np.unique(np.repeat(np.arange(A.n_tasks), np.diff(A.pair_ptr))
                       [out]).tolist():
        tid, pairs = int(A.tid[t]), slice(A.pair_ptr[t], A.pair_ptr[t + 1])
        bad = sorted(set(A.pair_owner[pairs][out[pairs]].tolist()))
        add("rank-escape", f"task {tid} ({KINDS[SCHUR_UPDATE]}) pair owners "
            f"{bad} outside {span}", (tid,))
    _check_specs(zip(np.repeat(A.tid, np.diff(A.bc_ptr)).tolist(),
                     A.bc_root.tolist(),
                     [A.comms[c] for c in A.bc_comm.tolist()],
                     A.bc_words.tolist(), A.bc_route.tolist()),
                 range(lo, hi), span, add)


def _check_reduce(red: AncestorReduce, add) -> None:
    lens = [len(a) for a in (red.words, red.srcs, red.dsts, red.adds)]
    if len(set(lens)) != 1 or len(red.rows) != len(red.cols):
        # Unequal srcs/dsts arrays are exactly an unmatched send/recv
        # pair: no stream of matched pairs can be built from them.
        add("malformed-reduce", f"reduce {red.tid}: payload arrays have "
            f"mismatched lengths {lens} (messages) / {len(red.rows)}, "
            f"{len(red.cols)} (blocks)", (red.tid,))
        return
    if np.any(red.words < 0):
        add("malformed-reduce", f"reduce {red.tid}: negative payload",
            (red.tid,))
    self_move = ~red.adds & (red.srcs == red.dsts)
    if self_move.any():
        # The builder emits a move only where the owner changes; a
        # self-move would double-charge.
        add("reduce-alias", f"reduce {red.tid}: redistribution move with "
            f"src == dst == {red.srcs[self_move][0]}", (red.tid,))
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
    """
    retired: set[int] = set()
    for step in plan.levels:
        for gp in step.grid_plans:
            if gp.g in retired:
                add("reduce-alias", f"level {step.level}: grid {gp.g} is "
                    "active after serving as a reduction source",
                    tuple(gp.arrays.tid[:1].tolist()))
        for red in step.reduces:
            for role, g in (("source", red.src_grid),
                            ("destination", red.dst_grid)):
                if g in retired:
                    add("reduce-alias", f"reduce {red.tid}: {role} grid "
                        f"{g} was already retired as a reduction source",
                        (red.tid,))
        for red in step.reduces:
            retired.add(red.src_grid)


def _compare(have: TaskArrays, want: TaskArrays, cols, where: str, add
             ) -> None:
    for col in cols:
        a, b = getattr(have, col), getattr(want, col)
        if not (a == b if col == "comms" else np.array_equal(a, b)):
            add("inconsistent-arrays", f"{where}: column {col!r} differs",
                tuple(have.tid[:1].tolist()))


def _rederived(have: TaskArrays, where: str, add) -> TaskArrays:
    """What :meth:`TaskArrays.assemble` derives from ``have``'s primary
    columns, with ``have``'s derived columns checked against it."""
    want = TaskArrays.assemble(**{c: getattr(have, c) for c in PRIMARY})
    _compare(have, want, DERIVED, f"{where}, against what its primary "
             "columns derive", add)
    return want


def _check_arrays(plan, add) -> None:
    """The arrays are one form: every derived column is what the primary
    columns derive, and a level's grid plans are its arrays cut at
    ``grid_ptr`` — so what the analyzer reads is what any walk books."""
    if isinstance(plan, GridPlan):
        _rederived(plan.arrays, f"grid {plan.g} level {plan.level}", add)
        return
    for step in plan.levels:
        if not step.grid_plans:
            continue
        want = _rederived(step.arrays, f"level {step.level}", add)
        cuts = step.grid_ptr.tolist()
        if len(cuts) != len(step.grid_plans) + 1:
            add("inconsistent-arrays", f"level {step.level}: "
                f"{len(step.grid_plans)} grid plans, {len(cuts)} cut points")
        elif step.arrays is not step.grid_plans[0].arrays:
            for gp, lo, hi in zip(step.grid_plans, cuts, cuts[1:]):
                _compare(gp.arrays, want.cut(lo, hi), PRIMARY + DERIVED,
                         f"grid {gp.g} level {gp.level}, against its level's "
                         "arrays cut at grid_ptr", add)


def _cat(parts, dtype=np.int64) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=dtype),
                           *(np.asarray(p, dtype=dtype) for p in parts)])


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
    levels = _levels(plan)

    # -- structural pass: one position per task, in plan order -------------
    tid, n_dep, dep, root_ok, kinds = [], [], [], [], []
    for li, (grids, scope) in enumerate(levels):
        for gp, _view in grids:
            A = gp.arrays
            tid.append(A.tid)
            n_dep.append(np.diff(A.dep_ptr))
            dep.append(A.dep_idx)
            root_ok.append(A.kind == PANEL_FACTOR)
            kinds += [KINDS[k] for k in A.kind.tolist()]
            _check_grid(gp, add)
        for t in scope:
            tid.append([t.tid])
            n_dep.append([len(t.deps)])
            dep.append(t.deps)
            root_ok.append([isinstance(t, LevelBarrier) or (
                isinstance(t, AncestorReduce) and li == 0)])
            kinds.append(t.kind)
            if isinstance(t, AncestorReduce):
                _check_reduce(t, add)
    tid, n_dep, dep = _cat(tid), _cat(n_dep), _cat(dep)
    root_ok = _cat(root_ok, bool)
    n = report.n_tasks = tid.size
    # tid -> position, a repeated tid resolving to its last holder.
    order = np.argsort(tid, kind="stable")
    by_tid = tid[order]
    for p in np.sort(order[1:][by_tid[1:] == by_tid[:-1]]).tolist():
        add("cycle", f"duplicate tid {tid[p]}", (int(tid[p]),))
    at = np.repeat(np.arange(n), n_dep)
    i = np.maximum(np.searchsorted(by_tid, dep, "right") - 1, 0)
    known = by_tid[i] == dep
    dpos = np.where(known, order[i], n)
    for e in np.flatnonzero(~known | (dpos >= at)).tolist():
        t, d = int(tid[at[e]]), int(dep[e])
        why = f"later task {d} (forward edge / cycle)" if known[e] \
            else f"unknown tid {d}"
        add("cycle", f"task {t} depends on {why}", (t, d))
    for p in np.flatnonzero((n_dep == 0) & ~root_ok).tolist():
        add("disconnected", f"task {tid[p]} ({kinds[p]}) has no "
            "dependencies but is not a panel root or level barrier",
            (int(tid[p]),))
    if isinstance(plan, Plan3D):
        _check_retired_sources(plan, add)
    _check_arrays(plan, add)

    # -- race pass ---------------------------------------------------------
    if n > max_race_tasks:
        report.race_check_skipped = True
        return report

    accesses: dict[tuple, list[tuple[int, int, str]]] = {}
    p = 0
    for grids, scope in levels:
        for gp, view in grids:
            A = gp.arrays
            for t, kind, node, bi, bj in zip(
                    A.tid.tolist(), A.kind.tolist(), A.node.tolist(),
                    A.bi.tolist(), A.bj.tolist()):
                for i, j, mode in grid_task_accesses(gp.backend, sf, kind,
                                                     node, bi, bj):
                    accesses.setdefault((view, i, j), []).append(
                        (p, t, mode))
                p += 1
        for t in scope:
            acc = reduce_accesses(t) if isinstance(t, AncestorReduce) \
                else ()
            for g, i, j, mode in acc:
                accesses.setdefault((("replica", g), i, j), []).append(
                    (p, t.tid, mode))
            p += 1
    ptr, dpos = csr_ptr(n_dep).tolist(), dpos.tolist()
    _race_pass(report, add, [dpos[a:b] for a, b in zip(ptr, ptr[1:])],
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


# -- mutation self-test helper ---------------------------------------------

def _race_edge_candidates(plan) -> list[tuple]:
    """Dep edges whose removal is *guaranteed* to create a block race, as
    ``(level index, edge)`` (``edge`` indexes the level's ``dep_idx``; a
    grid plan's level index is ``()``): a panel task's edge to its factor
    (it reads a block the factor writes) and a Schur update's to a U-panel
    solve (it reads the block the solve writes) are the only paths between
    the two. Other edges (factor -> Schur readiness, Schur -> L panel,
    barrier anchors) may leave the accesses transitively ordered, which
    would make the self-test flaky."""
    walk = [((), plan.arrays)] if isinstance(plan, GridPlan) else \
        [(li, step.arrays) for li, step in enumerate(plan.levels)
         if step.grid_plans]
    cands: list[tuple] = []
    for loc, A in walk:     # a level's tids ascend from its first
        kind = A.kind[np.repeat(np.arange(A.n_tasks), np.diff(A.dep_ptr))]
        i = np.minimum(np.searchsorted(A.tid, A.dep_idx), A.n_tasks - 1)
        dep_kind = np.where(A.tid[i] == A.dep_idx, A.kind[i], -1)
        hit = ((kind == PANEL_BCAST) & (dep_kind == PANEL_FACTOR)) \
            | ((kind == SCHUR_UPDATE) & (dep_kind == PANEL_BCAST)
               & (A.bi[i] == A.node[i]))
        cands += [(loc, e) for e in np.flatnonzero(hit).tolist()]
    return cands


def _drop(dep_ptr: np.ndarray, dep_idx: np.ndarray, e: int) -> tuple:
    """The dependency CSR without edge ``e``, and the task that lost it."""
    t = int(np.searchsorted(dep_ptr, e, "right")) - 1
    n_dep = np.diff(dep_ptr)
    n_dep[t] -= 1
    return csr_ptr(n_dep), np.delete(dep_idx, e), t


def drop_dep_edge(plan, seed: int = 0):
    """Return ``(mutated_plan, description)`` with one dep edge removed.

    The edge is drawn (seeded) from the guaranteed-race candidates of
    :func:`_race_edge_candidates` and cut out of ``dep_ptr`` / ``dep_idx``;
    in a 3D plan the level's grid plans are re-cut at ``grid_ptr``.
    Feeding the result to :func:`analyze_plan` MUST produce at least one
    ``race`` issue — the mutation self-test that proves the analyzer is
    not vacuous. Every edge of a solve plan qualifies: each is the only
    path between a segment's writer and a reader or accumulator of it.
    """
    if isinstance(plan, SolvePlan):
        e = int(np.random.default_rng(seed).integers(plan.dep_idx.size))
        dep_ptr, dep_idx, _t = _drop(plan.dep_ptr, plan.dep_idx, e)
        return dataclasses.replace(plan, dep_ptr=dep_ptr, dep_idx=dep_idx), \
            f"dropped solve-plan dep edge {e} (on task {plan.dep_idx[e]})"
    cands = _race_edge_candidates(plan)
    if not cands:
        raise ValueError("plan has no droppable race-guaranteed dep edges")
    rng = np.random.default_rng(seed)
    loc, e = cands[int(rng.integers(len(cands)))]
    A = plan.arrays if isinstance(plan, GridPlan) else plan.levels[loc].arrays
    dep_ptr, dep_idx, t = _drop(A.dep_ptr, A.dep_idx, e)
    arrays = dataclasses.replace(A, dep_ptr=dep_ptr, dep_idx=dep_idx)
    desc = f"dropped dep {A.dep_idx[e]} from task {A.tid[t]} " \
        f"({KINDS[A.kind[t]]}, node {A.node[t]})"
    if isinstance(plan, GridPlan):
        return dataclasses.replace(plan, arrays=arrays), desc
    step, cuts = plan.levels[loc], plan.levels[loc].grid_ptr.tolist()
    levels = list(plan.levels)
    levels[loc] = dataclasses.replace(step, arrays=arrays, grid_plans=[
        dataclasses.replace(gp, arrays=arrays if len(cuts) == 2
                            else (arrays, lo, hi))
        for gp, lo, hi in zip(step.grid_plans, cuts, cuts[1:])])
    return dataclasses.replace(plan, levels=levels), desc
