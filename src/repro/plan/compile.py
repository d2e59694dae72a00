"""Plan compilation: fuse task runs into vectorized dispatches.

The interpreter (:mod:`repro.plan.interpret`) pays Python dispatch — and
one simulator booking call — per task. GLU3.0 (PAPERS.md) showed that
pipelining dependent work into fused kernels is the decisive way to
amortize exactly this kind of per-task overhead; this module applies the
same idea to the plan layer. :func:`compile_plan` rewrites a built
:class:`~repro.plan.tasks.GridPlan` or :class:`~repro.plan.tasks.Plan3D`
into a :class:`CompiledPlan` whose maximal runs of same-kind, contiguous
tasks are collapsed into :class:`~repro.plan.tasks.FusedTask` nodes:

* ``SchurUpdate`` runs become one batched booking — the members'
  per-pair cost arrays (:func:`repro.lu2d.batched.schur_pair_costs` /
  ``syrk_pair_costs``) concatenated into a single
  ``Simulator.compute_batch`` call covering a whole plan segment;
* ``PanelFactor`` / ``PanelBcast`` runs become blocked sweeps: one
  ``compute_batch`` plus one ``sendrecv_batch`` per
  :class:`~repro.plan.tasks.PanelSegment`, with every broadcast tree
  flattened to its exact point-to-point pair sequence at compile time.

Fusion is *semantics-preserving by construction*: list order within a run
is kept, a fused task's dep edges are the union of its members' external
edges, and the only event reorder vectorization introduces (hoisting a
segment's compute bookings above earlier members' communication) is
restricted to segments where no member's compute rank appears in an
earlier member's communicator — so per-rank clocks, flop ledgers, message
counters and memory watermarks all stay bit-for-bit identical to the
uncompiled interpretation. The golden-ledger suite and the fuzz harness
(:mod:`repro.verify.fuzz`, ``compile=True``) pin this.

Runs the compiler cannot prove safe (a malformed broadcast spec that the
interpreter would reject at execution time) are still fused structurally
but flagged ``vector_safe=False``; the interpreter replays their members
one by one, preserving error behavior.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.comm.grid import ProcessGrid2D
from repro.plan.backends import get_backend
from repro.plan.tasks import (
    FusedSchurPayload,
    FusedTask,
    GridPlan,
    LevelStep,
    PanelSegment,
    Plan3D,
)

__all__ = ["CompileStats", "CompiledPlan", "compile_plan"]

#: Kinds the compiler fuses; everything else passes through untouched.
_FUSABLE = ("panel_factor", "panel_bcast", "schur_update")


@dataclasses.dataclass(frozen=True)
class CompileStats:
    """What one :func:`compile_plan` call achieved."""

    n_tasks_before: int
    n_tasks_after: int
    n_fused: int        # FusedTask nodes emitted
    n_members: int      # original tasks absorbed into fused nodes
    n_vector_unsafe: int  # fused nodes that fell back to member replay

    @property
    def dispatch_reduction(self) -> float:
        """How many uncompiled dispatches one compiled dispatch replaces."""
        return self.n_tasks_before / self.n_tasks_after \
            if self.n_tasks_after else 1.0

    @property
    def fusion_ratio(self) -> float:
        """Fraction of the original tasks absorbed into fused nodes."""
        return self.n_members / self.n_tasks_before \
            if self.n_tasks_before else 0.0


@dataclasses.dataclass
class CompiledPlan:
    """A rewritten plan plus the compile statistics that produced it."""

    plan: GridPlan | Plan3D
    stats: CompileStats


def compile_plan(plan, sf, options=None) -> CompiledPlan:
    """Rewrite ``plan`` into its fused form; the input is never mutated.

    ``plan`` is a :class:`~repro.plan.tasks.GridPlan` or
    :class:`~repro.plan.tasks.Plan3D`; ``sf`` the symbolic factorization
    it was built from (the Schur cost arrays are re-derived from the fill
    structure). Returns a :class:`CompiledPlan` whose ``plan`` executes
    through the same interpreter entry points as the original.
    """
    st = {"fused": 0, "members": 0, "unsafe": 0}
    tid_map: dict[int, int] = {}
    if isinstance(plan, Plan3D):
        levels = []
        for step in plan.levels:
            gps = [_compile_grid_plan(gp, sf, tid_map, st)
                   for gp in step.grid_plans]
            levels.append(LevelStep(level=step.level, grid_plans=gps,
                                    reduces=list(step.reduces),
                                    barrier=step.barrier,
                                    replicated=list(step.replicated)))
        new_plan = Plan3D(backend=plan.backend, merged=plan.merged,
                          levels=levels)
        _remap_plan3d(new_plan, tid_map)
    else:
        new_plan = _compile_grid_plan(plan, sf, tid_map, st)
        _remap_tasks(new_plan.tasks, tid_map)
    stats = CompileStats(
        n_tasks_before=plan.n_tasks, n_tasks_after=new_plan.n_tasks,
        n_fused=st["fused"], n_members=st["members"],
        n_vector_unsafe=st["unsafe"])
    return CompiledPlan(plan=new_plan, stats=stats)


# -- per-grid fusion --------------------------------------------------------


def _compile_grid_plan(gp: GridPlan, sf, tid_map, st) -> GridPlan:
    if not gp.tasks:
        return gp
    grid = ProcessGrid2D(gp.px, gp.py, base=gp.base)
    sizes = sf.layout.sizes()
    tasks = gp.tasks
    out: list = []
    i, n = 0, len(tasks)
    while i < n:
        kind = tasks[i].kind
        if kind not in _FUSABLE:
            out.append(tasks[i])
            i += 1
            continue
        j = i + 1
        while j < n and tasks[j].kind == kind:
            j += 1
        if j - i < 2:
            out.append(tasks[i])
        else:
            out.append(_fuse_run(tasks[i:j], kind, sf, gp.backend, grid,
                                 sizes, tid_map, st))
        i = j
    return GridPlan(backend=gp.backend, g=gp.g, level=gp.level, px=gp.px,
                    py=gp.py, base=gp.base, nodes=gp.nodes, tasks=out)


def _fuse_run(run, kind, sf, backend, grid, sizes, tid_map, st) -> FusedTask:
    members = tuple(run)
    mtids = {m.tid for m in members}
    deps, seen = [], set()
    for m in members:
        for d in m.deps:
            if d not in mtids and d not in seen:
                seen.add(d)
                deps.append(d)
    if kind == "schur_update":
        safe, payload = True, _schur_payload(members, sf, backend, grid,
                                             sizes)
    else:
        safe, payload = _panel_payload(members)
    fused = FusedTask(tid=members[-1].tid, deps=tuple(deps),
                      members=members, fused_kind=kind, vector_safe=safe,
                      payload=payload)
    for m in members:
        tid_map[m.tid] = fused.tid
    st["fused"] += 1
    st["members"] += len(members)
    if not safe:
        st["unsafe"] += 1
    return fused


def _schur_payload(members, sf, backend, grid, sizes) -> FusedSchurPayload:
    be = get_backend(backend)
    owners, flops = zip(*(be.pair_costs(sf, m.node, sizes, grid)
                          for m in members))
    return FusedSchurPayload(owners=np.concatenate(owners),
                             flops=np.concatenate(flops))


def _panel_payload(members):
    """Segment a panel run for vectorized replay; (safe, payload)."""
    for m in members:
        for spec in m.bcasts:
            # The interpreter's bcast() would reject these at execution
            # time; keep that behavior by replaying members serially.
            if spec.root not in spec.ranks or spec.words < 0:
                return False, None

    segments = []

    def open_seg(at):
        return {"start": at, "owners": [], "flops": [], "srcs": [],
                "dsts": [], "words": [], "allocs": [], "comm": set()}

    def close_seg(seg, stop):
        segments.append(PanelSegment(
            start=seg["start"], stop=stop,
            owners=seg["owners"], flops=seg["flops"], srcs=seg["srcs"],
            dsts=seg["dsts"], words=seg["words"],
            allocs=tuple(seg["allocs"])))

    cur = open_seg(0)
    for idx, m in enumerate(members):
        # Vectorization hoists this member's compute booking above the
        # segment's earlier communication; that commutes only if no
        # earlier member's broadcast touches this member's compute rank.
        if idx > cur["start"] and m.owner in cur["comm"]:
            close_seg(cur, idx)
            cur = open_seg(idx)
        cur["owners"].append(m.owner)
        cur["flops"].append(m.flops)
        for spec in m.bcasts:
            _flatten_bcast(spec, m.node, cur)
            cur["comm"].update(spec.ranks)
            if spec.route_from is not None:
                cur["comm"].add(spec.route_from)
    close_seg(cur, len(members))
    return True, tuple(segments)


def _flatten_bcast(spec, node, seg) -> None:
    """Append one broadcast's exact point-to-point pair replay to ``seg``.

    Mirrors :func:`repro.comm.collectives.bcast`'s binomial tree (and the
    interpreter's routing hop) pair for pair, so a ``sendrecv_batch`` over
    the flattened arrays books the identical ledger. The replayed
    ``spec.words`` already carry the block-volume pricing
    (:mod:`repro.comm.volume`) baked in at build time, so the
    concatenated cost arrays are mode-consistent (dense or compact) with
    the uncompiled interpreter for free.
    """
    srcs, dsts, words = seg["srcs"], seg["dsts"], seg["words"]
    if spec.route_from is not None:
        srcs.append(spec.route_from)
        dsts.append(spec.root)
        words.append(spec.words)
    order = [spec.root] + [r for r in spec.ranks if r != spec.root]
    p = len(order)
    span = 1
    while span < p:
        for i in range(span):
            j = i + span
            if j < p:
                srcs.append(order[i])
                dsts.append(order[j])
                words.append(spec.words)
        span *= 2
    for r in spec.ranks:
        if r != spec.root:
            seg["allocs"].append((node, r, spec.words))


# -- dependency remapping ---------------------------------------------------


def _remap_deps(deps, tid_map):
    out, seen, changed = [], set(), False
    for d in deps:
        nd = tid_map.get(d, d)
        if nd != d:
            changed = True
        if nd in seen:
            changed = True
            continue
        seen.add(nd)
        out.append(nd)
    return tuple(out) if changed else deps


def _remap_tasks(tasks, tid_map) -> None:
    for i, t in enumerate(tasks):
        deps = _remap_deps(t.deps, tid_map)
        if deps is not t.deps:
            tasks[i] = dataclasses.replace(t, deps=deps)


def _remap_plan3d(plan: Plan3D, tid_map) -> None:
    for step in plan.levels:
        for gp in step.grid_plans:
            if gp.tasks:
                _remap_tasks(gp.tasks, tid_map)
        _remap_tasks(step.reduces, tid_map)
        _remap_tasks(step.replicated, tid_map)
        deps = _remap_deps(step.barrier.deps, tid_map)
        if deps is not step.barrier.deps:
            step.barrier = dataclasses.replace(step.barrier, deps=deps)
