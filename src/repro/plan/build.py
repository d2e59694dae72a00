"""Plan builders: walk the symbolic factorization once, emit the task DAG.

:func:`build_grid_plan` turns one node list on one 2D grid into an ordered
:class:`~repro.plan.tasks.GridPlan`. The list order *is* the schedule the
historical imperative drivers executed — including the Section II-F
lookahead interleave, which is replayed here at build time with the same
``pending``/``panel_done`` bookkeeping the drivers carried at run time. The
``deps`` edges are pure data dependencies layered on top:

* ``PanelBcast(k) -> PanelFactor(k)`` (solves consume the diagonal);
* ``SchurUpdate(k) -> PanelBcast(k, *)`` (updates consume the panels);
* ``PanelFactor(a) -> SchurUpdate(u)`` for every in-list child ``u``
  whose nearest in-list ancestor is ``a`` (a panel is ready only when all
  descendant updates have landed — the lookahead readiness condition);
* level roots -> previous :class:`LevelBarrier`; reduces -> the sink
  tasks of their two grids' plans; barriers -> everything in the level.

:func:`build_3d_plan` stacks per-grid plans into Algorithm 1's level
schedule (standard per-layer grids or the merged-grid variant) with
``AncestorReduce`` tasks whose payloads — block lists, owner-rank arrays,
merged redistribution ops — are fully resolved at build time.
"""

from __future__ import annotations

import numpy as np

from repro.comm.grid import ProcessGrid2D, ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.plan.backends import BuildContext, get_backend
from repro.plan.tasks import (
    AncestorReduce,
    BcastSpec,
    GridPlan,
    LevelBarrier,
    LevelStep,
    Plan3D,
    ReplicatedFactor,
)

__all__ = ["TidCounter", "build_grid_plan", "build_3d_plan", "sink_tids",
           "POST_BUILD_HOOK"]

#: Optional callback ``hook(plan, sf)`` invoked on every *complete* plan
#: this module builds: each standalone :class:`GridPlan` and each finished
#: :class:`Plan3D` (not the per-grid sub-plans inside a 3D build, which
#: are only fragments of the DAG until the reduces and barriers land).
#: The test suite installs the static analyzer here
#: (:func:`repro.verify.static.analyze_plan`) so every plan built anywhere
#: in a test run is race-checked for free.
POST_BUILD_HOOK = None


class TidCounter:
    """Monotone task-id allocator shared across a whole plan."""

    def __init__(self, start: int = 0):
        self._next = start

    def next(self) -> int:
        tid = self._next
        self._next += 1
        return tid


def sink_tids(plan: GridPlan) -> tuple[int, ...]:
    """Tids of ``plan``'s sink tasks (consumed by no later task in it)."""
    referenced: set[int] = set()
    for t in plan.tasks:
        referenced.update(t.deps)
    return tuple(t.tid for t in plan.tasks if t.tid not in referenced)


def build_grid_plan(sf, nodes, grid: ProcessGrid2D,
                    options: FactorOptions | None = None, *,
                    backend: str = "lu",
                    counter: TidCounter | None = None, g: int = 0,
                    level: int = 0,
                    barrier_dep: int | None = None,
                    volume=None) -> GridPlan:
    """Emit one grid's ordered task list for ``nodes`` (ascending ids).

    ``barrier_dep`` is the previous level's barrier tid in a 3D plan:
    tasks with no in-plan data dependency anchor to it, keeping the DAG
    connected across levels. ``volume`` is the :class:`repro.comm.volume.BlockVolume`
    pricing every emitted message; ``None`` resolves it from ``options``
    (dense unless compact mode is on).
    """
    opts = options or FactorOptions()
    be = get_backend(backend)
    if volume is None:
        from repro.comm.volume import volume_for
        volume = volume_for(sf, opts)
    b = BuildContext(sf, grid, opts, counter or TidCounter(), volume=volume)
    nodes = sorted(int(k) for k in nodes)
    node_set = set(nodes)

    # In-list ancestor chains: the drivers' lookahead-readiness counters,
    # replayed here so the emitted order equals the executed order.
    anc_in_list: dict[int, list[int]] = {}
    pending = {k: 0 for k in nodes}
    for u in nodes:
        chain = []
        p = int(sf.tree.parent[u])
        while p != -1:
            if p in node_set:
                chain.append(p)
                pending[p] += 1
            p = int(sf.tree.parent[p])
        anc_in_list[u] = chain

    # Children by nearest in-list ancestor: PanelFactor(a) data-depends on
    # exactly these nodes' SchurUpdates.
    children: dict[int, list[int]] = {}
    for u, chain in anc_in_list.items():
        if chain:
            children.setdefault(chain[0], []).append(u)

    tasks = []
    panel_done: set[int] = set()
    panel_sink_tids: dict[int, tuple[int, ...]] = {}
    schur_tid: dict[int, int] = {}

    def emit_panel(k: int) -> None:
        deps = tuple(schur_tid[u] for u in children.get(k, ()))
        if not deps and barrier_dep is not None:
            deps = (barrier_dep,)
        pf, pbs = be.build_node(b, k, deps)
        tasks.append(pf)
        tasks.extend(pbs)
        panel_sink_tids[k] = tuple(t.tid for t in pbs) or (pf.tid,)
        panel_done.add(k)

    for pos, k in enumerate(nodes):
        if k not in panel_done:
            emit_panel(k)
        # Lookahead: panels of upcoming ready nodes interleave here.
        for m in nodes[pos + 1: pos + 1 + opts.lookahead]:
            if m not in panel_done and pending[m] == 0:
                emit_panel(m)
        su = be.build_schur(b, k, panel_sink_tids[k])
        tasks.append(su)
        schur_tid[k] = su.tid
        for a in anc_in_list[k]:
            pending[a] -= 1

    plan = GridPlan(backend=backend, g=g, level=level, px=grid.px,
                    py=grid.py, base=grid.base, nodes=nodes, tasks=tasks)
    if POST_BUILD_HOOK is not None and counter is None:
        POST_BUILD_HOOK(plan, sf)
    return plan


def _merged_grid(grid3: ProcessGrid3D, first_layer: int, nlayers: int
                 ) -> ProcessGrid2D:
    """The union of ``nlayers`` consecutive z-layers as one 2D grid.

    Layer ``g``'s rank ``(pi, pj)`` is global rank
    ``g*Pxy + pi*Py + pj = (g*Px + pi)*Py + pj``, so stacking layers along
    the x axis yields exactly the contiguous rank span — no renumbering.
    """
    return ProcessGrid2D(nlayers * grid3.px, grid3.py,
                         base=first_layer * grid3.pxy)


def build_3d_plan(sf, tf, grid3: ProcessGrid3D,
                  options: FactorOptions | None = None, *,
                  backend: str = "lu", merged: bool = False,
                  accelerated: bool = False, blocks_fn=None) -> Plan3D:
    """Emit Algorithm 1's full level schedule as a :class:`Plan3D`.

    ``blocks_fn`` enumerates a node's stored blocks (default: the
    backend's ``node_blocks``). ``accelerated`` is what callers record on
    their :class:`~repro.plan.replay.PlanBundle`; the emitted tasks do not
    depend on it (offload is decided per block pair at execution time).
    """
    opts = options or FactorOptions()
    if blocks_fn is None:
        blocks_fn = get_backend(backend).node_blocks
    from repro.comm.volume import volume_for
    volume = volume_for(sf, opts)
    creplication = opts.ancestor_replication
    if creplication > 1 and (merged or backend != "lu"):
        raise ValueError(
            "ancestor_replication > 1 (2.5D ancestor sweeps) requires the "
            "standard LU driver; the merged-grid variant and other "
            f"backends keep c=1 (got merged={merged}, backend={backend!r})")
    if creplication > tf.pz:
        raise ValueError(
            f"ancestor_replication={creplication} exceeds the replication "
            f"group supply Pz={tf.pz} (need c <= Pz)")
    nlev = tf.l
    counter = TidCounter()
    prev_barrier: int | None = None
    levels: list[LevelStep] = []

    for lvl in range(nlev, -1, -1):
        width = 2 ** (nlev - lvl)
        c_lvl = min(creplication, width)
        if c_lvl > 1:
            replicated = _build_replicated_level(
                sf, tf, grid3, blocks_fn, counter, lvl, c_lvl,
                prev_barrier, volume)
            sinks = {}
            for task in replicated:
                for g in tf.grids_of_forest(lvl, task.forest):
                    sinks.setdefault(g, []).append(task.tid)

            def _dep_on(*gids, _sinks=sinks) -> tuple[int, ...]:
                deps = tuple(t for gid in gids for t in _sinks.get(gid, ()))
                if not deps and prev_barrier is not None:
                    deps = (prev_barrier,)
                return deps

            reduces = []
            if lvl > 0:
                for g in range(0, tf.pz, 2 * width):
                    src = g + width
                    red = _build_standard_reduce(
                        sf, tf, grid3, blocks_fn, counter,
                        deps=_dep_on(g, src), dst_grid=g, src_grid=src,
                        below_level=lvl, volume=volume)
                    if red is not None:
                        reduces.append(red)
            barrier_deps = tuple(t.tid for t in replicated) \
                + tuple(r.tid for r in reduces)
            if not barrier_deps and prev_barrier is not None:
                barrier_deps = (prev_barrier,)
            barrier = LevelBarrier(tid=counter.next(), deps=barrier_deps,
                                   level=lvl)
            prev_barrier = barrier.tid
            levels.append(LevelStep(level=lvl, grid_plans=[],
                                    reduces=reduces, barrier=barrier,
                                    replicated=replicated))
            continue
        if merged:
            work = [(bidx, nodes, _merged_grid(grid3, bidx * width, width))
                    for bidx in range(2 ** lvl)
                    if (nodes := tf.forests[(lvl, bidx)])]
        else:
            work = [(g, nodes, grid3.layer(g))
                    for g in range(0, tf.pz, width)
                    if (nodes := tf.forest_of_grid(g, lvl))]

        grid_plans = [
            build_grid_plan(sf, nodes, grid2, opts, backend=backend,
                            counter=counter, g=g, level=lvl,
                            barrier_dep=prev_barrier, volume=volume)
            for g, nodes, grid2 in work]
        sinks = {gp.g: sink_tids(gp) for gp in grid_plans}

        def _dep_on(*gids) -> tuple[int, ...]:
            deps = tuple(t for gid in gids for t in sinks.get(gid, ()))
            if not deps and prev_barrier is not None:
                deps = (prev_barrier,)
            return deps

        reduces: list[AncestorReduce] = []
        if lvl > 0:
            if merged:
                for b2 in range(2 ** (lvl - 1)):
                    left_first = b2 * 2 * width
                    red = _build_merged_reduce(
                        sf, tf, grid3, blocks_fn, counter,
                        deps=_dep_on(2 * b2, 2 * b2 + 1),
                        left_first=left_first, width=width, below_level=lvl,
                        volume=volume)
                    if red is not None:
                        reduces.append(red)
            else:
                for g in range(0, tf.pz, 2 * width):
                    src = g + width
                    red = _build_standard_reduce(
                        sf, tf, grid3, blocks_fn, counter,
                        deps=_dep_on(g, src), dst_grid=g, src_grid=src,
                        below_level=lvl, volume=volume)
                    if red is not None:
                        reduces.append(red)

        barrier_deps = tuple(t for gp in grid_plans for t in sinks[gp.g]) \
            + tuple(r.tid for r in reduces)
        if not barrier_deps and prev_barrier is not None:
            barrier_deps = (prev_barrier,)
        barrier = LevelBarrier(tid=counter.next(), deps=barrier_deps,
                               level=lvl)
        prev_barrier = barrier.tid
        levels.append(LevelStep(level=lvl, grid_plans=grid_plans,
                                reduces=reduces, barrier=barrier))

    plan = Plan3D(backend=backend, merged=merged, levels=levels)
    if POST_BUILD_HOOK is not None:
        POST_BUILD_HOOK(plan, sf)
    return plan


def _build_replicated_level(sf, tf, grid3, blocks_fn, counter, lvl: int,
                            c_lvl: int, prev_barrier: int | None,
                            volume) -> list[ReplicatedFactor]:
    """Emit level ``lvl``'s forests as aggregate 2.5D sweeps (Section VII).

    One :class:`ReplicatedFactor` per non-empty forest, in forest order.
    Aggregate flops come from the symbolic per-node totals (numpy sums —
    the pinned 2.5D goldens depend on that summation order); the moved
    words are re-priced per block through the volume model when it is not
    the dense identity.
    """
    pxy = grid3.pxy
    dense_kind = getattr(volume, "kind", "dense") == "dense"
    tasks: list[ReplicatedFactor] = []
    deps = (prev_barrier,) if prev_barrier is not None else ()
    for b in range(2 ** lvl):
        nodes = tf.forests[(lvl, b)]
        if not nodes:
            continue
        flops = float(sf.costs.node_flops[nodes].sum())
        words = float(sf.costs.factor_words[nodes].sum())
        if not dense_kind:
            words = 0.0
            for v in nodes:
                for i, j, w in blocks_fn(sf, int(v)):
                    words += volume.cap(i, j, float(w))
        ncols = len(nodes)
        rng = list(tf.grids_of_forest(lvl, b))
        home = tf.home_grid(int(nodes[0]))
        group = rng[:c_lvl]
        if home not in group:
            group = sorted(rng[:c_lvl - 1] + [home])
        ranks: list[int] = []
        for g in group:
            ranks.extend(grid3.layer(g).all_ranks())
        share = words / pxy
        bcasts = tuple(
            BcastSpec(root=grid3.layer(home).base + local,
                      ranks=tuple(grid3.layer(g).base + local
                                  for g in group),
                      words=share)
            for local in range(pxy))
        per_rank_w = words / (c_lvl * np.sqrt(pxy))
        steps = max(ncols, 1)
        tasks.append(ReplicatedFactor(
            tid=counter.next(), deps=deps, level=lvl, forest=b,
            nodes=tuple(int(v) for v in nodes), home=home,
            grids=tuple(group), ranks=tuple(ranks), bcasts=bcasts,
            steps=steps, chunk=per_rank_w / steps, flops=flops,
            words=words))
    return tasks


def _ancestor_blocks(sf, tf, blocks_fn, grid_for_forests: int,
                     below_level: int):
    """(i, j, words) of every common-ancestor block, in reduction order."""
    for la in range(below_level - 1, -1, -1):
        for s_node in tf.forest_of_grid(grid_for_forests, la):
            yield from blocks_fn(sf, s_node)


def _build_standard_reduce(sf, tf, grid3, blocks_fn, counter, deps,
                           dst_grid: int, src_grid: int, below_level: int,
                           volume=None) -> AncestorReduce | None:
    """Plan one pairwise z-hop: src layer's ancestor copies -> dst layer."""
    if volume is None:
        from repro.comm.volume import DenseVolume
        volume = DenseVolume()
    rows: list[int] = []
    cols: list[int] = []
    sizes: list[float] = []
    for i, j, w in _ancestor_blocks(sf, tf, blocks_fn, dst_grid,
                                    below_level):
        rows.append(i)
        cols.append(j)
        sizes.append(float(volume.cap(i, j, float(w))))
    if not rows:
        return None
    ii = np.asarray(rows, dtype=np.int64)
    jj = np.asarray(cols, dtype=np.int64)
    words = np.asarray(sizes, dtype=np.float64)
    return AncestorReduce(
        tid=counter.next(), deps=deps, dst_grid=dst_grid, src_grid=src_grid,
        below_level=below_level, rows=ii, cols=jj, words=words,
        srcs=grid3.layer(src_grid).owner_pairs(ii, jj),
        dsts=grid3.layer(dst_grid).owner_pairs(ii, jj))


def _build_merged_reduce(sf, tf, grid3, blocks_fn, counter, deps,
                         left_first: int, width: int, below_level: int,
                         volume=None) -> AncestorReduce | None:
    """Plan one merged-grid reduce + redistribution into the doubled grid.

    The right half's copy always travels (reduce); the left half's copy
    travels only when its owner changes under the doubled layout
    (redistribution move). Sums land on the target owner.
    """
    if volume is None:
        from repro.comm.volume import DenseVolume
        volume = DenseVolume()
    left = _merged_grid(grid3, left_first, width)
    right = _merged_grid(grid3, left_first + width, width)
    target = _merged_grid(grid3, left_first, 2 * width)
    ops: list[tuple[str, int, int, float]] = []
    for i, j, w in _ancestor_blocks(sf, tf, blocks_fn, left_first,
                                    below_level):
        w = float(volume.cap(i, j, float(w)))
        dst = target.owner(i, j)
        ops.append(("red", right.owner(i, j), dst, w))
        src_l = left.owner(i, j)
        if src_l != dst:
            ops.append(("mov", src_l, dst, w))
    if not ops:
        return None
    return AncestorReduce(
        tid=counter.next(), deps=deps, dst_grid=left_first,
        src_grid=left_first + width, below_level=below_level,
        ops=tuple(ops))
