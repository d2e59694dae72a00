"""Plan builders: walk the symbolic factorization once, emit the task DAG.

:func:`build_level` turns one level — the node lists of its active grids,
identically shaped 2D grids on disjoint ranks — into ONE ordered
:class:`~repro.plan.arrays.TaskArrays`, grid-major; a
:class:`~repro.plan.tasks.GridPlan` is a slice of it and
:func:`build_grid_plan` the level of one grid. The list order *is* the
schedule the historical imperative drivers executed, including the
Section II-F lookahead interleave (:func:`_schedule`, one array pass for
all grids). No step loops over nodes: the tasks are emitted as whole
columns — the backend's panel and Schur columns of the level's nodes,
scattered to their schedule positions, the dependency CSR filled by index
arithmetic — and completed by one
:meth:`repro.plan.arrays.TaskArrays.assemble`. The ``deps`` edges are
pure data dependencies layered on top of the list order:

* ``PANEL_BCAST(k) -> PANEL_FACTOR(k)`` (solves consume the diagonal);
* ``SCHUR_UPDATE(k) -> PANEL_BCAST(k, *)`` (updates consume the panels);
* ``PANEL_FACTOR(a) -> SCHUR_UPDATE(u)`` for every in-list child ``u``
  whose nearest in-list ancestor is ``a`` (a panel is ready only when all
  descendant updates have landed — the lookahead readiness condition);
* level roots -> previous :class:`LevelBarrier`; reduces -> the sink
  tasks of their two grids; barriers -> everything in the level.

:func:`build_3d_plan` makes one such pass per level of Algorithm 1's
schedule (standard per-layer grids or the merged-grid variant) and adds
the ``AncestorReduce`` tasks, their payloads — block lists, owner-rank
arrays, merged redistribution ops — fully resolved at build time.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.comm.grid import ProcessGrid2D, ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.lu2d.storage import node_block_arrays
from repro.plan.arrays import (
    PANEL_BCAST,
    PANEL_FACTOR,
    SCHUR_UPDATE,
    TaskArrays,
)
from repro.plan.backends import BuildContext, get_backend
from repro.plan.tasks import (
    AncestorReduce,
    GridPlan,
    LevelBarrier,
    LevelStep,
    Plan3D,
)
from repro.utils.ragged import csr_ptr, ragged, ranges

__all__ = ["build_level", "build_grid_plan", "build_3d_plan",
           "pattern_signature", "partition_signature", "POST_BUILD_HOOK"]

#: Optional callback ``hook(plan, sf)`` invoked on every *complete* plan
#: this module builds: each standalone :class:`GridPlan` and each finished
#: :class:`Plan3D` (not the levels inside a 3D build, which are only
#: fragments of the DAG until the reduces and barriers land).
#: The test suite installs the static analyzer here
#: (:func:`repro.verify.static.analyze_plan`) so every plan built anywhere
#: in a test run is race-checked for free.
POST_BUILD_HOOK = None


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def pattern_signature(sf) -> tuple:
    """``(nb, digest)`` of what a plan depends on in ``sf``: the block-size
    vector and both panel structures (memoized on ``sf``). Two symbolic
    factorizations with equal signatures build identical plans."""
    sig = getattr(sf, "_pattern_sig", None)
    if sig is None:
        sig = sf._pattern_sig = (
            sf.nb, _digest(sf.layout.sizes(), *sf.fill.panel_csr()))
    return sig


def partition_signature(tf) -> tuple:
    """``(pz, digest)`` of what a plan depends on in the tree-forest
    ``tf``: every node's forest and level (memoized on ``tf``)."""
    sig = getattr(tf, "_partition_sig", None)
    if sig is None:
        sig = tf._partition_sig = (
            tf.pz, _digest(tf.node_forest, tf.node_level))
    return sig


def _schedule(parent: np.ndarray, ks: np.ndarray, node_ptr: np.ndarray,
              grid: np.ndarray, lookahead: int) -> tuple[np.ndarray, np.ndarray]:
    """The II-F lookahead interleave of a level's node list ``ks`` (grid
    ``g``'s nodes ascending at ``node_ptr[g]:node_ptr[g + 1]``, ``grid[q]``
    the grid of position ``q``) in one array pass: the events in schedule
    order (``q``: the panel tasks of the node at position ``q``, ``~q``: its
    Schur task) and each node's nearest in-list ancestor in its grid (a
    position, -1 for none; one on a sibling grid is refused). The drivers'
    step ``q`` emitted node ``q``'s panels (unless out), those of the ready
    nodes among the next ``lookahead``, then ``q``'s Schur update. Ids
    number parents above children, so node ``m`` is ready after step
    ``last(m)``, the largest position whose nearest in-list ancestor is
    ``m``, and its panels go out at step ``s = max(m - lookahead, last(m) +
    1, its grid's start)`` if ``s < m``, else at step ``m``: the walk is a
    sort by (step, own panel < lookahead panel < Schur, position)."""
    n, nb = ks.size, parent.size
    q = np.arange(n)
    pos = np.full(nb + 1, -1, dtype=np.int64)   # nb: the sentinel above roots
    pos[ks] = q
    up = np.append(np.where(parent < 0, nb, parent), nb)
    # Pointer jumping: each node ends on its chain's first listed node.
    hop = np.where(pos >= 0, np.arange(nb + 1), up)
    nxt = hop[hop]
    while (nxt != hop).any():
        hop, nxt = nxt, nxt[nxt]
    near = pos[hop[up[ks]]]
    bad = np.flatnonzero((near >= 0) & (grid[near] != grid))
    if bad.size:        # its update could never reach that grid's replica
        raise ValueError(f"node {ks[bad[0]]}'s ancestor {ks[near[bad[0]]]} "
                         "is on another grid: a level's grids hold disjoint "
                         "subtrees")
    last = np.full(n + 1, -1, dtype=np.int64)   # last[n]: no ancestor
    np.maximum.at(last, near, q)
    s = np.maximum(np.maximum(q - lookahead, last[:n] + 1), node_ptr[grid])
    early = s < q
    step = np.where(early, s, q)
    order = np.argsort(np.concatenate([(3 * step + early) * n + q,
                                       (3 * q + 2) * n + q]))
    return np.where(order < n, order, ~(order - n)), near


def build_level(sf, grids, px: int, py: int, opts: FactorOptions, *,
                backend: str, volume, level: int = 0, tid0: int = 0,
                barrier_dep: int | None = None):
    """Emit one level's ordered task arrays in one pass. ``grids`` lists
    ``(g, nodes, base)`` per grid that has work, ascending: ``px x py``
    grids on disjoint rank spans from ``base``. Returns ``(arrays,
    grid_ptr, grid_plans)``: the level's :class:`TaskArrays`, grid-major
    (tids ``tid0 ...`` in list order), and grid ``q``'s tasks
    ``grid_ptr[q]:grid_ptr[q + 1]`` of it as a :class:`GridPlan` slice.

    ``barrier_dep`` is the previous level's barrier tid in a 3D plan:
    tasks with no in-plan data dependency anchor to it, keeping the DAG
    connected across levels. ``volume`` is the
    :class:`repro.comm.volume.BlockVolume` pricing every emitted message.
    """
    be = get_backend(backend)
    grids = [(g, np.sort(np.asarray(nodes, dtype=np.int64)), base)
             for g, nodes, base in grids]
    node_ptr = csr_ptr([nodes.size for _g, nodes, _b in grids])
    ks = np.concatenate([np.zeros(0, dtype=np.int64),
                         *(nodes for _g, nodes, _b in grids)])
    n = ks.size
    bad = ks[(ks < 0) | (ks >= sf.nb)]
    if not bad.size:
        bad = np.flatnonzero(np.bincount(ks, minlength=sf.nb) > 1)
    if bad.size:
        raise ValueError(f"node id {bad[0]} is outside [0, {sf.nb}) or listed "
                         "twice: a level's node ids are distinct and in range")
    slot = np.zeros(sf.nb, dtype=np.int64)
    slot[ks] = np.repeat(np.arange(len(grids)), np.diff(node_ptr))
    b = BuildContext(sf, px, py, [base for _g, _n, base in grids], slot,
                     opts, volume)
    ev, near = _schedule(sf.tree.parent, ks, node_ptr, slot[ks],
                         opts.lookahead)
    is_schur = ev < 0
    pq, sq = ev[~is_schur], ~ev[is_schur]    # node numbers, schedule order
    pan = be.emit_panels(b, ks[pq])
    sch = be.emit_schur(b, ks[sq])

    # Schedule positions: an event spans its node's panel tasks, or one
    # Schur task.
    span = np.ones(ev.size, dtype=np.int64)
    span[~is_schur] = pan.count
    first = np.cumsum(span) - span
    T = int(span.sum())
    grid_ptr = np.append(first, T)[2 * node_ptr]   # events are grid-major
    grp, off = ragged(pan.count)
    ppos = first[~is_schur][grp] + off      # every panel task
    pf_of = np.empty(n, dtype=np.int64)     # per node: its factor task,
    sp_of = np.empty(n, dtype=np.int64)     # its Schur task,
    n_solve = np.empty(n, dtype=np.int64)   # its panel-solve task count
    pf_of[pq], sp_of[sq], n_solve[pq] = first[~is_schur], first[is_schur], \
        pan.count - 1

    kind = np.full(T, PANEL_BCAST, dtype=np.int8)
    kind[pf_of], kind[sp_of] = PANEL_FACTOR, SCHUR_UPDATE
    node = np.empty(T, dtype=np.int64)
    node[ppos], node[sp_of] = ks[pq][grp], ks
    bi, bj = node.copy(), node.copy()
    bi[ppos], bj[ppos] = pan.bi, pan.bj
    side = np.zeros(T, dtype=np.int8)
    side[ppos] = pan.side
    flops = np.empty(T)
    flops[ppos], flops[sp_of[sq]] = pan.flops, sch.flops
    owner = np.full(T, -1, dtype=np.int64)
    owner[ppos] = b.owner(pan.bi, pan.bj, node[ppos])

    # Dependencies: solve -> its factor; Schur -> its node's solves (or
    # the factor when there are none); factor -> the Schur tasks of the
    # children by nearest in-list ancestor, else the previous barrier.
    kids = np.flatnonzero(near >= 0)
    kids = kids[np.argsort(near[kids], kind="stable")]
    n_kids = np.bincount(near[kids], minlength=n)
    n_dep = np.ones(T, dtype=np.int64)
    n_dep[pf_of] = np.where(n_kids > 0, n_kids, int(barrier_dep is not None))
    n_dep[sp_of] = np.maximum(n_solve, 1)
    dep_ptr = csr_ptr(n_dep)
    dep_idx = np.empty(int(dep_ptr[-1]), dtype=np.int64)
    solves = off > 0
    dep_idx[dep_ptr[ppos[solves]]] = tid0 + first[~is_schur][grp[solves]]
    q, w = ragged(np.maximum(n_solve, 1))
    dep_idx[dep_ptr[sp_of][q] + w] = tid0 + pf_of[q] + w + (n_solve[q] > 0)
    q, w = ragged(n_kids)
    dep_idx[dep_ptr[pf_of][q] + w] = tid0 + sp_of[kids]
    if barrier_dep is not None:
        dep_idx[dep_ptr[pf_of[n_kids == 0]]] = barrier_dep

    n_spec = np.bincount(ppos[pan.spec_task], minlength=T)
    n_pair = np.zeros(T, dtype=np.int64)
    n_pair[sp_of[sq]] = sch.count
    arrays = TaskArrays.assemble(
        tid=tid0 + np.arange(T), kind=kind, node=node, bi=bi, bj=bj,
        side=side, owner=owner, flops=flops, dep_ptr=dep_ptr,
        dep_idx=dep_idx, bc_ptr=csr_ptr(n_spec), bc_root=pan.spec_root,
        bc_comm=pan.spec_comm, bc_words=pan.spec_words,
        bc_route=pan.spec_route, comms=list(b.comm_ids),
        pair_ptr=csr_ptr(n_pair),
        pair_owner=sch.owners, pair_flops=sch.pair_flops)
    # A grid ends on a Schur task and starts on a factor task: the union
    # only makes "runs cut at grid boundaries" independent of that.
    arrays.runs = np.union1d(arrays.runs, grid_ptr)
    cuts = grid_ptr.tolist()
    return arrays, grid_ptr, [
        GridPlan(backend, g, level, px, py, base, nodes.tolist(),
                 arrays if len(grids) == 1 else (arrays, lo, hi))
        for (g, nodes, base), lo, hi in zip(grids, cuts, cuts[1:])]


def build_grid_plan(sf, nodes, grid: ProcessGrid2D,
                    options: FactorOptions | None = None, *,
                    backend: str = "lu", volume=None) -> GridPlan:
    """One grid's ordered task arrays for ``nodes``: the level of one grid
    (:func:`build_level`). ``volume`` ``None`` resolves the message
    pricing from ``options`` (dense unless compact mode is on)."""
    opts = options or FactorOptions()
    if volume is None:
        from repro.comm.volume import volume_for
        volume = volume_for(sf, opts)
    _arrays, _ptr, (plan,) = build_level(
        sf, [(0, nodes, grid.base)], grid.px, grid.py, opts, backend=backend,
        volume=volume)
    if POST_BUILD_HOOK is not None:
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
    """Emit Algorithm 1's full level schedule as a :class:`Plan3D`, one
    :func:`build_level` pass per level.

    ``blocks_fn`` enumerates a node's stored blocks (default: the
    backend's ``node_blocks``). ``accelerated`` is ignored: it is kept
    only because the frozen benchmark harness (``benchmarks/e2e``) passes
    it.
    """
    opts = options or FactorOptions()
    if blocks_fn is None:
        blocks_fn = get_backend(backend).node_blocks
    from repro.comm.volume import volume_for
    volume = volume_for(sf, opts)
    nlev = tf.l
    tid = 0                                 # next free task id
    prev_barrier: int | None = None
    levels: list[LevelStep] = []

    for lvl in range(nlev, -1, -1):
        width = 2 ** (nlev - lvl)
        grid_plans, arrays, grid_ptr = [], None, None
        sinks: dict[int, tuple[int, ...]] = {}  # grid -> its sink tids
        # Forest b runs as grid b * width, its home layer — merged: on
        # the `width` layers from there on, stacked along x.
        grids = [(b * width, nodes, b * width * grid3.pxy)
                 for b in range(2 ** lvl) if (nodes := tf.forests[(lvl, b)])]
        level_sinks = ()
        if grids:
            arrays, grid_ptr, grid_plans = build_level(
                sf, grids, grid3.px * (width if merged else 1), grid3.py,
                opts, backend=backend, volume=volume, level=lvl, tid0=tid,
                barrier_dep=prev_barrier)
            # Tasks no later task of the level consumes, per grid.
            sink = arrays.tid[~np.isin(arrays.tid, arrays.dep_idx)]
            cut = np.searchsorted(sink, tid + grid_ptr).tolist()
            level_sinks = tuple(sink.tolist())
            sinks = {gp.g: level_sinks[lo:hi] for gp, lo, hi
                     in zip(grid_plans, cut, cut[1:])}
            tid += arrays.n_tasks

        build = _build_merged_reduce if merged else _build_standard_reduce
        reduces: list[AncestorReduce] = []
        for first in range(0, tf.pz, 2 * width) if lvl > 0 else ():
            # A hop waits on its two grids' sinks (no tasks: the barrier).
            deps = sinks.get(first, ()) + sinks.get(first + width, ())
            if not deps and prev_barrier is not None:
                deps = (prev_barrier,)
            red = build(sf, tf, grid3, blocks_fn, tid, deps=deps, first=first,
                        width=width, below_level=lvl, volume=volume)
            if red is not None:
                reduces.append(red)
                tid += 1

        barrier_deps = level_sinks + tuple(r.tid for r in reduces)
        if not barrier_deps and prev_barrier is not None:
            barrier_deps = (prev_barrier,)
        barrier = LevelBarrier(tid=tid, deps=barrier_deps, level=lvl)
        prev_barrier = tid
        tid += 1
        levels.append(LevelStep(level=lvl, grid_plans=grid_plans,
                                reduces=reduces, barrier=barrier,
                                arrays=arrays, grid_ptr=grid_ptr))

    plan = Plan3D(backend=backend, merged=merged, levels=levels,
                  pattern_sig=pattern_signature(sf),
                  partition_sig=partition_signature(tf))
    if POST_BUILD_HOOK is not None:
        POST_BUILD_HOOK(plan, sf)
    return plan


def _ancestor_blocks(sf, tf, blocks_fn, grid_for_forests: int,
                     below_level: int):
    """``(ii, jj, words)`` arrays of every common-ancestor block, in
    reduction order — a gather from the per-node block arrays."""
    ptr, ii, jj, ww = node_block_arrays(sf, blocks_fn)
    nodes = np.asarray(
        [s for la in range(below_level - 1, -1, -1)
         for s in tf.forest_of_grid(grid_for_forests, la)], dtype=np.int64)
    at = ranges(ptr[nodes], ptr[nodes + 1] - ptr[nodes])
    return ii[at], jj[at], ww[at]


def _build_standard_reduce(sf, tf, grid3, blocks_fn, tid: int, deps,
                           first: int, width: int, below_level: int,
                           volume) -> AncestorReduce | None:
    """Plan one pairwise z-hop: layer ``first + width``'s ancestor copies
    -> layer ``first``."""
    ii, jj, ww = _ancestor_blocks(sf, tf, blocks_fn, first, below_level)
    if not ii.size:
        return None
    return AncestorReduce(
        tid=tid, deps=deps, dst_grid=first, src_grid=first + width,
        below_level=below_level, rows=ii, cols=jj,
        words=volume.cap_many(ii, jj, ww),
        srcs=grid3.layer(first + width).owner_pairs(ii, jj),
        dsts=grid3.layer(first).owner_pairs(ii, jj))


def _build_merged_reduce(sf, tf, grid3, blocks_fn, tid: int, deps,
                         first: int, width: int, below_level: int,
                         volume) -> AncestorReduce | None:
    """Plan one merged-grid reduce + redistribution into the doubled grid.

    The right half's copy always travels (reduce); the left half's copy
    travels only when its owner changes under the doubled layout
    (redistribution move). Sums land on the target owner; numerically
    the right half's replicas add into the left half's, as in the
    standard reduce (``rows`` / ``cols``).
    """
    left = _merged_grid(grid3, first, width)
    right = _merged_grid(grid3, first + width, width)
    target = _merged_grid(grid3, first, 2 * width)
    ii, jj, ww = _ancestor_blocks(sf, tf, blocks_fn, first, below_level)
    ops: list[tuple[str, int, int, float]] = []
    for w, dst, src_r, src_l in zip(
            volume.cap_many(ii, jj, ww).tolist(),
            target.owner_pairs(ii, jj).tolist(),
            right.owner_pairs(ii, jj).tolist(),
            left.owner_pairs(ii, jj).tolist()):
        ops.append(("red", src_r, dst, w))
        if src_l != dst:
            ops.append(("mov", src_l, dst, w))
    if not ops:
        return None
    return AncestorReduce(
        tid=tid, deps=deps, dst_grid=first, src_grid=first + width,
        below_level=below_level, rows=ii, cols=jj, ops=tuple(ops))
