"""The solve plan: one triangular sweep as data.

A sweep has two task kinds. A *diag-solve* of node ``k`` solves segment
``k`` against block ``(k, k)`` at its diagonal owner and broadcasts it to
the owners of ``k``'s panel; an *update* multiplies one panel block into
the segment it reads and sends the partial result to the target segment's
diagonal owner, which accumulates it. :func:`build_solve_plan` emits any of
the four sweep shapes — downward (ascending nodes) or upward, over the L
or the U panels — vectorized from the panel CSR, the block sizes and each
node's home grid, with broadcasts flattened to their binomial pairs as
:mod:`repro.plan.arrays` flattens the factorization's.

The stream is priced at **one right-hand side**: every value is an
integer (``s*s``, ``2*si*s``, ``s``), so ``val * nrhs`` is exact and
equals pricing each event at ``nrhs`` columns, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.events import COMPUTE_KINDS, PHASE_SOLVE
from repro.comm.stream import MSG, EventStream, Volume
from repro.plan import build
from repro.plan.arrays import tree_arrays
from repro.utils.ragged import csr_ptr, ragged

__all__ = ["DIAG_SOLVE", "UPDATE", "SolvePlan", "build_solve_plan"]

#: Task kind codes (``SolvePlan.steps[t, 0]``).
DIAG_SOLVE, UPDATE = 0, 1

_SOLVE = COMPUTE_KINDS.index("solve")
_I64 = np.int64


@dataclass(eq=False)
class SolvePlan:
    """One sweep's tasks, in issue order (task id = position).

    Row ``steps[t]`` — what the numeric walk and the access model read —
    is ``(kind, block i, j, target rows lo, hi, source rows lo, hi)``: an
    update reads the source segment and accumulates into the target, a
    diag-solve overwrites its one segment (an ``(T, 7)`` integer array; a
    list of tuples costs five times the memory on a cached bundle).
    Task ``t``'s events are ``ev_ptr[t]:ev_ptr[t + 1]`` of ``ev`` (unit
    nrhs, issue order), its dependencies ``dep_idx[dep_ptr[t]:dep_ptr[t +
    1]]``: an update waits for the diag-solve of the segment it reads, a
    diag-solve for every update into its segment.
    """

    down: bool
    lower: bool
    steps: np.ndarray
    ev_ptr: np.ndarray
    ev: EventStream
    dep_ptr: np.ndarray
    dep_idx: np.ndarray
    _streams: dict = field(default_factory=dict, repr=False)

    @property
    def n_tasks(self) -> int:
        return len(self.steps)

    def stream(self, nrhs: int = 1) -> EventStream:
        """The sweep's events at ``nrhs`` right-hand sides, one stream per
        ``nrhs`` (so its booked slices replay)."""
        return self._streams.get(nrhs) or self._streams.setdefault(
            nrhs, EventStream(self.ev.src, self.ev.dst, self.ev.val * nrhs,
                              self.ev.kind))

    def volume(self, nranks: int, nrhs: int = 1) -> Volume:
        """One sweep's per-rank solve-phase words, messages and flops: the
        stream's reduction, no simulator."""
        vol = Volume(nranks)
        vol.phase = PHASE_SOLVE
        vol.add(self.stream(nrhs))
        return vol


def build_solve_plan(sf, grid_of, down: bool, lower: bool) -> SolvePlan:
    """The plan of one sweep over ``sf``'s L (``lower``) or U panels,
    ``down`` = ascending nodes; ``grid_of(k)`` is node ``k``'s home 2D
    grid. Downward, a node issues its diag-solve and segment broadcast
    (down its process column for L, along its process row for ``U^T``),
    then per panel block the GEMM, the partial-segment message and the
    accumulate; upward, its updates first, then diag-solve and broadcast
    — SuperLU_DIST's ``pdgstrs`` pattern."""
    nb, sz, off = sf.nb, sf.layout.sizes(), sf.layout.offsets
    lp_ptr, lp_idx, up_ptr, up_idx = sf.fill.panel_csr()
    ptr, idx = (lp_ptr, lp_idx) if lower else (up_ptr, up_idx)
    grids = [grid_of(k) for k in range(nb)]
    gpx, gpy, base = (np.array([getattr(g, a) for g in grids], dtype=_I64)
                      for a in ("px", "py", "base"))
    nodes = np.arange(nb)
    cnt = np.diff(ptr)
    node, w = ragged(cnt)               # per panel block: its node, its slot

    def owner(g, i, j):
        return base[g] + (i % gpx[g]) * gpy[g] + j % gpy[g]

    diag_owner = owner(nodes, nodes, nodes)
    bi, bj = (idx, node) if lower else (node, idx)
    blk_owner = owner(node, bi, bj)
    seg_s, seg_t = (node, idx) if down else (idx, node)
    tgt_owner, words = diag_owner[seg_t], sz[seg_t]
    live = blk_owner != tgt_owner       # a self-message is never emitted

    # Broadcast pairs: one binomial tree per (root, communicator), memoized.
    n_bc = np.zeros(nb, dtype=_I64)
    bc_src, bc_dst = [np.zeros(0, dtype=_I64)], [np.zeros(0, dtype=_I64)]
    for k, root in zip(nodes[cnt > 0].tolist(), diag_owner[cnt > 0].tolist()):
        comm = grids[k].row_ranks(k) if down and not lower \
            else grids[k].col_ranks(k)
        pairs = tree_arrays(-1, root, tuple(comm))
        bc_src.append(pairs[0])
        bc_dst.append(pairs[1])
        n_bc[k] = pairs[0].size
    bc, bc_off = ragged(n_bc)           # per broadcast pair: its node

    # Task positions: each node is one contiguous group of the schedule.
    seq = nodes if down else nodes[::-1]
    start = np.empty(nb, dtype=_I64)
    start[seq] = csr_ptr(1 + cnt[seq])[:-1]
    t_diag = start + (0 if down else cnt)
    t_upd = start[node] + w + (1 if down else 0)
    T = nb + idx.size

    def column(diag, upd):
        col = np.empty(T, dtype=_I64)
        col[t_diag], col[t_upd] = diag, upd
        return col

    # Events. Diag-solve: its compute, then the broadcast pairs. Update:
    # the GEMM, the message to the target's diagonal owner, the accumulate.
    ev_ptr = csr_ptr(column(1 + n_bc, 2 + live))
    E = int(ev_ptr[-1])
    src, dst = np.empty((2, E), dtype=_I64)
    val = np.empty(E)
    kind = np.full(E, _SOLVE, dtype=np.int8)
    h = ev_ptr[t_diag]
    src[h] = dst[h] = diag_owner
    val[h] = sz * sz
    at = h[bc] + 1 + bc_off
    src[at], dst[at] = np.concatenate(bc_src), np.concatenate(bc_dst)
    val[at], kind[at] = sz[bc], MSG
    h = ev_ptr[t_upd]
    src[h] = dst[h] = blk_owner
    val[h] = 2 * sz[idx] * sz[node]
    m = h[live] + 1
    src[m], dst[m], val[m], kind[m] = \
        blk_owner[live], tgt_owner[live], words[live], MSG
    a = h + 1 + live
    src[a] = dst[a] = tgt_owner
    val[a] = words

    # Dependencies: an update waits for the diag-solve of the segment it
    # reads; a diag-solve for every update into its segment.
    n_into = np.bincount(seg_t, minlength=nb)
    dep_ptr = csr_ptr(column(n_into, 1))
    dep_idx = np.empty(int(dep_ptr[-1]), dtype=_I64)
    dep_idx[dep_ptr[t_upd]] = t_diag[seg_s]
    g, o = ragged(n_into)
    dep_idx[dep_ptr[t_diag[g]] + o] = t_upd[np.argsort(seg_t, kind="stable")]

    rows_t, rows_s = column(nodes, seg_t), column(nodes, seg_s)
    steps = np.stack([column(DIAG_SOLVE, UPDATE), column(nodes, bi),
                      column(nodes, bj), off[rows_t], off[rows_t + 1],
                      off[rows_s], off[rows_s + 1]], 1)
    plan = SolvePlan(down, lower, steps, ev_ptr,
                     EventStream(src, dst, val, kind), dep_ptr, dep_idx)
    if build.POST_BUILD_HOOK is not None:
        build.POST_BUILD_HOOK(plan, sf)
    return plan
