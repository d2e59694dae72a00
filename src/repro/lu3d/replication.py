"""Replica management for the 3D algorithm's ancestor blocks.

Every block ``(i, j)`` of the filled pattern belongs to supernode
``s = min(i, j)`` (the deeper node — its panels reach *up* to ancestors).
The block is replicated on exactly the grids hosting ``s``'s forest:
``tf.grids_of_node(s)``. The *home* grid's copy is initialized with the
values of ``A``; all other copies start at zero, so that after pairwise
summation every contribution — including A's own — is counted exactly once
(Fig. 5's "initial state").
"""

from __future__ import annotations

import numpy as np

from repro.comm.grid import ProcessGrid3D
from repro.lu2d.storage import (block_views, extents, node_block_arrays,
                                node_blocks)
from repro.plan.backends import get_backend
from repro.sparse.blockmatrix import BlockMatrix, zero_buffer
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest
from repro.utils.ragged import csr_ptr, ragged

__all__ = ["ReplicaManager", "replica_words_per_rank"]


class ReplicaManager:
    """Owns every grid's copy of every block (numeric mode), in two
    buffers laid out once: the arena of ``base`` — a :class:`BlockMatrix`
    holding the permuted ``A`` over the full fill pattern, node-major
    (:meth:`BlockMatrix.from_csr` / :meth:`~BlockMatrix.zeros`) — is the
    *home* copies, mutated in place by the factorization; a second buffer
    holds every other replica, grid-major. A node's blocks are contiguous,
    in ``blocks_fn`` order, on every grid that holds them: one *segment*
    per (grid, node). A numeric run's data strategy is the manager itself."""

    def __init__(self, sf: SymbolicFactorization, tf: TreeForest,
                 base: BlockMatrix, blocks_fn=None):
        self.sf = sf
        self.tf = tf
        self.base = base
        self.blocks_fn = blocks_fn or node_blocks
        self._programs: dict = {}       # program(), solve_program()
        ptr, ii, jj, _ww = node_block_arrays(sf, self.blocks_fn)
        start, lo, hi = base.offsets_of(ii, jj)
        rows, size = hi - lo, (hi - lo) * sf.layout.sizes()[jj]
        n_blocks = np.diff(ptr)
        node_of = np.repeat(np.arange(sf.nb), n_blocks)
        rel = csr_ptr(size)
        words = np.diff(rel[ptr])                       # per node
        # Per node, if L blocks are packed: its (s + R) x s panel's words.
        e = extents(sf, self.blocks_fn)
        self._panel = rel[ptr[:-1] + 1 + np.diff(sf.fill.panel_csr()[0])] \
            - rel[ptr[:-1]] if np.array_equal(rows, e.r1 - e.r0) else None
        rel = rel[:-1] - rel[ptr[:-1]][node_of]         # block inside node
        home_off = start[ptr[:-1]]
        if (start < 0).any() or (start != home_off[node_of] + rel).any():
            raise ValueError(
                "base must be an arena BlockMatrix over (a superset of) the "
                "replica block pattern, node-major (BlockMatrix.from_csr)")
        # Node v lives on grids first[v] + 0 .. n_rep[v]; the first is home.
        n_rep = 2 ** (tf.l - tf.node_level) - 1
        first = tf.node_forest * (n_rep + 1)
        node, w = ragged(n_rep)
        g = first[node] + 1 + w
        order = np.argsort(g, kind="stable")            # grid-major
        node, g = node[order], g[order]
        off = csr_ptr(words[node])
        self._bufs = (base.buf, zero_buffer(int(off[-1])))
        #: ``(grid, node) -> (buffer, lo, hi)``: where the segment lives.
        self._seg = dict(zip(
            zip(first.tolist() + g.tolist(), list(range(sf.nb)) + node.tolist()),
            zip([0] * sf.nb + [1] * node.size,
                home_off.tolist() + off[:-1].tolist(),
                (home_off + words).tolist() + off[1:].tolist())))
        self._keys = keys = list(zip(ii.tolist(), jj.tolist()))
        home = list(map(base.blocks.__getitem__, keys))
        #: Per grid, then home, the blocks by id (``None``: not held).
        self._blocks = [[None] * len(keys) for _ in range(tf.pz)] + [home]
        for b, gv in enumerate(first[node_of].tolist()):
            self._blocks[gv][b] = home[b]
        pair, t = ragged(n_blocks[node])
        at = ptr[node][pair] + t
        lo = off[pair] + rel[at]
        for gv, b, s, e, r in zip(g[pair].tolist(), at.tolist(), lo.tolist(),
                                  (lo + size[at]).tolist(), rows[at].tolist()):
            self._blocks[gv][b] = self._bufs[1][s:e].reshape(r, -1)
        self._views = [block_views(sf, b, blocks_fn) for b in self._blocks]

    def view(self, g: int) -> dict[tuple[int, int], np.ndarray]:
        """Grid ``g``'s replicas ``(i, j) -> ndarray``: z-layer ``g``'s data."""
        return {k: X for k, X in zip(self._keys, self._blocks[g])
                if X is not None}

    def program(self, gp) -> list:
        """Grid plan ``gp``'s kernel program on grid ``gp.g``'s replicas
        (:meth:`repro.plan.backends.KernelBackend.bind`) — for a whole
        level step: its grids' programs back to back, each on its own
        replicas, under the level's ``k_ptr`` — bound once: :meth:`reset`
        keeps every array, so a replay runs the same list."""
        prog = self._programs.get(gp.arrays)
        if prog is None:
            if hasattr(gp, "grid_plans"):       # a level step
                prog = [op for part in gp.grid_plans
                        for op in self.program(part)]
            else:
                prog = get_backend(gp.backend).bind(
                    gp.arrays, self._views[gp.g], self.sf,
                    self._panel is not None and (lambda v: self.panel(gp.g, v)))
            self._programs[gp.arrays] = prog
        return prog

    def solve_program(self, sweeps, plans, shape) -> tuple:
        """``(work, [(plan, program, stream)])``: ``plans``, the triangular
        ``sweeps`` ``(down, lower, unit)``, bound on the home copies to one
        ``(n, nrhs)`` ``shape`` buffer (:func:`repro.solve.triangular.bind`),
        once per sweeps and ``nrhs``: a solve here is not re-entrant."""
        from repro.solve.triangular import bind
        bound = self._programs.get(sweeps)
        if bound is None or bound[0].shape != shape:
            work = np.empty(shape)
            bound = self._programs[sweeps] = (work, [
                (plan, bind(plan, self.sf, self._views[-1], work, unit),
                 plan.stream(shape[1]))
                for plan, (_down, _lower, unit) in zip(plans, sweeps)])
        return bound

    def panel(self, g: int, v: int) -> np.ndarray:
        """Node ``v``'s diagonal block over its packed L blocks on grid
        ``g``: one C-contiguous ``(s + R) x s`` array."""
        return self._segment(g, v)[:self._panel[v]].reshape(
            -1, self.sf.layout.block_size(v))

    def _segment(self, g: int, v: int) -> np.ndarray:
        buf, lo, hi = self._seg[(g, v)]
        return self._bufs[buf][lo:hi]

    def accumulate(self, g_dst: int, g_src: int, rows: np.ndarray,
                   cols: np.ndarray) -> None:
        """One Ancestor-Reduction hop over blocks ``(rows[t], cols[t])`` —
        whole nodes, node by node: ``dst += src``, one slice add per node."""
        node = np.minimum(rows, cols)
        for v in node[np.flatnonzero(np.diff(node, prepend=-1))].tolist():
            self._segment(g_dst, v)[:] += self._segment(g_src, v)

    def reset(self, vmap, data) -> None:
        """Re-initialize every replica to Fig. 5's initial state in place
        (the replay path's setup): both buffers zeroed, the home arena
        given ``data`` through ``vmap``, a ``ValueMap`` onto ``base``.
        Every array keeps its identity, so outstanding views, a previous
        run's :meth:`home_view` and the bound programs see the values."""
        vmap.fill(self.base.buf, data, self._bufs)

    # -- checkpoint / recovery support (repro.resilience) ------------------

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """A copy of both buffers: every grid's replica values."""
        return tuple(buf.copy() for buf in self._bufs)

    def restore(self, snap) -> None:
        """Write a :meth:`snapshot` back in place (views stay valid)."""
        for buf, saved in zip(self._bufs, snap):
            buf[:] = saved

    def restore_grid(self, g: int, snap) -> None:
        """Restore only grid ``g``'s replicas from a snapshot — z-replica
        recovery with the *initial* (Fig. 5) one: the crashed grid returns
        to its pre-factorization state, then its plans and the reduces
        aimed at it are replayed; other grids' copies are untouched."""
        for (gv, _v), (buf, lo, hi) in self._seg.items():
            if gv == g:
                self._bufs[buf][lo:hi] = snap[buf][lo:hi]

    def home_view(self) -> dict[tuple[int, int], np.ndarray]:
        """Every block's home-grid copy, ``(i, j) -> ndarray``: after
        factorization the final L\\U factors the solve phase reads."""
        return dict(zip(self._keys, self._blocks[-1]))


def replica_words_per_rank(sf: SymbolicFactorization, tf: TreeForest,
                           grid3: ProcessGrid3D,
                           blocks_fn=None, volume=None) -> np.ndarray:
    """Static factor + replica storage per global rank (words).

    For every node, every replicating grid stores the node's blocks under
    its own layer's 2D block-cyclic map — this is the memory the paper's
    Fig. 11 measures the overhead of. ``volume`` is the
    :class:`repro.comm.volume.BlockVolume` pricing each block (``None`` =
    dense, the historical ``rows * cols`` accounting). One ``np.add.at``
    over every (node, replicating grid, block) triple in that nesting
    order, so per-rank sums accumulate in the historical loop's order.
    """
    ptr, ii, jj, ww = node_block_arrays(sf, blocks_fn)
    if volume is not None:
        ww = volume.cap_many(ii, jj, ww)
    n_blocks = np.diff(ptr)
    n_grids = 2 ** (tf.l - tf.node_level)           # per node, contiguous
    first = tf.node_forest * n_grids                # from its home grid
    node, w = ragged(n_grids * n_blocks)            # grid-major per node
    at = ptr[node] + w % n_blocks[node]
    layer0 = grid3.layer(0)
    ranks = (first[node] + w // n_blocks[node]) * grid3.pxy \
        + layer0.owner_pairs(ii[at], jj[at])
    words = np.zeros(grid3.size)
    np.add.at(words, ranks, ww[at])
    return words
