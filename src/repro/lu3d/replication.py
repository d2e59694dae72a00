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
from repro.lu2d.storage import node_block_arrays, node_blocks
from repro.sparse.blockmatrix import BlockMatrix
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest
from repro.utils.ragged import ragged

__all__ = ["ReplicaManager", "GridStoreView", "replica_words_per_rank",
           "touched_block_keys"]


def touched_block_keys(sf: SymbolicFactorization, nodes,
                       blocks_fn=None) -> set[tuple[int, int]]:
    """Conservative superset of the blocks factoring ``nodes`` touches.

    Covers the nodes' own panels (``blocks_fn``), the LU Schur targets
    (``lpanel × upanel``) and the symmetric engines' lower-triangle
    targets (``i >= j`` pairs of the L panel). Used to build the
    per-grid view shipped to pool workers: intersecting this set with a
    grid's replica store yields every block the 2D engine can read or
    write for ``nodes`` (Schur targets are ancestors, and ancestor
    replication domains nest, so the grid holds them all).
    """
    blocks_fn = blocks_fn or node_blocks
    lpanel, upanel = sf.fill.lpanel, sf.fill.upanel
    keys: set[tuple[int, int]] = set()
    for v in nodes:
        v = int(v)
        keys.update((i, j) for i, j, _w in blocks_fn(sf, v))
        rows = [int(i) for i in lpanel[v]]
        cols = [int(j) for j in upanel[v]]
        keys.update((i, j) for i in rows for j in cols)
        keys.update((i, j) for a, i in enumerate(rows) for j in rows[:a + 1])
    return keys


class GridStoreView:
    """Mapping ``(i, j) -> ndarray`` resolving to one grid's replicas.

    This is the ``data`` object handed to ``factor_nodes_2d`` when it runs
    on behalf of z-layer ``g`` — the 2D code is oblivious to replication.
    """

    def __init__(self, mgr: "ReplicaManager", g: int):
        self._mgr = mgr
        self._g = g

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        return self._mgr.block(self._g, key[0], key[1])

    def __setitem__(self, key: tuple[int, int], value: np.ndarray) -> None:
        self._mgr.block(self._g, key[0], key[1])[:] = value

    def __contains__(self, key: tuple[int, int]) -> bool:
        try:
            self._mgr.block(self._g, key[0], key[1])
            return True
        except KeyError:
            return False


class ReplicaManager:
    """Owns every grid's copy of every block (numeric mode).

    Parameters
    ----------
    sf, tf:
        Symbolic factorization and the tree-forest partition.
    base:
        ``BlockMatrix`` holding the values of the permuted ``A`` expanded to
        the full fill pattern. Its arrays become the *home* copies (they are
        mutated in place during factorization).
    """

    def __init__(self, sf: SymbolicFactorization, tf: TreeForest,
                 base: BlockMatrix, blocks_fn=None):
        self.sf = sf
        self.tf = tf
        self.blocks_fn = blocks_fn or node_blocks
        self._dirty_hooks: list = []
        self._store: dict[tuple[int, int, int], np.ndarray] = {}
        layout = sf.layout
        for v in range(sf.nb):
            grids = tf.grids_of_node(v)
            home = grids.start
            for i, j, _w in self.blocks_fn(sf, v):
                blk = base.get(i, j)
                if blk is None:
                    blk = np.zeros((layout.block_size(i), layout.block_size(j)))
                self._store[(home, i, j)] = blk
                for g in grids:
                    if g != home:
                        self._store[(g, i, j)] = np.zeros_like(blk)

    def block(self, g: int, i: int, j: int) -> np.ndarray:
        try:
            return self._store[(g, i, j)]
        except KeyError:
            raise KeyError(f"grid {g} holds no replica of block ({i}, {j})") \
                from None

    def view(self, g: int) -> GridStoreView:
        return GridStoreView(self, g)

    # -- worker transport --------------------------------------------------

    def grid_block_refs(self, g: int,
                        nodes) -> dict[tuple[int, int], np.ndarray]:
        """Grid ``g``'s replicas of the blocks ``nodes`` may touch, as
        *direct* (non-copying) references, deterministically ordered — the
        shared-memory transport's export source (it copies only new/dirty
        blocks into its segments)."""
        store = self._store
        return {key: store[(g, *key)]
                for key in sorted(touched_block_keys(self.sf, nodes,
                                                     self.blocks_fn))
                if (g, *key) in store}

    def import_view(self, g: int,
                    blocks: dict[tuple[int, int], np.ndarray]) -> None:
        """Write a worker's mutated blocks back into grid ``g``'s replicas.

        In-place copies, so views and the home-grid aliasing into the
        original :class:`BlockMatrix` stay valid.
        """
        store = self._store
        for (i, j), arr in blocks.items():
            store[(g, i, j)][:] = arr

    def accumulate(self, g_dst: int, g_src: int, i: int, j: int) -> None:
        """One Ancestor-Reduction hop: ``dst-copy += src-copy``."""
        self._store[(g_dst, i, j)] += self._store[(g_src, i, j)]
        for hook in self._dirty_hooks:
            hook(g_dst, i, j)

    def add_dirty_hook(self, hook) -> None:
        """Register ``hook(g, i, j)`` to fire whenever a replica block is
        mutated outside plan execution (currently: :meth:`accumulate`) —
        how the shm transport learns which cached blocks went stale."""
        self._dirty_hooks.append(hook)

    def reset(self, base: BlockMatrix) -> None:
        """Re-initialize every replica to Fig. 5's initial state with fresh
        values, in place — the plan-replay path's allocation-free setup.

        Home copies are refilled from ``base`` (structurally missing blocks
        become zero fill again), non-home copies are zeroed, and dirty
        hooks are dropped: each execution's transport registers its own,
        and a stale hook would mark blocks dirty against a closed segment.
        Array identities are preserved, so any outstanding views (and a
        previous run's :class:`HomeView`) resolve to the new values.
        """
        sf, tf = self.sf, self.tf
        store = self._store
        self._dirty_hooks.clear()
        for v in range(sf.nb):
            grids = tf.grids_of_node(v)
            home = grids.start
            for i, j, _w in self.blocks_fn(sf, v):
                blk = base.get(i, j)
                if blk is None:
                    store[(home, i, j)][:] = 0.0
                else:
                    store[(home, i, j)][:] = blk
                for g in grids:
                    if g != home:
                        store[(g, i, j)][:] = 0.0

    # -- checkpoint / recovery support (repro.resilience) ------------------

    def snapshot(self) -> dict[tuple[int, int, int], np.ndarray]:
        """A deep copy of every grid's replica values."""
        return {key: arr.copy() for key, arr in self._store.items()}

    def restore(self, snap: dict[tuple[int, int, int], np.ndarray]) -> None:
        """Write a :meth:`snapshot` back in place (views stay valid)."""
        store = self._store
        for key, arr in snap.items():
            store[key][:] = arr

    def restore_grid(self, g: int,
                     snap: dict[tuple[int, int, int], np.ndarray]) -> None:
        """Restore only grid ``g``'s replicas from a snapshot.

        Used by z-replica recovery with the *initial* (Fig. 5) snapshot:
        the crashed grid is reset to its pre-factorization state, then its
        plans and the reduces aimed at it are replayed — every other
        grid's copies are left untouched.
        """
        store = self._store
        for key, arr in snap.items():
            if key[0] == g:
                store[key][:] = arr

    def home_view(self) -> "HomeView":
        return HomeView(self)


class HomeView:
    """Read-only view resolving every block to its home grid's copy.

    After factorization the home copies hold the final L\\U factors; the
    solve phase and the verification tests read through this view.
    """

    def __init__(self, mgr: ReplicaManager):
        self._mgr = mgr
        self._home = {v: mgr.tf.home_grid(v) for v in range(mgr.sf.nb)}

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        i, j = key
        return self._mgr.block(self._home[min(i, j)], i, j)

    def to_block_matrix(self) -> BlockMatrix:
        """Assemble the factored blocks into a plain BlockMatrix."""
        out = BlockMatrix(self._mgr.sf.layout)
        for v in range(self._mgr.sf.nb):
            for i, j, _w in self._mgr.blocks_fn(self._mgr.sf, v):
                out[(i, j)] = self[(i, j)].copy()
        return out


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
