"""Block symbolic elimination: the filled L/U panel structure.

Runs right-looking elimination on the *block quotient graph* — the ``nb × nb``
boolean matrix whose entry ``(i, j)`` says "supernodes i and j interact".
Starting from the block pattern of the permuted ``A``, eliminating block
column ``k`` adds fill block ``(i, j)`` for every ``i`` in the L-panel and
``j`` in the U-panel of ``k`` (the Schur-complement footprint of step k,
Section II-C).

With a dissection-tree ordering the result is *ancestor-closed*: every
filled off-diagonal block connects a node to one of its tree ancestors. That
closure property is asserted here (cheaply) because the 3D algorithm's
replication correctness depends on it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.blockmatrix import BlockLayout
from repro.utils.ragged import csr_ptr

__all__ = ["block_fill", "BlockFill"]


class BlockFill:
    """Filled block structure of the factorization.

    Attributes
    ----------
    lpanel:
        ``lpanel[k]`` — sorted array of block rows ``i > k`` with a
        (structurally) nonzero ``L[i, k]``.
    upanel:
        ``upanel[k]`` — sorted array of block cols ``j > k`` with nonzero
        ``U[k, j]``.
    nb:
        Number of supernode blocks.
    """

    def __init__(self, lpanel: list[np.ndarray], upanel: list[np.ndarray]):
        if len(lpanel) != len(upanel):
            raise ValueError("lpanel/upanel length mismatch")
        self.lpanel = lpanel
        self.upanel = upanel
        self.nb = len(lpanel)
        self._csr = None

    def panel_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """``(lp_ptr, lp_idx, up_ptr, up_idx)``: both panel lists as CSR
        over the nodes (memoized) — what the array-form plan builder, the
        per-node block arrays and the pattern signature index."""
        if self._csr is None:
            out = []
            for panels in (self.lpanel, self.upanel):
                out.append(csr_ptr([p.size for p in panels]))
                out.append(np.concatenate(panels).astype(np.int64)
                           if panels else np.zeros(0, dtype=np.int64))
            self._csr = tuple(out)
        return self._csr

    def all_blocks(self) -> set[tuple[int, int]]:
        """Every structurally nonzero block of the filled factors, incl. diagonal."""
        out: set[tuple[int, int]] = set()
        for k in range(self.nb):
            out.add((k, k))
            out.update((int(i), k) for i in self.lpanel[k])
            out.update((k, int(j)) for j in self.upanel[k])
        return out

    def nnz_blocks(self) -> int:
        return self.nb + sum(p.size for p in self.lpanel) + \
            sum(p.size for p in self.upanel)

    def schur_pairs(self, k: int) -> list[tuple[int, int]]:
        """Blocks ``(i, j)`` updated by the Schur complement of step ``k``."""
        return [(int(i), int(j)) for i in self.lpanel[k] for j in self.upanel[k]]


def _initial_block_pattern(A: sp.csr_matrix, layout: BlockLayout
                           ) -> tuple[list[set[int]], list[set[int]]]:
    """Block rows/cols of the permuted A below/right of each diagonal block."""
    nb = layout.nblocks
    lsets: list[set[int]] = [set() for _ in range(nb)]
    usets: list[set[int]] = [set() for _ in range(nb)]
    coo = A.tocoo()
    bi = layout.block_of_index(coo.row)
    bj = layout.block_of_index(coo.col)
    # Deduplicate block pairs up front: entries per block pair are many.
    pairs = np.unique(bi * np.int64(nb) + bj)
    ui, uj = pairs // nb, pairs % nb
    for i, j in zip(ui.tolist(), uj.tolist()):
        if i > j:
            lsets[j].add(i)
        elif j > i:
            usets[i].add(j)
    return lsets, usets


def block_fill(A: sp.csr_matrix, layout: BlockLayout,
               tree_parent: np.ndarray | None = None) -> BlockFill:
    """Symbolic block elimination of the permuted matrix ``A``.

    Parameters
    ----------
    A:
        The matrix *already permuted* into the dissection ordering.
    layout:
        Supernode block layout (from the dissection tree).
    tree_parent:
        Optional block-etree parent array. When given, the ancestor-closure
        invariant is verified: every filled block must connect
        ancestor-related nodes. A violation means the ordering and the tree
        are inconsistent — a programming error, reported loudly.
    """
    if A.shape[0] != layout.n:
        raise ValueError("matrix / layout dimension mismatch")
    nb = layout.nblocks
    lsets, usets = _initial_block_pattern(A, layout)

    for k in range(nb):
        lk = sorted(lsets[k])
        uk = sorted(usets[k])
        for i in lk:
            for j in uk:
                if i > j:
                    lsets[j].add(i)
                elif j > i:
                    usets[i].add(j)
                # i == j: diagonal block, implicitly present.

    lpanel = [np.fromiter(sorted(s), dtype=np.int64, count=len(s))
              for s in lsets]
    upanel = [np.fromiter(sorted(s), dtype=np.int64, count=len(s))
              for s in usets]

    if tree_parent is not None:
        _check_ancestor_closure(lpanel, upanel, np.asarray(tree_parent))
    return BlockFill(lpanel, upanel)


def _check_ancestor_closure(lpanel, upanel, parent: np.ndarray) -> None:
    """Verify every filled block joins a node with one of its ancestors."""
    nb = parent.shape[0]
    # ancestors via repeated parent hops; trees here are O(log nb) deep.
    def is_ancestor(a: int, d: int) -> bool:
        while d != -1:
            if d == a:
                return True
            d = int(parent[d])
        return False

    for k in range(nb):
        for i in lpanel[k]:
            if not is_ancestor(int(i), k):
                raise AssertionError(
                    f"L block ({int(i)}, {k}) violates ancestor closure")
        for j in upanel[k]:
            if not is_ancestor(int(j), k):
                raise AssertionError(
                    f"U block ({k}, {int(j)}) violates ancestor closure")
