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

:func:`row_ranges` refines the L blocks to rows: the bounding range of the
block-row rows that can be nonzero, closed under the same footprint. The
numeric kernels run on those rows only.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import scipy.sparse as sp

from repro.sparse.blockmatrix import BlockLayout
from repro.utils.ragged import csr_ptr, ragged

__all__ = ["block_fill", "BlockFill", "row_ranges"]


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
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal blocks of the permuted A as sorted keys: ``j * nb + i``
    for an L block ``(i, j)``, ``i > j`` (column-major), ``i * nb + j`` for
    a U block, ``j > i`` (row-major). Blocks come from one index -> block
    lookup; a row's runs of equal keys collapse before one ``np.unique``."""
    A, nb = A.tocsr(), layout.nblocks
    block = np.repeat(np.arange(nb), layout.sizes())
    key = np.repeat(block, np.diff(A.indptr)) * nb + block[A.indices]
    keys = np.unique(key[np.r_[True, key[1:] != key[:-1]]])
    i, j = np.divmod(keys, nb)
    return np.sort((j * nb + i)[i > j]), keys[j > i]


def _key_sets(keys: np.ndarray, nb: int) -> list[set[int]]:
    """Sorted keys ``major * nb + minor`` as one set of minors per major."""
    major, minor = np.divmod(keys, nb)
    cut = np.searchsorted(major, np.arange(nb + 1)).tolist()
    minor = minor.tolist()
    return [set(minor[a:b]) for a, b in zip(cut[:-1], cut[1:])]


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
        Optional block-etree parent array, every parent numbered above its
        child (``ValueError`` otherwise) as in every dissection tree. When
        given, the ancestor-closure invariant is verified: every filled
        block must connect ancestor-related nodes. A violation means the
        ordering and the tree are inconsistent — a programming error,
        reported loudly.
    """
    if A.shape[0] != layout.n:
        raise ValueError("matrix / layout dimension mismatch")
    nb = layout.nblocks
    lower, upper = _initial_block_pattern(A, layout)
    lsets, usets = _key_sets(lower, nb), _key_sets(upper, nb)

    # Step k adds L[i, j] for i > j and U[i, j] for j > i over i in L(k),
    # j in U(k) (i == j is the diagonal): per j, the tail of L(k) above
    # it; per i, the tail of U(k) right of it. Column k is final here.
    lpanel, upanel = [], []
    for k in range(nb):
        lk, uk = sorted(lsets[k]), sorted(usets[k])
        for j in uk:
            lsets[j].update(lk[bisect_right(lk, j):])
        for i in lk:
            usets[i].update(uk[bisect_right(uk, i):])
        lpanel.append(np.array(lk, dtype=np.int64))
        upanel.append(np.array(uk, dtype=np.int64))

    fill = BlockFill(lpanel, upanel)
    if tree_parent is not None:
        _check_ancestor_closure(fill, np.asarray(tree_parent))
    return fill


def row_ranges(A: sp.csr_matrix, layout: BlockLayout, fill: BlockFill
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(r0, r1)`` parallel to ``fill.panel_csr()``'s ``lp_idx``: rows
    ``r0:r1`` of L block ``(i, k)`` bound its rows that can be nonzero.
    Seeded by the stored, symmetrized pattern of the permuted ``A``, then
    eliminating ``k`` widens ``(i, j)`` by ``(i, k)`` for each ``j`` in
    ``upanel(k)`` below ``i``: one fixpoint over all Schur triples. Tight
    when rows come ordered by the first earlier block they touch, as
    :func:`symbolic_factorize` orders them."""
    n, nb, off = layout.n, layout.nblocks, layout.offsets
    lp_ptr, lp_idx, up_ptr, up_idx = fill.panel_csr()
    lkeys = np.append(np.repeat(np.arange(nb), np.diff(lp_ptr)) * nb
                      + lp_idx, nb * nb)        # closed by a sentinel
    A = A.tocsr()
    block = np.repeat(np.arange(nb), layout.sizes())
    per_row = np.diff(A.indptr)
    bi, bj = np.repeat(block, per_row), block[A.indices]
    at = np.flatnonzero(bi != bj)  # (r, c) seeds row r; (c, r) seeds row c
    bi, bj, c = bi[at], bj[at], A.indices[at]
    r = np.where(bi > bj, np.repeat(np.arange(n), per_row)[at], c)
    i, k = np.maximum(bi, bj), np.minimum(bi, bj)
    key, r = np.divmod(np.sort((k * nb + i) * n + r - off[i]), n)
    first = np.flatnonzero(np.diff(key, prepend=-1))        # of each key
    last = np.flatnonzero(np.diff(key, append=nb * nb))
    slot = np.searchsorted(lkeys, key[first])
    held = lkeys[slot] == key[first]
    r0, r1 = np.full(lp_idx.size, n), np.zeros(lp_idx.size, dtype=np.int64)
    r0[slot[held]], r1[slot[held]] = r[first[held]], r[last[held]] + 1
    # Schur triples: L(k)[a] x U(k)[b] with j < i, from slot lp_ptr[k] + a
    # to the slot of L block (i, j).
    node, w = ragged(np.diff(lp_ptr) * np.diff(up_ptr))
    a, b = np.divmod(w, np.diff(up_ptr)[node])
    src = lp_ptr[node] + a
    i, j = lp_idx[src], up_idx[up_ptr[node] + b]
    src, dst = src[j < i], np.searchsorted(lkeys, (j * nb + i)[j < i])
    while True:                 # r0 only falls, r1 only rises
        width = r1.sum() - r0.sum()
        np.minimum.at(r0, dst, r0[src])
        np.maximum.at(r1, dst, r1[src])
        if r1.sum() - r0.sum() == width:
            return r0, r1


def _check_ancestor_closure(fill: BlockFill, parent: np.ndarray) -> None:
    """Verify every filled block joins a node with one of its ancestors;
    report the first offender in ``k`` order, L panel before U panel.

    Ancestor chains increase (``parent[v] > v`` in every dissection tree),
    so ``a`` is above ``k`` iff the chain's last member ``<= a`` is ``a``:
    binary lifting over doubled parent arrays, all blocks at once. (It
    reads a bare parent array, which need not be a contiguous postorder.)"""
    nb = parent.shape[0]
    lp_ptr, lp_idx, up_ptr, up_idx = fill.panel_csr()
    ids = np.arange(nb)
    k = np.concatenate([np.repeat(ids, np.diff(lp_ptr)),
                        np.repeat(ids, np.diff(up_ptr))])
    a = np.concatenate([lp_idx, up_idx])
    up = np.append(np.where(parent < 0, nb, parent), nb)   # nb: above roots
    if (up[:nb] <= ids).any():
        raise ValueError("tree_parent must number every parent above its child")
    jumps = [up]
    while (jumps[-1][:nb] < nb).any():
        jumps.append(jumps[-1][jumps[-1]])
    cur = k
    for up in reversed(jumps):
        cur = np.where(up[cur] <= a, up[cur], cur)
    bad = np.flatnonzero(cur != a)
    if bad.size:
        is_u = np.arange(k.size) >= lp_idx.size
        e = bad[np.argmin((2 * k + is_u)[bad])]
        raise AssertionError(
            f"U block ({k[e]}, {a[e]}) violates ancestor closure" if is_u[e]
            else f"L block ({a[e]}, {k[e]}) violates ancestor closure")
