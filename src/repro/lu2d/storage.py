"""The factor blocks of each supernode and the rows each can hold nonzero.

Every consumer of the static L/U block set gathers from these arrays: the
storage charge (:func:`repro.lu3d.replica_words_per_rank`, the Fig. 11 /
Eq. 1/5 memory), the Ancestor-Reduction builder and the numeric arena.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.utils.ragged import csr_ptr, ragged

__all__ = ["node_blocks", "cholesky_node_blocks", "node_block_arrays",
           "block_rows", "stored_rows", "kernel_flops"]


def _node_slice(sf, k: int, blocks_fn) -> list[tuple[int, int, int]]:
    ptr, ii, jj, ww = node_block_arrays(sf, blocks_fn)
    at = slice(ptr[k], ptr[k + 1])
    return list(zip(ii[at].tolist(), jj[at].tolist(),
                    ww[at].astype(np.int64).tolist()))


def node_blocks(sf: SymbolicFactorization, k: int
                ) -> list[tuple[int, int, int]]:
    """All factor blocks of supernode ``k`` with their word sizes.

    Returns ``(i, j, words)`` triples for the diagonal block, the L panel
    (blocks ``(i, k)``) and the U panel (blocks ``(k, j)``) — the paper's
    ``A_s`` set for ``s = k``: node ``k``'s slice of
    :func:`node_block_arrays`.
    """
    return _node_slice(sf, k, node_blocks)


def cholesky_node_blocks(sf: SymbolicFactorization, k: int
                         ) -> list[tuple[int, int, int]]:
    """Lower-triangle blocks of supernode ``k``: diagonal + L panel.

    The Cholesky analogue of :func:`node_blocks` — half the storage, half
    the replication, half the reduction traffic.
    """
    return _node_slice(sf, k, cholesky_node_blocks)


def node_block_arrays(sf: SymbolicFactorization, blocks_fn=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """``(ptr, ii, jj, words)``: every node's blocks under enumerator
    ``blocks_fn`` (:func:`node_blocks`, the default, or
    :func:`cholesky_node_blocks`) as one CSR over the nodes
    (``ptr[v]:ptr[v + 1]`` spans node ``v``: its diagonal block, its L
    panel, then — LU only — its U panel), gathered from the fill's panel
    CSR and memoized on ``sf`` per enumerator. It is the enumerators'
    single source: they return slices of it, and the replica accounting,
    the Ancestor-Reduction builder and the numeric block pattern gather
    from it."""
    blocks_fn = blocks_fn or node_blocks
    if blocks_fn not in (node_blocks, cholesky_node_blocks):
        raise ValueError(f"unknown block enumerator {blocks_fn!r}")
    cache = sf.__dict__.setdefault("_node_block_arrays", {})
    out = cache.get(blocks_fn)
    if out is None:
        lp_ptr, lp_idx, up_ptr, up_idx = sf.fill.panel_csr()
        upper, s = blocks_fn is node_blocks, sf.layout.sizes()
        nl, nu = np.diff(lp_ptr), np.diff(up_ptr) * upper
        ptr = csr_ptr(1 + nl + nu)
        ii, jj, ww = np.empty((3, ptr[-1]), dtype=np.int64)
        ii[ptr[:-1]] = jj[ptr[:-1]] = np.arange(sf.nb)
        ww[ptr[:-1]] = s * s if upper else s * (s + 1) // 2
        g, w = ragged(nl)
        at = ptr[g] + 1 + w
        ii[at], jj[at], ww[at] = lp_idx, g, s[lp_idx] * s[g]
        if upper:
            g, w = ragged(nu)
            at = ptr[g] + 1 + nl[g] + w
            ii[at], jj[at], ww[at] = g, up_idx, s[g] * s[up_idx]
        out = cache[blocks_fn] = (ptr, ii, jj, ww.astype(np.float64))
    return out


def block_rows(sf: SymbolicFactorization, blocks_fn=None
               ) -> tuple[np.ndarray, np.ndarray, dict]:
    """``(r0, r1, rows)``: the rows ``r0:r1`` of each block of
    :func:`node_block_arrays` that can be nonzero (an L block's structural
    range, :meth:`SymbolicFactorization.row_ranges`, else all), and
    ``rows[(i, j)] = slice(r0, r1)``; memoized, numeric runs only."""
    blocks_fn = blocks_fn or node_blocks
    cache = sf.__dict__.setdefault("_block_rows", {})
    out = cache.get(blocks_fn)
    if out is None:
        ptr, ii, jj, _ww = node_block_arrays(sf, blocks_fn)
        r0, r1 = np.zeros_like(ii), sf.layout.sizes()[ii]
        g, w = ragged(np.diff(sf.fill.panel_csr()[0]))  # after diagonals:
        r0[ptr[g] + 1 + w], r1[ptr[g] + 1 + w] = sf.row_ranges()  # L panels
        out = cache[blocks_fn] = (r0, r1, dict(zip(zip(
            ii.tolist(), jj.tolist()), map(slice, r0.tolist(), r1.tolist()))))
    return out


def stored_rows(blk: np.ndarray, own: slice, r: slice | None = None):
    """Rows ``r`` (``None``: ``own``) of a block whose rows ``own`` can be
    nonzero (:func:`block_rows`), from ``blk`` at full height or packed."""
    r = own if r is None else r
    lo = own.start if len(blk) == own.stop - own.start else 0
    return blk[r.start - lo:r.stop - lo]


def kernel_flops(sf: SymbolicFactorization, blocks_fn=None) -> tuple:
    """``(factor, trsm, gemm)``: the flops of the bound kernel program's
    GETRFs (POTRFs under :func:`cholesky_node_blocks`), panel TRSMs and
    Schur GEMMs, every L block on its structural rows (:func:`block_rows`).
    The ledger's :class:`NodeCosts` stay dense."""
    blocks_fn = blocks_fn or node_blocks
    ptr, ii, jj, _ww = node_block_arrays(sf, blocks_fn)
    r0, r1, _rows = block_rows(sf, blocks_fn)
    s, node = sf.layout.sizes() * 1.0, np.repeat(np.arange(sf.nb),
                                                 np.diff(ptr))
    m = np.where(ii > jj, r1 - r0, 0)               # an L block's rows
    if blocks_fn is node_blocks:    # each L block against each U block
        lrows, ucols = (np.bincount(node, w, minlength=sf.nb)
                        for w in (m, np.where(jj > ii, s[jj], 0)))
        return ((s ** 3).sum() * 2 / 3, (s * s * (lrows + ucols)).sum(),
                (2 * s * lrows * ucols).sum())
    left = np.cumsum(np.where(ii > jj, s[ii], 0.0))  # Cholesky: the a-th
    left -= left[ptr[:-1]][node]            # L block against L blocks 0..a
    return ((s ** 3).sum() / 3, (s[node] ** 2 * m).sum(),
            (2 * s[node] * m * left).sum())
