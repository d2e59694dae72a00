"""The factor blocks of each supernode and the rows each can hold nonzero.

Every consumer of the static L/U block set gathers from these arrays: the
storage charge (:func:`repro.lu3d.replica_words_per_rank`, the Fig. 11 /
Eq. 1/5 memory), the Ancestor-Reduction builder and the numeric arena.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.lu2d.kernels import strided_pays
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.utils.ragged import csr_ptr, ragged, ranges

__all__ = ["node_blocks", "cholesky_node_blocks", "node_block_arrays",
           "extents", "block_views", "kernel_flops"]


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


def extents(sf: SymbolicFactorization, blocks_fn=None) -> SimpleNamespace:
    """What a bound kernel program reads, memoized on ``sf`` per enumerator
    (numeric runs only). Per block of :func:`node_block_arrays`: rows
    ``r0:r1`` and columns ``c0:c1`` that can be nonzero (an L block's
    structural rows, a U block's columns: the transposed fill's rows),
    ``trsm_cols`` (a ranged U-panel solve) and, for key ``i * nb + j``, id
    ``order[searchsorted(keys, key)]``. Per Schur pair (node ``k``'s at
    ``pair_ptr[k]:pair_ptr[k + 1]``), ``pairs[p]`` = target id, its rows
    from its ``r0``, left and right ids, ranged GEMM
    (:func:`~repro.lu2d.kernels.strided_pays`), right columns."""
    blocks_fn = blocks_fn or node_blocks
    e = sf.__dict__.setdefault("_extents", {}).get(blocks_fn)
    if e is not None:
        return e
    ptr, ii, jj, _ww = node_block_arrays(sf, blocks_fn)
    lp_ptr, _lp_idx, up_ptr, _up_idx = sf.fill.panel_csr()
    s, nl, nu = sf.layout.sizes(), np.diff(lp_ptr), np.diff(up_ptr)
    r0, r1, c0, c1 = np.zeros_like(ii), s[ii], np.zeros_like(jj), s[jj]
    lb, lu = ranges(ptr[:-1] + 1, nl), blocks_fn is node_blocks
    r0[lb], r1[lb] = sf.row_ranges()                # the L blocks' rows
    if lu:          # the U blocks' columns
        ub = ranges(ptr[:-1] + 1 + nl, nu)
        c0[ub], c1[ub] = sf.row_ranges(True)
    nr = nu if lu else nl   # pairs: L panel outer, U panel (L blocks 0..a)
    g, w = ragged(nl * nr)
    a, b = np.divmod(w, nr[g])
    g, a, b = (g, a, b + nl[g]) if lu else (x[b <= a] for x in (g, a, b))
    left, right, keys = ptr[g] + 1 + a, ptr[g] + 1 + b, ii * sf.nb + jj
    j, m, n, order = np.maximum(ii, jj)[right], s[jj[left]], c1 - c0, \
        np.argsort(keys)
    tgt = order[np.searchsorted(keys[order], ii[left] * sf.nb + j)]
    t0, t1 = r0[left] - r0[tgt], r1[left] - r0[tgt]
    h, q = t1 - t0, n[right]        # the GEMM's rows, its ranged columns
    gemm = lu & strided_pays(2.0 * h * m * (s[j] - q), q * (2 * h + m))
    e = sf._extents[blocks_fn] = SimpleNamespace(
        r0=r0, r1=r1, c0=c0, c1=c1, order=order, keys=keys[order], ptr=ptr,
        trsm_cols=(ii < jj) & strided_pays(1.0 * s[ii] ** 2 * (s[jj] - n),
                                           2 * s[ii] * n),
        pair_ptr=csr_ptr(np.bincount(g, minlength=sf.nb)), pairs=np.stack(
            [tgt, t0, t1, left, right, gemm, c0[right], c1[right]], 1))
    return e


def block_views(sf: SymbolicFactorization, blocks, blocks_fn=None):
    """The lists a bound program takes operands from by :func:`extents` id
    (``fn``: the enumerator): ``rows``, each block's F-view on its rows,
    and ``full``, as stored. ``blocks``: an arena's list by id, or a mapping
    ``(i, j) -> block`` of C-contiguous float64 blocks (else ``ValueError``:
    bound ops overwrite them in place)."""
    e = extents(sf, fn := blocks_fn or node_blocks)
    if not isinstance(blocks, list):
        _ptr, ii, jj, _ww = node_block_arrays(sf, fn)
        blocks = list(map(blocks.get, zip(ii.tolist(), jj.tolist())))
        if not all(X is None or X.dtype == np.float64
                   and X.flags.c_contiguous for X in blocks):
            raise ValueError("kernel programs overwrite blocks in place: "
                             "the store must hold C-contiguous float64")
    rows = [X if X is None else (X if len(X) == b - a else X[a:b]).T
            for X, a, b in zip(blocks, e.r0.tolist(), e.r1.tolist())]
    return SimpleNamespace(fn=fn, rows=rows, full=rows if fn is node_blocks
                           else [X if X is None else X.T for X in blocks])


def kernel_flops(sf: SymbolicFactorization, blocks_fn=None) -> tuple:
    """``(factor, trsm, gemm)``: the flops of the bound kernel program's
    GETRFs (POTRFs under :func:`cholesky_node_blocks`), panel TRSMs and
    Schur GEMMs, every L block on its structural rows and every ranged
    U-side op on its block's columns (:func:`extents`). The ledger's
    :class:`NodeCosts` stay dense."""
    blocks_fn = blocks_fn or node_blocks
    _ptr, ii, jj, _ww = node_block_arrays(sf, blocks_fn)
    e, s = extents(sf, blocks_fn), sf.layout.sizes() * 1.0
    n = np.where(e.trsm_cols, e.c1 - e.c0, s[jj])   # a U block's columns
    solved = np.where(ii > jj, e.r1 - e.r0, np.where(ii < jj, n, 0))
    tgt, t0, t1, left, _right, gemm, c0, c1 = e.pairs.T
    return ((s ** 3).sum() * (2 / 3 if blocks_fn is node_blocks else 1 / 3),
            (s[np.minimum(ii, jj)] ** 2 * solved).sum(),
            (2 * s[jj[left]] * (t1 - t0) * np.where(gemm, c1 - c0,
                                                    s[jj[tgt]])).sum())
