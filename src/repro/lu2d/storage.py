"""Per-rank factor-storage accounting for the 2D block-cyclic distribution.

The static L/U data structure is allocated before numeric factorization
begins (SuperLU_DIST does the same after its symbolic phase); these helpers
charge that storage to each rank's memory ledger and compute the per-rank
word counts the memory experiments (Fig. 11, Eq. 1/5) need.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.comm.grid import ProcessGrid2D
from repro.comm.simulator import Simulator
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.utils.ragged import csr_ptr, ragged

__all__ = ["allocate_factor_storage", "factor_words_per_rank", "node_blocks",
           "node_block_arrays"]


def node_blocks(sf: SymbolicFactorization, k: int
                ) -> list[tuple[int, int, int]]:
    """All factor blocks of supernode ``k`` with their word sizes.

    Returns ``(i, j, words)`` triples for the diagonal block, the L panel
    (blocks ``(i, k)``) and the U panel (blocks ``(k, j)``) — the paper's
    ``A_s`` set for ``s = k``.
    """
    s = sf.layout.block_size(k)
    out = [(k, k, s * s)]
    for i in sf.fill.lpanel[k]:
        out.append((int(i), k, sf.layout.block_size(int(i)) * s))
    for j in sf.fill.upanel[k]:
        out.append((k, int(j), s * sf.layout.block_size(int(j))))
    return out


def node_block_arrays(sf: SymbolicFactorization, blocks_fn=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """``(ptr, ii, jj, words)``: every node's ``blocks_fn`` triples as one
    CSR over the nodes (``ptr[v]:ptr[v + 1]`` spans node ``v``, in the
    enumerator's order), memoized on ``sf`` per enumerator. The replica
    accounting, the Ancestor-Reduction builder and the numeric block
    pattern all gather from these arrays instead of re-enumerating."""
    blocks_fn = blocks_fn or node_blocks
    cache = sf.__dict__.setdefault("_node_block_arrays", {})
    out = cache.get(blocks_fn)
    if out is None:
        per_node = [blocks_fn(sf, v) for v in range(sf.nb)]
        flat = np.asarray([t for blocks in per_node for t in blocks],
                          dtype=np.int64).reshape(-1, 3)
        out = cache[blocks_fn] = (
            csr_ptr([len(blocks) for blocks in per_node]), flat[:, 0].copy(),
            flat[:, 1].copy(), flat[:, 2].astype(np.float64))
    return out


def factor_words_per_rank(sf: SymbolicFactorization, nodes: Iterable[int],
                          grid: ProcessGrid2D, nranks: int,
                          volume=None) -> np.ndarray:
    """Words of L/U factor storage each global rank owns for ``nodes``.

    ``volume`` is the :class:`repro.comm.volume.BlockVolume` pricing each
    block (``None`` = dense, the historical ``rows * cols`` accounting).
    """
    ptr, ii, jj, ww = node_block_arrays(sf)
    nodes = np.fromiter(nodes, dtype=np.int64)
    g, w = ragged(ptr[nodes + 1] - ptr[nodes])
    at = ptr[nodes][g] + w
    ii, jj, ww = ii[at], jj[at], ww[at]
    if volume is not None:
        ww = volume.cap_many(ii, jj, ww)
    words = np.zeros(nranks)
    np.add.at(words, grid.owner_pairs(ii, jj), ww)
    return words


def allocate_factor_storage(sf: SymbolicFactorization, nodes: Iterable[int],
                            grid: ProcessGrid2D, sim: Simulator,
                            volume=None) -> None:
    """Charge the static factor storage of ``nodes`` to the owners' ledgers."""
    sim.alloc_batch(np.arange(sim.nranks), factor_words_per_rank(
        sf, nodes, grid, sim.nranks, volume=volume))
