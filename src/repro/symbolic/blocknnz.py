"""Per-block fill-in nnz tables for the compact communication model.

The compact message mode (:mod:`repro.comm.volume`) prices every block
transfer at ``min(dense, 1.5 * nnz(i, j))`` words, where ``nnz(i, j)`` is
the number of *structurally nonzero* factor entries inside block ``(i, j)``
of the filled pattern. This module computes those counts once per
:class:`repro.symbolic.SymbolicFactorization` by running a scalar symbolic
Cholesky factorization of the symmetrized permuted pattern — the classic
O(|L|) row-structure walk over the elimination tree (Gilbert/Ng/Peyton).

Because our GESP-style LU never pivots across the dissection permutation,
its fill is contained in the Cholesky fill of ``A + A^T`` (a standard
superset bound); every factor entry the numeric drivers can produce lands
on a counted position, so the compact word counts are a safe upper bound
on the true payload while remaining far below the dense ``rows * cols``
for sparse ancestor blocks.

The tables are memoized on the ``SymbolicFactorization`` instance (keyed by
``id``-free attribute caching), so repeated plan builds — the refactorization
service replays in particular — pay the scalar walk exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import symmetrize_pattern
from repro.symbolic.etree import elimination_tree

__all__ = ["BlockNnzTables", "block_nnz_tables"]

_CACHE_ATTR = "_block_nnz_tables"


class BlockNnzTables:
    """Structural nonzero counts of the filled factor, per block.

    Attributes
    ----------
    nnz:
        Dict ``(bi, bj) -> int`` counting filled entries inside block
        ``(bi, bj)``. Diagonal blocks count the union of their L and U
        triangles plus the diagonal (i.e. the full packed ``L\\U`` tile);
        off-diagonal blocks count their own panel's entries. Blocks with
        no filled entries are absent (count 0).
    tri:
        Array of length ``nb``: filled entries in the *lower triangle
        including the diagonal* of each diagonal block — the payload of a
        triangular-shaped diagonal message (Cholesky storage, LU diagonal
        broadcast).
    """

    def __init__(self, nnz: dict[tuple[int, int], int], tri: np.ndarray):
        self.nnz = nnz
        self.tri = tri

    def block_nnz(self, i: int, j: int) -> int:
        """Filled entries in block ``(i, j)``; 0 if structurally empty."""
        return self.nnz.get((i, j), 0)

    @property
    def total(self) -> int:
        return sum(self.nnz.values())


def _scalar_fill_counts(sf) -> BlockNnzTables:
    """Run the O(|L|) symbolic walk and bucket entries into blocks.

    The walk is one Python step per factor entry, so it reads plain lists:
    numpy scalar indexing would cost more than the step itself."""
    S = symmetrize_pattern(sf.A_perm).tocsc()
    n = S.shape[0]
    parent = elimination_tree(sf.A_perm).tolist()
    block_of = sf.layout.block_of_index(np.arange(n)).tolist()
    nnz: dict[tuple[int, int], int] = {}
    get = nnz.get
    tri = [0] * sf.nb
    marker = [-1] * n
    indptr, indices = S.indptr.tolist(), S.indices.tolist()

    for i in range(n):
        bi = block_of[i]
        diag = (bi, bi)
        marker[i] = i
        # Diagonal entry of row i: always structurally present.
        nnz[diag] = get(diag, 0) + 1
        tri[bi] += 1
        for j in indices[indptr[i]:indptr[i + 1]]:
            if j >= i:
                continue
            # March up the etree from j; every unmarked node on the path
            # is a (possibly filled) entry L[i, j'] of row i.
            while marker[j] != i:
                marker[j] = i
                bj = block_of[j]
                if bj == bi:
                    # In-tile strict-lower entry: the packed L\U diagonal
                    # tile carries it and its U mirror.
                    nnz[diag] = get(diag, 0) + 2
                    tri[bi] += 1
                else:
                    low, up = (bi, bj), (bj, bi)
                    nnz[low] = get(low, 0) + 1     # L-panel entry
                    nnz[up] = get(up, 0) + 1       # U mirror (symmetrized)
                j = parent[j]
                if j == -1:
                    break
    return BlockNnzTables(nnz, np.array(tri, dtype=np.int64))


def block_nnz_tables(sf) -> BlockNnzTables:
    """Return (and memoize on ``sf``) the per-block fill-in nnz tables."""
    cached = getattr(sf, _CACHE_ATTR, None)
    if cached is None:
        cached = _scalar_fill_counts(sf)
        setattr(sf, _CACHE_ATTR, cached)
    return cached
