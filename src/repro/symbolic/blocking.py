"""Structure-aware irregular blocking: pattern-driven supernode boundaries.

The uniform ``max_block`` cap (SuperLU_DIST's ``maxsup``) chops every
oversized dissection node into equal-width chunks, which is the right
thing on mesh-like matrices where the vertices of a separator are
structurally interchangeable. Irregular patterns — circuit, power-grid,
KKT, arrowhead — violate that premise: a node can mix a banded majority
with a handful of near-dense rows, and any *uniform* cut smears those
dense rows across every chunk, inflating every chunk's panel footprint
(and therefore every message priced off it).

This module implements the irregular strategy of the Structure-Aware
Irregular Blocking paper (PAPERS.md), adapted to the dissection-tree
setting. Block boundaries are chosen from the actual pattern in three
passes:

1. **Boundary snapping at dense-row / arrowhead discontinuities.** Inside
   each tree node, vertices whose symmetrized-pattern degree exceeds
   ``SNAP_RATIO`` times the node's median degree are *discontinuities*.
   The node's vertices are stably reordered by ascending degree (a legal
   within-node permutation — block structure only sees node membership)
   and a chunk boundary is snapped exactly at the first dense vertex, so
   the dense rows land in their own top-of-chain chunk, eliminated last,
   and only that skinny chunk carries the wide panels.
2. **Capped chunking.** Each contiguous segment is then split into
   ``<= max_block``-sized chunks by the uniform cap's own chunker and
   :func:`repro.ordering.split_chains`, so the elimination-tree shape is
   preserved (bottom chunk keeps the node's children).
3. **Amalgamation by structural similarity under a relaxation budget.**
   Postorder-adjacent child blocks are absorbed into their parents (the
   contiguity rule of :func:`repro.ordering.relax_supernodes`) only when
   their *future-row* patterns overlap: merging blocks with Jaccard
   dissimilarity above ``RELAX_BUDGET`` would manufacture structural
   zeros in the merged panels, which the dense block model then stores
   and ships. Tiny blocks get a laxer budget — their padding is cheap
   and every eliminated block saves messages.

Finally the result is **floored by the uniform blocking** (the same
better-of-two idiom :func:`repro.tree.partition.greedy_partition` uses):
the aggregate filled-panel words (summed over all blocks) of the
irregular tree are compared against the uniform tree's, and the cheaper
tree wins. On mesh-like matrices where no discontinuity fires, the
irregular tree degenerates to the uniform one. The floor is on that
aggregate only: a per-rank measure such as the tuner's ``W_total`` can
still be worse under the chosen irregular tree (see EXPERIMENTS.md).

Every tree this module emits satisfies the same invariants as the
uniform path (pinned by ``tests/test_blocking.py``): blocks are
contiguous in the permutation and cover ``[0, n)``, no block exceeds the
effective cap, and the scalar elimination tree maps into the block tree
(ancestor consistency).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ordering.nested_dissection import DissectionTree, cap_chunks, \
    merge_into_parents, split_chains
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern
from repro.utils.validation import check_positive_int

__all__ = ["irregular_blocking"]

#: A vertex is a discontinuity when its degree is at least ``SNAP_RATIO``
#: times its node's median degree and at least ``SNAP_MIN_DEGREE``: 4x
#: covers circuit via-rows and arrowhead borders without tripping on mesh
#: corner vertices, and the floor stops tiny leaves (median degree 1-2)
#: from flagging ordinary mesh vertices.
SNAP_RATIO = 4.0
SNAP_MIN_DEGREE = 8
#: Maximum Jaccard *dissimilarity* of two blocks' future-row sets accepted
#: when amalgamating (0 = only structurally identical panels, 1 = anything
#: that fits); a child under ``AMALG_SMALL`` vertices gets ``TINY_BUDGET``.
RELAX_BUDGET = 0.1
TINY_BUDGET = 0.5
AMALG_SMALL = 8


def _snap_chunks(vertices: np.ndarray, deg: np.ndarray,
                 cap: int | None) -> list[np.ndarray]:
    """Chunk one node's vertices with dense-row boundary snapping.

    When the node contains a degree discontinuity, its vertices are
    stably sorted by ascending degree and cut exactly at the first dense
    vertex; both segments are then capped-chunked. Without a
    discontinuity this is the uniform chunking.
    """
    d = deg[vertices]
    thresh = max(SNAP_RATIO * max(float(np.median(d)), 1.0),
                 float(SNAP_MIN_DEGREE))
    if not (d >= thresh).any():
        return cap_chunks(vertices, cap)
    order = np.argsort(d, kind="stable")
    v_sorted = vertices[order]
    first_dense = int(np.searchsorted(d[order], thresh, side="left"))
    head = cap_chunks(v_sorted[:first_dense], cap) if first_dense else []
    return head + cap_chunks(v_sorted[first_dense:], cap)


def _future_rows(S_perm: sp.csr_matrix, lo: int, hi: int) -> np.ndarray:
    """Sorted unique permuted row ids > ``hi`` adjacent to span [lo, hi)."""
    rows = S_perm.indices[S_perm.indptr[lo]:S_perm.indptr[hi]]
    return np.unique(rows[rows >= hi])


def _amalgamate(tree: DissectionTree, S: sp.csr_matrix,
                cap: int | None) -> DissectionTree:
    """Similarity-gated relaxed-supernode pass (see module docstring).

    Walks blocks in postorder; a parent absorbs its postorder-adjacent
    child (the only merge that keeps blocks contiguous — see
    :mod:`repro.ordering.relaxation`) when the merged block fits the cap
    and the two blocks' future-row patterns agree within the budget.
    """
    S_perm = tree.perm.apply_matrix(S).tocsr()
    S_perm.sort_indices()
    offsets = tree.layout.offsets.tolist()
    parent = tree.parent.tolist()
    nb = tree.nblocks
    # Block k covers node ids [first[k], k]: permuted span
    # [offsets[first[k]], offsets[k + 1]).
    first = list(range(nb))
    absorbed = np.zeros(nb, dtype=bool)

    for p in range(nb):
        while True:
            # The postorder-adjacent candidate ends where p's span begins;
            # it is p's child iff its parent lies in p's ids.
            c = first[p] - 1
            if c < 0 or parent[c] > p:
                break
            lo_c, hi_c = offsets[first[c]], offsets[c + 1]
            lo_p, hi_p = hi_c, offsets[p + 1]
            size_c, size_p = hi_c - lo_c, hi_p - lo_p
            if cap is not None and size_c + size_p > cap:
                break
            rows_c_all = _future_rows(S_perm, lo_c, hi_c)
            rows_p = _future_rows(S_perm, lo_p, hi_p)
            # Future rows of the merged block exclude the parent's span
            # (it stops being "future" once merged).
            rows_c = rows_c_all[rows_c_all >= hi_p]
            union = np.union1d(rows_c, rows_p)
            inter = np.intersect1d(rows_c, rows_p, assume_unique=True)
            dissim = 1.0 - (inter.size / union.size) if union.size else 0.0
            budget = TINY_BUDGET if size_c < AMALG_SMALL else RELAX_BUDGET
            if dissim > budget:
                break
            # Word guard: the dense-block model stores s^2 + 2*s*|rows|
            # words per block (diagonal + L and U panels); a merge whose
            # padding grows that estimate is rejected outright — the
            # similarity gate bounds *relative* mismatch, this bounds the
            # absolute cost. Identical-row merges are exactly neutral.
            s = size_c + size_p
            words = lambda sz, r: sz * sz + 2.0 * sz * r  # noqa: E731
            delta = words(s, union.size) \
                - words(size_c, rows_c_all.size) - words(size_p, rows_p.size)
            if delta > 0:
                break
            absorbed[c] = True
            first[p] = first[c]

    return merge_into_parents(tree, absorbed)


def irregular_blocking(A: sp.spmatrix, tree: DissectionTree,
                       max_block: int | None = None
                       ) -> tuple[DissectionTree, dict]:
    """Derive an irregular blocking of ``A`` from an *uncapped* tree.

    Returns ``(blocked_tree, info)`` where ``info`` records the snap and
    amalgamation activity; no block exceeds ``max_block``. The caller
    (:func:`repro.symbolic.symbolic_factorize`) is responsible for the
    uniform floor — this function only builds the irregular candidate.
    """
    if max_block is not None:
        check_positive_int(max_block, "max_block")
    S = strip_diagonal(symmetrize_pattern(A))
    deg = np.diff(S.indptr).astype(np.int64)
    snapped = 0

    def chunker(vertices: np.ndarray) -> list[np.ndarray]:
        nonlocal snapped
        chunks = _snap_chunks(vertices, deg, max_block)
        uniform = cap_chunks(vertices, max_block)
        if len(chunks) != len(uniform) or any(
                not np.array_equal(c, u) for c, u in zip(chunks, uniform)):
            snapped += 1
        return chunks

    split = split_chains(tree, chunker)
    merged = _amalgamate(split, S, max_block)
    info = {
        "strategy": "irregular",
        "nodes_snapped": snapped,
        "nb_after_split": split.nblocks,
        "nb_after_amalgamation": merged.nblocks,
        "amalgamated": split.nblocks - merged.nblocks,
    }
    return merged, info
