"""Relaxed supernodes: amalgamating small blocks (SuperLU's ``relax``).

Dissection leaves and thin separator chunks can be very small blocks;
every block costs messages (latency) and per-update overhead. SuperLU
amalgamates small supernodes into their parents ("relaxed supernodes"),
accepting a little extra explicit fill for fewer, fatter blocks.

Contiguity is the constraint: a node's vertices must remain one
contiguous run of the postorder permutation. A parent ``p`` can therefore
only absorb the node at postorder id ``p-1``, then ``p-2``, and so on —
a growing contiguous span ending at ``p`` — and each absorbed id must
currently be one of ``p``'s children (which it is exactly when it was a
child of ``p`` or of an already-absorbed node). Merging moves vertices
*up* the tree only, so the ancestor-closure property of the block fill is
preserved (possibly with extra fill, never missing blocks).
"""

from __future__ import annotations

import numpy as np

from repro.ordering.nested_dissection import DissectionNode, DissectionTree
from repro.utils import check_positive_int

__all__ = ["relax_supernodes"]


def relax_supernodes(tree: DissectionTree, min_size: int = 16,
                     max_block: int = 256) -> DissectionTree:
    """Return a tree where blocks smaller than ``min_size`` are absorbed.

    Walking nodes in postorder, each node absorbs its postorder-adjacent
    children while they are smaller than ``min_size`` and the merged block
    stays within ``max_block``. Survivors are renumbered in postorder.
    """
    min_size = check_positive_int(min_size, "min_size")
    max_block = check_positive_int(max_block, "max_block")
    nb = tree.nblocks

    vertices: list[np.ndarray] = [node.vertices for node in tree.nodes]
    child_sets: list[set[int]] = [set(node.children) for node in tree.nodes]
    absorbed = np.zeros(nb, dtype=bool)

    for p in range(nb):
        span_lo = p  # vertices[p] currently covers postorder ids [span_lo, p]
        while True:
            c = span_lo - 1
            if c < 0 or c not in child_sets[p] or absorbed[c]:
                break
            if vertices[c].shape[0] >= min_size:
                break
            if vertices[c].shape[0] + vertices[p].shape[0] > max_block:
                break
            vertices[p] = np.concatenate([vertices[c], vertices[p]])
            child_sets[p].discard(c)
            child_sets[p].update(child_sets[c])
            child_sets[c] = set()
            absorbed[c] = True
            span_lo = c

    survivors = [v for v in range(nb) if not absorbed[v]]
    new_id = {old: i for i, old in enumerate(survivors)}
    nodes = [DissectionNode(vertices[old],
                            sorted(new_id[c] for c in child_sets[old]),
                            node_id=new_id[old])
             for old in survivors]
    return DissectionTree(nodes, tree.n)    # assigns the new depths
