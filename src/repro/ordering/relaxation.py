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

from repro.ordering.nested_dissection import DissectionTree, merge_into_parents
from repro.utils import check_positive_int

__all__ = ["relax_supernodes"]


def relax_supernodes(tree: DissectionTree, min_size: int = 16,
                     max_block: int = 256) -> DissectionTree:
    """Return a tree where blocks smaller than ``min_size`` are absorbed.

    Walking nodes in postorder, each node absorbs its postorder-adjacent
    children while they are smaller than ``min_size`` and the merged block
    stays within ``max_block``; it stops after absorbing a child that had
    itself absorbed (the node below is then already taken). Survivors are
    renumbered in postorder.
    """
    min_size = check_positive_int(min_size, "min_size")
    max_block = check_positive_int(max_block, "max_block")
    size = tree.sizes.tolist()
    parent = tree.parent.tolist()
    absorbed = np.zeros(tree.nblocks, dtype=bool)
    for p in range(tree.nblocks):
        # p's block covers ids (c, p]: c is its child iff parent[c] <= p.
        c = p - 1
        while (c >= 0 and not absorbed[c] and parent[c] <= p
               and size[c] < min_size and size[c] + size[p] <= max_block):
            size[p] += size[c]
            absorbed[c] = True
            c -= 1
    return merge_into_parents(tree, absorbed)
