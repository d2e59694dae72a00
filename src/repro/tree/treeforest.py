"""The elimination tree-forest data structure (paper Section III-C).

A :class:`TreeForest` records, for ``Pz = 2^l`` process grids, which block
(supernode) belongs to which forest of which level, and answers the mapping
queries Algorithm 1 needs:

* which grids replicate a given forest / node,
* which node list a given grid factors at a given level (its *local*
  elimination tree-forest),
* which grid is a node's *home* (the grid whose replica is initialized with
  the values of ``A`` and that eventually factors the node).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.utils import check_power_of_two

__all__ = ["TreeForest"]


class TreeForest:
    """Partition of a block etree into ``l+1`` levels of forests.

    Parameters
    ----------
    pz:
        Number of 2D process grids (``2^l``).
    forests:
        Mapping ``(level q, forest index b) -> list of block ids``, with
        ``q in [0, l]``, ``b in [0, 2^q)``. Node lists are bottom-up
        (ascending postorder id). Forests may be empty (an extremely
        unbalanced tree can starve a branch), but every key must exist.
    parent:
        Block-etree parent array (used for validation).
    """

    def __init__(self, pz: int, forests: dict[tuple[int, int], list[int]],
                 parent: np.ndarray):
        self.pz = check_power_of_two(pz, "pz")
        self.l = int(np.log2(self.pz))
        self.parent = np.asarray(parent, dtype=np.int64)
        nb = self.parent.shape[0]
        self.forests = {k: list(v) for k, v in forests.items()}

        expected = {(q, b) for q in range(self.l + 1) for b in range(2 ** q)}
        if set(self.forests.keys()) != expected:
            raise ValueError("forests must contain every (level, index) key")

        # Every node id in key order, with its forest's (level, index); an
        # error names the first offender in that order.
        ids = np.fromiter(chain.from_iterable(self.forests.values()),
                          dtype=np.int64)
        keys = np.repeat(np.asarray(list(self.forests), dtype=np.int64),
                         list(map(len, self.forests.values())), axis=0)
        out = (ids < 0) | (ids >= nb)
        if out.any():
            raise ValueError(f"node id {ids[out.argmax()]} out of range "
                             f"[0, {nb})")
        seen = np.zeros(ids.size, dtype=bool)
        seen[np.unique(ids, return_index=True)[1]] = True
        if not seen.all():
            raise ValueError(f"node {ids[seen.argmin()]} assigned to two "
                             "forests")
        self.node_level, self.node_forest = np.full((2, nb), -1, np.int64)
        self.node_level[ids], self.node_forest[ids] = keys.T
        if (self.node_level == -1).any():
            missing = np.flatnonzero(self.node_level == -1)
            raise ValueError(f"nodes {missing.tolist()} not assigned to any forest")
        self._validate_ancestor_consistency()

    # -- validation --------------------------------------------------------

    def _validate_ancestor_consistency(self) -> None:
        """A node's parent must live in the same forest or an ancestor forest.

        Precisely: parent is at level ``q' <= q``, and its forest index is
        the prefix ``b >> (q - q')``. This is what makes the replication
        domains nested, which Algorithm 1's pairwise reduction requires.
        """
        v = np.flatnonzero(self.parent != -1)
        p = self.parent[v]
        q, b = self.node_level[v], self.node_forest[v]
        qp, bp = self.node_level[p], self.node_forest[p]
        bad = (qp > q) | (bp != b >> np.maximum(q - qp, 0))
        if bad.any():
            e = bad.argmax()
            raise ValueError(
                f"parent {p[e]} (level {qp[e]}, forest {bp[e]}) inconsistent "
                f"with child {v[e]} (level {q[e]}, forest {b[e]})")

    # -- grid mapping (the queries Algorithm 1 performs) --------------------

    def grids_of_forest(self, q: int, b: int) -> range:
        """Grids replicating forest ``(q, b)``: a contiguous range of 2^{l-q}."""
        width = 2 ** (self.l - q)
        return range(b * width, (b + 1) * width)

    def grids_of_node(self, v: int) -> range:
        return self.grids_of_forest(int(self.node_level[v]),
                                    int(self.node_forest[v]))

    def home_grid(self, v: int) -> int:
        """The lowest grid replicating ``v`` — initializes A-values, factors it."""
        return self.grids_of_node(v).start

    def forest_of_grid(self, g: int, q: int) -> list[int]:
        """Node list grid ``g`` works on at level ``q`` (may be empty)."""
        if not 0 <= g < self.pz:
            raise ValueError(f"grid {g} out of range for pz={self.pz}")
        return self.forests[(q, g >> (self.l - q))]

    def local_forest(self, g: int) -> list[list[int]]:
        """Grid ``g``'s local elimination tree-forest: one node list per level.

        ``local_forest(g)[q]`` is what ``dSparseLU2D`` factors at level ``q``
        — the paper's example: grid-0 gets ``[S, C1]``, grid-1 ``[S, C2]``.
        """
        return [self.forest_of_grid(g, q) for q in range(self.l + 1)]

    def nodes_at_level(self, q: int) -> list[int]:
        """All nodes across all forests of level ``q``."""
        out: list[int] = []
        for b in range(2 ** q):
            out.extend(self.forests[(q, b)])
        return out

    def replication_factor(self) -> float:
        """Average number of grids holding each node (memory blow-up proxy)."""
        total = sum(len(self.grids_of_forest(q, b)) * len(nodes)
                    for (q, b), nodes in self.forests.items())
        nnodes = self.parent.shape[0]
        return total / max(nnodes, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {q: sum(len(self.forests[(q, b)]) for b in range(2 ** q))
                 for q in range(self.l + 1)}
        return f"TreeForest(pz={self.pz}, level_sizes={sizes})"
