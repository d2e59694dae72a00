"""Fill-reducing ordering: nested dissection and separator search.

The paper relies on METIS nested dissection; this subpackage supplies a
self-contained replacement with two engines:

* geometric dissection (:func:`repro.ordering.geometric_nd`) for matrices
  with lattice coordinates — optimal `O(sqrt(n))` / `O(n^{2/3})` separators
  for the 2D / 3D model problems the analysis targets, and
* general-graph dissection (:func:`repro.ordering.graph_nd`) using BFS
  level-structure (or Fiedler-vector) bisection for arbitrary symmetric
  patterns.

Both produce a :class:`repro.ordering.nested_dissection.DissectionTree`,
whose postorder defines the supernode blocks and the block elimination tree
consumed by :mod:`repro.symbolic`.
"""

from repro.ordering.minimum_degree import minimum_degree_order, tree_from_order
from repro.ordering.nested_dissection import (
    DissectionTree,
    cap_split,
    geometric_nd,
    graph_nd,
    merge_into_parents,
    nested_dissection,
    split_chains,
)
from repro.ordering.permutation import Permutation
from repro.ordering.relaxation import relax_supernodes
from repro.ordering.separators import (
    bfs_level_separator,
    fiedler_separator,
    repair_separator,
)

__all__ = [
    "DissectionTree",
    "Permutation",
    "bfs_level_separator",
    "cap_split",
    "fiedler_separator",
    "geometric_nd",
    "graph_nd",
    "merge_into_parents",
    "minimum_degree_order",
    "nested_dissection",
    "relax_supernodes",
    "tree_from_order",
    "repair_separator",
    "split_chains",
]
