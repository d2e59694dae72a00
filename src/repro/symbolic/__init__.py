"""Symbolic factorization: elimination trees, block fill, per-node costs.

The symbolic phase runs once per matrix and feeds everything downstream:

* :mod:`repro.symbolic.etree` — the classic scalar elimination tree (Liu's
  algorithm), used for validation and general tooling;
* :mod:`repro.symbolic.blocking` — structure-aware irregular supernode
  boundaries (dense-row boundary snapping + similarity-gated amalgamation,
  floored by the uniform blocking), selected via
  ``FactorOptions.blocking='irregular'``;
* :mod:`repro.symbolic.fill` — block (supernodal) symbolic elimination on
  the dissection tree's quotient graph, producing the filled block pattern
  L/U panels;
* :mod:`repro.symbolic.symbolic_factor` — the :class:`SymbolicFactorization`
  product: layout, permutation, block etree, panel structures, and the
  per-node flop/word costs that drive both the simulator and the paper's
  load-balance heuristic (Section III-C).
"""

from repro.symbolic.blocking import irregular_blocking
from repro.symbolic.blocknnz import BlockNnzTables, block_nnz_tables
from repro.symbolic.etree import elimination_tree, etree_heights, postorder
from repro.symbolic.fill import block_fill
from repro.symbolic.symbolic_factor import (
    NodeCosts,
    SymbolicFactorization,
    symbolic_factorize,
)

__all__ = [
    "BlockNnzTables",
    "NodeCosts",
    "SymbolicFactorization",
    "block_fill",
    "block_nnz_tables",
    "elimination_tree",
    "etree_heights",
    "irregular_blocking",
    "postorder",
    "symbolic_factorize",
]
