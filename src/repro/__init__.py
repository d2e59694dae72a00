"""repro — Communication-avoiding 3D sparse LU factorization.

A from-scratch reproduction of *"A Communication-Avoiding 3D LU
Factorization Algorithm for Sparse Matrices"* (Sao, Li, Vuduc — IPDPS
2018): a SuperLU_DIST-like 2D right-looking supernodal baseline, the
paper's 3D algorithm (elimination tree-forest partition + ancestor
replication + pairwise z-reduction), and a deterministic simulated
distributed runtime that meters per-process communication, memory, and
critical-path time — the quantities the paper's evaluation reports.

Quick start::

    import numpy as np
    from repro import SparseLU3D, grid2d_5pt

    A, geom = grid2d_5pt(64)
    solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=4)
    solver.factorize()
    x = solver.solve(np.ones(A.shape[0]))

See DESIGN.md for the subsystem inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.cholesky import SparseCholesky3D
from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.ordering import Permutation, nested_dissection
from repro.solve import SparseLU3D, iterative_refinement
from repro.sparse import (
    BlockLayout,
    BlockMatrix,
    GridGeometry,
    circuit_like,
    delaunay_mesh_2d,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_27pt,
    grid3d_7pt,
    kkt_like,
    random_symmetric_pattern,
    thin_slab_7pt,
)
from repro.symbolic import SymbolicFactorization, symbolic_factorize
from repro.tree import TreeForest, critical_path_cost, greedy_partition, naive_partition

__version__ = "1.0.0"

__all__ = [
    "BlockLayout",
    "BlockMatrix",
    "FactorOptions",
    "GridGeometry",
    "Machine",
    "Permutation",
    "ProcessGrid2D",
    "ProcessGrid3D",
    "Simulator",
    "SparseCholesky3D",
    "SparseLU3D",
    "SymbolicFactorization",
    "TreeForest",
    "__version__",
    "circuit_like",
    "critical_path_cost",
    "delaunay_mesh_2d",
    "factor_3d",
    "greedy_partition",
    "grid2d_5pt",
    "grid2d_9pt",
    "grid3d_27pt",
    "grid3d_7pt",
    "iterative_refinement",
    "kkt_like",
    "naive_partition",
    "nested_dissection",
    "random_symmetric_pattern",
    "symbolic_factorize",
    "thin_slab_7pt",
]
