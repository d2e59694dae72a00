"""Solve phase: distributed triangular solves, refinement, and the facade.

After factorization the solver performs ``Ly = b`` (forward) and ``Ux = y``
(backward) block substitutions over the same distribution the factors live
in, then — because the factorization used static pivoting — applies
iterative refinement to restore backward stability (Section II-E /
SuperLU_DIST's GESP strategy).

:class:`repro.solve.SparseLU3D` is the top-level public API: construct with
a matrix and a process-grid shape, ``factorize()``, ``solve(b)``, and read
the metrics.
"""

from repro.solve.condest import condest, inverse_norm_est
from repro.solve.driver import SparseLU3D
from repro.solve.equilibrate import Equilibration, equilibrate
from repro.solve.refine import RefinementResult, iterative_refinement
from repro.solve.triangular import backward_solve, forward_solve, \
    lower_transposed_solve, transposed_solve

__all__ = [
    "Equilibration",
    "RefinementResult",
    "SparseLU3D",
    "backward_solve",
    "condest",
    "equilibrate",
    "forward_solve",
    "inverse_norm_est",
    "iterative_refinement",
    "lower_transposed_solve",
    "transposed_solve",
]
