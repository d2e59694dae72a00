"""Baseline 2D sparse LU: a SuperLU_DIST-like right-looking supernodal solver.

This is the algorithm of Section II-E, reproduced kernel for kernel on the
simulated runtime:

1. *Diagonal factorization* — unpivoted dense LU of the supernode's diagonal
   block with GESP-style perturbation of tiny pivots (SuperLU_DIST's static
   pivoting);
2. *Diagonal broadcast* — ``L_kk`` along the process row, ``U_kk`` along the
   process column;
3. *Panel solve* — triangular solves producing the L and U panels;
4. *Panel broadcast* — L-panel blocks along process rows, U-panel blocks
   along process columns;
5. *Schur-complement update* — one dense GEMM per (i, j) block pair,
   owner-only, booked from the per-pair cost arrays of
   :mod:`repro.lu2d.batched`.

A lookahead window pipelines the panel work of upcoming independent
supernodes with the current Schur update (Section II-F), which is what lets
communication hide behind computation in the simulator's timing model.

The baseline runs as :func:`repro.lu3d.factor_3d` at ``Pz = 1`` (one layer,
no Ancestor-Reduction); this package holds its kernels, options and block
enumerators.
"""

from repro.lu2d.kernels import getrf_nopiv, solve_lower_panel, solve_upper_panel
from repro.lu2d.options import Factor2DResult, FactorOptions

__all__ = [
    "Factor2DResult",
    "FactorOptions",
    "getrf_nopiv",
    "solve_lower_panel",
    "solve_upper_panel",
]
