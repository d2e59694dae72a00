"""`SparseCholesky3D` — solver facade for SPD systems.

Mirrors :class:`repro.solve.SparseLU3D` but factors ``A = L L^T`` and
solves by walking the two lower-panel solve plans
(:mod:`repro.plan.solve`) with a non-unit diagonal.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.solve.driver import _Solver3D

__all__ = ["SparseCholesky3D"]


class SparseCholesky3D(_Solver3D):
    """Communication-avoiding 3D sparse Cholesky on a simulated grid.

    Same constructor contract as :class:`repro.solve.SparseLU3D` (minus
    ``equil``) and the same analyze / adopt / factorize / refactorize
    pipeline; the input must be symmetric positive definite (mildly
    indefinite diagonals are absorbed by shifted-Cholesky + iterative
    refinement, and reported via ``result.perturbed_pivots``).
    ``options.n_workers`` flows through
    :func:`repro.lu3d.factor3d.factor_3d` unchanged, so the Cholesky
    engine runs its per-level grids on the same host threads as LU.
    """

    backend = "cholesky"
    #: ``L y = b`` then ``L^T x = y``, both over the lower panels.
    sweeps = ((True, True, False), (False, True, False))

    def _checked(self, A: sp.spmatrix) -> sp.spmatrix:
        A = super()._checked(A)
        sym_err = abs(A - A.T).max()
        if sym_err > 1e-10 * max(abs(A).max(), 1e-300):
            raise ValueError("Cholesky requires a symmetric matrix "
                             f"(asymmetry {sym_err:.2e})")
        return A
