"""`SparseCholesky3D` — solver facade for SPD systems.

Mirrors :class:`repro.solve.SparseLU3D` but factors ``A = L L^T`` and
solves with the two transposed sweeps over the same lower-panel blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from repro.comm.collectives import bcast
from repro.comm.machine import Machine
from repro.lu2d.factor2d import FactorOptions
from repro.solve.driver import _Solver3D
from repro.sparse.generators import GridGeometry

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
    engine fans its per-level grids out to the same worker pool as LU.
    """

    backend = "cholesky"

    def __init__(self, A: sp.spmatrix, geometry: GridGeometry | None = None,
                 px: int = 1, py: int = 1, pz: int = 1, leaf_size: int = 64,
                 machine: Machine | None = None, partition: str = "greedy",
                 options: FactorOptions | None = None, numeric: bool = True,
                 nd_method: str = "bfs", max_block: int | None = 256,
                 relax: int = 0):
        super().__init__(A, geometry, px, py, pz, leaf_size, machine,
                         partition, options, numeric, nd_method, max_block,
                         relax)

    def _checked(self, A: sp.spmatrix) -> sp.spmatrix:
        A = super()._checked(A)
        sym_err = abs(A - A.T).max()
        if sym_err > 1e-10 * max(abs(A).max(), 1e-300):
            raise ValueError("Cholesky requires a symmetric matrix "
                             f"(asymmetry {sym_err:.2e})")
        return A

    def _values(self):
        """The lower triangle of the (permuted) values: the engine factors
        ``tril(A)`` in place."""
        if not self.numeric:
            return None
        values = super()._values()
        return sp.tril(self.sf.A_perm if values is None else values).tocsr()

    # -- solve -----------------------------------------------------------

    def _raw_solve(self, b_perm: np.ndarray) -> np.ndarray:
        return self._backward(self._forward(b_perm))

    def _forward(self, b: np.ndarray) -> np.ndarray:
        """``L y = b`` over the distributed lower panels."""
        sf, sim, L = self.sf, self.sim, self._factor_blocks
        layout = sf.layout
        y = b.copy()
        sim.set_phase("solve")
        for k in range(sf.nb):
            rk = layout.range_of(k)
            s = layout.block_size(k)
            grid = self._grid_of(k)
            diag_owner = grid.owner(k, k)
            y[rk] = la.solve_triangular(L[(k, k)], y[rk], lower=True)
            sim.compute(diag_owner, float(s * s), "solve")
            lp = sf.fill.lpanel[k]
            if len(lp) == 0:
                continue
            bcast(sim, diag_owner, grid.col_ranks(k), float(s))
            for i in lp:
                i = int(i)
                si = layout.block_size(i)
                o = grid.owner(i, k)
                y[layout.range_of(i)] -= L[(i, k)] @ y[rk]
                sim.compute(o, 2.0 * si * s, "solve")
                tgt = self._grid_of(i).owner(i, i)
                sim.send(o, tgt, float(si))
                sim.recv(tgt, o)
                sim.compute(tgt, float(si), "solve")
        return y

    def _backward(self, y: np.ndarray) -> np.ndarray:
        """``L^T x = y``: the forward sweep transposed (panels reused)."""
        sf, sim, L = self.sf, self.sim, self._factor_blocks
        layout = sf.layout
        x = y.copy()
        sim.set_phase("solve")
        for k in range(sf.nb - 1, -1, -1):
            rk = layout.range_of(k)
            s = layout.block_size(k)
            grid = self._grid_of(k)
            diag_owner = grid.owner(k, k)
            for i in sf.fill.lpanel[k]:
                i = int(i)
                si = layout.block_size(i)
                o = grid.owner(i, k)
                x[rk] -= L[(i, k)].T @ x[layout.range_of(i)]
                sim.compute(o, 2.0 * si * s, "solve")
                if o != diag_owner:
                    sim.send(o, diag_owner, float(s))
                    sim.recv(diag_owner, o)
                sim.compute(diag_owner, float(s), "solve")
            x[rk] = la.solve_triangular(L[(k, k)], x[rk], lower=True,
                                        trans="T")
            sim.compute(diag_owner, float(s * s), "solve")
            if len(sf.fill.lpanel[k]):
                bcast(sim, diag_owner, grid.col_ranks(k), float(s))
        return x
