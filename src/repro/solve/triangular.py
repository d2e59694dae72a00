"""Distributed block triangular solves over the factor distribution.

The solution vector is distributed by block row: segment ``x_k`` lives with
the diagonal-block owner of supernode ``k`` on ``k``'s home grid. The
forward sweep follows ascending supernodes (a column sweep of L): after
``y_k`` is computed it is broadcast down ``k``'s process column, each
L-panel owner forms its partial product, and sends it to the target
segment's diagonal owner for accumulation — the same communication pattern
SuperLU_DIST's ``pdgstrs`` uses, here emitted as simulator events.

``blocks`` may be any mapping ``(i, j) -> ndarray`` (a plain
:class:`BlockMatrix` for 2D runs, a :class:`HomeView` for 3D runs). The
``grid_of`` callable maps a supernode to the 2D layer it lives on (constant
for 2D; ``layer(home_grid(k))`` for 3D).

There are two loops: a *downward* sweep (ascending ``k``) for a lower
operator — ``L``, or ``U^T`` over the U panels read transposed — and an
*upward* one for ``U`` or ``L^T``. ``unit`` is the diagonal kind of ``L``:
unit for packed LU factors, non-unit for a Cholesky ``L`` — the only
difference between the two variants' solves. Every diagonal solve
overwrites its segment of the work vector (:func:`repro.lu2d.kernels.trsm`).
"""

from __future__ import annotations

import numpy as np

from repro.comm.collectives import bcast
from repro.comm.simulator import Simulator
from repro.lu2d.kernels import trsm
from repro.symbolic.symbolic_factor import SymbolicFactorization

__all__ = ["forward_solve", "backward_solve", "transposed_solve",
           "lower_transposed_solve"]


def _work_copy(b: np.ndarray) -> tuple[np.ndarray, int]:
    """A C-ordered float64 copy of ``b`` (so every block-row segment is a
    contiguous slice :func:`trsm` overwrites) and its column count."""
    y = np.array(b, dtype=np.float64, order="C")
    return y, 1 if y.ndim == 1 else y.shape[1]


def _sweep_down(sf, blocks, b, sim, grid_of, lower: bool, unit: bool):
    """Forward substitution with ``L`` (``lower``) or with ``U^T``.

    After ``y_k`` is solved it is broadcast to the owners of node ``k``'s
    off-diagonal panel (down its process column for ``L``, along its
    process row for ``U^T``); each forms its partial product and sends it
    to the target segment's diagonal owner.
    """
    layout = sf.layout
    y, nrhs = _work_copy(b)
    sim.set_phase("solve")
    for k in range(sf.nb):
        rk = layout.range_of(k)
        s = layout.block_size(k)
        grid = grid_of(k)
        diag_owner = grid.owner(k, k)
        trsm(blocks[(k, k)], y[rk], lower=lower, trans=not lower, unit=unit)
        sim.compute(diag_owner, float(s * s * nrhs), "solve")
        panel = sf.fill.lpanel[k] if lower else sf.fill.upanel[k]
        if len(panel):
            bcast(sim, diag_owner,
                  grid.col_ranks(k) if lower else grid.row_ranks(k),
                  float(s * nrhs))
        for i in panel:
            i = int(i)
            si = layout.block_size(i)
            key = (i, k) if lower else (k, i)
            o, blk = grid.owner(*key), blocks[key]
            y[layout.range_of(i)] -= (blk if lower else blk.T) @ y[rk]
            sim.compute(o, 2.0 * si * s * nrhs, "solve")
            # Partial result travels to the target segment's diagonal owner.
            tgt = grid_of(i).owner(i, i)
            sim.send(o, tgt, float(si * nrhs))
            sim.recv(tgt, o)
            sim.compute(tgt, float(si * nrhs), "solve")
    return y


def _sweep_up(sf, blocks, y, sim, grid_of, lower: bool, unit: bool):
    """Backward substitution with ``L^T`` (``lower``: the L panels read
    transposed) or with ``U``.

    Descending order guarantees every ``x_i`` node ``k`` needs (``i > k``)
    was solved and broadcast before; panel owners send their partial
    products to ``k``'s diagonal owner, which then solves ``x_k``.
    """
    layout = sf.layout
    x, nrhs = _work_copy(y)
    sim.set_phase("solve")
    for k in range(sf.nb - 1, -1, -1):
        rk = layout.range_of(k)
        s = layout.block_size(k)
        grid = grid_of(k)
        diag_owner = grid.owner(k, k)
        panel = sf.fill.lpanel[k] if lower else sf.fill.upanel[k]
        for i in panel:
            i = int(i)
            si = layout.block_size(i)
            key = (i, k) if lower else (k, i)
            o, blk = grid.owner(*key), blocks[key]
            x[rk] -= (blk.T if lower else blk) @ x[layout.range_of(i)]
            sim.compute(o, 2.0 * s * si * nrhs, "solve")
            if o != diag_owner:
                sim.send(o, diag_owner, float(s * nrhs))
                sim.recv(diag_owner, o)
            sim.compute(diag_owner, float(s * nrhs), "solve")
        trsm(blocks[(k, k)], x[rk], lower=lower, trans=lower, unit=unit)
        sim.compute(diag_owner, float(s * s * nrhs), "solve")
        if len(panel):
            # x_k feeds the panel owners in process column k of their grids.
            bcast(sim, diag_owner, grid.col_ranks(k), float(s * nrhs))
    return x


def forward_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                  sim: Simulator, grid_of, unit: bool = True) -> np.ndarray:
    """Solve ``L y = b`` (lower triangular; ``unit`` diagonal for packed LU
    factors, ``unit=False`` for a Cholesky ``L``).

    ``b`` is in the *permuted* ordering; the result ``y`` likewise. A 2-D
    ``b`` of shape ``(n, nrhs)`` solves all columns in one sweep, with
    communication and flops scaled accordingly.
    """
    return _sweep_down(sf, blocks, b, sim, grid_of, lower=True, unit=unit)


def backward_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                   sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``U x = y`` (upper triangular, packed factors)."""
    return _sweep_up(sf, blocks, y, sim, grid_of, lower=False, unit=False)


def lower_transposed_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                           sim: Simulator, grid_of, unit: bool = True
                           ) -> np.ndarray:
    """Solve ``L^T x = y`` over the L panels: the second half of
    :func:`transposed_solve`, and (``unit=False``) of the Cholesky solve."""
    return _sweep_up(sf, blocks, y, sim, grid_of, lower=True, unit=unit)


def transposed_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                     sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``(L U)^T x = b`` with the packed factors (trans='T').

    ``U^T`` is lower triangular (non-unit): a forward sweep over the U
    panels; ``L^T`` is unit upper: a backward sweep over the L panels.
    Communication is modeled with the same pattern as the plain solves.
    """
    y = _sweep_down(sf, blocks, b, sim, grid_of, lower=False, unit=False)
    return lower_transposed_solve(sf, blocks, y, sim, grid_of)
