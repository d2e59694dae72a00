"""Per-pair cost arrays of a supernode's Schur update: the booking source.

A supernode's Schur update touches one destination block per (i, j) panel
pair. The numeric bodies (:mod:`repro.plan.backends`) run one small GEMM
per pair; the *ledger* side is booked from the arrays built here — every
pair's owner rank and flop count, in the numeric loop's row-major order —
through one :meth:`repro.comm.Simulator.compute_batch` call, which replays
per-event booking bit for bit. The plan compiler
(:mod:`repro.plan.compile`) concatenates the same arrays across a fused
run, so fused and unfused execution read one cost definition.
"""

from __future__ import annotations

import numpy as np

from repro.comm.grid import ProcessGrid2D

__all__ = ["schur_pair_costs", "syrk_pair_costs"]


def schur_pair_costs(k: int, lp, up, sizes: np.ndarray, grid: ProcessGrid2D
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(owners, flops)`` of supernode ``k``'s LU Schur update, one entry
    per (i, j) block pair in row-major (L panel outer, U panel inner)
    order. Empty arrays when either panel is empty."""
    lp = np.asarray(lp, dtype=np.int64)
    up = np.asarray(up, dtype=np.int64)
    if lp.size == 0 or up.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    s = int(sizes[k])
    # Association order of the scalar ``2.0 * si * s * sj``, so the booked
    # per-pair flops are bit-identical to a per-pair loop's.
    flops = (2.0 * sizes[lp])[:, None] * s * sizes[up][None, :]
    return grid.owner_map(lp, up).ravel(), flops.ravel()


def syrk_pair_costs(k: int, lp, sizes: np.ndarray, grid: ProcessGrid2D
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky analogue of :func:`schur_pair_costs`: lower-triangle
    (i, j) pairs of the L panel in row-major order, SYRK cost on the
    diagonal tiles and GEMM cost below."""
    lp = np.asarray(lp, dtype=np.int64)
    if lp.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    s = int(sizes[k])
    sl = sizes[lp]
    ii, jj = np.tril_indices(lp.size)  # row-major: the numeric loop's order
    si, sj = sl[ii], sl[jj]
    flops = 2.0 * si * s * sj
    diag = ii == jj
    flops[diag] = si[diag] * s * sj[diag]
    return grid.owner_map(lp, lp)[ii, jj], flops
