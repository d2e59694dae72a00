"""Per-pair cost arrays of supernodal Schur updates: the booking source.

A supernode's Schur update touches one destination block per (i, j) panel
pair. The numeric bodies (:mod:`repro.plan.backends`) run one small GEMM
per pair; the *ledger* side is booked from the arrays built here — every
pair's owner rank and flop count, in the numeric loop's row-major order —
which the plan lays into its event stream as the Schur task's events
(:mod:`repro.plan.arrays`). :func:`schur_pairs` / :func:`syrk_pairs` emit
the arrays of a whole node list at once: what the plan builder stores per
grid plan, so a run of Schur tasks is one contiguous slice.
"""

from __future__ import annotations

import numpy as np

from repro.comm.grid import ProcessGrid2D
from repro.utils.ragged import ragged

__all__ = ["schur_pairs", "syrk_pairs"]


def schur_pairs(s, lstart, nl, lp_idx, ustart, nu, up_idx, sizes: np.ndarray,
                grid: ProcessGrid2D
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, owners, flops)`` of the LU Schur updates of a node list.

    Node ``g`` has size ``s[g]``, L panel ``lp_idx[lstart[g]:][:nl[g]]`` and
    U panel ``up_idx[ustart[g]:][:nu[g]]``; its ``counts[g] = nl[g] * nu[g]``
    pairs follow in row-major (L panel outer, U panel inner) order.
    """
    counts = nl * nu
    g, w = ragged(counts)
    i = lp_idx[lstart[g] + w // nu[g]]
    j = up_idx[ustart[g] + w % nu[g]]
    # Association order of the scalar ``2.0 * si * s * sj``, so the booked
    # per-pair flops are bit-identical to a per-pair loop's.
    flops = 2.0 * sizes[i] * s[g] * sizes[j]
    return counts, grid.owner_pairs(i, j), flops


def syrk_pairs(s, lstart, nl, lp_idx, sizes: np.ndarray, grid: ProcessGrid2D
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cholesky analogue of :func:`schur_pairs`: node ``g``'s
    ``nl[g] * (nl[g] + 1) / 2`` lower-triangle (i, j) pairs of its L panel
    in row-major order, SYRK cost on the diagonal tiles, GEMM cost below."""
    g_row, a = ragged(nl)          # every (node, panel row a)
    r, b = ragged(a + 1)           # ... and its columns b <= a
    g, a = g_row[r], a[r]
    i = lp_idx[lstart[g] + a]
    j = lp_idx[lstart[g] + b]
    si, sj, sk = sizes[i], sizes[j], s[g]
    flops = 2.0 * si * sk * sj
    diag = a == b
    flops[diag] = si[diag] * sk[diag] * sj[diag]
    return nl * (nl + 1) // 2, grid.owner_pairs(i, j), flops
