"""The dict-based binders the extents table replaced, kept as referees.

``factor_program`` binds a grid plan the way ``KernelBackend.bind`` did
before the extents table (``repro.lu2d.storage.extents``): it looks every
operand up in a ``(i, j) -> block`` mapping, slices each L block to its
structural rows per op and binds every U-side op at full width.
``solve_program`` is the same for ``repro.solve.triangular.bind``. The
table-bound programs must be these op for op, except that a ranged op
(a U-side TRSM / GEMM on its U block's columns) is a column slice of the
op here.
"""

from __future__ import annotations

import numpy as np

from repro.lu2d.kernels import GETRF, gemm_op, panel_factor_op, trsm_op
from repro.lu2d.storage import extents, node_block_arrays
from repro.plan.arrays import PANEL_FACTOR, SCHUR_UPDATE
from repro.plan.backends import get_backend
from repro.plan.solve import UPDATE


def block_rows(sf, blocks_fn=None) -> dict:
    """``(i, j) -> slice(r0, r1)``: the rows of each block that can be
    nonzero."""
    _ptr, ii, jj, _ww = node_block_arrays(sf, blocks_fn)
    e = extents(sf, blocks_fn)
    return dict(zip(zip(ii.tolist(), jj.tolist()),
                    map(slice, e.r0.tolist(), e.r1.tolist())))


def stored_rows(blk: np.ndarray, own: slice, r: slice | None = None):
    """Rows ``r`` (``None``: ``own``) of a block whose rows ``own`` can be
    nonzero, from ``blk`` at full height or packed."""
    r = own if r is None else r
    lo = own.start if len(blk) == own.stop - own.start else 0
    return blk[r.start - lo:r.stop - lo]


def gemm_ops(Cs, As, Bs, trans_b=False, trans_a=False) -> list:
    return [gemm_op(C, A, B, trans_b, trans_a) for row, A in zip(Cs, As)
            for C, B in zip(row, Bs)]


def factor_program(backend: str, arrays, store, sf, panel=None) -> list:
    """Grid plan ``arrays``' program on mapping ``store``, bound per op."""
    be = get_backend(backend)
    rows = block_rows(sf, be.node_blocks)
    lp, up = sf.fill.lpanel, sf.fill.upanel
    prog: list = []
    for kind, k, i, j in zip(arrays.kind.tolist(), arrays.node.tolist(),
                             arrays.bi.tolist(), arrays.bj.tolist()):
        if kind == SCHUR_UPDATE and backend == "lu":
            L = [(i, rows[(i, k)]) for i in lp[k].tolist()]
            prog += gemm_ops(
                [[stored_rows(store[(i, j)], rows[(i, j)], r)
                  for j in up[k].tolist()] for i, r in L],
                [stored_rows(store[(i, k)], r) for i, r in L],
                [store[(k, j)] for j in up[k].tolist()])
        elif kind == SCHUR_UPDATE:      # Cholesky: a full-height arena
            low = lp[k].tolist()
            L = [(i, rows[(i, k)]) for i in low]
            prog += [op for a, (i, r) in enumerate(L) for op in gemm_ops(
                [[store[(i, j)][r] for j in low[:a + 1]]],
                [store[(i, k)][r]], [store[(j, k)] for j in low[:a + 1]],
                trans_b=True)]
        elif kind == PANEL_FACTOR and panel and be.pack:
            prog.append((GETRF, panel(k), (), None, None))
        elif kind == PANEL_FACTOR:
            prog.append(panel_factor_op(
                be.factor_op, store[(k, k)],
                [stored_rows(store[(i, k)], rows[(i, k)])
                 for i in lp[k].tolist()], **be.l_solve))
        elif i == k:
            prog.append(trsm_op(store[(k, k)], store[(k, j)], side="L",
                                lower=True, unit=True))
    return prog


def solve_program(plan, sf, blocks, work, unit: bool) -> list:
    """Sweep ``plan``'s program on mapping ``blocks``, bound per op."""
    lower, trans = plan.lower, plan.down != plan.lower
    rows = block_rows(sf) if lower else None
    prog = []
    for kind, i, j, t0, t1, s0, s1 in plan.steps.tolist():
        A = blocks[i, j]
        if kind != UPDATE:
            prog.append(trsm_op(A, work[t0:t1], lower=lower, trans=trans,
                                unit=unit))
            continue
        if lower:
            r = rows[i, j]
            A = stored_rows(A, r)
            if trans:
                s0, s1 = s0 + r.start, s0 + r.stop
            else:
                t0, t1 = t0 + r.start, t0 + r.stop
        prog.append(gemm_op(work[t0:t1], A, work[s0:s1], trans_a=trans))
    return prog
