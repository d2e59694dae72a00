"""Distributed block triangular solves over the factor distribution.

Segment ``x_k`` of the solution lives with the diagonal-block owner of
supernode ``k`` on its home grid. A *downward* sweep (ascending nodes)
serves a lower operator (``L``, or ``U^T`` over the U panels), an *upward*
one ``U`` or ``L^T``: each solved segment is broadcast to its panel's
owners, which send their partial products to the target segment's diagonal
owner — SuperLU_DIST's ``pdgstrs`` pattern.

A sweep is a :class:`repro.plan.solve.SolvePlan`; :func:`bind` makes it a
kernel program over a work buffer, :func:`run` executes it with the
factorization's one executor (:func:`repro.lu2d.kernels.execute`) and
books its stream in one :meth:`repro.comm.Simulator.book`. The facades
bind once per factor arena and ``nrhs``; the public sweeps build their
plan from ``grid_of`` (supernode -> its 2D layer) and bind on every call.
``blocks`` maps ``(i, j)`` to factors computed on ``sf``; ``unit``: ``L``
has a unit diagonal (LU), not a Cholesky ``L``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.comm.events import PHASE_SOLVE
from repro.comm.simulator import Simulator
from repro.lu2d.kernels import GEMM, TRSM, execute, gemm_op, trsm_op
from repro.lu2d.storage import block_views, extents
from repro.plan.solve import UPDATE, SolvePlan, build_solve_plan
from repro.symbolic.symbolic_factor import SymbolicFactorization

__all__ = ["forward_solve", "backward_solve", "transposed_solve",
           "lower_transposed_solve", "sweep", "bind", "run"]


def bind(plan: SolvePlan, sf: SymbolicFactorization, blocks,
         work: np.ndarray, unit: bool) -> list:
    """``plan``'s kernel program on ``work`` (C-ordered ``(n, nrhs)``
    float64, solved in place), op ``t`` = task ``t``: ``trsm_op`` per
    diag-solve, ``gemm_op`` per update, each block taken by id from
    ``blocks``' :func:`~repro.lu2d.storage.block_views` on its structural
    rows: an L block's target rows shrink for ``L``, its source rows for
    ``L^T``."""
    V = blocks if isinstance(blocks, SimpleNamespace) else \
        block_views(sf, blocks)
    lower, trans, e = plan.lower, plan.down != plan.lower, extents(sf, V.fn)
    kind, i, j, t0, t1, s0, s1 = plan.steps.T
    b = e.order[np.searchsorted(e.keys, i * sf.nb + j)]
    if lower and trans:
        s0, s1 = s0 + e.r0[b], s0 + e.r1[b]
    elif lower:
        t0, t1 = t0 + e.r0[b], t0 + e.r1[b]
    tf = trsm_op(work, work, lower=lower, trans=trans, unit=unit)[4]  # flags
    gf = gemm_op(work, work, work, trans_a=trans)[4]
    return [(GEMM, work[a:c].T, work[d:f].T, A, gf) if k == UPDATE
            else (TRSM, work[a:c].T, A, None, tf)
            for k, A, a, c, d, f in zip(
                kind.tolist(), map(V.rows.__getitem__, b.tolist()),
                t0.tolist(), t1.tolist(), s0.tolist(), s1.tolist())]


def run(plan: SolvePlan, prog: list, stream, sim: Simulator,
        order=None) -> None:
    """Execute a bound sweep and book its ``stream`` (``plan.stream(nrhs)``);
    ``order``, the fuzzer's hook: run and book task by task in that order."""
    if order is None:
        execute(prog)
    else:
        for t in order:
            execute(prog, t, t + 1)
    sim.set_phase(PHASE_SOLVE)
    if order is None:
        sim.book(stream)
    else:
        for t in order:
            sim.book(stream, plan.ev_ptr[t], plan.ev_ptr[t + 1])


def sweep(plan: SolvePlan, sf: SymbolicFactorization, blocks, b: np.ndarray,
          sim: Simulator, unit: bool, order=None) -> np.ndarray:
    """Bind ``plan`` on a copy of ``b``, :func:`run` it, return the copy."""
    y = np.array(b, dtype=np.float64, order="C")   # contiguous row slices
    work = y.reshape(y.shape[0], -1)
    run(plan, bind(plan, sf, blocks, work, unit), plan.stream(work.shape[1]),
        sim, order)
    return y


def forward_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                  sim: Simulator, grid_of, unit: bool = True) -> np.ndarray:
    """Solve ``L y = b`` (``unit=False``: a Cholesky ``L``). ``b`` and the
    result are in the *permuted* ordering; an ``(n, nrhs)`` ``b`` solves
    all columns in one sweep, communication and flops scaled to match."""
    return sweep(build_solve_plan(sf, grid_of, True, True), sf, blocks, b,
                 sim, unit)


def backward_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                   sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``U x = y`` (upper triangular, packed factors)."""
    return sweep(build_solve_plan(sf, grid_of, False, False), sf, blocks, y,
                 sim, False)


def lower_transposed_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                           sim: Simulator, grid_of, unit: bool = True
                           ) -> np.ndarray:
    """Solve ``L^T x = y`` over the L panels: the second half of
    :func:`transposed_solve`, and (``unit=False``) of the Cholesky solve."""
    return sweep(build_solve_plan(sf, grid_of, False, True), sf, blocks, y,
                 sim, unit)


def transposed_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                     sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``(L U)^T x = b`` with the packed factors (trans='T'):
    ``U^T`` is lower (non-unit), a downward sweep over the U panels;
    ``L^T`` unit upper, an upward sweep over the L panels."""
    y = sweep(build_solve_plan(sf, grid_of, True, False), sf, blocks, b,
              sim, False)
    return lower_transposed_solve(sf, blocks, y, sim, grid_of)
