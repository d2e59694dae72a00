"""Distributed block triangular solves over the factor distribution.

The solution vector is distributed by block row: segment ``x_k`` lives with
the diagonal-block owner of supernode ``k`` on ``k``'s home grid. A forward
sweep follows ascending supernodes: after ``y_k`` is solved it is broadcast
down ``k``'s process column, each L-panel owner forms its partial product
and sends it to the target segment's diagonal owner for accumulation —
SuperLU_DIST's ``pdgstrs`` pattern. A *downward* sweep serves a lower
operator (``L``, or ``U^T`` over the U panels read transposed), an *upward*
one ``U`` or ``L^T``.

A sweep is a :class:`repro.plan.solve.SolvePlan` and :func:`sweep` walks
it: one numeric loop (:func:`~repro.lu2d.kernels.trsm` /
:func:`~repro.lu2d.kernels.gemm_sub`, in place on the work vector), then
one :meth:`repro.comm.Simulator.book` of the whole stream under phase
``'solve'``. The facades replay the plans memoized on their
:class:`~repro.plan.PlanBundle`; the four public solves build theirs from
``grid_of``, the callable mapping a supernode to its 2D layer. ``blocks``
is any mapping ``(i, j) -> ndarray`` (a :class:`BlockMatrix`, a replica
manager's ``home_view()``); ``unit`` is the diagonal kind of ``L`` (unit for
packed LU factors, not for a Cholesky ``L``) — numerics only.
"""

from __future__ import annotations

import numpy as np

from repro.comm.events import PHASE_SOLVE
from repro.comm.simulator import Simulator
from repro.lu2d.kernels import gemm_sub, trsm
from repro.plan.solve import UPDATE, SolvePlan, build_solve_plan
from repro.symbolic.symbolic_factor import SymbolicFactorization

__all__ = ["forward_solve", "backward_solve", "transposed_solve",
           "lower_transposed_solve", "sweep"]


def sweep(plan: SolvePlan, blocks, b: np.ndarray, sim: Simulator,
          unit: bool, order=None) -> np.ndarray:
    """Walk ``plan`` on a copy of ``b`` and book its events. The operator
    is ``L`` / ``U`` when the sweep direction matches the panel side, the
    transpose otherwise. ``order`` (a legal task order) is the schedule
    fuzzer's hook: the walk follows it and books task by task."""
    y = np.array(b, dtype=np.float64, order="C")   # contiguous row slices
    work = y.reshape(y.shape[0], -1)
    lower, trans = plan.lower, plan.down != plan.lower
    steps = plan.steps if order is None else plan.steps[order]
    for kind, i, j, t0, t1, s0, s1 in steps.tolist():
        if kind == UPDATE:
            gemm_sub(work[t0:t1], blocks[i, j], work[s0:s1], trans_a=trans)
        else:
            trsm(blocks[i, j], work[t0:t1], lower=lower, trans=trans,
                 unit=unit)
    sim.set_phase(PHASE_SOLVE)
    stream = plan.stream(work.shape[1])
    if order is None:
        sim.book(stream)
    else:
        for t in order:
            sim.book(stream, plan.ev_ptr[t], plan.ev_ptr[t + 1])
    return y


def forward_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                  sim: Simulator, grid_of, unit: bool = True) -> np.ndarray:
    """Solve ``L y = b`` (``unit=False``: a Cholesky ``L``). ``b`` and the
    result are in the *permuted* ordering; an ``(n, nrhs)`` ``b`` solves
    all columns in one sweep, communication and flops scaled to match."""
    return sweep(build_solve_plan(sf, grid_of, True, True), blocks, b, sim,
                 unit)


def backward_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                   sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``U x = y`` (upper triangular, packed factors)."""
    return sweep(build_solve_plan(sf, grid_of, False, False), blocks, y, sim,
                 False)


def lower_transposed_solve(sf: SymbolicFactorization, blocks, y: np.ndarray,
                           sim: Simulator, grid_of, unit: bool = True
                           ) -> np.ndarray:
    """Solve ``L^T x = y`` over the L panels: the second half of
    :func:`transposed_solve`, and (``unit=False``) of the Cholesky solve."""
    return sweep(build_solve_plan(sf, grid_of, False, True), blocks, y, sim,
                 unit)


def transposed_solve(sf: SymbolicFactorization, blocks, b: np.ndarray,
                     sim: Simulator, grid_of) -> np.ndarray:
    """Solve ``(L U)^T x = b`` with the packed factors (trans='T'):
    ``U^T`` is lower (non-unit), a downward sweep over the U panels;
    ``L^T`` unit upper, an upward sweep over the L panels."""
    y = sweep(build_solve_plan(sf, grid_of, True, False), blocks, b, sim,
              False)
    return lower_transposed_solve(sf, blocks, y, sim, grid_of)
