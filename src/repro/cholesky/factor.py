"""Right-looking supernodal Cholesky: Algorithm 1 with the Cholesky backend.

Per supernode ``k`` (lower triangle only):

1. diagonal: ``L_kk = chol(A_kk)`` at the diagonal owner;
2. ``L_kk`` broadcast down the process column (panel owners live there);
3. panel solve ``L_ik = A_ik L_kk^{-T}`` at each panel-block owner;
4. panel broadcast: ``L_ik`` along its process *row* (left operand of the
   updates in block row i) and along process *column* ``i`` (as the
   transposed right operand of the updates in block column i) — the same
   two-communicator pattern ScaLAPACK's ``pdpotrf`` uses;
5. symmetric Schur update: ``A_ij -= L_ik L_jk^T`` for panel pairs with
   ``i >= j`` (SYRK on the diagonal, GEMM below it).

Since the :mod:`repro.plan` refactor these five steps live in the
``cholesky`` kernel backend (:class:`repro.plan.backends.CholeskyBackend`)
and this module is a thin wrapper: the plan builder and interpreter are
the exact ones the LU drivers use, which is the point — the schedule
(lookahead pipeline, Algorithm 1 levels, ancestor reduction) is
variant-independent and now shared rather than duplicated.
"""

from __future__ import annotations

from repro.comm.grid import ProcessGrid3D
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.lu3d.factor3d import Factor3DResult, factor_3d
from repro.plan.backends import cholesky_node_blocks
from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest

__all__ = ["cholesky_node_blocks", "factor_chol_3d"]


def factor_chol_3d(sf: SymbolicFactorization, tf: TreeForest,
                   grid3: ProcessGrid3D, sim: Simulator, numeric: bool = True,
                   options: FactorOptions | None = None,
                   charge_storage: bool = True, matrix=None,
                   cached=None, replicas=None) -> Factor3DResult:
    """Algorithm 1 with the Cholesky kernel backend plugged in.

    In numeric mode the SYRK update of an ``i == j`` diagonal block also
    writes its (unreferenced) strict upper triangle; correctness tests
    compare ``tril(L) tril(L)^T`` against ``A``.

    ``matrix`` overrides ``sf.A_perm`` as the value source (the backend
    binds its lower triangle); ``cached`` / ``replicas`` replay a
    previous run's plan bundle and replica storage, as in
    :func:`repro.lu3d.factor_3d`.
    """
    return factor_3d(sf, tf, grid3, sim, numeric=numeric, options=options,
                     charge_storage=charge_storage, backend="cholesky",
                     matrix=matrix, cached=cached, replicas=replicas)
