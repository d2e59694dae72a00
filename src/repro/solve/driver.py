"""`SparseLU3D` — the library's top-level solver facade.

Wraps the full pipeline: symmetrized-pattern nested dissection → symbolic
factorization → tree-forest partition → 2D/3D numeric factorization on the
simulated process grid → triangular solves with iterative refinement —
while exposing the per-rank ledgers the paper's evaluation is about.

Example
-------
>>> from repro.sparse import grid2d_5pt
>>> from repro.solve import SparseLU3D
>>> import numpy as np
>>> A, geom = grid2d_5pt(16)
>>> solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=4, leaf_size=32)
>>> solver.factorize()                      # doctest: +ELLIPSIS
<repro.solve.driver.SparseLU3D object at ...>
>>> b = np.ones(A.shape[0])
>>> x = solver.solve(b)
>>> float(np.linalg.norm(A @ x - b)) < 1e-8
True
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.comm.grid import ProcessGrid3D
from repro.comm.machine import Machine
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.lu3d.factor3d import Factor3DResult, _factor
from repro.solve.condest import condest
from repro.solve.equilibrate import equilibrate
from repro.solve.refine import RefinementResult, iterative_refinement
from repro.solve.triangular import bind, run
from repro.sparse.generators import GridGeometry
from repro.sparse.pattern import same_structure, symmetrize_pattern
from repro.symbolic.symbolic_factor import SymbolicFactorization, symbolic_factorize
from repro.tree.partition import greedy_partition, naive_partition
from repro.utils import check_rhs, check_square_sparse

__all__ = ["SparseLU3D"]


def outside_pattern(A: sp.csr_matrix, pattern: sp.csr_matrix) -> np.ndarray:
    """Positions in ``A.data`` of ``A``'s stored entries outside
    ``pattern``: where :meth:`_Solver3D.refactorize` refuses a nonzero."""
    ids = sp.csr_matrix((np.arange(1, A.nnz + 1), A.indices, A.indptr),
                        shape=A.shape)
    inside = ids.multiply(pattern).tocsr().data - 1
    return np.setdiff1d(np.arange(A.nnz), inside)


class _Solver3D:
    """What the LU and Cholesky facades share: the constructor, the
    symbolic phase, plan-bundle reuse, (re)factorization, the refined
    solve wrapper and the ledger accessors.

    Subclasses name their kernel ``backend`` and their ``sweeps``.
    """

    #: Kernel backend name handed to :func:`repro.lu3d.factor_3d`.
    backend = "lu"
    #: ``(down, lower, unit)`` of each triangular sweep of a solve, in
    #: order: ``L y = b`` downward over the unit-lower panels, ``U x = y``.
    sweeps = ((True, True, True), (False, False, False))

    def __init__(self, A: sp.spmatrix, geometry: GridGeometry | None = None,
                 px: int = 1, py: int = 1, pz: int = 1, leaf_size: int = 64,
                 machine: Machine | None = None, partition: str = "greedy",
                 options: FactorOptions | None = None, numeric: bool = True,
                 nd_method: str = "bfs", max_block: int | None = 256):
        self.A = self._checked(A)
        self._A_work, self.equ = self._work(self.A)
        self.geometry = geometry
        self.grid = ProcessGrid3D(px, py, pz)
        self.machine = machine or Machine.edison_like()
        self.options = options or FactorOptions()
        self.numeric = numeric
        if partition not in ("greedy", "naive"):
            raise ValueError(f"unknown partition strategy {partition!r}")
        self._partition = partition
        self._leaf_size = leaf_size
        self._nd_method = nd_method
        self._max_block = max_block

        self.sf: SymbolicFactorization | None = None
        self.tf = None
        self.sim: Simulator | None = None
        self.result: Factor3DResult | None = None
        #: Convergence record of the last refined :meth:`solve`.
        self.last_refinement: RefinementResult | None = None
        self._factor_blocks = None
        #: sweeps -> (work, [(plan, program, stream)]) on ``_factor_blocks``.
        self._solves: dict = {}
        #: Pattern the symbolic phase covered (captured at analyze time,
        #: explicitly-stored zeros included) — the containment referee for
        #: :meth:`refactorize`.
        self._pattern: sp.csr_matrix | None = None
        #: ``(matrix, entries)``: memo of :meth:`_outside`.
        self._loose = None
        #: :class:`repro.plan.PlanBundle` of the last factorization —
        #: replayed by repeat factorizations against the same pattern.
        self._bundle = None

    def _checked(self, A: sp.spmatrix) -> sp.spmatrix:
        """Validate an input matrix (subclasses add their own conditions)."""
        return check_square_sparse(A)

    def _work(self, A: sp.spmatrix):
        """``(matrix to factor, Equilibration or None)`` of input ``A``."""
        return A, None

    # -- pipeline ------------------------------------------------------------

    def analyze(self):
        """Run the symbolic phase (ordering + block fill + costs)."""
        self.sf = symbolic_factorize(self._A_work, self.geometry,
                                     leaf_size=self._leaf_size,
                                     method=self._nd_method,
                                     max_block=self._max_block,
                                     blocking=self.options.blocking)
        part = greedy_partition if self._partition == "greedy" else naive_partition
        self.tf = part(self.sf, self.grid.pz)
        self._pattern = symmetrize_pattern(self._A_work, stored=True)
        self._bundle = self._loose = None
        return self

    def adopt(self, sf: SymbolicFactorization, tf, pattern=None, bundle=None):
        """Attach a *shared* symbolic factorization + partition.

        The :mod:`repro.service` entry point: a cache entry's symbolic
        objects (and optionally its plan bundle) are adopted in place of
        running :meth:`analyze`. No solver writes its symbolic objects —
        every factorization passes its values through ``matrix=`` — so any
        number of concurrent solvers can share one entry safely.
        ``pattern`` is the stored-zeros symmetrized pattern the symbolic
        phase covered (computed from the solver's own matrix when omitted).
        """
        self.sf = sf
        self.tf = tf
        self._pattern = pattern if pattern is not None else \
            symmetrize_pattern(self._A_work, stored=True)
        self._bundle, self._loose = bundle, None
        return self

    def _usable_bundle(self):
        """The retained plan bundle iff it matches this run's conditions
        (grid, backend, plan-relevant options, sparsity pattern,
        partition) — else None and the run rebuilds cold."""
        if self._bundle is None:
            return None
        try:
            self._bundle.check(self.grid, self.backend, False, self.options,
                               sf=self.sf, tf=self.tf)
        except ValueError:
            return None
        return self._bundle

    def factorize(self):
        """Numeric (or cost-only) factorization; idempotent symbolic phase.

        Repeat calls (and :meth:`refactorize`) replay the retained plan
        bundle — build/analyze are skipped, ledgers stay
        bit-identical to a cold run.
        """
        if self.sf is None:
            self.analyze()
        return self._factorize(self._A_work)

    def _factorize(self, work):
        """Factor ``work``, in the input ordering: the bundle's value map
        of its structure permutes it into the arena. Values the arena
        refuses raise before the solver changes."""
        sim = Simulator(self.grid.size, self.machine)
        cached = self._usable_bundle()
        replicas = self.result.replicas if cached is not None \
            and self.result is not None else None
        self.result = _factor(self.sf, self.tf, self.grid, sim,
                              numeric=self.numeric, options=self.options,
                              charge_storage=True, matrix=work,
                              backend=self.backend, merged=False,
                              cached=cached, replicas=replicas,
                              perm=self.sf.perm)
        self.sim = sim
        self._bundle = self.result.bundle
        if self.numeric:
            blocks = self.result.replicas.home_view()
            if blocks is not self._factor_blocks:   # a new arena: rebind
                self._factor_blocks, self._solves = blocks, {}
        return self

    def refactorize(self, A_new: sp.spmatrix):
        """Factor a new matrix with the *same sparsity pattern*.

        SuperLU_DIST's ``SamePattern`` option: the ordering, symbolic
        factorization and tree-forest partition are reused (they depend
        only on the pattern), so only the numeric phase reruns — the
        workhorse of implicit time stepping with varying coefficients.

        Raises ``ValueError`` if ``A_new`` has entries outside the
        *analyzed* pattern (the cached symbolic fill would be
        insufficient); a *sub*-pattern is fine, its missing entries are
        simply zero. Explicitly-stored zeros — common in Matrix Market
        files — are immaterial on both sides: a stored zero outside the
        analyzed pattern is no value, and the analyzed pattern keeps the
        ones the symbolic phase covered structurally. The pattern is
        compared symmetrized, so a numeric run may still refuse an entry
        the factors cannot hold (in a block the unsymmetric LU fill lacks):
        the solver then keeps its matrix, symbolic objects and factors.

        Warm path: the plan bundle and replica storage of the previous
        run are replayed — only the numeric kernels re-execute, with
        ledgers bit-identical to a cold ``factorize()``; a matrix with the
        previous one's ``indptr`` / ``indices`` (``SamePattern_SameRowPerm``)
        compares no pattern and reaches the arena by one indexed copy.
        """
        A_new = self._checked(A_new)
        if A_new.shape != self.A.shape:
            raise ValueError(
                f"shape {A_new.shape} differs from original {self.A.shape}")
        work, equ = self._work(A_new)
        if self.sf is None:
            self.A, self._A_work, self.equ = A_new, work, equ
            return self.factorize()
        outside = np.count_nonzero(A_new.data[self._outside(A_new)])
        if outside:
            raise ValueError(
                f"{outside} entries of the new matrix fall outside the "
                "original pattern; run a fresh analyze()+factorize()")
        self._factorize(work)
        self.A, self._A_work, self.equ = A_new, work, equ
        return self

    def _outside(self, A: sp.csr_matrix) -> np.ndarray:
        """:func:`outside_pattern` of ``A``, computed once per structure: a
        same-structure refactorize compares no pattern."""
        if self._loose is None or not same_structure(self._loose[0], A):
            self._loose = A.copy(), outside_pattern(A, self._pattern)
        return self._loose[1]

    def solve_plans(self, sweeps=None) -> list:
        """The bundle's memoized :class:`repro.plan.solve.SolvePlan` of
        each sweep of :meth:`solve` (or of the given sweep shapes)."""
        return [self._bundle.solve_plan(self.sf, self.tf, self.grid, down,
                                        lower)
                for down, lower, _unit in sweeps or self.sweeps]

    def _factored(self, b: np.ndarray, transposed: bool = False
                  ) -> np.ndarray:
        """``x`` of ``A x = b`` (``A^T x = b``) by :attr:`sweeps`
        (:attr:`transposed_sweeps`), bound once per arena and ``nrhs`` over
        one buffer (not re-entrant), between (un)scaling and permuting."""
        d_in, d_out = (None, None) if self.equ is None else \
            (self.equ.row_scale, self.equ.col_scale)[::-1 if transposed else 1]
        y = self.sf.perm.apply_vector(b if d_in is None else (d_in * b.T).T)
        sweeps = self.transposed_sweeps if transposed else self.sweeps
        bound = self._solves.get(sweeps)
        if bound is None or bound[0].size != y.size:
            work = np.empty((y.shape[0], y.size // y.shape[0]))
            bound = self._solves[sweeps] = (work, [
                (plan, bind(plan, self.sf, self._factor_blocks, work, unit),
                 plan.stream(work.shape[1]))
                for plan, (_down, _lower, unit) in zip(
                    self.solve_plans(sweeps), sweeps)])
        work, programs = bound
        work[...] = y.reshape(work.shape)
        for plan, prog, stream in programs:
            run(plan, prog, stream, self.sim)
        x = self.sf.perm.unapply_vector(work.reshape(y.shape))
        x = x if d_out is None else (d_out * x.T).T
        if not np.isfinite(x).all():    # a zero pivot or overflowed factors
            raise np.linalg.LinAlgError(
                "the factors produced a non-finite solution: the matrix is "
                "numerically singular under static pivoting")
        return x

    def _rhs(self, b: np.ndarray, what: str) -> np.ndarray:
        if self._factor_blocks is None:
            raise RuntimeError(
                f"{what} requires factorize() with numeric=True first")
        return check_rhs(b, self.A.shape[0])

    def solve(self, b: np.ndarray, refine: bool = True,
              tol: float = 1e-14) -> np.ndarray:
        """Solve ``A x = b`` using the computed factors.

        Requires a numeric ``factorize()`` first. ``refine`` runs iterative
        refinement against the original matrix (recommended — the
        factorization used static pivoting). ``b`` may be a vector or an
        ``(n, nrhs)`` matrix of right-hand sides, all solved in one sweep.
        """
        b = self._rhs(b, "solve")
        x = self._factored(b)
        if refine:
            res = iterative_refinement(self.A, b, x, self._factored, tol=tol)
            self.last_refinement = res
            return res.x
        self.last_refinement = None
        return x

    # -- evaluation accessors ---------------------------------------------------

    @property
    def makespan(self) -> float:
        """Modeled critical-path factorization time (seconds)."""
        self._require_factored()
        return self.sim.makespan

    def comm_volume(self, phase: str | None = None) -> np.ndarray:
        """Per-rank communication volume in words (Fig. 10's quantity)."""
        self._require_factored()
        return self.sim.words_per_rank(phase)

    @property
    def peak_memory(self) -> np.ndarray:
        """Per-rank peak memory in words (Fig. 11's quantity)."""
        self._require_factored()
        return self.sim.mem_peak

    def _require_factored(self) -> None:
        if self.sim is None:
            raise RuntimeError("call factorize() first")


class SparseLU3D(_Solver3D):
    """Communication-avoiding 3D sparse LU solver on a simulated grid.

    Parameters
    ----------
    A:
        Square sparse matrix.
    geometry:
        Optional lattice geometry (enables geometric nested dissection).
    px, py, pz:
        Process-grid shape; ``pz`` must be a power of two. ``pz=1`` is the
        baseline 2D algorithm.
    leaf_size:
        Supernode granularity of the dissection.
    max_block:
        Cap on supernode size; big separators become chains of blocks
        (SuperLU_DIST's ``maxsup`` analogue).
    machine:
        Cost model for the simulated runtime (default: Edison-like).
    partition:
        ``'greedy'`` (the paper's heuristic) or ``'naive'`` (plain ND split).
    options:
        :class:`repro.lu2d.FactorOptions` — lookahead window, pivot
        threshold, worker count, resilience, blocking.
    numeric:
        ``False`` runs the identical schedule without block arithmetic
        (cost-only mode for large scaling studies); ``solve`` then raises.
    equil:
        Row/column equilibration before factoring (GESP's ``equil`` step);
        recommended for badly scaled matrices.
    """

    #: :meth:`solve_transposed`'s sweeps — ``U^T`` is lower: downward over
    #: the U panels; then ``L^T`` (unit) upward over the L panels.
    transposed_sweeps = ((True, False, False), (False, True, True))

    def __init__(self, A: sp.spmatrix, geometry: GridGeometry | None = None,
                 px: int = 1, py: int = 1, pz: int = 1, leaf_size: int = 64,
                 machine: Machine | None = None, partition: str = "greedy",
                 options: FactorOptions | None = None, numeric: bool = True,
                 nd_method: str = "bfs", max_block: int | None = 256,
                 equil: bool = False):
        self._equil = equil
        super().__init__(A, geometry, px, py, pz, leaf_size, machine,
                         partition, options, numeric, nd_method, max_block)

    def _work(self, A: sp.spmatrix):
        equ = equilibrate(A) if self._equil else None
        return (A if equ is None else equ.apply(A)), equ

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = b`` with the same factors (SuperLU's trans='T').

        ``A = D_r^{-1} P^T L U P D_c^{-1}`` (with optional equilibration),
        so ``A^T x = b`` solves via ``U^T`` then ``L^T`` sweeps.
        """
        return self._factored(self._rhs(b, "solve_transposed"), True)

    def condition_estimate(self) -> float:
        """Estimated 1-norm condition number of ``A`` (dgscon analogue);
        ``RuntimeError`` without a numeric factorization, as :meth:`solve`."""
        return condest(self.A, lambda r: self.solve(r, refine=False),
                       self.solve_transposed)
