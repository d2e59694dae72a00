"""Tests for triangular solves, iterative refinement, and the SparseLU3D facade."""

import gc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    FactorOptions,
    Machine,
    ProcessGrid3D,
    Simulator,
    factor_3d,
    greedy_partition,
    symbolic_factorize,
)
from repro.cholesky import SparseCholesky3D
from repro.solve import SparseLU3D, iterative_refinement
from repro.sparse import grid3d_7pt
from repro.verify.oracle import ledger_state


class TestSparseLU3DFacade:
    @pytest.mark.parametrize("pz", [1, 2, 4])
    def test_solve_all_families(self, any_matrix, pz):
        A, geom = any_matrix
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=pz, leaf_size=24)
        solver.factorize()
        rng = np.random.default_rng(0)
        b = rng.random(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_solve_without_geometry(self, random_small):
        A = random_small
        solver = SparseLU3D(A, px=2, py=2, pz=2, leaf_size=20)
        solver.factorize()
        b = np.arange(A.shape[0], dtype=float)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_multiple_rhs_reuse_factors(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        solver.factorize()
        for seed in range(3):
            b = np.random.default_rng(seed).random(A.shape[0])
            x = solver.solve(b)
            assert np.linalg.norm(A @ x - b) < 1e-8

    def test_solve_before_factorize_raises(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom)
        with pytest.raises(RuntimeError, match="factorize"):
            solver.solve(np.ones(A.shape[0]))

    def test_cost_only_mode_refuses_solve(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2,
                            leaf_size=16, numeric=False)
        solver.factorize()
        assert solver.makespan > 0
        with pytest.raises(RuntimeError, match="numeric"):
            solver.solve(np.ones(A.shape[0]))

    def test_bad_rhs_shape(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=1, py=1, leaf_size=16)
        solver.factorize()
        with pytest.raises(ValueError, match="shape"):
            solver.solve(np.ones(7))

    def test_bad_partition_name(self, planar_small):
        A, geom = planar_small
        with pytest.raises(ValueError, match="partition"):
            SparseLU3D(A, geometry=geom, partition="magic")

    def test_metrics_accessors(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        with pytest.raises(RuntimeError, match="factorize"):
            _ = solver.makespan
        solver.factorize()
        assert solver.makespan > 0
        assert solver.comm_volume().shape == (8,)
        assert solver.comm_volume("red").sum() > 0
        assert (solver.peak_memory > 0).any()

    def test_no_refinement_path(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=1, py=1, leaf_size=16)
        solver.factorize()
        b = np.ones(A.shape[0])
        x = solver.solve(b, refine=False)
        assert solver.last_refinement is None
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_solve_matches_scipy(self, kkt_small):
        A, geom = kkt_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        b = np.ones(A.shape[0])
        x = solver.solve(b)
        x_ref = sp.linalg.spsolve(A.tocsc(), b)
        assert np.allclose(x, x_ref, atol=1e-8)


class TestNoReferenceCycles:
    def test_a_cold_solve_leaves_nothing_to_the_collector(self):
        """A cold analyze + factorize + solve frees everything by reference
        count: with the collector off, a collection afterwards finds
        nothing. Recursive closures in the ordering and the partition used
        to leave cycles holding the adjacency and both tree-forests."""
        A, geom = grid3d_7pt(16)
        b = np.ones(A.shape[0])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=4,
                                leaf_size=32)
            solver.factorize()
            solver.solve(b)
            del solver
            gc.set_debug(gc.DEBUG_SAVEALL)     # keep what it finds, to name
            found = gc.collect()
            offenders = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert found == 0, offenders.most_common(10)


class TestIterativeRefinement:
    def _setup(self, n=40, cond_boost=0.0, seed=0):
        rng = np.random.default_rng(seed)
        D = rng.random((n, n)) + n * np.eye(n)
        A = sp.csr_matrix(D)
        x_true = rng.random(n)
        b = A @ x_true
        solve = lambda r: np.linalg.solve(D, r)
        return A, b, x_true, solve

    def test_converges_from_noisy_start(self):
        A, b, x_true, solve = self._setup()
        x0 = x_true + 1e-4 * np.ones_like(x_true)
        res = iterative_refinement(A, b, x0, solve)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-10)
        assert res.iterations >= 1

    def test_exact_start_converges_immediately(self):
        A, b, x_true, solve = self._setup()
        res = iterative_refinement(A, b, x_true.copy(), solve)
        assert res.converged
        assert res.iterations == 0

    def test_history_is_monotone_until_stop(self):
        A, b, x_true, solve = self._setup(seed=3)
        x0 = x_true + 1e-2
        res = iterative_refinement(A, b, x0, solve)
        h = res.berr_history
        assert all(a >= b_ for a, b_ in zip(h, h[1:]))

    def test_keeps_best_iterate_with_bad_solver(self):
        """A deliberately wrong inner solver must not ruin the iterate."""
        A, b, x_true, _ = self._setup()
        bad_solve = lambda r: 0.9 * r  # not remotely A^{-1}
        x0 = x_true + 1e-8
        res = iterative_refinement(A, b, x0.copy(), bad_solve, max_iter=5)
        start_err = np.abs(A @ x0 - b).max()
        final_err = np.abs(A @ res.x - b).max()
        assert final_err <= start_err * (1 + 1e-12)

    def test_fixes_static_pivot_perturbation(self):
        """The GESP scenario: perturbed factorization + refinement recovers
        full accuracy (paper Section II-E / VII)."""
        n = 30
        rng = np.random.default_rng(5)
        D = rng.random((n, n)) + n * np.eye(n)
        D[0, 0] = 1e-30  # force a perturbed pivot in unpivoted LU
        D[0, 1] = D[1, 0] = 2.0
        A = sp.csr_matrix(D)
        from repro.lu2d import getrf_nopiv
        import scipy.linalg as la
        M = D.copy()
        assert getrf_nopiv(M, eps=1e-8) >= 1

        def factored_solve(r):
            y = la.solve_triangular(np.tril(M, -1) + np.eye(n), r, lower=True,
                                    unit_diagonal=True)
            return la.solve_triangular(np.triu(M), y)

        b = np.ones(n)
        x0 = factored_solve(b)
        res = iterative_refinement(A, b, x0, factored_solve)
        assert np.linalg.norm(A @ res.x - b) / np.linalg.norm(b) < 1e-12


class TestSolveCommEvents:
    def test_solve_emits_solve_phase_traffic(self, planar_small):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        solver.factorize()
        before = solver.sim.total_words_sent("solve")
        solver.solve(np.ones(A.shape[0]), refine=False)
        after = solver.sim.total_words_sent("solve")
        assert after > before
        assert solver.sim.total_words_sent("solve") == pytest.approx(
            solver.sim.total_words_recv("solve"))


def _poisoned(A, value):
    """``A`` with one stored entry replaced by ``value`` (same pattern)."""
    B = A.copy()
    B.data[B.nnz // 2] = value
    return B


class TestNonFiniteInput:
    """NaN/inf is rejected once, where it enters — the dense kernels run on
    raw BLAS/LAPACK and do not scan their blocks — and a non-finite ``x``
    is never returned."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cls", [SparseLU3D, SparseCholesky3D])
    def test_constructor_rejects_matrix(self, planar_small, cls, bad):
        A, geom = planar_small
        with pytest.raises(ValueError, match="A contains NaN or infinite"):
            cls(_poisoned(A, bad), geometry=geom)

    @pytest.mark.parametrize("cls", [SparseLU3D, SparseCholesky3D])
    def test_refactorize_rejects_before_booking_anything(self, planar_small,
                                                         cls):
        A, geom = planar_small
        solver = cls(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        solver.factorize()
        sim, ledger = solver.sim, ledger_state(solver.sim)
        with pytest.raises(ValueError, match="A contains NaN or infinite"):
            solver.refactorize(_poisoned(A, np.nan))
        assert solver.sim is sim and ledger_state(sim) == ledger
        b = np.ones(A.shape[0])     # the previous factors still serve
        assert np.linalg.norm(A @ solver.solve(b) - b) < 1e-8

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_rhs_rejected_before_booking_anything(self, planar_small, shape):
        A, geom = planar_small
        solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        solver.factorize()
        ledger = ledger_state(solver.sim)
        b = np.ones((A.shape[0],) + shape)
        b[5] = np.inf
        for solve in (solver.solve, solver.solve_transposed):
            with pytest.raises(ValueError, match="b contains NaN or infinite"):
                solve(b)
        assert ledger_state(solver.sim) == ledger

    def test_direct_factor_3d_rejects_matrix_values(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        bad = _poisoned(sf.A_perm, np.nan)
        with pytest.raises(ValueError, match="matrix contains NaN"):
            factor_3d(sf, tf, grid3, sim, matrix=bad)
        assert not sim.event_counts and not sim.mem_current.any()
        # Cost-only reads no value, so it has nothing to reject.
        factor_3d(sf, tf, grid3, Simulator(grid3.size, Machine.edison_like()),
                  numeric=False, matrix=bad)
        sf.A_perm = bad
        with pytest.raises(ValueError, match="sf.A_perm contains NaN"):
            factor_3d(sf, tf, grid3, sim)
        assert not sim.event_counts and not sim.mem_current.any()

    def test_direct_factor_2d_rejects_a_poisoned_block(self, planar_small):
        """The 2D baseline (Pz = 1) refuses a non-finite value before it
        books or charges anything."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf, grid3 = greedy_partition(sf, 1), ProcessGrid3D(2, 2, 1)
        sim = Simulator(grid3.size, Machine.edison_like())
        with pytest.raises(ValueError, match="matrix contains NaN"):
            factor_3d(sf, tf, grid3, sim, matrix=_poisoned(sf.A_perm, np.nan))
        assert not sim.event_counts and not sim.mem_current.any()

    def test_solve_refuses_to_return_a_non_finite_x(self):
        """Static pivoting all but switched off (the smallest positive
        ``pivot_eps``) on a matrix that needs it: the factors overflow, and
        `solve` says so instead of returning NaNs."""
        A = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                    [0.0, 1.0, 1.0]]))
        solver = SparseLU3D(
            A, options=FactorOptions(pivot_eps=float(np.nextafter(0, 1))))
        with np.errstate(all="ignore"):
            solver.factorize()
            for solve in (solver.solve, solver.solve_transposed):
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    solve(np.ones(3))
        ok = SparseLU3D(A).factorize()      # GESP on: perturbed and refined
        assert ok.result.perturbed_pivots >= 1


def _refine_abs_per_evaluation(A, b, x0, solve_fn, tol=1e-14, max_iter=10):
    """``iterative_refinement`` as it was when every backward error built
    its own ``np.abs(A)``: the referee of the one-``|A|`` form."""
    def berr_of(x, r):
        denom = np.abs(A) @ np.abs(x) + np.abs(b)
        denom[denom == 0] = np.finfo(float).tiny
        return float(np.max(np.abs(r) / denom))

    A = A.tocsr()
    x = x0.astype(np.float64).copy()
    r = b - A @ x
    berr = berr_of(x, r)
    history, best_x, best_berr = [berr], x.copy(), berr
    for _ in range(max_iter):
        if berr <= tol:
            break
        x = x + solve_fn(r)
        r = b - A @ x
        new_berr = berr_of(x, r)
        history.append(new_berr)
        if new_berr < best_berr:
            best_x, best_berr = x.copy(), new_berr
        if new_berr > berr / 2:
            break
        berr = new_berr
    if history[-1] != best_berr:
        history.append(best_berr)
    return best_x, history


class TestRefinementBuildsAbsOnce:
    def test_the_golden_refined_cases_change_no_bit(self, monkeypatch):
        """``iterative_refinement`` takes ``|A|`` once per call, not once
        per backward error: on every refined case of
        ``golden_solve_x.json`` its ``x`` and ``berr_history`` are the
        per-evaluation form's bit for bit."""
        from tests.data.regen_solve_ledgers import GRIDS, NRHS, matrices, near
        builds = Counter()
        to_abs = sp.csr_matrix.__abs__
        monkeypatch.setattr(sp.csr_matrix, "__abs__", lambda M: (
            builds.update([id(M)]), to_abs(M))[1])
        for _name, (A, geom) in matrices():
            for px, py, pz in GRIDS:
                for compact in (False, True):
                    s = SparseLU3D(A, geometry=geom, px=px, py=py, pz=pz,
                                   leaf_size=16,
                                   options=FactorOptions(compact_comm=compact))
                    s.factorize()

                    def sweep(r):
                        return s.solve(r, refine=False)
                    for nrhs in NRHS:
                        rng = np.random.default_rng(nrhs)
                        b = rng.standard_normal(A.shape[0]) if nrhs == 1 \
                            else rng.standard_normal((A.shape[0], nrhs))
                        A_near, x0 = near(A), sweep(b)
                        builds.clear()
                        res = iterative_refinement(A_near, b, x0, sweep)
                        assert sum(builds.values()) == 1
                        x, history = _refine_abs_per_evaluation(
                            A_near, b, x0, sweep)
                        assert len(res.berr_history) > 2
                        assert res.berr_history == history
                        assert np.array_equal(res.x, x)


class TestSolveGolden:
    """``tests/data/golden_solve_ledgers.json`` was generated at the parent
    of the solve plan, from the per-event sweeps: the plan's one-call
    booking must reproduce every case byte for byte, and its in-place
    numerics the old solutions to 1e-12."""

    @pytest.fixture(scope="class")
    def built(self):
        from tests.data.regen_solve_ledgers import build
        return build()

    def test_ledgers_byte_for_byte(self, built):
        import json

        from tests.data.regen_solve_ledgers import OUT, dumps
        text = OUT.read_text()
        assert len(built[0]) == 108
        assert dumps(built[0], json.loads(text)["_readme"]) == text

    def test_solutions_match_the_old_sweeps(self, built):
        import json

        from tests.data.regen_solve_ledgers import OUT_X
        want = json.loads(OUT_X.read_text())
        for name, probe in built[1].items():
            got, old = (np.array([float.fromhex(v) for v in p["sample"]])
                        for p in (probe, want[name]))
            scale = float.fromhex(want[name]["norm_inf"])
            assert np.abs(got - old).max() <= 1e-12 * scale, name


class TestSolvePlanReplay:
    def setup_solver(self, A, geom, pz=2, cls=SparseLU3D, **kw):
        return cls(A, geometry=geom, px=2, py=2, pz=pz, leaf_size=16, **kw)

    def test_last_refinement_is_none_before_the_first_solve(self,
                                                            planar_small):
        A, geom = planar_small
        assert self.setup_solver(A, geom).last_refinement is None

    def test_plan_is_built_once_per_bundle(self, planar_small):
        """Refinement sweeps, repeat solves and a same-pattern
        ``refactorize`` all replay the bundle's memoized plans."""
        A, geom = planar_small
        s = self.setup_solver(A, geom).factorize()
        plans = s.solve_plans()
        s.solve(np.ones(A.shape[0]), tol=0.0)     # forces refinement sweeps
        s.refactorize(A * 2.0)
        s.solve(np.ones((A.shape[0], 3)))
        assert all(a is b for a, b in zip(plans, s.solve_plans()))
        assert len(s._bundle._lazy.keys() & {(True, True), (False, False)}) \
            == 2

    def test_grid_change_rebuilds_the_plan_with_the_bundle(self,
                                                           planar_small):
        """``PlanBundle.check`` refuses the old bundle under a new ``pz``;
        its memoized solve plans go with it, and the re-solve books what a
        cold solver of the new grid books."""
        A, geom = planar_small
        b = np.ones(A.shape[0])
        s = self.setup_solver(A, geom, pz=2).factorize()
        s.solve(b)
        old = s.solve_plans()
        s.grid = ProcessGrid3D(2, 2, 4)
        s.tf = greedy_partition(s.sf, 4)
        assert s._usable_bundle() is None
        x = s.factorize().solve(b)
        assert not any(a is b_ for a, b_ in zip(old, s.solve_plans()))
        cold = self.setup_solver(A, geom, pz=4).factorize()
        assert np.array_equal(cold.solve(b), x)
        assert ledger_state(cold.sim) == ledger_state(s.sim)

    @pytest.mark.parametrize("cls", [SparseLU3D, SparseCholesky3D])
    def test_observers_get_the_same_events(self, planar_small, cls):
        """A trace, a topology and an idle fault injector all ride
        ``book``'s clock loop; the ledgers do not move, and the trace
        holds one record per solve event."""
        from repro.analysis.trace import Trace
        from repro.comm.topology import UniformTopology
        from repro.resilience import FaultInjector, FaultPlan
        A, geom = planar_small
        if cls is SparseCholesky3D:
            A = (A + A.T + 20 * sp.eye(A.shape[0])).tocsr()
        b = np.random.default_rng(3).standard_normal((A.shape[0], 2))

        def solved(observe):
            s = self.setup_solver(A, geom, cls=cls)
            s.factorize()
            observe(s.sim)
            fact = dict(s.sim.event_counts)
            s.solve(b, refine=False)
            return s, fact

        plain, _ = solved(lambda sim: None)
        traced, fact = solved(lambda sim: setattr(sim, "trace", Trace()))
        for observe in (
                lambda sim: setattr(sim, "topology", UniformTopology()),
                lambda sim: sim.attach_faults(
                    FaultInjector(FaultPlan(), sim.machine))):
            assert ledger_state(solved(observe)[0].sim) \
                == ledger_state(plain.sim)
        assert ledger_state(traced.sim) == ledger_state(plain.sim)
        n_events = sum(p.ev.src.size for p in traced.solve_plans())
        records = [e for e in traced.sim.trace.events
                   if e.phase == "solve" and e.kind in ("solve", "send")]
        assert len(records) == n_events
        assert n_events == sum(
            traced.sim.event_counts[k] - fact.get(k, 0)
            for k in ("solve", "send"))

    def test_public_sweeps_equal_the_facade(self, planar_small):
        """``forward_solve`` / ``backward_solve`` build their own plan from
        ``grid_of`` and book what the facade's memoized plans book."""
        from repro.solve import backward_solve, forward_solve
        A, geom = planar_small
        s = self.setup_solver(A, geom).factorize()
        ref = self.setup_solver(A, geom).factorize()
        b = np.arange(A.shape[0], dtype=float)
        bp = s.sf.perm.apply_vector(b)

        def grid_of(k):
            return s.grid.layer(s.tf.home_grid(k))

        y = forward_solve(s.sf, s.result.replicas.home_view(), bp, s.sim, grid_of)
        x = backward_solve(s.sf, s.result.replicas.home_view(), y, s.sim, grid_of)
        assert np.array_equal(s.sf.perm.unapply_vector(x),
                              ref.solve(b, refine=False))
        assert ledger_state(s.sim) == ledger_state(ref.sim)


def _spd(A):
    """``A`` symmetrized and shifted diagonally dominant: SPD, same
    pattern as the symmetrized ``A``."""
    S = (A + A.T) * 0.5
    return (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()


class TestBoundSweeps:
    """The referee of the bound sweeps: every sweep shape, bound once on the
    factor arena's structural rows and replayed by the one executor, solves
    what numpy solves on the assembled dense factors, books exactly the
    plan's stream, and stays exact under random legal task orders."""

    #: ``(down, lower)`` -> ``(operator of the dense factors, lower, trans)``
    SHAPES = {(True, True): ("L", True, False),
              (False, True): ("L", True, True),
              (False, False): ("U", False, False),
              (True, False): ("U", False, True)}

    @pytest.fixture(scope="class",
                    params=["planar", "brick", "circuit", "kkt"])
    def matrix(self, request, planar_small, brick_small, circuit_small,
               kkt_small):
        return {"planar": planar_small, "brick": brick_small,
                "circuit": circuit_small, "kkt": kkt_small}[request.param]

    @pytest.mark.parametrize("pz", [1, 2, 4])
    @pytest.mark.parametrize("cls", [SparseLU3D, SparseCholesky3D])
    def test_every_shape_against_dense_factors(self, matrix, cls, pz):
        from scipy.linalg import solve_triangular

        from repro.comm.events import PHASE_SOLVE
        from repro.verify import fuzz_solve
        A, geom = matrix
        chol = cls is SparseCholesky3D
        s = cls(_spd(A) if chol else A, geometry=geom, px=2, py=1, pz=pz,
                leaf_size=16).factorize()
        F = s.result.factors().to_dense()
        dense = {"L": np.tril(F) if chol else np.tril(F, -1) + np.eye(len(F)),
                 "U": np.triu(F)}
        unit = not chol
        shapes = [k for k in self.SHAPES if k[1] or not chol]
        rng = np.random.default_rng(pz)
        for nrhs in (1, 3):
            b = rng.standard_normal(A.shape[0] if nrhs == 1
                                    else (A.shape[0], nrhs))
            for down, lower in shapes:
                op, low, trans = self.SHAPES[down, lower]
                want = solve_triangular(dense[op], b, lower=low,
                                        trans=int(trans),
                                        unit_diagonal=unit and op == "L")
                s.sim = Simulator(s.grid.size, s.machine)
                s.sweeps = ((down, lower, unit and lower),)
                got = s.sf.perm.apply_vector(s.solve(
                    s.sf.perm.unapply_vector(b), refine=False))
                assert got.shape == b.shape
                assert np.abs(got - want).max() <= \
                    1e-12 * max(1.0, np.abs(want).max()), (down, lower, nrhs)
                (plan,) = s.solve_plans(((down, lower, unit),))
                ref = Simulator(s.grid.size, s.machine)
                ref.set_phase(PHASE_SOLVE)
                ref.book(plan.stream(nrhs))
                assert ledger_state(s.sim) == ledger_state(ref)
                if nrhs == 3:
                    rep = fuzz_solve(plan, s.sf, s.result.replicas.home_view(), b,
                                     s.grid.size, unit=unit and lower,
                                     n_orders=3, seed=pz)
                    assert rep.ok, rep.summary()
                    assert rep.factor_max_dev <= 1e-12

    def test_l_blocks_are_bound_on_their_structural_rows(self, brick_small):
        """The L sweeps' GEMMs read fewer rows than their blocks' full
        height (the target rows shrink for ``L``, the source rows for
        ``L^T``) and the U sweeps' every row."""
        from repro.lu2d.kernels import GEMM
        from repro.solve.triangular import bind
        A, geom = brick_small
        s = SparseLU3D(A, geometry=geom, leaf_size=16).factorize()
        for plan in s.solve_plans(((True, True, True), (False, True, True),
                                   (True, False, False),
                                   (False, False, False))):
            work = np.zeros((A.shape[0], 2))
            prog = bind(plan, s.sf, s.result.replicas.home_view(), work, True)
            assert len(prog) == plan.n_tasks
            gemm = [op for op in prog if op[0] == GEMM]
            rows = sum(op[3].shape[1] for op in gemm)  # op[3]: block^T
            whole = sum(s.sf.layout.block_size(i)
                        for i, _j in plan.steps[plan.steps[:, 0] == 1, 1:3]
                        .tolist())
            assert (rows < whole) == plan.lower, (plan.down, plan.lower)
