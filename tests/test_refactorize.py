"""Tests for pattern-reuse refactorization (SamePattern option)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FactorOptions, SparseLU3D, grid2d_5pt
from repro.verify.oracle import ledger_state


@pytest.fixture()
def stepping_pair():
    L, g = grid2d_5pt(14)
    n = L.shape[0]
    eye = sp.identity(n, format="csr")
    return (eye + 0.1 * L).tocsr(), (eye + 0.7 * L).tocsr(), g, n


class TestRefactorize:
    def test_new_values_solved_exactly(self, stepping_pair):
        A1, A2, g, n = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        b = np.random.default_rng(1).random(n)
        solver.refactorize(A2)
        x = solver.solve(b)
        assert np.linalg.norm(A2 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_symbolic_objects_reused(self, stepping_pair):
        A1, A2, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        sf, tf = solver.sf, solver.tf
        solver.refactorize(A2)
        assert solver.sf is sf
        assert solver.tf is tf

    def test_sub_pattern_accepted(self, stepping_pair):
        """Dropping entries (e.g. a zero coefficient) is fine."""
        A1, _, g, n = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=1, pz=2, leaf_size=24)
        solver.factorize()
        A_diag = sp.identity(n, format="csr") * 3.0
        solver.refactorize(A_diag)
        b = np.ones(n)
        x = solver.solve(b)
        assert np.allclose(x, 1.0 / 3.0)

    def test_super_pattern_rejected(self, stepping_pair):
        A1, A2, g, n = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=1, py=2, pz=2, leaf_size=24)
        solver.factorize()
        bad = A2.tolil()
        bad[0, n - 1] = 5.0
        with pytest.raises(ValueError, match="outside"):
            solver.refactorize(bad.tocsr())

    def test_shape_mismatch_rejected(self, stepping_pair):
        A1, _, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, leaf_size=24)
        solver.factorize()
        with pytest.raises(ValueError, match="shape"):
            solver.refactorize(sp.identity(7, format="csr"))

    def test_before_factorize_acts_fresh(self, stepping_pair):
        A1, A2, g, n = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.refactorize(A2)  # no prior factorize(): full pipeline
        b = np.ones(n)
        x = solver.solve(b)
        assert np.linalg.norm(A2 @ x - b) < 1e-10

    def test_with_equilibration(self, stepping_pair):
        """Scalings are recomputed for the new values."""
        A1, A2, g, n = stepping_pair
        rng = np.random.default_rng(3)
        D = sp.diags(10.0 ** rng.uniform(-3, 3, n))
        B1 = (D @ A1 @ D).tocsr()
        B2 = (D @ A2 @ D).tocsr()
        solver = SparseLU3D(B1, geometry=g, px=2, py=2, pz=2, leaf_size=24,
                            equil=True)
        solver.factorize()
        eq1 = solver.equ
        solver.refactorize(B2)
        assert solver.equ is not eq1
        b = np.ones(n)
        x = solver.solve(b)
        assert np.linalg.norm(B2 @ x - b) / np.linalg.norm(b) < 1e-9

    def test_time_stepping_sequence(self, stepping_pair):
        """A realistic sequence of refactorizations stays exact."""
        A1, _, g, n = stepping_pair
        L, _ = grid2d_5pt(14)
        eye = sp.identity(n, format="csr")
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        b = np.random.default_rng(5).random(n)
        for dt in (0.05, 0.2, 1.0):
            A = (eye + dt * L).tocsr()
            solver.refactorize(A)
            x = solver.solve(b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def _with_stored_zeros(A, entries):
    """A copy of ``A`` that *stores* explicit zeros at ``entries``."""
    C = A.tocoo()
    rows = np.concatenate([C.row, [i for i, _ in entries]])
    cols = np.concatenate([C.col, [j for _, j in entries]])
    vals = np.concatenate([C.data, np.zeros(len(entries))])
    Z = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
    assert Z.nnz == A.nnz + len(entries)  # zeros really stored
    return Z


class TestExplicitZeros:
    """Explicitly-stored zeros (Matrix Market idiom) must never cause a
    spurious same-pattern rejection — in either matrix of the pair."""

    def test_value_appearing_at_stored_zero_accepted(self):
        # The symbolic phase walks the STORED structure, so a zero stored
        # in the original matrix produced fill for that position; giving
        # it a real value later is a same-pattern refactorization.
        A, _ = grid2d_5pt(8)
        A0 = _with_stored_zeros(A, [(0, 5), (5, 0)])
        solver = SparseLU3D(A0, px=2, py=2, pz=1, leaf_size=16)
        solver.factorize()
        A1 = A0.copy()
        d = A1.data.copy()
        d[d == 0.0] = 0.5
        A1.data = d
        solver.refactorize(A1)  # was: "2 entries ... outside the pattern"
        b = np.ones(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A1 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_incoming_stored_zeros_accepted(self):
        A, _ = grid2d_5pt(8)
        solver = SparseLU3D(A, px=2, py=1, pz=1, leaf_size=16)
        solver.factorize()
        # New matrix stores zeros at positions INSIDE the pattern: fine.
        A1 = A.tocsr(copy=True)
        d = A1.data.copy()
        d[0] = 0.0
        A1.data = d
        A1_stored = sp.csr_matrix((A1.data, A1.indices, A1.indptr),
                                  shape=A1.shape)
        solver.refactorize(A1_stored)
        x = solver.solve(np.ones(A.shape[0]))
        assert np.linalg.norm(A1 @ x - 1.0) < 1e-10

    def test_incoming_stored_zero_outside_pattern_accepted(self):
        # A stored zero OUTSIDE the analyzed pattern carries no value:
        # the containment check counts only nonzeros.
        A, _ = grid2d_5pt(8)
        n = A.shape[0]
        solver = SparseLU3D(A, px=1, py=2, pz=1, leaf_size=16)
        solver.factorize()
        A1 = _with_stored_zeros(A, [(0, n - 1), (n - 1, 0)])
        solver.refactorize(A1)
        x = solver.solve(np.ones(n))
        assert np.linalg.norm(A @ x - 1.0) < 1e-10

    def test_containment_vs_analyzed_not_current_pattern(self):
        # Refactorizing with a sub-pattern must not shrink what later
        # refactorizations are checked against.
        A, _ = grid2d_5pt(8)
        n = A.shape[0]
        solver = SparseLU3D(A, px=1, py=1, pz=1, leaf_size=16)
        solver.factorize()
        solver.refactorize(sp.csr_matrix(sp.diags(np.full(n, 4.0))))
        solver.refactorize(A)  # full pattern again: still contained
        x = solver.solve(np.ones(n))
        assert np.linalg.norm(A @ x - 1.0) / np.sqrt(n) < 1e-10

    def test_genuinely_outside_still_rejected(self):
        A, _ = grid2d_5pt(8)
        n = A.shape[0]
        solver = SparseLU3D(A, px=1, py=1, pz=1, leaf_size=16)
        solver.factorize()
        bad = A.tolil(copy=True)
        bad[0, n - 1] = 1.0
        with pytest.raises(ValueError, match="outside"):
            solver.refactorize(bad.tocsr())


class TestStrayValues:
    """A value in a block outside the filled pattern is refused — also the
    mirror image of a held LU block — since the plan never reads that
    block, so the factors would silently be those of another matrix
    (``PlanBundle.check`` compares ``sf``'s pattern, not ``matrix``'s)."""

    @pytest.fixture()
    def planted(self, stepping_pair):
        from repro import ProcessGrid3D, greedy_partition, symbolic_factorize
        A1, _, g, _ = stepping_pair
        sf = symbolic_factorize(A1, g, leaf_size=24)
        held = sf.fill.all_blocks()
        i, j = next((i, j) for i in range(sf.nb) for j in range(i)
                    if (i, j) not in held)
        off = sf.layout.offsets
        M = sf.A_perm.tolil(copy=True)
        M[off[i], off[j]] = 5.0
        return (sf, greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2),
                M.tocsr(), (int(off[i]), int(off[j])))

    @pytest.mark.parametrize("merged", [False, True],
                             ids=["replicated", "merged"])
    def test_cold_bind_refuses(self, planted, merged):
        from repro import Simulator
        from repro.lu3d import factor_3d
        sf, tf, grid3, M, at = planted
        with pytest.raises(ValueError, match=rf"1 entries .*{at}"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=True,
                      matrix=M, merged=merged)

    def test_warm_rebind_refuses_and_the_arena_survives(self, planted):
        from repro import Simulator
        from repro.lu3d import factor_3d
        sf, tf, grid3, M, _at = planted
        cold = factor_3d(sf, tf, grid3, Simulator(grid3.size))
        want = cold.factors().to_dense()
        kw = dict(cached=cold.bundle, replicas=cold.replicas)
        with pytest.raises(ValueError, match="outside the block pattern"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), matrix=M, **kw)
        warm = factor_3d(sf, tf, grid3, Simulator(grid3.size), **kw)
        assert np.array_equal(warm.factors().to_dense(), want)

    @pytest.fixture(scope="class")
    def off_extent(self):
        """The brick at the drivers' leaf 64 / cap 256 and its matrix with
        one value in a held U block ``(i, j)`` one column past its
        structural columns ``c0:c1`` (``extents``): a block whose U-panel
        solve runs on ``c0:c1`` only, so no kernel would read the value."""
        from repro import ProcessGrid3D, greedy_partition, symbolic_factorize
        from repro.lu2d.storage import extents, node_block_arrays
        from repro.sparse import grid3d_7pt
        A, g = grid3d_7pt(16)
        sf = symbolic_factorize(A, g, leaf_size=64, max_block=256)
        _ptr, ii, jj, _ww = node_block_arrays(sf)
        e, s = extents(sf), sf.layout.sizes()
        b = np.flatnonzero(e.trsm_cols & (e.c1 < s[jj]))[0]
        at = (int(sf.layout.offsets[ii[b]]),
              int(sf.layout.offsets[jj[b]] + e.c1[b]))
        M = sf.A_perm.tolil(copy=True)
        M[at] = 5.0
        return sf, greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2), \
            M.tocsr(), at

    @pytest.mark.parametrize("merged", [False, True],
                             ids=["replicated", "merged"])
    def test_cold_bind_refuses_a_u_value_off_its_columns(self, off_extent,
                                                         merged):
        from repro import Simulator
        from repro.lu3d import factor_3d
        sf, tf, grid3, M, at = off_extent
        with pytest.raises(ValueError, match=rf"1 entries .*{at}"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), matrix=M,
                      merged=merged)

    def test_warm_rebind_refuses_a_u_value_off_its_columns(self, off_extent):
        from repro import Simulator
        from repro.lu3d import factor_3d
        sf, tf, grid3, M, _at = off_extent
        cold = factor_3d(sf, tf, grid3, Simulator(grid3.size))
        want = cold.factors().to_dense()
        kw = dict(cached=cold.bundle, replicas=cold.replicas)
        with pytest.raises(ValueError, match="outside the block pattern"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), matrix=M, **kw)
        warm = factor_3d(sf, tf, grid3, Simulator(grid3.size), **kw)
        assert np.array_equal(warm.factors().to_dense(), want)

    @pytest.fixture()
    def mirrored(self):
        """``A1`` holds one entry ``(u, v)`` from the first row of block 0
        to the first row of block 14, an ancestor outside block 0's L
        fill, and ``M`` adds its mirror ``(v, u)``: inside the symmetrized
        pattern ``refactorize`` compares with, in a block the LU fill
        lacks. Returns the facade on ``A1``, factored, and ``M``."""
        A, g = grid2d_5pt(32)
        n = A.shape[0]
        probe = SparseLU3D(A, geometry=g, leaf_size=8).analyze()
        u, v = probe.sf.perm.perm[probe.sf.layout.offsets[[0, 14]]]

        def plus(M, i, j, x):
            return (M + sp.csr_matrix(([x], ([i], [j])), shape=(n, n))).tocsr()

        A1 = plus(A, u, v, 0.5)
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=8)
        solver.factorize()
        held = solver.sf.fill.all_blocks()
        assert (0, 14) in held and (14, 0) not in held
        return solver, plus(A1, v, u, 3.0)

    def test_lu_cold_bind_refuses_a_mirror_value(self, mirrored):
        from repro import Simulator
        from repro.lu3d import factor_3d
        solver, M = mirrored
        sf, grid3 = solver.sf, solver.grid
        v = sf.layout.offsets[14]
        with pytest.raises(ValueError, match=rf"1 entries .* \({v}, 0\)"):
            factor_3d(sf, solver.tf, grid3, Simulator(grid3.size),
                      matrix=sf.perm.apply_matrix(M))

    def test_lu_warm_rebind_refuses_a_mirror_value(self, mirrored):
        from repro import Simulator
        from repro.lu3d import factor_3d
        solver, M = mirrored
        sf, grid3, res = solver.sf, solver.grid, solver.result
        want = res.factors().to_dense()
        with pytest.raises(ValueError, match="outside the block pattern"):
            factor_3d(sf, solver.tf, grid3, Simulator(grid3.size),
                      matrix=sf.perm.apply_matrix(M), cached=res.bundle,
                      replicas=res.replicas)
        assert np.array_equal(res.factors().to_dense(), want)   # untouched

    def test_lu_refactorize_refuses_and_keeps_the_solver(self, mirrored):
        """An arena that dropped the mirror value would have the facade
        factor another matrix, and refinement stall unconverged."""
        solver, M = mirrored
        A1, A_perm, result = solver.A, solver.sf.A_perm, solver.result
        ledger = ledger_state(solver.sim)
        with pytest.raises(ValueError, match="outside the block pattern"):
            solver.refactorize(M)
        assert solver.A is A1 and solver.sf.A_perm is A_perm
        assert solver.result is result
        assert ledger_state(solver.sim) == ledger
        b = np.ones(A1.shape[0])
        x = solver.solve(b)
        assert solver.last_refinement.converged
        assert np.linalg.norm(A1 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_refused_refactorize_keeps_the_bound_solve(self, mirrored,
                                                       monkeypatch):
        """The sweeps bound before a refused ``refactorize`` stay bound to
        the untouched arena and keep solving the old matrix."""
        import repro.solve.triangular as triangular
        solver, M = mirrored
        A1 = solver.A
        b = np.ones(A1.shape[0])
        x0 = solver.solve(b)
        monkeypatch.setattr(triangular, "bind", None)   # no rebind allowed
        with pytest.raises(ValueError, match="outside the block pattern"):
            solver.refactorize(M)
        assert np.array_equal(solver.solve(b), x0)
        assert np.linalg.norm(A1 @ x0 - b) / np.linalg.norm(b) < 1e-12

    @pytest.mark.parametrize("where", ["outside", "mirror"])
    def test_refusal_survives_the_same_structure_refill(self, mirrored,
                                                        where):
        """A stored zero outside the factors' blocks (or at the mirror of
        a held LU block) is accepted; the same structure with a nonzero
        there takes the same-structure path — the value map is not rebuilt
        — and is refused, leaving the solver as it was."""
        solver, M = mirrored
        sf, A1 = solver.sf, solver.A
        if where == "mirror":
            D = (M - A1).tocoo()
            at = (int(D.row[0]), int(D.col[0]))
        else:
            held, off = sf.fill.all_blocks(), sf.layout.offsets
            i, j = next((i, j) for i in range(sf.nb) for j in range(i)
                        if (i, j) not in held and (j, i) not in held)
            at = tuple(int(x) for x in sf.perm.perm[off[[i, j]]])
        Z = _with_stored_zeros(A1, [at])
        solver.refactorize(Z)
        vmap, result = solver._bundle._lazy["value_map"], solver.result
        ledger = ledger_state(solver.sim)
        bad = Z.copy()
        bad.data[Z.data == 0] = 3.0
        with pytest.raises(ValueError, match="outside the"):
            solver.refactorize(bad)
        assert solver._bundle._lazy["value_map"] is vmap
        assert solver.A is Z and solver.result is result
        assert ledger_state(solver.sim) == ledger
        b = np.ones(A1.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A1 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_cholesky_mirror_image_is_exempt(self, stepping_pair):
        """The Cholesky backend stores and reads the lower triangle only
        and binds ``tril(matrix)`` itself: the upper triangle of a
        symmetric ``matrix`` is never bound."""
        from repro import ProcessGrid3D, Simulator, greedy_partition, \
            symbolic_factorize
        from repro.lu3d import factor_3d
        A1, _, g, _ = stepping_pair
        S = ((A1 + A1.T) * 0.5).tocsr()
        sf = symbolic_factorize(S, g, leaf_size=24)
        tf, grid3 = greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2)
        full, lower = (
            factor_3d(sf, tf, grid3, Simulator(grid3.size),
                      backend="cholesky", matrix=M).factors().to_dense()
            for M in (sf.A_perm, sp.tril(sf.A_perm).tocsr()))
        assert np.array_equal(full, lower)


#: The refactorize × execution-mode interaction matrix: the plan-replay
#: warm path must stay bit-identical to a cold factorization on the inline
#: serial levels and with a level's grids on host threads.
#: The unfused walk is covered by ``test_unfused_replay_matches_cold``.
INTERACTION_MODES = [
    ("serial", FactorOptions()),
    ("workers", FactorOptions(n_workers=2)),
]


class TestRefactorizeInteractions:
    @pytest.mark.parametrize("label,opts",
                             INTERACTION_MODES,
                             ids=[m[0] for m in INTERACTION_MODES])
    def test_warm_matches_cold_bit_for_bit(self, stepping_pair, label, opts):
        A1, A2, g, n = stepping_pair
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24, options=opts)
        solver = SparseLU3D(A1, **kw)
        solver.factorize()
        assert solver.result.bundle is not None
        bundle = solver.result.bundle
        solver.refactorize(A2)  # warm: replays the retained bundle
        assert solver.result.bundle is bundle
        cold = SparseLU3D(A2, **kw)
        cold.factorize()
        assert ledger_state(solver.sim) == ledger_state(cold.sim)
        Fw, Fc = solver.result.factors(), cold.result.factors()
        for key in Fc.blocks:
            np.testing.assert_allclose(Fw.blocks[key], Fc.blocks[key],
                                       rtol=0, atol=1e-12)
        b = np.random.default_rng(7).random(n)
        x = solver.solve(b)
        assert np.linalg.norm(A2 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_unfused_replay_matches_cold(self, stepping_pair):
        """A bundle replayed under the resilience monitor takes the width-1
        walk and must still match a cold run monitored the same way — and
        the full-width run's ledger — bit for bit."""
        from repro import ProcessGrid3D, Simulator
        from repro.lu3d import factor_3d
        from tests.conftest import width1_options
        A1, A2, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        sf, tf = solver.sf, solver.tf
        grid3 = ProcessGrid3D(2, 2, 2)
        A2p = sf.perm.apply_matrix(A2)
        opts = width1_options(solver.options)
        sims = {}
        for label, cached in (("warm", solver.result.bundle), ("cold", None)):
            sims[label] = Simulator(grid3.size, solver.machine)
            res = factor_3d(sf, tf, grid3, sims[label], matrix=A2p,
                            cached=cached, options=opts)
            assert res.resilience is not None  # monitored per task: width 1
        assert ledger_state(sims["warm"]) == ledger_state(sims["cold"])
        solver.refactorize(A2)  # fused replay of the same bundle
        assert solver.result.resilience is None
        assert ledger_state(solver.sim) == ledger_state(sims["warm"])

    @pytest.mark.parametrize("label,opts", INTERACTION_MODES,
                             ids=[m[0] for m in INTERACTION_MODES])
    def test_cholesky_warm_matches_cold(self, stepping_pair, label, opts):
        from repro.cholesky import SparseCholesky3D
        A1, A2, g, n = stepping_pair
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24, options=opts)
        solver = SparseCholesky3D(A1, **kw)
        solver.factorize()
        solver.refactorize(A2)
        cold = SparseCholesky3D(A2, **kw)
        cold.factorize()
        assert ledger_state(solver.sim) == ledger_state(cold.sim)
        Fw, Fc = solver.result.factors(), cold.result.factors()
        for key in Fc.blocks:
            np.testing.assert_allclose(Fw.blocks[key], Fc.blocks[key],
                                       rtol=0, atol=1e-12)
        b = np.ones(n)
        x = solver.solve(b)
        assert np.linalg.norm(A2 @ x - b) / np.linalg.norm(b) < 1e-12


class TestWarmReplayMechanics:
    def test_repeat_factorize_replays_bundle(self, stepping_pair):
        A1, _, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        plan_first = solver.result.plan
        led_first = ledger_state(solver.sim)
        solver.factorize()  # idempotent AND warm
        assert solver.result.plan is plan_first
        assert ledger_state(solver.sim) == led_first

    def test_replicas_storage_reused(self, stepping_pair):
        A1, A2, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        replicas = solver.result.replicas
        solver.refactorize(A2)
        assert solver.result.replicas is replicas

    def test_option_change_rebuilds_cold(self, stepping_pair):
        # A plan-relevant option change invalidates the retained bundle;
        # the run must rebuild (not raise, not replay the wrong DAG).
        A1, A2, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24,
                            options=FactorOptions(lookahead=8))
        solver.factorize()
        bundle = solver.result.bundle
        solver.options = FactorOptions(lookahead=0)
        solver.refactorize(A2)
        assert solver.result.bundle is not bundle
        cold = SparseLU3D(A2, geometry=g, px=2, py=2, pz=2, leaf_size=24,
                          options=FactorOptions(lookahead=0))
        cold.factorize()
        assert ledger_state(solver.sim) == ledger_state(cold.sim)

    def test_bundle_check_rejects_wrong_grid(self, stepping_pair):
        from repro import ProcessGrid3D, Simulator
        from repro.comm.machine import Machine
        from repro.lu3d.factor3d import factor_3d
        A1, _, g, _ = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        wrong = ProcessGrid3D(2, 2, 1)
        from repro.tree.partition import greedy_partition
        tf1 = greedy_partition(solver.sf, 1)
        sim = Simulator(wrong.size, Machine.edison_like())
        with pytest.raises(ValueError, match="grid"):
            factor_3d(solver.sf, tf1, wrong, sim,
                      cached=solver.result.bundle)


class TestBoundSolveLifetime:
    """The solver binds each sweep shape once per factor arena and
    right-hand-side count: ``refactorize`` refills the arena in place and
    keeps the programs, a cold ``factorize`` (new arena) and a new
    ``nrhs`` rebind."""

    @pytest.fixture()
    def binds(self, monkeypatch):
        """``(down, lower) -> number of binds`` of the facades' sweeps."""
        import repro.solve.triangular as triangular
        counts: dict = {}
        real = triangular.bind

        def spy(plan, *args):
            key = (plan.down, plan.lower)
            counts[key] = counts.get(key, 0) + 1
            return real(plan, *args)
        monkeypatch.setattr(triangular, "bind", spy)
        return counts

    @pytest.mark.parametrize("cholesky", [False, True], ids=["lu", "chol"])
    def test_refactorize_rounds_bind_each_shape_once(self, stepping_pair,
                                                     binds, cholesky):
        from repro.cholesky import SparseCholesky3D
        A1, A2, g, n = stepping_pair
        cls = SparseCholesky3D if cholesky else SparseLU3D
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver = cls(A1, **kw).factorize()
        B = np.random.default_rng(4).standard_normal((n, 3))
        for r in range(4):
            A = A1 + (0.1 * r) * A2
            solver.refactorize(A)
            fresh = cls(A, **kw).factorize()
            assert np.array_equal(solver.solve(B), fresh.solve(B))
            if not cholesky:
                assert np.array_equal(solver.solve_transposed(B),
                                      fresh.solve_transposed(B))
        shapes = {(True, True), (False, True)} if cholesky else \
            {(True, True), (False, False), (True, False), (False, True)}
        # One bind per shape for ``solver``, one per fresh solver.
        assert binds == {k: 1 + 4 for k in shapes}

    def test_cold_factorize_and_new_nrhs_rebind(self, stepping_pair, binds):
        A1, A2, g, n = stepping_pair
        solver = SparseLU3D(A1, geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver.factorize()
        b = np.ones(n)
        solver.solve(b)
        solver.solve(2 * b)
        assert binds == {(True, True): 1, (False, False): 1}
        solver.solve(np.ones((n, 2)))           # a new nrhs
        assert binds == {(True, True): 2, (False, False): 2}
        solver.solve(b)                          # and back
        assert binds == {(True, True): 3, (False, False): 3}
        solver.refactorize(A2)
        solver.solve(b)
        assert binds == {(True, True): 3, (False, False): 3}
        solver.analyze().factorize()            # a new arena
        x = solver.solve(b)
        assert binds == {(True, True): 4, (False, False): 4}
        assert np.linalg.norm(A2 @ x - b) / np.linalg.norm(b) < 1e-12


class TestCholeskyRefactorize:
    def test_spd_pattern_reuse(self, stepping_pair):
        from repro.cholesky import SparseCholesky3D
        A1, A2, g, n = stepping_pair
        solver = SparseCholesky3D(A1, geometry=g, px=2, py=2, pz=2,
                                  leaf_size=24)
        solver.factorize()
        sf = solver.sf
        solver.refactorize(A2)
        assert solver.sf is sf
        b = np.ones(n)
        x = solver.solve(b)
        assert np.linalg.norm(A2 @ x - b) / np.linalg.norm(b) < 1e-12

    def test_rejects_unsymmetric_update(self, stepping_pair):
        import scipy.sparse as sp
        from repro.cholesky import SparseCholesky3D
        A1, _, g, n = stepping_pair
        solver = SparseCholesky3D(A1, geometry=g, leaf_size=24)
        solver.factorize()
        bad = A1.tolil()
        bad[0, 1] = bad[0, 1] + 3.0
        with pytest.raises(ValueError, match="symmetric"):
            solver.refactorize(bad.tocsr())


class TestStalePartition:
    """A plan bundle is a function of the tree-forest partition too: it
    must refuse to replay under one it was not built for. Before the
    partition signature, ``factor_3d(sf, tf_naive, cached=bundle_greedy)``
    raised nothing, returned ``result.tf is tf_naive`` and booked the
    *greedy* ledger in cost-only mode, and died in ``bind`` with a bare
    ``KeyError: (0, 0)`` in numeric mode."""

    @staticmethod
    def setup():
        from repro.comm import ProcessGrid3D
        from repro.sparse import grid3d_7pt
        from repro.symbolic import symbolic_factorize
        from repro.tree import greedy_partition, naive_partition
        A, geom = grid3d_7pt(10)
        sf = symbolic_factorize(A, geom, leaf_size=8)
        tf_greedy, tf_naive = greedy_partition(sf, 2), naive_partition(sf, 2)
        assert (tf_greedy.node_forest != tf_naive.node_forest).any() \
            or (tf_greedy.node_level != tf_naive.node_level).any()
        return A, geom, sf, tf_greedy, tf_naive, ProcessGrid3D(2, 2, 2)

    @pytest.mark.parametrize("numeric", [False, True],
                             ids=["cost_only", "numeric"])
    def test_foreign_partition_refused(self, numeric):
        from repro.comm import Simulator
        from repro.lu3d import factor_3d
        _A, _g, sf, tf_greedy, tf_naive, grid3 = self.setup()
        ref = Simulator(grid3.size)
        factor_3d(sf, tf_naive, grid3, ref, numeric=numeric)
        bundle = factor_3d(sf, tf_greedy, grid3, Simulator(grid3.size),
                           numeric=numeric).bundle
        sim = Simulator(grid3.size)
        with pytest.raises(ValueError,
                           match="different tree-forest partition"):
            factor_3d(sf, tf_naive, grid3, sim, numeric=numeric,
                      cached=bundle)
        assert not any(sim.clock) and not any(sim.mem_peak)
        # It still replays its own partition, bit for bit, and the naive
        # partition's own bundle books the cold naive ledger.
        cold, warm = Simulator(grid3.size), Simulator(grid3.size)
        res = factor_3d(sf, tf_greedy, grid3, cold, numeric=numeric)
        factor_3d(sf, tf_greedy, grid3, warm, numeric=numeric, cached=bundle)
        assert ledger_state(cold) == ledger_state(warm)
        assert ledger_state(cold) != ledger_state(ref)
        assert res.bundle.plan3.partition_sig == bundle.plan3.partition_sig

    def test_signature_is_the_partition(self):
        from repro.plan import partition_signature
        from repro.tree import greedy_partition
        _A, _g, sf, tf_greedy, tf_naive, _grid3 = self.setup()
        assert partition_signature(tf_greedy) != partition_signature(tf_naive)
        assert partition_signature(tf_greedy) == \
            partition_signature(greedy_partition(sf, 2))
        assert partition_signature(tf_greedy)[0] == 2
        assert partition_signature(greedy_partition(sf, 4)) != \
            partition_signature(tf_greedy)

    def test_facade_rebuilds_cold_under_a_new_partition(self):
        A, geom, _sf, _tg, _tn, _grid3 = self.setup()
        from repro.tree import naive_partition
        s = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=8)
        s.factorize()
        stale = s._bundle
        assert s._usable_bundle() is stale
        s.tf = naive_partition(s.sf, 2)
        assert s._usable_bundle() is None
        x = s.factorize().solve(np.ones(A.shape[0]))
        assert s._bundle is not stale
        assert np.linalg.norm(A @ x - 1.0) <= 1e-10 * np.sqrt(A.shape[0])


class TestSameStructureRefill:
    """A matrix with the structure (``indptr`` / ``indices``) of the one
    before it is refilled through the bundle's value map — one indexed
    copy, no permutation, no pattern comparison — and factors exactly as a
    cold factorization does (SuperLU_DIST's ``SamePattern_SameRowPerm``)."""

    @staticmethod
    def assert_cold(solver):
        """The solver's factors and ledger are those of a cold
        ``factor_3d`` of its matrix, permuted, on its own analysis."""
        from repro import Simulator
        from repro.lu3d import factor_3d
        sf = solver.sf
        sim = Simulator(solver.grid.size, solver.machine)
        cold = factor_3d(sf, solver.tf, solver.grid, sim,
                         options=solver.options, backend=solver.backend,
                         matrix=sf.perm.apply_matrix(solver._A_work))
        got, want = solver.result.factors().blocks, cold.factors().blocks
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)
        assert ledger_state(solver.sim) == ledger_state(sim)

    @pytest.fixture()
    def spies(self, monkeypatch):
        """Calls of the permutation and of the containment check."""
        import repro.solve.driver as driver
        from repro.ordering.permutation import Permutation
        calls = {"permute": 0, "contain": 0}

        def counted(name, real):
            def spy(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return spy
        monkeypatch.setattr(Permutation, "apply_matrix", counted(
            "permute", Permutation.apply_matrix))
        monkeypatch.setattr(driver, "outside_pattern", counted(
            "contain", driver.outside_pattern))
        return calls

    def test_second_refactorize_permutes_and_compares_nothing(
            self, stepping_pair, spies):
        A1, A2, g, _n = stepping_pair
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver = SparseLU3D(A1, **kw).factorize()
        vmap = solver._bundle.value_map
        solver.refactorize(A2)
        assert spies["contain"] == 1
        before = dict(spies)
        A3 = A2.copy()
        A3.data = A3.data * 1.5
        solver.refactorize(A3)
        assert spies == before
        assert solver._bundle.value_map == vmap
        self.assert_cold(solver)

    @pytest.mark.parametrize("cholesky", [False, True], ids=["lu", "chol"])
    def test_no_stale_map(self, stepping_pair, cholesky):
        """The analyzed pattern, a sub-pattern, the analyzed pattern
        again: each refill equals a cold factorization."""
        from repro.cholesky import SparseCholesky3D
        A1, A2, g, n = stepping_pair
        cls = SparseCholesky3D if cholesky else SparseLU3D
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24)
        solver = cls(A1, **kw).factorize()
        C = A2.tocoo()
        keep = np.abs(C.row - C.col) != 1       # drops a symmetric subset
        sub = sp.csr_matrix((C.data[keep], (C.row[keep], C.col[keep])),
                            shape=(n, n))
        for A in (A2, sub, 2.0 * A2):
            solver.refactorize(A.tocsr())
            self.assert_cold(solver)

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    @pytest.mark.parametrize("label,opts", INTERACTION_MODES,
                             ids=[m[0] for m in INTERACTION_MODES])
    def test_symbolic_objects_stay_untouched(self, stepping_pair, backend,
                                             label, opts):
        """No facade writes ``sf``: ``sf.A_perm`` stays the analyzed
        matrix, and a ``factorize()`` after a refill reads the values
        through the map — the refill's factors and ledger again."""
        from repro.cholesky import SparseCholesky3D
        A1, A2, g, _n = stepping_pair
        cls = SparseCholesky3D if backend == "cholesky" else SparseLU3D
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24, options=opts)
        solver = cls(A1, **kw).factorize()
        A_perm = solver.sf.A_perm
        analyzed = A_perm.copy()
        for A in (A2, 2.0 * A2):
            solver.refactorize(A.tocsr())
        assert solver.sf.A_perm is A_perm
        assert (A_perm != analyzed).nnz == 0
        self.assert_cold(solver)
        solver.factorize()
        self.assert_cold(solver)

    def test_a_map_is_rebuilt_for_another_arena_index(self):
        """A bundle's map of one structure onto the drivers' packed arena
        is not reused on a full-height ``BlockMatrix.from_csr`` arena of
        the same layout: a replay there factors as a fresh bundle does,
        with no perturbed pivot (the stale map scattered the values to the
        packed arena's offsets)."""
        from repro import ProcessGrid3D, Simulator
        from repro.lu3d import factor_3d
        from repro.lu3d.replication import ReplicaManager
        from repro.sparse import BlockMatrix
        from repro.symbolic import symbolic_factorize
        from repro.tree import greedy_partition
        from tests.test_plan import _range_case
        A, geom = _range_case("kkt_like", "lu")
        sf = symbolic_factorize(A, geom, leaf_size=8)
        tf, grid3 = greedy_partition(sf, 2), ProcessGrid3D(2, 1, 2)
        cold = factor_3d(sf, tf, grid3, Simulator(grid3.size))
        runs = [factor_3d(sf, tf, grid3, Simulator(grid3.size),
                          cached=bundle, replicas=ReplicaManager(
                              sf, tf, BlockMatrix.from_csr(sf.A_perm,
                                                           sf.layout)))
                for bundle in (cold.bundle, None)]
        assert [r.perturbed_pivots for r in runs] == [0, 0]
        assert np.array_equal(*(r.factors().to_dense() for r in runs))

    def test_equilibrated_refills_match_cold(self, stepping_pair):
        A1, A2, g, _n = stepping_pair
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=24, equil=True)
        solver = SparseLU3D(A1, **kw).factorize()
        for A in (A2, 3.0 * A2):
            solver.refactorize(A.tocsr())
            self.assert_cold(solver)


def _duplicated_diagonal(A):
    """``A`` with every diagonal entry stored twice, as two halves: the
    same matrix, in a CSR scipy sums on conversion but a raw walk of
    ``indptr`` / ``indices`` / ``data`` does not."""
    C, n = A.tocoo(), A.shape[0]
    off = C.row != C.col
    d = A.diagonal() / 2
    rows = np.concatenate([C.row[off], np.arange(n), np.arange(n)])
    cols = np.concatenate([C.col[off], np.arange(n), np.arange(n)])
    vals = np.concatenate([C.data[off], d, d])
    o = np.lexsort((cols, rows))
    D = sp.csr_matrix((vals[o], cols[o], np.searchsorted(
        rows[o], np.arange(n + 1))), shape=A.shape)
    assert not D.has_canonical_format and D.nnz == A.nnz + n
    assert abs(D - A).max() == 0
    return D


class TestDuplicateEntries:
    """A CSR that stores one position twice is the matrix with the sum
    there; the input boundary (``check_square_sparse``) canonicalizes a
    copy, so every path factors the matrix the caller means."""

    @pytest.fixture()
    def case(self):
        A, g = grid2d_5pt(8)
        return A.tocsr(), _duplicated_diagonal(A), g, \
            np.random.default_rng(2).random(A.shape[0])

    @staticmethod
    def assert_same(x, want):
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("equil", [False, True])
    def test_lu(self, case, equil):
        A, D, g, b = case
        kw = dict(geometry=g, px=1, py=1, pz=1, equil=equil)
        nnz = D.nnz
        s = SparseLU3D(D, **kw).factorize()
        self.assert_same(s.solve(b), SparseLU3D(A, **kw).factorize().solve(b))
        assert s.last_refinement.converged
        assert D.nnz == nnz and not D.has_canonical_format  # not mutated

    def test_refactorize(self, case):
        A, D, g, b = case
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=16)
        s = SparseLU3D(A, **kw).factorize()
        want = s.solve(b)
        s.refactorize(2.0 * A)
        self.assert_same(s.refactorize(D).solve(b), want)

    def test_cholesky(self, case):
        from repro.cholesky import SparseCholesky3D
        A, D, g, b = case
        kw = dict(geometry=g, px=2, py=1, pz=2, leaf_size=16)
        self.assert_same(SparseCholesky3D(D, **kw).factorize().solve(b),
                         SparseCholesky3D(A, **kw).factorize().solve(b))

    def test_service(self, case):
        from repro.service import FactorizationService
        A, D, _g, b = case
        with FactorizationService(px=2, py=2, pz=2, leaf_size=16,
                                  max_workers=1) as svc:
            want = svc.solve(A, b).x
            dup = svc.solve(D, b)
        assert dup.cache_hit
        self.assert_same(dup.x, want)
