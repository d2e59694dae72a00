"""Tests for the 3D sparse Cholesky extension (paper Section VII)."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cholesky import SparseCholesky3D, cholesky_node_blocks, \
    chol_panel_solve, potrf_shifted
from repro.lu2d.storage import node_blocks
from repro.solve import SparseLU3D
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize


def _spd_fixtures():
    return [grid2d_5pt(12), grid3d_7pt(6)]


class TestKernels:
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=5000))
    @settings(max_examples=25, deadline=None)
    def test_potrf_property(self, n, seed):
        rng = np.random.default_rng(seed)
        B = rng.random((n, n))
        A = B @ B.T + n * np.eye(n)
        L, nshift = potrf_shifted(A)
        assert nshift == 0
        assert np.allclose(L @ L.T, A, atol=1e-10 * n)
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_potrf_shifts_semidefinite(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0  # rank-1 PSD
        L, nshift = potrf_shifted(A, eps=1e-10)
        assert nshift >= 1
        assert np.isfinite(L).all()

    def test_potrf_gives_up_on_indefinite(self):
        A = -np.eye(4)
        with pytest.raises(scipy.linalg.LinAlgError, match="positive"):
            potrf_shifted(A, eps=1e-16, max_shifts=3)

    def test_panel_solve(self):
        rng = np.random.default_rng(1)
        s, m = 15, 6
        B = rng.random((s, s))
        L = np.linalg.cholesky(B @ B.T + s * np.eye(s))
        A_ik = rng.random((m, s))
        X = chol_panel_solve(L, A_ik)
        assert np.allclose(X @ L.T, A_ik)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            potrf_shifted(np.zeros((2, 3)))


class TestNodeBlocks:
    def test_lower_only_and_half_words(self):
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=16)
        for k in range(sf.nb):
            chol = cholesky_node_blocks(sf, k)
            full = node_blocks(sf, k)
            # Only diagonal + L panel.
            assert all(i >= j for i, j, _ in chol)
            assert len(chol) == 1 + len(sf.fill.lpanel[k])
            # Storage strictly less than LU's (no U panel, packed diag).
            assert sum(w for *_, w in chol) < sum(w for *_, w in full)


class TestNumericCorrectness:
    @pytest.mark.parametrize("pz", [1, 2, 4])
    def test_llt_reconstruction(self, pz):
        for A, g in _spd_fixtures():
            solver = SparseCholesky3D(A, geometry=g, px=2, py=2, pz=pz,
                                      leaf_size=24)
            solver.factorize()
            L = np.tril(solver.result.factors().to_dense())
            err = np.abs(L @ L.T - solver.sf.A_perm.toarray()).max()
            assert err < 1e-10 * np.abs(A).max()
            assert solver.result.perturbed_pivots == 0

    def test_solve_matches_scipy(self):
        A, g = grid2d_5pt(12)
        solver = SparseCholesky3D(A, geometry=g, px=2, py=2, pz=2,
                                  leaf_size=24)
        solver.factorize()
        b = np.arange(A.shape[0], dtype=float)
        x = solver.solve(b)
        x_ref = sp.linalg.spsolve(A.tocsc(), b)
        assert np.allclose(x, x_ref, atol=1e-8)

    def test_matches_lu_factor_diag(self):
        """Cholesky and LU factors of an SPD matrix agree: U = D L^T."""
        A, g = grid2d_5pt(10)
        chol = SparseCholesky3D(A, geometry=g, px=1, py=1, leaf_size=16)
        chol.factorize()
        lu = SparseLU3D(A, geometry=g, px=1, py=1, leaf_size=16)
        lu.factorize()
        Lc = np.tril(chol.result.factors().to_dense())
        LUd = lu.result.factors().to_dense()
        L_lu = np.tril(LUd, -1) + np.eye(A.shape[0])
        d = np.sqrt(np.diag(np.triu(LUd)))
        assert np.allclose(Lc, L_lu * d[np.newaxis, :], atol=1e-8)

    def test_rejects_unsymmetric(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            SparseCholesky3D(A)

    def test_cost_only_mode(self):
        A, g = grid2d_5pt(12)
        solver = SparseCholesky3D(A, geometry=g, px=2, py=2, pz=2,
                                  leaf_size=24, numeric=False)
        solver.factorize()
        assert solver.makespan > 0
        with pytest.raises(RuntimeError):
            solver.solve(np.ones(A.shape[0]))


class TestVsLU:
    """The extension's claims: half the flops, memory and reduction volume
    of LU on the same structure; comparable factorization volume."""

    def _pair(self, pz=4):
        A, g = grid2d_5pt(20)
        kw = dict(geometry=g, px=2, py=2, pz=pz, leaf_size=32)
        c = SparseCholesky3D(A, **kw)
        c.factorize()
        lu = SparseLU3D(A, **kw)
        lu.factorize()
        return c, lu

    def test_half_flops(self):
        c, lu = self._pair()
        fc = sum(f.sum() for f in c.sim.flops.values())
        fl = sum(f.sum() for f in lu.sim.flops.values())
        assert fc == pytest.approx(fl / 2, rel=0.1)

    def test_half_reduction_volume(self):
        c, lu = self._pair()
        assert c.comm_volume("red").sum() == pytest.approx(
            lu.comm_volume("red").sum() / 2, rel=0.1)

    def test_roughly_half_memory(self):
        c, lu = self._pair()
        ratio = c.sim.mem_current.sum() / lu.sim.mem_current.sum()
        assert 0.4 < ratio < 0.65

    def test_comparable_fact_volume(self):
        """Fan-out Cholesky broadcasts one panel twice where LU broadcasts
        two panels once each — volumes match to ~20%."""
        c, lu = self._pair()
        ratio = c.comm_volume("fact").sum() / lu.comm_volume("fact").sum()
        assert 0.8 < ratio < 1.25

    def test_same_3d_speedup_shape(self):
        """The 3D schedule benefits Cholesky like it benefits LU."""
        A, g = grid2d_5pt(24)
        times = {}
        for pz, (px, py) in [(1, (4, 2)), (4, (1, 2))]:
            s = SparseCholesky3D(A, geometry=g, px=px, py=py, pz=pz,
                                 leaf_size=24, numeric=False)
            s.factorize()
            times[pz] = s.makespan
        assert times[4] < times[1]

    def test_conservation(self):
        c, _ = self._pair()
        assert c.sim.total_words_sent() == pytest.approx(
            c.sim.total_words_recv())
        assert c.sim.event_counts["send"] == c.sim.event_counts["recv"]


class TestSolveLedger:
    """The Cholesky solve runs the shared sweeps of `repro.solve.triangular`
    (non-unit diagonal): its 1-RHS ledger is the one its former private
    sweeps booked, and ``nrhs`` right-hand sides scale it exactly as LU's."""

    @staticmethod
    def _solve(cls, nrhs):
        A, geom = grid2d_5pt(16)
        s = cls(A, geometry=geom, px=2, py=2, pz=2, leaf_size=32)
        s.factorize()
        t0 = s.sim.makespan
        b = np.ones(A.shape[0]) if nrhs == 1 else np.ones((A.shape[0], nrhs))
        x = s.solve(b, refine=False)
        assert np.abs(A @ x - b).max() < 1e-10
        return s.sim, s.sim.makespan - t0

    def test_one_rhs_ledger_is_the_historical_one(self):
        """Numbers recorded from the private ``_forward`` / ``_backward``
        sweeps the facade carried before they were folded into the shared
        ones (bit-for-bit: the ledger is deterministic arithmetic)."""
        sim, dt = self._solve(SparseCholesky3D, 1)
        assert sim.words_sent["solve"].tolist() == \
            [134.0, 157.0, 48.0, 122.0, 128.0, 162.0, 106.0, 128.0]
        assert sim.words_recv["solve"].tolist() == \
            [180.0, 122.0, 134.0, 143.0, 84.0, 112.0, 112.0, 98.0]
        assert sim.msgs_sent["solve"].tolist() == [10, 10, 4, 6, 5, 12, 6, 10]
        assert sim.msgs_recv["solve"].tolist() == [14, 6, 10, 10, 3, 8, 4, 8]
        assert sim.flops["solve"].tolist() == \
            [8346.0, 4056.0, 1024.0, 4265.0, 5040.0, 4368.0, 2464.0, 4214.0]
        assert sim.words_per_rank("solve").sum() == 1970.0
        assert dt == 3.107199999999999e-05

    def test_nrhs_scales_words_and_flops_not_messages(self):
        """Regression: the private sweeps ignored ``nrhs`` — a 4-RHS solve
        booked the 1-RHS volume (1,970 words where LU books 7,880)."""
        one, _ = self._solve(SparseCholesky3D, 1)
        four, _ = self._solve(SparseCholesky3D, 4)
        lu, _ = self._solve(SparseLU3D, 4)
        assert four.words_per_rank("solve").sum() == 7880.0
        for sim in (four, lu):
            assert np.array_equal(sim.words_per_rank("solve").sum(),
                                  4 * one.words_per_rank("solve").sum())
            assert sim.flops["solve"].sum() == 4 * one.flops["solve"].sum()
            assert sim.msgs_per_rank("solve").sum() == \
                one.msgs_per_rank("solve").sum()
        assert np.array_equal(four.words_sent["solve"],
                              4 * one.words_sent["solve"])
        assert np.array_equal(four.msgs_sent["solve"], one.msgs_sent["solve"])
