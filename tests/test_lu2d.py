"""Tests for the 2D baseline factorization — Algorithm 1 at ``Pz = 1``:
numerics, kernels, pipeline, ledgers."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Machine, Simulator
from repro.lu2d import (
    FactorOptions,
    getrf_nopiv,
    solve_lower_panel,
    solve_upper_panel,
)
from repro.lu3d import factor_3d, replica_words_per_rank
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from tests.conftest import one_layer


def _factor_and_error(A, geom, leaf_size=24, px=2, py=2, **kw):
    sf = symbolic_factorize(A, geom, leaf_size=leaf_size)
    sim = Simulator(px * py)
    res = factor_3d(sf, *one_layer(sf, px, py), sim, **kw)
    LU = res.factors().to_dense()
    n = sf.n
    L = np.tril(LU, -1) + np.eye(n)
    U = np.triu(LU)
    err = np.abs(L @ U - sf.A_perm.toarray()).max() / np.abs(A).max()
    return err, res, sim, sf


class TestKernels:
    @given(st.integers(min_value=1, max_value=90),
           st.integers(min_value=0, max_value=10000))
    @settings(max_examples=30, deadline=None)
    def test_getrf_nopiv_property(self, n, seed):
        """L @ U == A for diagonally dominant random blocks, incl. sizes
        straddling the recursion threshold."""
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) + n * np.eye(n)
        M = A.copy()
        perturbed = getrf_nopiv(M)
        assert perturbed == 0
        L = np.tril(M, -1) + np.eye(n)
        U = np.triu(M)
        assert np.allclose(L @ U, A, atol=1e-10 * n)

    def test_getrf_perturbs_zero_pivot(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 2] = 1.0
        M = A.copy()
        perturbed = getrf_nopiv(M, eps=1e-8)
        assert perturbed >= 1
        assert np.isfinite(M).all()

    def test_getrf_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            getrf_nopiv(np.zeros((2, 3)))

    def test_panel_solves_invert_correctly(self):
        rng = np.random.default_rng(1)
        s, m = 20, 7
        D = rng.random((s, s)) + s * np.eye(s)
        lu = D.copy()
        getrf_nopiv(lu)
        L = np.tril(lu, -1) + np.eye(s)
        U = np.triu(lu)
        B = rng.random((s, m))
        assert np.allclose(L @ solve_upper_panel(lu, B), B)
        C = rng.random((m, s))
        assert np.allclose(solve_lower_panel(lu, C) @ U, C)


class TestNumericCorrectness:
    def test_all_matrix_families(self, any_matrix):
        A, geom = any_matrix
        err, res, _, _ = _factor_and_error(A, geom)
        assert err < 1e-10
        assert res.perturbed_pivots == 0

    def test_various_grid_shapes(self, planar_small):
        A, geom = planar_small
        for px, py in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3)]:
            err, _, _, _ = _factor_and_error(A, geom, px=px, py=py)
            assert err < 1e-10

    def test_lookahead_does_not_change_numerics(self, planar_small):
        A, geom = planar_small
        e0, _, _, _ = _factor_and_error(A, geom,
                                        options=FactorOptions(lookahead=0))
        e8, _, _, _ = _factor_and_error(A, geom,
                                        options=FactorOptions(lookahead=8))
        assert e0 < 1e-10 and e8 < 1e-10

    def test_matches_scipy_dense_lu(self, planar_small):
        """Against scipy's pivoted LU via the solve route: both must solve
        the same permuted system."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        LU = factor_3d(sf, *one_layer(sf, 2, 2),
                       Simulator(4)).factors().to_dense()
        n = sf.n
        rng = np.random.default_rng(0)
        b = rng.random(n)
        y = la.solve_triangular(np.tril(LU, -1) + np.eye(n), b, lower=True)
        x = la.solve_triangular(np.triu(LU), y)
        x_ref = la.solve(sf.A_perm.toarray(), b)
        assert np.allclose(x, x_ref, atol=1e-8)


class TestScheduleAccounting:
    def test_flop_conservation(self, planar_small):
        """Executed flops must equal the symbolic totals, by kind."""
        A, geom = planar_small
        _, _, sim, sf = _factor_and_error(A, geom, leaf_size=16)
        assert sim.flops["diag"].sum() == pytest.approx(
            sf.costs.factor_flops.sum())
        assert sim.flops["panel"].sum() == pytest.approx(
            sf.costs.panel_flops.sum())
        assert sim.flops["schur"].sum() == pytest.approx(
            sf.costs.schur_flops.sum())

    def test_volume_conservation(self, any_matrix):
        A, geom = any_matrix
        _, _, sim, _ = _factor_and_error(A, geom)
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.event_counts["send"] == sim.event_counts["recv"]

    def test_single_rank_no_comm(self, planar_small):
        A, geom = planar_small
        _, _, sim, _ = _factor_and_error(A, geom, px=1, py=1)
        assert sim.total_words_sent() == 0.0

    def test_schur_updates_counted(self, planar_small):
        A, geom = planar_small
        _, res, _, sf = _factor_and_error(A, geom, leaf_size=16)
        expected = sum(len(sf.fill.lpanel[k]) * len(sf.fill.upanel[k])
                       for k in range(sf.nb))
        assert res.schur_block_updates == expected

    def test_memory_charged_matches_factor_words(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        sim = Simulator(4)
        factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
        from repro.comm.volume import volume_for
        expected = replica_words_per_rank(sf, *one_layer(sf, 2, 2),
                                          volume=volume_for(sf, None))
        # Peak >= static storage; current == static + no leaked buffers.
        assert (sim.mem_peak >= expected - 1e-9).all()
        assert np.allclose(sim.mem_current, expected)

    def test_buffers_all_freed(self, planar_small):
        A, geom = planar_small
        _, _, sim, sf = _factor_and_error(A, geom)
        from repro.comm.volume import volume_for
        static = replica_words_per_rank(sf, *one_layer(sf, 2, 2),
                                        volume=volume_for(sf, None))
        assert np.allclose(sim.mem_current, static)


class TestLookaheadPipeline:
    def test_lookahead_reduces_makespan(self):
        """Pipelining panel broadcasts must shorten the critical path on a
        communication-dominated configuration."""
        A, geom = grid2d_5pt(24)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        times = {}
        for w in (0, 8):
            sim = Simulator(16, Machine.edison_like())
            factor_3d(sf, *one_layer(sf, 4, 4), sim, numeric=False,
                      options=FactorOptions(lookahead=w))
            times[w] = sim.makespan
        assert times[8] < times[0]

    def test_lookahead_invariant_volume(self):
        """Pipelining reorders communication but moves the same words."""
        A, geom = grid2d_5pt(16)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        vols = []
        for w in (0, 4, 16):
            sim = Simulator(4)
            factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False,
                      options=FactorOptions(lookahead=w))
            vols.append(sim.total_words_sent())
        assert vols[0] == vols[1] == vols[2]

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FactorOptions(lookahead=-1)
        with pytest.raises(ValueError):
            FactorOptions(pivot_eps=0.0)
