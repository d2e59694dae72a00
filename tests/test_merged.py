"""Tests for the merged-grid ancestor extension."""

import numpy as np
import pytest

from repro.analysis import FactorizationMetrics
from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu3d import factor_3d
from repro.plan import build_3d_plan
from repro.plan.build import _merged_grid
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition


def _setup(nx=8, pz=4, px=1, py=2, brick=False):
    A, g = (grid3d_7pt(nx) if brick else grid2d_5pt(nx))
    sf = symbolic_factorize(A, g, leaf_size=16)
    tf = greedy_partition(sf, pz)
    grid3 = ProcessGrid3D(px, py, pz)
    return sf, tf, grid3


class TestMergedGrid:
    def test_merged_grid_spans_layers_exactly(self):
        grid3 = ProcessGrid3D(2, 3, 4)
        merged = _merged_grid(grid3, first_layer=2, nlayers=2)
        assert merged.all_ranks() == (grid3.layer(2).all_ranks()
                                      + grid3.layer(3).all_ranks())
        # Layer-local coordinates embed at the expected rows.
        assert merged.rank(0, 1) == grid3.layer(2).rank(0, 1)
        assert merged.rank(2, 1) == grid3.layer(3).rank(0, 1)

    def test_full_merge_is_whole_machine(self):
        grid3 = ProcessGrid3D(2, 2, 4)
        merged = _merged_grid(grid3, 0, 4)
        assert merged.size == grid3.size


class TestMergedSchedule:
    def test_flops_identical_to_standard(self):
        sf, tf, grid3 = _setup(16, pz=4)
        sims = {}
        for label in ("std", "merged"):
            sim = Simulator(grid3.size)
            if label == "std":
                factor_3d(sf, tf, grid3, sim, numeric=False)
            else:
                factor_3d(sf, tf, grid3, sim, numeric=False, merged=True)
            sims[label] = sim
        for kind in ("diag", "panel", "schur"):
            assert sims["std"].flops[kind].sum() == pytest.approx(
                sims["merged"].flops[kind].sum())

    def test_conservation_and_drained_queues(self):
        sf, tf, grid3 = _setup(16, pz=4)
        sim = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, sim, numeric=False, merged=True)
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.event_counts["send"] == sim.event_counts["recv"]

    def test_pz1_equals_standard(self):
        sf, tf, grid3 = _setup(12, pz=1, px=2, py=2)
        a = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, a, numeric=False)
        b = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, b, numeric=False, merged=True)
        assert np.allclose(a.clock, b.clock)
        assert a.total_words_sent() == pytest.approx(b.total_words_sent())

    def test_ancestor_work_spread_wider(self):
        """In merged mode, top-level flops land on ranks outside layer 0."""
        sf, tf, grid3 = _setup(10, pz=4, px=1, py=2, brick=True)
        std = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, std, numeric=False)
        mrg = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, mrg, numeric=False, merged=True)
        # Max per-rank diag flops drop when the top chain is distributed
        # over the merged grid.
        assert mrg.flops["diag"].max() <= std.flops["diag"].max()
        # Compute is spread more evenly overall.
        tot = lambda sim: sum(sim.flops[k] for k in ("diag", "panel", "schur"))
        assert tot(mrg).std() <= tot(std).std() * 1.001

    def test_numeric_mode_exact(self):
        """Merged-grid numeric execution produces the exact LU factors."""
        sf, tf, grid3 = _setup(16, pz=4)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                        numeric=True, merged=True)
        LU = res.factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        err = np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max()
        assert err < 1e-10

    def test_numeric_matches_standard_factors(self):
        """A merged grid plan binds to its first z-layer's replicas, so
        the merged factors are the standard driver's, bit for bit."""
        for nx, pz, brick in ((14, 1, False), (12, 2, False), (16, 4, False),
                              (20, 4, False), (6, 4, True), (24, 8, False),
                              (24, 16, False)):
            sf, tf, grid3 = _setup(nx, pz=pz, px=2, py=2, brick=brick)
            res_m = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                              numeric=True, merged=True)
            res_s = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                              numeric=True)
            assert np.array_equal(res_m.factors().to_dense(),
                                  res_s.factors().to_dense())

    def test_grid_plans_are_numbered_by_first_layer(self):
        """Grid plans and reduces share one numbering: z-layers. A merged
        plan's grids are the standard plan's, only on wider rank spans."""
        sf, tf, grid3 = _setup(16, pz=8, px=1, py=2)
        plans = {m: build_3d_plan(sf, tf, grid3, merged=m)
                 for m in (False, True)}
        for std, mrg in zip(plans[False].levels, plans[True].levels):
            assert [gp.g for gp in mrg.grid_plans] \
                == [gp.g for gp in std.grid_plans]
            assert all(gp.base == gp.g * grid3.pxy for gp in mrg.grid_plans)
            assert [(r.dst_grid, r.src_grid) for r in mrg.reduces] \
                == [(r.dst_grid, r.src_grid) for r in std.reduces]
            for r, q in zip(mrg.reduces, std.reduces):
                assert np.array_equal(r.rows, q.rows)
                assert np.array_equal(r.cols, q.cols)

    def test_factors_are_a_copy_of_the_home_replicas(self):
        """``factors()`` on a merged numeric run copies the home replicas;
        a cost-only run still has none."""
        sf, tf, grid3 = _setup(12, pz=2, px=2, py=2)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                        numeric=True, merged=True)
        F = res.factors()
        F[(0, 0)][:] = 0.0
        assert res.factors()[(0, 0)].any()
        cost = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                         numeric=False, merged=True)
        with pytest.raises(ValueError, match="cost-only run"):
            cost.factors()

    def test_merged_is_lu_only(self):
        """The merged variant has no Cholesky plan: the one entry refuses
        it rather than run it as LU under another name."""
        sf, tf, grid3 = _setup(8, pz=2)
        with pytest.raises(ValueError, match="LU only"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=False,
                      backend="cholesky", merged=True)

    def test_one_hop_form(self):
        """Every hop sends one reduce per block, ``right -> target``; only
        a merged hop adds moves, and only where the owner changes."""
        sf, tf, grid3 = _setup(12, pz=4, px=2, py=2)
        for merged in (False, True):
            reds = [r for s in build_3d_plan(sf, tf, grid3, merged=merged)
                    .levels for r in s.reduces]
            moves = np.concatenate([~r.adds for r in reds])
            assert moves.any() == merged
            for r in reds:
                assert r.adds.sum() == r.rows.size and r.adds[0]
                assert (r.srcs[~r.adds] != r.dsts[~r.adds]).all()

    def test_mismatched_pz_rejected(self):
        sf, tf, _ = _setup(8, pz=2)
        with pytest.raises(ValueError, match="pz"):
            factor_3d(sf, tf, ProcessGrid3D(1, 2, 4), Simulator(8),
                      numeric=False, merged=True)

    def test_helps_nonplanar_at_high_pz(self):
        sf, tf, grid3 = _setup(10, pz=8, px=1, py=2, brick=True)
        std = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, std, numeric=False)
        mrg = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, mrg, numeric=False, merged=True)
        m_std = FactorizationMetrics.from_simulator(std)
        m_mrg = FactorizationMetrics.from_simulator(mrg)
        assert m_mrg.t_scu < m_std.t_scu
