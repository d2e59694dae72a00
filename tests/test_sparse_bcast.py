"""Tests for sparsity-aware panel broadcasts (SuperLU's pruned BC trees)."""

import numpy as np
import pytest

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from tests.conftest import one_layer


def _run2d(A, geom, sparse_bcast, numeric=True, p=(4, 4), leaf=16):
    """The 2D baseline (Pz = 1) on a ``p`` grid."""
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    sim = Simulator(p[0] * p[1], Machine.edison_like())
    res = factor_3d(sf, *one_layer(sf, *p), sim, numeric=numeric,
                    options=FactorOptions(sparse_bcast=sparse_bcast))
    return sf, sim, res


class TestSparseBcast:
    def test_numerics_identical(self, planar_small):
        A, geom = planar_small
        outs = {}
        for sb in (False, True):
            _, _, res = _run2d(A, geom, sb)
            outs[sb] = res.factors().to_dense()
        assert np.array_equal(outs[False], outs[True])

    def test_volume_strictly_reduced(self, planar_small):
        A, geom = planar_small
        vols = {}
        for sb in (False, True):
            _, sim, _ = _run2d(A, geom, sb, numeric=False)
            vols[sb] = sim.total_words_sent()
        assert vols[True] < vols[False]

    def test_flops_unchanged(self, brick_small):
        A, geom = brick_small
        flops = {}
        for sb in (False, True):
            _, sim, _ = _run2d(A, geom, sb, numeric=False, leaf=32)
            flops[sb] = sum(sim.flops[k].sum()
                            for k in ("diag", "panel", "schur"))
        assert flops[True] == pytest.approx(flops[False])

    def test_conservation(self, planar_small):
        A, geom = planar_small
        _, sim, _ = _run2d(A, geom, True, numeric=False)
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.event_counts["send"] == sim.event_counts["recv"]

    def test_works_through_3d(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 2)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), Simulator(8),
                        options=FactorOptions(sparse_bcast=True))
        LU = res.factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        assert np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max() < 1e-10

    def test_single_rank_noop(self, planar_small):
        A, geom = planar_small
        _, sim, _ = _run2d(A, geom, True, numeric=False, p=(1, 1))
        assert sim.total_words_sent() == 0.0
