"""Tests for the network topology models and their simulator integration."""

import numpy as np
import pytest

from repro.comm import (
    DragonflyTopology,
    Machine,
    ProcessGrid3D,
    Simulator,
    Torus3D,
    UniformTopology,
)
from repro.comm.stream import EventStream
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition


class TestUniform:
    def test_factors_are_one(self):
        t = UniformTopology()
        assert t.latency_factor(0, 99) == 1.0
        assert t.bandwidth_factor(3, 7) == 1.0

    def test_none_equals_uniform(self):
        """topology=None and UniformTopology give identical clocks."""
        a = Simulator(4)
        b = Simulator(4, topology=UniformTopology())
        for sim in (a, b):
            sim.book(EventStream.pairs([0], [3], [12345]))
        assert np.allclose(a.clock, b.clock)


class TestDragonfly:
    def test_tier_classification(self):
        t = DragonflyTopology(ranks_per_node=4, nodes_per_group=2)
        assert t._tier(0, 3) == 0      # same node
        assert t._tier(0, 5) == 1      # same group, different node
        assert t._tier(0, 9) == 2      # different group

    def test_cost_ordering(self):
        t = DragonflyTopology(ranks_per_node=4, nodes_per_group=2)
        lat = [t.latency_factor(0, d) for d in (1, 5, 9)]
        assert lat[0] < lat[1] < lat[2]

    def test_simulator_costs_follow_tiers(self):
        t = DragonflyTopology(ranks_per_node=4, nodes_per_group=2)
        times = []
        for dst in (1, 5, 9):
            sim = Simulator(16, topology=t)
            sim.book(EventStream.pairs([0], [dst], [1000]))
            times.append(sim.clock[dst])
        assert times[0] < times[1] < times[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DragonflyTopology(ranks_per_node=0)
        with pytest.raises(ValueError):
            DragonflyTopology(node_latency=0.0)


class TestTorus:
    def test_coords_roundtrip(self):
        t = Torus3D(3, 4, 5)
        for r in (0, 17, 59):
            x, y, z = t.coords(r)
            assert (x * 4 + y) * 5 + z == r

    def test_periodic_hops(self):
        t = Torus3D(4, 4, 4)
        # Opposite corner wraps: 2+2+2, not 3+3+3.
        assert t.hops(0, t.size - 1) <= 6
        assert t.hops(5, 5) == 0
        # Neighbors are one hop.
        assert t.hops(0, 1) == 1

    def test_symmetric(self):
        t = Torus3D(3, 5, 2)
        for a, b in ((0, 17), (4, 29), (1, 2)):
            assert t.hops(a, b) == t.hops(b, a)

    def test_latency_grows_with_distance(self):
        t = Torus3D(8, 8, 8)
        assert t.latency_factor(0, 1) < t.latency_factor(0, 255)


@pytest.mark.parametrize("topo", [
    UniformTopology(),
    DragonflyTopology(ranks_per_node=4, nodes_per_group=2),
    DragonflyTopology(),
    Torus3D(2, 3, 4),
    Torus3D(3, 2, 2),
], ids=["uniform", "dragonfly", "dragonfly-default", "torus", "torus-wraps"])
def test_array_form_is_the_scalar_form(topo):
    """``Simulator.book`` prices a slice's messages with the array form
    and ``Simulator.send`` one message with the scalar form: the same
    factor for every pair of 64 ranks, and the rank arrays untouched."""
    src, dst = (a.ravel() for a in np.meshgrid(np.arange(64), np.arange(64)))
    keep = src.copy(), dst.copy()
    for name in ("latency_factor", "bandwidth_factor"):
        f = getattr(topo, name)
        got = np.broadcast_to(f(src, dst), src.shape)
        assert got.tolist() == [f(s, d) for s, d in zip(src.tolist(),
                                                         dst.tolist())]
    assert np.array_equal(src, keep[0]) and np.array_equal(dst, keep[1])


class TestConclusionsRobustToTopology:
    """The paper-footnote check: the 3D-vs-2D win must survive a
    non-uniform network (volumes are identical by construction; only the
    modeled times shift)."""

    @pytest.mark.parametrize("topo", [
        None,
        DragonflyTopology(ranks_per_node=6, nodes_per_group=4),
        Torus3D(4, 2, 2),
    ])
    def test_3d_still_beats_2d(self, topo):
        A, g = grid2d_5pt(24)
        sf = symbolic_factorize(A, g, leaf_size=16)
        times = {}
        for pz, (px, py) in [(1, (4, 4)), (4, (2, 2))]:
            tf = greedy_partition(sf, pz)
            sim = Simulator(16, Machine.edison_like(), topology=topo)
            factor_3d(sf, tf, ProcessGrid3D(px, py, pz), sim, numeric=False)
            times[pz] = sim.makespan
        assert times[4] < times[1]

    def test_volumes_topology_invariant(self):
        """Topology changes time, never the ledger volumes."""
        A, g = grid2d_5pt(16)
        sf = symbolic_factorize(A, g, leaf_size=16)
        tf = greedy_partition(sf, 2)
        vols = []
        for topo in (None, DragonflyTopology(), Torus3D(2, 2, 2)):
            sim = Simulator(8, topology=topo)
            factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), sim, numeric=False)
            vols.append((sim.total_words_sent(), sim.msgs_per_rank().sum()))
        assert vols[0] == vols[1] == vols[2]
