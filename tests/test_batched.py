"""Equivalence tests: pair-cost booking and vectorized ledger paths.

The vectorized paths (``Simulator.book`` over the per-pair Schur cost
arrays, a broadcast's flattened pairs) are performance rewrites of the
per-event loops; these tests pin down the contract that makes them safe —
simulator ledgers *bit-for-bit* identical to the per-event referee
(``tests/conftest.py::EventByEvent``), fed by a per-pair reference loop
written out here, and factors that do not depend on whether a run is
traced.
"""

import numpy as np
import pytest

from repro.analysis import Trace
from repro.comm import (CommError, ProcessGrid2D, ProcessGrid3D, Simulator,
                        UniformTopology)
from repro.lu2d.batched import schur_pairs, syrk_pairs
from repro.lu3d import factor_3d, replica_words_per_rank
from repro.plan import build_grid_plan, execute_grid_plan
from repro.sparse import delaunay_mesh_2d, grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from tests.conftest import EventByEvent, bcast_stream, computes, one_layer


def ledger_snapshot(sim: Simulator) -> dict[str, np.ndarray]:
    """Every per-rank ledger array, copied."""
    snap = {
        "clock": sim.clock.copy(),
        "mem_current": sim.mem_current.copy(),
        "mem_peak": sim.mem_peak.copy(),
    }
    for k, v in sim.flops.items():
        snap[f"flops/{k}"] = v.copy()
    for k, v in sim.t_compute.items():
        snap[f"t_compute/{k}"] = v.copy()
    for p in sim.words_sent:
        snap[f"words_sent/{p}"] = sim.words_sent[p].copy()
        snap[f"words_recv/{p}"] = sim.words_recv[p].copy()
        snap[f"msgs_sent/{p}"] = sim.msgs_sent[p].copy()
        snap[f"msgs_recv/{p}"] = sim.msgs_recv[p].copy()
    return snap


def assert_ledgers_identical(sim_a: Simulator, sim_b: Simulator) -> None:
    """Bitwise equality of every ledger array (no tolerances)."""
    a, b = ledger_snapshot(sim_a), ledger_snapshot(sim_b)
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), f"ledger mismatch: {key}"
    assert dict(sim_a.event_counts) == dict(sim_b.event_counts)


def _fixtures():
    A, g = grid3d_7pt(7)
    yield "grid3d", A, g
    A, g = delaunay_mesh_2d(150, seed=3)
    yield "delaunay", A, g


def _book_lu_pairs_per_event(sim, sf, grid, k) -> int:
    """The reference: one ``compute`` per (i, j) pair, row-major."""
    sizes = sf.layout.sizes()
    s = int(sizes[k])
    n = 0
    for i in sf.fill.lpanel[k]:
        si = int(sizes[int(i)])
        for j in sf.fill.upanel[k]:
            sj = int(sizes[int(j)])
            sim.compute(grid.owner(int(i), int(j)), 2.0 * si * s * sj,
                        "schur", n_block_updates=1)
            n += 1
    return n


def _book_chol_pairs_per_event(sim, sf, grid, k) -> int:
    """Lower-triangle pairs: SYRK cost on the diagonal, GEMM cost below."""
    sizes = sf.layout.sizes()
    s = int(sizes[k])
    lp = [int(i) for i in sf.fill.lpanel[k]]
    n = 0
    for a, i in enumerate(lp):
        si = int(sizes[i])
        for j in lp[:a + 1]:
            sj = int(sizes[j])
            flops = float(si * s * sj) if i == j else 2.0 * si * s * sj
            sim.compute(grid.owner(i, j), flops, "schur", n_block_updates=1)
            n += 1
    return n


def _one(x) -> np.ndarray:
    return np.asarray([x], dtype=np.int64)


def schur_pair_costs(k, lp, up, sizes, grid):
    """``schur_pairs`` of the one node ``k``: ``(owners, flops)``."""
    lp, up = np.asarray(lp, dtype=np.int64), np.asarray(up, dtype=np.int64)
    return schur_pairs(_one(sizes[k]), _one(0), _one(lp.size), lp, _one(0),
                       _one(up.size), up, sizes, grid)[1:]


def syrk_pair_costs(k, lp, sizes, grid):
    """``syrk_pairs`` of the one node ``k``: ``(owners, flops)``."""
    lp = np.asarray(lp, dtype=np.int64)
    return syrk_pairs(_one(sizes[k]), _one(0), _one(lp.size), lp, sizes,
                      grid)[1:]


class TestPairCostBooking:
    """``book`` over the pair-cost arrays == per-event booking."""

    def test_node_lists_concatenate_the_one_node_arrays(self):
        """What the plan builder calls: a whole node list at once, any
        order, empty panels included."""
        A, g = grid3d_7pt(6)
        sf = symbolic_factorize(A, g, leaf_size=24)
        grid = ProcessGrid2D(2, 3, base=6)
        sizes = sf.layout.sizes()
        lp_ptr, lp_idx, up_ptr, up_idx = sf.fill.panel_csr()
        ks = np.arange(sf.nb)[::-1].copy()
        nl, nu = np.diff(lp_ptr)[ks], np.diff(up_ptr)[ks]
        for got, one in (
                (schur_pairs(sizes[ks], lp_ptr[ks], nl, lp_idx, up_ptr[ks],
                             nu, up_idx, sizes, grid),
                 lambda k: schur_pair_costs(k, sf.fill.lpanel[k],
                                            sf.fill.upanel[k], sizes, grid)),
                (syrk_pairs(sizes[ks], lp_ptr[ks], nl, lp_idx, sizes, grid),
                 lambda k: syrk_pair_costs(k, sf.fill.lpanel[k], sizes,
                                           grid))):
            want = [one(int(k)) for k in ks]
            assert got[0].tolist() == [o.size for o, _f in want]
            assert got[0].sum() > 0 and 0 in got[0]
            assert got[1].tolist() == np.concatenate(
                [o for o, _f in want]).tolist()
            assert got[2].tolist() == np.concatenate(
                [f for _o, f in want]).tolist()

    @pytest.mark.parametrize("name,A,geom", list(_fixtures()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_lu_pair_costs_match_loop(self, name, A, geom):
        sf = symbolic_factorize(A, geom, leaf_size=24)
        grid = ProcessGrid2D(2, 2)
        sizes = sf.layout.sizes()
        sim_loop, sim_batch = EventByEvent(4), Simulator(4)
        total = 0
        for k in range(sf.nb):
            n = _book_lu_pairs_per_event(sim_loop, sf, grid, k)
            owners, flops = schur_pair_costs(
                k, sf.fill.lpanel[k], sf.fill.upanel[k], sizes, grid)
            assert owners.size == flops.size == n
            sim_batch.book(computes(owners, flops, "schur",
                                    n_block_updates=1))
            total += n
        assert total > 0
        assert_ledgers_identical(sim_loop, sim_batch)

    def test_chol_pair_costs_match_loop(self):
        A, g = grid2d_5pt(14)
        sf = symbolic_factorize(A, g, leaf_size=24)
        grid = ProcessGrid2D(2, 2)
        sizes = sf.layout.sizes()
        sim_loop, sim_batch = EventByEvent(4), Simulator(4)
        for k in range(sf.nb):
            n = _book_chol_pairs_per_event(sim_loop, sf, grid, k)
            owners, flops = syrk_pair_costs(k, sf.fill.lpanel[k], sizes, grid)
            assert owners.size == n
            sim_batch.book(computes(owners, flops, "schur",
                                    n_block_updates=1))
        assert_ledgers_identical(sim_loop, sim_batch)

    def test_empty_panels_book_nothing(self):
        grid = ProcessGrid2D(2, 2)
        sizes = np.array([3, 4, 5])
        for owners, flops in (schur_pair_costs(0, [], [1, 2], sizes, grid),
                              schur_pair_costs(0, [1], [], sizes, grid),
                              syrk_pair_costs(0, [], sizes, grid)):
            assert owners.size == flops.size == 0


def _sim(nranks: int, traced: bool) -> Simulator:
    """A traced simulator: its rows ride the same booking loop, so its
    ledger must be the untraced one's."""
    return Simulator(nranks, trace=Trace() if traced else None)


class TestFactor2DEquivalence:
    @pytest.mark.parametrize("name,A,geom", list(_fixtures()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_batched_booking_matches_per_event(self, name, A, geom):
        """Same factors and bit-identical ledgers on both booking paths."""
        sf = symbolic_factorize(A, geom, leaf_size=24)
        runs = {}
        for traced in (True, False):
            sim = _sim(4, traced)
            res = factor_3d(sf, *one_layer(sf, 2, 2), sim)
            runs[traced] = (res.factors().to_dense(), sim, res)
        dense_loop, sim_loop, res_loop = runs[True]
        dense_bat, sim_bat, res_bat = runs[False]
        scale = np.abs(dense_loop).max()
        assert np.allclose(dense_bat, dense_loop, atol=1e-12 * max(scale, 1))
        assert_ledgers_identical(sim_loop, sim_bat)
        assert res_bat.schur_block_updates == res_loop.schur_block_updates

    def test_cost_only_ledgers_identical(self):
        A, g = grid2d_5pt(14)
        sf = symbolic_factorize(A, g, leaf_size=24)
        sims = {}
        for traced in (True, False):
            sims[traced] = _sim(4, traced)
            factor_3d(sf, *one_layer(sf, 2, 2), sims[traced], numeric=False)
        assert_ledgers_identical(sims[True], sims[False])

    def test_event_counts_match_result_counters(self):
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=24)
        sim = Simulator(4)
        res = factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
        assert sim.event_counts["schur"] == res.schur_block_updates
        assert sim.event_counts["diag"] == sf.nb    # one panel step each
        assert sim.event_counts["send"] == sim.event_counts["recv"]
        assert sim.event_counts["send"] > 0


class TestFactor3DEquivalence:
    def test_batched_booking_matches_per_event_3d(self):
        A, g = grid3d_7pt(8)
        sf = symbolic_factorize(A, g, leaf_size=32)
        tf = greedy_partition(sf, 2)
        runs = {}
        for traced in (True, False):
            sim = _sim(8, traced)
            res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), sim,
                            numeric=True)
            runs[traced] = (res.factors().to_dense(), sim, res)
        dense_loop, sim_loop, res_loop = runs[True]
        dense_bat, sim_bat, res_bat = runs[False]
        scale = np.abs(dense_loop).max()
        assert np.allclose(dense_bat, dense_loop, atol=1e-12 * max(scale, 1))
        assert_ledgers_identical(sim_loop, sim_bat)
        assert res_bat.schur_block_updates == res_loop.schur_block_updates


class TestCholeskyEquivalence:
    def test_batched_booking_matches_per_event_chol(self):
        A, g = grid2d_5pt(14)
        sf = symbolic_factorize(A, g, leaf_size=24)
        runs = {}
        for traced in (True, False):
            sim = _sim(4, traced)
            res = factor_3d(sf, *one_layer(sf, 2, 2), sim, backend="cholesky")
            runs[traced] = (res.factors().to_dense(), sim, res)
        dense_loop, sim_loop, res_loop = runs[True]
        dense_bat, sim_bat, res_bat = runs[False]
        scale = np.abs(dense_loop).max()
        assert np.allclose(np.tril(dense_bat), np.tril(dense_loop),
                           atol=1e-12 * max(scale, 1))
        assert_ledgers_identical(sim_loop, sim_bat)
        assert res_bat.schur_block_updates == res_loop.schur_block_updates


class TestComputeBatch:
    def test_matches_event_loop_bitwise(self):
        rng = np.random.default_rng(7)
        ranks = rng.integers(0, 6, size=200)
        flops = rng.random(200) * 1e7
        sim_loop, sim_batch = EventByEvent(6), Simulator(6)
        for r, f in zip(ranks, flops):
            sim_loop.compute(int(r), float(f), "schur", n_block_updates=1)
        sim_batch.book(computes(ranks, flops, "schur", n_block_updates=1))
        assert_ledgers_identical(sim_loop, sim_batch)

    def test_traced_fallback_matches(self):
        ranks = np.array([0, 1, 0, 2])
        flops = np.array([1e6, 2e6, 3e6, 4e6])
        sims = [EventByEvent(3, trace=Trace()), Simulator(3, trace=Trace())]
        for r, f in zip(ranks, flops):
            sims[0].compute(int(r), float(f), "panel")
        sims[1].book(computes(ranks, flops, "panel"))
        assert_ledgers_identical(sims[0], sims[1])
        assert sims[0].trace.events == sims[1].trace.events

    def test_validation(self):
        sim = Simulator(4)
        with pytest.raises(CommError):
            sim.book(computes([4], [1.0], "schur"))
        with pytest.raises(CommError):
            sim.book(computes([0], [-1.0], "schur"))
        sim.book(computes([], [], "schur"))  # empty batch is a no-op
        assert sim.clock.max() == 0.0


class TestClosedFormBcast:
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    def test_matches_event_path(self, p):
        """Under a topology of identical link costs the array path books
        the per-event referee's ledger."""
        sim_cf = Simulator(16, topology=UniformTopology())
        sim_ev = EventByEvent(16, topology=UniformTopology())
        ranks = list(range(3, 3 + p))
        for root in (ranks[0], ranks[-1], ranks[p // 2]):
            for sim in (sim_cf, sim_ev):
                sim.book(bcast_stream(root, ranks, 512.0))
        assert_ledgers_identical(sim_cf, sim_ev)

    def test_traced_run_takes_event_path(self):
        """A traced broadcast on the array path records the events the
        per-event path records."""
        sim, ref = Simulator(4, trace=Trace()), EventByEvent(4, trace=Trace())
        for s in (sim, ref):
            s.book(bcast_stream(0, [0, 1, 2, 3], 64.0))
        kinds = {ev.kind for ev in sim.trace.events}
        assert "send" in kinds and sim.trace.events == ref.trace.events

    def test_conservation(self):
        sim = Simulator(8)
        sim.book(bcast_stream(2, list(range(8)), 100.0))
        ws = sim.words_sent["fact"]
        wr = sim.words_recv["fact"]
        assert ws.sum() == wr.sum() == 700.0
        assert sim.event_counts["send"] == sim.event_counts["recv"] == 7


class TestBufferPeak:
    def test_excludes_static_storage(self):
        A, g = grid2d_5pt(14)
        sf = symbolic_factorize(A, g, leaf_size=24)
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(2, 2))
        static = replica_words_per_rank(sf, *one_layer(sf, 2, 2))

        def run(charge):
            sim = Simulator(4)
            if charge:
                sim.alloc_batch(np.arange(4), static)
            execute_grid_plan(plan, sim)
            return sim

        sim_charged, sim_plain = run(True), run(False)
        # Without static charges the memory ledger sees only the transient
        # receive buffers, all released by the end; static L/U storage,
        # charged first and held, lifts each rank's peak by exactly its
        # own words.
        assert not sim_plain.mem_current.any()
        assert np.array_equal(sim_charged.mem_peak, sim_plain.mem_peak + static)
        assert 0 < sim_plain.mem_peak.max() < sim_charged.mem_peak.max()


class TestGridMemoization:
    def test_owner_map_matches_owner(self):
        grid = ProcessGrid2D(3, 5, base=11)
        rows = np.array([0, 2, 7, 9])
        cols = np.array([1, 4, 5])
        om = grid.owner_map(rows, cols)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert om[a, b] == grid.owner(int(i), int(j))

    def test_row_col_ranks_memoized(self):
        grid = ProcessGrid2D(2, 3)
        assert grid.row_ranks(0) is grid.row_ranks(2)
        assert grid.col_ranks(1) is grid.col_ranks(4)
        assert grid.row_ranks(1) == [grid.rank(1, pj) for pj in range(3)]
        assert grid.col_ranks(2) == [grid.rank(pi, 2) for pi in range(2)]
