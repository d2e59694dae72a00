"""Tests for the parallel z-grid execution engine (repro.parallel).

The contract under test: fanning the independent per-level 2D
factorizations out to a worker pool changes *nothing observable* — every
simulator ledger is bit-for-bit identical to the serial schedule and the
numeric factors match to 1e-12 (they are in fact bit-identical, since the
workers run the same kernels on copies of the same data).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cholesky import factor_chol_3d
from repro.comm import CommError, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.comm.collectives import reduce_pairwise
from repro.comm.simulator import COMPUTE_KINDS, PHASES
from repro.lu2d.factor2d import FactorOptions
from repro.lu3d import factor_3d
from repro.lu3d.merged import factor_3d_merged
from repro.parallel import engine as engine_mod
from repro.parallel.engine import resolve_workers
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

PZ = 4


@pytest.fixture(scope="module")
def planar_setup():
    A, geom = grid2d_5pt(20)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    tf = greedy_partition(sf, PZ)
    return A, sf, tf


@pytest.fixture(scope="module")
def spd_setup():
    A, geom = grid2d_5pt(20)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=16)
    tf = greedy_partition(sf, PZ)
    return S, sf, tf


def _ledgers(sim):
    out = {"clock": sim.clock, "mem_current": sim.mem_current,
           "mem_peak": sim.mem_peak}
    for p in PHASES:
        out[f"ws:{p}"] = sim.words_sent[p]
        out[f"wr:{p}"] = sim.words_recv[p]
        out[f"ms:{p}"] = sim.msgs_sent[p]
        out[f"mr:{p}"] = sim.msgs_recv[p]
    for k in COMPUTE_KINDS:
        out[f"fl:{k}"] = sim.flops[k]
        out[f"tc:{k}"] = sim.t_compute[k]
    return out


def assert_ledgers_identical(sim_a, sim_b):
    la, lb = _ledgers(sim_a), _ledgers(sim_b)
    for key in la:
        assert np.array_equal(la[key], lb[key]), f"ledger {key} diverged"
    assert dict(sim_a.event_counts) == dict(sim_b.event_counts)


def _run_lu(sf, tf, numeric, opts):
    grid3 = ProcessGrid3D(2, 2, PZ)
    sim = Simulator(grid3.size)
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=opts)
    return sim, res


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_lu_numeric(self, planar_setup, n_workers):
        _, sf, tf = planar_setup
        sim_s, res_s = _run_lu(sf, tf, True, FactorOptions())
        sim_p, res_p = _run_lu(sf, tf, True,
                               FactorOptions(n_workers=n_workers))
        assert_ledgers_identical(sim_s, sim_p)
        delta = np.abs(res_s.factors().to_dense()
                       - res_p.factors().to_dense()).max()
        assert delta <= 1e-12
        assert res_s.perturbed_pivots == res_p.perturbed_pivots
        assert res_s.schur_block_updates == res_p.schur_block_updates
        assert res_s.per_level_makespan == res_p.per_level_makespan
        assert res_p.parallel_stats, "no level fanned out"

    def test_lu_cost_only(self, planar_setup):
        _, sf, tf = planar_setup
        sim_s, _ = _run_lu(sf, tf, False, FactorOptions())
        sim_p, res_p = _run_lu(sf, tf, False, FactorOptions(n_workers=2))
        assert_ledgers_identical(sim_s, sim_p)
        assert res_p.parallel_stats

    @pytest.mark.parametrize("numeric", [False, True])
    def test_merged(self, planar_setup, numeric):
        _, sf, tf = planar_setup
        runs = []
        for nw in (1, 2):
            grid3 = ProcessGrid3D(2, 2, PZ)
            sim = Simulator(grid3.size)
            res = factor_3d_merged(sf, tf, grid3, sim, numeric=numeric,
                                   options=FactorOptions(n_workers=nw))
            runs.append((sim, res))
        assert_ledgers_identical(runs[0][0], runs[1][0])
        if numeric:
            # The single global block copy is shared across sibling
            # forests, so numeric merged runs stay serial — and correct —
            # with the decision recorded instead of silent.
            serial, parallel = runs[0][1], runs[1][1]
            assert not serial.parallel_stats  # n_workers=1: nothing to say
            (fb,) = parallel.parallel_stats
            assert "global block copy" in fb.reason
            assert fb.requested_workers == 2
        else:
            assert runs[1][1].parallel_stats

    def test_cholesky_numeric(self, spd_setup):
        _, sf, tf = spd_setup
        runs = []
        for nw in (1, 2):
            grid3 = ProcessGrid3D(2, 2, PZ)
            sim = Simulator(grid3.size)
            res = factor_chol_3d(sf, tf, grid3, sim, numeric=True,
                                 options=FactorOptions(n_workers=nw))
            runs.append((sim, res))
        assert_ledgers_identical(runs[0][0], runs[1][0])
        delta = np.abs(runs[0][1].factors().to_dense()
                       - runs[1][1].factors().to_dense()).max()
        assert delta <= 1e-12
        assert runs[1][1].parallel_stats

    def test_stats_shape(self, planar_setup):
        _, sf, tf = planar_setup
        _, res = _run_lu(sf, tf, False, FactorOptions(n_workers=2))
        for st in res.parallel_stats:
            assert st.n_tasks >= 2
            assert st.wall_seconds > 0
            assert 0.0 <= st.serial_fraction <= 1.0


class TestEngineMachinery:
    def test_worker_error_propagates(self, planar_setup, monkeypatch):
        """A worker-side exception reaches the caller unchanged. The
        monkeypatched interpreter entry is inherited through fork."""
        from repro.plan import interpret

        def exploding(*args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(interpret, "execute_grid_plan", exploding)
        _, sf, tf = planar_setup
        grid3 = ProcessGrid3D(2, 2, PZ)
        sim = Simulator(grid3.size)
        with pytest.raises(RuntimeError, match="worker exploded"):
            factor_3d(sf, tf, grid3, sim, numeric=False,
                      options=FactorOptions(n_workers=2))

    def test_n_workers_1_spawns_no_pool(self, planar_setup, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("pool spawned for n_workers=1")
        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", boom)
        _, sf, tf = planar_setup
        grid3 = ProcessGrid3D(2, 2, PZ)
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=False,
                        options=FactorOptions(n_workers=1))
        assert not res.parallel_stats

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            FactorOptions(n_workers=-2)


class TestForkMerge:
    def test_fork_merge_roundtrip(self):
        sim = Simulator(8)
        sim.compute(1, 100.0, "schur")
        sim.sendrecv(0, 1, 50.0)
        sub = sim.fork([0, 1, 2, 3])
        assert sub.clock[1] == sim.clock[1]
        sub.compute(2, 10.0, "panel")
        sub.sendrecv(2, 3, 5.0)
        delta = sub.extract_delta([0, 1, 2, 3])
        before = sim.clock[4:].copy()
        sim.merge_delta(delta)
        assert sim.clock[2] == sub.clock[2]
        assert np.array_equal(sim.clock[4:], before)
        assert sim.event_counts["panel"] == 1

    def test_fork_rejects_traced_sim(self):
        from repro.analysis import Trace
        sim = Simulator(4, trace=Trace())
        assert not sim.can_fork()
        with pytest.raises(CommError, match="fork"):
            sim.fork([0, 1])

    def test_fork_rejects_pending_messages(self):
        sim = Simulator(4)
        sim.send(0, 1, 10.0)  # posted, never received
        with pytest.raises(CommError, match="pending"):
            sim.fork([0, 1])
        sim.recv(1, 0)
        sim.fork([0, 1])  # drained: forkable again

    def test_extract_delta_detects_escape(self):
        sim = Simulator(4)
        sub = sim.fork([0, 1])
        sub.compute(3, 10.0, "schur")  # outside the declared set
        with pytest.raises(CommError, match="escaped"):
            sub.extract_delta([0, 1])

    def test_extract_delta_rejects_in_flight(self):
        sim = Simulator(4)
        sub = sim.fork([0, 1])
        sub.send(0, 1, 10.0)
        with pytest.raises(CommError, match="in flight"):
            sub.extract_delta([0, 1])


class TestSendrecvBatch:
    def _random_traffic(self, rng, n, nranks):
        srcs = rng.integers(0, nranks, n)
        dsts = rng.integers(0, nranks, n)
        words = rng.uniform(1.0, 500.0, n)
        return srcs, dsts, words

    def test_matches_per_event_loop(self):
        rng = np.random.default_rng(5)
        srcs, dsts, words = self._random_traffic(rng, 200, 12)
        sim_a, sim_b = Simulator(12), Simulator(12)
        sim_a.set_phase("red")
        sim_b.set_phase("red")
        for s, d, w in zip(srcs, dsts, words):
            reduce_pairwise(sim_a, int(s), int(d), float(w))
        sim_b.sendrecv_batch(srcs, dsts, words, reduce_kind="reduce_add")
        assert_ledgers_identical(sim_a, sim_b)

    def test_no_reduce_matches_sendrecv(self):
        rng = np.random.default_rng(11)
        srcs, dsts, words = self._random_traffic(rng, 100, 8)
        sim_a, sim_b = Simulator(8), Simulator(8)
        for s, d, w in zip(srcs, dsts, words):
            sim_a.sendrecv(int(s), int(d), float(w))
        sim_b.sendrecv_batch(srcs, dsts, words)
        assert_ledgers_identical(sim_a, sim_b)

    def test_subclass_hooks_still_observe(self):
        pairs = []

        class SpySim(Simulator):
            def send(self, src, dst, words):
                pairs.append((src, dst))
                super().send(src, dst, words)

        sim = SpySim(4)
        sim.sendrecv_batch([0, 2], [1, 3], [10.0, 20.0],
                           reduce_kind="reduce_add")
        assert pairs == [(0, 1), (2, 3)]

    def test_length_mismatch_rejected(self):
        sim = Simulator(4)
        with pytest.raises(CommError):
            sim.sendrecv_batch([0, 1], [1], [10.0, 20.0])


class TestOwnerPairs:
    def test_matches_scalar_owner(self):
        grid = ProcessGrid2D(3, 4, base=24)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 50, 100)
        cols = rng.integers(0, 50, 100)
        vec = grid.owner_pairs(rows, cols)
        scalar = [grid.owner(int(i), int(j)) for i, j in zip(rows, cols)]
        assert vec.tolist() == scalar
