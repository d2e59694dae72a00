"""Tests for the threaded z-grid fan-out (repro.parallel).

The contract under test: running a level's grids' kernels on host threads
changes *nothing observable* — every simulator ledger is bit-for-bit the
serial schedule's and the factors are ``np.array_equal``: each grid's
piece of the level's bound kernel program writes only its own replicas,
and the level is booked on the calling thread.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro.parallel as parallel
from repro.comm import CommError, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.comm.stream import EventStream
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.parallel import (
    LevelStats,
    ParallelFallback,
    resolve_threads,
    resolve_workers,
)
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify.oracle import ledger_state
from tests.conftest import CHOLESKY, MERGED, EventByEvent, messages

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


def assert_ledgers_identical(sim_a, sim_b):
    assert ledger_state(sim_a) == ledger_state(sim_b)


DRIVERS = {"lu": factor_3d, "cholesky": CHOLESKY, "merged": MERGED}


def _run(driver, sf, tf, numeric, opts):
    grid3 = ProcessGrid3D(2, 2, PZ)
    sim = Simulator(grid3.size)
    res = DRIVERS[driver](sf, tf, grid3, sim, numeric=numeric, options=opts)
    return sim, res


def _run_lu(sf, tf, numeric, opts):
    return _run("lu", sf, tf, numeric, opts)


def _levels(res):
    return [st for st in res.parallel_stats if isinstance(st, LevelStats)]


def _fallbacks(res):
    return [st for st in res.parallel_stats
            if isinstance(st, ParallelFallback)]


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("compact", [False, True],
                             ids=["dense", "compact"])
    @pytest.mark.parametrize("n_workers", [2, 0])
    @pytest.mark.parametrize("case", ["lu", "cholesky", "merged-cost-only"])
    def test_threads_book_the_serial_run(self, planar_setup, spd_setup,
                                         case, n_workers, compact):
        """LU and Cholesky fan out and stay bit-equal; merged cost-only
        stays serial (no kernel program) and says so — same ledger."""
        driver, numeric = case.split("-")[0], case != "merged-cost-only"
        _, sf, tf = spd_setup if driver == "cholesky" else planar_setup
        runs = [_run(driver, sf, tf, numeric,
                     FactorOptions(compact_comm=compact, n_workers=nw))
                for nw in (1, n_workers)]
        (sim_s, res_s), (sim_p, res_p) = runs
        assert_ledgers_identical(sim_s, sim_p)
        if numeric:
            assert np.array_equal(res_s.factors().to_dense(),
                                  res_p.factors().to_dense())
            assert _levels(res_p) and not _fallbacks(res_p)
        else:
            (fb,) = res_p.parallel_stats
            assert "cost-only" in fb.reason
            assert fb.requested_workers == n_workers

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_lu_numeric(self, planar_setup, n_workers):
        _, sf, tf = planar_setup
        sim_s, res_s = _run_lu(sf, tf, True, FactorOptions())
        sim_p, res_p = _run_lu(sf, tf, True,
                               FactorOptions(n_workers=n_workers))
        assert_ledgers_identical(sim_s, sim_p)
        assert np.array_equal(res_s.factors().to_dense(),
                              res_p.factors().to_dense())
        assert res_s.perturbed_pivots == res_p.perturbed_pivots
        assert res_s.schur_block_updates == res_p.schur_block_updates
        assert res_s.per_level_makespan == res_p.per_level_makespan
        assert _levels(res_p), "no level fanned out"

    def test_lu_cost_only(self, planar_setup):
        """No kernel program, nothing to fan out: serial, recorded."""
        _, sf, tf = planar_setup
        sim_s, _ = _run_lu(sf, tf, False, FactorOptions())
        sim_p, res_p = _run_lu(sf, tf, False, FactorOptions(n_workers=2))
        assert_ledgers_identical(sim_s, sim_p)
        (fb,) = res_p.parallel_stats
        assert "cost-only" in fb.reason and fb.backend == "thread"

    @pytest.mark.parametrize("numeric", [False, True])
    def test_merged(self, planar_setup, numeric):
        _, sf, tf = planar_setup
        (sim_s, serial), (sim_p, par) = [
            _run("merged", sf, tf, numeric, FactorOptions(n_workers=nw))
            for nw in (1, 2)]
        assert_ledgers_identical(sim_s, sim_p)
        assert not serial.parallel_stats  # n_workers=1: nothing to say
        if numeric:
            # Each merged grid writes only its first layer's replicas, so
            # numeric merged runs fan out like LU: no fallback, the serial
            # run's factors bit for bit.
            assert _levels(par) and not _fallbacks(par)
            assert np.array_equal(serial.factors().to_dense(),
                                  par.factors().to_dense())
        else:   # cost-only runs have no kernel program to fan out
            (fb,) = par.parallel_stats
            assert "cost-only" in fb.reason and fb.requested_workers == 2

    def test_cholesky_numeric(self, spd_setup):
        """One ``LevelStats`` per level with two or more grids, counting
        them; the root level (one grid) runs inline."""
        _, sf, tf = spd_setup
        _, res = _run("cholesky", sf, tf, True, FactorOptions(n_workers=2))
        assert [(st.level, st.n_tasks) for st in res.parallel_stats] == \
            [(2, 4), (1, 2)]

    def test_stats_shape(self, planar_setup):
        _, sf, tf = planar_setup
        _, res = _run_lu(sf, tf, True, FactorOptions(n_workers=2))
        for st in res.parallel_stats:
            assert st.n_tasks >= 2 and st.n_workers == 2
            assert st.wall_seconds > 0 and st.task_seconds > 0
            assert st.bytes_shipped == 0 and st.serial_seconds == 0


class TestEngineMachinery:
    def test_worker_error_propagates(self, planar_setup, monkeypatch):
        """A kernel that raises on a pool thread reaches the caller
        unchanged, and the pool is closed behind it."""
        from repro.plan import interpret

        def exploding(*args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(interpret, "execute", exploding)
        _, sf, tf = planar_setup
        with pytest.raises(RuntimeError, match="worker exploded"):
            _run_lu(sf, tf, True, FactorOptions(n_workers=2))
        assert not any(t.name.startswith("repro-grid")
                       for t in threading.enumerate())

    def test_pieces_run_on_pool_threads(self, planar_setup, monkeypatch):
        """A fanned-out level's kernels run on the pool's threads, one
        piece per grid; the root level's on the calling thread."""
        from repro.plan import interpret
        seen = []

        def spy(prog, lo, hi, eps):
            seen.append(threading.current_thread().name)
            return execute(prog, lo, hi, eps)

        execute = interpret.execute
        monkeypatch.setattr(interpret, "execute", spy)
        _, sf, tf = planar_setup
        _run_lu(sf, tf, True, FactorOptions(n_workers=2))
        pooled = [n for n in seen if n.startswith("repro-grid")]
        assert len(pooled) == 4 + 2 and len(seen) == len(pooled) + 1

    def test_more_threads_than_cores_under_fast_switching(self,
                                                          planar_setup):
        """Eight threads on a short switch interval, every pivot of the
        level perturbed: a lost update to a shared counter or a grid
        writing another's blocks would change the count or the factors."""
        _, sf, tf = planar_setup
        opts = FactorOptions(pivot_eps=0.99)
        sim_s, res_s = _run_lu(sf, tf, True, opts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sim_p, res_p = _run_lu(sf, tf, True, FactorOptions(
                pivot_eps=0.99, n_workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert res_s.perturbed_pivots > 0
        assert res_p.perturbed_pivots == res_s.perturbed_pivots
        assert np.array_equal(res_s.factors().to_dense(),
                              res_p.factors().to_dense())
        assert_ledgers_identical(sim_s, sim_p)

    def test_n_workers_1_spawns_no_pool(self, planar_setup, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("pool spawned for n_workers=1")
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", boom)
        _, sf, tf = planar_setup
        _, res = _run_lu(sf, tf, True, FactorOptions(n_workers=1))
        assert not res.parallel_stats

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            FactorOptions(n_workers=-2)


class TestResolveThreads:
    """The thread decision, case by case, without running anything: threads
    only on a full-width walk, only numeric, only with more than one
    resolved worker — else a ``ParallelFallback`` saying why."""

    def test_one_worker_asks_for_nothing(self):
        for full_width in (False, True):
            for numeric in (False, True):
                assert resolve_threads(1, full_width=full_width,
                                       numeric=numeric) == (1, None)

    def test_pool_engages_with_resolved_count(self):
        assert resolve_threads(3, full_width=True, numeric=True) == (3, None)

    def test_monitored_run_stays_serial(self):
        n, fb = resolve_threads(2, full_width=False, numeric=True)
        assert n == 1 and fb.requested_workers == 2
        assert "width-1" in fb.reason and "resilience" in fb.reason

    def test_cost_only_stays_serial(self):
        n, fb = resolve_threads(2, full_width=True, numeric=False)
        assert n == 1 and "cost-only" in fb.reason

    def test_one_resolved_worker_is_a_fallback(self, monkeypatch):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        n, fb = resolve_threads(0, full_width=True, numeric=True)
        assert n == 1 and "single worker" in fb.reason
        assert fb.requested_workers == 0


class TestSendrecvBatch:
    def _random_traffic(self, rng, n, nranks):
        srcs = rng.integers(0, nranks, n)
        dsts = rng.integers(0, nranks, n)
        words = rng.uniform(1.0, 500.0, n)
        return srcs, dsts, words

    def test_matches_per_event_loop(self):
        rng = np.random.default_rng(5)
        srcs, dsts, words = self._random_traffic(rng, 200, 12)
        sim_a, sim_b = EventByEvent(12), Simulator(12)
        sim_a.set_phase("red")
        sim_b.set_phase("red")
        for s, d, w in zip(srcs, dsts, words):
            if s != d:                  # a self-message is never emitted
                sim_a.send(int(s), int(d), float(w))
                sim_a.recv(int(d), int(s))
            sim_a.compute(int(d), float(w), "reduce_add")
        sim_b.book(EventStream.pairs(srcs, dsts, words, "reduce_add"))
        assert_ledgers_identical(sim_a, sim_b)

    def test_no_reduce_matches_sendrecv(self):
        rng = np.random.default_rng(11)
        srcs, dsts, words = self._random_traffic(rng, 100, 8)
        sim_a, sim_b = EventByEvent(8), Simulator(8)
        for s, d, w in zip(srcs, dsts, words):
            if s != d:
                sim_a.send(int(s), int(d), float(w))
                sim_a.recv(int(d), int(s))
        sim_b.book(EventStream.pairs(srcs, dsts, words))
        assert_ledgers_identical(sim_a, sim_b)

    def test_subclass_hooks_still_observe(self):
        pairs = []

        class SpySim(Simulator):
            def book(self, ev, lo=0, hi=None, mlo=0, mhi=None):
                pairs.extend(messages(ev, lo, hi))
                return super().book(ev, lo, hi, mlo, mhi)

        sim = SpySim(4)
        sim.book(EventStream.pairs([0, 2], [1, 3], [10.0, 20.0],
                                   "reduce_add"))
        assert pairs == [(0, 1), (2, 3)]
        assert sim.flops["reduce_add"].tolist() == [0, 10, 0, 20]

    def test_length_mismatch_rejected(self):
        with pytest.raises(CommError):
            EventStream.pairs([0, 1], [1], [10.0, 20.0])


class TestOwnerPairs:
    def test_matches_scalar_owner(self):
        grid = ProcessGrid2D(3, 4, base=24)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 50, 100)
        cols = rng.integers(0, 50, 100)
        vec = grid.owner_pairs(rows, cols)
        scalar = [grid.owner(int(i), int(j)) for i, j in zip(rows, cols)]
        assert vec.tolist() == scalar
