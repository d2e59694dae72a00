"""Tests for the factorization service (plan cache + async front-end).

The referee for every warm path is the PR-5 oracle: `ledger_state`
bit-identity against a plain cold solver run, plus 1e-12 factor
agreement. The cache layer is additionally tested for single-build
semantics under concurrent clients and for its bound: LRU eviction with
request-count admission (a rarely requested key's entry is refused by a
full cache), which keeps the hot patterns of a Zipf deck resident.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FactorOptions, ProcessGrid3D, Simulator, grid2d_5pt
from repro.cholesky import SparseCholesky3D
from repro.comm.machine import Machine
from repro.service import (
    FactorizationService,
    PlanCache,
    PlanEntry,
    cache_key,
    pattern_fingerprint,
)
from repro.solve import SparseLU3D
from repro.verify.oracle import ledger_state


def _perturbed(A, seed):
    """Fresh values on exactly A's stored structure (kept symmetric)."""
    B = A.tocsr(copy=True)
    rng = np.random.default_rng(seed)
    B.data = B.data * (1.0 + 0.1 * rng.random(B.nnz))
    return ((B + B.T) * 0.5).tocsr()


def _count(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` into ``calls[name]``."""
    real = getattr(owner, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def _plan_entry(key):
    return PlanEntry(key=key, sf=None, tf=None, pattern=None, bundle=None,
                     build_seconds=0.0)


def idle_entries(cache):
    """``key -> entry`` of the cache's idle arenas, the returns drained."""
    with cache._step():
        return {key: entry for key, (entry, _arena) in cache._idle.items()}


@pytest.fixture(scope="module")
def problem():
    A, geom = grid2d_5pt(12)
    return A, geom


class TestFingerprint:
    def test_values_irrelevant(self, problem):
        A, _ = problem
        assert pattern_fingerprint(A) == pattern_fingerprint(_perturbed(A, 3))

    def test_pattern_relevant(self, problem):
        A, _ = problem
        bad = A.tolil(copy=True)
        bad[0, A.shape[0] - 1] = 1.0
        assert pattern_fingerprint(A) != pattern_fingerprint(bad.tocsr())

    def test_stored_zeros_are_structure(self, problem):
        # A matrix that STORES zeros analyzes differently (they produce
        # fill), so it must key a different cache entry.
        A, _ = problem
        C = A.tocoo()
        Z = sp.csr_matrix(
            (np.concatenate([C.data, [0.0]]),
             (np.concatenate([C.row, [0]]), np.concatenate([C.col, [7]]))),
            shape=A.shape)
        assert pattern_fingerprint(A) != pattern_fingerprint(Z)

    def test_format_independent(self, problem):
        A, _ = problem
        assert pattern_fingerprint(A.tocoo()) == pattern_fingerprint(A.tocsc())

    def test_key_covers_options_and_grid(self, problem):
        A, _ = problem
        k1 = cache_key(A, (2, 2, 2), "lu", FactorOptions())
        assert k1 == cache_key(A, (2, 2, 2), "lu", FactorOptions())
        assert k1 != cache_key(A, (2, 2, 4), "lu", FactorOptions())
        assert k1 != cache_key(A, (2, 2, 2), "cholesky", FactorOptions())
        assert k1 != cache_key(A, (2, 2, 2), "lu", FactorOptions(lookahead=0))
        # runtime-only knobs share the entry
        assert k1 == cache_key(A, (2, 2, 2), "lu",
                               FactorOptions(n_workers=4, pivot_eps=1e-8))


class TestPlanCache:
    def _entry(self, key):
        return PlanEntry(key=key, sf=None, tf=None, pattern=None,
                         bundle=None, build_seconds=0.0)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: self._entry(k))
        stats = cache.stats()
        assert stats.entries == 2 and stats.evictions == 1
        assert cache.get("a") is None          # oldest evicted
        assert cache.get("c") is not None

    def test_failed_build_leaks_no_lock(self):
        cache = PlanCache(capacity=2)

        def broken():
            raise RuntimeError("symbolic phase exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            cache.get_or_build("a", broken)
        assert cache._building == {}
        entry, hit = cache.get_or_build("a", lambda: self._entry("a"))
        assert not hit and entry.key == "a"
        assert cache.stats().misses == 1
        assert cache._building == {}

    def test_recency_touch(self):
        cache = PlanCache(capacity=2)
        cache.get_or_build("a", lambda: self._entry("a"))
        cache.get_or_build("b", lambda: self._entry("b"))
        cache.get_or_build("a", lambda: self._entry("a"))  # touch a
        cache.get_or_build("c", lambda: self._entry("c"))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_single_build_under_racing_clients(self):
        cache = PlanCache(capacity=4)
        builds = []
        gate = threading.Event()

        def builder():
            gate.wait(5)
            builds.append(1)
            return self._entry("k")

        threads = [threading.Thread(
            target=lambda: cache.get_or_build("k", builder))
            for _ in range(6)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(builds) == 1
        st = cache.stats()
        assert st.misses == 1 and st.hits == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_zipf_deck_keeps_the_hot_patterns(self, seed):
        """The ``service_mix`` request trace (six patterns, each seen once,
        then seven shuffled decks of 49): plain LRU hits 0.76 of it."""
        deck = (20, 10, 7, 5, 4, 3)
        cache = PlanCache(capacity=4)
        for p in range(len(deck)):
            cache.get_or_build(p, lambda p=p: self._entry(p))
        warm = cache.stats()
        for d in range(7):
            order = np.random.default_rng([seed, 1000 + d]).permutation(
                np.repeat(np.arange(len(deck)), deck))
            for p in map(int, order):
                cache.get_or_build(p, lambda p=p: self._entry(p))
        st = cache.stats()
        hits, misses = st.hits - warm.hits, st.misses - warm.misses
        assert hits / (hits + misses) >= 0.82
        assert st.refused > 0 and st.entries == 4
        assert all(cache.get(p) is not None for p in range(4))

    def test_racers_on_a_refused_key_build_once(self):
        counted = threading.Semaphore(0)

        class Counting(PlanCache):
            def _count(self, key):
                super()._count(key)
                if key == "k":
                    counted.release()

        cache = Counting(capacity=2)
        for key in ("a", "b"):
            for _ in range(5):
                cache.get_or_build(key, lambda k=key: self._entry(k))
        builds, got = [], []

        def builder():          # done once all three racers have counted
            for _ in range(3):
                assert counted.acquire(timeout=10)
            builds.append(1)
            return self._entry("k")

        threads = [threading.Thread(
            target=lambda: got.append(cache.get_or_build("k", builder)))
            for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1 and len(got) == 3
        assert all(entry is got[0][0] for entry, _hit in got)
        assert sorted(hit for _e, hit in got) == [False, True, True]
        st = cache.stats()
        assert (st.refused, st.evictions, st.misses) == (1, 0, 3)
        assert cache.get("k") is None and cache._building == {}

    def test_count_table_is_bounded_and_halves(self):
        cache = PlanCache(capacity=2)
        for key in range(20):
            cache.get_or_build(key, lambda k=key: self._entry(k))
            assert len(cache._counts) <= 16
        assert cache.frequency(3) == 0 and cache.frequency(4) == 1
        cache.get(19)                   # a peek does not count
        assert cache.frequency(19) == 1
        for _ in range(43):             # 63 requests in all
            cache.get_or_build("a", lambda: self._entry("a"))
        assert cache.frequency("a") == 43
        cache.get_or_build("a", lambda: self._entry("a"))
        assert cache.frequency("a") == 22 and cache.frequency(19) == 0
        cache.clear()
        assert cache.frequency("a") == 0 and len(cache._counts) == 0

    def test_a_replaced_entry_borrows_nothing(self):
        """A job still on an evicted entry does not borrow the arena of the
        entry built for its key since: arenas are bound to their entry."""
        cache = PlanCache(capacity=1)
        old, _hit = cache.get_or_build("k", lambda: _plan_entry("k"))
        cache.get_or_build("j", lambda: _plan_entry("j"))   # evicts old
        new, hit = cache.get_or_build("k", lambda: _plan_entry("k"))
        assert not hit and new is not old
        cache.give_back(new, "new's arena")
        assert cache.borrow(old) is None
        assert cache.borrow(new) == "new's arena"


class TestServiceCorrectness:
    @pytest.mark.parametrize("pz", [1, 4], ids=["lu2d", "lu3d"])
    def test_warm_job_bit_identical_to_cold_solver(self, problem, pz):
        A, geom = problem
        kw = dict(geometry=geom, px=2, py=2, pz=pz, leaf_size=16)
        with FactorizationService(max_workers=2, **kw) as svc:
            svc.solve(_perturbed(A, 0))           # cold: populates cache
            A1 = _perturbed(A, 1)
            job = svc.solve(A1)
            assert job.cache_hit and job.build_seconds == 0.0
            cold = SparseLU3D(A1, **kw).factorize()
            assert ledger_state(job.solver.sim) == ledger_state(cold.sim)
            Fw, Fc = job.solver.result.factors(), cold.result.factors()
            for key in Fc.blocks:
                np.testing.assert_allclose(Fw.blocks[key], Fc.blocks[key],
                                           rtol=0, atol=1e-12)

    def test_cholesky_backend(self, problem):
        A, geom = problem
        S = (A + 4.0 * sp.identity(A.shape[0], format="csr")).tocsr()
        kw = dict(geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        with FactorizationService(backend="cholesky", max_workers=2,
                                  **kw) as svc:
            svc.solve(S)
            S1 = (_perturbed(A, 2)
                  + 4.0 * sp.identity(A.shape[0], format="csr")).tocsr()
            job = svc.solve(S1, np.ones(A.shape[0]))
            assert job.cache_hit
            assert job.residual < 1e-12
            cold = SparseCholesky3D(S1, **kw).factorize()
            # job.solver.sim also booked solve-phase events (b was given),
            # so ledger identity is checked factor-only via a b-less job.
            job2 = svc.solve(S1)
            assert ledger_state(job2.solver.sim) == ledger_state(cold.sim)
            Fw, Fc = job.solver.result.factors(), cold.result.factors()
            for key in Fc.blocks:
                np.testing.assert_allclose(Fw.blocks[key], Fc.blocks[key],
                                           rtol=0, atol=1e-12)

    def test_merged_driver_replay(self, problem):
        # The merged-grid driver replays plan bundles through its own
        # entry point (factor_3d merged=True cached=...).
        from repro.lu3d import factor_3d
        from repro.symbolic.symbolic_factor import symbolic_factorize
        from repro.tree.partition import greedy_partition
        A, geom = problem
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 4)
        g3 = ProcessGrid3D(2, 2, 4)
        machine = Machine.edison_like()
        sim_cold0 = Simulator(g3.size, machine)
        r0 = factor_3d(sf, tf, g3, sim_cold0, numeric=True, merged=True)
        A1p = sf.perm.apply_matrix(_perturbed(A, 5))
        sim_warm = Simulator(g3.size, machine)
        rw = factor_3d(sf, tf, g3, sim_warm, numeric=True,
                       matrix=A1p, cached=r0.bundle, merged=True)
        sim_cold = Simulator(g3.size, machine)
        rc = factor_3d(sf, tf, g3, sim_cold, numeric=True,
                       matrix=A1p, merged=True)
        assert ledger_state(sim_warm) == ledger_state(sim_cold)
        assert np.array_equal(rw.factors().to_dense(),
                              rc.factors().to_dense())

    def test_solve_residual(self, problem):
        A, geom = problem
        b = np.ones(A.shape[0])
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16) as svc:
            job = svc.solve(_perturbed(A, 3), b)
            assert job.x is not None and job.residual < 1e-12


class TestServiceFrontend:
    def test_hit_skips_every_pattern_only_stage(self, problem, monkeypatch):
        """What a cache hit saves, by count and without a clock: a miss runs
        ordering, symbolic analysis, partition and plan build once each, a
        hit runs none of them (nor does the job that paid the miss run them
        a second time when it factorizes)."""
        import repro.plan.build
        import repro.solve.driver
        import repro.symbolic.symbolic_factor
        calls = {}
        for owner, name in ((repro.symbolic.symbolic_factor, "nested_dissection"),
                            (repro.solve.driver, "symbolic_factorize"),
                            (repro.solve.driver, "greedy_partition"),
                            (repro.plan.build, "build_3d_plan")):
            _count(monkeypatch, calls, owner, name)
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16) as svc:
            assert not svc.solve(_perturbed(A, 0), np.ones(A.shape[0])).cache_hit
            assert set(calls.values()) == {1}, calls
            for seed in (1, 2):
                assert svc.solve(_perturbed(A, seed),
                                 np.ones(A.shape[0])).cache_hit
            assert set(calls.values()) == {1}, calls
            B, geom_b = grid2d_5pt(10)               # a second pattern
            assert not svc.solve(B, geometry=geom_b).cache_hit
            assert set(calls.values()) == {2}, calls

    def test_concurrent_clients_one_build(self, problem):
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16, max_workers=4) as svc:
            futs = [svc.submit(_perturbed(A, s)) for s in range(8)]
            results = [f.result() for f in futs]
        assert sum(not r.cache_hit for r in results) == 1
        st = svc.stats()
        assert st["misses"] == 1 and st["hits"] == 7
        assert st["hit_ratio"] == pytest.approx(7 / 8)
        (entry,) = st["per_entry"]
        assert entry["jobs"] == 8 and entry["hits"] == 7

    def test_distinct_patterns_distinct_entries(self, problem):
        A, geom = problem
        B, _ = grid2d_5pt(10)
        with FactorizationService(leaf_size=16, max_workers=2) as svc:
            svc.solve(A)
            svc.solve(B)
            svc.solve(_perturbed(A, 1))
        st = svc.stats()
        assert st["entries"] == 2 and st["misses"] == 2 and st["hits"] == 1

    def test_eviction_under_capacity_bound(self, problem):
        A, _ = problem
        B, _ = grid2d_5pt(10)
        C, _ = grid2d_5pt(8)
        with FactorizationService(leaf_size=16, capacity=2,
                                  max_workers=1) as svc:
            for M in (A, B, C):        # third pattern evicts the first
                svc.solve(M)
            st1 = svc.stats()
            svc.solve(_perturbed(A, 1))  # A was evicted: rebuilds
        assert st1["evictions"] == 1 and st1["entries"] == 2
        assert svc.stats()["misses"] == 4

    def test_per_request_overrides(self, problem):
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16) as svc:
            j1 = svc.solve(A)
            j2 = svc.solve(A, pz=1)    # different grid: its own entry
            assert not j2.cache_hit
            assert j1.solver.grid.pz == 2 and j2.solver.grid.pz == 1
            with pytest.raises(TypeError, match="unknown job option"):
                svc.submit(A, nonsense=3)

    def test_cost_only_job(self, problem):
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16, numeric=False) as svc:
            job = svc.solve(A)
            assert job.x is None and job.makespan > 0
            with pytest.raises(ValueError, match="cost-only"):
                svc.solve(A, np.ones(A.shape[0]))

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_non_finite_job_fails_clean(self, problem, backend):
        """NaN/inf in ``A`` or ``b`` fails the job's future before the cache
        is touched — cold pattern or cached one — leaving no entry, no build
        lock and no job counted; the next good job runs as if it never
        happened."""
        A, geom = problem
        bad_A = A.copy()
        bad_A.data[3] = np.nan
        bad_b = np.ones(A.shape[0])
        bad_b[0] = np.inf
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16, backend=backend) as svc:
            with pytest.raises(ValueError, match="A contains NaN"):
                svc.submit(bad_A).result()              # cold pattern
            with pytest.raises(ValueError, match="b contains NaN"):
                svc.submit(A, bad_b).result()
            assert len(svc.cache) == 0 and svc.cache._building == {}
            st = svc.stats()
            assert st["hits"] == st["misses"] == 0
            good = svc.solve(A, np.ones(A.shape[0]))
            assert not good.cache_hit and good.residual < 1e-12
            with pytest.raises(ValueError, match="A contains NaN"):
                svc.solve(bad_A)                        # cached pattern
            with pytest.raises(ValueError, match="b contains NaN"):
                svc.solve(A, bad_b)
            with pytest.raises(TypeError, match="sparse"):
                svc.solve(A.toarray())
            st = svc.stats()
            assert (st["hits"], st["misses"], st["entries"]) == (0, 1, 1)
            assert st["per_entry"][0]["jobs"] == 1
            assert svc.cache._building == {}
            assert svc.solve(A).cache_hit

    def test_closed_service_rejects(self, problem):
        A, _ = problem
        svc = FactorizationService(leaf_size=16)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(A)

    def test_entry_timing_split(self, problem):
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16) as svc:
            svc.solve(A)
            svc.solve(_perturbed(A, 1))
        (entry,) = svc.stats()["per_entry"]
        assert entry["build_seconds"] > 0           # symbolic + plan build
        assert entry["plan_build_seconds"] > 0      # amortized away on hits
        assert entry["exec_seconds"] > 0


class TestSharedSymbolicSafety:
    def test_adopted_sf_values_never_mutated(self, problem):
        # Concurrent jobs pass values via matrix=; the shared sf.A_perm
        # must keep the FIRST matrix's values throughout.
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16, max_workers=4) as svc:
            j0 = svc.solve(_perturbed(A, 0))
            sf = j0.solver.sf
            frozen = sf.A_perm.copy()
            futs = [svc.submit(_perturbed(A, s)) for s in range(1, 9)]
            for f in futs:
                f.result()
            assert (sf.A_perm != frozen).nnz == 0

    def test_concurrent_warm_jobs_each_bit_identical(self, problem):
        A, geom = problem
        mats = {s: _perturbed(A, s) for s in range(6)}
        kw = dict(geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        with FactorizationService(max_workers=4, **kw) as svc:
            svc.solve(mats[0])  # warm the cache
            futs = {s: svc.submit(M) for s, M in mats.items()}
            jobs = {s: f.result() for s, f in futs.items()}
        for s, M in mats.items():
            cold = SparseLU3D(M, **kw).factorize()
            assert ledger_state(jobs[s].solver.sim) == ledger_state(cold.sim)

    def test_value_map_memo_under_racing_structures(self, problem):
        """Threads racing two structures through one bundle's value map
        (more threads than cores, a short switch interval) each get the
        map of their own structure: its fill equals a fresh map's."""
        import sys
        A, geom = problem
        s = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        s.factorize()
        bundle, arena, perm = s._bundle, s.result.replicas.base, s.sf.perm
        mats = [A, sp.diags(A.diagonal()).tocsr()]

        def filled(vmap, M):
            buf = np.zeros(arena.buf.size)
            vmap.fill(buf, M.data)
            return buf
        want = [filled(arena.value_map(M, perm), M) for M in mats]
        errors = []

        def worker(t):
            try:
                for i in range(40):
                    k = (t + i) % 2
                    vmap = bundle.value_map(arena, mats[k], perm)
                    assert vmap.matches(mats[k], perm, arena)
                    assert np.array_equal(filled(vmap, mats[k]), want[k])
            except Exception as exc:        # surfaced below
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors

    def test_two_clients_interleaved_on_one_pattern(self, problem):
        """Jobs on one pattern share the entry's plans but each binds its
        solve to its own factor arena: two client threads, 20 jobs each,
        interleaved, every ``x`` agrees with ``splu``."""
        from scipy.sparse.linalg import splu
        A, geom = problem
        n = A.shape[0]
        got, errors = {}, []
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16, max_workers=2) as svc:
            def client(c):
                try:
                    for r in range(20):
                        M = _perturbed(A, 100 * c + r)
                        b = np.random.default_rng(r).standard_normal((n, 2))
                        got[c, r] = M, b, svc.submit(M, b).result().x
                except Exception as exc:     # surfaced below
                    errors.append(exc)
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert svc.stats()["entries"] == 1
        assert not errors and len(got) == 40
        for M, b, x in got.values():
            want = splu(M.tocsc()).solve(b)
            assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


class TestZeroColumnRhs:
    """An ``(n, 0)`` right-hand side is refused where ``b`` enters, naming
    ``b`` and its shape — not deep in BLAS."""

    @pytest.mark.parametrize("method", ["solve", "solve_transposed",
                                        "cholesky"])
    def test_facades_refuse(self, problem, method):
        A, geom = problem
        cls = SparseCholesky3D if method == "cholesky" else SparseLU3D
        s = cls(A, geometry=geom, px=2, py=2, pz=2, leaf_size=16).factorize()
        solve = getattr(s, "solve" if method == "cholesky" else method)
        with pytest.raises(ValueError, match=r"b must .* got \(144, 0\)"):
            solve(np.ones((A.shape[0], 0)))

    def test_service_job_fails_before_the_cache(self, problem):
        A, geom = problem
        with FactorizationService(geometry=geom, px=2, py=2, pz=2,
                                  leaf_size=16) as svc:
            fut = svc.submit(A, np.ones((A.shape[0], 0)))
            with pytest.raises(ValueError, match=r"b must .* got \(144, 0\)"):
                fut.result()
            assert len(svc.cache) == 0 and svc.cache._building == {}
            svc.solve(A)
            st = svc.stats()
            with pytest.raises(ValueError, match=r"got \(144, 0\)"):
                svc.solve(A, np.ones((A.shape[0], 0)))
            assert svc.stats() == st                # a cached pattern too


class TestArenaLoans:
    """A job borrows its entry's idle arena (replica storage with its
    factor and solve programs bound) and returns it when its
    ``Factor3DResult`` is collected: what a caller keeps never changes."""

    def _setup(self, problem, backend="lu"):
        """Four matrices on one pattern, the service's keywords and a cold
        factorization by the backend's facade."""
        A, geom = problem
        chol = backend == "cholesky"
        shift = 4.0 * sp.identity(A.shape[0], format="csr") if chol else 0
        mats = [(_perturbed(A, s) + shift).tocsr() for s in range(4)]
        kw = dict(geometry=geom, px=2, py=2, pz=2, leaf_size=16)
        cls = SparseCholesky3D if chol else SparseLU3D
        return mats, dict(kw, backend=backend), \
            lambda M: cls(M, **kw).factorize()

    @pytest.mark.parametrize("collect", [True, False], ids=["gc", "refcount"])
    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_kept_factors_stay_the_first_jobs(self, problem, backend,
                                              collect):
        """Keep only the job, its solver or its result; three more jobs on
        the entry, with other values, leave its factors those of a cold
        factorization of its matrix — also with the cycle collector off,
        where the arenas come back by reference count alone."""
        mats, kw, cold = self._setup(problem, backend)
        want = cold(mats[0]).result.factors().to_dense()
        keeps = {"job": (lambda j: j, lambda k: k.solver.result),
                 "solver": (lambda j: j.solver, lambda k: k.result),
                 "result": (lambda j: j.solver.result, lambda k: k)}
        enabled = gc.isenabled()
        if not collect:
            gc.disable()
        try:
            with FactorizationService(max_workers=2, **kw) as svc:
                for keep, reach in keeps.values():
                    kept = keep(svc.solve(mats[0]))
                    for M in mats[1:]:
                        svc.solve(M)
                    got = reach(kept).factors().to_dense()
                    assert np.array_equal(got, want), backend
                    del kept
                # 2 loans while the first kept job holds the miss's
                # arena; then 3 a round, its first job borrowing too.
                assert svc.stats()["arena_loans"] == 8
        finally:
            if enabled:
                gc.enable()

    def test_a_job_solvers_refactorize_lays_out_its_own(self, problem):
        mats, kw, cold = self._setup(problem)
        with FactorizationService(max_workers=2, **kw) as svc:
            solver = svc.solve(mats[0]).solver
            lent = solver.result.replicas
            solver.refactorize(mats[1])         # the lent arena goes back
            assert solver.result.replicas is not lent
            job = svc.solve(mats[2])
            assert job.solver.result.replicas is lent
        assert np.array_equal(solver.result.factors().to_dense(),
                              cold(mats[1]).result.factors().to_dense())

    def test_borrowed_arena_binds_nothing(self, problem, monkeypatch):
        """A second sequential job on one entry lays out no arena and binds
        no factor or solve program, and books a cold run's ledger."""
        import repro.solve.triangular
        from repro.lu3d.replication import ReplicaManager
        from repro.plan.backends import KernelBackend
        from repro.sparse.blockmatrix import BlockMatrix
        mats, kw, cold = self._setup(problem)
        b = np.ones(mats[0].shape[0])
        calls = {}
        with FactorizationService(max_workers=2, **kw) as svc:
            svc.solve(mats[0], b)
            for owner, name in ((KernelBackend, "bind"),
                                (repro.solve.triangular, "bind"),
                                (BlockMatrix, "zeros"),
                                (ReplicaManager, "__init__")):
                _count(monkeypatch, calls, owner, name)
            job = svc.solve(mats[1], b)
            assert calls == {"bind": 0, "zeros": 0, "__init__": 0}, calls
            assert svc.stats()["arena_loans"] == 1
        monkeypatch.undo()
        ref = cold(mats[1])
        ref.solve(b)
        assert ledger_state(job.solver.sim) == ledger_state(ref.sim)
        assert np.array_equal(job.x, ref.solve(b))

    def test_raising_job_returns_no_arena(self, problem, monkeypatch):
        mats, kw, cold = self._setup(problem)
        b = np.ones(mats[0].shape[0])
        with FactorizationService(max_workers=2, **kw) as svc:
            svc.solve(mats[0], b)
            assert svc.stats()["idle_arenas"] == 1

            def boom(self, *args, **kwargs):
                raise RuntimeError("solve exploded")
            monkeypatch.setattr(SparseLU3D, "solve", boom)
            with pytest.raises(RuntimeError, match="exploded"):
                svc.solve(mats[1], b)
            monkeypatch.undo()
            gc.collect()
            st = svc.stats()
            assert (st["arena_loans"], st["idle_arenas"]) == (1, 0)
            job = svc.solve(mats[2], b)     # lays out a fresh arena
            assert svc.stats()["arena_loans"] == 1
        ref = cold(mats[2])
        ref.solve(b)
        assert ledger_state(job.solver.sim) == ledger_state(ref.sim)
        assert np.array_equal(job.solver.result.factors().to_dense(),
                              ref.result.factors().to_dense())

    def test_evicted_entry_leaves_no_idle_arena(self, problem):
        A, _ = problem
        B, _ = grid2d_5pt(10)
        C, _ = grid2d_5pt(8)
        with FactorizationService(leaf_size=16, capacity=2,
                                  max_workers=2) as svc:
            svc.solve(A)
            svc.solve(B)
            assert svc.stats()["idle_arenas"] == 2
            svc.solve(C)                    # evicts A's entry
            st = svc.stats()
            assert (st["evictions"], st["idle_arenas"]) == (1, 2)
            resident = svc.cache._entries
            assert all(resident.get(k) is e
                       for k, e in idle_entries(svc.cache).items())
            assert not svc.solve(_perturbed(A, 1)).cache_hit
            assert svc.stats()["arena_loans"] == 0

    def test_every_resident_entry_keeps_its_arena(self, problem):
        """``max_workers`` sizes the pool only: with one worker, a hit on
        an entry whose arena came back before two other entries' still
        borrows it; every resident entry holds one idle arena."""
        A, _ = problem
        B, _ = grid2d_5pt(10)
        C, _ = grid2d_5pt(8)
        with FactorizationService(leaf_size=16, max_workers=1) as svc:
            for M in (A, B, C):
                svc.solve(M)
            assert svc.stats()["idle_arenas"] == 3
            assert svc.solve(_perturbed(A, 1)).cache_hit
            assert svc.stats()["arena_loans"] == 1
            assert set(idle_entries(svc.cache)) == set(svc.cache._entries)

    def test_one_client_mix_lends_on_every_hit(self):
        """One client, the six ``service_mix`` kinds, capacity 4 and one
        worker, each job dropped before the next (``service_sequence``).
        Only a hit before its entry's first give-back lays out an arena;
        with one client there is none, as the miss that admitted the
        entry has come back, so ``hits - arena_loans`` is 0. After every
        request, at most one idle arena per entry."""
        from tests.service_sequence import one_client_mix
        after, worst = one_client_mix()
        st = after[-1]
        assert (st.hits, st.misses, st.refused, st.evictions) == (38, 11, 6, 1)
        assert st.hits - st.arena_loans == 0
        assert all(s.idle_arenas <= s.entries for s in after)
        assert worst < 1e-10

    def test_refused_jobs_arena_is_not_kept(self, problem):
        A, _ = problem
        B, _ = grid2d_5pt(10)
        b = np.ones(B.shape[0])
        with FactorizationService(leaf_size=16, capacity=1,
                                  max_workers=2) as svc:
            svc.solve(A)
            svc.solve(_perturbed(A, 1))
            assert svc.stats()["idle_arenas"] == 1
            job = svc.solve(B, b)          # requested less than A: refused
            assert not job.cache_hit and job.residual < 1e-10
            del job
            st = svc.stats()
            assert (st["refused"], st["evictions"]) == (1, 0)
            assert (st["entries"], st["idle_arenas"]) == (1, 1)
            assert svc.solve(_perturbed(A, 2)).cache_hit

    def test_close_drops_idle_arenas(self, problem):
        mats, kw, _cold = self._setup(problem)
        svc = FactorizationService(max_workers=2, **kw)
        kept = svc.solve(mats[0])
        svc.solve(mats[1])
        assert svc.stats()["idle_arenas"] == 1
        svc.close()
        assert svc.stats()["idle_arenas"] == 0
        del kept                        # returned after close: dropped
        assert svc.stats()["idle_arenas"] == 0


class TestIdleListProtocol:
    """Two orderings that a thread race or a same-thread finalizer can
    produce, forced deterministically: a give-back only queues its arena,
    so it never waits for the cache's lock, and a locked step keeps or
    drops what was queued."""

    def test_a_give_back_takes_no_lock(self):
        """Give-backs while another thread holds the cache's lock return at
        once, one through a finalizer; neither the arena returned before
        ``close`` nor the one returned after it stays idle."""
        cache = PlanCache(capacity=2)
        entry, _hit = cache.get_or_build("k", lambda: _plan_entry("k"))
        cache.give_back(entry, "kept")
        assert idle_entries(cache) == {"k": entry}

        class Result:
            pass
        held = [Result()]               # the last reference: dropped there
        weakref.finalize(held[0], cache.give_back, entry, "finalized")
        threads = [threading.Thread(target=cache.give_back,
                                    args=(entry, "before")),
                   threading.Thread(target=held.clear)]
        with cache._lock:
            for t in threads:
                t.start()
                t.join(5)
                assert not t.is_alive()
            assert [a for _e, a in cache._returns] == ["before", "finalized"]
        cache.close()
        cache.give_back(entry, "after")
        assert cache.stats().idle_arenas == 0 and not cache._returns

    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("at_call", [1, 2, 3, 4])
    def test_a_reentrant_give_back_inside_frequency(self, capacity,
                                                    at_call):
        """A full cache's admission compares two frequencies with the lock
        held (the new key's, then the least recently used resident's).
        After ``capacity`` residents, a rarely requested key is refused
        (comparisons 1-2), then a popular one evicts that resident (3-4).
        At the ``at_call``-th comparison the resident gives its arena back
        on the same thread, with the lock held (as a collection running a
        finalizer would). Nothing raises or deadlocks, and the next locked
        step keeps the arena while its entry is resident, drops it once
        the entry is evicted, and keeps one arena per resident entry."""
        cache = PlanCache(capacity=capacity)
        keys = ("a", "b")[:capacity] + ("rare", "popular")
        entry, calls = {}, [0]

        def idle():
            cache.stats()                   # a locked step: the drain
            return {k: a for k, (_e, a) in cache._idle.items()}

        def frequency(key):
            calls[0] += 1
            if calls[0] == at_call:
                cache.give_back(entry["a"], "inner")
            return {"rare": 0, "popular": 2}.get(key, 1)
        cache.frequency = frequency
        for k in keys:
            entry[k] = cache.get_or_build(k, lambda k=k: _plan_entry(k))[0]
            if k == "rare":
                assert idle() == ({"a": "inner"} if at_call <= 2 else {})
        assert calls[0] == 4 and cache.stats().refused == 1
        assert idle() == {}
        for k in keys:
            cache.give_back(entry[k], k)
        assert idle() == {k: k for k in cache._entries} \
            == {k: k for k in keys[1:capacity] + ("popular",)}
        assert not cache._returns


KEYS = ("a", "b", "c")


class _PoolRun:
    """The real :class:`PlanCache` of ``capacity`` entries driven through
    one sequence of operations from one thread, and the jobs the checker
    keeps beside it. The operations are the service's: ``("request", k)``
    (a hit that borrows, a cold key that opens a build slot, or a racer
    on a key being built), ``("built", k)`` (the build ends: admitted,
    evicting, or refused), ``("resume", k)`` (the oldest racer whose
    build ended takes the builder's entry), ``("collect", k)`` (the
    oldest live job on ``k``'s result is collected: its finalizer queues
    the arena) and ``("close",)``. A started job borrows its entry's idle
    arena, or lays out a fresh one."""

    def __init__(self, capacity: int, ops=()):
        self.cache = PlanCache(capacity=capacity)
        self.building: dict = {}        # key -> slot of its pending build
        self.racers: list = []          # (key, slot) waiting on the build
        self.jobs: list = []            # live (key, entry, arena)
        self.returned: dict = {}        # key -> its last (entry, arena) back
        self.borrows = self.layouts = 0
        self.closed = False
        for op in ops:
            self.apply(op)

    def ops(self) -> list:
        out = [] if self.closed else \
            [("request", k) for k in KEYS] + [("close",)]
        out += [("built", k) for k in sorted(self.building)]
        out += sorted({("resume", k) for k, slot in self.racers
                       if slot[1] is not None})
        return out + sorted({("collect", k) for k, _e, _a in self.jobs})

    def apply(self, op: tuple) -> None:
        kind, key = op[0], op[-1]
        cache = self.cache
        if kind == "request":
            entry, slot = cache._lookup(key)
            if entry is not None:
                self._start(entry)
            elif key in self.building:
                self.racers.append((key, slot))
            else:                       # the opener holds the build lock
                assert cache._join(key, slot) is None
                self.building[key] = slot
        elif kind == "built":
            entry = _plan_entry(key)
            cache._admit(key, self.building.pop(key), entry)
            self._start(entry)
        elif kind == "resume":
            i = next(i for i, (k, slot) in enumerate(self.racers)
                     if k == key and slot[1] is not None)
            _k, slot = self.racers.pop(i)
            self._start(cache._join(key, slot))
        elif kind == "collect":
            i = next(i for i, job in enumerate(self.jobs) if job[0] == key)
            _k, entry, arena = self.jobs.pop(i)
            cache.give_back(entry, arena)
            self.returned[key] = (entry, arena)
        else:
            cache.close()
            self.closed = True

    def _start(self, entry) -> None:
        arena = self.cache.borrow(entry)
        if arena is None:
            self.layouts += 1
            arena = f"arena {self.layouts}"
        else:
            self.borrows += 1
            del self.returned[entry.key]
        self.cache.record_job(entry, 0.0, True)
        self.jobs.append((entry.key, entry, arena))

    def check(self) -> None:
        """The pool's invariants on the drained state."""
        st = self.cache.stats()         # a locked step: drains the returns
        entries, idle = self.cache._entries, self.cache._idle
        assert st.entries == len(entries) <= self.cache.capacity
        assert st.idle_arenas == len(idle) <= len(entries)
        assert len({id(e) for e, _a in idle.values()}) == len(idle)
        assert all(entries.get(k) is e for k, (e, _a) in idle.items())
        assert not (self.closed and idle)
        assert all(idle.get(k) == back for k, back in self.returned.items()
                   if not self.closed and entries.get(k) is back[0])
        lent = [a for _k, _e, a in self.jobs]
        assert len(set(lent)) == len(lent)
        assert not set(lent) & {a for _e, a in idle.values()}
        assert st.arena_loans == self.borrows

    def state(self) -> tuple:
        """Everything a later decision reads, objects named by first
        appearance; counters that no decision reads are left out."""
        names: dict = {}

        def name(obj):
            return None if obj is None else names.setdefault(id(obj),
                                                             len(names))
        c = self.cache
        return (tuple((k, name(e)) for k, e in c._entries.items()),
                tuple(sorted(c._counts.items())),
                tuple((k, name(e), name(a)) for k, (e, a) in c._idle.items()),
                tuple((k, name(s)) for k, s in sorted(c._building.items())),
                tuple((k, name(e), name(a)) for k, e, a in self.jobs),
                tuple((k, name(s), name(s[1])) for k, s in self.racers),
                tuple((k, name(s)) for k, s in sorted(self.building.items())),
                self.closed)


def explore_pool(capacity: int, depth: int) -> int:
    """Check every state reachable in at most ``depth`` operations (each
    reached state is expanded once); returns how many there are."""
    start = _PoolRun(capacity)
    start.check()
    seen, frontier = {start.state()}, [()]
    for _ in range(depth):
        grown = []
        for ops in frontier:
            for op in _PoolRun(capacity, ops).ops():
                run = _PoolRun(capacity, ops + (op,))
                run.check()
                state = run.state()
                if state not in seen:
                    seen.add(state)
                    grown.append(ops + (op,))
        frontier = grown
    return len(seen)


class TestPoolSequences:
    """Every ordering of the pool's steps up to eight operations, on the
    real cache from one thread, with no sleeps and no threads: 3 keys,
    capacity 1 and 2. The admission rule it drives is TinyLFU's (Einziger
    et al., https://arxiv.org/abs/1512.00727): a new entry evicts the LRU
    one only if requested at least as often. After every step, on the
    drained state: at most ``capacity`` entries; at most one idle arena
    per resident entry, so at most ``capacity`` in all; none for an entry
    that is not resident, none after ``close``; the arena a resident
    entry's job gave back last idle until borrowed; no arena both idle
    and lent, none lent to two live jobs; ``arena_loans`` equal to the
    borrows counted. Depth 8 takes about 1.5 s per case."""

    @pytest.mark.parametrize("capacity, states", [(1, 9262), (2, 9553)])
    def test_every_ordering_up_to_eight_steps(self, capacity, states):
        assert explore_pool(capacity, 8) == states
