"""Tests for the 3D algorithm (Algorithm 1): numerics, equivalence to 2D,
replication accounting, and reduction structure."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d, replica_words_per_rank
from repro.lu3d.replication import ReplicaManager
from repro.sparse import BlockMatrix, grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition, naive_partition
from tests.conftest import messages


def _run_3d(A, geom, pz, leaf_size=24, px=2, py=2, numeric=True,
            partition=greedy_partition, machine=None):
    sf = symbolic_factorize(A, geom, leaf_size=leaf_size)
    tf = partition(sf, pz)
    grid3 = ProcessGrid3D(px, py, pz)
    sim = Simulator(grid3.size, machine)
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric)
    return sf, tf, sim, res


def _lu_error(sf, res, A):
    LU = res.factors().to_dense()
    n = sf.n
    L = np.tril(LU, -1) + np.eye(n)
    U = np.triu(LU)
    return np.abs(L @ U - sf.A_perm.toarray()).max() / np.abs(A).max()


class TestNumericCorrectness:
    @pytest.mark.parametrize("pz", [1, 2, 4, 8])
    def test_planar(self, planar_small, pz):
        A, geom = planar_small
        sf, _, sim, res = _run_3d(A, geom, pz, leaf_size=16)
        assert _lu_error(sf, res, A) < 1e-10
        assert sim.event_counts["send"] == sim.event_counts["recv"]

    @pytest.mark.parametrize("pz", [2, 4])
    def test_all_families(self, any_matrix, pz):
        A, geom = any_matrix
        sf, _, _, res = _run_3d(A, geom, pz)
        assert _lu_error(sf, res, A) < 1e-10

    @pytest.mark.parametrize("pz", [2, 4])
    def test_naive_partition_also_correct(self, planar_small, pz):
        A, geom = planar_small
        sf, _, _, res = _run_3d(A, geom, pz, leaf_size=16,
                                partition=naive_partition)
        assert _lu_error(sf, res, A) < 1e-10

    def test_3d_factors_equal_2d_factors(self, planar_small):
        """Same ordering => identical factors regardless of pz (the 3D
        algorithm replicates data, not arithmetic): Pz = 4 against the
        2D baseline, Pz = 1."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        lu2d = factor_3d(sf, greedy_partition(sf, 1), ProcessGrid3D(2, 2, 1),
                         Simulator(4)).factors().to_dense()
        tf = greedy_partition(sf, 4)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 4), Simulator(16))
        lu3d = res.factors().to_dense()
        assert np.allclose(lu3d, lu2d, atol=1e-9)

    def test_pz1_degenerates_to_2d(self):
        """pz=1: no reduction traffic, and every ledger of the 2D
        baseline's golden row, exactly, under both block pricings
        (cost-only and numeric runs book the same events)."""
        from repro.verify import ledger_state
        from tests.test_plan import GOLDENS
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf, grid3 = greedy_partition(sf, 1), ProcessGrid3D(2, 3, 1)
        for numeric in (False, True):
            for compact in (False, True):
                sim = Simulator(grid3.size, Machine.edison_like())
                factor_3d(sf, tf, grid3, sim, numeric=numeric,
                          options=FactorOptions(compact_comm=compact))
                assert sim.total_words_sent("red") == 0.0
                assert ledger_state(sim) == GOLDENS[compact]["lu2d_default"]


class TestScheduleStructure:
    def test_total_flops_independent_of_pz(self, planar_small):
        """Replication adds memory and reduction adds words, but the
        factorization arithmetic is identical for every pz."""
        A, geom = planar_small
        base = None
        for pz in (1, 2, 4, 8):
            _, _, sim, _ = _run_3d(A, geom, pz, leaf_size=16, numeric=False)
            flops = sum(sim.flops[k].sum() for k in ("diag", "panel", "schur"))
            if base is None:
                base = flops
            assert flops == pytest.approx(base)

    def test_reduction_words_grow_with_pz(self, planar_small):
        A, geom = planar_small
        red = []
        for pz in (2, 4, 8):
            _, _, sim, _ = _run_3d(A, geom, pz, leaf_size=16, numeric=False)
            red.append(sim.total_words_sent("red"))
        assert red[0] < red[1] < red[2]

    def test_reduction_is_point_to_point_along_z(self, planar_small):
        """Every reduction message travels between z-mates: same (x, y)."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 4)
        grid3 = ProcessGrid3D(2, 2, 4)

        class SpySim(Simulator):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.red_pairs = []

            def book(self, ev, lo=0, hi=None, mlo=0, mhi=None):
                if self.phase == "red":
                    self.red_pairs += messages(ev, lo, hi)
                return super().book(ev, lo, hi, mlo, mhi)

        sim = SpySim(grid3.size)
        factor_3d(sf, tf, grid3, sim, numeric=False)
        assert sim.red_pairs, "expected reduction traffic"
        for src, dst in sim.red_pairs:
            gs, ls = divmod(src, grid3.pxy)
            gd, ld = divmod(dst, grid3.pxy)
            assert ls == ld, "reduction not along the z axis"
            assert gs != gd

    def test_reduction_pairing_follows_algorithm1(self, planar_small):
        """At the level-lvl reduction, receiver grids are k*2^{l-lvl+1} and
        senders are offset by 2^{l-lvl}."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 8)
        grid3 = ProcessGrid3D(1, 2, 8)

        class SpySim(Simulator):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.pairs = set()

            def book(self, ev, lo=0, hi=None, mlo=0, mhi=None):
                if self.phase == "red":
                    self.pairs |= {(s // grid3.pxy, d // grid3.pxy)
                                   for s, d in messages(ev, lo, hi)}
                return super().book(ev, lo, hi, mlo, mhi)

        sim = SpySim(grid3.size)
        factor_3d(sf, tf, grid3, sim, numeric=False)
        allowed = set()
        nlev = 3
        for lvl in range(nlev, 0, -1):
            half = 2 ** (nlev - lvl)
            for g in range(0, 8, 2 * half):
                allowed.add((g + half, g))
        assert sim.pairs <= allowed

    def test_mismatched_pz_rejected(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 2)
        with pytest.raises(ValueError, match="pz"):
            factor_3d(sf, tf, ProcessGrid3D(2, 2, 4), Simulator(16))

    def test_cost_only_has_no_factors(self, planar_small):
        A, geom = planar_small
        _, _, _, res = _run_3d(A, geom, 2, leaf_size=16, numeric=False)
        with pytest.raises(ValueError, match="cost-only"):
            res.factors()


class TestReplication:
    def test_memory_overhead_grows_with_pz(self, planar_small):
        """Max per-rank memory (normalized by layer count) shows the
        replication overhead of Fig. 11."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        # Fixed total P = 8 ranks, growing pz (paper's configuration).
        mems = []
        for pz, (px, py) in [(1, (2, 4)), (2, (2, 2)), (4, (1, 2)), (8, (1, 1))]:
            tf = greedy_partition(sf, pz)
            grid3 = ProcessGrid3D(px, py, pz)
            words = replica_words_per_rank(sf, tf, grid3)
            mems.append(words.sum())
        # Aggregate memory strictly grows with replication.
        assert all(a < b for a, b in zip(mems, mems[1:]))

    def test_home_grid_initialized_with_A(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 2)
        base = BlockMatrix.from_csr(sf.A_perm, sf.layout,
                                    block_pattern=sf.fill.all_blocks())
        expected_root = base[(sf.tree.root, sf.tree.root)].copy()
        mgr = ReplicaManager(sf, tf, base)
        root = sf.tree.root
        home = tf.home_grid(root)
        other = 1 - home
        assert np.array_equal(mgr.view(home)[(root, root)], expected_root)
        assert np.all(mgr.view(other)[(root, root)] == 0.0)

    def test_missing_replica_raises(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 2)
        base = BlockMatrix.from_csr(sf.A_perm, sf.layout,
                                    block_pattern=sf.fill.all_blocks())
        mgr = ReplicaManager(sf, tf, base)
        leaf_forest_1 = tf.forests[(1, 1)]
        v = leaf_forest_1[0]
        with pytest.raises(KeyError):
            mgr.view(0)[(v, v)]  # grid 0 holds no copy of grid 1's leaves

    def test_replica_words_match_simulator_charge(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, sim, numeric=False)
        from repro.comm.volume import volume_for
        expected = replica_words_per_rank(sf, tf, grid3,
                                          volume=volume_for(sf, None))
        assert np.allclose(sim.mem_current, expected)


class TestArena:
    """The replica storage is two buffers laid out once."""

    def _manager(self, planar_small, pz=4):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf = greedy_partition(sf, pz)
        base = BlockMatrix.from_csr(sf.A_perm, sf.layout,
                                    block_pattern=sf.fill.all_blocks())
        return sf, tf, base, ReplicaManager(sf, tf, base)

    def test_layout_matches_the_per_block_loop(self, planar_small):
        """Every grid holds exactly the blocks of the nodes replicated on
        it; home copies are the base's own arrays, every other replica a
        zero view into the second buffer, grid-major."""
        from repro.lu2d.storage import node_blocks
        sf, tf, base, mgr = self._manager(planar_small)
        home_buf, rest = mgr._bufs
        assert home_buf is base.buf
        seen = 0
        for g in range(tf.pz):
            want = {(i, j): v for v in range(sf.nb)
                    if g in tf.grids_of_node(v)
                    for i, j, _w in node_blocks(sf, v)}
            assert set(mgr.view(g)) == set(want)
            for key, v in want.items():
                blk = mgr.view(g)[key]
                assert blk.flags.c_contiguous
                if g == tf.home_grid(v):
                    assert blk is base[key] is mgr.home_view()[key]
                else:
                    assert blk.base is rest and not blk.any()
                    assert blk.shape == base[key].shape
                    seen += blk.size
        assert seen == rest.size
        starts = [mgr.view(g)[key].__array_interface__["data"][0]
                  for g in range(tf.pz) for key in mgr.view(g)
                  if mgr.view(g)[key].base is rest]
        assert starts == sorted(starts)         # grid-major, one pass

    def test_reduce_snapshot_restore_are_buffer_operations(self, planar_small):
        sf, tf, base, mgr = self._manager(planar_small, pz=2)
        rng = np.random.default_rng(0)
        for buf in mgr._bufs:
            buf[:] = rng.random(buf.size)
        root = sf.tree.root
        before = {g: {k: b.copy() for k, b in mgr.view(g).items()}
                  for g in range(2)}
        snap = mgr.snapshot()
        rows, cols = (np.array(x) for x in zip(*[
            (i, j) for i, j, _w in mgr.blocks_fn(sf, root)]))
        mgr.accumulate(0, 1, rows, cols)
        for key in zip(rows.tolist(), cols.tolist()):
            assert np.array_equal(mgr.view(0)[key],
                                  before[0][key] + before[1][key])
        assert np.array_equal(mgr.view(1)[(root, root)],
                              before[1][(root, root)])
        mgr.restore_grid(1, [np.zeros_like(b) for b in snap])
        assert not any(b.any() for b in mgr.view(1).values())
        assert mgr.view(0)[(root, root)].any()
        mgr.restore(snap)
        for g in range(2):
            for key, blk in mgr.view(g).items():
                assert np.array_equal(blk, before[g][key])

    def test_accepts_a_from_csr_base_and_a_packed_one(self, planar_small):
        """Every replica is sized from its base block: full height over a
        ``from_csr`` base, packed over a ranged arena, which then lays a
        node's diagonal block and L blocks out as one panel per grid."""
        from repro.lu2d.storage import extents, node_block_arrays
        from tests.reference_bind import block_rows
        sf, tf, base, full = self._manager(planar_small)
        _ptr, ii, jj, _ww = node_block_arrays(sf)
        r0, r1, rows = extents(sf).r0, extents(sf).r1, block_rows(sf)
        packed = BlockMatrix.zeros(sf.layout, ii, jj, (r0, r1))
        mgr = ReplicaManager(sf, tf, packed)
        assert (r1 - r0 < sf.layout.sizes()[ii]).any()
        assert mgr._bufs[1].size < full._bufs[1].size
        for g in range(tf.pz):
            assert set(mgr.view(g)) == set(full.view(g))
            for key, blk in mgr.view(g).items():
                assert blk.shape == packed[key].shape
                assert full.view(g)[key].shape == base[key].shape
        lp = sf.fill.lpanel
        for v in range(sf.nb):
            for g in tf.grids_of_node(v):
                P = mgr.panel(g, v)
                s = sf.layout.block_size(v)
                assert P.flags.c_contiguous and P.shape == (
                    s + sum(rows[(i, v)].stop - rows[(i, v)].start
                            for i in lp[v].tolist()), s)
                blocks = [mgr.view(g)[(v, v)]] + [mgr.view(g)[(i, v)]
                                                   for i in lp[v].tolist()]
                assert np.shares_memory(P[:s], blocks[0])
                assert np.array_equal(P, np.concatenate(blocks))

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_factors_are_full_height_copies(self, planar_small, backend):
        """``factors()`` places every stored block at its rows of a fresh
        full-height block; the LU arena is packed, Cholesky's is not."""
        from repro.plan.backends import get_backend
        from tests.reference_bind import block_rows
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        tf, grid3 = greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend,
                        matrix=sp.tril(sf.A_perm).tocsr()
                        if backend == "cholesky" else None)
        rows = block_rows(sf, get_backend(backend).node_blocks)
        F, home = res.factors(), res.replicas.home_view()
        assert set(F.blocks) == set(home)
        packed = 0
        for (i, j), blk in home.items():
            r = rows[(i, j)]
            full = F[(i, j)]
            assert full.shape == (sf.layout.block_size(i),
                                  sf.layout.block_size(j))
            assert not np.shares_memory(full, blk)
            assert np.array_equal(full[r], blk if len(blk) < len(full)
                                  else blk[r])
            assert not full[:r.start].any() and not full[r.stop:].any()
            packed += len(blk) < len(full)
        assert (packed > 0) == (backend == "lu")
        if backend == "lu":
            assert _lu_error(sf, res, A) < 1e-10

    def test_the_bricks_packed_arena_is_under_70_percent(self):
        """``brick_cold``'s matrix (``grid3d_7pt(16)``, leaf 64,
        ``max_block`` 256): its L blocks packed to their rows hold at most
        0.70 of the full-height arena's words."""
        from repro.lu2d.storage import extents, node_block_arrays
        from repro.sparse import grid3d_7pt
        A, geom = grid3d_7pt(16)
        sf = symbolic_factorize(A, geom, leaf_size=64, max_block=256)
        _ptr, ii, jj, _ww = node_block_arrays(sf)
        r0, r1 = extents(sf).r0, extents(sf).r1
        s = sf.layout.sizes()
        assert ((r1 - r0) * s[jj]).sum() <= 0.70 * (s[ii] * s[jj]).sum()

    def test_base_must_be_an_arena_over_the_pattern(self, planar_small):
        sf, tf, base, _mgr = self._manager(planar_small)
        with pytest.raises(ValueError, match="arena"):
            ReplicaManager(sf, tf, base.copy())        # hand-assembled
        with pytest.raises(ValueError, match="arena"):
            ReplicaManager(sf, tf, BlockMatrix.from_csr(sf.A_perm, sf.layout))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "refactorized"])
    def test_buffers_die_by_reference_count(self, planar_small, warm):
        """No cycle through the manager, its views or its memoized kernel
        programs: dropping the solver frees both buffers with the cycle
        collector off (a 20 MB arena per request must not wait for it)."""
        import gc
        import weakref

        from repro import SparseLU3D
        A, geom = planar_small
        gc.collect()
        gc.disable()
        try:
            solver = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2,
                                leaf_size=16)
            solver.factorize()
            if warm:
                solver.refactorize(A * 2.0)
            solver.solve(np.ones(A.shape[0]))
            refs = [weakref.ref(buf) for buf in solver.result.replicas._bufs]
            assert solver.result.replicas._programs
            del solver
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestCriticalPath:
    def test_makespan_decreases_with_pz_on_planar(self):
        """The headline effect: for a fixed P, planar problems factor faster
        with larger pz (smaller 2D grids, parallel subtrees)."""
        A, geom = grid2d_5pt(32)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        times = []
        for pz, (px, py) in [(1, (4, 4)), (4, (2, 2)), (16, (1, 1))]:
            tf = greedy_partition(sf, pz)
            grid3 = ProcessGrid3D(px, py, pz)
            sim = Simulator(grid3.size, Machine.edison_like())
            factor_3d(sf, tf, grid3, sim, numeric=False)
            times.append(sim.makespan)
        assert times[1] < times[0]
        assert min(times[1], times[2]) == min(times)

    def test_per_level_makespan_monotone(self, planar_small):
        A, geom = planar_small
        _, _, _, res = _run_3d(A, geom, 4, leaf_size=16, numeric=False)
        ms = res.per_level_makespan
        assert len(ms) == 3  # l + 1 levels for pz=4
        assert all(a <= b for a, b in zip(ms, ms[1:]))
