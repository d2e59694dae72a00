"""The block-volume model (:mod:`repro.comm.volume`) and its consumers.

Pins the contract the comm-volume refactor rides on: dense pricing is the
identity (so dense goldens stay bit-identical to the seed), compact
pricing never exceeds dense per block — hence per phase and in total —
and a compact run still passes the full verification stack (conservation
oracle, order fuzzing, bit-identical factors, worker fan-out).
Also covers the option-only mode resolution, ``cap_many``, the plan-bundle cross-mode
guard, the ``words >= 0`` validation of a booked reduction hop or
broadcast, the ``words_per_rank(phase=...)`` filter, and array-vs-per-event
broadcast event accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import CommError, Machine, ProcessGrid3D, Simulator
from repro.comm.simulator import PHASES
from repro.comm.stream import EventStream
from repro.comm.volume import (
    WORDS_PER_ENTRY,
    CompactVolume,
    DenseVolume,
    compact_enabled,
    volume_for,
    volume_kind,
)
from repro.lu2d import FactorOptions
from repro.lu2d.storage import node_block_arrays
from repro.lu3d import factor_3d
from repro.plan.replay import plan_options_key
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.symbolic.blocknnz import block_nnz_tables
from repro.tree import greedy_partition
from repro.verify import check_conservation, fuzz_3d
from tests.conftest import EventByEvent, bcast_stream

COMPACT = FactorOptions(compact_comm=True)


def small_setup(nx=10, leaf=12, pz=2):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def run_3d(sf, tf, pz, options=None, numeric=True):
    grid3 = ProcessGrid3D(2, 2, pz)
    sim = Simulator(grid3.size, Machine.edison_like())
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=options)
    return sim, res


# -- the pricing model itself ----------------------------------------------


class TestVolumeModel:
    def test_dense_cap_is_identity(self):
        v = DenseVolume()
        assert v.kind == "dense"
        for w in (0.0, 1.0, 17.0, 4096.0):
            assert v.cap(3, 5, w) == w

    def test_compact_never_exceeds_dense(self):
        sf, _ = small_setup()
        v = CompactVolume(sf)
        assert v.kind == "compact"
        sizes = sf.layout.sizes()
        for (i, j), nnz in v.tables.nnz.items():
            dense = float(sizes[i] * sizes[j])
            w = v.cap(i, j, dense)
            assert 0.0 <= w <= dense
            assert w <= WORDS_PER_ENTRY * nnz + 1e-9

    def test_compact_triangular_diag_uses_tri_nnz(self):
        sf, _ = small_setup()
        v = CompactVolume(sf)
        for i in range(sf.nb):
            s = sf.layout.block_size(i)
            tri_dense = s * (s + 1) / 2.0
            w = v.cap(i, i, tri_dense)
            assert w <= tri_dense
            assert w <= WORDS_PER_ENTRY * float(v.tables.tri[i]) + 1e-9
            # The full tile's price uses the full diag-block nnz instead.
            assert v.cap(i, i, float(s * s)) >= w

    def test_nnz_tables_sanity_and_memoized(self):
        sf, _ = small_setup()
        t1 = block_nnz_tables(sf)
        assert block_nnz_tables(sf) is t1   # cached on sf
        # The fill pattern is a superset of A's own block pattern.
        A = sf.A_perm.tocoo()
        bi = sf.layout.block_of_index(A.row)
        bj = sf.layout.block_of_index(A.col)
        for i, j in zip(bi.tolist(), bj.tolist()):
            assert t1.block_nnz(i, j) > 0
        n = sf.A_perm.shape[0]
        for i in range(sf.nb):
            s = sf.layout.block_size(i)
            assert 0 < t1.tri[i] <= t1.block_nnz(i, i) <= s * s
        assert t1.total >= sf.A_perm.nnz
        assert t1.total <= n * n

    def test_mode_resolution(self, monkeypatch):
        """``FactorOptions.compact_comm`` is the only switch: the retired
        environment twin is ignored in both directions."""
        sf, _ = small_setup(8, 8, 1)
        for env in (None, "1", "0"):
            if env is not None:
                monkeypatch.setenv("REPRO_COMPACT", env)
            assert volume_kind(None) == "dense"
            assert volume_kind(FactorOptions()) == "dense"
            assert volume_kind(COMPACT) == "compact"
            assert compact_enabled(FactorOptions()) is False
            assert isinstance(volume_for(sf, COMPACT), CompactVolume)
            assert isinstance(volume_for(sf, None), DenseVolume)

    def test_cap_many_matches_cap(self):
        sf, _ = small_setup()
        sizes = sf.layout.sizes()
        _ptr, ii, jj, ww = node_block_arrays(sf)
        tri = sizes * (sizes + 1) / 2.0
        k = np.arange(sf.nb)
        for v in (DenseVolume(), CompactVolume(sf)):
            for a, b, w in ((ii, jj, ww), (k, k, tri)):
                want = [v.cap(i, j, x) for i, j, x in
                        zip(a.tolist(), b.tolist(), w.tolist())]
                got = v.cap_many(a, b, w)
                assert got.dtype == np.float64 and got.tolist() == want


# -- end-to-end: compact runs against the verify stack ---------------------


class TestCompactRuns:
    @pytest.fixture(scope="class")
    def pair(self):
        sf, tf = small_setup(12, 16, 2)
        dense = run_3d(sf, tf, 2, options=FactorOptions())
        compact = run_3d(sf, tf, 2, options=COMPACT)
        return dense, compact

    def test_factors_bit_identical_across_modes(self, pair):
        (_, rd), (_, rc) = pair
        Fd = rd.factors().to_dense()
        Fc = rc.factors().to_dense()
        assert np.array_equal(Fd, Fc)   # pricing never touches numerics

    def test_compact_words_never_exceed_dense_per_phase(self, pair):
        (simd, _), (simc, _) = pair
        total_d = total_c = 0.0
        for p in PHASES:
            wd = simd.words_per_rank(phase=p).sum()
            wc = simc.words_per_rank(phase=p).sum()
            assert wc <= wd + 1e-9, f"phase {p}: compact exceeded dense"
            total_d += wd
            total_c += wc
        assert total_c < total_d   # strictly cheaper on a filled problem

    def test_compact_conserves(self, pair):
        _, (simc, rc) = pair
        check_conservation(simc, rc.plan)   # raises on any imbalance

    def test_fuzz_3d_compact_ok(self):
        sf, tf = small_setup(10, 12, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        rep = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=6, seed=3,
                      options=COMPACT)
        assert rep.ok, rep.summary()

    def test_fuzz_2d_compact_ok(self):
        A, geom = grid2d_5pt(10)
        sf = symbolic_factorize(A, geom, leaf_size=12)
        rep = fuzz_3d(sf, greedy_partition(sf, 1), ProcessGrid3D(2, 2, 1),
                      numeric=True, n_orders=6, seed=3, options=COMPACT)
        assert rep.ok, rep.summary()


# -- plan replay: mode is part of the cache key ----------------------------


class TestBundleModeGuard:
    def test_options_key_carries_volume_kind(self):
        kd = plan_options_key(FactorOptions())
        kc = plan_options_key(COMPACT)
        assert kd[-1] == "dense" and kc[-1] == "compact"
        assert kd != kc

    def test_cross_mode_replay_refused(self):
        sf, tf = small_setup(10, 12, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False,
                        options=FactorOptions())
        sim2 = Simulator(grid3.size, Machine.edison_like())
        with pytest.raises(ValueError, match="options"):
            factor_3d(sf, tf, grid3, sim2, numeric=False, options=COMPACT,
                      cached=res.bundle)

    def test_same_mode_replay_accepted(self):
        sf, tf = small_setup(10, 12, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False, options=COMPACT)
        sim2 = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, sim2, numeric=False, options=COMPACT,
                  cached=res.bundle)
        assert np.array_equal(sim.clock, sim2.clock)


# -- worker fan-out under compact pricing -----------------------------------


class TestCompactWorkerFanout:
    def test_compact_worker_fanout_matches_serial(self):
        sf, tf = small_setup(12, 16, 2)
        opts_serial = FactorOptions(compact_comm=True)
        opts_workers = FactorOptions(compact_comm=True, n_workers=2)
        sim1, r1 = run_3d(sf, tf, 2, options=opts_serial)
        sim2, r2 = run_3d(sf, tf, 2, options=opts_workers)
        assert np.array_equal(r1.factors().to_dense(),
                              r2.factors().to_dense())
        assert np.array_equal(sim1.clock, sim2.clock)
        assert np.array_equal(sim1.words_per_rank(), sim2.words_per_rank())


# -- satellite: collectives validation -------------------------------------


class TestCollectiveValidation:
    def test_reduce_pairwise_rejects_negative_words(self):
        sim = Simulator(4, Machine.edison_like())
        with pytest.raises(CommError, match="non-negative"):
            sim.book(EventStream.pairs([0], [1], [-1.0], "reduce_add"))
        # Nothing was booked before the validation fired.
        assert sim.event_counts.get("send", 0) == 0

    def test_bcast_rejects_negative_words(self):
        sim = Simulator(4, Machine.edison_like())
        with pytest.raises(CommError, match="non-negative"):
            sim.book(bcast_stream(0, [0, 1, 2], -4.0))
        assert not sim.event_counts


# -- satellite: simulator phase filtering + bcast parity --------------------


class TestSimulatorAccounting:
    def test_words_per_rank_phase_filter(self):
        sim = Simulator(4, Machine.edison_like())
        sim.set_phase("fact")
        sim.book(EventStream.pairs([0], [1], [100.0]))
        sim.set_phase("red")
        sim.book(EventStream.pairs([2], [3], [7.0]))
        fact = sim.words_per_rank(phase="fact")
        red = sim.words_per_rank(phase="red")
        assert fact.tolist() == [100.0, 100.0, 0.0, 0.0]
        assert red.tolist() == [0.0, 0.0, 7.0, 7.0]
        per_phase = sum(sim.words_per_rank(phase=p) for p in PHASES)
        assert np.array_equal(per_phase, sim.words_per_rank())
        msgs = sum(sim.msgs_per_rank(phase=p) for p in PHASES)
        assert np.array_equal(msgs, sim.msgs_per_rank())

    def test_bcast_closed_form_matches_per_event_counts(self):
        m = Machine.edison_like()
        fast = Simulator(8, m)                    # the array path
        slow = EventByEvent(8, m)            # send / recv per pair
        ranks = list(range(8))
        for s in (fast, slow):
            s.book(bcast_stream(2, ranks, 64.0))
        assert dict(fast.event_counts) == dict(slow.event_counts)
        assert np.array_equal(fast.words_per_rank(), slow.words_per_rank())
        assert np.array_equal(fast.msgs_per_rank(), slow.msgs_per_rank())
        assert np.array_equal(fast.clock, slow.clock)
