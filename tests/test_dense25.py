"""Tests for the 2.5D ancestor-level cost engine
(``FactorOptions(ancestor_replication=Pz)``)."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.comm.simulator import COMPUTE_KINDS, PHASES
from repro.lu2d.options import FactorOptions
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

GOLDEN = Path(__file__).parent / "data" / "golden_ledgers_dense25.json"


def _dense25(sf, tf, grid3, sim, numeric=False):
    """Every ancestor level replicated across its whole range: c = Pz."""
    return factor_3d(sf, tf, grid3, sim, numeric=numeric,
                     options=FactorOptions(ancestor_replication=tf.pz))


def _setup(nx=10, pz=4, px=1, py=2):
    A, g = grid3d_7pt(nx)
    sf = symbolic_factorize(A, g, leaf_size=32)
    tf = greedy_partition(sf, pz)
    return sf, tf, ProcessGrid3D(px, py, pz)


class TestDense25:
    def test_flops_conserved(self):
        """The 2.5D schedule redistributes work; totals must match."""
        sf, tf, grid3 = _setup()
        sims = {}
        for label, fn in (("std", factor_3d), ("d25", _dense25)):
            sim = Simulator(grid3.size)
            fn(sf, tf, grid3, sim, numeric=False)
            sims[label] = sim
        tot = lambda s: sum(s.flops[k].sum()
                            for k in ("diag", "panel", "schur"))
        assert tot(sims["d25"]) == pytest.approx(tot(sims["std"]))

    def test_conservation_and_drained(self):
        sf, tf, grid3 = _setup()
        sim = Simulator(grid3.size)
        _dense25(sf, tf, grid3, sim)
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.pending_messages() == 0

    def test_ancestor_flops_spread_over_range(self):
        """Every rank of the machine does top-level work in 2.5D mode."""
        sf, tf, grid3 = _setup(pz=4)
        sim = Simulator(grid3.size)
        _dense25(sf, tf, grid3, sim)
        comp = sum(sim.flops[k] for k in ("diag", "panel", "schur"))
        assert (comp > 0).all()

    def test_beats_standard_on_nonplanar_high_pz(self):
        sf, tf, grid3 = _setup(nx=12, pz=8, px=1, py=2)
        t = {}
        for label, fn in (("std", factor_3d), ("d25", _dense25)):
            sim = Simulator(grid3.size, Machine.edison_like())
            fn(sf, tf, grid3, sim, numeric=False)
            t[label] = sim.makespan
        assert t["d25"] < t["std"]

    def test_numeric_not_supported(self):
        sf, tf, grid3 = _setup()
        with pytest.raises(NotImplementedError):
            _dense25(sf, tf, grid3, Simulator(grid3.size), numeric=True)

    def test_pz_mismatch_rejected(self):
        sf, tf, _ = _setup(pz=2)
        with pytest.raises(ValueError, match="pz"):
            _dense25(sf, tf, ProcessGrid3D(1, 2, 4), Simulator(8))

    def test_pz1_runs_leaf_level_only(self):
        """With one grid there are no ancestor levels to model densely."""
        sf, tf, grid3 = _setup(pz=1, px=2, py=2)
        a = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, a, numeric=False)
        b = Simulator(grid3.size)
        _dense25(sf, tf, grid3, b)
        assert np.allclose(a.clock, b.clock)


def _ledger_dict(sim: Simulator) -> dict:
    """Mirror of tests/data/regen_golden_dense25.py's serialization."""
    out: dict = {"clock": sim.clock.tolist(),
                 "mem_current": sim.mem_current.tolist(),
                 "mem_peak": sim.mem_peak.tolist()}
    for k in COMPUTE_KINDS:
        out[f"flops:{k}"] = sim.flops[k].tolist()
        out[f"t_compute:{k}"] = sim.t_compute[k].tolist()
    for p in PHASES:
        out[f"words_sent:{p}"] = sim.words_sent[p].tolist()
        out[f"words_recv:{p}"] = sim.words_recv[p].tolist()
        out[f"msgs_sent:{p}"] = sim.msgs_sent[p].tolist()
        out[f"msgs_recv:{p}"] = sim.msgs_recv[p].tolist()
    out["event_counts"] = {k: int(v) for k, v in sim.event_counts.items()}
    return out


class TestGoldenLedgers:
    """The ancestor_replication=Pz path must reproduce the committed 2.5D
    oracle ledgers bit-for-bit, in both block-volume modes."""

    #: Must mirror tests/data/regen_golden_dense25.py::CASES.
    CASES = (
        ("d25_brick_pz4", grid3d_7pt, (10, 32, 4), (1, 2)),
        ("d25_brick_pz2", grid3d_7pt, (8, 32, 2), (2, 2)),
        ("d25_brick_pz8", grid3d_7pt, (12, 32, 8), (1, 2)),
        ("d25_planar_pz4", grid2d_5pt, (14, 16, 4), (2, 2)),
    )

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("name,gen,shape,pxy", CASES,
                             ids=[c[0] for c in CASES])
    def test_bit_identical(self, golden, name, gen, shape, pxy):
        nx, leaf, pz = shape
        A, g = gen(nx)
        sf = symbolic_factorize(A, g, leaf_size=leaf)
        tf = greedy_partition(sf, pz)
        for suffix, opts in (("", FactorOptions()),
                             ("_compact", FactorOptions(compact_comm=True))):
            grid3 = ProcessGrid3D(*pxy, pz)
            sim = Simulator(grid3.size, Machine.edison_like())
            factor_3d(sf, tf, grid3, sim, numeric=False,
                      options=replace(opts, ancestor_replication=pz))
            assert _ledger_dict(sim) == golden[name + suffix], name + suffix


class TestGeneralizedReplication:
    """1 <= c <= Pz: c=1 is Algorithm 1, c=Pz the dense 2.5D sweep, and
    intermediate factors must be priced, conserved and race-free."""

    def test_c1_is_standard_path(self):
        sf, tf, grid3 = _setup()
        a = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, a, numeric=False)
        b = Simulator(grid3.size)
        factor_3d(sf, tf, grid3, b, numeric=False,
                  options=FactorOptions(ancestor_replication=1))
        assert _ledger_dict(a) == _ledger_dict(b)

    def test_c_exceeding_pz_rejected(self):
        sf, tf, grid3 = _setup(pz=2)
        with pytest.raises(ValueError, match="ancestor_replication"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=False,
                      options=FactorOptions(ancestor_replication=4))

    def test_numeric_rejected_for_replication(self):
        sf, tf, grid3 = _setup()
        with pytest.raises(NotImplementedError):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=True,
                      options=FactorOptions(ancestor_replication=2))

    @pytest.mark.parametrize("c", (2, 4))
    @pytest.mark.parametrize("compact", (False, True),
                             ids=("dense", "compact"))
    def test_intermediate_c_passes_verify_stack(self, c, compact):
        from repro.verify import analyze_plan, check_conservation, fuzz_3d
        sf, tf, grid3 = _setup(nx=10, pz=8, px=1, py=2)
        opts = FactorOptions(ancestor_replication=c, compact_comm=compact)
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=False, options=opts)
        report = analyze_plan(res.plan, sf)
        assert not report.issues, report.issues
        check_conservation(sim, res.plan)   # sweeps included, per rank
        fr = fuzz_3d(sf, tf, grid3, n_orders=3, numeric=False,
                     options=opts, seed=5)
        assert not fr.ledger_mismatches, fr

    def test_numeric_fuzz_rejected_for_replication(self):
        from repro.verify import fuzz_3d
        sf, tf, grid3 = _setup(pz=4)
        with pytest.raises(ValueError, match="cost-only"):
            fuzz_3d(sf, tf, grid3, n_orders=1, numeric=True,
                    options=FactorOptions(ancestor_replication=2))

    def test_compile_preserves_replicated_tasks(self):
        """Aggregate sweeps are one dispatch at either width: the
        full-width statistics count them once on both sides, and a
        width-1 run books the full-width ledger."""
        from repro.verify import ledger_state
        from tests.conftest import width1_simulator
        sf, tf, grid3 = _setup(nx=10, pz=8, px=1, py=2)
        opts = FactorOptions(ancestor_replication=4)
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=False, options=opts)
        n_rep = sum(len(s.replicated) for s in res.plan.levels)
        assert n_rep > 0
        st = res.compiled.stats
        n_grid = sum(gp.n_tasks for s in res.plan.levels
                     for gp in s.grid_plans)
        assert st.n_tasks_before - n_grid == st.n_tasks_after - sum(
            gp.fusion_stats().n_tasks_after for s in res.plan.levels
            for gp in s.grid_plans) >= n_rep
        unit = width1_simulator(grid3.size)
        res_u = factor_3d(sf, tf, grid3, unit, numeric=False, options=opts)
        assert res_u.compiled is None
        assert ledger_state(unit) == ledger_state(sim)

    def test_more_replication_shortens_critical_path(self):
        """Section VII's trade: replicating ancestors spends extra total
        words (c-way broadcast) to cut the critical path — makespan must
        be non-increasing in c on a deep non-planar case."""
        sf, tf, grid3 = _setup(nx=12, pz=8, px=1, py=2)
        span, words = {}, {}
        for c in (1, 2, 4, 8):
            sim = Simulator(grid3.size, Machine.edison_like())
            factor_3d(sf, tf, grid3, sim, numeric=False,
                      options=FactorOptions(ancestor_replication=c))
            span[c] = sim.makespan
            words[c] = sim.total_words_sent()
        assert span[2] <= span[1]
        assert span[4] <= span[2]
        assert span[8] <= span[4]
        # ... and the words really are the price paid, not a free lunch.
        assert words[8] >= words[1]
