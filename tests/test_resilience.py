"""Resilience subsystem: deterministic faults, checkpoint/restart,
z-replica recovery.

Three invariant families:

* **Do no harm** — with an empty fault plan nothing attaches to the
  simulator and every driver's ledgers stay bit-for-bit identical to the
  golden seed; a walk the engine watches whose faults never fire is
  equally bit-exact.
* **Determinism** — the same fault plan perturbs two runs (and any
  worker-count setting, which falls back to the serial walk)
  bit-identically; ``golden_resilience.json`` pins 96 faulted runs.
* **Recovery correctness** — a grid crash at every ancestor level, under
  both policies, completes with factors within 1e-12 of the fault-free
  run and nonzero finite recovery overhead.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.analysis import format_resilience_stats
from repro.cholesky import factor_chol_3d
from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.lu3d.merged import factor_3d_merged
from repro.parallel import ParallelFallback
from repro.resilience import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    ResilienceEngine,
    ResilienceStats,
)
from repro.sparse import grid2d_5pt
from repro.verify import ledger_state
from tests.test_plan import assert_matches_golden, planar_setup, spd_setup

#: A crash fault armed at a time no run reaches — hooks the resilience
#: engine onto the walk without perturbing anything.
NEVER = FaultPlan((Fault("crash", at_time=math.inf),))


def lu3d_run(options=None, numeric=True, pz=4):
    sf, tf = planar_setup(14, 16, pz)
    grid3 = ProcessGrid3D(2, 2, pz)
    sim = Simulator(grid3.size, Machine.edison_like())
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=options)
    return sf, tf, sim, res


def lu2d_run(options=None, numeric=True):
    """The 2D baseline the ``lu2d*`` goldens pin: Algorithm 1 at Pz = 1."""
    sf, tf = planar_setup(12, 16, 1)
    grid3 = ProcessGrid3D(2, 3, 1)
    sim = Simulator(grid3.size, Machine.edison_like())
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=options)
    return sim, res


class TestDoNoHarm:
    def test_empty_plan_is_inactive(self):
        opts = FactorOptions(fault_plan=FaultPlan())
        assert not opts.resilience_active()
        _, _, sim, res = lu3d_run(options=opts)
        assert res.resilience is None
        assert sim.faults is None
        assert_matches_golden("lu3d_pz4_numeric", sim, res)

    def test_monitored_walk_lu3d_golden(self):
        _, _, sim, res = lu3d_run(options=FactorOptions(fault_plan=NEVER))
        assert res.resilience is not None
        assert res.resilience.crashes == 0
        assert_matches_golden("lu3d_pz4_numeric", sim, res)

    def test_monitored_walk_lu2d_golden(self):
        sim, res = lu2d_run(FactorOptions(fault_plan=NEVER), numeric=False)
        assert isinstance(res.resilience, ResilienceStats)
        assert_matches_golden("lu2d_default", sim)

    def test_monitored_walk_merged_golden(self):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d_merged(sf, tf, grid3, sim, numeric=True,
                               options=FactorOptions(fault_plan=NEVER))
        assert res.resilience is not None
        assert_matches_golden("merged_pz4_numeric", sim)

    def test_monitored_walk_cholesky_golden(self):
        sf, tf = spd_setup(14, 16, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_chol_3d(sf, tf, grid3, sim, numeric=True,
                             options=FactorOptions(fault_plan=NEVER))
        assert res.resilience is not None
        assert_matches_golden("chol_pz2_numeric", sim, res)


class TestFaultPlanConstruction:
    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(42, n_faults=5, n_grids=4, n_levels=3,
                               n_ranks=16, t_max=0.5)
        b = FaultPlan.generate(42, n_faults=5, n_grids=4, n_levels=3,
                               n_ranks=16, t_max=0.5)
        c = FaultPlan.generate(43, n_faults=5, n_grids=4, n_levels=3,
                               n_ranks=16, t_max=0.5)
        assert a == b
        assert a != c
        assert len(a) == 5
        assert all(f.kind in FAULT_KINDS for f in a)

    def test_generated_crashes_bind_and_fire(self):
        """A generated crash targets a grid active at its level, so every
        seeded plan binds to a 2x2x4 run and its crash fires."""
        for seed in range(20):
            plan = FaultPlan.generate(seed, kinds=("crash",), n_grids=4,
                                      n_levels=3)
            (f,) = plan.crashes()
            assert f.grid % (4 >> f.level) == 0
            *_, res = lu3d_run(FactorOptions(fault_plan=plan))
            assert res.resilience.crashes == 1, (seed, f)

    @pytest.mark.parametrize("n_grids, n_levels", [(3, 1), (6, 2), (4, 4),
                                                   (1, 2), (0, 1)])
    def test_generate_refuses_a_grid_count_no_run_has(self, n_grids,
                                                      n_levels):
        with pytest.raises(ValueError, match="n_grids|n_levels"):
            FaultPlan.generate(0, kinds=("crash",), n_grids=n_grids,
                               n_levels=n_levels)

    def test_parse_spec(self):
        plan = FaultPlan.parse(
            "crash:grid=1,level=2;slow:rank=3,factor=4;"
            "drop:src=2,count=2;delay:dst=1,delay=1e-4")
        kinds = [f.kind for f in plan]
        assert kinds == ["crash", "slow", "drop", "delay"]
        assert plan.crashes()[0].grid == 1
        assert plan.mechanical()[0].slow_factor == 4.0
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("crash:bogus=1")

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meltdown")
        with pytest.raises(ValueError, match="slow_factor"):
            Fault("slow", slow_factor=0.5)
        with pytest.raises(ValueError, match="n_messages"):
            Fault("drop", n_messages=0)
        with pytest.raises(ValueError, match="recovery"):
            FactorOptions(recovery="pray")


class TestMechanicalFaults:
    def test_slow_rank_bit_identical_across_runs(self):
        plan = FaultPlan((Fault("slow", rank=0, slow_factor=3.0),))
        runs = [ledger_state(lu3d_run(
            options=FactorOptions(fault_plan=plan))[2]) for _ in range(2)]
        assert runs[0] == runs[1]
        clean = ledger_state(lu3d_run()[2])
        assert runs[0]["clock"] != clean["clock"]
        # Slowing perturbs time, never flops or traffic.
        assert runs[0]["flops:schur"] == clean["flops:schur"]
        assert runs[0]["words_sent:fact"] == clean["words_sent:fact"]

    def test_drop_books_retransmissions(self):
        plan = FaultPlan((Fault("drop", src=0, n_messages=3),))
        _, _, sim, res = lu3d_run(options=FactorOptions(fault_plan=plan))
        _, _, clean, _ = lu3d_run()
        extra_msgs = int(sim.msgs_sent["fact"][0] - clean.msgs_sent["fact"][0])
        assert extra_msgs == 3
        assert sim.words_sent["fact"][0] > clean.words_sent["fact"][0]
        # Receivers saw each payload exactly once.
        assert sim.msgs_recv["fact"].tolist() == \
            clean.msgs_recv["fact"].tolist()
        assert res.resilience.faults_fired == 1

    def test_delay_pushes_arrival_only(self):
        plan = FaultPlan((Fault("delay", src=0, delay=0.5),))
        _, _, sim, _ = lu3d_run(options=FactorOptions(fault_plan=plan))
        _, _, clean, _ = lu3d_run()
        assert sim.makespan >= 0.5 > clean.makespan
        assert sim.words_sent["fact"].tolist() == \
            clean.words_sent["fact"].tolist()
        assert sim.msgs_sent["fact"].tolist() == \
            clean.msgs_sent["fact"].tolist()


class TestGoldenFaults:
    """Faulted runs are pinned bit-for-bit, like the fault-free drivers.

    These golden cases are the only thing in the suite that freezes the
    recovery ('rec') phase ledgers and the checkpoint I/O charges — a
    refactor of the resilience engine that silently changes either now
    diverges from ``tests/data/golden_ledgers.json``.
    """

    CRASH = FaultPlan((Fault("crash", grid=2, level=1),))

    def test_restart_with_checkpoints(self):
        opts = FactorOptions(fault_plan=self.CRASH, checkpoint_every=20,
                             recovery="restart")
        _, _, sim, res = lu3d_run(options=opts)
        assert_matches_golden("lu3d_pz4_fault_restart", sim, res)

    def test_zreplica_recovery(self):
        opts = FactorOptions(fault_plan=self.CRASH, recovery="z-replica")
        _, _, sim, res = lu3d_run(options=opts)
        assert_matches_golden("lu3d_pz4_fault_zreplica", sim, res)
        # the golden case must actually exercise the 'rec' phase
        want = ledger_state(sim)
        assert sum(want["words_sent:rec"]) > 0

    @pytest.mark.parametrize("case,kw", [
        ("lu3d_pz4_fault_restart", {"checkpoint_every": 20,
                                    "recovery": "restart"}),
        ("lu3d_pz4_fault_zreplica", {"recovery": "z-replica"})])
    def test_compact_pricing(self, case, kw):
        """The same two faulted runs under compact block pricing, against
        the compact golden file."""
        opts = FactorOptions(fault_plan=self.CRASH, compact_comm=True, **kw)
        _, _, sim, res = lu3d_run(options=opts)
        assert_matches_golden(case, sim, res, compact=True)


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def clean(self):
        sf, tf, sim, res = lu3d_run()
        return tf, sim, res.factors().to_dense()

    @pytest.mark.parametrize("policy, every", [
        ("restart", 20), ("z-replica", 20), ("restart", 0), ("z-replica", 0)],
        ids=["restart", "z-replica", "restart-no-checkpoints",
             "z-replica-no-checkpoints"])
    def test_crash_at_every_level(self, clean, policy, every, monkeypatch):
        """Where each crash resumes the walk: with no checkpoint a restart
        rewinds to ``(0, 0, 0)`` from every level, across levels; z-replica
        restarts the crashed grid's plan at its own level."""
        tf, _, F0 = clean
        resumes = []
        before = ResilienceEngine.before_task

        def spy(self, *args):
            resume = before(self, *args)
            if resume is not None:
                resumes.append(tuple(resume[:3]))
            return resume

        monkeypatch.setattr(ResilienceEngine, "before_task", spy)
        for lvl in range(tf.l + 1):
            plan = FaultPlan((Fault("crash", grid=0, level=lvl),))
            _, _, sim, res = lu3d_run(options=FactorOptions(
                fault_plan=plan, recovery=policy, checkpoint_every=every))
            st = res.resilience
            assert st.crashes == 1
            assert st.faults_fired == 1
            assert st.overhead_seconds > 0
            assert np.isfinite(st.overhead_seconds)
            assert st.overhead_pct > 0
            err = float(np.abs(res.factors().to_dense() - F0).max())
            assert err <= 1e-12, (policy, lvl, err)
            # Levels run top (index 0) down; grid 0 is each level's first.
            if policy == "z-replica":
                assert resumes.pop() == (tf.l - lvl, 0, 0)
            elif every == 0:
                assert resumes.pop() == (0, 0, 0)
            else:
                assert len(resumes) == 1 and resumes.pop()[0] <= tf.l - lvl

    def test_zreplica_leaves_survivor_clocks_untouched(self, clean):
        _, clean_sim, _ = clean
        plan = FaultPlan((Fault("crash", grid=0, level=1),))
        _, _, sim, _ = lu3d_run(options=FactorOptions(
            fault_plan=plan, recovery="z-replica"))
        # Recovery of grid 0 at level 1 replays only its level-2 plan and
        # the level-2 reduce from grid 1; grids 2 and 3 (ranks 8..15)
        # never participate and keep their fault-free timelines.
        assert sim.clock[8:16].tolist() == clean_sim.clock[8:16].tolist()
        # The crashed grid's ranks did pay for the recovery.
        assert (sim.clock[0:4] > clean_sim.clock[0:4]).all()

    def test_zreplica_books_recovery_phase_traffic(self):
        plan = FaultPlan((Fault("crash", grid=0, level=1),))
        _, _, sim, res = lu3d_run(options=FactorOptions(
            fault_plan=plan, recovery="z-replica"))
        st = res.resilience
        assert st.policy == "z-replica"
        assert st.recovery_compute_seconds > 0
        assert st.recovery_words > 0
        assert float(sim.words_sent["rec"].sum()) == pytest.approx(
            st.recovery_words)
        # Fault-free phases remain comparable to the clean run.
        _, _, clean, _ = lu3d_run()
        assert sim.words_sent["red"].tolist() == \
            clean.words_sent["red"].tolist()

    def test_restart_without_checkpoints_replays_from_scratch(self, clean):
        tf, _, F0 = clean
        ref = lu3d_run()[3]
        tid = int(ref.plan.levels[0].grid_plans[0].arrays.tid[8])
        plan = FaultPlan((Fault("crash", grid=0, at_task=tid),))
        _, _, _, res = lu3d_run(options=FactorOptions(fault_plan=plan))
        st = res.resilience
        assert st.checkpoints_taken == 0
        assert st.lost_work_seconds > 0
        assert float(np.abs(res.factors().to_dense() - F0).max()) <= 1e-12

    def test_checkpoints_shrink_lost_work(self):
        ref = lu3d_run()[3]
        tid = int(ref.plan.levels[0].grid_plans[0].arrays.tid[8])
        plan = FaultPlan((Fault("crash", grid=0, at_task=tid),))
        lost = {}
        for every in (0, 1):
            _, _, _, res = lu3d_run(options=FactorOptions(
                fault_plan=plan, checkpoint_every=every))
            lost[every] = res.resilience.lost_work_seconds
        assert lost[1] < lost[0]

    def test_checkpoint_cadence_and_io_accounting(self):
        opts = FactorOptions(checkpoint_every=5)
        assert opts.resilience_active()
        _, _, sim, res = lu3d_run(options=opts)
        st = res.resilience
        n_tasks = sum(gp.n_tasks for step in res.plan.levels
                      for gp in step.grid_plans)
        assert st.checkpoints_taken == n_tasks // 5
        assert st.checkpoint_io_seconds > 0
        assert st.checkpoint_words > 0
        _, _, clean, _ = lu3d_run()
        assert sim.makespan > clean.makespan  # checkpoint writes cost time

    def test_merged_falls_back_to_restart(self):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        plan = FaultPlan((Fault("crash", grid=0, level=1),))
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d_merged(sf, tf, grid3, sim, numeric=True,
                               options=FactorOptions(fault_plan=plan,
                                                     recovery="z-replica"))
        st = res.resilience
        assert st.policy == "restart"
        assert st.notes == [
            "z-replica recovery unavailable (a merged grid's rank span "
            "holds the sibling replicas it would rebuild from); using "
            "restart"]
        assert st.crashes == 1
        # The restart replays onto the replicas: the fault-free factors.
        clean = factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=True)
        assert np.array_equal(res.factors().to_dense(),
                              clean.factors().to_dense())

    def test_2d_crash_restart(self):
        F0 = lu2d_run()[1].factors().to_dense()
        plan = FaultPlan((Fault("crash", grid=0),))
        _sim, res = lu2d_run(FactorOptions(fault_plan=plan, checkpoint_every=7,
                                           recovery="z-replica"))
        st = res.resilience
        assert st.policy == "restart"  # degraded: no z replicas in 2D
        assert st.crashes == 1
        assert st.overhead_seconds > 0
        F = res.factors().to_dense()
        assert float(np.abs(F - F0).max()) <= 1e-12

    @pytest.mark.parametrize("numeric", [False, True])
    def test_pz1_zreplica_is_restart_by_any_entry(self, numeric):
        """At Pz = 1 there are no sibling replicas: z-replica falls back
        to restart and says why, whether the run enters through
        ``factor_3d`` or the facade — its ledger is the restart run's,
        checkpoint and all."""
        from repro.solve import SparseLU3D
        plan = FaultPlan((Fault("crash", grid=0, at_task=30),))
        runs = {}
        for policy in ("z-replica", "restart"):
            opts = FactorOptions(fault_plan=plan, checkpoint_every=7,
                                 recovery=policy)
            sim, res = lu2d_run(opts, numeric=numeric)
            A, geom = grid2d_5pt(12)
            solver = SparseLU3D(A, geometry=geom, px=2, py=3, pz=1,
                                leaf_size=16, options=opts, numeric=numeric)
            solver.factorize()
            runs[policy] = [(ledger_state(sim), res.resilience),
                            (ledger_state(solver.sim),
                             solver.result.resilience)]
        for (ledger, st), (ledger_r, st_r) in zip(runs["z-replica"],
                                                  runs["restart"]):
            assert st.policy == "restart" and st.crashes == 1
            assert st.notes == ["z-replica recovery unavailable (2D run has "
                                "no sibling replicas along z); using restart"]
            assert ledger == ledger_r
            assert st.makespan == st_r.makespan


class TestUnmatchedCrash:
    """A crash fault no task boundary of the run can match is refused
    when the engine binds, naming the fault and what could match —
    never a run that passes with ``faults_fired 0``."""

    CASES = {"grid=7": "grid must be one of [0, 1, 2, 3]",
             "level=9": "level in 0..2",
             "task=100000": "at_task one of the plan's grid task ids",
             # Each key is valid on its own; no grid plan has both: at
             # Pz = 4 level 1 runs grids 0 and 2, level 0 grid 0 only.
             "grid=1,level=1": "no grid plan matches all three",
             "grid=2,level=0": "no grid plan matches all three"}

    @pytest.mark.parametrize("spec", CASES)
    def test_factor_3d(self, spec):
        plan = FaultPlan.parse(f"crash:{spec}")
        with pytest.raises(ValueError, match=re.escape(self.CASES[spec])):
            lu3d_run(options=FactorOptions(fault_plan=plan))

    @pytest.mark.parametrize("spec, why", [
        ("grid=1", "grid must be one of [0]"), ("level=1", "level in 0..0")])
    def test_factor_2d(self, spec, why):
        opts = FactorOptions(fault_plan=FaultPlan.parse(f"crash:{spec}"))
        with pytest.raises(ValueError, match=re.escape(why)):
            lu2d_run(opts, numeric=False)

    @pytest.mark.parametrize("spec", ["grid=7", "level=9"])
    def test_cli_faults(self, tmp_path, spec):
        from repro.cli import main
        mtx = tmp_path / "m.mtx"
        assert main(["generate", "--kind", "grid2d_5pt", "--size", "14",
                     "--out", str(mtx)]) == 0
        why = f"crash fault .*{re.escape(self.CASES[spec])}"
        with pytest.raises(ValueError, match=why):
            main(["solve", str(mtx), "--grid", "14,14", "--px", "2",
                  "--py", "2", "--pz", "4", "--leaf-size", "16",
                  "--faults", f"crash:{spec}"])


class TestResilienceGolden:
    """``golden_resilience.json`` was written at ``ae87111`` by the two
    resilient level loops the one walk replaced: every faulted run —
    ledger hash, every stats field, factor hash — byte for byte."""

    def test_regenerating_rewrites_the_file_byte_for_byte(self):
        from tests.data.regen_resilience import OUT, records, render
        recs = records()
        assert len(recs) == 96
        assert render(recs) == OUT.read_text()


class TestSerialization:
    def test_workers_fall_back_and_match_serial(self):
        plan = FaultPlan((Fault("crash", grid=0, level=1),))
        ledgers = {}
        for nw in (1, 2):
            _, _, sim, res = lu3d_run(options=FactorOptions(
                fault_plan=plan, recovery="z-replica", n_workers=nw))
            ledgers[nw] = ledger_state(sim)
            if nw != 1:
                fbs = [s for s in res.parallel_stats
                       if isinstance(s, ParallelFallback)]
                assert fbs and "resilience" in fbs[0].reason
        assert ledgers[1] == ledgers[2]

    def test_decision_table_never_pairs_pool_with_fault_plan(self):
        from repro import Simulator
        from repro.plan import resolve_exec
        opts = FactorOptions(fault_plan=FaultPlan((Fault("slow"),)),
                             n_workers=2)
        mode = resolve_exec(opts, Simulator(4), numeric=True)
        assert not mode.fuse and mode.n_workers == 1
        assert "serial" in mode.fallback.reason


class TestReporting:
    def test_format_resilience_stats(self):
        plan = FaultPlan((Fault("crash", grid=0, level=1),
                          Fault("slow", rank=0, slow_factor=2.0)))
        _, _, _, res = lu3d_run(options=FactorOptions(
            fault_plan=plan, recovery="z-replica", checkpoint_every=10))
        text = format_resilience_stats(res.resilience)
        for needle in ("recovery policy", "z-replica", "grid crashes",
                       "checkpoints taken", "lost work", "downtime",
                       "overhead [% of compute]"):
            assert needle in text
        assert res.resilience.faults_survived == 2
        assert res.resilience.total_compute_seconds > 0

    def test_cli_solve_with_faults(self, tmp_path, capsys):
        from repro.cli import main
        mtx = tmp_path / "m.mtx"
        assert main(["generate", "--kind", "grid2d_5pt", "--size", "10",
                     "--out", str(mtx)]) == 0
        rc = main(["solve", str(mtx), "--grid", "10,10",
                   "--px", "2", "--py", "2", "--pz", "2",
                   "--leaf-size", "16", "--rhs", "random", "--seed", "3",
                   "--faults", "crash:grid=0,level=0",
                   "--checkpoint-every", "10", "--recovery", "z-replica"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience" in out
        assert "grid crashes" in out

    def test_cli_generate_seed_changes_random_matrices(self, tmp_path):
        from repro.cli import main
        from repro.sparse import read_matrix_market
        paths = {}
        for seed in (1, 2, 1):
            p = tmp_path / f"c{seed}_{len(paths)}.mtx"
            assert main(["generate", "--kind", "circuit", "--size", "120",
                         "--out", str(p), "--seed", str(seed)]) == 0
            paths[len(paths)] = read_matrix_market(str(p))
        same = (paths[0] - paths[2]).nnz == 0
        diff = (paths[0] != paths[1]).nnz if paths[0].shape == paths[1].shape \
            else 1
        assert same
        assert diff > 0
