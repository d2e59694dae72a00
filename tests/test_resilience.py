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
* **One width rule** — the engine is the one observer of task boundaries:
  a run it watches walks task by task and keeps its levels serial, every
  other run — traced, under a topology or a hand-attached fault injector
  — walks full width and may fan out, and every combination of options
  books the serial reference ledger.
* **Recovery correctness** — a grid crash at every ancestor level, under
  both policies, completes with factors within 1e-12 of the fault-free
  run and nonzero finite recovery overhead.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from repro.analysis import Trace, format_resilience_stats
from repro.comm import (
    DragonflyTopology,
    Machine,
    ProcessGrid3D,
    Simulator,
    UniformTopology,
)
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.parallel import LevelStats, ParallelFallback, resolve_workers
from repro.resilience import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    ResilienceEngine,
    ResilienceStats,
)
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import fuzz_3d, ledger_state
from tests.conftest import EventByEvent, width1_options
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
        res = factor_3d(sf, tf, grid3, sim, numeric=True,
                        options=FactorOptions(fault_plan=NEVER), merged=True)
        assert res.resilience is not None
        assert_matches_golden("merged_pz4_numeric", sim)

    def test_monitored_walk_cholesky_golden(self):
        sf, tf = spd_setup(14, 16, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=True,
                        options=FactorOptions(fault_plan=NEVER),
                        backend="cholesky")
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
        res = factor_3d(sf, tf, grid3, sim, numeric=True, merged=True,
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
        opts = FactorOptions(fault_plan=FaultPlan((Fault("slow"),)),
                             n_workers=2)
        _, _, _, res = lu3d_run(options=opts)
        assert res.resilience is not None       # the monitor: width 1
        (fb,) = res.parallel_stats
        assert isinstance(fb, ParallelFallback) and "serial" in fb.reason


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


# -- one width rule: the monitor decides it ---------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.conftest import _symbolic  # noqa: E402

PZ = 2
GRID3 = ProcessGrid3D(2, 1, PZ)
MACHINE = Machine.edison_like()
ATTACHMENTS = ("none", "trace", "topology", "faults")
DRIVERS = ("lu", "merged", "cholesky")
FAULT_PLANS = {
    "none": None,
    "slow": FaultPlan((Fault("slow", rank=0, slow_factor=2.0),)),
    "crash": FaultPlan((Fault("crash", grid=0, level=1),)),
}


def make_sim(attachment: str) -> Simulator:
    """A simulator carrying one ledger-neutral attachment."""
    if attachment == "trace":
        return Simulator(GRID3.size, MACHINE, trace=Trace())
    if attachment == "topology":
        return Simulator(GRID3.size, MACHINE, topology=UniformTopology())
    sim = Simulator(GRID3.size, MACHINE)
    if attachment == "faults":      # an injector with no faults
        sim.attach_faults(FaultInjector(FaultPlan(), sim.machine))
    return sim


def setup_for(driver: str, blocking: str):
    sf = _symbolic(12, 16, driver == "cholesky", blocking)
    return sf, greedy_partition(sf, PZ)


def run_driver(driver: str, sf, tf, sim, numeric: bool, opts: FactorOptions):
    if driver == "merged":
        return factor_3d(sf, tf, GRID3, sim, numeric=numeric,
                         options=opts, merged=True)
    return factor_3d(sf, tf, GRID3, sim, numeric=numeric, options=opts,
                     backend="cholesky" if driver == "cholesky" else "lu")


def expect_fallback(opts, driver, numeric) -> bool:
    """The three stay-serial reasons: a monitored (width-1) run, a
    cost-only run, one resolved worker — for every driver, merged
    included. A trace, a topology or a hand-attached injector is none of
    them."""
    if opts.n_workers == 1:
        return False
    return opts.resilience_active() or not numeric \
        or resolve_workers(opts.n_workers) <= 1


_reference_cache: dict = {}


def reference_ledger(driver, numeric, opts: FactorOptions) -> dict:
    """The serial reference of ``opts``' ledger-relevant part: the
    fuzzer's identity order (one unit per task) for plain runs, the
    serial unattached run for resilient ones (faults and checkpoints
    change the ledger by design)."""
    key = (driver, numeric, opts.lookahead, opts.sparse_bcast,
           opts.compact_comm, opts.blocking,
           opts.fault_plan, opts.checkpoint_every, opts.recovery)
    if key not in _reference_cache:
        sf, tf = setup_for(driver, opts.blocking)
        serial = dataclasses.replace(opts, n_workers=1)
        if opts.resilience_active():
            sim = make_sim("none")
            run_driver(driver, sf, tf, sim, numeric, serial)
            ledger = ledger_state(sim)
        else:
            ledger = fuzz_3d(
                sf, tf, GRID3, numeric=numeric, n_orders=0, options=serial,
                machine=MACHINE, merged=driver == "merged",
                backend="cholesky" if driver == "cholesky" else "lu",
            ).canonical_ledger
        _reference_cache[key] = ledger
    return _reference_cache[key]


@st.composite
def cases(draw):
    fault = draw(st.sampled_from(sorted(FAULT_PLANS)))
    opts = FactorOptions(
        lookahead=draw(st.sampled_from([0, 8])),
        pivot_eps=draw(st.sampled_from([1e-10, 1e-8])),
        sparse_bcast=draw(st.booleans()),
        n_workers=draw(st.sampled_from([1, 2, 0])),
        fault_plan=FAULT_PLANS[fault],
        checkpoint_every=draw(st.sampled_from([0, 7])),
        recovery=draw(st.sampled_from(["restart", "z-replica"])),
        compact_comm=draw(st.booleans()),
        blocking=draw(st.sampled_from(["uniform", "irregular"])))
    return (opts, draw(st.sampled_from(ATTACHMENTS)),
            draw(st.sampled_from(DRIVERS)), draw(st.booleans()))


class TestOneWidthRule:
    """The whole observable input space — the nine ``FactorOptions``
    fields × what is attached to the simulator × the driver × numeric /
    cost-only — and every combination books the serial reference ledger
    bit for bit, recording a ``ParallelFallback`` exactly when it asked
    for threads it cannot use. The attachments are ledger-neutral by
    construction (an empty trace, a uniform topology, an injector with no
    faults), so one reference serves them all."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(cases())
    def test_every_combination_matches_reference_raises_or_falls_back(
            self, case):
        opts, attachment, driver, numeric = case
        sf, tf = setup_for(driver, opts.blocking)
        sim = make_sim(attachment)
        res = run_driver(driver, sf, tf, sim, numeric, opts)
        assert ledger_state(sim) == reference_ledger(driver, numeric, opts)
        fallbacks = [p for p in res.parallel_stats
                     if isinstance(p, ParallelFallback)]
        levels = [p for p in res.parallel_stats if isinstance(p, LevelStats)]
        if expect_fallback(opts, driver, numeric):
            assert len(fallbacks) == 1 and not levels
            assert fallbacks[0].requested_workers == opts.n_workers
        else:
            assert not fallbacks
            assert bool(levels) == (opts.n_workers != 1)

    @pytest.mark.parametrize("compact", [False, True],
                             ids=["dense", "compact"])
    @pytest.mark.parametrize("observer", [*ATTACHMENTS, "monitor"])
    def test_width_follows_what_observes(self, observer, compact):
        """Only the resilience monitor cuts the walk at every task: a
        trace and a topology ride ``Simulator.book``'s array path and a
        fault injector is fed event by event inside it, so their runs walk
        full width — same plan object, same ledger, either pricing."""
        opts = FactorOptions(compact_comm=compact,
                             checkpoint_every=7 if observer == "monitor" else 0)
        sf, tf = setup_for("lu", "uniform")
        sim = make_sim("none" if observer == "monitor" else observer)
        res = run_driver("lu", sf, tf, sim, True, opts)
        assert (res.resilience is None) == (observer != "monitor")
        assert res.plan is res.bundle.plan3
        assert ledger_state(sim) == reference_ledger("lu", True, opts)

    @pytest.mark.parametrize("observer", ["trace", "topology"])
    def test_observed_threaded_run_is_the_serial_run(self, observer):
        """A traced run and one under a (ledger-changing) topology fan their
        levels out on threads like a plain run — ``LevelStats``, no
        fallback — and book the serial run's trace, ledger and factors
        exactly."""
        sf, tf = setup_for("lu", "uniform")
        runs = []
        for nw in (1, 2):
            sim = Simulator(GRID3.size, MACHINE, trace=Trace()) \
                if observer == "trace" else Simulator(
                    GRID3.size, MACHINE, topology=DragonflyTopology(2, 1))
            runs.append((sim, run_driver("lu", sf, tf, sim, True,
                                         FactorOptions(n_workers=nw))))
        (sim_s, res_s), (sim_p, res_p) = runs
        assert [type(p) for p in res_p.parallel_stats] == [LevelStats]
        assert ledger_state(sim_p) == ledger_state(sim_s)
        assert np.array_equal(res_p.factors().to_dense(),
                              res_s.factors().to_dense())
        if observer == "trace":
            assert sim_s.trace.events and \
                sim_p.trace.events == sim_s.trace.events


#: Mechanical faults on a hand-attached injector: wildcard drops and
#: delays (every message matches until the budget is spent), one
#: destination, every rank slowed.
INJECTED = {
    "drop-any": (Fault("drop", n_messages=3), Fault("drop", n_messages=300)),
    "delay-any": (Fault("delay", delay=1e-4, n_messages=50),),
    "dst3": (Fault("drop", dst=3, n_messages=5),
             Fault("delay", dst=3, delay=2e-4, n_messages=5)),
    "slow-all": (Fault("slow", slow_factor=4.0),),
}


class TestInjectorWalksFullWidth:
    """A fault injector perturbs events inside ``Simulator.book``'s
    clock loop whatever the cut points, so a run it is attached to by
    hand (no resilience monitor) walks full width and books exactly what
    the per-task walk books."""

    @staticmethod
    def run(sf, tf, grid3, faults, numeric, opts):
        sim = Simulator(grid3.size, MACHINE)
        injector = FaultInjector(FaultPlan(faults), sim.machine)
        sim.attach_faults(injector)
        res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=opts)
        assert injector.n_fired_faults() > 0
        return sim, res

    @pytest.mark.parametrize("numeric", [False, True],
                             ids=["cost-only", "numeric"])
    @pytest.mark.parametrize("spec", sorted(INJECTED))
    @pytest.mark.parametrize("make", [lambda: grid2d_5pt(16),
                                      lambda: grid3d_7pt(6)],
                             ids=["planar", "non-planar"])
    def test_full_width_is_the_per_task_walk(self, make, spec, numeric):
        A, g = make()
        sf = symbolic_factorize(A, g, leaf_size=16)
        tf, grid3 = greedy_partition(sf, 4), ProcessGrid3D(2, 2, 4)
        sim_w, wide = self.run(sf, tf, grid3, INJECTED[spec], numeric,
                               FactorOptions())
        sim_1, unit = self.run(sf, tf, grid3, INJECTED[spec], numeric,
                               width1_options())
        assert wide.resilience is None and unit.resilience is not None
        assert ledger_state(sim_w) == ledger_state(sim_1)
        if numeric:
            assert np.array_equal(wide.factors().to_dense(),
                                  unit.factors().to_dense())

    def test_threads_engage_and_book_the_serial_ledger(self):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        faults = INJECTED["drop-any"] + INJECTED["delay-any"]
        sim_s, serial = self.run(sf, tf, grid3, faults, True, FactorOptions())
        sim_p, pooled = self.run(sf, tf, grid3, faults, True,
                                 FactorOptions(n_workers=2))
        assert serial.parallel_stats == []
        assert pooled.parallel_stats and all(
            isinstance(p, LevelStats) for p in pooled.parallel_stats)
        assert ledger_state(sim_p) == ledger_state(sim_s)
        assert np.array_equal(pooled.factors().to_dense(),
                              serial.factors().to_dense())


#: One fault family each, and all three at once: slow ranks, wildcard and
#: one-source drops, wildcard and one-destination delays, some armed only
#: after a simulated time.
ZOO_FAULTS = {
    "slow": (Fault("slow", rank=1, slow_factor=3.0),
             Fault("slow", at_time=1e-4, slow_factor=1.5)),
    "drop": (Fault("drop", n_messages=4), Fault("drop", src=2, n_messages=2),
             Fault("drop", at_time=1e-4, n_messages=3)),
    "delay": (Fault("delay", delay=2e-4, n_messages=6),
              Fault("delay", dst=1, delay=5e-5, n_messages=3)),
}
ZOO_FAULTS["all"] = sum(ZOO_FAULTS.values(), ())


class TestFaultsRideTheClockLoop:
    """The fault zoo: under every mechanical fault family, alone and
    combined, for every driver at ``Pz`` 1, 2 and 4, traced or not,
    attached by hand (full width) or by the resilience engine (per task),
    ``Simulator.book``'s clock loop books the standalone per-event
    referee's ledger and trace rows float for float, and both injectors
    fire the same faults."""

    @pytest.mark.parametrize("via", ["hand", "engine"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("spec", sorted(ZOO_FAULTS))
    @pytest.mark.parametrize("pz", [1, 2, 4])
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_the_loop_books_the_referee(self, driver, pz, spec, traced,
                                        via):
        if driver == "merged" and pz == 1:
            pytest.skip("a merged run needs sibling layers")
        sf = _symbolic(12, 16, driver == "cholesky", "uniform")
        grid3 = ProcessGrid3D(2, 1, pz)
        kw = {"lu": {}, "merged": {"merged": True},
              "cholesky": {"backend": "cholesky"}}[driver]
        sims, bundle = [], None
        for cls in (Simulator, EventByEvent):
            sim = cls(grid3.size, MACHINE,
                      trace=Trace() if traced else None)
            plan, opts = FaultPlan(ZOO_FAULTS[spec]), FactorOptions()
            if via == "hand":
                sim.attach_faults(FaultInjector(plan, sim.machine))
            else:
                opts = FactorOptions(fault_plan=plan)
            bundle = factor_3d(sf, greedy_partition(sf, pz), grid3, sim,
                               numeric=False, options=opts, cached=bundle,
                               **kw).bundle
            assert sim.faults.n_fired_faults() > 0
            sims.append(sim)
        loop, ref = sims
        assert ledger_state(loop) == ledger_state(ref)
        assert list(loop.event_counts) == list(ref.event_counts)
        assert loop.faults.fired == ref.faults.fired
        assert [a.remaining for a in loop.faults._drops
                + loop.faults._delays] == \
            [a.remaining for a in ref.faults._drops + ref.faults._delays]
        if traced:
            assert loop.trace.rows and loop.trace.rows == ref.trace.rows
