"""Checkpoint/restart and z-replica recovery: hooks on the one plan walk.

The :class:`ResilienceEngine` is the ``monitor`` that the one walk,
:func:`repro.lu3d.factor3d._execute_plan3d` (every driver; the 2D baseline
is its ``Pz = 1`` run), hands the plan interpreter at every task
boundary. It does three jobs:

1. **Fault arming** (``before_task``). Crash faults of the run's
   :class:`~repro.resilience.FaultPlan` fire at the first matching task
   boundary (grid / level / task-id / simulated-time filters); one that
   no boundary of the run can match is refused when the engine binds.
   Mechanical faults (drop, delay, slow) go to a
   :class:`~repro.resilience.FaultInjector` on the simulator.
2. **Coordinated checkpointing** (``after_task``). Every
   ``checkpoint_every`` tasks the engine snapshots the *logical* state —
   block values, walk position ``(level, grid, task)``, live
   :class:`~repro.plan.interpret.GridContext`, result counters — and
   charges the write (``io_alpha + io_beta * resident_words`` per rank).
   Simulator ledgers are *not* checkpointed: time, flops and traffic keep
   accumulating across a rollback, which is exactly the overhead
   :class:`~repro.resilience.ResilienceStats` attributes.
3. **Recovery.** A fired crash is recovered on the spot and
   ``before_task`` returns where the walk resumes, a
   :class:`~repro.plan.interpret.Resume`. ``restart`` rolls every grid
   back to the last checkpoint. ``z-replica`` exploits the paper's
   ancestor replication: only the crashed grid is reset to its initial
   (Fig. 5) state and its plans — plus the Ancestor-Reduction hops aimed
   at it — are replayed from the surviving sibling replicas along z,
   under the ``'rec'`` phase. A grid active at level ``lvl`` is the
   *destination* (never the source) of every deeper boundary's reduce,
   and ``accumulate`` leaves source copies intact, so the replay is
   bit-exact. Where it cannot apply — ``Pz = 1`` runs have no sibling
   replicas; a merged grid's rank span holds the very replicas it would
   rebuild from — z-replica falls back to restart and records why on
   ``stats.notes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.events import PHASE_FACT, PHASE_REC
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.plan.interpret import (
    GridContext,
    Resume,
    execute_grid_plan,
    execute_reduce,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.stats import ResilienceStats

__all__ = ["ResilienceEngine"]

#: Factor3DResult counters a checkpoint must roll back with the walk.
_RESULT3D_FIELDS = ("perturbed_pivots", "schur_block_updates")


@dataclass
class _Checkpoint:
    """One coordinated checkpoint: walk position + logical state."""

    li: int                  # level-step index to resume at
    gi: int                  # grid-plan index within the level step
    ti: int                  # task index within the grid plan
    data_snap: object        # data strategy snapshot (block values)
    ctx_snap: dict | None    # GridContext.snapshot() when ti > 0
    result_snap: dict        # Factor3DResult scalar counters
    n_level_makespans: int   # len(result.per_level_makespan)
    compute_sum: float       # aggregate booked compute at snapshot time


class ResilienceEngine:
    """One run's fault monitor, checkpoint store and recovery policies,
    bound to its plan, data strategy and result,
    whose counters a restart rolls back. Binding resolves the policy —
    z-replica needs sibling replicas along z on surviving ranks:
    ``result.tf.pz > 1`` and a plan that is not merged — and takes the
    implicit, I/O-free initial checkpoint at ``(0, 0, 0)``."""

    def __init__(self, opts: FactorOptions, sim: Simulator, plan3, data,
                 result):
        plan = opts.fault_plan if opts.fault_plan is not None else FaultPlan()
        if not isinstance(plan, FaultPlan):
            raise TypeError(
                f"fault_plan must be a FaultPlan, got {type(plan).__name__}")
        self.opts = opts
        self.sim = sim
        self.machine = sim.machine
        self.plan3 = plan3
        self.data = data
        self.result = result
        self._crashes = _check_crashes(plan.crashes(), plan3)
        self._crash_fired = [False] * len(self._crashes)
        self.policy = opts.recovery
        self.stats = ResilienceStats(policy=opts.recovery,
                                     checkpoint_every=opts.checkpoint_every,
                                     n_faults=len(plan))
        why = ("2D run has no sibling replicas along z" if result.tf.pz == 1
               else "a merged grid's rank span holds the sibling replicas "
               "it would rebuild from" if plan3.merged else None)
        if self.policy == "z-replica" and why is not None:
            self.stats.notes.append(
                f"z-replica recovery unavailable ({why}); using restart")
            self.policy = self.stats.policy = "restart"
        self.injector = None
        if plan.mechanical():
            self.injector = FaultInjector(plan, sim.machine)
            sim.attach_faults(self.injector)
        self._initial = data.snapshot()
        self.checkpoint = _Checkpoint(
            li=0, gi=0, ti=0, data_snap=self._initial,
            ctx_snap=None, result_snap=self._result_scalars(),
            n_level_makespans=0, compute_sum=self._compute_sum())
        self._since_checkpoint = 0
        self._pos = (0, 0)
        self._entry_grid_compute = 0.0

    def enter_plan(self, li: int, gi: int, plan) -> None:
        """Record the walk position before a grid plan starts (or resumes)."""
        self._pos = (li, gi)
        lo, hi = plan.base, plan.base + plan.px * plan.py
        self._entry_grid_compute = self._grid_compute(lo, hi)

    def finish(self) -> ResilienceStats:
        """Close out the run: final denominators and mechanical-fault tally."""
        self.stats.total_compute_seconds = self._compute_sum()
        self.stats.makespan = self.sim.makespan
        if self.injector is not None:
            self.stats.faults_fired += self.injector.n_fired_faults()
        return self.stats

    # -- interpreter monitor protocol --------------------------------------

    def before_task(self, plan, ctx, idx) -> Resume | None:
        """Fire the first armed crash matching this boundary, recover it,
        and return where the walk resumes (``None``: no crash). Crashes
        fire at task boundaries, and every message is received within the
        task that sends it, so the rewind strands no traffic."""
        for k, fault in enumerate(self._crashes):
            if self._crash_fired[k]:
                continue
            if fault.grid is not None and fault.grid != plan.g:
                continue
            if fault.level is not None and fault.level != plan.level:
                continue
            if fault.at_task is not None \
                    and fault.at_task != plan.arrays.tid[idx]:
                continue
            if fault.at_time is not None \
                    and self._grid_clock_max(plan) < fault.at_time:
                continue
            self._crash_fired[k] = True
            self.stats.faults_fired += 1
            self.stats.crashes += 1
            # The crashed plan's context ends here.
            self.sim.free_batch(range(self.sim.nranks), ctx.buf_current)
            if self.policy == "z-replica":
                return self._recover_zreplica(plan)
            return self._recover_restart()
        return None

    def after_task(self, plan, ctx, idx) -> None:
        every = self.opts.checkpoint_every
        if every <= 0:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint >= every:
            self._take_checkpoint(plan, ctx, idx)
            self._since_checkpoint = 0

    # -- checkpointing -----------------------------------------------------

    def _take_checkpoint(self, plan, ctx, idx) -> None:
        """Coordinated checkpoint after task ``idx`` of ``plan``.

        Position ``ti = idx + 1``: resumption re-enters the interpreter
        at the next task, with the restored context. When ``idx`` was the
        plan's last task the resumed interpretation runs zero tasks and
        simply returns the restored result for the walk to absorb — so a
        checkpoint at a plan boundary neither drops nor double-counts the
        plan's counters.
        """
        sim = self.sim
        m = self.machine
        li, gi = self._pos
        cp = _Checkpoint(
            li=li, gi=gi, ti=idx + 1,
            data_snap=self.data.snapshot(),
            ctx_snap=ctx.snapshot(),
            result_snap=self._result_scalars(),
            n_level_makespans=len(self.result.per_level_makespan),
            compute_sum=self._compute_sum())
        # Every rank writes its resident state (factors + replicas +
        # transient buffers) to stable storage; the blocking write gates
        # the rank's next event.
        io = m.io_alpha + m.io_beta * sim.mem_current
        sim.clock += io
        self.checkpoint = cp
        st = self.stats
        st.checkpoints_taken += 1
        st.checkpoint_words += float(sim.mem_current.sum())
        st.checkpoint_io_seconds += float(io.sum())

    # -- the two recovery policies -----------------------------------------

    def _recover_restart(self) -> Resume:
        """Global rollback: every grid returns to the last checkpoint."""
        sim = self.sim
        m = self.machine
        cp = self.checkpoint
        st = self.stats
        # Compute booked since the checkpoint is discarded work the
        # resumed walk re-executes.
        st.lost_work_seconds += self._compute_sum() - cp.compute_sum
        # Roll the logical state back; physical ledgers keep running.
        self.data.restore(cp.data_snap)
        for name, val in cp.result_snap.items():
            setattr(self.result, name, val)
        del self.result.per_level_makespan[cp.n_level_makespans:]
        # Detection + relaunch synchronizes every rank, then each rank
        # re-reads its checkpointed state from stable storage.
        top = float(sim.clock.max())
        sim.clock[:] = top + m.restart_latency
        io = m.io_alpha + m.io_beta * sim.mem_current
        sim.clock += io
        st.downtime_seconds += m.restart_latency
        st.recovery_io_seconds += float(io.sum())
        # Rebuild the mid-plan interpreter context if the checkpoint was
        # taken inside a grid plan.
        ctx = None
        if cp.ctx_snap is not None:
            gp = self.plan3.levels[cp.li].grid_plans[cp.gi]
            ctx = GridContext(gp, sim, self.data.program(gp), self.opts)
            ctx.restore(cp.ctx_snap)
            # The transient buffers live at the checkpoint are part of
            # the re-read state: re-charge them so the memory ledgers
            # match the logical state.
            sim.alloc_batch(range(sim.nranks), ctx.buf_current)
        self._since_checkpoint = 0
        return Resume(cp.li, cp.gi, cp.ti, ctx)

    def _recover_zreplica(self, gp) -> Resume:
        """Local rebuild: reset only the crashed grid and replay its
        subtree from the surviving sibling replicas along z."""
        sim = self.sim
        m = self.machine
        st = self.stats
        lo, hi = gp.base, gp.base + gp.px * gp.py
        li, gi = self._pos
        # Work the crashed grid booked on the current plan attempt is lost.
        st.lost_work_seconds += self._grid_compute(lo, hi) \
            - self._entry_grid_compute
        # Only the crashed grid's ranks reboot; survivors keep their clocks.
        top = float(sim.clock[lo:hi].max())
        sim.clock[lo:hi] = top + m.restart_latency
        io = m.io_alpha + m.io_beta * sim.mem_current[lo:hi]
        sim.clock[lo:hi] += io
        st.downtime_seconds += m.restart_latency
        st.recovery_io_seconds += float(io.sum())
        # Reset the grid to its initial (Fig. 5) state and replay its
        # plans + the reduces aimed at it, level-interleaved — the order
        # matters, because each level's plan reads ancestor blocks summed
        # by the previous boundary's reduce.
        self.data.restore_grid(gp.g, self._initial)
        compute0 = self._compute_sum()
        words0 = float(sim.words_sent[PHASE_REC].sum())
        sim.set_phase(PHASE_REC)
        for kind, item in self.plan3.recovery_schedule(gp.g, li):
            if kind == "plan":
                execute_grid_plan(item, sim, options=self.opts,
                                  prog=self.data.program(item))
            else:
                # The original reduction's messages/words were already
                # absorbed into the result; the replay's traffic belongs
                # to the recovery stats ('rec' phase ledgers).
                execute_reduce(item, sim, accumulate=self.data.accumulate)
        sim.set_phase(PHASE_FACT)
        st.recovery_compute_seconds += self._compute_sum() - compute0
        st.recovery_words += float(sim.words_sent[PHASE_REC].sum()) - words0
        self._since_checkpoint = 0
        # Resume the crashed plan from scratch: the grid is now exactly
        # in its level-entry state.
        return Resume(li, gi, 0, None)

    # -- ledger probes -----------------------------------------------------

    def _compute_sum(self) -> float:
        return float(sum(arr.sum() for arr in self.sim.t_compute.values()))

    def _grid_compute(self, lo: int, hi: int) -> float:
        return float(sum(arr[lo:hi].sum()
                         for arr in self.sim.t_compute.values()))

    def _grid_clock_max(self, plan) -> float:
        lo, hi = plan.base, plan.base + plan.px * plan.py
        return float(self.sim.clock[lo:hi].max())

    def _result_scalars(self) -> dict:
        return {name: getattr(self.result, name)
                for name in _RESULT3D_FIELDS}


def _check_crashes(crashes, plan3) -> tuple:
    """``crashes``, refusing one no task boundary of ``plan3`` can match:
    ``grid``, ``level`` and ``at_task`` must all hold on one grid plan."""
    gps = [gp for s in plan3.levels for gp in s.grid_plans]
    grids = sorted({gp.g for gp in gps})
    top = max(s.level for s in plan3.levels)
    tids = np.concatenate([gp.arrays.tid for gp in gps])
    for f in crashes:
        if not any(f.grid in (None, gp.g) and f.level in (None, gp.level)
                   and (f.at_task is None or f.at_task in gp.arrays.tid)
                   for gp in gps):
            raise ValueError(
                f"crash fault (grid={f.grid}, level={f.level}, "
                f"at_task={f.at_task}) can never fire in this run: no grid "
                f"plan matches all three (grid must be one of {grids}, "
                f"level in 0..{top}, at_task one of the plan's grid task "
                f"ids ({tids.min()}..{tids.max()}))")
    return crashes
