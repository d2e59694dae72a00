"""Checkpoint/restart and z-replica recovery over the task-graph plans.

The :class:`ResilienceEngine` is the monitor the plan interpreter calls
at every task boundary (``before_task`` / ``after_task``). It does three
jobs:

1. **Fault arming.** Crash faults from the run's
   :class:`~repro.resilience.FaultPlan` fire at the first matching task
   boundary (grid / level / task-id / simulated-time filters) by raising
   :class:`~repro.resilience.GridCrash`; mechanical faults (drop, delay,
   slow) are handed to a :class:`~repro.resilience.FaultInjector`
   attached to the simulator.

2. **Coordinated checkpointing.** Every ``checkpoint_every`` interpreted
   tasks the engine snapshots the *logical* state of the run — the data
   strategy's block values, the walk position ``(level, grid, task)``,
   the live :class:`~repro.plan.interpret.GridContext` and the result
   counters — and charges the write to the machine model
   (``io_alpha + io_beta * resident_words`` per rank). Simulator ledgers
   are deliberately *not* checkpointed: physical time, flops and traffic
   keep accumulating across a rollback, which is exactly the recovery
   overhead :class:`~repro.resilience.ResilienceStats` attributes.

3. **Recovery.** ``restart`` rolls every grid back to the last
   checkpoint and resumes the walk there (lost work is re-executed).
   ``z-replica`` exploits the paper's ancestor replication: only the
   crashed grid is reset to its initial (Fig. 5) state and its plans —
   plus the Ancestor-Reduction hops aimed at it — are replayed from the
   surviving sibling replicas along z, under the simulator's ``'rec'``
   phase. The pairwise reduction schedule makes a grid active at level
   ``lvl`` the *destination* (never the source) of every deeper
   boundary's reduce, and ``accumulate`` leaves source copies intact, so
   the replay is bit-exact. Where no sibling replicas exist (2D runs,
   the merged variant's single global copy) z-replica falls back to
   restart and records why on ``stats.notes``.

:func:`execute_plan3d_resilient` is the monitored serial walk of a
:class:`~repro.plan.tasks.Plan3D` used by the 3D drivers whenever
``FactorOptions.resilience_active()``; :func:`execute_grid_plan_resilient`
is the matching single-grid wrapper for the 2D driver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.events import PHASE_FACT, PHASE_REC, PHASE_RED
from repro.comm.simulator import Simulator
from repro.lu2d.options import Factor2DResult, FactorOptions
from repro.plan.backends import get_backend
from repro.plan.interpret import GridContext, execute_grid_plan, execute_reduce
from repro.resilience.faults import FaultInjector, FaultPlan, GridCrash
from repro.resilience.stats import ResilienceStats

__all__ = ["ResilienceEngine", "execute_plan3d_resilient",
           "execute_grid_plan_resilient"]

#: Factor3DResult counters a checkpoint must roll back with the walk.
_RESULT3D_FIELDS = ("perturbed_pivots", "schur_block_updates",
                    "reduction_messages", "reduction_words")


@dataclass
class _Checkpoint:
    """One coordinated checkpoint: walk position + logical state."""

    li: int                  # level-step index to resume at
    gi: int                  # grid-plan index within the level step
    ti: int                  # task index within the grid plan
    plan_ref: object         # the GridPlan at (li, gi), None at (0, 0, 0)
    data_snap: object        # data strategy snapshot (block values)
    ctx_snap: dict | None    # GridContext.snapshot() when ti > 0
    result_snap: dict        # Factor3DResult scalar counters
    n_level_makespans: int   # len(result.per_level_makespan)
    compute_sum: float       # aggregate booked compute at snapshot time


class _MappingData:
    """Adapter giving a 2D run's plain block mapping the strategy API."""

    accumulate = None
    supports_zreplica = False

    def __init__(self, data):
        self.data = data

    def program(self, gp, sf):
        return None if self.data is None else \
            get_backend(gp.backend).bind(gp.arrays, self.data, sf)

    def _items(self):
        store = self.data
        if hasattr(store, "blocks"):      # BlockMatrix
            store = store.blocks
        return store

    def snapshot(self):
        if self.data is None:
            return None
        return {k: v.copy() for k, v in self._items().items()}

    def restore(self, snap) -> None:
        if snap is None:
            return
        store = self._items()
        for k, v in snap.items():
            store[k][:] = v


class ResilienceEngine:
    """One run's fault monitor, checkpoint store and recovery dispatcher."""

    def __init__(self, opts: FactorOptions, sim: Simulator):
        self.opts = opts
        self.sim = sim
        self.machine = sim.machine
        plan = opts.fault_plan if opts.fault_plan is not None else FaultPlan()
        if not isinstance(plan, FaultPlan):
            raise TypeError(
                f"fault_plan must be a FaultPlan, got {type(plan).__name__}")
        self.fault_plan = plan
        self.policy = opts.recovery
        self.stats = ResilienceStats(policy=opts.recovery,
                                     checkpoint_every=opts.checkpoint_every,
                                     n_faults=len(plan))
        self._crashes = list(plan.crashes())
        self._crash_fired = [False] * len(self._crashes)
        self.injector = None
        if plan.mechanical():
            self.injector = FaultInjector(plan, sim.machine)
            sim.attach_faults(self.injector)
        # Bound by bind():
        self.plan3 = None
        self.sf = None
        self.data = None
        self.result3 = None
        self._initial = None
        self.checkpoint = None
        self._since_checkpoint = 0
        self._pos = (0, 0)
        self._entry_grid_compute = 0.0

    # -- run binding -------------------------------------------------------

    def bind(self, plan3, sf, data, result3) -> None:
        """Attach the engine to one factorization run's plan and data.

        Takes the implicit initial checkpoint at position ``(0, 0, 0)``
        (the pre-factorization state; no I/O is charged — it is the input
        the ranks already hold) and resolves the effective policy: where
        the data strategy has no sibling replicas to rebuild from,
        z-replica degrades to restart, recorded on ``stats.notes``.
        """
        self.plan3 = plan3
        self.sf = sf
        self.data = data
        self.result3 = result3
        if self.policy == "z-replica" and (
                plan3 is None or not data.supports_zreplica):
            why = ("2D run has no sibling replicas along z"
                   if plan3 is None else
                   "single global block copy has no sibling replicas")
            self.stats.notes.append(
                f"z-replica recovery unavailable ({why}); using restart")
            self.policy = "restart"
            self.stats.policy = "restart"
        self._initial = data.snapshot()
        self.checkpoint = _Checkpoint(
            li=0, gi=0, ti=0, plan_ref=None, data_snap=self._initial,
            ctx_snap=None, result_snap=self._result_scalars(),
            n_level_makespans=0, compute_sum=self._compute_sum())

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

    def before_task(self, plan, ctx, idx) -> None:
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
            raise GridCrash(fault, plan, idx, ctx)

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
            li=li, gi=gi, ti=idx + 1, plan_ref=plan,
            data_snap=self.data.snapshot(),
            ctx_snap=ctx.snapshot(),
            result_snap=self._result_scalars(),
            n_level_makespans=(0 if self.result3 is None
                               else len(self.result3.per_level_makespan)),
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

    # -- recovery ----------------------------------------------------------

    def recover(self, crash: GridCrash):
        """Handle a fired crash; returns the resume position
        ``(li, gi, ti, ctx)`` for the monitored walk."""
        if crash.ctx is not None:   # the crashed walk's context ends here
            self.sim.free_batch(range(self.sim.nranks),
                                crash.ctx.buf_current)
        if self.policy == "z-replica":
            return self._recover_zreplica(crash)
        return self._recover_restart(crash)

    def _recover_restart(self, crash: GridCrash):
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
        if self.result3 is not None:
            for name, val in cp.result_snap.items():
                setattr(self.result3, name, val)
            del self.result3.per_level_makespan[cp.n_level_makespans:]
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
            gp = cp.plan_ref
            ctx = GridContext(gp, self.sf, sim,
                              self.data.program(gp, self.sf), self.opts)
            ctx.restore(cp.ctx_snap)
            # The transient buffers live at the checkpoint are part of
            # the re-read state: re-charge them so the memory ledgers
            # match the logical state.
            sim.alloc_batch(range(sim.nranks), ctx.buf_current)
        self._since_checkpoint = 0
        return cp.li, cp.gi, cp.ti, ctx

    def _recover_zreplica(self, crash: GridCrash):
        """Local rebuild: reset only the crashed grid and replay its
        subtree from the surviving sibling replicas along z."""
        sim = self.sim
        m = self.machine
        st = self.stats
        gp = crash.plan
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
                execute_grid_plan(item, self.sf, sim, options=self.opts,
                                  prog=self.data.program(item, self.sf))
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
        return li, gi, 0, None

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
        if self.result3 is None:
            return {}
        return {name: getattr(self.result3, name)
                for name in _RESULT3D_FIELDS}


def execute_plan3d_resilient(plan3, sf, sim: Simulator, result, opts,
                             data, engine: ResilienceEngine,
                             absorb) -> None:
    """The monitored serial walk of a 3D plan (standard and merged).

    Same schedule as the fault-free walk — with an empty fault plan and
    checkpointing off it books bit-identical ledgers — but every task
    boundary passes through the engine, and a :class:`GridCrash` rewinds
    the walk to the position the recovery policy returns. Crashes fire at
    task boundaries, where no messages are in flight (every broadcast and
    reduction completes within its task), so the rewind never strands
    queued traffic.
    """
    engine.bind(plan3, sf, data, result)
    levels = plan3.levels
    li = gi = ti = 0
    ctx = None
    while li < len(levels):
        step = levels[li]
        sim.set_phase(PHASE_FACT)
        while gi < len(step.grid_plans):
            gp = step.grid_plans[gi]
            engine.enter_plan(li, gi, gp)
            try:
                r2d = execute_grid_plan(gp, sf, sim, options=opts,
                                        monitor=engine, start=ti, ctx=ctx,
                                        prog=data.program(gp, sf))
            except GridCrash as crash:
                li, gi, ti, ctx = engine.recover(crash)
                step = levels[li]
                sim.set_phase(PHASE_FACT)
                continue
            absorb(result, r2d)
            gi += 1
            ti = 0
            ctx = None
        if step.level > 0:
            sim.set_phase(PHASE_RED)
            for red in step.reduces:
                execute_reduce(red, sim, result, accumulate=data.accumulate)
        result.per_level_makespan.append(sim.makespan)
        li += 1
        gi = 0
    sim.set_phase(PHASE_FACT)
    engine.finish()


def execute_grid_plan_resilient(plan, sf, sim: Simulator, data=None,
                                options: FactorOptions | None = None
                                ) -> Factor2DResult:
    """Monitored execution of a single 2D grid plan.

    The 2D driver's resilient path: crash faults matching the plan fire
    and recover via restart (z-replica needs sibling grids along z, which
    a 2D run does not have — the degradation is recorded on the stats).
    The returned result carries the run's :class:`ResilienceStats` under
    ``extras['resilience']``.
    """
    opts = options or FactorOptions()
    engine = ResilienceEngine(opts, sim)
    engine.bind(None, sf, _MappingData(data), None)
    ti = 0
    ctx = None
    while True:
        engine.enter_plan(0, 0, plan)
        try:
            r2d = execute_grid_plan(plan, sf, sim, data=data, options=opts,
                                    monitor=engine, start=ti, ctx=ctx)
            break
        except GridCrash as crash:
            _li, _gi, ti, ctx = engine.recover(crash)
    engine.finish()
    r2d.extras["resilience"] = engine.stats
    return r2d
