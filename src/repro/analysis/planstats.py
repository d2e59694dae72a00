"""Critical-path and volume instrumentation over execution plans.

The plan layer (:mod:`repro.plan`) makes the schedule a data structure, so
the paper's Section IV latency analysis can be *measured* instead of
re-derived: :class:`PlanStats` walks a plan's dependency DAG once and
reports the longest α-β-γ chain — the modeled lower bound a run cannot
beat regardless of overlap — next to per-task-kind volume totals.

Cost model (the simulator's own):

* communication: ``alpha`` per message + ``beta`` per word, summed over a
  task's broadcasts (binomial tree: ``|ranks| - 1`` hops, plus the routing
  hop when the owner enters through the communicator's entry rank) or
  reduction transfers;
* compute: ``gamma_gemm`` per flop for Schur updates and reduce-adds,
  ``gamma_panel`` for diagonal/panel kernels, plus ``gemm_overhead`` per
  block update a Schur task performs (``n_pairs`` — what the simulator
  books).

Because tids are assigned in emission order (``dep < tid``), one forward
pass over ``iter_tasks()`` is a topological traversal — no sort needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.machine import Machine
from repro.plan.tasks import SchurUpdate, task_comm, task_flops

__all__ = ["PlanStats", "task_cost", "format_plan_summary"]

#: Compute kinds priced at the GEMM rate; everything else at the panel
#: rate (mirrors ``Simulator.compute``).
_GEMM_KINDS = ("schur", "reduce_add")


def task_cost(task, machine: Machine) -> float:
    """Modeled seconds of one task: α·msgs + β·words + γ·flops (+overhead)."""
    msgs, words = task_comm(task)
    kind, flops = task_flops(task)
    cost = machine.alpha * msgs + machine.beta * words
    if flops:
        gamma = machine.gamma_gemm if kind in _GEMM_KINDS \
            else machine.gamma_panel
        cost += flops * gamma
    if isinstance(task, SchurUpdate):
        cost += machine.gemm_overhead * task.n_pairs
    return cost


@dataclass
class PlanStats:
    """Aggregate and critical-path statistics of one execution plan."""

    n_tasks: int = 0
    task_counts: dict = field(default_factory=dict)   # kind -> count
    flops_by_kind: dict = field(default_factory=dict)  # compute kind -> flops
    comm_msgs: int = 0
    comm_words: float = 0.0
    total_cost: float = 0.0           # sum of every task's modeled seconds
    critical_path_tasks: int = 0      # tasks on the longest dependency chain
    critical_path_cost: float = 0.0   # modeled seconds along that chain

    @property
    def total_flops(self) -> float:
        return sum(self.flops_by_kind.values())

    @property
    def parallelism(self) -> float:
        """Average DAG parallelism: total work over critical-path work."""
        return self.total_cost / self.critical_path_cost \
            if self.critical_path_cost > 0 else 0.0

    @classmethod
    def from_plan(cls, plan, machine: Machine | None = None) -> "PlanStats":
        """Walk ``plan`` (a :class:`~repro.plan.tasks.GridPlan` or
        :class:`~repro.plan.tasks.Plan3D`) once and fill every field."""
        machine = machine or Machine.edison_like()
        stats = cls()
        # tid -> (finish time, tasks on the chain ending here)
        finish: dict[int, tuple[float, int]] = {}
        best = (0.0, 0)
        for task in plan.iter_tasks():
            stats.n_tasks += 1
            stats.task_counts[task.kind] = \
                stats.task_counts.get(task.kind, 0) + 1
            msgs, words = task_comm(task)
            stats.comm_msgs += msgs
            stats.comm_words += words
            ckind, flops = task_flops(task)
            if flops:
                stats.flops_by_kind[ckind] = \
                    stats.flops_by_kind.get(ckind, 0.0) + flops
            cost = task_cost(task, machine)
            stats.total_cost += cost
            start, depth = 0.0, 0
            for d in task.deps:
                f = finish.get(d)
                if f is not None and f[0] > start:
                    start, depth = f
            entry = (start + cost, depth + 1)
            finish[task.tid] = entry
            if entry[0] > best[0]:
                best = entry
        stats.critical_path_cost, stats.critical_path_tasks = best
        return stats


def format_plan_summary(stats: PlanStats,
                        title: str = "execution plan") -> str:
    """Render a PlanStats as the aligned table the CLI prints."""
    from repro.analysis.report import format_si, format_table

    rows = [[kind, stats.task_counts[kind],
             format_si(stats.flops_by_kind.get(_FLOP_KIND.get(kind, ""),
                                               0.0))]
            for kind in sorted(stats.task_counts)]
    table = format_table(["task kind", "count", "flops"], rows, title=title)
    lines = [
        table,
        f"total: {stats.n_tasks} tasks, {format_si(stats.total_flops)} "
        f"flops, {stats.comm_msgs} messages, "
        f"{format_si(stats.comm_words)} words",
        f"critical path: {stats.critical_path_tasks} tasks, "
        f"{stats.critical_path_cost * 1e3:.3f} ms modeled "
        f"(alpha-beta-gamma), avg parallelism {stats.parallelism:.2f}x",
    ]
    return "\n".join(lines)


#: Which compute-kind ledger a task kind's flops land in.
_FLOP_KIND = {"panel_factor": "diag", "panel_bcast": "panel",
              "schur_update": "schur", "replicated_factor": "schur",
              "ancestor_reduce": "reduce_add"}
