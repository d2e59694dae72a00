"""Critical-path and volume instrumentation over execution plans.

The plan layer (:mod:`repro.plan`) makes the schedule a data structure, so
the paper's Section IV latency analysis can be *measured* instead of
re-derived: :class:`PlanStats` walks a plan's dependency DAG once and
reports the longest α-β-γ chain — the modeled lower bound a run cannot
beat regardless of overlap — next to per-task-kind volume totals.

Cost model (the simulator's own):

* communication: ``alpha`` per message + ``beta`` per word. A grid task's
  messages and words are read off the plan's event stream (its broadcasts
  flattened to point-to-point pairs: ``|ranks| - 1`` hops of a binomial
  tree, plus the routing hop when the owner enters through the
  communicator's entry rank) — the columns the simulator books, reduced
  per task, with no task record materialised;
* compute: ``gamma_gemm`` per flop for Schur updates and reduce-adds,
  ``gamma_panel`` for diagonal/panel kernels, plus ``gemm_overhead`` per
  block update a Schur task performs (``n_pairs`` — what the simulator
  books).

Because tids are assigned in emission order (``dep < tid``), one forward
pass in list order is a topological traversal — no sort needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.events import COMPUTE_KINDS
from repro.comm.machine import Machine
from repro.comm.stream import MSG
from repro.plan.arrays import SCHUR_UPDATE
from repro.plan.tasks import AncestorReduce

__all__ = ["PlanStats", "format_plan_summary"]

#: Task-kind and compute-kind names by ``TaskArrays.kind`` code.
_GRID_KINDS = (("panel_factor", "diag"), ("panel_bcast", "panel"),
               ("schur_update", "schur"))


def _grid_rows(A, machine: Machine):
    """``(tid, deps, task kind, msgs, words, compute kind, flops, modeled
    seconds)`` of every task of a grid plan's arrays ``A``, in list
    order; messages and words are the per-task sums of the event stream's
    message events."""
    T = A.n_tasks
    msg = A.ev_kind == MSG
    task = np.repeat(np.arange(T), np.diff(A.ev_ptr))[msg]
    msgs = np.bincount(task, minlength=T)
    words = np.bincount(task, A.ev_val[msg], minlength=T)
    gamma = np.where(A.kind == SCHUR_UPDATE, machine.gamma_gemm,
                     machine.gamma_panel)
    cost = machine.alpha * msgs + machine.beta * words + A.flops * gamma \
        + machine.gemm_overhead * np.diff(A.pair_ptr)
    dep, ptr = A.dep_idx.tolist(), A.dep_ptr.tolist()
    for t, (tid, k, m, w, f, c) in enumerate(zip(
            A.tid.tolist(), A.kind.tolist(), msgs.tolist(), words.tolist(),
            A.flops.tolist(), cost.tolist())):
        kind, ckind = _GRID_KINDS[k]
        yield tid, dep[ptr[t]:ptr[t + 1]], kind, m, w, ckind, f, c


def _level_row(task, machine: Machine):
    """The same row for one level-scope task, summed from its own event
    stream: a reduce pays one flop per word at the receiving copy (at the
    GEMM rate); a barrier costs nothing."""
    msgs, words, ckind, flops = 0, 0.0, "", 0.0
    if isinstance(task, AncestorReduce):
        ev = task.stream()
        msg = ev.kind == MSG
        msgs, words = int(msg.sum()), float(ev.val[msg].sum())
        flops = float(ev.val[~msg].sum())
        ckind = COMPUTE_KINDS[ev.kind[~msg][0]] if flops else ""
    cost = machine.alpha * msgs + machine.beta * words
    if flops:
        cost += flops * machine.gamma_gemm
    return task.tid, task.deps, task.kind, msgs, words, ckind, flops, cost


def _rows(plan, machine: Machine):
    if hasattr(plan, "arrays"):                 # a GridPlan
        yield from _grid_rows(plan.arrays, machine)
        return
    for step in plan.levels:
        if step.arrays is not None:
            yield from _grid_rows(step.arrays, machine)
        for task in (*step.reduces, step.barrier):
            yield _level_row(task, machine)


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
        :class:`~repro.plan.tasks.Plan3D`) once, in list order, and fill
        every field."""
        machine = machine or Machine.edison_like()
        stats = cls()
        # tid -> (finish time, tasks on the chain ending here)
        finish: dict[int, tuple[float, int]] = {}
        best = (0.0, 0)
        for tid, deps, kind, msgs, words, ckind, flops, cost \
                in _rows(plan, machine):
            stats.n_tasks += 1
            stats.task_counts[kind] = stats.task_counts.get(kind, 0) + 1
            stats.comm_msgs += msgs
            stats.comm_words += words
            if flops:
                stats.flops_by_kind[ckind] = \
                    stats.flops_by_kind.get(ckind, 0.0) + flops
            stats.total_cost += cost
            start, depth = 0.0, 0
            for d in deps:
                f = finish.get(d)
                if f is not None and f[0] > start:
                    start, depth = f
            entry = (start + cost, depth + 1)
            finish[tid] = entry
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
              "schur_update": "schur", "ancestor_reduce": "reduce_add"}
