"""The one decision: how does this run execute.

Every driver (standard, merged, Cholesky) asks :func:`resolve_exec` once
and follows the returned :class:`ExecMode`; nothing else in the package
reads the simulator's attachments (``trace`` / ``topology`` /
``faults``), ``FactorOptions.resilience_active()`` or
the worker count to *choose a path* (kernels and the simulator still read
them to book events). Every combination of options runs; one width rule
decides how: one dispatch per task when anything observes task
boundaries — a fault injector or the resilience engine (fault plan /
checkpointing) — else the plan's full-width runs. Width is
a choice of cut points over the plan's one array form
(:mod:`repro.plan.arrays`), not of plan object, task body or walk: every
run walks :func:`repro.lu3d.factor3d._execute_plan3d`. A trace does not
select it: :meth:`repro.comm.Simulator.book` issues a stream event by
event under a trace, so a traced run walks the same width as an untraced
one.

Independently, for ``n_workers != 1`` a level's grids run their kernels
on host threads (:mod:`repro.parallel`; in every variant a grid writes
only its own replica views) unless the run is width 1, the run is
cost-only (no kernel program), or the count resolves to one worker —
each recorded as a :class:`~repro.parallel.ParallelFallback`, never
silent. A trace or a topology does not change the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel import ParallelFallback, resolve_workers

__all__ = ["ExecMode", "resolve_exec"]


@dataclass(frozen=True)
class ExecMode:
    """How one factorization run executes its plan."""

    #: Walk the plan's full-width runs (one dispatch per same-kind run)
    #: instead of one dispatch per task.
    fuse: bool
    #: Threads for the per-level grid fan-out; ``1`` = inline levels.
    n_workers: int
    #: Why a run that asked for workers stays serial (``None`` otherwise).
    fallback: ParallelFallback | None = None


def resolve_exec(opts, sim, *, numeric: bool) -> ExecMode:
    """Resolve ``opts`` and ``sim``'s attachments into an :class:`ExecMode`."""
    # Full-width runs coarsen what a fault injector or the resilience
    # engine observes at task boundaries.
    width1 = opts.resilience_active() or sim.faults is not None
    n_workers, fallback = 1, None
    if opts.n_workers != 1:
        resolved = resolve_workers(opts.n_workers)
        why = None
        if width1:
            why = ("width-1 run: resilience instrumentation (fault_plan / "
                   "checkpoint_every) or a fault injector watches every "
                   "task boundary of one serial walk")
        elif not numeric:
            why = "cost-only run: no kernel program to fan out"
        elif resolved <= 1:
            why = (f"n_workers={opts.n_workers} resolves to a single worker "
                   "on this host")
        if why is None:
            n_workers = resolved
        else:
            fallback = ParallelFallback(reason=why,
                                        requested_workers=opts.n_workers)
    return ExecMode(fuse=not width1, n_workers=n_workers, fallback=fallback)
