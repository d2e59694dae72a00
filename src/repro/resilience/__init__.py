"""Resilience subsystem: deterministic fault injection, checkpoint/restart
and z-replica crash recovery for the simulated 3D factorization.

Three layers:

* :mod:`repro.resilience.faults` — the typed, seeded :class:`FaultPlan`
  and the :class:`FaultInjector` that perturbs simulator events
  (message drop / delay, slow ranks) reproducibly;
* :mod:`repro.resilience.engine` — the :class:`ResilienceEngine`, hooks
  on the one plan walk: coordinated checkpoints over the task DAG, crash
  detection at task boundaries, and the ``restart`` / ``z-replica``
  recovery policies, which return where the walk resumes;
* :mod:`repro.resilience.stats` — :class:`ResilienceStats`, the
  overhead attribution the drivers surface and
  :func:`repro.analysis.format_resilience_stats` renders.

Activated through :class:`repro.lu2d.FactorOptions` (``fault_plan``,
``checkpoint_every``, ``recovery``) or the CLI (``--faults``,
``--checkpoint-every``, ``--recovery``). With an empty fault plan and
checkpointing off, nothing attaches to the simulator and every ledger
stays bit-for-bit identical to a fault-free run.
"""

from repro.resilience.engine import ResilienceEngine
from repro.resilience.faults import FAULT_KINDS, Fault, FaultInjector, FaultPlan
from repro.resilience.stats import ResilienceStats

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "ResilienceEngine",
    "ResilienceStats",
]
