"""Canonical event-kind and phase vocabularies for the simulator layer.

Every ledger in :class:`repro.comm.Simulator` and every
:class:`repro.analysis.trace.TraceEvent` is keyed by one of these string
literals. They used to be re-declared (and silently typo-able) across
``comm/simulator.py``, ``analysis/trace.py`` and ``resilience/engine.py``;
a misspelled kind would simply vanish from aggregations. This module is
the single source of truth — the simulator re-exports ``COMPUTE_KINDS``
and ``PHASES`` for backward compatibility, ``set_phase`` checks a phase,
:meth:`~repro.comm.stream.EventStream.check` a stream's kind codes, and
:meth:`Trace.record` asserts membership for a hand-recorded row.
"""

from __future__ import annotations

__all__ = ["COMPUTE_KINDS", "PHASES", "TRACE_KINDS",
           "PHASE_FACT", "PHASE_RED", "PHASE_SOLVE", "PHASE_REC"]

#: Compute kinds the simulator recognizes; ledgers are per kind.
COMPUTE_KINDS = ("diag", "panel", "schur", "reduce_add", "solve")

#: Communication phases for volume attribution (Fig. 10 split).
#: ``'rec'`` carries z-replica recovery traffic (repro.resilience) so
#: fault-free phases stay comparable across faulty and clean runs.
PHASES = ("fact", "red", "solve", "rec")

#: Everything a :class:`repro.analysis.trace.TraceEvent` may carry as its
#: ``kind``: the compute kinds plus the communication intervals.
#: (The trace records blocked receives as ``'recv_wait'``; the simulator's
#: ``event_counts`` tallies every message's ``'recv'`` separately.)
TRACE_KINDS = COMPUTE_KINDS + ("send", "recv_wait")

#: Named phase constants for call sites that set phases programmatically
#: (the resilience engine's recovery replay, the 3D drivers).
PHASE_FACT, PHASE_RED, PHASE_SOLVE, PHASE_REC = PHASES
