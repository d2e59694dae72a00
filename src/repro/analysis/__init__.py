"""Measurement aggregation and reporting.

:class:`repro.analysis.FactorizationMetrics` condenses a finished
simulation into exactly the quantities the paper plots: critical-path time
split into ``T_scu`` and ``T_comm`` (Fig. 9), per-process communication
volume split into ``W_fact`` and ``W_red`` (Fig. 10), per-process peak
memory (Fig. 11), and achieved flop rate (Fig. 12).
:mod:`repro.analysis.report` renders aligned text tables for the
experiment drivers.
"""

from repro.analysis.metrics import FactorizationMetrics
from repro.analysis.planstats import PlanStats, format_plan_summary
from repro.analysis.report import (
    format_parallel_stats,
    format_resilience_stats,
    format_table,
)
from repro.analysis.trace import Trace, TraceEvent

__all__ = ["FactorizationMetrics", "PlanStats", "Trace", "TraceEvent",
           "format_table", "format_parallel_stats",
           "format_resilience_stats", "format_plan_summary"]
