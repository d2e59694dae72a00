"""Factorization-as-a-service: plan cache + async multi-client front-end.

The re-factorization workload (GLU3.0's circuit simulation loop —
PAPERS.md) factors thousands of matrices sharing one sparsity pattern.
This package amortizes everything that depends only on the pattern:

- :mod:`repro.service.cache` — a bounded :class:`PlanCache` (LRU with
  request-count admission) keyed by pattern fingerprint × grid shape ×
  solver configuration × plan-relevant options, holding the symbolic
  factorization, partition, plan and idle arenas under one lock;
- :mod:`repro.service.service` — :class:`FactorizationService`, a
  thread-pool front-end where concurrent clients submit ``(A_values, b)``
  jobs that replay shared cached plans (warm jobs skip build/analyze
  entirely and stay bit-identical to cold runs).

See ``docs/api.md`` ("repro.service"); ``benchmarks/e2e`` measures the
cold-vs-warm request time and throughput (``timestep_warm``, ``service_mix``).
"""

from repro.service.cache import (
    CacheStats,
    PlanCache,
    PlanEntry,
    cache_key,
    pattern_fingerprint,
)
from repro.service.service import FactorizationService, JobResult

__all__ = [
    "CacheStats",
    "FactorizationService",
    "JobResult",
    "PlanCache",
    "PlanEntry",
    "cache_key",
    "pattern_fingerprint",
]
