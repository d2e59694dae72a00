"""Parallel z-grid execution engine.

Algorithm 1's active grids at a level factor disjoint forests on disjoint
rank sets — embarrassing parallelism the simulator's host loop used to
serialize. :class:`repro.parallel.ParallelExecutor` fans those per-grid 2D
factorizations out to a worker pool while keeping every simulator ledger
bit-for-bit identical to the serial schedule (fork/merge of per-rank
ledger state; see ``docs/simulator.md``). Enabled with
``FactorOptions(n_workers=...)`` or ``--workers`` on the CLI.

Numeric fan-outs ship replica blocks over the zero-copy shared-memory
transport (:mod:`repro.parallel.shm`): workers receive ``(segment,
offset, shape)`` descriptors and mutate the parent's segments in place.
Where shared memory is missing or fails mid-run, the remaining levels run
inline and the run records a :class:`ParallelFallback` — same ledgers,
same factors.
"""

from repro.parallel.engine import (GridOutcome, GridTask, LevelStats,
                                   ParallelExecutor, ParallelFallback,
                                   resolve_workers)
from repro.parallel.shm import (SHM_PREFIX, ShmTransport, ShmViewHandle,
                                attach_views, shm_available)

__all__ = ["GridOutcome", "GridTask", "LevelStats", "ParallelExecutor",
           "ParallelFallback", "SHM_PREFIX", "ShmTransport", "ShmViewHandle",
           "attach_views", "resolve_workers", "shm_available"]
