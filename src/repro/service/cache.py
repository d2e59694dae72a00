"""Pattern-keyed plan cache: the service's amortization engine.

A circuit/transient simulation factors thousands of matrices that share
one sparsity pattern. Everything the pipeline computes *before* numeric
kernels — ordering, symbolic fill, tree-forest partition, the built
:class:`~repro.plan.Plan3D` — is a pure function of
(pattern, grid shape, solver configuration, plan-relevant options). The
:class:`PlanCache` maps a :func:`cache_key` of exactly those inputs to a
:class:`PlanEntry` holding the shared products, under a bounded LRU with
per-entry hit/build/exec accounting.

Concurrency: one global lock guards the LRU map; each key additionally
gets a *build lock* so that N clients racing on a cold pattern produce
one symbolic build (the others block and then hit). Entries are
immutable-by-convention after construction — concurrent jobs adopt them
read-only (:meth:`repro.solve.SparseLU3D.adopt`), so eviction is safe
even with jobs in flight: an evicted entry stays alive exactly as long
as some job still references it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.plan.replay import plan_options_key

__all__ = ["pattern_fingerprint", "cache_key", "PlanEntry", "PlanCache",
           "CacheStats"]


def pattern_fingerprint(A: sp.spmatrix) -> str:
    """Canonical sha256 of the *stored* CSR structure of ``A``.

    The fingerprint covers shape + indptr + indices of the
    canonicalized (sorted, de-duplicated) CSR form but not the values —
    two matrices fingerprint equal iff the symbolic phase would analyze
    the identical structure. Explicitly-stored zeros are kept: they are
    part of what nested dissection and block fill walk (see
    ``pattern_of(stored=True)``), so a matrix that stores them and one
    that doesn't legitimately key different entries.
    """
    C = A.tocsr().copy()
    C.sum_duplicates()
    C.sort_indices()
    h = hashlib.sha256()
    h.update(np.asarray(C.shape, dtype=np.int64).tobytes())
    h.update(np.asarray(C.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(C.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def cache_key(A: sp.spmatrix, grid_shape: tuple[int, int, int],
              backend: str, options, *, leaf_size: int = 64,
              nd_method: str = "bfs", max_block: int | None = 256,
              partition: str = "greedy", geometry=None) -> tuple:
    """The full identity of a cached plan.

    Pattern fingerprint × grid shape × backend × every solver knob the
    symbolic/partition phases read × the plan-relevant option fields
    (:func:`repro.plan.plan_options_key`). Runtime-only options (worker
    count, resilience schedule, pivoting threshold) are deliberately
    absent: one entry serves them all.
    """
    geom_key = (geometry.shape, geometry.kind) if geometry is not None \
        else None
    return (pattern_fingerprint(A), tuple(grid_shape), backend,
            leaf_size, nd_method, max_block, partition, geom_key,
            plan_options_key(options))


@dataclass
class PlanEntry:
    """One cached (pattern, grid, config) → shared build products.

    ``sf`` / ``tf`` / ``pattern`` / ``bundle`` are shared read-only by
    every job that hits this entry; the counters are written under
    ``lock``.
    """

    key: tuple
    sf: object          # SymbolicFactorization (A_perm values = first job's)
    tf: object          # TreeForest partition
    pattern: object     # stored-zeros symmetrized pattern (containment ref)
    bundle: object      # repro.plan.PlanBundle (filled by the first factor)
    build_seconds: float            # symbolic + partition wall time
    hits: int = 0
    jobs: int = 0
    exec_seconds: float = 0.0       # accumulated warm factor+solve wall time
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_job(self, seconds: float, hit: bool) -> None:
        with self.lock:
            self.jobs += 1
            self.hits += int(hit)
            self.exec_seconds += seconds

    @property
    def plan_build_seconds(self) -> float:
        """Plan build cost the replay path skips."""
        return self.bundle.build_seconds if self.bundle else 0.0

    def stats(self) -> dict:
        with self.lock:
            return {
                "hits": self.hits,
                "jobs": self.jobs,
                "build_seconds": self.build_seconds,
                "plan_build_seconds": self.plan_build_seconds,
                "exec_seconds": self.exec_seconds,
            }


@dataclass
class CacheStats:
    """Aggregate cache counters (snapshot — see :meth:`PlanCache.stats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded LRU of :class:`PlanEntry`, safe for concurrent clients.

    ``get_or_build(key, builder)`` returns the cached entry for ``key``
    or invokes ``builder()`` exactly once per cold key (double-checked
    under a per-key build lock; concurrent requesters block and then
    count as hits). Recency is touched on every access; when the map
    exceeds ``capacity`` the least-recently-used entry is dropped.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._building: dict[tuple, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, key: tuple, builder) -> tuple[PlanEntry, bool]:
        """Return ``(entry, hit)``; ``builder() -> PlanEntry`` runs at
        most once per cold key."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry, True
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        with build_lock:
            with self._lock:  # double-check: a racer may have built it
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry, True
            try:
                t0 = time.perf_counter()
                entry = builder()
                entry.build_seconds = time.perf_counter() - t0
                with self._lock:
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    self._misses += 1
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self._evictions += 1
            finally:
                # Also when ``builder`` raised: a failed build must not
                # leave its lock behind (the next caller builds afresh).
                with self._lock:
                    self._building.pop(key, None)
            return entry, False

    def get(self, key: tuple) -> PlanEntry | None:
        """Peek without building (touches recency on a hit)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def holds(self, entry: PlanEntry) -> bool:
        """Whether ``entry`` is cached: one lock-free lookup (finalizers)."""
        return self._entries.get(entry.key) is entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              entries=len(self._entries))

    def entry_stats(self) -> list[dict]:
        """Per-entry counters, most-recently-used last."""
        with self._lock:
            entries = list(self._entries.values())
        return [dict(e.stats(), key=e.key[0][:12]) for e in entries]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._building.clear()
