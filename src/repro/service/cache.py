"""Pattern-keyed plan cache: the service's amortization engine.

A circuit/transient simulation factors thousands of matrices that share
one sparsity pattern. Everything the pipeline computes *before* numeric
kernels — ordering, symbolic fill, tree-forest partition, the built
:class:`~repro.plan.Plan3D` — is a pure function of
(pattern, grid shape, solver configuration, plan-relevant options). The
:class:`PlanCache` maps a :func:`cache_key` of exactly those inputs to a
:class:`PlanEntry` holding the shared products, under a bounded LRU with
per-entry hit/build/exec accounting. The bound is frequency-aware, as
TinyLFU's admission is (Einziger et al., ACM TOS 2017) for Zipf-like
traffic over a few patterns: every request counts its key, and a newly
built entry enters a full cache only if its key was requested at least
as often as the least-recently-used resident, which it then evicts;
otherwise the entry is *refused* (its job still runs on it). On a cold
start and on ties this is plain LRU.

Concurrency: one global lock guards the map and the counts; each key
additionally gets a *build lock* so that N clients racing on a cold
pattern produce one symbolic build (the others block and then hit the
builder's entry, admitted or not). Entries are
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
    misses: int = 0             # refusals included
    evictions: int = 0
    entries: int = 0
    refused: int = 0            # built, but not admitted

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded, frequency-admitted LRU of :class:`PlanEntry`, safe for
    concurrent clients.

    ``get_or_build(key, builder)`` returns the cached entry for ``key``
    or invokes ``builder()`` exactly once per cold key (double-checked
    under a per-key build lock; concurrent requesters block and then
    count as hits on the builder's entry). Every call counts its key in a
    table of at most ``8 * capacity`` keys (least recently counted dropped
    first), halved every ``32 * capacity`` calls so past popularity fades.
    Recency is touched on every hit; a new entry evicts the
    least-recently-used one of a full cache only if its key's count is at
    least that entry's, and is refused otherwise.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PlanEntry] = OrderedDict()
        #: key -> [build lock, the builder's entry once built]
        self._building: dict[tuple, list] = {}
        self._counts: OrderedDict[tuple, int] = OrderedDict()
        self._requests = self._hits = self._misses = 0
        self._evictions = self._refused = 0

    def _count(self, key: tuple) -> None:
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        counts.move_to_end(key)
        if len(counts) > 8 * self.capacity:
            counts.popitem(last=False)
        self._requests += 1
        if self._requests % (32 * self.capacity) == 0:
            for k in counts:
                counts[k] >>= 1

    def _hit(self, key: tuple, entry: PlanEntry) -> tuple[PlanEntry, bool]:
        if self._entries.get(key) is entry:
            self._entries.move_to_end(key)
        self._hits += 1
        return entry, True

    def get_or_build(self, key: tuple, builder) -> tuple[PlanEntry, bool]:
        """Return ``(entry, hit)``; ``builder() -> PlanEntry`` runs at
        most once per cold key."""
        with self._lock:
            self._count(key)
            entry = self._entries.get(key)
            if entry is not None:
                return self._hit(key, entry)
            build = self._building.get(key)
            if build is None:
                build = self._building[key] = [threading.Lock(), None]
        with build[0]:
            with self._lock:  # double-check: a racer may have built it
                entry = build[1] or self._entries.get(key)
                if entry is not None:
                    return self._hit(key, entry)
            try:
                t0 = time.perf_counter()
                entry = builder()
                entry.build_seconds = time.perf_counter() - t0
                build[1] = entry
                with self._lock:
                    self._misses += 1
                    if len(self._entries) >= self.capacity and \
                            self.frequency(key) < self.frequency(
                                next(iter(self._entries))):
                        self._refused += 1
                    else:
                        self._entries[key] = entry
                        self._entries.move_to_end(key)
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
        """Peek without building or counting (touches recency on a hit)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def holds(self, entry: PlanEntry) -> bool:
        """Whether ``entry`` is cached: one lock-free lookup (finalizers)."""
        return self._entries.get(entry.key) is entry

    def frequency(self, key: tuple) -> int:
        """``key``'s recent request count: one lock-free lookup
        (finalizers)."""
        return self._counts.get(key, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              entries=len(self._entries),
                              refused=self._refused)

    def entry_stats(self) -> list[dict]:
        """Per-entry counters, most-recently-used last."""
        with self._lock:
            entries = list(self._entries.values())
        return [dict(e.stats(), key=e.key[0][:12]) for e in entries]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._building.clear()
            self._counts.clear()
