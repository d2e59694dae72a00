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

Concurrency: one plain lock, ``PlanCache._lock``, guards all shared
state — the map, the counts, the per-entry job counters and the idle
*arena* of each resident entry (replica storage with its programs bound)
— so evicting or refusing an entry drops it in the same locked step.
A per-key *build lock*, held outside ``_lock`` while the key's entry is
built, makes N clients racing on a cold pattern produce one build (the
others block, then hit the builder's entry, admitted or not). A job's
arena comes back from a ``weakref.finalize`` callback, on whatever thread
collects its result, maybe inside a locked step: :meth:`PlanCache.give_back`
only appends it to a ``deque`` of returns, which every locked step
(lookup, admit, borrow, ``stats``, ``close``, ...) drains first. Entries
are immutable-by-convention — jobs adopt them read-only
(:meth:`repro.solve.SparseLU3D.adopt`), so an evicted entry stays alive
exactly as long as some job still references it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass

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
    every job that hits this entry; the counters are written by
    :meth:`PlanCache.record_job`, under the cache's lock.
    """

    key: tuple
    sf: object          # SymbolicFactorization (A_perm values = first job's)
    tf: object          # TreeForest partition
    pattern: object     # stored-zeros symmetrized pattern (containment ref)
    bundle: object      # repro.plan.PlanBundle (built with the entry)
    build_seconds: float            # symbolic + partition wall time
    hits: int = 0
    jobs: int = 0
    exec_seconds: float = 0.0       # accumulated warm factor+solve wall time


@dataclass
class CacheStats:
    """Aggregate cache counters (snapshot — see :meth:`PlanCache.stats`)."""

    hits: int = 0
    misses: int = 0             # refusals included
    evictions: int = 0
    entries: int = 0
    refused: int = 0            # built, but not admitted
    arena_loans: int = 0        # borrows that found an idle arena
    idle_arenas: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded, frequency-admitted LRU of :class:`PlanEntry` and their
    idle arenas, safe for concurrent clients.

    ``get_or_build(key, builder)`` returns the cached entry for ``key``
    or invokes ``builder()`` exactly once per cold key (double-checked
    under a per-key build lock; concurrent requesters block and then
    count as hits on the builder's entry). Every call counts its key in a
    table of at most ``8 * capacity`` keys (least recently counted dropped
    first), halved every ``32 * capacity`` calls so past popularity fades.
    Recency is touched on every hit; a new entry evicts the
    least-recently-used one of a full cache only if its key's count is at
    least that entry's, and is refused otherwise.

    :meth:`borrow` lends a job its entry's idle arena; :meth:`give_back`
    queues one. Every resident entry keeps at most one idle arena, so
    ``capacity`` bounds them too; none for an entry that is not resident,
    none after :meth:`close`.
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
        #: key -> (entry, idle arena) of resident entries only
        self._idle: dict[tuple, tuple] = {}
        #: (entry, arena) given back, appended without the lock
        self._returns: deque = deque()
        self._requests = self._hits = self._misses = 0
        self._evictions = self._refused = self._loans = 0
        self._closed = False

    @contextmanager
    def _step(self):
        """One locked step: the lock held, the returns drained first."""
        with self._lock:
            while self._returns:
                entry, arena = self._returns.popleft()
                if not self._closed and self._entries.get(entry.key) is entry:
                    self._idle[entry.key] = (entry, arena)
            yield

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

    def _hit(self, key: tuple, entry: PlanEntry) -> PlanEntry:
        if self._entries.get(key) is entry:
            self._entries.move_to_end(key)
        self._hits += 1
        return entry

    # ``get_or_build``'s three locked steps; the build runs outside them.

    def _lookup(self, key: tuple) -> tuple[PlanEntry | None, list | None]:
        """Count ``key`` and look it up: ``(entry, None)`` on a hit, else
        ``(None, slot)``, the key's build slot, opened if none is."""
        with self._step():
            self._count(key)
            entry = self._entries.get(key)
            if entry is not None:
                return self._hit(key, entry), None
            return None, self._building.setdefault(
                key, [threading.Lock(), None])

    def _admit(self, key: tuple, slot: list, entry: PlanEntry | None) -> None:
        """``key``'s build ended with ``entry`` (``None``: it raised):
        close the slot, then admit the entry, evicting, or refuse it."""
        with self._step():
            if self._building.get(key) is slot:
                del self._building[key]
            if entry is None:
                return
            slot[1] = entry
            self._misses += 1
            entries = self._entries
            if len(entries) >= self.capacity and self.frequency(key) \
                    < self.frequency(next(iter(entries))):
                self._refused += 1
                return
            self._idle.pop(key, None)       # a resident entry's, replaced
            entries[key] = entry
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                self._idle.pop(entries.popitem(last=False)[0], None)
                self._evictions += 1

    def _join(self, key: tuple, slot: list) -> PlanEntry | None:
        """A racer resumes: the builder's entry, admitted or not (or one
        admitted since), as a hit; ``None`` if no build succeeded."""
        with self._step():
            entry = slot[1] or self._entries.get(key)
            return None if entry is None else self._hit(key, entry)

    def get_or_build(self, key: tuple, builder) -> tuple[PlanEntry, bool]:
        """Return ``(entry, hit)``; ``builder() -> PlanEntry`` runs at
        most once per cold key."""
        entry, slot = self._lookup(key)
        if entry is not None:
            return entry, True
        with slot[0]:
            entry = self._join(key, slot)   # a racer may have built it
            if entry is not None:
                return entry, True
            try:
                t0 = time.perf_counter()
                entry = builder()
                entry.build_seconds = time.perf_counter() - t0
            finally:
                # Also when ``builder`` raised: a failed build must not
                # leave its slot behind (the next caller builds afresh).
                self._admit(key, slot, entry)
        return entry, False

    def borrow(self, entry: PlanEntry):
        """``entry``'s idle arena, taken off the list, or ``None``."""
        with self._step():
            idle = self._idle.get(entry.key)
            if idle is None or idle[0] is not entry:
                return None
            self._loans += 1
            return self._idle.pop(entry.key)[1]

    def give_back(self, entry: PlanEntry, arena) -> None:
        """Queue ``entry``'s arena for the next locked step, with no lock:
        a ``weakref.finalize`` callback, on any thread, even inside one."""
        self._returns.append((entry, arena))

    def record_job(self, entry: PlanEntry, seconds: float, hit: bool) -> None:
        with self._step():
            entry.jobs += 1
            entry.hits += int(hit)
            entry.exec_seconds += seconds

    def __len__(self) -> int:
        with self._step():
            return len(self._entries)

    def get(self, key: tuple) -> PlanEntry | None:
        """Peek without building or counting (touches recency on a hit)."""
        with self._step():
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def frequency(self, key: tuple) -> int:
        """``key``'s recent request count."""
        return self._counts.get(key, 0)

    def stats(self) -> CacheStats:
        with self._step():
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              entries=len(self._entries),
                              refused=self._refused,
                              arena_loans=self._loans,
                              idle_arenas=len(self._idle))

    def entry_stats(self) -> list[dict]:
        """Per-entry counters, most-recently-used last."""
        with self._step():
            return [{"hits": e.hits, "jobs": e.jobs,
                     "build_seconds": e.build_seconds,
                     "plan_build_seconds":       # what a replay skips
                         e.bundle.build_seconds if e.bundle else 0.0,
                     "exec_seconds": e.exec_seconds, "key": e.key[0][:12]}
                    for e in self._entries.values()]

    def close(self) -> None:
        """Drop every idle arena; keep none given back from now on."""
        with self._step():
            self._closed = True
            self._idle.clear()

    def clear(self) -> None:
        with self._step():
            self._entries.clear()
            self._building.clear()
            self._counts.clear()
            self._idle.clear()
