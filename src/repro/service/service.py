"""The factorization service: an async multi-client front-end.

:class:`FactorizationService` accepts ``(A_values, b)`` jobs from many
concurrent clients and executes them on a thread pool against shared
:class:`~repro.service.cache.PlanCache` entries. A job's matrix is
fingerprinted (:func:`~repro.service.cache.cache_key`); a miss runs the
symbolic phase + plan build *once* (clients racing on a cold pattern
block on its build lock and then hit; a rarely requested pattern's entry
may be refused by a full cache, and its jobs run on it uncached); every
job then adopts the entry's read-only symbolic objects
(:meth:`repro.solve.SparseLU3D.adopt`) and replays the cached plan bundle
against its own values — only numeric kernels run, with ledgers
bit-identical to a cold factorization (pinned in ``tests/test_service.py``).

Worker threads suit this workload not for parallel kernels — scipy's
f2py ``dgemm`` / ``dtrsm`` hold the GIL — but because jobs share large
read-only state (symbolic factorization, plan DAG) that a process pool
would have to pickle per job. Each job gets its own solver and simulator
and borrows its entry's idle *arena* (replica storage, bound programs)
until its ``Factor3DResult`` is collected. The service holds no shared
state and no lock of its own: the cache holds it all under one lock, and
a collected result's ``weakref.finalize`` callback only queues the arena
(:meth:`PlanCache.give_back`) for the cache's next locked step.

The service never equilibrates (``equil`` rescales values per matrix,
which would break value-independent plan sharing guarantees the cache
relies on for *timing*, not correctness — callers that need GESP
equilibration should use :class:`repro.solve.SparseLU3D` directly).
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.comm.machine import Machine
from repro.lu2d.options import FactorOptions
from repro.service.cache import PlanCache, PlanEntry, cache_key, pattern_fingerprint
from repro.utils import check_rhs, check_square_sparse

__all__ = ["FactorizationService", "JobResult"]


@dataclass
class JobResult:
    """Outcome of one service job.

    ``cache_hit`` is whether the plan cache already held this pattern;
    ``build_seconds`` is the symbolic + plan-build cost this request paid
    (0.0 on hits — that is the amortization the service exists for).
    ``solver`` is the per-job solver facade, exposing ``result`` (ledgers,
    factors) and further ``solve`` calls against the same factorization;
    its arena is the job's until ``solver.result`` is collected, and a
    ``refactorize`` of it lays out its own.
    """

    x: np.ndarray | None
    residual: float | None
    cache_hit: bool
    fingerprint: str
    build_seconds: float
    factor_seconds: float
    solve_seconds: float
    makespan: float
    solver: object
    #: Label of the auto-adopted tuned grid (``None`` when the job ran
    #: on the requested/default configuration).
    tuned_grid: str | None = None


class FactorizationService:
    """Persistent multi-client factorization front-end.

    Parameters mirror the solver facades; they form the *default* job
    configuration, overridable per request via ``submit`` keyword
    arguments (``backend``, ``px``/``py``/``pz``, ``leaf_size``,
    ``nd_method``, ``max_block``, ``partition``, ``geometry``,
    ``numeric``, ``options``). ``capacity`` bounds the frequency-admitted
    LRU plan cache (:class:`PlanCache`) and so its idle arenas, one per
    resident entry at most; ``max_workers`` only sizes the thread pool.

    Use as a context manager, or call :meth:`close`.
    """

    _CFG_KEYS = ("backend", "px", "py", "pz", "leaf_size", "nd_method",
                 "max_block", "partition", "geometry", "numeric",
                 "options")

    def __init__(self, px: int = 1, py: int = 1, pz: int = 1,
                 backend: str = "lu", machine: Machine | None = None,
                 options: FactorOptions | None = None, capacity: int = 8,
                 max_workers: int = 4, leaf_size: int = 64,
                 nd_method: str = "bfs", max_block: int | None = 256,
                 partition: str = "greedy", geometry=None,
                 numeric: bool = True, tune_cache=None):
        if backend not in ("lu", "cholesky"):
            raise ValueError(f"unknown backend {backend!r}")
        self.machine = machine or Machine.edison_like()
        self.cache = PlanCache(capacity)
        #: Optional :class:`repro.tune.cache.TuneCache`: jobs that do not
        #: pin their own grid auto-adopt the tuned configuration stored
        #: for their sparsity pattern (see :meth:`_adopt_tuned`).
        self.tune_cache = tune_cache
        self._defaults = dict(
            backend=backend, px=px, py=py, pz=pz, leaf_size=leaf_size,
            nd_method=nd_method, max_block=max_block, partition=partition,
            geometry=geometry, numeric=numeric,
            options=options or FactorOptions())
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-svc")
        self._closed = False

    # -- client API --------------------------------------------------------

    def submit(self, A: sp.spmatrix, b: np.ndarray | None = None,
               **overrides) -> Future:
        """Enqueue one factorization job; returns a ``Future[JobResult]``.

        ``b`` (optional) is solved against the fresh factors with
        iterative refinement. Unknown override keys are rejected."""
        if self._closed:
            raise RuntimeError("service is closed")
        bad = set(overrides) - set(self._CFG_KEYS)
        if bad:
            raise TypeError(f"unknown job option(s): {sorted(bad)}")
        cfg = dict(self._defaults, **overrides)
        return self._pool.submit(self._run_job, A, b, cfg,
                                 frozenset(overrides))

    def solve(self, A: sp.spmatrix, b: np.ndarray | None = None,
              **overrides) -> JobResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(A, b, **overrides).result()

    def stats(self) -> dict:
        """Cache counters + per-entry hit/build/exec split."""
        cs = self.cache.stats()
        return dict(vars(cs), hit_ratio=cs.hit_ratio,
                    per_entry=self.cache.entry_stats())

    def close(self) -> None:
        self._closed = True
        self.cache.close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FactorizationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- job execution -----------------------------------------------------

    def _make_solver(self, A, cfg):
        if cfg["backend"] == "cholesky":
            from repro.cholesky.driver import SparseCholesky3D
            cls, extra = SparseCholesky3D, {}
        else:
            from repro.solve.driver import SparseLU3D
            cls, extra = SparseLU3D, {"equil": False}
        return cls(A, machine=self.machine, **extra,
                   **{k: v for k, v in cfg.items() if k != "backend"})

    def _build_entry(self, key, A, cfg) -> PlanEntry:
        """Cold path: symbolic phase + plan build, once per key. The plan
        bundle is built *here*, not by the first factorization, so every
        job — the one that paid the miss too — replays the same DAG."""
        from repro.plan.replay import PlanBundle

        solver = self._make_solver(A, cfg)
        solver.analyze()
        bundle = PlanBundle.build(solver.sf, solver.tf, solver.grid,
                                  cfg["options"], backend=cfg["backend"])
        return PlanEntry(key=key, sf=solver.sf, tf=solver.tf,
                         pattern=solver._pattern, bundle=bundle,
                         build_seconds=0.0)

    def _adopt_tuned(self, A, cfg, explicit: frozenset) -> str | None:
        """Overlay the tuning cache's configuration for this pattern.

        Only fields the caller did not pin are overridden: an explicit
        ``px``/``py``/``pz`` (or an explicit ``pz`` alone) always wins,
        and the tuned blocking strategy is adopted unless the caller
        pinned its own ``options``. Returns the adopted grid's label, or
        ``None``.
        """
        if self.tune_cache is None or {"px", "py", "pz"} & explicit:
            return None
        tuned = self.tune_cache.get_by_fingerprint(pattern_fingerprint(A))
        if tuned is None:
            return None
        ch = tuned.chosen
        cfg["px"], cfg["py"], cfg["pz"] = ch.px, ch.py, ch.pz
        if ch.max_block is not None and "max_block" not in explicit:
            cfg["max_block"] = ch.max_block
        if "options" not in explicit \
                and ch.blocking != cfg["options"].blocking:
            cfg["options"] = replace(cfg["options"], blocking=ch.blocking)
        return ch.label

    def _run_job(self, A, b, cfg, explicit: frozenset = frozenset()
                 ) -> JobResult:
        # Reject malformed / non-finite input before the cache is touched:
        # a failed job leaves no entry, no build lock, no booked event.
        A = check_square_sparse(A)
        if b is not None:
            if not cfg["numeric"]:
                raise ValueError("b given but numeric=False: cost-only "
                                 "jobs cannot solve")
            b = check_rhs(b, A.shape[0])
        tuned_grid = self._adopt_tuned(A, cfg, explicit)
        key = cache_key(A, (cfg["px"], cfg["py"], cfg["pz"]),
                        cfg["backend"], cfg["options"],
                        **{k: cfg[k] for k in ("leaf_size", "nd_method",
                           "max_block", "partition", "geometry")})
        entry, hit = self.cache.get_or_build(
            key, lambda: self._build_entry(key, A, cfg))

        t0 = time.perf_counter()
        solver = self._make_solver(A, cfg)
        arena = self.cache.borrow(entry) if cfg["numeric"] else None
        solver.adopt(entry.sf, entry.tf, pattern=entry.pattern,
                     bundle=entry.bundle, replicas=arena)
        solver.factorize()
        t1 = time.perf_counter()
        x = residual = None
        if b is not None:
            x = solver.solve(b)
            residual = float(np.linalg.norm(A @ x - b)
                             / max(np.linalg.norm(b), 1e-300))
        t2 = time.perf_counter()
        self.cache.record_job(entry, t2 - t0, hit)
        if cfg["numeric"]:      # lent until the result is collected
            solver._arena = None        # a refactorize lays out its own
            weakref.finalize(solver.result, self.cache.give_back, entry,
                             solver.result.replicas)
        return JobResult(
            x=x, residual=residual, cache_hit=hit, fingerprint=key[0],
            build_seconds=0.0 if hit else entry.build_seconds,
            factor_seconds=t1 - t0, solve_seconds=t2 - t1,
            makespan=solver.sim.makespan, solver=solver,
            tuned_grid=tuned_grid)
