"""Plan replay: everything a factorization run builds that depends only
on the *pattern*, packaged for reuse across numeric re-factorizations.

The cold path of :func:`repro.lu3d.factor3d.factor_3d` spends most of its
non-kernel time on work that is a pure function of (sparsity pattern,
process-grid shape, plan-relevant options): building the level-schedule
task DAG (:func:`repro.plan.build.build_3d_plan`), computing the static
replica storage vector and deriving the numeric block pattern. For the
circuit/transient-simulation workload (GLU3.0, PAPERS.md) — thousands of
numeric factorizations against one pattern — that interpreter-side build
cost is paid over and over for identical results.

A :class:`PlanBundle` captures those products once. The drivers attach the
bundle of every cold run to ``Factor3DResult.bundle``; passing it back via
``factor_3d(..., cached=bundle)`` skips the
build/analyze phases entirely, so a warm re-factorization costs
only kernel execution plus fresh-value setup. The executed plan object is
*the same* DAG the cold run walked, and the interpreter books events in
the same order against a fresh simulator — warm ledgers are bit-for-bit
identical to cold ones (pinned by ``tests/test_service.py`` and
``tests/test_refactorize.py``).

Bundles are validated, not trusted: :meth:`PlanBundle.check` rejects reuse
under a different grid shape, backend, merged mode,
plan-relevant options (see :func:`plan_options_key`), sparsity pattern or
tree-forest partition (the plan's recorded
:func:`repro.plan.build.pattern_signature` / ``partition_signature``). Lazy
products (replica words, block pattern, the triangular sweeps' solve
plans, the value map of the last matrix structure bound) are memoized
under a lock so concurrent service jobs (:mod:`repro.service`) can share
one bundle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.plan.tasks import FusionStats, Plan3D

__all__ = ["FusedPlan", "PlanBundle", "plan_options_key"]


@dataclass(frozen=True)
class FusedPlan:
    """What :meth:`PlanBundle.compiled` returns: the plan (the one form —
    full width is a cut-point array of it, not another object) and its
    :class:`~repro.plan.tasks.FusionStats`."""

    plan: Plan3D
    stats: FusionStats


def plan_options_key(options) -> tuple:
    """The :class:`~repro.lu2d.options.FactorOptions` fields a built plan
    depends on.

    Everything else — pivoting threshold, worker count, resilience
    schedule — is a property of one *execution*, not of the DAG, so
    bundles (and service cache entries) stay valid across those settings.
    The resolved block-volume kind (dense vs compact message pricing) is
    part of the key: a plan carries its word counts baked into every task,
    so a cross-mode replay would book the wrong ledgers.
    """
    from repro.comm.volume import volume_kind
    return (options.lookahead, options.sparse_bcast, options.blocking,
            volume_kind(options))


@dataclass
class PlanBundle:
    """One factorization's reusable, pattern-only build products.

    Attributes
    ----------
    backend:
        Kernel backend the plan was built for (``'lu'`` / ``'cholesky'``).
    merged:
        Whether ``plan3`` is the merged-grid variant.
    grid_shape:
        ``(px, py, pz)`` of the 3D grid the plan's ranks refer to.
    opts_key:
        :func:`plan_options_key` of the options the plan was built with.
    blocks_fn:
        The per-node block enumerator the build used (LU vs Cholesky
        storage); reused for replica construction on replay.
    plan3:
        The built :class:`~repro.plan.tasks.Plan3D` (never mutated by
        execution — one object serves every replay).
    build_seconds:
        Host seconds the cold build spent on plan construction.
    accelerated:
        Ignored: nothing reads it. It is kept only because the frozen
        benchmark harness (``benchmarks/e2e``) passes it.
    volume:
        The :class:`repro.comm.volume.BlockVolume` the build priced
        messages with (``None`` = dense); reused by the memoized replica
        storage vector so replayed charges match the cold run's.
    """

    backend: str
    merged: bool
    grid_shape: tuple[int, int, int]
    opts_key: tuple
    blocks_fn: object
    plan3: Plan3D
    volume: object | None = None
    build_seconds: float = 0.0
    accelerated: bool = False
    _lazy: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def build(cls, sf, tf, grid3, options, *, backend: str = "lu",
              merged: bool = False) -> "PlanBundle":
        """Build the plan of ``(sf, tf, grid3, options)`` and bundle it
        (what every cold path — drivers, service, fuzzer — calls)."""
        from repro.comm.volume import volume_for
        from repro.plan.backends import get_backend
        from repro.plan.build import build_3d_plan
        t0 = time.perf_counter()
        blocks_fn = get_backend(backend).node_blocks
        plan3 = build_3d_plan(sf, tf, grid3, options, backend=backend,
                              merged=merged, blocks_fn=blocks_fn)
        return cls(backend=backend, merged=merged,
                   grid_shape=(grid3.px, grid3.py, grid3.pz),
                   opts_key=plan_options_key(options), blocks_fn=blocks_fn,
                   plan3=plan3, volume=volume_for(sf, options),
                   build_seconds=time.perf_counter() - t0)

    def check(self, grid3, backend, merged: bool, options, sf=None,
              tf=None) -> None:
        """Refuse replay under conditions the cached plan was not built
        for — a wrong-bundle replay would book a wrong-but-plausible
        ledger, which is strictly worse than failing loudly. With ``sf``
        (``tf``) given, that includes a different sparsity pattern
        (tree-forest partition)."""
        shape = (grid3.px, grid3.py, grid3.pz)
        if shape != self.grid_shape:
            raise ValueError(
                f"cached plan was built for grid {self.grid_shape}, "
                f"got {shape}")
        if backend != self.backend or merged != self.merged:
            raise ValueError(
                f"cached plan was built for backend={self.backend!r} "
                f"merged={self.merged}, got backend={backend!r} "
                f"merged={merged}")
        if plan_options_key(options) != self.opts_key:
            raise ValueError(
                "cached plan was built with different plan-relevant "
                f"options {self.opts_key} (lookahead, sparse_bcast, "
                "blocking, volume kind); got "
                f"{plan_options_key(options)}")
        from repro.plan.build import partition_signature, pattern_signature
        for what, built, obj, sign in (
                ("from a different sparsity pattern (nb, digest)",
                 self.plan3.pattern_sig, sf, pattern_signature),
                ("for a different tree-forest partition (pz, digest)",
                 self.plan3.partition_sig, tf, partition_signature)):
            if obj is not None and built is not None and sign(obj) != built:
                raise ValueError(f"cached plan was built {what} = {built}, "
                                 f"got {sign(obj)}")

    # -- memoized lazy products -------------------------------------------

    def compiled(self, sf=None, options=None) -> FusedPlan:
        """The plan with its full-width dispatch statistics, O(1) from
        the cut points. Nothing is compiled: the builder emits the fused
        form; the name (and the unused arguments) are what callers of the
        former compile pass keep using."""
        return FusedPlan(self.plan3, self.plan3.fusion_stats())

    def _memo(self, key, make):
        """``make()`` once per ``key``, under the lock."""
        with self._lock:
            if key not in self._lazy:
                self._lazy[key] = make()
            return self._lazy[key]

    def replica_words(self, sf, tf, grid3):
        """Static factor + replica storage per rank (memoized)."""
        from repro.lu3d.replication import replica_words_per_rank
        return self._memo("replica_words", lambda: replica_words_per_rank(
            sf, tf, grid3, blocks_fn=self.blocks_fn, volume=self.volume))

    def solve_plan(self, sf, tf, grid3, down: bool, lower: bool):
        """The :class:`~repro.plan.solve.SolvePlan` of one triangular
        sweep shape over the home grids (memoized: refinement sweeps,
        re-factorizations and service jobs on this bundle replay it)."""
        from repro.plan.solve import build_solve_plan
        return self._memo((down, lower), lambda: build_solve_plan(
            sf, lambda k: grid3.layer(tf.home_grid(k)), down, lower))

    def value_map(self, arena, A, perm=None):
        """The ``ValueMap`` of CSR ``A``'s structure (through ``perm``) onto
        ``arena``: kept while it matches both, rebuilt under the lock."""
        from repro.plan.backends import get_backend
        with self._lock:
            vmap = self._lazy.get("value_map")
            if vmap is None or not vmap.matches(A, perm, arena):
                vmap = self._lazy["value_map"] = arena.value_map(
                    A, perm, get_backend(self.backend).keeps)
            return vmap

    def block_pattern(self, sf):
        """The numeric replica block pattern ``{(i, j)}`` (memoized)."""
        def make():
            from repro.lu2d.storage import node_block_arrays
            _ptr, ii, jj, _ww = node_block_arrays(sf, self.blocks_fn)
            return set(zip(ii.tolist(), jj.tolist()))
        return self._memo("block_pattern", make)
