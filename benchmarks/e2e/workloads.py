"""The six workloads, their correctness gate, and their decomposed forms.

Every workload drives the program through its public functions only. An
*op* is one request, recorded as a root span:

``request``  the op as a user issues it (facade calls), with coarse child
             spans ``analyze`` / ``factor`` / ``solve`` / ``check``;
``traced``   the same work decomposed by the harness into one call per
             layer (``ordering.nd`` ... ``solve.refine``), one span each;
``diag``     extra per-layer measurements that are not part of a request
             (cost-only replay of a numeric plan, kernel replay, ...).

Inputs come from ``numpy.random.default_rng(seed)`` inside this module;
the program sees only the generated matrices and right-hand sides.
"""

from __future__ import annotations

import collections
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import FactorizationMetrics
from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.comm.volume import volume_for
from repro.experiments.harness import PreparedMatrix, run_configuration
from repro.experiments.matrices import TestMatrix
from repro.lu2d import FactorOptions
from repro.lu2d.kernels import getrf_nopiv, solve_lower_panel, solve_upper_panel
from repro.lu3d import ReplicaManager, factor_3d
from repro.ordering import nested_dissection
from repro.parallel import LevelStats, ParallelFallback
from repro.plan import PlanBundle, build_3d_plan, get_backend, plan_options_key
from repro.service import FactorizationService, cache_key
from repro.solve import SparseLU3D, iterative_refinement
from repro.solve.triangular import backward_solve, forward_solve
from repro.sparse import (
    BlockMatrix,
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    read_matrix_market,
    write_matrix_market,
)
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state

from calib import Recorder, now  # isort: skip  (sibling module, not a package)

#: An op whose relative residual exceeds this counts as failed.
RESIDUAL_TOL = 1e-10
#: Set-up check of ``x`` against ``scipy.sparse.linalg.splu``.
REFERENCE_TOL = 1e-8

OUT_DIR = Path(__file__).resolve().parent / "out"



# -- gate -------------------------------------------------------------------

def rel_residual(A, x, b) -> float:
    return float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))


def gate(A, b, x, ledger, ref_ledger, parallel_stats=()) -> str | None:
    """Why this op counts as failed, or ``None`` when it passes.

    ``x`` may be ``None`` for cost-only ops (no solution to check)."""
    for p in parallel_stats:
        if isinstance(p, ParallelFallback):
            return f"parallel fallback: {p.reason}"
    if x is not None:
        if not np.all(np.isfinite(x)):
            return "x is not finite"
        r = rel_residual(A, x, b)
        if not r <= RESIDUAL_TOL:
            return f"residual {r:.3e} > {RESIDUAL_TOL:g}"
    if ledger != ref_ledger:
        return "ledger differs from the workload's first op"
    return None


def check_reference(A, b, x) -> None:
    """``x`` against an independent solver; a mismatch aborts the run."""
    ref = spla.splu(sp.csc_matrix(A)).solve(np.asarray(b))
    err = float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
    if not err <= REFERENCE_TOL:
        raise RuntimeError(f"x differs from scipy splu: relative error {err:.3e}")


def sim_metrics(m: FactorizationMetrics) -> dict:
    """The ledger statistics of one factorization (read right after it)."""
    return {"sim_makespan": m.makespan, "sim_words_max": m.w_total_max,
            "sim_msgs_max": float(m.msgs_max), "sim_mem_peak_max": m.mem_peak_max,
            "lu2d.flops": m.total_flops}


def add_into(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


def perturb(A, rng, eps: float = 0.01):
    """Same pattern, values scaled by ``1 + eps * N(0, 1)``."""
    B = A.copy()
    B.data = B.data * (1.0 + eps * rng.standard_normal(B.nnz))
    return B


# -- base -------------------------------------------------------------------

class Workload:
    """Common state: seeded rng, recorder, failure counts, per-op notes."""

    clients = 1
    #: Passes per calibration sample (see :class:`calib.Clock`).
    probe_passes = 1

    def __init__(self, seed: int, quick: bool, rec: Recorder):
        self.seed = seed
        self.quick = quick
        #: Repeats of the run-once layer measurements (their median counts).
        self.reps = 1 if quick else 3
        self.rng = np.random.default_rng(seed)
        self.rec = rec
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()
        #: ``sim_*`` of the workload (deterministic; read once in set-up).
        self.sim: dict[str, float] = {}
        #: Per-op counters: ``notes[name][op id]`` (summed within an op).
        self.notes: dict[str, dict[int, float]] = {}
        #: Program-reported raw seconds to rescale like the span they sit in.
        self.scaled: list[tuple[str, dict, float]] = []
        #: service_mix only: ``(root, start, end, busy seconds per client)``.
        self.rounds: list[tuple[str, float, float, list[float]]] = []

    # -- life cycle (overridden) -------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def setup_traced(self) -> None:
        """Extra state the decomposed ops need (not part of ``setup_s``)."""

    def op(self) -> str | None:
        raise NotImplementedError

    def traced_op(self) -> str | None:
        raise NotImplementedError

    def extras(self) -> None:
        """Run-once per-layer measurements of the traced pass."""

    def layer_values(self, red) -> dict[str, float]:
        """Per-layer metrics only this workload can reduce (``red`` is the
        run's ``child.Reduced``)."""
        return {}

    def close(self) -> None:
        pass

    def begin_measurement(self) -> None:
        """Drop what set-up recorded; a failed warm-up aborts the run."""
        if self.failures:
            raise RuntimeError(f"warm-up op failed: {self.failures[0]}")
        self.rec = Recorder(self.rec.clock)
        self.notes, self.scaled, self.rounds = {}, [], []
        self.attempted = 0

    # -- helpers -----------------------------------------------------------

    def attempt(self, fn) -> None:
        """Run one op; an exception or a gate reason counts it as failed."""
        try:
            reason = fn()
        except Exception as exc:  # a raising op is a failed op, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        with self._lock:
            self.attempted += 1
            if reason:
                self.failures.append(reason)

    def run(self, seconds: float) -> None:
        self.loop(seconds, self.op)

    def run_traced(self, seconds: float) -> None:
        self.loop(seconds, self.traced_op)

    def loop(self, seconds: float, fn) -> None:
        """Closed loop, one client: ops back to back until the time is up
        (two ops at least, so a median and a ledger comparison exist)."""
        t_end = now() + seconds
        n = 0
        while n < (1 if self.quick else 2) or now() < t_end:
            self.attempt(fn)
            n += 1

    def read_reference(self, solver: SparseLU3D, A, b) -> None:
        """From a freshly factorized solver: the ledger every op must
        reproduce, the workload's ``sim_*`` (one un-refined solve sweep for
        the solve statistics), and the independent check of ``x``."""
        sim = solver.sim
        self.ref_ledger = ledger_state(sim)
        self.sim = sim_metrics(FactorizationMetrics.from_simulator(sim))
        t0 = sim.makespan
        solver.solve(b, refine=False)
        self.sim["sim_solve_makespan"] = sim.makespan - t0
        self.sim["sim_solve_words_max"] = float(sim.words_per_rank("solve").max())
        check_reference(A, b, solver.solve(b))

    def note(self, name: str, value: float, span: dict) -> None:
        per_op = self.notes.setdefault(name, {})
        per_op[span["op"]] = per_op.get(span["op"], 0.0) + value

    def request_samples(self, durations: dict, key: str) -> list[float]:
        """The samples whose median is ``request_s``: one per op."""
        return [durations[s["id"]][key] for s in self.rec.spans
                if s["parent"] is None and s["name"] == "request"]

    def busy_norm(self, durations: dict, root: str) -> tuple[int, float]:
        """``(ops, normalised busy seconds per client)`` over ``root`` ops."""
        roots = [s for s in self.rec.spans if s["parent"] is None and s["name"] == root]
        return len(roots), sum(durations[s["id"]]["norm"] for s in roots)

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, kids) / 1024.0

    # -- decomposed pipeline (shared by the traced ops) --------------------

    def build_bundle(self, sf, tf, grid3, opts) -> PlanBundle:
        span = self.rec.span
        blocks_fn = get_backend("lu").node_blocks
        with span("plan.build") as s:
            plan3 = build_3d_plan(sf, tf, grid3, opts, backend="lu", merged=False,
                                  accelerated=False, blocks_fn=blocks_fn)
        bundle = PlanBundle(backend="lu", merged=False,
                            grid_shape=(grid3.px, grid3.py, grid3.pz),
                            accelerated=False, opts_key=plan_options_key(opts),
                            blocks_fn=blocks_fn, plan3=plan3, volume=volume_for(sf, opts))
        with span("plan.compile"):
            stats = bundle.compiled(sf, opts).stats
        self.note("plan.tasks", stats.n_tasks_before, s)
        self.note("plan.dispatches", stats.n_tasks_after, s)
        self.note("plan.members", stats.n_members, s)
        return bundle

    def analyze_decomposed(self, A, geom, pz: int, leaf_size=64, max_block=256):
        span = self.rec.span
        with span("ordering.nd") as s:
            tree = nested_dissection(A, geom, leaf_size=leaf_size, method="bfs",
                                     max_block=max_block)
        with span("symbolic.fill"):
            sf = symbolic_factorize(A, geom, leaf_size=leaf_size, method="bfs",
                                    max_block=max_block, tree=tree)
        with span("tree.partition"):
            tf = greedy_partition(sf, pz)
        self.note("ordering.supernodes", tree.nblocks, s)
        self.note("symbolic.nb", sf.nb, s)
        self.note("symbolic.factor_words", sf.costs.total_words, s)
        return sf, tf

    def solve_decomposed(self, A, b, sf, tf, grid3, sim, blocks) -> np.ndarray:
        span = self.rec.span
        perm = sf.perm

        def grid_of(k):
            return grid3.layer(tf.home_grid(k))

        def sweep(rhs):
            with span("solve.forward"):
                y = forward_solve(sf, blocks, perm.apply_vector(rhs), sim, grid_of)
            with span("solve.backward"):
                return perm.unapply_vector(backward_solve(sf, blocks, y, sim, grid_of))

        x0 = sweep(b)
        with span("solve.refine") as s:
            res = iterative_refinement(A, b, x0, sweep)
        self.note("solve.refine_iters", res.iterations, s)
        self.note("solve.residual", rel_residual(A, res.x, b), s)
        return res.x

    def exec_cost(self, sf, tf, grid3, opts, bundle) -> Simulator:
        """Cost-only replay of a built plan: interpreter + simulator only."""
        with self.rec.span("lu3d.exec_cost") as s:
            sim = Simulator(grid3.size, Machine.edison_like())
            factor_3d(sf, tf, grid3, sim, numeric=False, options=opts, cached=bundle)
        self.note("comm.events", sum(sim.event_counts.values()), s)
        return sim

    def numeric_diag(self, sf, tf, grid3, matrix, bundle, opts, replicas=None) -> None:
        """What a numeric factorization spends outside the kernels, each
        part timed on its own: block scatter and replica construction (both
        also run inside ``factor_3d``), a warm re-execution on retained
        replicas, and a cost-only replay (interpreter + simulator only)."""
        span = self.rec.span
        with self.rec.op("diag"):
            with span("sparse.from_csr") as s:
                base = BlockMatrix.from_csr(matrix, sf.layout,
                                            block_pattern=bundle.block_pattern(sf))
            with span("lu3d.replica_setup"):
                ReplicaManager(sf, tf, base, blocks_fn=bundle.blocks_fn)
            self.note("sparse.blocks", base.nnz_blocks, s)
            self.note("lu3d.replica_words",
                      float(bundle.replica_words(sf, tf, grid3).sum()), s)
            if replicas is not None:
                with span("lu3d.exec_numeric_warm"):
                    factor_3d(sf, tf, grid3, Simulator(grid3.size, Machine.edison_like()),
                              numeric=True, options=opts, cached=bundle, replicas=replicas)
            self.exec_cost(sf, tf, grid3, FactorOptions(), bundle)

    def kernel_replay(self, sf) -> None:
        """``getrf`` / panel solves / panel GEMMs on this matrix's own block
        shapes: kernel time free of interpreter, simulator and data set-up."""
        span = self.rec.span
        rng = np.random.default_rng(0)
        sizes = sf.layout.sizes()
        lp = [np.asarray(sf.fill.lpanel[k], dtype=int) for k in range(sf.nb)]
        up = [np.asarray(sf.fill.upanel[k], dtype=int) for k in range(sf.nb)]
        diag = [rng.standard_normal((s, s)) + 2.0 * s * np.eye(s) for s in sizes]
        low = [[rng.standard_normal((sizes[i], sizes[k])) for i in lp[k]]
               for k in range(sf.nb)]
        upp = [[rng.standard_normal((sizes[k], sizes[j])) for j in up[k]]
               for k in range(sf.nb)]
        with self.rec.op("diag"):
            with span("lu2d.getrf") as s:
                for d in diag:
                    getrf_nopiv(d)
            with span("lu2d.trsm"):
                for k in range(sf.nb):
                    low[k] = [solve_lower_panel(diag[k], a) for a in low[k]]
                    upp[k] = [solve_upper_panel(diag[k], a) for a in upp[k]]
            wide = [np.concatenate(u, axis=1) if u else None for u in upp]
            with span("lu2d.gemm"):
                for k in range(sf.nb):
                    if wide[k] is not None:
                        for a in low[k]:
                            a @ wide[k]
            calls = sf.nb + sum(2 * len(l) + len(u) for l, u in zip(low, upp))
            self.note("lu2d.kernel_calls", calls, s)


# -- brick_cold / brick_pool ------------------------------------------------

class Brick(Workload):
    """``grid3d_7pt(16)`` on a 2x2x4 grid, numeric, one fresh solver per op."""

    n_workers = 1

    def setup(self) -> None:
        self.A, self.geom = grid3d_7pt(8 if self.quick else 16)
        self.grid3 = ProcessGrid3D(2, 2, 4)
        self.opts = FactorOptions(n_workers=self.n_workers)
        # The reference is a *serial* factorization: for brick_pool that
        # makes every pool op book exactly what brick_cold books.
        A, b = self.inputs()
        self.read_reference(self.solver(A, FactorOptions()).factorize(), A, b)
        self.attempt(self.op)      # warm-up through the measured path

    def inputs(self):
        return perturb(self.A, self.rng), self.rng.standard_normal(self.A.shape[0])

    def solver(self, A, opts) -> SparseLU3D:
        g = self.grid3
        return SparseLU3D(A, geometry=self.geom, px=g.px, py=g.py, pz=g.pz, options=opts)

    def op(self, opts=None, root="request") -> str | None:
        A, b = self.inputs()
        span = self.rec.span
        with self.rec.op(root):
            with span("analyze"):
                s = self.solver(A, opts or self.opts)
                s.analyze()
            with span("factor") as f:
                s.factorize()
            with span("check"):
                ledger = ledger_state(s.sim)
            with span("solve"):
                x = s.solve(b)
            with span("check"):
                stats = s.result.parallel_stats
                self.note_parallel(stats, f)
                return gate(A, b, x, ledger, self.ref_ledger, stats)

    def note_parallel(self, stats, span) -> None:
        levels = [p for p in stats if isinstance(p, LevelStats)]
        self.note("parallel.fallbacks", len(stats) - len(levels), span)
        for name, attr in (("parallel.wall_s", "wall_seconds"),
                           ("parallel.task_s", "task_seconds"),
                           ("parallel.serial_s", "serial_seconds")):
            self.scaled.append((name, span, sum(getattr(p, attr) for p in levels)))
        self.note("parallel.bytes_shipped", sum(p.bytes_shipped for p in levels), span)
        self.note("parallel.capacity_s", sum(p.n_workers * p.wall_seconds for p in levels), span)
        self.note("parallel.busy_s", sum(p.task_seconds for p in levels), span)

    def traced_op(self) -> str | None:
        A, b = self.inputs()
        span, g, opts = self.rec.span, self.grid3, self.opts
        with self.rec.op("traced"):
            sf, tf = self.analyze_decomposed(A, self.geom, g.pz)
            bundle = self.build_bundle(sf, tf, g, opts)
            with span("lu3d.exec_numeric") as f:
                sim = Simulator(g.size, Machine.edison_like())
                res = factor_3d(sf, tf, g, sim, numeric=True, options=opts, cached=bundle)
            with span("check"):
                ledger = ledger_state(sim)
            x = self.solve_decomposed(A, b, sf, tf, g, sim, res.replicas.home_view())
            with span("check"):
                self.note_parallel(res.parallel_stats, f)
                reason = gate(A, b, x, ledger, self.ref_ledger, res.parallel_stats)
        self.numeric_diag(sf, tf, g, sf.A_perm, bundle, opts, replicas=res.replicas)
        self.sf = sf
        return reason

    def extras(self) -> None:
        for _ in range(self.reps):
            self.kernel_replay(self.sf)


class BrickCold(Brick):
    name = "brick_cold"


class BrickPool(Brick):
    name = "brick_pool"
    n_workers = 2

    def extras(self) -> None:
        super().extras()
        # Serial baseline of the same op in the same process: the base of
        # ``parallel.speedup_vs_serial``.
        for _ in range(2 if self.quick else 8):
            self.attempt(lambda: self.op(FactorOptions(), root="serial"))


# -- cost_sweep -------------------------------------------------------------

class CostSweep(Workload):
    """Cost-only Pz sweep at P=64 of a planar and a non-planar matrix."""

    name = "cost_sweep"
    P = 64
    PZ = (1, 2, 4, 8, 16)

    def setup(self) -> None:
        # Warm every code path on small inputs (a full op takes ~1.5 s);
        # --quick then measures those same inputs.
        self.matrices = [self.matrix("planar", grid2d_5pt(24), True),
                         self.matrix("brick", grid3d_7pt(8), False)]
        self.ref_ledger = None
        self.attempt(self.op)
        if not self.quick:
            self.matrices = [self.matrix("planar", grid2d_5pt(128), True),
                             self.matrix("brick", grid3d_7pt(24), False)]
        self.ref_ledger = None      # the first measured op sets the reference

    def matrix(self, name, gen, planar) -> TestMatrix:
        A, geom = gen
        return TestMatrix(name, perturb(A, self.rng), geom, planar, 64, 0, 0, 0, 0)

    def check(self, metrics: list) -> str | None:
        """The op's ten ledgers against the first op's; the first op also
        fixes the workload's ``sim_*`` (sums over the ten configurations)."""
        if self.ref_ledger is None:
            self.ref_ledger = metrics
            self.sim = {}
            for m in metrics:
                add_into(self.sim, sim_metrics(m))
        return gate(None, None, None, metrics, self.ref_ledger)

    def op(self) -> str | None:
        span = self.rec.span
        with self.rec.op("request"):
            metrics = []
            for tm in self.matrices:
                with span("analyze"):
                    pm = PreparedMatrix(tm)
                    pm.sf
                for pz in self.PZ:
                    with span("factor"):
                        metrics.append(run_configuration(pm, self.P, pz).metrics)
            with span("check"):
                return self.check(metrics)

    def traced_op(self) -> str | None:
        span, opts = self.rec.span, FactorOptions()
        with self.rec.op("traced"):
            metrics = []
            for tm in self.matrices:
                sf = tf = None
                for pz in self.PZ:
                    if sf is None:
                        sf, tf = self.analyze_decomposed(tm.A, tm.geometry, pz,
                                                         tm.leaf_size, tm.max_block)
                    else:
                        with span("tree.partition"):
                            tf = greedy_partition(sf, pz)
                    grid3 = ProcessGrid3D.from_total(self.P, pz)
                    bundle = self.build_bundle(sf, tf, grid3, opts)
                    sim = self.exec_cost(sf, tf, grid3, opts, bundle)
                    metrics.append(FactorizationMetrics.from_simulator(sim))
            with span("check"):
                return self.check(metrics)


# -- timestep_warm ----------------------------------------------------------

class TimestepWarm(Workload):
    """Same-pattern ``refactorize`` + 8-RHS ``solve`` on a retained solver."""

    name = "timestep_warm"
    NRHS = 8

    def setup(self) -> None:
        self.A, self.geom = grid2d_5pt(24 if self.quick else 64)
        self.grid3 = ProcessGrid3D(2, 2, 4)
        A, B = self.inputs()
        g = self.grid3
        self.solver = SparseLU3D(A, geometry=self.geom, px=g.px, py=g.py, pz=g.pz)
        self.solver.factorize()                 # cold analyze + factorize
        self.read_reference(self.solver, A, B)  # warm replays must book the cold ledger
        self.attempt(self.op)

    def inputs(self):
        n = self.A.shape[0]
        return perturb(self.A, self.rng), self.rng.standard_normal((n, self.NRHS))

    def op(self) -> str | None:
        A, B = self.inputs()
        span, s = self.rec.span, self.solver
        with self.rec.op("request"):
            with span("factor"):
                s.refactorize(A)
            with span("check"):
                ledger = ledger_state(s.sim)
            with span("solve"):
                X = s.solve(B)
            with span("check"):
                return gate(A, B, X, ledger, self.ref_ledger)

    def setup_traced(self) -> None:
        """Cold decomposed build, once: the state the warm ops replay."""
        A, _ = self.inputs()
        g, opts = self.grid3, FactorOptions()
        with self.rec.op("setup"):
            self.sf, self.tf = self.analyze_decomposed(A, self.geom, g.pz)
            self.bundle = self.build_bundle(self.sf, self.tf, g, opts)
            res = factor_3d(self.sf, self.tf, g, Simulator(g.size, Machine.edison_like()),
                            numeric=True, options=opts, cached=self.bundle)
        self.replicas = res.replicas

    def traced_op(self) -> str | None:
        A, B = self.inputs()
        span, g, opts = self.rec.span, self.grid3, FactorOptions()
        sf, tf = self.sf, self.tf
        with self.rec.op("traced"):
            with span("sparse.permute"):
                matrix = sf.perm.apply_matrix(A)
            with span("lu3d.exec_numeric_warm"):
                sim = Simulator(g.size, Machine.edison_like())
                res = factor_3d(sf, tf, g, sim, numeric=True, options=opts, matrix=matrix,
                                cached=self.bundle, replicas=self.replicas)
            with span("check"):
                ledger = ledger_state(sim)
            X = self.solve_decomposed(A, B, sf, tf, g, sim, res.replicas.home_view())
            with span("check"):
                reason = gate(A, B, X, ledger, self.ref_ledger)
        self.numeric_diag(sf, tf, g, matrix, self.bundle, opts)
        return reason

    def extras(self) -> None:
        for _ in range(self.reps):
            self.kernel_replay(self.sf)


# -- service_mix ------------------------------------------------------------

def factor_ledger(solver) -> dict:
    """The part of a service job's ledger its solve cannot have touched
    (a ``JobResult`` is only available after the job has also solved)."""
    led = {k: v for k, v in ledger_state(solver.sim).items()
           if "solve" not in k and k not in ("clock", "event_counts")}
    led["per_level_makespan"] = list(solver.result.per_level_makespan)
    return led


class ServiceMix(Workload):
    """Two closed-loop clients on one ``FactorizationService``; six patterns
    of Zipf(1) popularity over a four-entry plan cache.

    Requests are sent in *decks* of 49: the Zipf(1) mix over the six
    patterns, rounded, in an order the seed shuffles. Latencies range over
    5x between patterns and between hits and misses, so the median of a few
    dozen requests follows the luck of the draw; the mean latency of a whole
    deck has the same mix for every seed and repeats. ``request_s`` is
    therefore measured per deck (its mean request latency), and a run sends
    whole decks only.
    """

    name = "service_mix"
    clients = 2
    probe_passes = 3        # the main thread idles while the clients run
    ROUND_S = 0.5
    DECK = (20, 10, 7, 5, 4, 3)     # requests per pattern in one deck

    def setup(self) -> None:
        q = self.quick
        gens = [(grid2d_5pt, 12 if q else 32, "lu"), (grid2d_5pt, 14 if q else 40, "lu"),
                (grid2d_5pt, 16 if q else 48, "lu"), (grid2d_9pt, 12 if q else 32, "lu"),
                (grid3d_7pt, 5 if q else 10, "lu"), (grid3d_7pt, 6 if q else 12, "cholesky")]
        self.patterns = [(*gen(size), backend) for gen, size, backend in gens]
        self.deck_of: dict[int, int] = {}       # op id -> deck
        self.ref_ledgers: list[dict] = []
        self.sim = {}
        self.svc = None
        for job, A, b in self.start_service():
            self.ref_ledgers.append(factor_ledger(job.solver))
            s = job.solver.sim
            words = s.words_per_rank("fact") + s.words_per_rank("red")
            msgs = s.msgs_per_rank("fact") + s.msgs_per_rank("red")
            add_into(self.sim, {"sim_makespan": job.solver.result.per_level_makespan[-1],
                                "sim_words_max": float(words.max()),
                                "sim_msgs_max": float(msgs.max()),
                                "sim_mem_peak_max": float(s.mem_peak.max())})
            if not self.ref_ledgers[1:]:
                check_reference(A, b, job.x)

    def start_service(self) -> list:
        """A fresh service that has seen every pattern once (so the cache is
        full and has evicted); returns the warm-up ``(job, A, b)``."""
        if self.svc is not None:
            self.svc.close()
        self.svc = FactorizationService(px=2, py=2, pz=2, leaf_size=32, capacity=4,
                                        max_workers=2)
        self.next_deck = 0
        warm = []
        for p in range(len(self.patterns)):
            A, b = self.inputs(p, np.random.default_rng([self.seed, p]))
            warm.append((self.submit(p, A, b), A, b))
        self.stats0 = self.svc.stats()
        return warm

    def inputs(self, p: int, rng):
        A, _, backend = self.patterns[p]
        if backend == "cholesky":       # D A D keeps the matrix SPD
            D = sp.diags(1.0 + 0.01 * rng.standard_normal(A.shape[0]))
            A = (D @ A @ D).tocsr()
        else:
            A = perturb(A, rng)
        return A, rng.standard_normal(A.shape[0])

    def submit(self, p: int, A, b):
        _, geom, backend = self.patterns[p]
        return self.svc.solve(A, b, geometry=geom, backend=backend)

    def one_request(self, deck: int, i: int, p: int, root: str) -> str | None:
        A, b = self.inputs(p, np.random.default_rng([self.seed, 1000 + deck, i]))
        span = self.rec.span
        with self.rec.op(root, probe=False) as op:
            with span("service.call", probe=False) as s:
                job = self.submit(p, A, b)
            with span("check", probe=False):
                reason = gate(A, b, job.x, factor_ledger(job.solver), self.ref_ledgers[p])
        with self._lock:
            self.deck_of[op["op"]] = deck
            for name, v in (("service.build_s", job.build_seconds),
                            ("service.factor_s", job.factor_seconds),
                            ("service.solve_s", job.solve_seconds)):
                self.scaled.append((name, s, v))
        return reason

    def client(self, deck: int, todo, stop_at: float, root: str, busy: list) -> None:
        t0 = now()
        while todo and now() < stop_at:
            try:
                i, p = todo.popleft()
            except IndexError:          # the other client took the last one
                break
            self.attempt(lambda: self.one_request(deck, i, p, root))
        busy.append(now() - t0)

    def run(self, seconds: float) -> None:
        self.run_decks(seconds, self.clients, "request")

    def run_decks(self, seconds: float, clients: int, root: str) -> None:
        """Whole decks until the time is up. Within a deck, rounds of
        ``ROUND_S``: the clients stop after the request in flight, and the
        main thread probes while none of them runs."""
        t_end = now() + seconds
        took = 0.0
        # Another deck only while at least half of one fits the time left.
        while self.next_deck == 0 or now() + took / 2 < t_end:
            t_deck = now()
            deck, self.next_deck = self.next_deck, self.next_deck + 1
            order = np.random.default_rng([self.seed, 1000 + deck]).permutation(
                np.repeat(np.arange(len(self.DECK)), self.DECK))
            todo = collections.deque(enumerate(int(p) for p in order))
            while todo:
                self.rec.clock.probe()
                t0, busy = now(), []
                threads = [threading.Thread(target=self.client, args=(
                    deck, todo, t0 + self.ROUND_S, root, busy)) for _ in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                self.rounds.append((root, t0, now(), busy))
            took = now() - t_deck
        self.rec.clock.probe()

    def run_traced(self, seconds: float) -> None:
        """The service is one layer from outside, so there is nothing to
        decompose; the traced pass replays the same decks with one client on
        a fresh service instead (the base of ``service.scaling``)."""
        st = self.svc.stats()
        self.window_stats = {k: st[k] - self.stats0[k] for k in ("hits", "misses", "evictions")}
        self.start_service()
        self.run_decks(seconds, 1, "request1")

    def layer_values(self, red) -> dict[str, float]:
        """Means per request (a median would hide the misses), cache
        counters of the two-client pass, and the one-client base."""
        def mean(name):
            values = red.seconds(name, ("request",))
            return sum(values) / len(values) if values else 0.0

        v = {name: mean(name) for name in
             ("service.build_s", "service.factor_s", "service.solve_s")}
        v["service.wait_s"] = max(mean("service.call") - sum(v.values()), 0.0)
        st = self.window_stats
        v["service.hit_ratio"] = st["hits"] / max(st["hits"] + st["misses"], 1)
        v["service.evictions"] = float(st["evictions"])
        v["service.ops_per_s_1client"] = one = red.ops_per_s("request1", 1)
        v["service.scaling"] = red.ops_per_s("request", self.clients) / one if one else 0.0
        return v

    def request_samples(self, durations: dict, key: str) -> list[float]:
        """One sample per deck: its mean request latency."""
        decks: dict[int, list[float]] = {}
        for s in self.rec.spans:
            if s["parent"] is None and s["name"] == "request":
                decks.setdefault(self.deck_of[s["op"]], []).append(durations[s["id"]][key])
        return [sum(v) / len(v) for v in decks.values()]

    def busy_norm(self, durations: dict, root: str) -> tuple[int, float]:
        """Ops, and the normalised time a client was busy (mean over the
        clients), so the idle tail of a round does not count as load."""
        n = sum(1 for s in self.rec.spans if s["parent"] is None and s["name"] == root)
        busy = 0.0
        for r, t0, t1, per_client in self.rounds:
            if r == root:
                busy += sum(per_client) / len(per_client) * self.rec.clock.scale(t0, t1)
        return n, busy

    def extras(self) -> None:
        opts = FactorOptions()
        for i in range(20 * self.reps):
            p = i % len(self.patterns)
            A, _ = self.inputs(p, np.random.default_rng([self.seed, 2000 + i]))
            _, geom, backend = self.patterns[p]
            with self.rec.op("diag"):
                with self.rec.span("service.fingerprint"):
                    cache_key(A, (2, 2, 2), backend, opts, leaf_size=32, geometry=geom)

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()


# -- cli_circuit ------------------------------------------------------------

#: The circuit *graph* is fixed so the simulated ledger is the same for
#: every seed; ``--seed`` perturbs the conductances.
CIRCUIT_GRAPH_SEED = 0

_CLI_LINES = {
    "sim_makespan": (re.compile(r"modeled factor time\s*:\s*(\S+) ms"), 1e-3),
    "sim_words_max": (re.compile(r"per-rank comm volume\s*:\s*(\S+) words"), 1.0),
    "sim_mem_peak_max": (re.compile(r"per-rank peak memory\s*:\s*(\S+) words"), 1.0),
}


class CliCircuit(Workload):
    """``python -m repro solve`` on a geometry-less circuit matrix."""

    name = "cli_circuit"
    probe_passes = 3        # this process idles while the CLI process runs

    def setup(self) -> None:
        A, _ = circuit_like(16 if self.quick else 48, seed=CIRCUIT_GRAPH_SEED)
        self.A = perturb(A, self.rng)
        self.b = np.ones(self.A.shape[0])           # the CLI's default --rhs
        self.dir = OUT_DIR / f"tmp_{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.mtx = str(self.dir / "m.mtx")
        self.xfile = str(self.dir / "x.txt")
        write_matrix_market(self.mtx, self.A)
        self.A = read_matrix_market(self.mtx)       # values as the file rounds them
        self.ref_ledger = None
        self.attempt(self.op)
        check_reference(self.A, self.b, np.loadtxt(self.xfile))

    def command(self) -> list[str]:
        return [sys.executable, "-m", "repro", "solve", self.mtx, "--px", "2", "--py", "2",
                "--pz", "2", "--x-out", self.xfile]

    def op(self) -> str | None:
        span = self.rec.span
        Path(self.xfile).unlink(missing_ok=True)    # never check a stale x
        with self.rec.op("request"):
            with span("cli.process"):
                proc = subprocess.run(self.command(), capture_output=True, text=True,
                                      timeout=120)
            with span("check"):
                if proc.returncode != 0:
                    return f"CLI exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                ledger = {}
                for key, (rx, unit) in _CLI_LINES.items():
                    m = rx.search(proc.stdout)
                    if m is None:
                        return f"CLI output lacks the {key} line"
                    ledger[key] = float(m.group(1)) * unit
                if self.ref_ledger is None:
                    self.ref_ledger = ledger
                    self.sim = dict(ledger)
                return gate(self.A, self.b, np.loadtxt(self.xfile), ledger, self.ref_ledger)

    def python(self, code: str) -> None:
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def traced_op(self) -> str | None:
        """What the CLI process does, reproduced from outside: interpreter
        start + ``import repro`` in a subprocess, the rest in this process."""
        span, g, opts = self.rec.span, ProcessGrid3D(2, 2, 2), FactorOptions()
        with self.rec.op("traced"):
            with span("cli.import"):
                self.python("import repro.cli")
            with span("sparse.read_mtx"):
                A = read_matrix_market(self.mtx)
            sf, tf = self.analyze_decomposed(A, None, g.pz)
            bundle = self.build_bundle(sf, tf, g, opts)
            with span("lu3d.exec_numeric"):
                sim = Simulator(g.size, Machine.edison_like())
                res = factor_3d(sf, tf, g, sim, numeric=True, options=opts, cached=bundle)
            m = sim_metrics(FactorizationMetrics.from_simulator(sim))
            self.sim.update({k: m[k] for k in ("sim_msgs_max", "lu2d.flops")})  # not printed
            x = self.solve_decomposed(A, self.b, sf, tf, g, sim, res.replicas.home_view())
            with span("check"):
                reason = gate(A, self.b, x, None, None)
        self.numeric_diag(sf, tf, g, sf.A_perm, bundle, opts)
        self.sf = sf
        return reason

    def extras(self) -> None:
        for _ in range(self.reps):
            self.kernel_replay(self.sf)
            with self.rec.op("diag"):
                with self.rec.span("cli.python_start"):
                    self.python("pass")
                with self.rec.span("cli.import_deps"):     # what ``import repro`` pulls in
                    self.python("import numpy, scipy.sparse, scipy.linalg")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in
             (BrickCold, BrickPool, CostSweep, TimestepWarm, ServiceMix, CliCircuit)}
