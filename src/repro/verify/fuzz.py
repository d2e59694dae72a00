"""Schedule fuzzer: execute a plan under random legal orders, diff ledgers.

The plan layer's central claim is that the task DAG carries *every*
ordering that matters — that any legal schedule produces the same
simulator ledgers and factors as the canonical list order. The fuzzer
tests this dynamically: it draws N seeded random **legal schedules**,
replays each through the existing interpreter machinery
(:func:`repro.plan.interpret.run` + :func:`~repro.plan.interpret.book` —
the one task body the drivers use, booking that unit's slice of the
plan's event stream), and diffs every per-rank ledger bit-for-bit plus
the numeric factors to 1e-12 against the canonical order.

What "legal schedule" means
---------------------------
A linear extension of the dependency DAG that also preserves the
canonical relative order of tasks whose **rank footprints intersect**
(conflict-equivalence, in trace-theory terms). The second constraint is
what makes *bit*-exactness provable rather than approximate: per-rank
clocks accumulate floating-point sums and ``max()`` waits and the memory
peak depends on alloc/free interleaving — both are invariant exactly when
every rank sees its events in the canonical order, which rank-disjoint
commutation preserves. Tasks on disjoint rank sets (sibling z-grids of a
level, independent lookahead panels) are genuinely reorderable, and
those reorderings are what the fuzzer explores. The integer-valued
ledgers (words, messages, flops, event counts) would survive arbitrary
topological orders; the clocks and peaks would not.

Factors: every variant binds each grid plan to its own z-layer's
replicas, and every access to a given block lands on its owner rank, so
block arithmetic orders are preserved and factors stay bit-identical too.
The 1e-12 tolerance is for :func:`fuzz_solve`, whose orders reassociate
segment accumulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.events import PHASE_FACT, PHASE_RED
from repro.comm.machine import Machine
from repro.comm.simulator import Simulator
from repro.lu2d.options import FactorOptions
from repro.plan.interpret import GridContext, book, execute_reduce, run
from repro.plan.tasks import GridPlan, Plan3D
from repro.utils.ragged import ragged
from repro.verify.oracle import ledger_state

__all__ = ["FuzzReport", "fuzz_3d", "fuzz_solve",
           "random_legal_orders"]


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run (one driver configuration)."""

    driver: str
    n_units: int
    n_orders: int = 0
    #: How many sampled orders actually differed from the canonical one
    #: (an all-identity sample would make the run vacuous).
    n_perturbed: int = 0
    #: Ledger keys that diverged, as ``"order <seed>: <key>"`` strings.
    ledger_mismatches: list[str] = field(default_factory=list)
    #: Max relative deviation of the factors across orders (0.0 for
    #: cost-only runs).
    factor_max_dev: float = 0.0
    factor_tol: float = 1e-12
    #: Ledger state of the canonical (identity-order) run — lets tests
    #: pin the fuzzer's baseline to the real driver's ledgers.
    canonical_ledger: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.ledger_mismatches \
            and self.factor_max_dev <= self.factor_tol

    def summary(self) -> str:
        status = "ok" if self.ok else \
            f"FAILED ({len(self.ledger_mismatches)} ledger mismatches, " \
            f"factor dev {self.factor_max_dev:.2e})"
        return (f"fuzz[{self.driver}]: {self.n_orders} orders "
                f"({self.n_perturbed} perturbed) over {self.n_units} "
                f"units -- {status}")


def random_legal_orders(n: int, edges, n_orders: int, seed: int):
    """Seeded random linear extensions of the constraint DAG.

    ``edges`` is an iterable of ``(u, v)`` position pairs meaning "u
    before v". Each order is drawn by Kahn's algorithm with a seeded
    uniform choice from the ready set — every legal schedule has nonzero
    probability. Yields position lists of length ``n``.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    for s in range(n_orders):
        rng = np.random.default_rng(seed + s)
        deg = list(indeg)
        ready = [i for i in range(n) if deg[i] == 0]
        order: list[int] = []
        while ready:
            pick = int(rng.integers(len(ready)))
            u = ready.pop(pick)
            order.append(u)
            for v in succ[u]:
                deg[v] -= 1
                if deg[v] == 0:
                    ready.append(v)
        if len(order) != n:  # pragma: no cover - cyclic constraint graph
            raise ValueError("constraint graph has a cycle; cannot fuzz")
        yield order


# -- schedulable units -----------------------------------------------------

@dataclass
class _Unit:
    """One schedulable unit: a grid-plan dispatch interval (one task, or
    one same-kind run), a reduce, or a barrier."""

    kind: str                   # 'grid' | 'reduce' | 'barrier'
    task: object = None         # the level-scope task (None for 'grid')
    ctx_key: object = None      # 'grid': which GridContext executes it ...
    span: tuple | None = None   # ... over which task interval [a, b)
    tids: set | None = None
    deps: set | None = None
    phase: str = PHASE_FACT
    ranks: frozenset = frozenset()

    def __post_init__(self):
        if self.task is not None:
            self.tids, self.deps = {self.task.tid}, set(self.task.deps)


def _stream_ranks(ev, lo=0, hi=None, mlo=0, mhi=None) -> frozenset:
    """Every rank a stream slice books an event or a memory charge on."""
    return frozenset(np.concatenate(
        (ev.src[lo:hi], ev.dst[lo:hi], ev.mem_rank[mlo:mhi])).tolist())


def _grid_units(gp: GridPlan, key, runs: bool) -> list[_Unit]:
    """``gp``'s dispatch intervals — its same-kind ``runs``, or one per
    task — as units: an interval's footprint is the ranks of its slice of
    the plan's event and memory streams, its dependencies the union of
    its tasks' that leave the interval."""
    A = gp.arrays
    cuts = A.runs.tolist() if runs else list(range(A.n_tasks + 1))
    units = []
    for a, b in zip(cuts, cuts[1:]):
        tids = set(A.tid[a:b].tolist())
        deps = set(A.dep_idx[A.dep_ptr[a]:A.dep_ptr[b]].tolist())
        units.append(_Unit(
            "grid", ctx_key=key, span=(a, b), tids=tids, deps=deps - tids,
            ranks=_stream_ranks(A.stream, A.ev_ptr[a], A.ev_ptr[b],
                                A.mem_ptr[a], A.mem_ptr[b])))
    return units


def _plan3d_units(plan3: Plan3D, runs: bool) -> tuple[list[_Unit], dict]:
    """Flatten a 3D plan into canonical-order units + per-context plans."""
    units: list[_Unit] = []
    ctx_plans: dict = {}
    for li, step in enumerate(plan3.levels):
        for gi, gp in enumerate(step.grid_plans):
            ctx_plans[(li, gi)] = gp
            units += _grid_units(gp, (li, gi), runs)
        for red in step.reduces:
            units.append(_Unit("reduce", red, phase=PHASE_RED,
                               ranks=_stream_ranks(red.stream())))
        units.append(_Unit("barrier", step.barrier))
    return units, ctx_plans


def _constraint_edges(units: list[_Unit]) -> set[tuple[int, int]]:
    """Dep edges plus per-rank canonical chains (conflict-equivalence)."""
    pos_of = {tid: p for p, u in enumerate(units) for tid in u.tids}
    edges: set[tuple[int, int]] = set()
    for p, u in enumerate(units):
        for d in u.deps:
            dp = pos_of.get(d)
            if dp is not None and dp != p:
                edges.add((dp, p))
    last_on_rank: dict[int, int] = {}
    for p, u in enumerate(units):
        for r in u.ranks:
            prev = last_on_rank.get(r)
            if prev is not None:
                edges.add((prev, p))
            last_on_rank[r] = p
    return edges


def _run_order(units, ctx_plans, order, setup, opts):
    """Execute one schedule; return ``(ledger_state, dense_factors)``."""
    sim, data, factors_fn = setup()
    contexts: dict = {}
    for p in order:
        u = units[p]
        if u.kind == "barrier":
            continue
        sim.set_phase(u.phase)
        if u.kind == "reduce":
            execute_reduce(u.task, sim, accumulate=data.accumulate)
        else:
            ctx = contexts.get(u.ctx_key)
            if ctx is None:
                gp = ctx_plans[u.ctx_key]
                ctx = contexts[u.ctx_key] = GridContext(
                    gp, sim, data.program(gp), opts)
            run(ctx, *u.span)
            book(ctx, *u.span)
    sim.set_phase(PHASE_FACT)
    F = factors_fn() if factors_fn is not None else None
    return ledger_state(sim), F


def _fuzz(run, n_units: int, edges, *, driver: str, n_orders: int,
          seed: int) -> FuzzReport:
    """Diff ``run(order) -> (ledger, values)`` under ``n_orders`` random
    linear extensions of ``edges`` against the identity order: every
    ledger key exactly, the values (``None``: none) by max deviation."""
    report = FuzzReport(driver=driver, n_units=n_units)
    identity = list(range(n_units))
    report.canonical_ledger, canonical_F = run(identity)
    for i, order in enumerate(
            random_legal_orders(n_units, edges, n_orders, seed)):
        report.n_orders += 1
        if order != identity:
            report.n_perturbed += 1
        ledger, F = run(order)
        for key, val in report.canonical_ledger.items():
            if ledger.get(key) != val:
                report.ledger_mismatches.append(f"order {seed + i}: {key}")
        if F is not None:
            scale = max(1.0, float(np.abs(canonical_F).max()))
            dev = float(np.abs(F - canonical_F).max()) / scale
            report.factor_max_dev = max(report.factor_max_dev, dev)
    return report


# -- driver-faithful entry points ------------------------------------------

def fuzz_3d(sf, tf, grid3, *, backend: str = "lu", merged: bool = False,
            numeric: bool = False, n_orders: int = 25, seed: int = 0,
            options: FactorOptions | None = None, machine=None,
            matrix=None, runs: bool = False) -> FuzzReport:
    """Fuzz a 3D plan (standard, merged, or Cholesky via ``backend``;
    the merged variant is LU only: :func:`repro.plan.build_3d_plan`
    refuses ``merged`` with another backend).

    Builds the plan and binds the numeric state with the driver's own
    steps (:func:`repro.lu3d.factor3d.factor_3d`), so the identity-order
    run books the driver's golden-pinned ledgers — the tests assert that
    chain explicitly. With ``runs=True`` the plan's same-kind runs are
    the schedulable units (one dispatch each), so random legal orders
    exercise the runs' unioned dependency edges; the default is one unit
    per task — the identity order is then the monitored walk's width.
    """
    from repro.lu3d.factor3d import Factor3DResult, _bind_data
    from repro.plan.replay import PlanBundle

    opts = options or FactorOptions()
    mach = machine if machine is not None else Machine.edison_like()
    bundle = PlanBundle.build(sf, tf, grid3, opts, merged=merged,
                              backend=backend)
    plan3 = bundle.plan3
    charge = bundle.replica_words(sf, tf, grid3)

    def setup():
        sim = Simulator(grid3.size, mach)
        sim.alloc_batch(np.arange(grid3.size), charge)
        result = Factor3DResult(tf=tf)
        data = _bind_data(sf, tf, result, bundle, numeric=numeric,
                          matrix=matrix, replicas=None)
        if not numeric:
            return sim, data, None
        return sim, data, lambda: result.factors().to_dense()

    units, ctx_plans = _plan3d_units(plan3, runs)
    name = "merged" if merged else backend
    return _fuzz(lambda order: _run_order(units, ctx_plans, order, setup,
                                          opts),
                 len(units), _constraint_edges(units),
                 driver=f"{name}3d{'_numeric' if numeric else ''}",
                 n_orders=n_orders, seed=seed)


def fuzz_solve(plan, sf, blocks, b, nranks: int, *, unit: bool,
               n_orders: int = 25, seed: int = 0, machine=None
               ) -> FuzzReport:
    """Fuzz one triangular sweep (:class:`repro.plan.solve.SolvePlan`):
    random linear extensions of its dependency DAG through
    :func:`repro.solve.triangular.sweep` (its bound program run and booked
    task by task in that order). The *volume* ledgers — words, messages,
    flops, event counts: integer sums — must be bit-identical under any
    legal order (clocks depend on the interleaving and are not compared);
    the solution deviates only by reassociated segment accumulations."""
    from repro.solve.triangular import sweep

    def run(order):
        sim = Simulator(nranks, machine)
        x = sweep(plan, sf, blocks, b, sim, unit, order)
        return {k: v for k, v in ledger_state(sim).items() if k.startswith(
            ("words_", "msgs_", "flops:", "event_counts"))}, x

    task, _off = ragged(np.diff(plan.dep_ptr))
    return _fuzz(run, plan.n_tasks, zip(plan.dep_idx.tolist(), task.tolist()),
                 driver="solve", n_orders=n_orders, seed=seed)
