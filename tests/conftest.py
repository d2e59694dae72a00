"""Shared fixtures: small representative matrices of each geometry class,
plus the suite-wide plan-verification hook and hypothesis strategies."""

import pytest

from repro.comm import Simulator
from repro.sparse import (
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    kkt_like,
    random_symmetric_pattern,
    thin_slab_7pt,
)


@pytest.fixture(autouse=True, scope="session")
def _verify_every_plan():
    """Race-check every plan any test builds, via the builder hook.

    Installs :func:`repro.verify.static.analyze_plan` as
    ``repro.plan.build.POST_BUILD_HOOK`` for the whole session: any
    standalone GridPlan or Plan3D built anywhere in the suite that
    contains a race, cycle, or malformed collective fails the test that
    built it. ``max_race_tasks`` is kept modest so the O(n^2) reachability
    pass never dominates suite time — large plans skip only the race
    check, never the structural checks.
    """
    from repro.plan import build
    from repro.verify.static import analyze_plan

    def hook(plan, sf):
        analyze_plan(plan, sf, max_race_tasks=6000).raise_if_issues()

    prev = build.POST_BUILD_HOOK
    build.POST_BUILD_HOOK = hook
    yield
    build.POST_BUILD_HOOK = prev


class EventByEvent(Simulator):
    """The per-event referee: a subclass observes events, so
    :meth:`Simulator.book` issues a stream through ``compute`` / ``send``
    / ``recv`` / ``alloc`` / ``free`` (with a trace or a topology attached,
    the calls that record and price events one at a time) — what a plain
    ``Simulator``'s array path must book bit for bit. ``calls`` lists
    them."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.calls: list = []

    def compute(self, rank, flops, kind, n_block_updates=0):
        self.calls.append(("compute", rank, flops, kind, n_block_updates))
        super().compute(rank, flops, kind, n_block_updates)

    def send(self, src, dst, words):
        self.calls.append(("send", src, dst, words))
        super().send(src, dst, words)

    def recv(self, dst, src):
        self.calls.append(("recv", dst, src))
        return super().recv(dst, src)

    def alloc(self, rank, words):
        self.calls.append(("alloc", rank, words))
        super().alloc(rank, words)

    def free(self, rank, words):
        self.calls.append(("free", rank, words))
        super().free(rank, words)


def per_event_simulator(nranks: int, machine=None):
    """A simulator that books every stream event by event: a fault
    injector with no faults observes each ``send`` / ``compute`` and
    perturbs nothing (the ledger is the plain simulator's)."""
    from repro.resilience import FaultInjector, FaultPlan
    sim = Simulator(nranks, machine)
    sim.attach_faults(FaultInjector(FaultPlan(), sim.machine))
    return sim


def width1_options(opts=None):
    """``opts`` (default ``FactorOptions()``) walked at width 1: a
    checkpoint cadence past any plan's task count puts the resilience
    monitor on the run — the walk goes task by task — and never takes a
    checkpoint, so the ledger is the full-width run's."""
    import dataclasses

    from repro.lu2d import FactorOptions
    return dataclasses.replace(opts or FactorOptions(),
                               checkpoint_every=10**9)


def one_layer(sf, px: int, py: int):
    """``(tf, grid3)`` of the 2D baseline on a ``px x py`` grid: Algorithm 1
    at ``Pz = 1`` — one layer, no Ancestor-Reduction. Pass them to
    ``factor_3d`` / ``factor_chol_3d`` / ``fuzz_3d``."""
    from repro.comm import ProcessGrid3D
    from repro.tree import greedy_partition
    return greedy_partition(sf, 1), ProcessGrid3D(px, py, 1)


def reassembled(A, **cols):
    """Task arrays ``A`` with the primary columns ``cols`` replaced and
    every derived column assembled afresh: a hand-edited plan that is
    consistent with itself."""
    from repro.plan.arrays import PRIMARY, TaskArrays
    return TaskArrays.assemble(**{c: cols.get(c, getattr(A, c))
                                  for c in PRIMARY})


def plan_tasks(plan):
    """``(tid, deps, kind name)`` of every task of a GridPlan or Plan3D in
    plan order: grid tasks read off their arrays' columns, then each
    level's sweeps, reduces and barrier."""
    from repro.plan.arrays import KINDS

    def grid(A):
        ptr, dep = A.dep_ptr.tolist(), A.dep_idx.tolist()
        for t, (tid, kind) in enumerate(zip(A.tid.tolist(), A.kind.tolist())):
            yield tid, tuple(dep[ptr[t]:ptr[t + 1]]), KINDS[kind]
    if not hasattr(plan, "levels"):
        yield from grid(plan.arrays)
        return
    for step in plan.levels:
        for gp in step.grid_plans:
            yield from grid(gp.arrays)
        for t in [*step.reduces, step.barrier]:
            yield t.tid, t.deps, t.kind


# -- hypothesis strategies (tests/test_verify.py) --------------------------
# Guarded: hypothesis is an optional dev dependency; without it the
# property tests skip (pytest.importorskip) but collection must not break.
try:
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis always present in CI
    st = None

if st is not None:
    _SETUPS = [(8, 8, 1), (10, 8, 2), (12, 16, 2), (12, 16, 4)]
    _sym_cache: dict = {}

    def _symbolic(nx, leaf, spd, blocking="uniform"):
        """Memoized symbolic factorization (hypothesis re-draws heavily)."""
        import scipy.sparse as sp

        from repro.symbolic import symbolic_factorize

        key = (nx, leaf, spd, blocking)
        if key not in _sym_cache:
            A, geom = grid2d_5pt(nx)
            if spd:
                S = (A + A.T) * 0.5
                A = (S + sp.eye(A.shape[0])
                     * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
            _sym_cache[key] = symbolic_factorize(
                A, geom, leaf_size=leaf, blocking=blocking,
                max_block=32 if blocking == "irregular" else None)
        return _sym_cache[key]

    @st.composite
    def plan_cases(draw):
        """A random small plan-builder configuration (any driver shape).

        Returns a dict: ``sf``, ``tf`` (None for 2D), grid dims, backend,
        merged flag and FactorOptions — everything needed to build a
        GridPlan or Plan3D.
        """
        from repro.lu2d.options import FactorOptions
        from repro.tree import greedy_partition

        nx, leaf, pz = draw(st.sampled_from(_SETUPS))
        backend = draw(st.sampled_from(["lu", "cholesky"]))
        blocking = draw(st.sampled_from(["uniform", "irregular"]))
        sf = _symbolic(nx, leaf, backend == "cholesky", blocking)
        merged = backend == "lu" and pz > 1 and draw(st.booleans())
        opts = FactorOptions(
            lookahead=draw(st.integers(min_value=0, max_value=2)),
            sparse_bcast=(backend == "lu" and draw(st.booleans())),
            blocking=blocking)
        px = draw(st.integers(min_value=1, max_value=3))
        py = draw(st.integers(min_value=1, max_value=3))
        tf = greedy_partition(sf, pz) if pz > 1 else None
        return {"sf": sf, "tf": tf, "px": px, "py": py, "pz": pz,
                "backend": backend, "merged": merged, "opts": opts}


@pytest.fixture(scope="session")
def planar_small():
    """16x16 5-point grid: the workhorse planar test problem (n=256)."""
    return grid2d_5pt(16)


@pytest.fixture(scope="session")
def planar_9pt_small():
    return grid2d_9pt(12)


@pytest.fixture(scope="session")
def brick_small():
    """8x8x8 7-point brick: the workhorse non-planar test problem (n=512)."""
    return grid3d_7pt(8)


@pytest.fixture(scope="session")
def slab_small():
    return thin_slab_7pt(10, 10, 3)


@pytest.fixture(scope="session")
def circuit_small():
    return circuit_like(12, seed=3)


@pytest.fixture(scope="session")
def kkt_small():
    return kkt_like(5, seed=1)


@pytest.fixture(scope="session")
def random_small():
    return random_symmetric_pattern(150, avg_degree=5.0, seed=7)


@pytest.fixture(
    scope="session",
    params=["planar", "9pt", "brick", "slab", "circuit", "kkt"],
)
def any_matrix(request, planar_small, planar_9pt_small, brick_small,
               slab_small, circuit_small, kkt_small):
    """Parametrized (A, geometry) pair covering every generator family."""
    return {
        "planar": planar_small,
        "9pt": planar_9pt_small,
        "brick": brick_small,
        "slab": slab_small,
        "circuit": circuit_small,
        "kkt": kkt_small,
    }[request.param]
