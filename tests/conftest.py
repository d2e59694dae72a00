"""Shared fixtures: small representative matrices of each geometry class,
plus the suite-wide plan-verification hook and hypothesis strategies."""

from collections import defaultdict, deque
from functools import partial

import numpy as np
import pytest

from repro.comm import CommError, Machine
from repro.comm.events import COMPUTE_KINDS, PHASES
from repro.comm.stream import MSG, EventStream
from repro.lu3d import factor_3d
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


class EventByEvent:
    """The per-event referee of :meth:`Simulator.book`: a standalone
    simulator that issues a stream one event at a time, through
    ``compute`` / ``send`` + ``recv`` / ``alloc`` / ``free`` in stream
    order. It keeps its own clocks, FIFO message queues and ledgers, and
    applies a trace's rows, a topology's prices and a fault injector's
    perturbations event by event — what ``Simulator.book``'s clock loop
    must book float for float. ``calls`` lists the calls."""

    def __init__(self, nranks, machine=None, trace=None, topology=None):
        self.nranks, self.phase = nranks, "fact"
        self.machine = machine or Machine.edison_like()
        self.trace, self.topology, self.faults = trace, topology, None
        self.clock = np.zeros(nranks)
        self.flops = {k: np.zeros(nranks) for k in COMPUTE_KINDS}
        self.t_compute = {k: np.zeros(nranks) for k in COMPUTE_KINDS}
        self.words_sent = {p: np.zeros(nranks) for p in PHASES}
        self.words_recv = {p: np.zeros(nranks) for p in PHASES}
        self.msgs_sent = {p: np.zeros(nranks, np.int64) for p in PHASES}
        self.msgs_recv = {p: np.zeros(nranks, np.int64) for p in PHASES}
        self.mem_current, self.mem_peak = np.zeros(nranks), np.zeros(nranks)
        self.event_counts = defaultdict(int)
        self.queues = defaultdict(deque)
        self.calls: list = []

    def set_phase(self, phase):
        if phase not in PHASES:
            raise CommError(f"unknown phase {phase!r}")
        self.phase = phase

    def attach_faults(self, injector):
        self.faults = injector

    def _record(self, rank, start, end, kind, words=0.0):
        if self.trace is not None:
            self.trace.record(rank, start, end, kind, self.phase, words)

    def compute(self, rank, flops, kind, n_block_updates=0):
        self.calls.append(("compute", rank, flops, kind, n_block_updates))
        m = self.machine
        gamma = m.gamma_gemm if kind in ("schur", "reduce_add") \
            else m.gamma_panel
        dt = flops * gamma + n_block_updates * m.gemm_overhead
        start = self.clock[rank]
        if self.faults is not None:
            dt = self.faults.scale_compute(rank, start, dt)
        self.clock[rank] += dt
        self.flops[kind][rank] += flops
        self.t_compute[kind][rank] += dt
        self.event_counts[kind] += 1
        self._record(rank, start, self.clock[rank], kind)

    def _transmit(self, src, words):
        self.words_sent[self.phase][src] += words
        self.msgs_sent[self.phase][src] += 1
        self.event_counts["send"] += 1

    def send(self, src, dst, words):
        """The sender's NIC is busy for each transmission; a dropped one
        times out and is sent again. A delay pushes only the arrival."""
        self.calls.append(("send", src, dst, words))
        start = self.clock[src]
        alpha, beta = self.machine.alpha, self.machine.beta
        if self.topology is not None:
            alpha *= self.topology.latency_factor(src, dst)
            beta *= self.topology.bandwidth_factor(src, dst)
        self.clock[src] += alpha + beta * words
        arrival = self.clock[src]
        if self.faults is not None:
            for _ in range(self.faults.count_drops(src, dst,
                                                   self.clock[src])):
                self.clock[src] += self.faults.timeout + alpha + beta * words
                self._transmit(src, words)
            arrival = self.clock[src] + self.faults.added_delay(
                src, dst, self.clock[src])
        self.queues[src, dst].append((arrival, words))
        self._transmit(src, words)
        self._record(src, start, self.clock[src], "send", words)

    def recv(self, dst, src):
        self.calls.append(("recv", dst, src))
        arrival, words = self.queues[src, dst].popleft()
        start = self.clock[dst]
        self.clock[dst] = max(self.clock[dst], arrival)
        self.words_recv[self.phase][dst] += words
        self.msgs_recv[self.phase][dst] += 1
        self.event_counts["recv"] += 1
        if self.clock[dst] > start:
            self._record(dst, start, self.clock[dst], "recv_wait", words)

    def alloc(self, rank, words):
        self.calls.append(("alloc", rank, words))
        self.mem_current[rank] += words
        self.mem_peak[rank] = max(self.mem_peak[rank], self.mem_current[rank])

    def free(self, rank, words):
        self.calls.append(("free", rank, words))
        self.mem_current[rank] -= words
        if self.mem_current[rank] < -1e-9:
            raise CommError(f"rank {rank} freed more memory than allocated")

    def alloc_batch(self, ranks, words):
        for r, w in zip(np.asarray(ranks).tolist(), np.asarray(words).tolist()):
            self.alloc(r, w)

    def free_batch(self, ranks, words):
        for r, w in zip(np.asarray(ranks).tolist(), np.asarray(words).tolist()):
            self.free(r, w)

    def book(self, ev, lo=0, hi=None, mlo=0, mhi=None):
        """Issue events ``[lo, hi)`` and charges ``[mlo, mhi)`` one by one;
        returns the charges' per-rank ``(net, peak, low)`` running levels
        (``None``: no charge)."""
        ev.check(self.nranks)
        upd = np.zeros(ev.src.size, np.int64) if ev.upd is None else ev.upd
        for s, d, v, k, u in zip(*(c[lo:hi].tolist() for c in (
                ev.src, ev.dst, ev.val, ev.kind, upd))):
            if k == MSG:
                self.send(s, d, v)
                self.recv(d, s)
            else:
                self.compute(s, v, COMPUTE_KINDS[k], n_block_updates=u)
        ranks = ev.mem_rank[mlo:mhi].tolist()
        if not ranks:
            return None
        net, peak, low = np.zeros((3, self.nranks))
        for r, w in zip(ranks, ev.mem_words[mlo:mhi].tolist()):
            if w < 0:
                self.free(r, -w)
            else:
                self.alloc(r, w)
            net[r] += w
            peak[r], low[r] = max(peak[r], net[r]), min(low[r], net[r])
        return net, peak, low

    def ledgers(self):
        out = {"clock": self.clock, "mem_current": self.mem_current,
               "mem_peak": self.mem_peak}
        for k in COMPUTE_KINDS:
            out[f"flops:{k}"] = self.flops[k]
            out[f"t_compute:{k}"] = self.t_compute[k]
        for p in PHASES:
            for name in ("words_sent", "words_recv", "msgs_sent",
                         "msgs_recv"):
                out[f"{name}:{p}"] = getattr(self, name)[p]
        return out

    @property
    def makespan(self):
        return float(self.clock.max())

    @property
    def critical_rank(self):
        return int(np.argmax(self.clock))

    def words_per_rank(self, phase=None):
        return sum(self.words_sent[p] + self.words_recv[p]
                   for p in (PHASES if phase is None else (phase,)))

    def msgs_per_rank(self, phase=None):
        return sum(self.msgs_sent[p] + self.msgs_recv[p]
                   for p in (PHASES if phase is None else (phase,)))


def computes(ranks, flops, kind: str, n_block_updates=0) -> EventStream:
    """One compute event of ``kind`` per entry of ``ranks`` / ``flops``."""
    ranks = np.asarray(ranks, dtype=np.int64).ravel()
    return EventStream(ranks, ranks, np.asarray(flops, float).ravel(),
                       np.full(ranks.size, COMPUTE_KINDS.index(kind), np.int8),
                       np.broadcast_to(np.asarray(n_block_updates),
                                       ranks.shape))


def bcast_stream(root: int, ranks, words: float) -> EventStream:
    """A binomial-tree broadcast of ``words`` from ``root`` over ``ranks``:
    its :func:`~repro.comm.collectives.tree_pattern` as messages."""
    from repro.comm.collectives import tree_pattern
    srcs, dsts, _receivers = tree_pattern(-1, root, ranks)
    return EventStream.pairs(srcs, dsts, np.full(len(srcs), float(words)))


def messages(ev, lo=0, hi=None) -> list:
    """``(src, dst)`` of every message of events ``[lo, hi)`` of ``ev``:
    what a spy wrapping ``Simulator.book`` sees."""
    m = ev.kind[lo:hi] == MSG
    return list(zip(ev.src[lo:hi][m].tolist(), ev.dst[lo:hi][m].tolist()))


def width1_options(opts=None):
    """``opts`` (default ``FactorOptions()``) walked at width 1: a
    checkpoint cadence past any plan's task count puts the resilience
    monitor on the run — the walk goes task by task — and never takes a
    checkpoint, so the ledger is the full-width run's."""
    import dataclasses

    from repro.lu2d import FactorOptions
    return dataclasses.replace(opts or FactorOptions(),
                               checkpoint_every=10**9)


#: :func:`repro.lu3d.factor_3d` bound to the merged-grid and the Cholesky
#: run, for the tests' driver tables.
MERGED = partial(factor_3d, merged=True)
CHOLESKY = partial(factor_3d, backend="cholesky")


def one_layer(sf, px: int, py: int):
    """``(tf, grid3)`` of the 2D baseline on a ``px x py`` grid: Algorithm 1
    at ``Pz = 1`` — one layer, no Ancestor-Reduction. Pass them to
    ``factor_3d`` / ``fuzz_3d``."""
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
