"""The referee of ``Simulator.book``'s replayed slices.

A plain simulator booking a slice whose exit state was stored, from the
same entry state, copies that state instead of booking it again; a slice
stores on its third booking (docs/simulator.md § "Replayed slices").
Every test here fails if a replay is allowed to differ from a booking:
ledgers are compared as JSON text, so
values, dtypes *and* ``event_counts`` key order must agree; and where a
run must replay, it is checked that no reduction ran (``Volume.add``
counted).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import SparseLU3D
from repro.analysis.trace import Trace
from repro.comm import (
    Machine,
    ProcessGrid3D,
    Simulator,
    UniformTopology,
)
from repro.comm.stream import MSG, EventStream
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.resilience import FaultInjector, FaultPlan
from repro.service import FactorizationService
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state
from tests.conftest import CHOLESKY, MERGED


def state(sim) -> str:
    """``ledger_state`` as text: equal only if bit for bit and in order."""
    return json.dumps(ledger_state(sim))


@pytest.fixture
def adds(monkeypatch):
    """Counts the reductions plain bookings run (a replay runs none)."""
    calls = [0]
    add = Simulator.add

    def counted(self, *args, **kw):
        calls[0] += 1
        return add(self, *args, **kw)
    monkeypatch.setattr(Simulator, "add", counted)
    return calls


def stream() -> EventStream:
    """Messages, computes of three kinds (first ``panel``, so key order
    is not the kinds' order) and mixed-sign memory charges on 4 ranks."""
    return EventStream(
        np.array([1, 0, 2, 3, 1, 2], dtype=np.int64),
        np.array([1, 2, 2, 0, 1, 3], dtype=np.int64),
        np.array([1e5, 30.0, 2e6, 12.0, 5e4, 7.5]),
        np.array([1, MSG, 2, MSG, 0, MSG], dtype=np.int8),
        np.array([0, 0, 3, 0, 0, 0]),
        np.array([0, 2, 0, 1, 2], dtype=np.int64),
        np.array([4.0, 6.0, -3.0, 2.5, -6.0]))


def _spd(A):
    S = (A + A.T) * 0.5
    return (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()


#: The golden-ledger zoo's drivers and shapes, plus Pz = 16.
ZOO = {
    "lu2d": (factor_3d, lambda: grid2d_5pt(12), 16, (2, 3, 1)),
    "lu3d_pz4": (factor_3d, lambda: grid2d_5pt(14), 16, (2, 2, 4)),
    "lu3d_brick_pz2": (factor_3d, lambda: grid3d_7pt(6), 24, (1, 2, 2)),
    "lu3d_pz16": (factor_3d, lambda: grid2d_5pt(32), 8, (1, 2, 16)),
    "merged_pz4": (MERGED, lambda: grid2d_5pt(14), 16, (2, 2, 4)),
    "chol_pz2": (CHOLESKY, lambda: (lambda A, g: (_spd(A), g))(
        *grid2d_5pt(14)), 16, (2, 2, 2)),
}


class TestReplayEqualsBooking:
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("case", sorted(ZOO))
    def test_golden_zoo(self, case, numeric, compact, adds):
        """Four runs of one plan bundle from fresh simulators: the first
        two book, the third books and stores, the fourth only replays —
        and all four ledgers are the same text."""
        driver, matrix, leaf, shape = ZOO[case]
        A, g = matrix()
        sf = symbolic_factorize(A, g, leaf_size=leaf)
        grid3 = ProcessGrid3D(*shape)
        tf = greedy_partition(sf, grid3.pz)
        opts = FactorOptions(compact_comm=compact)
        got, bundle = [], None
        for _ in range(4):
            sim = Simulator(grid3.size, Machine.edison_like())
            adds[0] = 0
            bundle = driver(sf, tf, grid3, sim, numeric=numeric,
                            options=opts, cached=bundle).bundle
            got.append(state(sim))
        assert adds[0] == 0, "the fourth run booked instead of replaying"
        assert got[0] == got[1] == got[2] == got[3]

    def test_refactorize_series_and_solves(self, adds):
        """20 same-pattern steps with new values and two right-hand
        sides: each step's factor and solve ledgers equal a cold solver's
        on the same matrix; from the third step on the factorization, and
        from the fourth the solve, books nothing."""
        A, g = grid2d_5pt(16)
        rng = np.random.default_rng(3)
        B = rng.standard_normal((A.shape[0], 2))
        kw = dict(geometry=g, px=2, py=2, pz=4, leaf_size=16)
        warm = SparseLU3D(A, **kw).factorize()
        for step in range(20):
            M = A.copy()
            M.data = M.data * (1 + 0.1 * rng.random(M.nnz))
            cold = SparseLU3D(M, **kw).factorize()
            adds[0] = 0
            warm.refactorize(M)
            assert step < 2 or adds[0] == 0
            assert state(warm.sim) == state(cold.sim)
            x = warm.solve(B)
            assert step < 3 or adds[0] == 0
            assert np.array_equal(x, cold.solve(B))
            assert state(warm.sim) == state(cold.sim)

    def test_a_solve_plan_keeps_one_stream_per_nrhs(self):
        """So the sweeps of every solver on one bundle replay each other's."""
        A, g = grid2d_5pt(8)
        (plan, *_) = SparseLU3D(A, geometry=g, pz=2).factorize().solve_plans()
        assert plan.stream(3) is plan.stream(3) is not plan.stream(2)

    def test_one_ulp_misses_and_books(self, adds):
        ev = stream()
        for _ in range(3):
            Simulator(4).book(ev)
        sim, ref = Simulator(4), Simulator(4)
        for s in (sim, ref):
            s.clock[2] = np.nextafter(0.0, 1.0)
        adds[0] = 0
        sim.book(ev)
        ref.book(stream())              # a fresh stream: a plain booking
        assert adds[0] == 2
        assert state(sim) == state(ref)


class TestWhenItApplies:
    @pytest.mark.parametrize("observed", ["trace", "topology", "faults"])
    def test_an_observed_simulator_never_replays(self, observed, adds):
        """A trace, a topology or a fault injector books on the array
        path, and none reads or writes ``ev.memo``."""
        ev = stream()
        for _ in range(3):
            Simulator(4).book(ev)
        memo = dict(ev.memo)

        def make():
            if observed == "faults":
                sim = Simulator(4)
                sim.attach_faults(FaultInjector(FaultPlan(), sim.machine))
                return sim
            if observed == "trace":
                return Simulator(4, trace=Trace())
            return Simulator(4, topology=UniformTopology())
        for booked in (ev, fresh := stream()):
            adds[0] = 0
            make().book(booked)
            assert adds[0] == 1
        assert ev.memo == memo and fresh.memo == {}

    def test_a_slice_stores_on_its_third_booking(self, adds, monkeypatch):
        """The first two bookings of a slice take no ledger image and
        store nothing; the third stores; the fourth and fifth replay."""
        import repro.comm.simulator as simulator
        images, stores = [0], [0]
        ledgers, counts = Simulator.ledgers, simulator.kind_counts

        def imaged(self):
            images[0] += 1
            return ledgers(self)

        def stored(*args):
            stores[0] += 1
            return counts(*args)
        monkeypatch.setattr(Simulator, "ledgers", imaged)
        monkeypatch.setattr(simulator, "kind_counts", stored)
        ev, got, sims = stream(), [], [Simulator(4) for _ in range(5)]
        for sim in sims:
            sim.book(ev)
            got.append((images[0], stores[0], adds[0]))
        assert got == [(0, 0, 1), (0, 0, 2), (1, 1, 3), (2, 1, 3),
                       (3, 1, 3)]
        assert len(set(map(state, sims))) == 1

    def test_one_booking_stores_nothing_and_a_key_holds_one_entry(
            self, adds):
        ev = stream()
        Simulator(4).book(ev)
        Simulator(4).book(ev, 0, 3, 0, 2)
        assert list(ev.memo.values()) == [1, 1]     # booking counts
        other, entry = Simulator(4), Simulator(4)
        for sim in (other, entry):
            sim.clock[:] = 1.0
        # The third booking stores; each state stores over the last.
        for sim in (Simulator(4), Simulator(4), other):
            sim.book(ev)
        (key,) = [k for k, v in ev.memo.items() if not isinstance(v, int)]
        assert ev.memo[key][0] == b"".join(
            a.tobytes() for a in entry.ledgers().values())
        adds[0] = 0
        fresh = Simulator(4)
        booked = fresh.book(ev)         # the stored state is ``other``'s
        assert adds[0] == 1
        adds[0] = 0
        again = Simulator(4)
        replayed = again.book(ev)
        assert adds[0] == 0 and state(again) == state(fresh)
        assert all(np.array_equal(a, b) and not b.flags.writeable
                   for a, b in zip(booked, replayed))

    @pytest.mark.parametrize("change", ["phase", "machine"])
    def test_phase_and_rates_are_in_the_key(self, change, adds):
        ev = stream()
        for _ in range(3):
            Simulator(4).book(ev)
        machine = Machine.zero_comm() if change == "machine" else None
        sim, ref = Simulator(4, machine), Simulator(4, machine)
        sim.phase = ref.phase = "red" if change == "phase" else "fact"
        adds[0] = 0
        sim.book(ev)
        ref.book(stream())
        assert adds[0] == 2 and state(sim) == state(ref)

    def test_two_service_clients_race_on_one_bundle(self):
        """Two client threads, 8 jobs each on one pattern (so their
        bookings replay each other's stored slices): every job's ledger
        equals a cold solver's on its matrix."""
        A, g = grid2d_5pt(16)
        n = A.shape[0]
        kw = dict(geometry=g, px=2, py=2, pz=2, leaf_size=16)
        got, errors = {}, []
        with FactorizationService(max_workers=2, **kw) as svc:
            def client(c):
                try:
                    for r in range(8):
                        M = A.copy()
                        M.data = M.data * (1 + 0.05 * (c + 1) * (r + 1)
                                           / M.nnz * np.arange(M.nnz))
                        b = np.full((n, 2), 1.0 + c)
                        job = svc.submit(M, b).result()
                        got[c, r] = M, b, state(job.solver.sim)
                except Exception as exc:    # surfaced below
                    errors.append(exc)
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors and len(got) == 16
        for M, b, led in got.values():
            cold = SparseLU3D(M, **kw).factorize()
            cold.solve(b)
            assert led == state(cold.sim)
