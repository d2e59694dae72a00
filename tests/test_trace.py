"""Tests for the event-trace module and its simulator integration."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import Trace
from repro.comm import (
    DragonflyTopology,
    Machine,
    ProcessGrid3D,
    Simulator,
    Torus3D,
    UniformTopology,
)
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state
from tests.conftest import CHOLESKY, MERGED, EventByEvent


def _traced_run(pz=2, px=2, py=2):
    A, g = grid2d_5pt(12)
    sf = symbolic_factorize(A, g, leaf_size=16)
    tf = greedy_partition(sf, pz)
    grid3 = ProcessGrid3D(px, py, pz)
    trace = Trace()
    sim = Simulator(grid3.size, Machine.edison_like(), trace=trace)
    factor_3d(sf, tf, grid3, sim, numeric=False)
    return trace, sim


class TestTraceBasics:
    def test_record_validation(self):
        t = Trace()
        with pytest.raises(ValueError):
            t.record(0, 2.0, 1.0, "schur", "fact")

    def test_zero_duration_zero_words_dropped(self):
        t = Trace()
        t.record(0, 1.0, 1.0, "schur", "fact")
        assert len(t.events) == 0
        t.record(0, 1.0, 1.0, "send", "fact", words=5)
        assert len(t.events) == 1

    def test_by_rank_and_busy_time(self):
        t = Trace()
        t.record(0, 0.0, 1.0, "schur", "fact")
        t.record(0, 1.0, 3.0, "panel", "fact")
        t.record(1, 0.0, 0.5, "diag", "fact")
        assert set(t.by_rank()) == {0, 1}
        assert t.busy_time(0) == pytest.approx(3.0)
        assert t.busy_time(0, kinds=("schur",)) == pytest.approx(1.0)

    def test_time_by_kind(self):
        t = Trace()
        t.record(0, 0.0, 1.0, "schur", "fact")
        t.record(1, 0.0, 2.0, "schur", "fact")
        assert t.time_by_kind()["schur"] == pytest.approx(3.0)


class TestSimulatorIntegration:
    def test_events_cover_compute_ledger(self):
        trace, sim = _traced_run()
        for kind in ("diag", "panel", "schur"):
            booked = sum(sim.t_compute[kind])
            traced = sum(ev.duration for ev in trace.events
                         if ev.kind == kind)
            assert traced == pytest.approx(booked)

    def test_events_are_per_rank_non_overlapping(self):
        """A rank's clock is sequential: its events must not overlap."""
        trace, sim = _traced_run()
        for rank, events in trace.by_rank().items():
            events = sorted(events, key=lambda ev: ev.start)
            for a, b in zip(events, events[1:]):
                assert a.end <= b.start + 1e-15

    def test_events_within_makespan(self):
        trace, sim = _traced_run()
        assert max(ev.end for ev in trace.events) <= sim.makespan + 1e-15

    def test_recv_wait_matches_comm_time_bound(self):
        """Total per-rank wait <= non-overlapped comm time accounting."""
        trace, sim = _traced_run()
        for rank in range(sim.nranks):
            wait = trace.busy_time(rank, kinds=("recv_wait",))
            send = trace.busy_time(rank, kinds=("send",))
            assert wait + send <= sim.comm_time(rank) + 1e-12

    def test_untraced_run_identical(self):
        """Tracing must not perturb the simulation."""
        _, sim_traced = _traced_run()
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=16)
        tf = greedy_partition(sf, 2)
        sim_plain = Simulator(8, Machine.edison_like())
        factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), sim_plain, numeric=False)
        assert np.allclose(sim_plain.clock, sim_traced.clock)

    def test_reduction_phase_traced(self):
        trace, _ = _traced_run(pz=4, px=1, py=2)
        red = [ev for ev in trace.events if ev.phase == "red"]
        assert red, "expected reduction-phase events"
        assert any(ev.kind == "send" for ev in red)
        assert any(ev.kind == "reduce_add" for ev in red)


class TestTraceDoesNotSelectTheWalk:
    """A traced run walks the plan at full width like an untraced one;
    putting it on the per-task walk (a resilience monitor that never
    checkpoints) changes only the append order of ``Trace.events`` (ranks
    interleave differently, each rank's own timeline does not)."""

    @staticmethod
    def run(sf, tf, numeric, full):
        from repro.verify.oracle import ledger_state
        from tests.conftest import width1_options
        trace = Trace()
        sim = Simulator(8, Machine.edison_like(), trace=trace)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), sim, numeric=numeric,
                        options=None if full else width1_options())
        return res, ledger_state(sim), trace

    @pytest.mark.parametrize("numeric", [False, True],
                             ids=["cost-only", "numeric"])
    @pytest.mark.parametrize("make", [lambda: grid2d_5pt(12),
                                      lambda: grid3d_7pt(6)],
                             ids=["planar", "non-planar"])
    def test_same_ledger_and_timelines_at_both_widths(self, make, numeric):
        A, g = make()
        sf = symbolic_factorize(A, g, leaf_size=16)
        tf = greedy_partition(sf, 2)
        wide, ledger_w, trace_w = self.run(sf, tf, numeric, True)
        unit, ledger_1, trace_1 = self.run(sf, tf, numeric, False)
        assert wide.resilience is None and unit.resilience is not None
        assert ledger_w == ledger_1
        assert trace_w.to_rows() == trace_1.to_rows()
        assert trace_w.by_rank() == trace_1.by_rank()

    def test_traced_plain_run_is_the_full_width_run(self):
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=16)
        sim = Simulator(8, Machine.edison_like(), trace=Trace())
        res = factor_3d(sf, greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2),
                        sim, numeric=True)
        assert res.resilience is None


def _spd_grid(n: int):
    """``grid2d_5pt(n)`` made symmetric positive definite."""
    A, g = grid2d_5pt(n)
    S = (A + A.T) * 0.5
    return (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr(), g


#: The golden-ledger zoo's drivers at Pz 1, 2 and 4.
ZOO = {
    "lu_pz1": (factor_3d, lambda: grid2d_5pt(12), 16, (2, 3, 1)),
    "lu_brick_pz2": (factor_3d, lambda: grid3d_7pt(6), 24, (1, 2, 2)),
    "lu_pz4": (factor_3d, lambda: grid2d_5pt(14), 16, (2, 2, 4)),
    "merged_pz2": (MERGED, lambda: grid2d_5pt(12), 16, (2, 2, 2)),
    "merged_pz4": (MERGED, lambda: grid2d_5pt(14), 16, (2, 2, 4)),
    "chol_pz1": (CHOLESKY, lambda: _spd_grid(12), 16, (2, 2, 1)),
    "chol_pz2": (CHOLESKY, lambda: _spd_grid(14), 16, (2, 2, 2)),
}

#: ``(trace?, topology)``: every tier of a dragonfly is crossed at these
#: rank counts, and the torus wraps.
OBSERVERS = {
    "trace": (True, None),
    "uniform": (False, UniformTopology()),
    "dragonfly": (False, DragonflyTopology(ranks_per_node=2,
                                           nodes_per_group=2)),
    "torus": (False, Torus3D(2, 3, 2)),
    "torus+trace": (True, Torus3D(2, 3, 2)),
}


class TestObservedRunIsTheProductionRun:
    """A trace or a topology rides ``Simulator.book``'s array path; the
    standalone per-event referee carrying the same trace and topology
    referees it: the same ledger and the same events, in the same order,
    float for float."""

    @pytest.mark.parametrize("compact", [False, True],
                             ids=["dense", "compact"])
    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    @pytest.mark.parametrize("case", sorted(ZOO))
    def test_golden_zoo(self, case, observer, compact):
        driver, matrix, leaf, shape = ZOO[case]
        traced, topology = OBSERVERS[observer]
        A, g = matrix()
        sf = symbolic_factorize(A, g, leaf_size=leaf)
        grid3 = ProcessGrid3D(*shape)
        tf = greedy_partition(sf, grid3.pz)
        bundle, sims = None, []
        for cls in (Simulator, EventByEvent):
            sim = cls(grid3.size, Machine.edison_like(),
                      trace=Trace() if traced else None, topology=topology)
            bundle = driver(sf, tf, grid3, sim, numeric=False, cached=bundle,
                            options=FactorOptions(compact_comm=compact)).bundle
            sims.append(sim)
        plain, ref = sims
        assert ledger_state(plain) == ledger_state(ref)
        if traced:
            assert plain.trace.events and \
                plain.trace.events == ref.trace.events
            assert plain.trace.rows == ref.trace.rows

    def test_a_replayed_slice_is_booked_again_when_traced(self):
        """Every traced booking emits its rows, even of a slice a plain
        simulator would replay."""
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=16)
        tf, grid3 = greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2)
        bundle, traces = None, []
        for _ in range(3):
            traces.append(Trace())
            sim = Simulator(8, Machine.edison_like(), trace=traces[-1])
            bundle = factor_3d(sf, tf, grid3, sim, numeric=False,
                               cached=bundle).bundle
        assert traces[0].rows and \
            traces[0].rows == traces[1].rows == traces[2].rows


class TestRendering:
    def test_gantt_shape(self):
        trace, sim = _traced_run()
        chart = trace.gantt(sim.nranks, width=50)
        lines = chart.splitlines()
        assert len(lines) == sim.nranks
        assert all(len(ln) == len(lines[0]) for ln in lines)
        body = "".join(lines)
        assert "S" in body  # Schur updates visible

    def test_gantt_empty(self):
        chart = Trace().gantt(3)
        assert len(chart.splitlines()) == 3

    def test_utilization(self):
        trace, sim = _traced_run()
        util = trace.utilization(sim.nranks, horizon=sim.makespan)
        assert util.shape == (sim.nranks,)
        assert (util >= 0).all() and (util <= 1 + 1e-12).all()
        assert util.max() > 0

    def test_to_rows_sorted(self):
        trace, _ = _traced_run()
        rows = trace.to_rows()
        starts = [r[1] for r in rows]
        assert starts == sorted(starts)
