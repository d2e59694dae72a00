"""Tests for the simulated runtime: machine model, simulator, grids, collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import Trace
from repro.comm import (
    CommError,
    DragonflyTopology,
    Machine,
    ProcessGrid2D,
    ProcessGrid3D,
    Simulator,
    Torus3D,
    UniformTopology,
    near_square_grid,
)
from repro.comm.events import COMPUTE_KINDS
from repro.comm.stream import MSG, EventStream, Volume, mem_profile
from repro.resilience import Fault, FaultInjector, FaultPlan
from repro.verify import ledger_state
from tests.conftest import EventByEvent, bcast_stream, computes


def compute(sim, rank, flops, kind, n_block_updates=0):
    sim.book(computes([rank], [flops], kind, n_block_updates))


def message(sim, src, dst, words):
    sim.book(EventStream.pairs([src], [dst], [words]))


def charges(sim, rank, *words):
    sim.book(EventStream(*np.zeros((4, 0), dtype=np.int64),
                         mem_rank=np.full(len(words), rank),
                         mem_words=np.array(words, dtype=float)))


class TestMachine:
    def test_defaults_positive(self):
        m = Machine.edison_like()
        assert m.alpha > 0 and m.beta > 0 and m.gamma_gemm > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Machine(alpha=-1.0)

    def test_zero_variants(self):
        assert Machine.zero_compute().gamma_gemm == 0.0
        assert Machine.zero_comm().alpha == 0.0


class TestSimulatorBasics:
    def test_compute_advances_clock(self):
        sim = Simulator(2)
        compute(sim, 0, 1e6, "schur")
        assert sim.clock[0] == pytest.approx(1e6 * sim.machine.gamma_gemm)
        assert sim.clock[1] == 0.0
        assert sim.flops["schur"][0] == 1e6

    def test_panel_kernel_slower_than_gemm(self):
        sim = Simulator(2)
        compute(sim, 0, 1e6, "schur")
        compute(sim, 1, 1e6, "panel")
        assert sim.clock[1] > sim.clock[0]

    def test_gemm_overhead_charged(self):
        sim = Simulator(1)
        compute(sim, 0, 0.0, "schur", n_block_updates=3)
        assert sim.clock[0] == pytest.approx(3 * sim.machine.gemm_overhead)

    def test_unknown_kind_rejected(self):
        sim = Simulator(1)
        for code in (len(COMPUTE_KINDS), MSG - 1):
            ev = computes([0], [1.0], "schur")
            ev.kind[:] = code
            with pytest.raises(CommError, match="kind"):
                sim.book(ev)
        assert not sim.clock.any() and not sim.event_counts

    def test_rank_range_checked(self):
        sim = Simulator(2)
        with pytest.raises(CommError, match="outside"):
            compute(sim, 5, 1.0, "schur")

    def test_negative_flops_rejected(self):
        sim = Simulator(1)
        with pytest.raises(CommError):
            compute(sim, 0, -1.0, "schur")


class TestPointToPoint:
    def test_send_recv_volume_and_time(self):
        sim = Simulator(2)
        message(sim, 0, 1, 1000)
        m = sim.machine
        assert sim.clock[0] == pytest.approx(m.alpha + m.beta * 1000)
        assert sim.clock[1] == pytest.approx(sim.clock[0])
        assert sim.words_sent["fact"][0] == 1000
        assert sim.words_recv["fact"][1] == 1000
        assert sim.msgs_sent["fact"][0] == 1

    def test_self_message_free(self):
        sim = Simulator(1)
        message(sim, 0, 0, 100)
        assert sim.clock[0] == 0.0
        assert sim.total_words_sent() == 0.0

    def test_fifo_ordering(self):
        """Two messages on one link arrive in the order they were sent."""
        sim = Simulator(2, trace=Trace())
        sim.book(EventStream.pairs([0, 0], [1, 1], [10.0, 20.0]))
        sends = [r for r in sim.trace.rows if r[3] == "send"]
        waits = [r for r in sim.trace.rows if r[3] == "recv_wait"]
        assert [r[5] for r in sends] == [r[5] for r in waits] == [10, 20]
        assert [r[2] for r in waits] == [r[2] for r in sends]

    def test_overlap_no_wait_when_busy(self):
        """A receiver busy past the arrival time pays no wait (lookahead)."""
        sim = Simulator(2)
        compute(sim, 1, 1e9, "schur")  # receiver busy long past arrival
        busy_until = sim.clock[1]
        message(sim, 0, 1, 1000)
        assert busy_until > sim.clock[0]
        assert sim.clock[1] == busy_until  # no added wait

    def test_idle_receiver_waits(self):
        sim = Simulator(2)
        compute(sim, 0, 1e9, "schur")  # sender is late
        message(sim, 0, 1, 10)
        assert sim.clock[1] == pytest.approx(sim.clock[0])
        assert sim.comm_time(1) == pytest.approx(sim.clock[1])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 10000)), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_conservation_property(self, msgs):
        """Σ sent == Σ recv for any delivered message pattern."""
        sim = Simulator(6)
        sim.book(EventStream.pairs(*zip(*msgs)))
        assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
        assert sim.event_counts["send"] == sim.event_counts["recv"]


class TestMemoryLedger:
    def test_peak_tracks_watermark(self):
        sim = Simulator(1)
        charges(sim, 0, 100, 50, -120, 10)
        assert sim.mem_peak[0] == 150
        assert sim.mem_current[0] == pytest.approx(40)

    def test_over_free_detected(self):
        sim = Simulator(1)
        charges(sim, 0, 10)
        with pytest.raises(CommError, match="freed more"):
            charges(sim, 0, -20)


#: Half-integer words (dense r*c, compact min(r*c, 1.5*nnz)); any flops.
_WORDS = st.integers(0, 4000).map(lambda n: n / 2)
_FLOPS = st.floats(0, 1e7, allow_nan=False) | st.just(2 / 3 * 13 ** 3)
_EVENT = st.one_of(
    st.tuples(st.just(MSG), st.integers(0, 4), st.integers(0, 4), _WORDS,
              st.just(0)),
    st.tuples(st.integers(0, len(COMPUTE_KINDS) - 1), st.integers(0, 4),
              st.just(None), _FLOPS, st.integers(0, 2)))
_CHARGE = st.tuples(st.integers(0, 4), _WORDS, st.booleans())
_RANK = st.none() | st.integers(0, 4)
_AT = st.none() | st.sampled_from([0.0, 1e-6, 1e-3])
_FAULT = st.one_of(
    st.builds(Fault, st.just("slow"), rank=_RANK, at_time=_AT,
              slow_factor=st.sampled_from([1.0, 1.5, 4.0])),
    st.builds(Fault, st.just("drop"), src=_RANK, dst=_RANK, at_time=_AT,
              n_messages=st.integers(1, 5)),
    st.builds(Fault, st.just("delay"), src=_RANK, dst=_RANK, at_time=_AT,
              delay=st.sampled_from([0.0, 1e-5, 0.25]),
              n_messages=st.integers(1, 5)))


def _stream(events, charges) -> EventStream:
    events = [(k, s, s if d is None else d, v, u)
              for k, s, d, v, u in events if k != MSG or s != d]
    kind, src, dst, val, upd = (list(c) for c in zip(*events)) \
        if events else ([], [], [], [], [])
    level, ranks, words = [0.0] * 5, [], []
    for r, w, free in charges:          # frees never overdraw a rank
        w = -min(w, level[r]) if free else w
        level[r] += w
        ranks.append(r)
        words.append(w)
    return EventStream(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
        np.array(val, dtype=float), np.array(kind, dtype=np.int8),
        np.array(upd, dtype=np.int64), np.array(ranks, dtype=np.int64),
        np.array(words, dtype=float))


class TestStreamBooking:
    """``Simulator.book``: the reduction equals the per-event calls."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(_EVENT, max_size=40), st.lists(_CHARGE, max_size=30),
           st.lists(st.floats(0, 1), max_size=4),
           st.sampled_from(["fact", "red", "rec"]))
    def test_reduction_equals_the_event_loop(self, events, charges, cuts,
                                             phase):
        """Whole stream or cut into slices anywhere: ``ledger_state`` of a
        plain simulator == the same stream issued event by event, and the
        clock-free ``Volume`` holds the same volume ledgers."""
        ev = _stream(events, charges)
        n, m = ev.src.size, ev.mem_rank.size
        whole, sliced, loop = Simulator(5), Simulator(5), EventByEvent(5)
        vol = Volume(5)
        for led in (whole, sliced, loop, vol):
            led.phase = phase
        whole.book(ev)
        loop.book(ev)
        vol.add(ev)
        assert len(loop.calls) == np.count_nonzero(ev.kind != MSG) \
            + 2 * np.count_nonzero(ev.kind == MSG) + m
        pts = sorted(cuts)
        for a, b in zip([0.0] + pts, pts + [1.0]):
            sliced.book(ev, int(a * n), int(b * n), int(a * m), int(b * m))
        assert ledger_state(whole) == ledger_state(loop)
        assert ledger_state(sliced) == ledger_state(loop)
        # ... and each kind is counted first where the loop counts it first.
        assert list(whole.event_counts) == list(loop.event_counts) \
            == list(sliced.event_counts)
        for name in ("flops", "words_sent", "words_recv", "msgs_sent",
                     "msgs_recv"):
            for key, arr in getattr(vol, name).items():
                assert arr.tolist() == getattr(loop, name)[key].tolist()
        assert vol.mem_peak.tolist() == loop.mem_peak.tolist()
        assert vol.mem_current.tolist() == loop.mem_current.tolist()
        assert dict(vol.event_counts) == dict(loop.event_counts)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_EVENT, max_size=40), st.lists(_CHARGE, max_size=30),
           st.lists(st.floats(0, 1), max_size=4),
           st.sampled_from([None, UniformTopology(),
                            DragonflyTopology(ranks_per_node=2,
                                              nodes_per_group=2),
                            Torus3D(2, 1, 2)]))
    def test_an_observed_booking_is_the_event_loop(self, events, charges,
                                                   cuts, topology):
        """With a trace and a topology attached, slices booked anywhere
        hold the per-event calls' ledger, trace rows and events."""
        ev = _stream(events, charges)
        n, m = ev.src.size, ev.mem_rank.size
        sliced = Simulator(5, trace=Trace(), topology=topology)
        loop = EventByEvent(5, trace=Trace(), topology=topology)
        loop.book(ev)
        pts = sorted(cuts)
        for a, b in zip([0.0] + pts, pts + [1.0]):
            sliced.book(ev, int(a * n), int(b * n), int(a * m), int(b * m))
        assert ledger_state(sliced) == ledger_state(loop)
        assert sliced.trace.rows == loop.trace.rows
        assert sliced.trace.events == loop.trace.events
        assert ev.memo == {}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_EVENT, max_size=40), st.lists(_CHARGE, max_size=20),
           st.lists(st.floats(0, 1), max_size=4),
           st.lists(_FAULT, min_size=1, max_size=4), st.booleans(),
           st.sampled_from([None, Torus3D(2, 1, 2)]))
    def test_a_faulted_booking_is_the_event_loop(self, events, charges,
                                                 cuts, faults, traced,
                                                 topology):
        """Under a fault injector — slow, drop and delay, any mix — slices
        booked anywhere hold the per-event calls' ledger and trace rows,
        the injectors fire the same faults, and no memo is touched."""
        ev = _stream(events, charges)
        n, m = ev.src.size, ev.mem_rank.size
        sliced = Simulator(5, trace=Trace() if traced else None,
                           topology=topology)
        loop = EventByEvent(5, trace=Trace() if traced else None,
                            topology=topology)
        for sim in (sliced, loop):
            sim.attach_faults(FaultInjector(FaultPlan(tuple(faults)),
                                            sim.machine))
        loop.book(ev)
        pts = sorted(cuts)
        for a, b in zip([0.0] + pts, pts + [1.0]):
            sliced.book(ev, int(a * n), int(b * n), int(a * m), int(b * m))
        assert ledger_state(sliced) == ledger_state(loop)
        assert list(sliced.event_counts) == list(loop.event_counts)
        if traced:
            assert sliced.trace.rows == loop.trace.rows
        assert sliced.faults.fired == loop.faults.fired
        assert sliced.faults.n_fired_faults() == loop.faults.n_fired_faults()
        assert ev.memo == {}

    @pytest.mark.parametrize("cls", [Simulator, EventByEvent])
    def test_faults_read_the_clock_an_event_reaches(self, cls):
        """Armed at 1 µs: a slow rank scales a compute event by its start
        clock, a drop matches at the end of the first transmission
        (1.5 µs), a delay at the end of the retransmissions (153 µs)."""
        m = Machine.edison_like()
        plan = FaultPlan((Fault("slow", at_time=1e-6, slow_factor=2.0),
                          Fault("drop", at_time=1e-6),
                          Fault("delay", at_time=1e-4, delay=1.0)))
        sim = cls(2, m)
        sim.attach_faults(FaultInjector(plan, m))
        sim.book(computes([1, 1], [4e3, 4e3], "diag"))
        sim.book(EventStream.pairs([0], [1], [0.0]))
        dt = 4e3 * m.gamma_panel           # 1 µs: the second is slowed
        assert sim.t_compute["diag"][1] == dt + dt * 2.0
        send = m.alpha + (sim.faults.timeout + m.alpha)
        assert sim.clock[0] == send and sim.msgs_sent["fact"][0] == 2
        assert sim.clock[1] == send + 1.0

    def test_continues_a_nonzero_ledger_exactly(self):
        """Non-integer flops onto a non-zero ledger: the reduction adds in
        stream order onto what is there (``a + (b + c)`` would differ)."""
        f = [2 / 3 * n ** 3 for n in (7, 11, 13, 17, 19)]
        a, b = Simulator(1), Simulator(1)
        for x in f:
            compute(a, 0, x, "diag")
        compute(b, 0, f[0], "diag")
        b.book(computes([0] * 4, f[1:], "diag"))
        assert ledger_state(a) == ledger_state(b)

    def test_bad_streams_are_refused_before_anything_is_booked(self):
        for cls in (Simulator, EventByEvent):
            sim = cls(3)
            for bad in (EventStream.pairs([0, 1], [1, 3], [1.0, 1.0]),
                        EventStream.pairs([0, -1], [1, 2], [1.0, 1.0]),
                        EventStream.pairs([0, 1], [1, 2], [1.0, -1.0]),
                        computes([0, 1], [1.0, -2.0], "schur")):
                with pytest.raises(CommError):
                    sim.book(bad)
            assert not sim.clock.any() and not sim.event_counts
        with pytest.raises(CommError, match="same length"):
            EventStream.pairs([0, 1], [1], [1.0, 2.0])
        sim = Simulator(2)
        over = EventStream(*np.zeros((4, 0), dtype=np.int64),
                           mem_rank=np.array([1, 1]),
                           mem_words=np.array([2.0, -3.0]))
        with pytest.raises(CommError, match="freed more"):
            sim.book(over)
        assert sim.mem_current.tolist() == sim.mem_peak.tolist() == [0, 0]

    def test_pairs_drop_self_messages_and_keep_their_reduce(self):
        ev = EventStream.pairs([0, 1, 2], [1, 1, 0], [4.0, 6.0, 8.0],
                               "reduce_add", reduce_where=[True, True, False])
        red = COMPUTE_KINDS.index("reduce_add")
        assert ev.kind.tolist() == [MSG, red, red, MSG]
        assert ev.src.tolist() == [0, 1, 1, 2]
        assert ev.dst.tolist() == [1, 1, 1, 0]
        assert ev.val.tolist() == [4.0, 4.0, 6.0, 8.0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_CHARGE, max_size=40))
    def test_mem_profile_is_the_running_level(self, charges):
        ev = _stream([], charges)
        level, peak, low = [0.0] * 5, [0.0] * 5, [0.0] * 5
        for r, w in zip(ev.mem_rank.tolist(), ev.mem_words.tolist()):
            level[r] += w
            peak[r], low[r] = max(peak[r], level[r]), min(low[r], level[r])
        if not charges:
            return
        net, top, bottom = mem_profile(ev.mem_rank, ev.mem_words, 5)
        assert (net.tolist(), top.tolist(), bottom.tolist()) == \
            (level, peak, low)


class TestBarrierAndPhases:
    def test_phase_attribution(self):
        sim = Simulator(2)
        message(sim, 0, 1, 100)
        sim.set_phase("red")
        message(sim, 1, 0, 40)
        assert sim.total_words_sent("fact") == 100
        assert sim.total_words_sent("red") == 40
        assert np.array_equal(sim.words_per_rank("red"), [40, 40])

    def test_unknown_phase_rejected(self):
        with pytest.raises(CommError):
            Simulator(1).set_phase("warmup")


class TestCollectives:
    """A broadcast is its ``tree_pattern`` booked as messages."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_bcast_everyone_receives_once(self, p):
        sim = Simulator(p)
        sim.book(bcast_stream(0, list(range(p)), 100))
        # Every non-root receives the payload exactly once.
        assert np.array_equal(sim.words_recv["fact"][1:], [100] * (p - 1))
        assert sim.total_words_sent() == 100 * (p - 1)

    def test_bcast_log_depth(self):
        """Tree broadcast completes in ~log2(p) message times, not p."""
        p = 16
        sim = Simulator(p)
        sim.book(bcast_stream(0, list(range(p)), 0))  # latency-only
        assert sim.makespan == pytest.approx(4 * sim.machine.alpha)

    def test_bcast_root_relabeling(self):
        sim = Simulator(4)
        sim.book(bcast_stream(2, [0, 1, 2, 3], 10))
        assert sim.words_recv["fact"][2] == 0
        assert sim.words_sent["fact"][2] > 0

    def test_reduce_pairwise_books_addition(self):
        """One Ancestor-Reduction hop: a message, then the addition on the
        receiver (one flop per word)."""
        sim = Simulator(2)
        sim.book(EventStream.pairs([1], [0], [500], "reduce_add"))
        assert sim.words_sent["fact"][1] == 500
        assert sim.flops["reduce_add"][0] == 500


class TestGrids:
    def test_near_square(self):
        assert near_square_grid(96) == (8, 12)
        assert near_square_grid(24) == (4, 6)
        assert near_square_grid(7) == (1, 7)
        assert near_square_grid(16) == (4, 4)

    def test_grid2d_rank_coords_roundtrip(self):
        g = ProcessGrid2D(3, 4, base=10)
        for pi in range(3):
            for pj in range(4):
                assert g.coords(g.rank(pi, pj)) == (pi, pj)

    def test_grid2d_block_cyclic_owner(self):
        g = ProcessGrid2D(2, 3)
        assert g.owner(0, 0) == g.rank(0, 0)
        assert g.owner(2, 3) == g.rank(0, 0)
        assert g.owner(5, 4) == g.rank(1, 1)

    def test_grid2d_row_col_ranks(self):
        g = ProcessGrid2D(2, 3)
        assert g.row_ranks(4) == [g.rank(0, j) for j in range(3)]
        assert g.col_ranks(5) == [g.rank(i, 2) for i in range(2)]

    def test_grid2d_bounds(self):
        g = ProcessGrid2D(2, 2)
        with pytest.raises(ValueError):
            g.rank(2, 0)
        with pytest.raises(ValueError):
            g.coords(99)

    def test_grid3d_layers_disjoint_cover(self):
        g3 = ProcessGrid3D(2, 3, 4)
        ranks = []
        for z in range(4):
            ranks.extend(g3.layer(z).all_ranks())
        assert sorted(ranks) == list(range(24))

    def test_grid3d_zmate(self):
        g3 = ProcessGrid3D(2, 3, 4)
        r = g3.layer(2).rank(1, 2)
        mate = g3.zmate(r, 0)
        assert g3.layer(0).coords(mate) == (1, 2)

    def test_grid3d_pz_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ProcessGrid3D(2, 2, 3)

    def test_from_total(self):
        g3 = ProcessGrid3D.from_total(96, 4)
        assert g3.pxy == 24 and g3.size == 96
        with pytest.raises(ValueError, match="divisible"):
            ProcessGrid3D.from_total(10, 4)
