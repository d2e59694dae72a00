"""Deterministic virtual-rank simulator with per-rank ledgers.

Execution model
---------------
A single Python driver executes the factorization schedule and narrates it
to the simulator as *events on virtual ranks*: ``compute``, ``send``,
``recv``, ``alloc``/``free``. Each rank has a clock; blocking semantics are:

* ``compute(r, flops, kind)`` advances ``r``'s clock by the modeled kernel
  time and books the flops under ``kind``;
* ``send(src, dst, words)`` advances ``src`` by ``alpha + beta*words`` (the
  NIC is busy for the transfer) and enqueues the message with its arrival
  time;
* ``recv(dst, src)`` pops the matching message FIFO and advances ``dst`` to
  ``max(clock[dst], arrival)`` — if the message arrived while ``dst`` was
  computing, the wait is zero. This is how the lookahead pipeline's
  communication/computation overlap manifests: drivers that post sends
  early hide them behind later GEMMs.

Hot drivers can book whole panels of compute events in one call with
:meth:`Simulator.compute_batch`; it is bit-for-bit equivalent to the
per-event loop (``np.add.at`` applies the increments sequentially, in
order, even for repeated ranks) while paying the Python call overhead
once per panel instead of once per block pair.

Everything not booked as compute is, by definition, non-overlapped
communication/synchronization — the paper's ``T_comm``.

The driver must issue events in a causally valid order (a ``recv`` only
after its ``send``); :class:`CommError` flags violations. Because the
collectives are built from these point-to-point events, volume conservation
(Σ words sent = Σ words received) holds mechanically, and tests assert it.

Fork/merge
----------
Algorithm 1's per-level 2D factorizations touch *disjoint* rank sets, so
a parallel host can execute them in separate OS processes against
*forked* sub-simulators (:meth:`Simulator.fork`) and splice the resulting
:class:`LedgerDelta` objects back with :meth:`Simulator.merge_delta`.
Because each forked rank starts from its exact parent-side ledger state
and undergoes the exact event sequence the serial schedule would have
issued, the merged per-rank arrays are *copies* of what the serial run
produces — bit-for-bit, with no floating-point reassociation anywhere.
The only cross-rank state, ``event_counts``, is integer-summed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# COMPUTE_KINDS / PHASES are canonically defined in repro.comm.events and
# re-exported here: the ledger layout is keyed by them and most callers
# import them alongside the Simulator.
from repro.comm.events import COMPUTE_KINDS, PHASES
from repro.comm.machine import Machine
from repro.utils import check_positive_int

if TYPE_CHECKING:  # avoid the comm <-> analysis import cycle at runtime
    from repro.analysis.trace import Trace

__all__ = ["Simulator", "CommError", "LedgerDelta"]

#: List-input compute batches below this size book through a scalar loop:
#: ``np.asarray`` + the validation reductions + ``np.add.at`` cost more
#: than per-element numpy indexing until batches reach a few hundred
#: events. Both paths apply identical additions in identical order.
_SCALAR_BATCH_MAX = 256


class CommError(RuntimeError):
    """A causality or protocol violation in the simulated schedule."""


@dataclass
class LedgerDelta:
    """Compact ledger state of a forked sub-simulator, ready to merge.

    Per-rank arrays hold the *absolute* final values for ``ranks`` (their
    rank sets are disjoint across concurrent forks, so merging copies
    rather than sums and stays bit-exact); ``event_counts`` holds integer
    increments accumulated since the fork.
    """

    ranks: np.ndarray
    clock: np.ndarray
    flops: dict[str, np.ndarray]
    t_compute: dict[str, np.ndarray]
    words_sent: dict[str, np.ndarray]
    words_recv: dict[str, np.ndarray]
    msgs_sent: dict[str, np.ndarray]
    msgs_recv: dict[str, np.ndarray]
    mem_current: np.ndarray
    mem_peak: np.ndarray
    event_counts: dict[str, int] = field(default_factory=dict)


class Simulator:
    """Virtual ranks, clocks, message queues and cost ledgers."""

    def __init__(self, nranks: int, machine: Machine | None = None,
                 trace: "Trace | None" = None, topology=None):
        self.nranks = check_positive_int(nranks, "nranks")
        self.machine = machine or Machine.edison_like()
        self.trace = trace
        #: Optional network model (see repro.comm.topology): scales the
        #: per-message alpha and beta by (src, dst)-dependent factors.
        self.topology = topology
        self.clock = np.zeros(self.nranks)

        self.flops = {k: np.zeros(self.nranks) for k in COMPUTE_KINDS}
        self.t_compute = {k: np.zeros(self.nranks) for k in COMPUTE_KINDS}
        self.words_sent = {p: np.zeros(self.nranks) for p in PHASES}
        self.words_recv = {p: np.zeros(self.nranks) for p in PHASES}
        self.msgs_sent = {p: np.zeros(self.nranks, dtype=np.int64) for p in PHASES}
        self.msgs_recv = {p: np.zeros(self.nranks, dtype=np.int64) for p in PHASES}

        self.mem_current = np.zeros(self.nranks)
        self.mem_peak = np.zeros(self.nranks)

        self.phase: str = "fact"
        self._queues: dict[tuple[int, int], deque] = defaultdict(deque)

        #: Per-kind event counts (compute kinds plus 'send', 'recv',
        #: 'offload') — perf counters for the batched-kernel reports.
        self.event_counts: dict[str, int] = defaultdict(int)

        #: Optional fault injector (repro.resilience.FaultInjector):
        #: perturbs compute durations and message arrivals
        #: deterministically. ``None`` (the default) leaves every fast
        #: path untouched — ledgers stay bit-identical to seed.
        self.faults = None

        # Optional per-rank accelerators (attach_accelerator).
        self.accelerator = None
        self.accel_clock: np.ndarray | None = None
        self.accel_flops: np.ndarray | None = None
        self.offloaded_updates: np.ndarray | None = None

    # -- validation helpers --------------------------------------------------

    def _check_rank(self, r: int) -> int:
        if not 0 <= r < self.nranks:
            raise CommError(f"rank {r} out of range [0, {self.nranks})")
        return int(r)

    def _check_batch(self, ranks, values, what: str):
        """Validate one batch's parallel ``ranks`` / ``values`` (named
        ``what`` in errors) once, before anything is booked; returns them
        as flat arrays."""
        ranks = np.asarray(ranks, dtype=np.intp).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if ranks.shape != values.shape:
            raise CommError(f"ranks and {what} must have the same length")
        if ranks.size:
            # Reinterpreted as unsigned, a negative rank is huge: one
            # reduction checks both bounds.
            if int(ranks.view(np.uintp).max()) >= self.nranks:
                raise CommError(
                    f"batch contains ranks outside [0, {self.nranks})")
            if float(values.min()) < 0:
                raise CommError(f"{what} must be non-negative")
        return ranks, values

    def set_phase(self, phase: str) -> None:
        if phase not in PHASES:
            raise CommError(f"unknown phase {phase!r}")
        self.phase = phase

    def attach_faults(self, injector) -> None:
        """Install a :class:`repro.resilience.FaultInjector`.

        While attached, ``compute`` durations pass through the
        injector's slow-rank scaling and every ``send`` may be dropped
        (timeout + retransmission, booked) or delayed. The batched fast
        paths fall back to per-event booking so every event is observed.
        """
        self.faults = injector

    # -- compute -------------------------------------------------------------

    def compute(self, rank: int, flops: float, kind: str,
                n_block_updates: int = 0) -> None:
        """Book ``flops`` of kernel ``kind`` on ``rank`` and advance its clock.

        ``n_block_updates`` adds the per-block pack/scatter overhead for
        Schur updates.
        """
        rank = self._check_rank(rank)
        if kind not in COMPUTE_KINDS:
            raise CommError(f"unknown compute kind {kind!r}")
        if flops < 0:
            raise CommError("flops must be non-negative")
        gamma = self.machine.gamma_gemm if kind in ("schur", "reduce_add") \
            else self.machine.gamma_panel
        dt = flops * gamma + n_block_updates * self.machine.gemm_overhead
        start = self.clock[rank]
        if self.faults is not None:
            dt = self.faults.scale_compute(rank, start, dt)
        self.clock[rank] += dt
        self.flops[kind][rank] += flops
        self.t_compute[kind][rank] += dt
        self.event_counts[kind] += 1
        if self.trace is not None:
            self.trace.record(rank, start, self.clock[rank], kind, self.phase)

    def compute_batch(self, ranks, flops, kind: str,
                      n_block_updates=0) -> None:
        """Book many compute events in one vectorized call.

        ``ranks`` and ``flops`` are parallel arrays (one entry per event);
        ``n_block_updates`` may be a scalar applied to every event or an
        array. Clock, flop, and time ledgers end up bit-for-bit identical
        to calling :meth:`compute` once per element in order — repeated
        ranks accumulate sequentially via ``np.add.at`` — so batched and
        per-event drivers produce *exactly* the same simulation. With a
        trace attached the call falls back to per-event booking so the
        recorded intervals match the loop path, too.

        Plain-``list`` inputs with a scalar ``n_block_updates`` (the plan
        interpreter's panel segments) take a scalar fast path below
        ``_SCALAR_BATCH_MAX`` events: same additions in the same order,
        without the array conversion and reduction overhead that dwarfs
        small batches.
        """
        if kind not in COMPUTE_KINDS:
            raise CommError(f"unknown compute kind {kind!r}")
        if type(ranks) is list and type(flops) is list \
                and len(ranks) == len(flops) < _SCALAR_BATCH_MAX \
                and isinstance(n_block_updates, (int, float)) \
                and self.trace is None and self.faults is None:
            if not ranks:
                return
            if min(ranks) < 0 or max(ranks) >= self.nranks:
                raise CommError(
                    f"batch contains ranks outside [0, {self.nranks})")
            if min(flops) < 0:
                raise CommError("flops must be non-negative")
            gamma = self.machine.gamma_gemm \
                if kind in ("schur", "reduce_add") \
                else self.machine.gamma_panel
            ov = n_block_updates * self.machine.gemm_overhead
            # Scalar loops index the ledgers through memoryviews: items
            # come back as Python floats (same IEEE doubles, same
            # additions) at half the cost of ndarray scalars.
            clock = memoryview(self.clock)
            fl = memoryview(self.flops[kind])
            tc = memoryview(self.t_compute[kind])
            for r, f in zip(ranks, flops):
                dt = f * gamma + ov
                clock[r] += dt
                fl[r] += f
                tc[r] += dt
            self.event_counts[kind] += len(ranks)
            return
        ranks, flops = self._check_batch(ranks, flops, "flops")
        if ranks.size == 0:
            return
        if self.trace is not None or self.faults is not None:
            upd = np.broadcast_to(np.asarray(n_block_updates), ranks.shape)
            for r, f, u in zip(ranks, flops, upd):
                self.compute(int(r), float(f), kind,
                             n_block_updates=int(u))
            return
        gamma = self.machine.gamma_gemm if kind in ("schur", "reduce_add") \
            else self.machine.gamma_panel
        dt = flops * gamma + n_block_updates * self.machine.gemm_overhead
        np.add.at(self.clock, ranks, dt)
        np.add.at(self.flops[kind], ranks, flops)
        np.add.at(self.t_compute[kind], ranks, dt)
        self.event_counts[kind] += int(ranks.size)

    # -- point-to-point --------------------------------------------------------

    def send(self, src: int, dst: int, words: float) -> None:
        """Post a message; the sender's NIC is busy for the full transfer."""
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        if words < 0:
            raise CommError("words must be non-negative")
        if src == dst:
            return  # self-messages are free (local pointer pass)
        start = self.clock[src]
        alpha, beta = self.machine.alpha, self.machine.beta
        if self.topology is not None:
            alpha *= self.topology.latency_factor(src, dst)
            beta *= self.topology.bandwidth_factor(src, dst)
        self.clock[src] += alpha + beta * words
        if self.faults is not None:
            # Dropped message: the sender times out and retransmits; each
            # retry holds the NIC for another full transfer and is booked
            # as real traffic. Delays push only the arrival time back.
            for _ in range(self.faults.count_drops(src, dst,
                                                   self.clock[src])):
                self.clock[src] += self.faults.timeout + alpha + beta * words
                self.words_sent[self.phase][src] += words
                self.msgs_sent[self.phase][src] += 1
                self.event_counts["send"] += 1
            arrival = self.clock[src] + self.faults.added_delay(
                src, dst, self.clock[src])
        else:
            arrival = self.clock[src]
        self._queues[(src, dst)].append((arrival, words))
        self.words_sent[self.phase][src] += words
        self.msgs_sent[self.phase][src] += 1
        self.event_counts["send"] += 1
        if self.trace is not None:
            self.trace.record(src, start, self.clock[src], "send",
                              self.phase, words)

    def recv(self, dst: int, src: int) -> float:
        """Complete the oldest pending message from ``src``; returns its size."""
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        if src == dst:
            return 0.0
        q = self._queues[(src, dst)]
        if not q:
            raise CommError(f"recv on rank {dst} from {src}: no pending message")
        arrival, words = q.popleft()
        start = self.clock[dst]
        self.clock[dst] = max(self.clock[dst], arrival)
        self.words_recv[self.phase][dst] += words
        self.msgs_recv[self.phase][dst] += 1
        self.event_counts["recv"] += 1
        if self.trace is not None and self.clock[dst] > start:
            self.trace.record(dst, start, self.clock[dst], "recv_wait",
                              self.phase, words)
        return words

    def sendrecv(self, src: int, dst: int, words: float) -> None:
        self.send(src, dst, words)
        self.recv(dst, src)

    def sendrecv_batch(self, srcs, dsts, words, reduce_kind: str | None = None,
                       reduce_flops=None) -> None:
        """Book many matched ``send``→``recv`` pairs in one call.

        ``srcs``, ``dsts`` and ``words`` are parallel arrays — or plain
        lists, which skip the array round-trip (the booking loop is scalar
        either way) — one entry per message. With ``reduce_kind`` set, each pair is followed by a
        compute event of that kind on the destination rank —
        :func:`repro.comm.collectives.reduce_pairwise`'s contract, with
        ``reduce_flops`` defaulting to one flop per word. All ledgers end
        up bit-for-bit identical to issuing the three calls per element in
        order (the :meth:`compute_batch` contract): the per-event methods
        are replayed on local scalars with the same additions and maxes in
        the same sequence. Traced or topology-aware simulators — and
        subclasses, whose overridden ``send``/``recv``/``compute`` hooks
        must keep observing every event — fall back to the per-event loop.
        """
        if reduce_kind is not None and reduce_kind not in COMPUTE_KINDS:
            raise CommError(f"unknown compute kind {reduce_kind!r}")
        cols = [srcs, dsts, words, words if reduce_flops is None
                else reduce_flops]
        if not all(type(c) is list for c in cols):
            # The booking loop is scalar either way: arrays become lists.
            cols = [np.asarray(c, dtype=t).ravel().tolist() for c, t in
                    zip(cols, (np.intp, np.intp, np.float64, np.float64))]
        srcs, dsts, words, flops = cols
        if not (len(srcs) == len(dsts) == len(words)):
            raise CommError("srcs, dsts and words must have the same length")
        if len(flops) != len(words):
            raise CommError("reduce_flops must match words in length")
        if not srcs:
            return
        if min(min(srcs), min(dsts)) < 0 \
                or max(max(srcs), max(dsts)) >= self.nranks:
            raise CommError(
                f"batch contains ranks outside [0, {self.nranks})")
        if min(words) < 0:
            raise CommError("words must be non-negative")
        if flops is not words and min(flops) < 0:
            raise CommError("flops must be non-negative")
        n_events = len(srcs)
        if self.trace is not None or self.topology is not None \
                or self.faults is not None or type(self) is not Simulator:
            for s, d, w, f in zip(srcs, dsts, words, flops):
                self.sendrecv(int(s), int(d), float(w))
                if reduce_kind is not None:
                    self.compute(int(d), float(f), reduce_kind)
            return
        clock = memoryview(self.clock)  # see compute_batch's scalar loop
        alpha, beta = self.machine.alpha, self.machine.beta
        ws = memoryview(self.words_sent[self.phase])
        wr = memoryview(self.words_recv[self.phase])
        ms = memoryview(self.msgs_sent[self.phase])
        mr = memoryview(self.msgs_recv[self.phase])
        if reduce_kind is not None:
            gamma = self.machine.gamma_gemm \
                if reduce_kind in ("schur", "reduce_add") \
                else self.machine.gamma_panel
            fl = memoryview(self.flops[reduce_kind])
            tc = memoryview(self.t_compute[reduce_kind])
        npairs = 0
        for s, d, w, f in zip(srcs, dsts, words, flops):
            if s != d:
                # send: the queue append/popleft pair cancels, so only the
                # clock advance and the phase ledgers remain.
                arrival = clock[s] + (alpha + beta * w)
                clock[s] = arrival
                ws[s] += w
                ms[s] += 1
                # recv: max(own clock, arrival), exactly as recv() writes it.
                if arrival > clock[d]:
                    clock[d] = arrival
                wr[d] += w
                mr[d] += 1
                npairs += 1
            if reduce_kind is not None:
                dt = f * gamma
                clock[d] += dt
                fl[d] += f
                tc[d] += dt
        if npairs:
            self.event_counts["send"] += npairs
            self.event_counts["recv"] += npairs
        if reduce_kind is not None:
            self.event_counts[reduce_kind] += n_events

    # -- fork / merge -------------------------------------------------------

    def can_fork(self) -> bool:
        """Forking requires plain per-rank ledgers: no trace (globally
        ordered intervals), no topology (cross-fork link factors), no
        accelerator (device clocks are not part of the delta), no fault
        injector (its message-count state is global across ranks)."""
        return (self.trace is None and self.topology is None
                and self.accelerator is None and self.faults is None)

    def _pending_touching(self, rank_set: set[int]) -> int:
        return sum(len(q) for (s, d), q in self._queues.items()
                   if q and (s in rank_set or d in rank_set))

    def fork(self, ranks) -> "Simulator":
        """A fresh simulator carrying ``ranks``' exact ledger state.

        The returned sub-simulator has the same rank numbering and machine
        model; every ledger entry of ``ranks`` is copied, all other ranks
        start at zero, and ``event_counts`` starts empty so that
        :meth:`extract_delta` reports pure increments. Raises
        :class:`CommError` if the simulator is not forkable
        (:meth:`can_fork`) or if messages to/from ``ranks`` are pending.
        """
        if not self.can_fork():
            raise CommError("cannot fork a traced, topology-aware or "
                            "accelerator-attached simulator")
        idx = np.asarray(sorted(self._check_rank(r) for r in ranks),
                         dtype=np.intp)
        if self._pending_touching(set(idx.tolist())):
            raise CommError("cannot fork: pending messages touch the "
                            "forked rank set")
        sub = Simulator(self.nranks, self.machine)
        sub.phase = self.phase
        sub.clock[idx] = self.clock[idx]
        for k in COMPUTE_KINDS:
            sub.flops[k][idx] = self.flops[k][idx]
            sub.t_compute[k][idx] = self.t_compute[k][idx]
        for p in PHASES:
            sub.words_sent[p][idx] = self.words_sent[p][idx]
            sub.words_recv[p][idx] = self.words_recv[p][idx]
            sub.msgs_sent[p][idx] = self.msgs_sent[p][idx]
            sub.msgs_recv[p][idx] = self.msgs_recv[p][idx]
        sub.mem_current[idx] = self.mem_current[idx]
        sub.mem_peak[idx] = self.mem_peak[idx]
        return sub

    def extract_delta(self, ranks) -> LedgerDelta:
        """Package a forked run's ledger state for :meth:`merge_delta`.

        Verifies that the fork's events stayed inside ``ranks`` (any
        ledger activity on an outside rank means the schedule escaped its
        layer, which would make the merge silently wrong) and that no
        messages are still in flight.
        """
        idx = np.asarray(sorted(self._check_rank(r) for r in ranks),
                         dtype=np.intp)
        if self.pending_messages():
            raise CommError("extract_delta with messages still in flight")
        outside = np.ones(self.nranks, dtype=bool)
        outside[idx] = False
        escaped = self.clock[outside].any() or self.mem_peak[outside].any()
        for p in PHASES:
            escaped = escaped or self.words_sent[p][outside].any() \
                or self.words_recv[p][outside].any() \
                or self.msgs_sent[p][outside].any() \
                or self.msgs_recv[p][outside].any()
        for k in COMPUTE_KINDS:
            escaped = escaped or self.flops[k][outside].any() \
                or self.t_compute[k][outside].any()
        if escaped:
            raise CommError("forked events escaped the declared rank set")
        return LedgerDelta(
            ranks=idx,
            clock=self.clock[idx].copy(),
            flops={k: self.flops[k][idx].copy() for k in COMPUTE_KINDS},
            t_compute={k: self.t_compute[k][idx].copy()
                       for k in COMPUTE_KINDS},
            words_sent={p: self.words_sent[p][idx].copy() for p in PHASES},
            words_recv={p: self.words_recv[p][idx].copy() for p in PHASES},
            msgs_sent={p: self.msgs_sent[p][idx].copy() for p in PHASES},
            msgs_recv={p: self.msgs_recv[p][idx].copy() for p in PHASES},
            mem_current=self.mem_current[idx].copy(),
            mem_peak=self.mem_peak[idx].copy(),
            event_counts=dict(self.event_counts),
        )

    def merge_delta(self, delta: LedgerDelta) -> None:
        """Splice a fork's final ledger state back into this simulator.

        Per-rank arrays are *copied* at ``delta.ranks`` (disjointness
        across concurrent forks makes this exact); event counts are
        integer-added. The caller merges deltas in grid order so that the
        whole operation is deterministic regardless of worker scheduling.
        """
        idx = np.asarray(delta.ranks, dtype=np.intp)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self.nranks):
            raise CommError("delta ranks outside this simulator")
        self.clock[idx] = delta.clock
        for k in COMPUTE_KINDS:
            self.flops[k][idx] = delta.flops[k]
            self.t_compute[k][idx] = delta.t_compute[k]
        for p in PHASES:
            self.words_sent[p][idx] = delta.words_sent[p]
            self.words_recv[p][idx] = delta.words_recv[p]
            self.msgs_sent[p][idx] = delta.msgs_sent[p]
            self.msgs_recv[p][idx] = delta.msgs_recv[p]
        self.mem_current[idx] = delta.mem_current
        self.mem_peak[idx] = delta.mem_peak
        for kind, n in delta.event_counts.items():
            if n:
                self.event_counts[kind] += int(n)

    # -- accelerator offload -----------------------------------------------

    def attach_accelerator(self, accel) -> None:
        """Give every rank an accelerator (see repro.comm.accelerator)."""
        self.accelerator = accel
        self.accel_clock = np.zeros(self.nranks)
        self.accel_flops = np.zeros(self.nranks)
        self.offloaded_updates = np.zeros(self.nranks, dtype=np.int64)

    def offload_gemm(self, rank: int, flops: float, words: float) -> None:
        """Enqueue a GEMM on ``rank``'s accelerator (asynchronous).

        Host pays the enqueue overhead; the device starts no earlier than
        the host's enqueue time and runs transfer + GEMM back-to-back.
        """
        rank = self._check_rank(rank)
        if self.accelerator is None:
            raise CommError("no accelerator attached")
        start = self.clock[rank]
        self.clock[rank] += self.accelerator.offload_overhead
        device_start = max(self.accel_clock[rank], self.clock[rank])
        self.accel_clock[rank] = device_start + \
            self.accelerator.device_time(flops, words)
        self.accel_flops[rank] += flops
        self.offloaded_updates[rank] += 1
        self.event_counts["offload"] += 1
        if self.trace is not None:
            self.trace.record(rank, start, self.clock[rank], "offload",
                              self.phase, words)

    def accel_sync(self, rank: int) -> None:
        """Block the host until ``rank``'s accelerator has drained."""
        rank = self._check_rank(rank)
        if self.accel_clock is not None:
            self.clock[rank] = max(self.clock[rank], self.accel_clock[rank])

    def accel_sync_all(self) -> None:
        if self.accel_clock is not None:
            np.maximum(self.clock, self.accel_clock, out=self.clock)

    # -- synchronization -------------------------------------------------------

    def barrier(self, ranks) -> None:
        """Synchronize ``ranks`` to their common maximum clock."""
        idx = [self._check_rank(r) for r in ranks]
        if idx:
            self.clock[idx] = self.clock[idx].max()

    def pending_messages(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- memory ------------------------------------------------------------------

    def alloc(self, rank: int, words: float) -> None:
        rank = self._check_rank(rank)
        if words < 0:
            raise CommError("alloc words must be non-negative")
        self.mem_current[rank] += words
        self.mem_peak[rank] = max(self.mem_peak[rank], self.mem_current[rank])

    def free(self, rank: int, words: float) -> None:
        rank = self._check_rank(rank)
        if words < 0:
            raise CommError("free words must be non-negative")
        self.mem_current[rank] -= words
        if self.mem_current[rank] < -1e-9:
            raise CommError(f"rank {rank} freed more memory than allocated")


    def _small_lists(self, ranks, words) -> bool:
        """Whether a memory batch books through the scalar loop (as in
        :meth:`compute_batch`): valid plain lists below the size limit;
        anything else goes through :meth:`_check_batch` and the arrays."""
        return type(ranks) is list and type(words) is list \
            and 0 < len(ranks) == len(words) < _SCALAR_BATCH_MAX \
            and min(ranks) >= 0 and max(ranks) < self.nranks \
            and min(words) >= 0

    def alloc_batch(self, ranks, words) -> None:
        """Book many :meth:`alloc` events in one call, bit for bit:
        ``np.add.at`` applies the increments in order (as in
        :meth:`compute_batch`), and within a batch of allocations a rank's
        ``mem_current`` only rises — so its per-event peak is reached at
        its last event and one ``np.maximum`` against the final
        ``mem_current`` writes exactly the per-event ``mem_peak``."""
        if self._small_lists(ranks, words):
            cur, peak = memoryview(self.mem_current), memoryview(self.mem_peak)
            for r, w in zip(ranks, words):
                cur[r] += w
                if cur[r] > peak[r]:
                    peak[r] = cur[r]
            return
        ranks, words = self._check_batch(ranks, words, "alloc words")
        if ranks.size:
            np.add.at(self.mem_current, ranks, words)
            np.maximum(self.mem_peak, self.mem_current, out=self.mem_peak)

    def free_batch(self, ranks, words) -> None:
        """Book many :meth:`free` events in one call, bit for bit: frees
        never touch ``mem_peak``, and within a batch a rank's
        ``mem_current`` only falls, so checking the final values catches
        every over-free the per-event loop would."""
        if self._small_lists(ranks, words):
            cur = memoryview(self.mem_current)
            for r, w in zip(ranks, words):
                cur[r] -= w
                if cur[r] < -1e-9:
                    raise CommError(
                        f"rank {r} freed more memory than allocated")
            return
        ranks, words = self._check_batch(ranks, words, "free words")
        if ranks.size:
            np.subtract.at(self.mem_current, ranks, words)
            if float(self.mem_current.min()) < -1e-9:
                bad = int(np.argmin(self.mem_current))
                raise CommError(
                    f"rank {bad} freed more memory than allocated")

    # -- derived quantities --------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Critical-path time: the maximum rank clock."""
        return float(self.clock.max())

    @property
    def critical_rank(self) -> int:
        return int(np.argmax(self.clock))

    def compute_time(self, rank: int | None = None) -> float:
        """Total booked compute time on ``rank`` (default: critical rank)."""
        r = self.critical_rank if rank is None else self._check_rank(rank)
        return float(sum(t[r] for t in self.t_compute.values()))

    def comm_time(self, rank: int | None = None) -> float:
        """Non-overlapped comm+sync time: clock minus booked compute."""
        r = self.critical_rank if rank is None else self._check_rank(rank)
        return float(self.clock[r]) - self.compute_time(r)

    def total_words_sent(self, phase: str | None = None) -> float:
        if phase is None:
            return float(sum(w.sum() for w in self.words_sent.values()))
        return float(self.words_sent[phase].sum())

    def total_words_recv(self, phase: str | None = None) -> float:
        if phase is None:
            return float(sum(w.sum() for w in self.words_recv.values()))
        return float(self.words_recv[phase].sum())

    def words_per_rank(self, phase: str | None = None) -> np.ndarray:
        """Per-rank communication volume (sent + received)."""
        phases = PHASES if phase is None else (phase,)
        out = np.zeros(self.nranks)
        for p in phases:
            out += self.words_sent[p] + self.words_recv[p]
        return out

    def msgs_per_rank(self, phase: str | None = None) -> np.ndarray:
        phases = PHASES if phase is None else (phase,)
        out = np.zeros(self.nranks, dtype=np.int64)
        for p in phases:
            out += self.msgs_sent[p] + self.msgs_recv[p]
        return out
