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

A driver that holds its schedule as a flat
:class:`~repro.comm.stream.EventStream` books a slice of it — a task, a
run, a whole grid plan — with one :meth:`Simulator.book` call: the volume
ledgers are the :class:`~repro.comm.stream.Volume` reduction this class
inherits, and only the clocks, the one order-dependent quantity, replay
the events in a scalar loop. The result is bit for bit the per-event
calls', a trace's rows and a topology's prices included; only a fault
injector or a subclass, which act on single events, gets those calls.

Everything not booked as compute is, by definition, non-overlapped
communication/synchronization — the paper's ``T_comm``.

The driver must issue events in a causally valid order (a ``recv`` only
after its ``send``); :class:`CommError` flags violations. Because the
collectives are built from these point-to-point events, volume conservation
(Σ words sent = Σ words received) holds mechanically, and tests assert it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING

import numpy as np

# COMPUTE_KINDS / PHASES are canonically defined in repro.comm.events and
# re-exported here: the ledger layout is keyed by them and most callers
# import them alongside the Simulator.
from repro.comm.events import COMPUTE_KINDS, PHASES
from repro.comm.machine import Machine
from repro.comm.stream import MSG, CommError, EventStream, Volume, \
    kind_counts, mem_profile

if TYPE_CHECKING:  # avoid the comm <-> analysis import cycle at runtime
    from repro.analysis.trace import Trace

__all__ = ["Simulator", "CommError"]


class Simulator(Volume):
    """Virtual ranks, clocks, message queues and cost ledgers."""

    def __init__(self, nranks: int, machine: Machine | None = None,
                 trace: "Trace | None" = None, topology=None):
        super().__init__(nranks)
        self.machine = machine or Machine.edison_like()
        self.trace = trace
        #: Optional network model (see repro.comm.topology): scales the
        #: per-message alpha and beta by (src, dst)-dependent factors.
        self.topology = topology
        self.clock = np.zeros(self.nranks)
        self.t_compute = {k: np.zeros(self.nranks) for k in COMPUTE_KINDS}
        # Per-kind rate and fixed cost of an event, a message's last
        # (EventStream kind -1): what book() prices a stream with.
        m = self.machine
        self._rate = np.array([self._gamma(k) for k in COMPUTE_KINDS]
                              + [m.beta])
        self._fixed = np.array([0.0] * len(COMPUTE_KINDS) + [m.alpha])
        self._queues: dict[tuple[int, int], deque] = defaultdict(deque)

        #: Optional fault injector (repro.resilience.FaultInjector):
        #: perturbs compute durations and message arrivals
        #: deterministically, event by event.
        self.faults = None

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
        if ranks.size and not 0 <= ranks.min() <= ranks.max() < self.nranks:
            raise CommError(
                f"batch contains ranks outside [0, {self.nranks})")
        if values.size and values.min() < 0:
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
        (timeout + retransmission, booked) or delayed; :meth:`book`
        issues every event through them.
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
        dt = flops * self._gamma(kind) \
            + n_block_updates * self.machine.gemm_overhead
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
        """Book one compute event per entry of the parallel arrays
        ``ranks`` / ``flops`` (``n_block_updates``: a scalar or an array):
        :meth:`book` on :meth:`EventStream.computes`."""
        if kind not in COMPUTE_KINDS:
            raise CommError(f"unknown compute kind {kind!r}")
        self.book(EventStream.computes(ranks, flops, kind, n_block_updates))

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
        """Book one matched ``send`` → ``recv`` per entry of the parallel
        arrays; with ``reduce_kind`` set each is followed by a compute
        event of that kind on the destination rank —
        :func:`repro.comm.collectives.reduce_pairwise`'s contract, with
        ``reduce_flops`` defaulting to one flop per word. :meth:`book` on
        :meth:`EventStream.pairs`."""
        if reduce_kind is not None and reduce_kind not in COMPUTE_KINDS:
            raise CommError(f"unknown compute kind {reduce_kind!r}")
        self.book(EventStream.pairs(srcs, dsts, words, reduce_kind,
                                    reduce_flops))

    # -- stream booking ------------------------------------------------------

    def _gamma(self, kind: str) -> float:
        return self.machine.gamma_gemm if kind in ("schur", "reduce_add") \
            else self.machine.gamma_panel

    def book(self, ev: EventStream, lo: int = 0, hi: int | None = None,
             mlo: int = 0, mhi: int | None = None):
        """Book events ``[lo, hi)`` and memory charges ``[mlo, mhi)`` of
        ``ev``: bit for bit what issuing them through :meth:`compute` /
        :meth:`send` + :meth:`recv` / :meth:`alloc` / :meth:`free` books —
        which is what happens under a fault injector or in a subclass.

        Otherwise the volume ledgers are :meth:`Volume.add`'s reduction,
        the durations one array expression (the per-event roundings:
        ``alpha*f_l + (beta*f_b)*w``, a topology's factors or 1, and
        ``f*gamma + n_upd*gemm_overhead``) and the clocks the one scalar
        loop, which also appends a trace's rows: a message advances its
        sender and lifts its receiver to the arrival time; a compute event
        is the case ``src == dst``. Ranks, signs and the memory balance
        are checked first, and no message may be in flight on entry.
        Untraced and topology-free, a slice booked before from the same
        ledgers is replayed: its stored exit state copied
        (docs/simulator.md § "Replayed slices"). Returns the memory
        slice's :func:`~repro.comm.stream.mem_profile`."""
        ev.check(self.nranks)
        src, dst = ev.src[lo:hi], ev.dst[lo:hi]
        val, kind = ev.val[lo:hi], ev.kind[lo:hi]
        upd = 0 if ev.upd is None else ev.upd[lo:hi]
        if self._queues and self.pending_messages():
            raise CommError("book() with messages in flight: a queued "
                            "message must be received first")
        if self.faults is not None or type(self) is not Simulator:
            for s, d, v, k, u in zip(
                    src.tolist(), dst.tolist(), val.tolist(), kind.tolist(),
                    np.broadcast_to(upd, src.shape).tolist()):
                if k == MSG:
                    self.send(s, d, v)
                    self.recv(d, s)
                else:
                    self.compute(s, v, COMPUTE_KINDS[k], n_block_updates=u)
            ranks, words = ev.mem_rank[mlo:mhi], ev.mem_words[mlo:mhi]
            for r, w in zip(ranks.tolist(), words.tolist()):
                if w < 0:
                    self.free(r, -w)
                else:
                    self.alloc(r, w)
            return mem_profile(ranks, words, self.nranks) \
                if ranks.size else None
        key = (lo, hi, mlo, mhi, self.phase, self._rate.tobytes(),
               self._fixed.tobytes(), self.machine.gemm_overhead)
        memos = ev.memo if self.trace is None and self.topology is None \
            else {}                     # an observed booking never looks
        memo = memos.get(key, False)
        if memo is False:               # a first booking stores nothing
            memos[key] = None
        else:
            ledgers = list(self.ledgers().values())
            image = b"".join(a.tobytes() for a in ledgers)
            if memo is not None and memo[0] == image:
                for a, x in zip(ledgers, memo[1]):
                    a[...] = x
                for code, n in memo[2]:
                    self.count(code, n)
                return memo[3]
        rate, fixed = self._rate[kind], self._fixed[kind]
        if self.topology is not None:   # send()'s alpha*f_l + (beta*f_b)*w
            m = kind == MSG
            rate[m] *= self.topology.bandwidth_factor(src[m], dst[m])
            fixed[m] *= self.topology.latency_factor(src[m], dst[m])
        dt = val * rate + (fixed + upd * self.machine.gemm_overhead)
        prof = self.add(ev, lo, hi, mlo, mhi, times=dt)
        clock = self.clock.tolist()
        if self.trace is None:
            for s, d, c in zip(src.tolist(), dst.tolist(), dt.tolist()):
                clock[s] = a = clock[s] + c
                if a > clock[d]:
                    clock[d] = a
        else:               # the rows compute / send / recv record; MSG = -1
            rows, ph, name = self.trace.rows, self.phase, COMPUTE_KINDS + ("send",)
            words = np.where(kind == MSG, val, 0.0).tolist()
            for s, d, c, k, w in zip(src.tolist(), dst.tolist(), dt.tolist(),
                                     kind.tolist(), words):
                t = clock[s]
                clock[s] = a = t + c
                rows.append((s, t, a, name[k], ph, w))
                if a > clock[d]:        # never for a compute event: d == s
                    rows.append((d, clock[d], a, "recv_wait", ph, w))
                    clock[d] = a
        self.clock[:] = clock
        if memo is not False:
            for a in prof or ():
                a.flags.writeable = False
            memos[key] = (image, [a.copy() for a in ledgers],
                          kind_counts(kind), prof)
        return prof

    def ledgers(self) -> dict[str, np.ndarray]:
        """Every per-rank ledger array, by its
        :func:`repro.verify.ledger_state` name: all that :meth:`book`
        reads, and all it writes but ``event_counts``."""
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

    def alloc_batch(self, ranks, words) -> None:
        """Book many :meth:`alloc` events in one call, bit for bit, for
        any words: ``np.add.at`` applies the increments in order, and
        within a batch of allocations a rank's ``mem_current`` only rises
        — so its per-event peak is reached at its last event and one
        ``np.maximum`` against the final ``mem_current`` writes exactly
        the per-event ``mem_peak``."""
        ranks, words = self._check_batch(ranks, words, "alloc words")
        np.add.at(self.mem_current, ranks, words)
        np.maximum(self.mem_peak, self.mem_current, out=self.mem_peak)

    def free_batch(self, ranks, words) -> None:
        """Book many :meth:`free` events in one call, bit for bit: frees
        never touch ``mem_peak``, and within a batch a rank's
        ``mem_current`` only falls, so checking the final values catches
        every over-free the per-event loop would."""
        ranks, words = self._check_batch(ranks, words, "free words")
        np.subtract.at(self.mem_current, ranks, words)
        if self.mem_current.min() < -1e-9:
            bad = int(np.argmin(self.mem_current))
            raise CommError(f"rank {bad} freed more memory than allocated")

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
