"""Deterministic virtual-rank simulator with per-rank ledgers.

Execution model
---------------
A driver holds its schedule as a flat :class:`~repro.comm.stream.EventStream`
— *events on virtual ranks*, in issue order — and books a slice of it (a
task, a run, a whole level) with one :meth:`Simulator.book` call, the one
booking entry. Each rank has a clock:

* a compute event advances its rank's clock by the modeled kernel time and
  books the flops under its kind;
* a message advances its sender by ``alpha + beta*words`` (the NIC is busy
  for the transfer) and lifts its receiver to ``max(clock, arrival)`` — if
  the message arrived while the receiver was computing, the wait is zero.
  This is how the lookahead pipeline's communication/computation overlap
  manifests: drivers that post sends early hide them behind later GEMMs.

The volume ledgers are the :class:`~repro.comm.stream.Volume` reduction
this class inherits; only the clocks, the one order-dependent quantity,
replay the events in a scalar loop. A trace's rows, a topology's prices
and a fault injector's perturbations ride that loop.

Everything not booked as compute is, by definition, non-overlapped
communication/synchronization — the paper's ``T_comm``. Every message is
sent and received within the event that carries it, so volume
conservation (Σ words sent = Σ words received) holds by construction —
a fault injector's retransmissions aside — and tests assert it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

# COMPUTE_KINDS / PHASES are canonically defined in repro.comm.events and
# re-exported here: the ledger layout is keyed by them and most callers
# import them alongside the Simulator.
from repro.comm.events import COMPUTE_KINDS, PHASES
from repro.comm.machine import Machine
from repro.comm.stream import MSG, CommError, EventStream, Volume, \
    kind_counts

if TYPE_CHECKING:  # avoid the comm <-> analysis import cycle at runtime
    from repro.analysis.trace import Trace

__all__ = ["Simulator", "CommError"]


class Simulator(Volume):
    """Virtual ranks, clocks and cost ledgers."""

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

        #: Optional fault injector (repro.resilience.FaultInjector):
        #: perturbs compute durations and message arrivals
        #: deterministically, per event of book()'s clock loop.
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

        While attached, :meth:`book`'s clock loop passes every compute
        duration through the injector's slow-rank scaling, and every
        message may be dropped (timeout + retransmission, booked) or
        delayed.
        """
        self.faults = injector

    # -- stream booking ------------------------------------------------------

    def _gamma(self, kind: str) -> float:
        return self.machine.gamma_gemm if kind in ("schur", "reduce_add") \
            else self.machine.gamma_panel

    def book(self, ev: EventStream, lo: int = 0, hi: int | None = None,
             mlo: int = 0, mhi: int | None = None):
        """Book events ``[lo, hi)`` and memory charges ``[mlo, mhi)`` of
        ``ev``: the one booking entry.

        The volume ledgers are :meth:`Volume.add`'s reduction, the
        durations one array expression (``alpha*f_l + (beta*f_b)*w``, a
        topology's factors or 1, and ``f*gamma + n_upd*gemm_overhead``)
        and the clocks the one scalar loop: a message advances its sender
        and lifts its receiver to the arrival time; a compute event is the
        case ``src == dst``. A trace or a fault injector books through
        :meth:`_observed`, the same loop with rows and perturbations.
        Ranks, kinds, signs and the memory balance are checked first.
        Untraced, fault-free and topology-free, a slice booked before from
        the same ledgers is replayed: its exit state, stored on the
        slice's third booking, copied (docs/simulator.md § "Replayed
        slices"). Returns the memory slice's
        :func:`~repro.comm.stream.mem_profile`."""
        ev.check(self.nranks)
        src, dst = ev.src[lo:hi], ev.dst[lo:hi]
        val, kind = ev.val[lo:hi], ev.kind[lo:hi]
        upd = 0 if ev.upd is None else ev.upd[lo:hi]
        observed = self.trace is not None or self.faults is not None
        key = (lo, hi, mlo, mhi, self.phase, self._rate.tobytes(),
               self._fixed.tobytes(), self.machine.gemm_overhead)
        memos = {} if observed or self.topology is not None else ev.memo
        memo = memos.get(key, 0)        # bookings so far, or a stored state
        store = not isinstance(memo, int) or memo >= 2
        if not store:
            memos[key] = memo + 1
        else:
            ledgers = list(self.ledgers().values())
            image = b"".join(a.tobytes() for a in ledgers)
            if not isinstance(memo, int) and memo[0] == image:
                for a, x in zip(ledgers, memo[1]):
                    a[...] = x
                for code, n in memo[2]:
                    self.count(code, n)
                return memo[3]
        rate, fixed = self._rate[kind], self._fixed[kind]
        if self.topology is not None:   # alpha*f_l + (beta*f_b)*w
            m = kind == MSG
            rate[m] *= self.topology.bandwidth_factor(src[m], dst[m])
            fixed[m] *= self.topology.latency_factor(src[m], dst[m])
        dt = val * rate + (fixed + upd * self.machine.gemm_overhead)
        if observed:
            return self._observed(ev, lo, hi, mlo, mhi, dt, val * rate, fixed)
        prof = self.add(ev, lo, hi, mlo, mhi, times=dt)
        clock = self.clock.tolist()
        for s, d, c in zip(src.tolist(), dst.tolist(), dt.tolist()):
            clock[s] = a = clock[s] + c
            if a > clock[d]:
                clock[d] = a
        self.clock[:] = clock
        if store:
            for a in prof or ():
                a.flags.writeable = False
            memos[key] = (image, [a.copy() for a in ledgers],
                          kind_counts(kind), prof)
        return prof

    def _observed(self, ev: EventStream, lo, hi, mlo, mhi, dt, wire, fixed):
        """:meth:`book`'s clock loop under a trace or a fault injector, per
        event in stream order. A compute event's duration ``dt`` is first
        scaled by the injector's ``scale_compute`` at its start. A message
        holds its sender for ``dt`` (``fixed + wire``), then for
        ``timeout + fixed + wire`` per drop ``count_drops`` reports, and
        arrives ``added_delay`` after its sender is free. A trace gets one
        row per interval: a compute, a send spanning its retransmissions,
        a receiver's wait from its old clock to the arrival. The volume
        ledgers are :meth:`Volume.add` with the scaled durations, plus one
        correction for the retransmitted words and messages."""
        faults, ph = self.faults, self.phase
        src, dst = ev.src[lo:hi], ev.dst[lo:hi]
        kind, val = ev.kind[lo:hi], ev.val[lo:hi]
        dt, wire, fixed = dt.tolist(), wire.tolist(), fixed.tolist()
        clock, rows, drops = self.clock.tolist(), [], []
        for i, (s, d, k, w) in enumerate(zip(src.tolist(), dst.tolist(),
                                             kind.tolist(), val.tolist())):
            t = clock[s]
            if k != MSG:
                if faults is not None:
                    dt[i] = faults.scale_compute(s, t, dt[i])
                clock[s] = a = t + dt[i]
                rows.append((s, t, a, COMPUTE_KINDS[k], ph, 0.0))
                continue
            a = t + dt[i]
            if faults is not None:
                for _ in range(faults.count_drops(s, d, a)):
                    a += faults.timeout + fixed[i] + wire[i]
                    drops.append(i)
            rows.append((s, t, a, "send", ph, w))
            clock[s] = a
            if faults is not None:
                a += faults.added_delay(s, d, a)
            if a > clock[d]:
                rows.append((d, clock[d], a, "recv_wait", ph, w))
                clock[d] = a
        prof = self.add(ev, lo, hi, mlo, mhi, times=np.array(dt))
        if drops:
            np.add.at(self.words_sent[ph], src[drops], val[drops])
            self.msgs_sent[ph] += np.bincount(src[drops],
                                              minlength=self.nranks)
            self.event_counts["send"] += len(drops)
        self.clock[:] = clock
        if self.trace is not None:
            self.trace.rows += rows
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

    # -- memory ------------------------------------------------------------------

    def alloc_batch(self, ranks, words) -> None:
        """Allocate ``words[i]`` on ``ranks[i]``, in order: ``np.add.at``
        applies the increments in order, and within a batch of
        allocations a rank's ``mem_current`` only rises — so its running
        peak is reached at its last event and one ``np.maximum`` against
        the final ``mem_current`` writes exactly the running
        ``mem_peak``."""
        ranks, words = self._check_batch(ranks, words, "alloc words")
        np.add.at(self.mem_current, ranks, words)
        np.maximum(self.mem_peak, self.mem_current, out=self.mem_peak)

    def free_batch(self, ranks, words) -> None:
        """Free ``words[i]`` on ``ranks[i]``: frees never touch
        ``mem_peak``, and within a batch a rank's ``mem_current`` only
        falls, so checking the final values catches every over-free a
        running check would."""
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
