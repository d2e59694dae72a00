"""Event streams, and their reduction to per-rank volume ledgers.

A schedule is a flat :class:`EventStream`: one entry per event in issue
order, plus an independent stream of memory charges. Of everything a run
books, only the rank *clocks* depend on how events interleave across
ranks; words, messages, flops and resident memory are per-rank sums (and
a running maximum) over the columns — the closed-form per-process volume
accounting of Azad et al. and SpComm3D (PAPERS.md), on the real schedule.
:meth:`Volume.add` is that reduction; :class:`repro.comm.Simulator` *is* a
:class:`Volume` with clocks and books a stream through the same method.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.comm.events import COMPUTE_KINDS, PHASES
from repro.utils import check_positive_int

__all__ = ["MSG", "CommError", "EventStream", "Volume", "kind_counts",
           "mem_profile"]

#: ``EventStream.kind`` of a message; a compute event carries its kind's
#: index into :data:`~repro.comm.events.COMPUTE_KINDS`.
MSG = -1
#: The first ``event_counts`` key an event of each kind code books.
_KEY = {MSG: "send", **dict(enumerate(COMPUTE_KINDS))}


class CommError(RuntimeError):
    """A causality or protocol violation in the simulated schedule."""


@dataclass(eq=False)
class EventStream:
    """Parallel columns, one entry per event, in issue order.

    A *message* (``kind == MSG``) is one matched send → receive of ``val``
    words from ``src`` to ``dst != src`` (a self-message is free and is
    never emitted). A *compute* event has ``src == dst`` = the rank,
    ``val`` flops of ``COMPUTE_KINDS[kind]`` and ``upd`` block updates
    (``None``: none anywhere). ``mem_rank`` / ``mem_words`` are the memory
    stream: signed charges, positive = allocate, negative = free. The two
    streams share no ledger, so each is sliced on its own.
    """

    src: np.ndarray
    dst: np.ndarray
    val: np.ndarray
    kind: np.ndarray
    upd: np.ndarray | None = None
    mem_rank: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    mem_words: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _checked: int = field(default=0, repr=False)
    #: :meth:`repro.comm.Simulator.book`'s replayed slices, one per key.
    memo: dict = field(default_factory=dict, repr=False)

    def check(self, nranks: int) -> None:
        """Raise :class:`CommError` unless every rank is in ``[0, nranks)``
        and no word or flop count is negative; once per stream (its
        columns are not mutated after)."""
        if self._checked == nranks:
            return
        for r in (self.src, self.dst, self.mem_rank):
            if r.size and not 0 <= r.min() <= r.max() < nranks:
                raise CommError(
                    f"stream contains ranks outside [0, {nranks})")
        if self.val.size and self.val.min() < 0:
            raise CommError("words and flops must be non-negative")
        self._checked = nranks

    @classmethod
    def computes(cls, ranks, flops, kind: str, n_block_updates=0
                 ) -> "EventStream":
        """One compute event of ``kind`` per entry of ``ranks`` / ``flops``."""
        ranks = np.asarray(ranks, dtype=np.int64).ravel()
        flops = np.asarray(flops, dtype=np.float64).ravel()
        if ranks.shape != flops.shape:
            raise CommError("ranks and flops must have the same length")
        return cls(ranks, ranks, flops,
                   np.full(ranks.size, COMPUTE_KINDS.index(kind), np.int8),
                   np.broadcast_to(np.asarray(n_block_updates), ranks.shape))

    @classmethod
    def pairs(cls, srcs, dsts, words, reduce_kind: str | None = None,
              reduce_flops=None, reduce_where=True) -> "EventStream":
        """One message per entry — dropped where ``src == dst`` — each
        followed, with ``reduce_kind`` set (and where ``reduce_where``), by
        a compute event of that kind on the destination:
        ``reduce_flops``, default one flop per word."""
        srcs = np.asarray(srcs, dtype=np.int64).ravel()
        dsts = np.asarray(dsts, dtype=np.int64).ravel()
        words = np.asarray(words, dtype=np.float64).ravel()
        flops = words if reduce_flops is None \
            else np.asarray(reduce_flops, dtype=np.float64).ravel()
        if not srcs.shape == dsts.shape == words.shape == flops.shape:
            raise CommError("srcs, dsts, words (and reduce_flops) must "
                            "have the same length")
        code = MSG if reduce_kind is None else COMPUTE_KINDS.index(reduce_kind)
        reduce = np.broadcast_to(
            False if reduce_kind is None else reduce_where, srcs.shape)
        keep = np.stack([srcs != dsts, reduce], 1).ravel()
        return cls(np.stack([srcs, dsts], 1).ravel()[keep],
                   np.repeat(dsts, 2)[keep],
                   np.stack([words, flops], 1).ravel()[keep],
                   np.tile(np.array([MSG, code], np.int8), srcs.size)[keep])


def kind_counts(kind: np.ndarray, counted=()) -> list[tuple[int, int]]:
    """``(code, events)`` of each kind in an event slice: the kinds already
    in ``counted`` (``event_counts`` keys), then the others in the order
    of their first event — the order per-event booking inserts keys."""
    n = np.bincount(kind + 1, minlength=len(COMPUTE_KINDS) + 1).tolist()
    codes = [c for c, k in enumerate(n, MSG) if k]
    new = [c for c in codes if _KEY[c] not in counted]
    if len(new) > 1:                # first events: the head's, else a scan
        head = list(dict.fromkeys(kind[:64].tolist()))
        new.sort(key=lambda c: head.index(c) if c in head
                 else 64 + int(np.argmax(kind == c)))
    return [(c, n[c + 1]) for c in [c for c in codes if c not in new] + new]


def mem_profile(ranks: np.ndarray, words: np.ndarray, nranks: int):
    """Per-rank ``(net, peak, low)`` of a signed charge sequence: final,
    highest and lowest running level relative to the start (``peak >= 0
    >= low``). A one-sign sequence peaks (or bottoms) at its end;
    otherwise: one stable sort by rank, one ``cumsum``, one segmented
    max/min. The running sums cross rank segments and are rebased, which
    is exact — equal to charging event by event — because block-volume
    words are integers or half-integers (``r*c``, ``min(r*c, 1.5*nnz)``).
    The sort key is the narrowest dtype holding every rank: a stable sort
    is one permutation whatever the dtype, and numpy radix-sorts keys of
    16 bits or fewer."""
    net = np.bincount(ranks, words, minlength=nranks)
    peak, low = np.zeros((2, nranks))
    if words.min() >= 0:
        return net, net, low
    if words.max() <= 0:
        return net, peak, net
    order = np.argsort(ranks.astype(np.min_scalar_type(nranks - 1)),
                       kind="stable")
    r, level = ranks[order], np.cumsum(words[order])
    cut = np.flatnonzero(r[1:] != r[:-1]) + 1     # where a new rank starts
    first = np.concatenate(([0], cut))
    base = np.concatenate(([0.0], level[cut - 1]))
    peak[r[first]] = np.maximum(np.maximum.reduceat(level, first) - base, 0)
    low[r[first]] = np.minimum(np.minimum.reduceat(level, first) - base, 0)
    return net, peak, low


class Volume:
    """Per-rank volume ledgers — everything a run books except time:
    flops by compute kind, words and messages by phase, the resident
    memory level and its peak, the event counts. :meth:`add` accumulates
    an :class:`EventStream` slice with ``np.add.at`` — unbuffered, in
    stream order, onto the values already there — so the result is bit for
    bit the per-event loop's, however a schedule is cut into slices."""

    def __init__(self, nranks: int):
        self.nranks = check_positive_int(nranks, "nranks")
        self.phase: str = "fact"
        self.flops = {k: np.zeros(nranks) for k in COMPUTE_KINDS}
        self.words_sent = {p: np.zeros(nranks) for p in PHASES}
        self.words_recv = {p: np.zeros(nranks) for p in PHASES}
        self.msgs_sent = {p: np.zeros(nranks, dtype=np.int64) for p in PHASES}
        self.msgs_recv = {p: np.zeros(nranks, dtype=np.int64) for p in PHASES}
        self.mem_current = np.zeros(nranks)
        self.mem_peak = np.zeros(nranks)
        #: Per-kind event counts: compute kinds plus 'send' and 'recv'.
        self.event_counts: dict[str, int] = defaultdict(int)

    def add(self, ev: EventStream, lo: int = 0, hi: int | None = None,
            mlo: int = 0, mhi: int | None = None, *, times=None):
        """Accumulate events ``[lo, hi)`` and memory charges ``[mlo, mhi)``
        of ``ev`` under the current phase; ``times`` (the simulator's
        durations of the event slice) also books ``t_compute``. Returns
        the memory slice's :func:`mem_profile` (``None`` if empty); raises
        :class:`CommError`, with nothing booked, on an over-free."""
        ranks, words = ev.mem_rank[mlo:mhi], ev.mem_words[mlo:mhi]
        prof = mem_profile(ranks, words, self.nranks) if ranks.size else None
        if prof is not None:
            net, peak, low = prof
            if (self.mem_current + low).min() < -1e-9:
                bad = int(np.argmin(self.mem_current + low))
                raise CommError(
                    f"rank {bad} freed more memory than allocated")
            np.maximum(self.mem_peak, self.mem_current + peak,
                       out=self.mem_peak)
            self.mem_current += net
        src, dst = ev.src[lo:hi], ev.dst[lo:hi]
        val, kind = ev.val[lo:hi], ev.kind[lo:hi]
        for code, n in kind_counts(kind, self.event_counts):
            self.count(code, n)
            m = slice(None) if n == kind.size else kind == code
            if code == MSG:
                s, d, w = src[m], dst[m], val[m]
                np.add.at(self.words_sent[self.phase], s, w)
                np.add.at(self.words_recv[self.phase], d, w)
                self.msgs_sent[self.phase] += np.bincount(
                    s, minlength=self.nranks)
                self.msgs_recv[self.phase] += np.bincount(
                    d, minlength=self.nranks)
                continue
            name = COMPUTE_KINDS[code]
            np.add.at(self.flops[name], src[m], val[m])
            if times is not None:
                np.add.at(self.t_compute[name], src[m], times[m])
        return prof

    def count(self, code: int, n: int) -> None:
        """Count ``n`` events of kind ``code``: a message is a send and a
        receive."""
        for name in ("send", "recv") if code == MSG else (COMPUTE_KINDS[code],):
            self.event_counts[name] += n

    def words_per_rank(self, phase: str | None = None) -> np.ndarray:
        """Per-rank communication volume (sent + received)."""
        return sum(self.words_sent[p] + self.words_recv[p]
                   for p in (PHASES if phase is None else (phase,)))

    def msgs_per_rank(self, phase: str | None = None) -> np.ndarray:
        return sum(self.msgs_sent[p] + self.msgs_recv[p]
                   for p in (PHASES if phase is None else (phase,)))
