"""The array form of a plan: one struct-of-arrays over its tasks.

A level of Algorithm 1 *is* a :class:`TaskArrays` — parallel columns over
the ``T`` tasks of all its grids, grid-major, in list (= schedule) order,
plus CSR side tables — and a grid plan a slice of it
(:meth:`TaskArrays.cut`; a 2D plan is the level of one grid). GLU3.0
(PAPERS.md) removed per-task host overhead the same way: levelized arrays
emitted once, fused by construction.

Everything a plan books is **one event stream**
(:class:`repro.comm.stream.EventStream`), interleaved exactly as the
per-event order is, with ``ev_ptr`` / ``mem_ptr`` marking each task's
slice: booking a task, a run or the whole plan is one
:meth:`repro.comm.Simulator.book` call on a slice — granularity is a
choice of cut points, nothing else. A walk nothing monitors makes no cut
(the whole plan is one slice), the resilience monitor's walk cuts at
every task (width 1), and ``runs`` cuts at every task-kind change (the
maximal same-kind runs :meth:`~repro.plan.tasks.Plan3D.fusion_stats`
counts, and the fuzzer's coarse units).
:meth:`TaskArrays.volume` reduces the stream to per-rank words, messages,
flops and peak memory with no simulator at all.

The builder (:mod:`repro.plan.build`) fills the :data:`PRIMARY` columns
and :meth:`TaskArrays.assemble` derives the executed :data:`DERIVED` ones
from them. There is no second form: the static analyzer
(:mod:`repro.verify.static`) reads the same columns the interpreter walks,
and checks that the derived ones are what ``assemble`` makes of the
primary ones.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from repro.comm.collectives import tree_pattern
from repro.comm.stream import MSG, EventStream, Volume
from repro.utils.ragged import csr_ptr, ranges

__all__ = ["PANEL_FACTOR", "PANEL_BCAST", "SCHUR_UPDATE", "KINDS", "SIDES",
           "PRIMARY", "DERIVED", "TaskArrays", "tree_pattern"]

#: ``TaskArrays.kind`` codes — each is also the ``COMPUTE_KINDS`` index
#: ('diag', 'panel', 'schur') of the compute events the kind books.
PANEL_FACTOR, PANEL_BCAST, SCHUR_UPDATE = 0, 1, 2
#: The kinds' names (index = code).
KINDS = ("panel_factor", "panel_bcast", "schur_update")
#: ``TaskArrays.side`` codes (index = code).
SIDES = ("", "U", "L")

_I64 = np.int64
#: Columns with one entry per task, and each CSR side table: its pointer
#: column -> the columns it spans.
_PER_TASK = ("tid", "kind", "node", "bi", "bj", "side", "owner", "flops")
_TABLES = {"dep_ptr": ("dep_idx",),
           "bc_ptr": ("bc_root", "bc_comm", "bc_words", "bc_route"),
           "pair_ptr": ("pair_owner", "pair_flops"),
           "ev_ptr": ("ev_src", "ev_dst", "ev_val", "ev_kind"),
           "mem_ptr": ("mem_rank", "mem_words")}
_NONE = np.zeros(0, dtype=_I64)


@lru_cache(maxsize=4096)
def tree_arrays(route: int, root: int, comm: tuple) -> tuple:
    """:func:`tree_pattern` as read-only arrays, self-pairs (free) dropped:
    a pure function of hashable arguments (communicators are interned rank
    tuples), so a process expands each broadcast pattern once."""
    src, dst, buf = (np.asarray(c, dtype=_I64)
                     for c in tree_pattern(route, root, comm))
    live = src != dst
    out = (src[live], dst[live], buf)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(eq=False)
class TaskArrays:
    """Struct-of-arrays over one grid plan's tasks.

    Primary columns (length ``T`` unless a CSR table): ``tid``, ``kind``
    (codes above), ``node``, block ``bi``/``bj`` (``(k, k)`` for a factor
    or Schur task), ``side`` (code into :data:`SIDES`), compute ``owner``
    (-1 for Schur tasks), ``flops``; ``dep_ptr``/``dep_idx`` (dependency
    tids); ``bc_ptr`` over the specs ``bc_root``/``bc_comm`` (index into
    the interned communicators ``comms``)/``bc_words``/``bc_route`` (-1 =
    no routing hop); ``pair_ptr`` over ``pair_owner``/``pair_flops``.
    Derived by :meth:`assemble`: the event stream ``ev_src`` / ``ev_dst``
    / ``ev_val`` / ``ev_kind`` (task ``t``'s events are
    ``ev_ptr[t]:ev_ptr[t + 1]``: its compute event, then its broadcasts
    flattened to their point-to-point replay with self-pairs dropped; a
    Schur task's are its pairs' GEMMs), the memory stream ``mem_rank`` /
    ``mem_words`` under ``mem_ptr`` (a panel task charges its receive
    buffers, a Schur task releases its node's, negated), and the cut
    points ``runs``.
    """

    tid: np.ndarray
    kind: np.ndarray
    node: np.ndarray
    bi: np.ndarray
    bj: np.ndarray
    side: np.ndarray
    owner: np.ndarray
    flops: np.ndarray
    dep_ptr: np.ndarray
    dep_idx: np.ndarray
    bc_ptr: np.ndarray
    bc_root: np.ndarray
    bc_comm: np.ndarray
    bc_words: np.ndarray
    bc_route: np.ndarray
    comms: list
    pair_ptr: np.ndarray
    pair_owner: np.ndarray
    pair_flops: np.ndarray
    ev_ptr: np.ndarray = None
    ev_src: np.ndarray = None
    ev_dst: np.ndarray = None
    ev_val: np.ndarray = None
    ev_kind: np.ndarray = None
    mem_ptr: np.ndarray = None
    mem_rank: np.ndarray = None
    mem_words: np.ndarray = None
    runs: np.ndarray = None

    @property
    def n_tasks(self) -> int:
        return int(self.kind.size)

    def cut(self, a: int, b: int) -> "TaskArrays":
        """Tasks ``[a, b)`` (cut points of ``runs``) as arrays of their own
        — one grid plan of a level's arrays: a view of every column, each
        pointer re-based to zero, ``comms`` shared."""
        cols = {c: getattr(self, c)[a:b] for c in _PER_TASK}
        for ptr, table in _TABLES.items():
            p = getattr(self, ptr)
            cols[ptr] = p[a:b + 1] - p[a]
            cols.update((c, getattr(self, c)[p[a]:p[b]]) for c in table)
        i, j = np.searchsorted(self.runs, (a, b))
        return TaskArrays(comms=self.comms, runs=self.runs[i:j + 1] - a,
                          **cols)

    # -- derived columns ---------------------------------------------------

    @classmethod
    def assemble(cls, **cols) -> "TaskArrays":
        """Complete the primary columns ``cols`` with every derived one."""
        self = cls(**cols)
        T = self.n_tasks
        # One tree pattern per distinct (route, root, communicator).
        lo = min(int(self.bc_root.min(initial=0)),
                 int(self.bc_route.min(initial=0)), -1)
        span = max(int(self.bc_root.max(initial=0)),
                   int(self.bc_route.max(initial=0))) - lo + 1
        ncomm = max(len(self.comms), 1)
        key = ((self.bc_route - lo) * span + (self.bc_root - lo)) * ncomm \
            + self.bc_comm
        uniq, inv = np.unique(key, return_inverse=True)
        pats = []
        for u in uniq.tolist():
            u, comm = divmod(u, ncomm)
            route, root = divmod(u, span)
            pats.append(tree_arrays(route + lo, root + lo,
                                    tuple(self.comms[comm])))

        def expand(*cols):
            """Each spec's entry count, then its pattern's ``cols``."""
            n_of = np.asarray([p[cols[0]].size for p in pats], dtype=_I64)
            counts = n_of[inv]
            at = ranges(csr_ptr(n_of)[inv], counts)
            return (counts, *(np.concatenate([_NONE, *(p[c] for p in pats)])
                              [at] for c in cols))

        def per_task(per_spec):     # specs are task-contiguous
            return np.diff(csr_ptr(per_spec)[self.bc_ptr])

        schur = self.kind == SCHUR_UPDATE
        n_pair = np.diff(self.pair_ptr)
        # Event stream: a panel task's compute event, then its live pairs.
        n_live, src, dst = expand(0, 1)
        task_live = per_task(n_live)
        self.ev_ptr = csr_ptr(np.where(schur, n_pair, 1 + task_live))
        E = int(self.ev_ptr[-1])
        self.ev_src, self.ev_dst = np.empty((2, E), dtype=_I64)
        self.ev_val = np.empty(E)
        self.ev_kind = np.full(E, MSG, dtype=np.int8)
        head = self.ev_ptr[:-1][~schur]
        self.ev_src[head] = self.ev_dst[head] = self.owner[~schur]
        self.ev_val[head] = self.flops[~schur]
        self.ev_kind[head] = self.kind[~schur]
        at = ranges(self.ev_ptr[:-1] + 1, task_live)
        self.ev_src[at], self.ev_dst[at] = src, dst
        self.ev_val[at] = np.repeat(self.bc_words, n_live)
        at = ranges(self.ev_ptr[:-1], n_pair)   # Schur tasks' pairs only
        self.ev_src[at] = self.ev_dst[at] = self.pair_owner
        self.ev_val[at] = self.pair_flops
        self.ev_kind[at] = SCHUR_UPDATE
        # Memory stream: a panel task charges one receive buffer per
        # broadcast receiver; a Schur task releases its node's charges. A
        # node's panel tasks are one contiguous group of the schedule, so
        # that is one slice [lo, hi) of the charges.
        n_buf, buf_rank = expand(2)
        buf_words = np.repeat(self.bc_words, n_buf)
        buf_ptr = csr_ptr(per_task(n_buf))
        sch = np.flatnonzero(schur)
        panel = np.flatnonzero(~schur)
        panel = panel[np.argsort(self.node[panel], kind="stable")]
        first = np.searchsorted(self.node[panel], self.node[sch], "left")
        last = np.searchsorted(self.node[panel], self.node[sch], "right")
        sch, first, last = (x[last > first] for x in (sch, first, last))
        if (panel[last - 1] - panel[first] != last - first - 1).any():
            raise ValueError("a node's panel tasks must be contiguous in "
                             "plan list order")
        n_mem, start = np.diff(buf_ptr), buf_ptr[:-1].copy()
        start[sch] = buf_ptr[panel[first]]
        n_mem[sch] = buf_ptr[panel[last - 1] + 1] - start[sch]
        self.mem_ptr = csr_ptr(n_mem)
        at = ranges(start, n_mem)
        self.mem_rank, self.mem_words = buf_rank[at], buf_words[at]
        np.negative(self.mem_words, out=self.mem_words,
                    where=np.repeat(schur, n_mem))
        # Cut points.
        self.runs = np.concatenate(
            ([0], np.flatnonzero(np.diff(self.kind)) + 1, [T])
        ).astype(_I64) if T else np.zeros(1, dtype=_I64)
        return self

    # -- what execution reads ----------------------------------------------

    @cached_property
    def stream(self) -> EventStream:
        """The derived columns as the :class:`EventStream` the simulator
        books slices of (views; one block update per Schur GEMM)."""
        return EventStream(self.ev_src, self.ev_dst, self.ev_val,
                           self.ev_kind, self.ev_kind == SCHUR_UPDATE,
                           self.mem_rank, self.mem_words)

    def volume(self, nranks: int) -> Volume:
        """Per-rank words and messages (phase ``'fact'``), flops by kind,
        event counts and the receive-buffer peak of the whole plan: the
        stream's reduction — what a simulator books — with no simulator."""
        vol = Volume(nranks)
        vol.add(self.stream)
        return vol

    @cached_property
    def k_ptr(self) -> np.ndarray:
        """``ev_ptr``'s numeric twin: task ``t``'s ops in a bound kernel
        program (:meth:`repro.plan.backends.KernelBackend.bind`) are
        ``k_ptr[t]:k_ptr[t + 1]`` — one per Schur pair, none per L-panel
        solve (its node's factor op solves it) and one per other task."""
        return csr_ptr(np.where(self.kind == SCHUR_UPDATE,
                                np.diff(self.pair_ptr),
                                self.side != SIDES.index("L")))

    def __getstate__(self):     # the caches never ship
        return {k: v for k, v in self.__dict__.items()
                if k not in ("stream", "k_ptr")}


#: The columns the builder fills (``comms`` included) and the ones
#: :meth:`TaskArrays.assemble` derives from them.
PRIMARY = tuple(f.name for f in fields(TaskArrays) if f.default is MISSING)
DERIVED = tuple(f.name for f in fields(TaskArrays) if f.default is None)
