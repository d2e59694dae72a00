"""The array form of a grid plan: one struct-of-arrays over its tasks.

A grid plan *is* a :class:`TaskArrays`: parallel columns over the plan's
``T`` tasks in list (= schedule) order, plus CSR side tables. GLU3.0
(PAPERS.md) removed per-task host overhead the same way: levelized arrays
emitted once, fused by construction.

"Fused" and "per-task" execution are two *cut-point arrays* over the same
columns: ``runs`` cuts at every task-kind change (one interpreter dispatch
per maximal same-kind run), width 1 cuts at every task. Inside a panel
run, ``segs`` refines the cuts wherever hoisting a member's compute
booking above the run's earlier communication would not commute — so one
``compute_batch`` + one ``sendrecv_batch`` per segment books the per-event
ledger bit for bit.

The builder (:mod:`repro.plan.build`; :meth:`TaskArrays.from_records` for
a hand-edited task list) fills the primary columns and
:meth:`TaskArrays.assemble` derives everything executed from them, so the
typed width-1 view (:attr:`TaskArrays.records`) that analysis reads and
the arrays the interpreter walks cannot drift apart:
``from_records(records)`` reproduces the arrays column for column
(test-pinned, and re-checked by the analyzer on every plan it sees).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from repro.utils.ragged import csr_ptr, ragged

__all__ = ["PANEL_FACTOR", "PANEL_BCAST", "SCHUR_UPDATE", "SIDES",
           "TaskArrays", "tree_pattern"]

#: ``TaskArrays.kind`` codes.
PANEL_FACTOR, PANEL_BCAST, SCHUR_UPDATE = 0, 1, 2
#: ``TaskArrays.side`` codes (index = code).
SIDES = ("", "U", "L")

_I64 = np.int64


def tree_pattern(route: int, root: int, comm) -> tuple[list, list, list]:
    """``(srcs, dsts, receivers)`` of one broadcast over ``comm``: the
    exact pair sequence :func:`repro.comm.collectives.bcast` issues — the
    routing hop ``route -> root`` first (``route < 0``: none), then the
    binomial spans over ``[root] + others`` — and the ranks charged a
    receive buffer, in communicator order. It depends only on the three
    arguments, so a plan computes it once per distinct triple."""
    order = [root] + [r for r in comm if r != root]
    srcs, dsts = ([route], [root]) if route >= 0 else ([], [])
    p, span = len(order), 1
    while span < p:
        n = min(span, p - span)
        srcs += order[:n]
        dsts += order[span:span + n]
        span *= 2
    return srcs, dsts, order[1:]


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
    Derived by :meth:`assemble`: ``p2p_*`` (every task's broadcasts
    flattened to their point-to-point replay), ``buf_*`` (the receive
    buffers they charge), ``free_lo``/``free_hi`` (what a Schur task
    releases: its node's slice of ``buf_*``), the cut points ``runs`` /
    ``segs``.
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
    p2p_ptr: np.ndarray = None
    p2p_src: np.ndarray = None
    p2p_dst: np.ndarray = None
    p2p_words: np.ndarray = None
    buf_ptr: np.ndarray = None
    buf_rank: np.ndarray = None
    buf_words: np.ndarray = None
    free_lo: np.ndarray = None
    free_hi: np.ndarray = None
    runs: np.ndarray = None
    segs: np.ndarray = None

    @property
    def n_tasks(self) -> int:
        return int(self.kind.size)

    def cuts(self, fuse: bool) -> list[int]:
        """The walk's dispatch boundaries: ``runs`` or every task."""
        return self.hot.runs if fuse else list(range(self.n_tasks + 1))

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
        pat_src: list = []
        pat_dst: list = []
        pat_buf: list = []
        n_pair, n_buf = [], []
        for u in uniq.tolist():
            u, comm = divmod(u, ncomm)
            route, root = divmod(u, span)
            s, d, b = tree_pattern(route + lo, root + lo, self.comms[comm])
            pat_src += s
            pat_dst += d
            pat_buf += b
            n_pair.append(len(s))
            n_buf.append(len(b))

        def flatten(counts, *patterns):
            """Per-task ptr, per-entry words and pattern columns of every
            spec's pattern entries, concatenated in spec order."""
            counts = np.asarray(counts, dtype=_I64)
            start = csr_ptr(counts)[inv]
            counts = counts[inv]                  # per spec
            spec, off = ragged(counts)
            at = start[spec] + off
            return (csr_ptr(counts)[self.bc_ptr],  # specs: task-contiguous
                    self.bc_words[spec],
                    *(np.asarray(p, dtype=_I64)[at] for p in patterns))

        self.p2p_ptr, self.p2p_words, self.p2p_src, self.p2p_dst = flatten(
            n_pair, pat_src, pat_dst)
        self.buf_ptr, self.buf_words, self.buf_rank = flatten(n_buf, pat_buf)
        # A Schur task releases its node's charges. A node's panel tasks
        # are one contiguous group of the schedule, so that is one slice
        # of the buffer columns: [free_lo, free_hi).
        schur = np.flatnonzero(self.kind == SCHUR_UPDATE)
        panel = np.flatnonzero(self.kind != SCHUR_UPDATE)
        panel = panel[np.argsort(self.node[panel], kind="stable")]
        first = np.searchsorted(self.node[panel], self.node[schur], "left")
        last = np.searchsorted(self.node[panel], self.node[schur], "right")
        schur, first, last = (x[last > first] for x in (schur, first, last))
        if (panel[last - 1] - panel[first] != last - first - 1).any():
            raise ValueError("a node's panel tasks must be contiguous in "
                             "plan list order")
        self.free_lo, self.free_hi = np.zeros((2, T), dtype=_I64)
        self.free_lo[schur] = self.buf_ptr[panel[first]]
        self.free_hi[schur] = self.buf_ptr[panel[last - 1] + 1]
        # Cut points.
        self.runs = np.concatenate(
            ([0], np.flatnonzero(np.diff(self.kind)) + 1, [T])
        ).astype(_I64) if T else np.zeros(1, dtype=_I64)
        self.segs = self._hoist_cuts()
        return self

    def _hoist_cuts(self) -> np.ndarray:
        """``runs`` refined by the hoist rule (greedy, maximal segments):
        a panel segment books its members' compute events before its
        communication, which commutes with the per-event order iff no
        member's compute rank appears in an *earlier* member's
        communicator (routing origin included). Ranks are bits of Python
        ints, so one shift tests a member against the segment."""
        masks = [0] * self.n_tasks
        comm_mask = [sum(1 << r for r in set(c) if r >= 0)
                     for c in self.comms]
        task_of = np.repeat(np.arange(self.n_tasks),
                            np.diff(self.bc_ptr)).tolist()
        for t, c, route in zip(task_of, self.bc_comm.tolist(),
                               self.bc_route.tolist()):
            masks[t] |= comm_mask[c] | (1 << route if route >= 0 else 0)
        owner = self.owner.tolist()
        cuts = []
        runs = self.runs.tolist()
        for a, b in zip(runs, runs[1:]):
            cuts.append(a)
            seen = masks[a]
            for t in range(a + 1, b):   # Schur runs: owner -1, masks 0
                if owner[t] >= 0 and (seen >> owner[t]) & 1:
                    cuts.append(t)
                    seen = 0
                seen |= masks[t]
        cuts.append(self.n_tasks)
        return np.asarray(cuts, dtype=_I64)

    # -- the walk's view ---------------------------------------------------

    @cached_property
    def hot(self) -> SimpleNamespace:
        """The columns the interpreter indexes per dispatch, as plain
        lists: scalar indexing and small slices cost a fraction of their
        ndarray equivalents, and the simulator books small list batches
        through scalar loops. Built on first execution, never pickled."""
        names = ("kind", "node", "bi", "bj", "owner", "flops", "p2p_ptr",
                 "p2p_src", "p2p_dst", "p2p_words", "buf_ptr", "buf_rank",
                 "buf_words", "free_lo", "free_hi", "pair_ptr", "pair_owner",
                 "pair_flops", "runs", "segs")
        return SimpleNamespace(**{n: getattr(self, n).tolist()
                                  for n in names})

    def __getstate__(self):     # the two caches never ship
        return {k: v for k, v in self.__dict__.items()
                if k not in ("hot", "records")}

    # -- the typed width-1 view --------------------------------------------

    @cached_property
    def records(self) -> list:
        """The tasks as typed records, one per task, in list order: built
        on first use (analysis only — execution never touches it)."""
        from repro.plan.tasks import (BcastSpec, PanelBcast, PanelFactor,
                                      SchurUpdate)
        c = SimpleNamespace(**{n: getattr(self, n).tolist() for n in (
            "tid", "kind", "node", "bi", "bj", "side", "owner", "flops",
            "dep_ptr", "dep_idx", "bc_ptr", "bc_root", "bc_comm", "bc_words",
            "bc_route", "pair_ptr")})
        specs = [BcastSpec(root, tuple(self.comms[comm]), words,
                           None if route < 0 else route)
                 for root, comm, words, route in zip(
                     c.bc_root, c.bc_comm, c.bc_words, c.bc_route)]
        out = []
        for t, kind in enumerate(c.kind):
            common = dict(
                tid=c.tid[t], node=c.node[t], flops=c.flops[t],
                deps=tuple(c.dep_idx[c.dep_ptr[t]:c.dep_ptr[t + 1]]))
            if kind == SCHUR_UPDATE:
                out.append(SchurUpdate(
                    n_pairs=c.pair_ptr[t + 1] - c.pair_ptr[t], **common))
                continue
            common.update(owner=c.owner[t],
                          bcasts=tuple(specs[c.bc_ptr[t]:c.bc_ptr[t + 1]]))
            out.append(PanelFactor(**common) if kind == PANEL_FACTOR else
                       PanelBcast(block=(c.bi[t], c.bj[t]),
                                  side=SIDES[c.side[t]], **common))
        return out

    @classmethod
    def from_records(cls, tasks, pair_costs) -> "TaskArrays":
        """Pack a task list back into arrays — :attr:`records`' inverse.
        ``pair_costs`` maps a node to its Schur ``(owners, flops)`` pair
        arrays (the one column a ``SchurUpdate`` record does not carry)."""
        from repro.plan.tasks import PanelFactor, SchurUpdate
        comm_ids: dict = {}
        rows, specs, dep_idx, n_dep, n_spec, pairs = [], [], [], [], [], []
        no_pairs = (np.zeros(0, dtype=_I64), np.zeros(0))
        for t in tasks:
            if isinstance(t, SchurUpdate):
                head, tail = SCHUR_UPDATE, (t.node, t.node, 0, -1)
            elif isinstance(t, PanelFactor):
                head, tail = PANEL_FACTOR, (t.node, t.node, 0, t.owner)
            else:
                head, tail = PANEL_BCAST, (*t.block, SIDES.index(t.side),
                                           t.owner)
            rows.append((t.tid, head, t.node, *tail, t.flops))
            bcasts = getattr(t, "bcasts", ())
            specs += [(s.root,
                       comm_ids.setdefault(tuple(s.ranks), len(comm_ids)),
                       s.words, -1 if s.route_from is None else s.route_from)
                      for s in bcasts]
            dep_idx += t.deps
            n_dep.append(len(t.deps))
            n_spec.append(len(bcasts))
            pairs.append(pair_costs[t.node] if head == SCHUR_UPDATE
                         else no_pairs)

        def columns(tuples, dtypes):
            cols = zip(*tuples) if tuples else [()] * len(dtypes)
            return [np.asarray(c, dtype=d) for c, d in zip(cols, dtypes)]

        tid, kind, node, bi, bj, side, owner, flops = columns(
            rows, (_I64, np.int8, _I64, _I64, _I64, np.int8, _I64, float))
        root, comm, words, route = columns(specs, (_I64, _I64, float, _I64))
        return cls.assemble(
            tid=tid, kind=kind, node=node, bi=bi, bj=bj, side=side,
            owner=owner, flops=flops, dep_ptr=csr_ptr(n_dep),
            dep_idx=np.asarray(dep_idx, dtype=_I64), bc_ptr=csr_ptr(n_spec),
            bc_root=root, bc_comm=comm, bc_words=words, bc_route=route,
            comms=list(comm_ids),
            pair_ptr=csr_ptr([p[0].size for p in pairs]),
            pair_owner=np.concatenate([p[0] for p in [no_pairs, *pairs]]),
            pair_flops=np.concatenate([p[1] for p in [no_pairs, *pairs]]))

    def schur_pair_costs(self) -> dict:
        """``node -> (owners, flops)`` of every Schur task (what
        :meth:`from_records` needs back)."""
        ptr = self.pair_ptr
        return {int(self.node[t]): (self.pair_owner[ptr[t]:ptr[t + 1]],
                                    self.pair_flops[ptr[t]:ptr[t + 1]])
                for t in np.flatnonzero(self.kind == SCHUR_UPDATE)}
