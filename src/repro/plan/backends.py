"""Pluggable kernel backends for the plan builder/interpreter.

A backend bundles everything variant-specific about a factorization:

* **plan emission** — the panel tasks of a whole node list as parallel
  columns (:meth:`KernelBackend.emit_panels`: one diagonal-factor task per
  node followed by its panel-solve tasks, and every broadcast's root,
  communicator, payload and routing hop, all resolved here at build time)
  and the Schur tasks' per-pair cost arrays
  (:meth:`KernelBackend.emit_schur`) — numpy over the concatenated panels,
  no per-block Python;
* **numeric kernels** — :meth:`KernelBackend.bind` turns a grid plan and
  a block store into a flat *kernel program*, one pre-bound op per factor
  / panel-solve task and one per Schur pair (``GETRF`` for LU, ``POTRF``
  for Cholesky, ``trsm_op`` panel solves and ``gemm_ops`` Schur
  accumulation for both — all from :mod:`repro.lu2d.kernels`, whose
  ``execute`` runs slices of it); the interpreter books the simulator
  events itself, from the plan's arrays, so numeric and cost-only runs
  book identical events;
* **block enumeration** — the per-supernode block set the 3D replication
  and reduction layers iterate (full panels for LU, lower triangle for
  Cholesky).

Backends are stateless singletons resolved by name: a
:class:`~repro.plan.tasks.GridPlan` holds data plus a string.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.comm.grid import ProcessGrid2D
from repro.lu2d.batched import schur_pairs, syrk_pairs
from repro.lu2d.kernels import GETRF, POTRF, gemm_ops, trsm_op
from repro.lu2d.storage import block_rows, cholesky_node_blocks, node_blocks
from repro.plan.arrays import PANEL_FACTOR, SCHUR_UPDATE
from repro.utils.ragged import ragged

__all__ = ["BuildContext", "KernelBackend", "LUBackend", "CholeskyBackend",
           "get_backend", "cholesky_node_blocks"]


class BuildContext:
    """Shared state of one :func:`repro.plan.build.build_level` pass: the
    level's 2D shape as the base-0 ``grid``, its grids' base ranks
    ``bases`` and, per node, the index ``slot`` of the grid factoring it."""

    def __init__(self, sf, px, py, bases, slot, opts, volume):
        self.sf = sf
        self.grid = ProcessGrid2D(px, py)
        self.bases = np.asarray(bases, dtype=np.int64)
        self.slot = slot
        self.opts = opts
        self.sizes = sf.layout.sizes()
        # Every message the backends emit is priced through the block-
        # volume model; DenseVolume's cap is the identity, so dense plans
        # are bit-identical to the historical r*c arithmetic.
        self.volume = volume
        #: Interned communicators: rank tuple -> id, in id order.
        self.comm_ids: dict[tuple[int, ...], int] = {}
        ranks = (self.bases[:, None, None]
                 + np.arange(px * py).reshape(px, py)).tolist()
        #: ``[grid slot, process row / column]`` -> communicator id.
        self.row_comm = np.asarray(
            [[self.comm_id(row) for row in g] for g in ranks])
        self.col_comm = np.asarray(
            [[self.comm_id(col) for col in zip(*g)] for g in ranks])

    def comm_id(self, ranks) -> int:
        return self.comm_ids.setdefault(tuple(ranks), len(self.comm_ids))

    def owner(self, i, j, k) -> np.ndarray:
        """Elementwise owner rank of block ``(i, j)`` on the grid that
        factors node ``k``."""
        return self.grid.owner_pairs(i, j) + self.bases[self.slot[k]]

    def panel_layout(self, ks, upper: bool) -> SimpleNamespace:
        """The panel-task columns both backends share. Node ``ks[g]``
        contributes ``count[g]`` consecutive tasks: its factor task (at
        ``pf[g]``), its U solves (``upper`` only; block ``(k, ju[e])`` at
        ``pu[e]`` for node ``gu[e]``), then its L solves (``(il[e], k)``
        at ``pl[e]`` for node ``gl[e]``). ``bi``/``bj``/``side`` are
        complete, ``flops`` lacks the factor tasks'; ``s`` is the node
        sizes and ``nu``/``nl`` the panel lengths."""
        lp_ptr, lp_idx, up_ptr, up_idx = self.sf.fill.panel_csr()

        def flat(ptr, idx):     # (n, group, offset, block ids) of a panel
            n = ptr[ks + 1] - ptr[ks]
            g, w = ragged(n)
            return n, g, w, idx[ptr[ks][g] + w]

        nl, gl, wl, il = flat(lp_ptr, lp_idx)
        nu, gu, wu, ju = flat(up_ptr, up_idx) if upper \
            else flat(np.zeros_like(up_ptr), up_idx)
        count = 1 + nu + nl
        pf = np.cumsum(count) - count
        pu, pl = pf[gu] + 1 + wu, pf[gl] + 1 + nu[gl] + wl
        n = int(count.sum())
        bi, bj = np.empty(n, np.int64), np.empty(n, np.int64)
        side, flops = np.zeros(n, np.int8), np.empty(n)
        s = self.sizes[ks]
        bi[pf] = bj[pf] = ks
        bi[pu], bj[pu], side[pu] = ks[gu], ju, 1
        bi[pl], bj[pl], side[pl] = il, ks[gl], 2
        flops[pu] = s[gu] * s[gu] * self.sizes[ju]
        flops[pl] = s[gl] * s[gl] * self.sizes[il]
        return SimpleNamespace(
            count=count, pf=pf, pu=pu, pl=pl, nu=nu, gu=gu, ju=ju, nl=nl,
            gl=gl, il=il, s=s, bi=bi, bj=bj, side=side, flops=flops)


class KernelBackend:
    """Interface; see :class:`LUBackend` for the reference implementation."""

    name: str = ""
    #: Op code of the diagonal factorization (``GETRF`` / ``POTRF``).
    factor_op: int = -1

    def emit_panels(self, b: BuildContext, ks: np.ndarray):
        """Panel tasks of node list ``ks``, as columns: node ``g``
        contributes ``count[g]`` consecutive tasks (its factor task first)
        with blocks ``bi``/``bj``, ``side`` code and ``flops``; ``spec_*``
        list every broadcast in task order (``spec_task`` indexes the
        concatenated tasks, ``spec_route`` is -1 without a routing hop)."""
        raise NotImplementedError

    def emit_schur(self, b: BuildContext, ks: np.ndarray):
        """Schur tasks of ``ks``: per-node total ``flops`` and pair
        ``count``, concatenated per-pair ``owners`` / ``pair_flops``."""
        raise NotImplementedError

    # -- execution ---------------------------------------------------------

    #: Which entries at permuted ``(rows, cols)`` this backend binds (a
    #: mask; ``None``: all), for :meth:`BlockMatrix.value_map`.
    keeps = None

    def bind(self, arrays, store, sf) -> list:
        """The kernel program of grid plan ``arrays`` on ``store`` (any
        mapping ``(i, j) -> C-contiguous float64 block``): task ``t``'s ops
        are ``arrays.k_ptr[t]:arrays.k_ptr[t + 1]`` — one per factor /
        panel-solve task, one per Schur pair in pair order — each with its
        operands looked up and its BLAS flags derived once, here (the
        backend's ``panel_op`` / ``schur_ops``). Any walk executes slices
        of the list (:func:`repro.lu2d.kernels.execute`).

        Every L-panel solve and Schur pair runs on a row slice of its L
        block (:func:`repro.lu2d.storage.block_rows`), outside which the
        factors are structurally zero."""
        rows = block_rows(sf, self.node_blocks)[2]
        prog: list = []
        for kind, k, i, j in zip(arrays.kind.tolist(), arrays.node.tolist(),
                                 arrays.bi.tolist(), arrays.bj.tolist()):
            if kind == SCHUR_UPDATE:
                prog += self.schur_ops(store, sf, k, rows)
            elif kind == PANEL_FACTOR:
                prog.append((self.factor_op, store[(k, k)], None, None, None))
            else:
                prog.append(self.panel_op(store, k, i, j, rows))
        if not all(op[1].dtype == np.float64 and op[1].flags.f_contiguous
                   for op in prog if op[0] != self.factor_op):
            raise ValueError("kernel programs overwrite blocks in place: "
                             "the store must hold C-contiguous float64")
        return prog


def _panel_columns(lay, parts) -> SimpleNamespace:
    """``emit_panels``' result: the task columns of layout ``lay`` plus
    the per-family ``(task, sub, root, comm, words, route)`` spec columns
    ``parts`` merged into task order (``sub`` orders a task's own
    broadcasts)."""
    spec = [np.concatenate([p[c] if np.ndim(p[c]) else
                            np.full(p[0].shape, p[c]) for p in parts])
            for c in range(6)]
    order = np.argsort(spec[0] * 2 + spec[1], kind="stable")
    task, _sub, root, comm, words, route = (c[order] for c in spec)
    return SimpleNamespace(
        count=lay.count, bi=lay.bi, bj=lay.bj, side=lay.side,
        flops=lay.flops, spec_task=task, spec_root=root, spec_comm=comm,
        spec_words=words.astype(np.float64), spec_route=route)


class LUBackend(KernelBackend):
    """Right-looking supernodal LU (GESP, no dynamic pivoting)."""

    name = "lu"
    factor_op = GETRF
    node_blocks = staticmethod(node_blocks)

    # -- plan emission -----------------------------------------------------

    def emit_panels(self, b, ks):
        grid, sizes, lay = b.grid, b.sizes, b.panel_layout(ks, upper=True)
        s, gu, ju, gl, il = lay.s, lay.gu, lay.ju, lay.gl, lay.il
        lay.flops[lay.pf] = b.sf.costs.factor_flops[ks]
        if b.opts.sparse_bcast:
            row_of, col_of = self._sparse_comms(b, ks, gu, ju, gl, il)
        else:           # whole process rows / columns (Section IV)
            slot = b.slot[ks]

            def row_of(g, i):
                return b.row_comm[slot[g], i % grid.px]

            def col_of(g, j):
                return b.col_comm[slot[g], j % grid.py]

        has_u, has_l = np.flatnonzero(lay.nu), np.flatnonzero(lay.nl)
        k_u, k_l = ks[has_u], ks[has_l]
        tri = b.volume.cap_many(ks, ks, s * (s + 1) / 2.0)
        return _panel_columns(lay, [
            # U_kk along the process row, L_kk down the process column
            (lay.pf[has_u], 0, b.owner(k_u, k_u, k_u), row_of(has_u, k_u),
             tri[has_u], -1),
            (lay.pf[has_l], 1, b.owner(k_l, k_l, k_l), col_of(has_l, k_l),
             tri[has_l], -1),
            (lay.pu, 0, b.owner(ks[gu], ju, ks[gu]), col_of(gu, ju),
             b.volume.cap_many(ks[gu], ju, s[gu] * sizes[ju]), -1),
            (lay.pl, 0, b.owner(il, ks[gl], ks[gl]), row_of(gl, il),
             b.volume.cap_many(il, ks[gl], sizes[il] * s[gl]), -1)])

    @staticmethod
    def _sparse_comms(b, ks, gu, ju, gl, il):
        """SuperLU's BC trees span only ranks owning an update target:
        panel rows ``{i mod Px}`` and panel columns ``{j mod Py}`` of the
        node, in sorted order; an owner outside them joins in front (the
        LU convention). Returns the per-(node, block) communicator
        lookups ``row_of(g, i)`` / ``col_of(g, j)``."""
        grid = b.grid
        px, py, n_grids = grid.px, grid.py, b.bases.size

        def table(present, own, lines, rank_at):
            # present[g, x]: coordinate x of the line holds a target of
            # node g; own[g]: the root's coordinate along the line. One
            # communicator per distinct (members, root, grid).
            q = present.shape[1]
            key = ((present @ (1 << np.arange(q))) * q + own) * n_grids \
                + b.slot[ks]
            uniq, inv = np.unique(key, return_inverse=True)
            ids = np.empty((uniq.size, lines), dtype=np.int64)
            for u, v in enumerate(uniq.tolist()):
                v, slot = divmod(v, n_grids)
                mask, o = divmod(v, q)
                base = int(b.bases[slot])
                members = [x for x in range(q) if mask >> x & 1]
                for line in range(lines):
                    ranks = [base + rank_at(line, x) for x in members]
                    if o not in members:
                        ranks.insert(0, base + rank_at(line, o))
                    ids[u, line] = b.comm_id(ranks)
            return ids[inv]

        cols = np.zeros((ks.size, py), dtype=bool)
        cols[gu, ju % py] = True
        rows = np.zeros((ks.size, px), dtype=bool)
        rows[gl, il % px] = True
        row_tab = table(cols, ks % py, px, lambda pi, pj: grid.rank(pi, pj))
        col_tab = table(rows, ks % px, py, lambda pj, pi: grid.rank(pi, pj))
        return (lambda g, i: row_tab[g, i % px]), \
            (lambda g, j: col_tab[g, j % py])

    def emit_schur(self, b, ks):
        lp_ptr, lp_idx, up_ptr, up_idx = b.sf.fill.panel_csr()
        count, local, flops = schur_pairs(
            b.sizes[ks], lp_ptr[ks], lp_ptr[ks + 1] - lp_ptr[ks], lp_idx,
            up_ptr[ks], up_ptr[ks + 1] - up_ptr[ks], up_idx, b.sizes, b.grid)
        return SimpleNamespace(
            flops=b.sf.costs.schur_flops[ks], count=count, pair_flops=flops,
            owners=local + np.repeat(b.bases[b.slot[ks]], count))

    # -- execution ---------------------------------------------------------

    def panel_op(self, store, k, i, j, rows):
        if i == k:              # U_kj <- L_kk^{-1} A_kj
            return trsm_op(store[(k, k)], store[(k, j)], side="L",
                           lower=True, unit=True)
        # L_ik <- A_ik U_kk^{-1}, on its structural rows
        return trsm_op(store[(k, k)], store[(i, k)][rows[(i, k)]], side="R",
                       lower=False)

    def schur_ops(self, store, sf, k, rows):
        lp = [(i, rows[(i, k)]) for i in sf.fill.lpanel[k].tolist()]
        up = sf.fill.upanel[k].tolist()
        return gemm_ops([[store[(i, j)][r] for j in up] for i, r in lp],
                        [store[(i, k)][r] for i, r in lp],
                        [store[(k, j)] for j in up])


class CholeskyBackend(KernelBackend):
    """Right-looking supernodal Cholesky (lower triangle, shifted potrf)."""

    name = "cholesky"
    factor_op = POTRF
    node_blocks = staticmethod(cholesky_node_blocks)

    # -- plan emission -----------------------------------------------------

    def emit_panels(self, b, ks):
        grid, lay = b.grid, b.panel_layout(ks, upper=False)
        s, gl, il = lay.s, lay.gl, lay.il
        lay.flops[lay.pf] = s ** 3 / 3.0
        has_l = np.flatnonzero(lay.nl)
        k_l, kk = ks[has_l], ks[gl]
        slot = b.slot[kk]
        o = b.owner(il, kk, kk)
        words = b.volume.cap_many(il, kk, b.sizes[il] * s[gl])
        # The transposed operand goes down block-column i's process
        # column; an owner outside it routes the payload through the
        # column's entry rank first (the routed hop of pdpotrf).
        inside = kk % grid.py == il % grid.py
        entry = b.owner(np.zeros_like(il), il, kk)
        return _panel_columns(lay, [
            # L_kk down the process column for the panel solves
            (lay.pf[has_l], 0, b.owner(k_l, k_l, k_l),
             b.col_comm[b.slot[k_l], k_l % grid.py],
             b.volume.cap_many(k_l, k_l, (s * (s + 1) / 2.0)[has_l]), -1),
            # left operand along block-row i's process row
            (lay.pl, 0, o, b.row_comm[slot, il % grid.px], words, -1),
            (lay.pl, 1, np.where(inside, o, entry),
             b.col_comm[slot, il % grid.py], words, np.where(inside, -1, o))])

    def emit_schur(self, b, ks):
        lp_ptr, lp_idx, _up_ptr, _up_idx = b.sf.fill.panel_csr()
        count, local, flops = syrk_pairs(
            b.sizes[ks], lp_ptr[ks], lp_ptr[ks + 1] - lp_ptr[ks], lp_idx,
            b.sizes, b.grid)
        node = np.repeat(np.arange(ks.size), count)
        return SimpleNamespace(
            flops=np.bincount(node, weights=flops, minlength=ks.size),
            count=count, pair_flops=flops,
            owners=local + b.bases[b.slot[ks]][node])

    # -- execution ---------------------------------------------------------

    @staticmethod
    def keeps(rows, cols):
        """The lower triangle: the one this backend stores and reads."""
        return rows >= cols

    def panel_op(self, store, k, i, j, rows):  # L_ik <- A_ik L_kk^{-T}
        return trsm_op(store[(k, k)], store[(i, k)][rows[(i, k)]],
                       side="R", lower=True, trans=True)

    def schur_ops(self, store, sf, k, rows):
        lp = sf.fill.lpanel[k].tolist()
        L = [(i, rows[(i, k)]) for i in lp]
        return gemm_ops([[store[(i, j)][r] for j in lp[:a + 1]]
                         for a, (i, r) in enumerate(L)],
                        [store[(i, k)][r] for i, r in L],
                        [store[(j, k)] for j in lp], trans_b=True)


_BACKENDS: dict[str, KernelBackend] = {}
for _cls in (LUBackend, CholeskyBackend):
    _BACKENDS[_cls.name] = _cls()


def get_backend(name: str) -> KernelBackend:
    """Resolve a kernel backend by name ('lu' or 'cholesky')."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"expected one of {sorted(_BACKENDS)}") from None
