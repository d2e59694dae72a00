"""Pluggable kernel backends for the plan builder/interpreter.

A backend bundles everything variant-specific about a factorization:

* **plan emission** — how a supernode turns into ``PanelFactor`` /
  ``PanelBcast`` / ``SchurUpdate`` tasks, including each broadcast's
  participant list and routing (resolved here, at build time, into plain
  :class:`~repro.plan.tasks.BcastSpec` payloads);
* **numeric kernels** — what actually runs when the interpreter reaches a
  task in numeric mode (``getrf_nopiv`` for LU, ``potrf_shifted`` for
  Cholesky, in-place ``trsm`` panel solves and ``gemm_sub`` Schur
  accumulation for both — all from :mod:`repro.lu2d.kernels`); the
  interpreter books the simulator events itself, from the task's own
  fields and the backend's per-pair Schur cost arrays, so numeric and
  cost-only runs book identical events;
* **block enumeration** — the per-supernode block set the 3D replication
  and reduction layers iterate (full panels for LU, lower triangle for
  Cholesky).

Backends are stateless singletons resolved by name, so a
:class:`~repro.plan.tasks.GridPlan` pickles to a pool worker as data plus
a string.
"""

from __future__ import annotations

import numpy as np

from repro.lu2d.batched import schur_pair_costs, syrk_pair_costs
from repro.lu2d.kernels import gemm_sub, getrf_nopiv, potrf_shifted, trsm
from repro.lu2d.storage import node_blocks
from repro.plan.tasks import BcastSpec, PanelBcast, PanelFactor, SchurUpdate

__all__ = ["BuildContext", "KernelBackend", "LUBackend", "CholeskyBackend",
           "get_backend", "cholesky_node_blocks"]


def cholesky_node_blocks(sf, k: int) -> list[tuple[int, int, int]]:
    """Lower-triangle blocks of supernode ``k``: diagonal + L panel.

    The Cholesky analogue of :func:`repro.lu2d.storage.node_blocks` —
    half the storage, half the replication, half the reduction traffic.
    """
    s = sf.layout.block_size(k)
    out = [(k, k, s * (s + 1) // 2)]
    for i in sf.fill.lpanel[k]:
        out.append((int(i), k, sf.layout.block_size(int(i)) * s))
    return out


class BuildContext:
    """Shared state of one :func:`repro.plan.build.build_grid_plan` call."""

    def __init__(self, sf, grid, opts, counter, volume=None):
        from repro.comm.volume import DenseVolume
        self.sf = sf
        self.grid = grid
        self.opts = opts
        self.counter = counter
        self.sizes = sf.layout.sizes()
        # Every message the backends emit is priced through the block-
        # volume model; DenseVolume's cap is the identity, so dense plans
        # are bit-identical to the historical r*c arithmetic.
        self.volume = volume if volume is not None else DenseVolume()

    def next_tid(self) -> int:
        return self.counter.next()


class KernelBackend:
    """Interface; see :class:`LUBackend` for the reference implementation."""

    name: str = ""
    #: Whether the interpreter runs the accelerator sync prologue/epilogue
    #: around this backend's panels (the LU driver's HALO sync points) and
    #: decides offload per block pair; such a backend also provides
    #: ``accel_panel_ranks`` and ``pair_offload_words`` (see LUBackend).
    accel_aware: bool = False

    @staticmethod
    def node_blocks(sf, k):  # pragma: no cover - interface
        raise NotImplementedError

    def build_node(self, b: BuildContext, k: int, deps: tuple[int, ...]
                   ) -> tuple[PanelFactor, list[PanelBcast]]:
        raise NotImplementedError

    def build_schur(self, b: BuildContext, k: int, deps: tuple[int, ...]
                    ) -> SchurUpdate:
        raise NotImplementedError

    # -- execution ---------------------------------------------------------
    # Numeric bodies only: the interpreter books every simulator event
    # (fused or not) and calls these per task for the data movement alone.

    def pair_costs(self, sf, k: int, sizes, grid):
        """``(owners, flops)`` of node ``k``'s Schur update, one entry per
        block pair in :meth:`schur_numeric`'s order."""
        raise NotImplementedError

    def panel_numeric(self, ctx, task) -> None:
        raise NotImplementedError

    def schur_numeric(self, ctx, task: SchurUpdate) -> None:
        raise NotImplementedError


def _member_spec(root: int, ranks, words: float) -> BcastSpec:
    """LU convention: an owner outside the communicator joins it."""
    ranks = list(ranks)
    if root not in ranks:
        ranks = [root] + ranks
    return BcastSpec(root=root, ranks=tuple(ranks), words=words)


def _routed_spec(root: int, ranks, words: float) -> BcastSpec:
    """Cholesky convention: route through the communicator's entry rank."""
    ranks = list(ranks)
    if root not in ranks:
        return BcastSpec(root=ranks[0], ranks=tuple(ranks), words=words,
                         route_from=root)
    return BcastSpec(root=root, ranks=tuple(ranks), words=words)


class LUBackend(KernelBackend):
    """Right-looking supernodal LU (GESP, no dynamic pivoting)."""

    name = "lu"
    accel_aware = True
    node_blocks = staticmethod(node_blocks)

    # -- plan emission -----------------------------------------------------

    def build_node(self, b, k, deps):
        grid, sizes = b.grid, b.sizes
        s = int(sizes[k])
        lp, up = b.sf.fill.lpanel[k], b.sf.fill.upanel[k]
        owner_kk = grid.owner(k, k)
        tri_words = b.volume.cap(k, k, s * (s + 1) / 2.0)

        if b.opts.sparse_bcast:
            # SuperLU's BC trees span only ranks owning an update target:
            # panel rows {i mod Px} and panel columns {j mod Py}. Fixed
            # per node, so resolved once here (np.unique == sorted-set
            # ordering, identical to the historical driver).
            target_rows = np.unique(
                np.asarray(lp, dtype=np.int64) % grid.px).tolist()
            target_cols = np.unique(
                np.asarray(up, dtype=np.int64) % grid.py).tolist()
            row_cache: dict[int, list[int]] = {}
            col_cache: dict[int, list[int]] = {}

            def ranks_in_row(ic):
                ranks = row_cache.get(ic)
                if ranks is None:
                    ranks = [grid.rank(ic, pj) for pj in target_cols]
                    row_cache[ic] = ranks
                return ranks

            def ranks_in_col(jc):
                ranks = col_cache.get(jc)
                if ranks is None:
                    ranks = [grid.rank(pi, jc) for pi in target_rows]
                    col_cache[jc] = ranks
                return ranks

            diag_row = ranks_in_row(k % grid.px)
            diag_col = ranks_in_col(k % grid.py)
        else:
            ranks_in_row = ranks_in_col = None
            diag_row = grid.row_ranks(k)
            diag_col = grid.col_ranks(k)

        specs = []
        if len(up):
            specs.append(_member_spec(owner_kk, diag_row, tri_words))
        if len(lp):
            specs.append(_member_spec(owner_kk, diag_col, tri_words))
        pf = PanelFactor(tid=b.next_tid(), deps=deps, node=k, owner=owner_kk,
                         flops=float(b.sf.costs.factor_flops[k]),
                         bcasts=tuple(specs))

        pbs = []
        for j in up:
            j = int(j)
            sj = int(sizes[j])
            o = grid.owner(k, j)
            ranks = ranks_in_col(j % grid.py) if b.opts.sparse_bcast \
                else grid.col_ranks(j)
            pbs.append(PanelBcast(
                tid=b.next_tid(), deps=(pf.tid,), node=k, block=(k, j),
                side="U", owner=o, flops=float(s * s * sj),
                bcasts=(_member_spec(o, ranks,
                                     b.volume.cap(k, j, float(s * sj))),)))
        for i in lp:
            i = int(i)
            si = int(sizes[i])
            o = grid.owner(i, k)
            ranks = ranks_in_row(i % grid.px) if b.opts.sparse_bcast \
                else grid.row_ranks(i)
            pbs.append(PanelBcast(
                tid=b.next_tid(), deps=(pf.tid,), node=k, block=(i, k),
                side="L", owner=o, flops=float(s * s * si),
                bcasts=(_member_spec(o, ranks,
                                     b.volume.cap(i, k, float(si * s))),)))
        return pf, pbs

    def build_schur(self, b, k, deps):
        lp, up = b.sf.fill.lpanel[k], b.sf.fill.upanel[k]
        n_pairs = len(lp) * len(up)
        return SchurUpdate(
            tid=b.next_tid(), deps=deps, node=k, n_pairs=n_pairs,
            flops=float(b.sf.costs.schur_flops[k]))

    # -- execution ---------------------------------------------------------

    def pair_costs(self, sf, k, sizes, grid):
        return schur_pair_costs(k, sf.fill.lpanel[k], sf.fill.upanel[k],
                                sizes, grid)

    def accel_panel_ranks(self, sf, k, grid) -> list[int]:
        """Ranks whose accelerators must drain before node ``k``'s panel
        is factored: pending offloaded updates may target its blocks (the
        HALO sync point)."""
        return [grid.owner(k, k)] \
            + [grid.owner(k, int(j)) for j in sf.fill.upanel[k]] \
            + [grid.owner(int(i), k) for i in sf.fill.lpanel[k]]

    def pair_offload_words(self, sf, k, sizes) -> np.ndarray:
        """Words one offloaded pair GEMM moves over PCIe (both operands
        plus the result), parallel to :meth:`pair_costs`."""
        s = int(sizes[k])
        si = sizes[np.asarray(sf.fill.lpanel[k], dtype=np.int64)][:, None]
        sj = sizes[np.asarray(sf.fill.upanel[k], dtype=np.int64)][None, :]
        return (si * s + s * sj + si * sj).ravel().astype(np.float64)

    def panel_numeric(self, ctx, task):
        k = task.node
        if isinstance(task, PanelFactor):
            ctx.result.perturbed_pivots += getrf_nopiv(
                ctx.store[(k, k)], ctx.opts.pivot_eps)
            return
        i, j = task.block
        if task.side == "U":    # U_kj <- L_kk^{-1} A_kj
            trsm(ctx.store[(k, k)], ctx.store[(k, j)], side="L", lower=True,
                 unit=True)
        else:                   # L_ik <- A_ik U_kk^{-1}
            trsm(ctx.store[(k, k)], ctx.store[(i, k)], side="R", lower=False)

    def schur_numeric(self, ctx, task):
        k = task.node
        lp, up = ctx.sf.fill.lpanel[k], ctx.sf.fill.upanel[k]
        store = ctx.store
        for i in lp:
            i = int(i)
            Lik = store[(i, k)]
            for j in up:
                j = int(j)
                gemm_sub(store[(i, j)], Lik, store[(k, j)])


class CholeskyBackend(KernelBackend):
    """Right-looking supernodal Cholesky (lower triangle, shifted potrf)."""

    name = "cholesky"
    accel_aware = False
    node_blocks = staticmethod(cholesky_node_blocks)

    # -- plan emission -----------------------------------------------------

    def build_node(self, b, k, deps):
        grid, sizes = b.grid, b.sizes
        s = int(sizes[k])
        lp = b.sf.fill.lpanel[k]
        owner_kk = grid.owner(k, k)
        specs = []
        if len(lp):
            # L_kk down the process column for the panel solves.
            specs.append(_routed_spec(owner_kk, grid.col_ranks(k),
                                      b.volume.cap(k, k, s * (s + 1) / 2.0)))
        pf = PanelFactor(tid=b.next_tid(), deps=deps, node=k, owner=owner_kk,
                         flops=s ** 3 / 3.0, bcasts=tuple(specs))
        pbs = []
        for i in lp:
            i = int(i)
            si = int(sizes[i])
            o = grid.owner(i, k)
            # Left operand for block-row i; transposed right operand for
            # block-column i (the routed hop of pdpotrf).
            pbs.append(PanelBcast(
                tid=b.next_tid(), deps=(pf.tid,), node=k, block=(i, k),
                side="L", owner=o, flops=float(s * s * si),
                bcasts=(_routed_spec(o, grid.row_ranks(i),
                                     b.volume.cap(i, k, float(si * s))),
                        _routed_spec(o, grid.col_ranks(i),
                                     b.volume.cap(i, k, float(si * s))))))
        return pf, pbs

    def build_schur(self, b, k, deps):
        npanel = len(b.sf.fill.lpanel[k])
        n_pairs = npanel * (npanel + 1) // 2
        sizes = b.sizes
        s = int(sizes[k])
        lp = [int(i) for i in b.sf.fill.lpanel[k]]
        flops = 0.0
        for a, i in enumerate(lp):
            si = int(sizes[i])
            for j in lp[:a + 1]:
                sj = int(sizes[j])
                flops += float(si * s * sj) if i == j else 2.0 * si * s * sj
        return SchurUpdate(
            tid=b.next_tid(), deps=deps, node=k, n_pairs=n_pairs,
            flops=flops)

    # -- execution ---------------------------------------------------------

    def pair_costs(self, sf, k, sizes, grid):
        return syrk_pair_costs(k, sf.fill.lpanel[k], sizes, grid)

    def panel_numeric(self, ctx, task):
        k = task.node
        if isinstance(task, PanelFactor):
            L, nshift = potrf_shifted(ctx.store[(k, k)], ctx.opts.pivot_eps)
            ctx.store[(k, k)][:] = L
            ctx.result.perturbed_pivots += nshift
            return
        # L_ik <- A_ik L_kk^{-T}
        trsm(ctx.store[(k, k)], ctx.store[(task.block[0], k)], side="R",
             lower=True, trans=True)

    def schur_numeric(self, ctx, task):
        k = task.node
        store = ctx.store
        lp = [int(i) for i in ctx.sf.fill.lpanel[k]]
        for a, i in enumerate(lp):
            for j in lp[:a + 1]:
                gemm_sub(store[(i, j)], store[(i, k)], store[(j, k)],
                         trans_b=True)


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
