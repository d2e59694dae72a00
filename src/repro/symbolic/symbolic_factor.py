"""The symbolic-factorization product consumed by every downstream layer.

:func:`symbolic_factorize` = nested dissection + a row order inside blocks +
symmetric permutation + block symbolic elimination + per-node cost
estimation. The result is enough to (a) run the numeric 2D/3D
factorizations, (b) run them in cost-only mode (no numerics), and (c) drive
the paper's load-balance heuristic, whose cost function T(v) is "number of
floating-point operations in factoring node v" (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ordering.nested_dissection import DissectionTree, cap_split, \
    nested_dissection
from repro.sparse.blockmatrix import BlockLayout
from repro.sparse.generators import GridGeometry
from repro.symbolic.fill import BlockFill, block_fill, row_ranges
from repro.utils import check_square_sparse

__all__ = ["NodeCosts", "SymbolicFactorization", "symbolic_factorize"]


@dataclass
class NodeCosts:
    """Per-supernode flop and storage estimates (dense-block model).

    All arrays have length ``nb``. The flop conventions follow LAPACK
    counts: ``2/3 s^3`` for an s×s LU, ``s^2 m`` for an s×s triangular solve
    against m vectors, ``2 m s n`` for an (m×s)·(s×n) GEMM.
    """

    factor_flops: np.ndarray   # diagonal block LU
    panel_flops: np.ndarray    # L and U panel triangular solves
    schur_flops: np.ndarray    # Schur-complement GEMMs sourced at this node
    factor_words: np.ndarray   # words of L/U factor storage owned by the node

    @property
    def node_flops(self) -> np.ndarray:
        """Total flops attributed to factoring each node, the paper's T(v)."""
        return self.factor_flops + self.panel_flops + self.schur_flops

    @property
    def total_flops(self) -> float:
        return float(self.node_flops.sum())

    @property
    def total_words(self) -> float:
        return float(self.factor_words.sum())


class SymbolicFactorization:
    """Everything known about the factorization before any numeric work.

    Attributes
    ----------
    A_perm:
        The input matrix under the dissection permutation (CSR).
    tree:
        The dissection tree; its postorder ids are the block indices.
    fill:
        Filled L/U panel block structure.
    costs:
        Per-node flop/word estimates.
    """

    def __init__(self, A_perm: sp.csr_matrix, tree: DissectionTree,
                 fill: BlockFill, costs: NodeCosts,
                 blocking_info: dict | None = None):
        self.A_perm = self._analyzed = A_perm
        self.tree = tree
        self.fill = fill
        self.costs = costs
        #: How the block boundaries were chosen: ``{"strategy": "uniform"}``
        #: for the default path; the irregular path records snap/amalgamation
        #: activity plus which candidate the uniform floor selected.
        self.blocking_info = blocking_info or {"strategy": "uniform"}

    # -- convenience -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.A_perm.shape[0]

    @property
    def nb(self) -> int:
        return self.tree.nblocks

    @property
    def layout(self) -> BlockLayout:
        return self.tree.layout

    @property
    def perm(self):
        return self.tree.perm

    def row_ranges(self, upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``fill.row_ranges`` of the pattern analyzed, not a later one
        (``upper``: of the transposed fill, the U blocks' column ranges)."""
        return row_ranges(self._analyzed, self.layout, BlockFill(
            self.fill.upanel, self.fill.lpanel) if upper else self.fill)

    def subtree_flops(self, k: int) -> float:
        """Total node flops over the subtree rooted at ``k`` (paper's T(C))."""
        return float(self.costs.node_flops[self.tree.subtree_of(k)].sum())

    def fill_ratio(self) -> float:
        """Filled factor words / nnz(A) — the usual fill-in metric."""
        return self.costs.total_words / max(self.A_perm.nnz, 1)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"SymbolicFactorization(n={self.n}, nb={self.nb}, "
                f"flops={self.costs.total_flops:.3e}, "
                f"factor_words={self.costs.total_words:.3e})")


def _compute_costs(layout: BlockLayout, fill: BlockFill) -> NodeCosts:
    nb = layout.nblocks
    s = layout.sizes().astype(np.float64)
    lp_ptr, lp_idx, up_ptr, up_idx = fill.panel_csr()
    # Panel row / column totals: sums of integer-valued floats, exact in
    # any order, so one bincount each equals the per-node sum.
    lsum = np.bincount(np.repeat(np.arange(nb), np.diff(lp_ptr)), s[lp_idx], minlength=nb)
    usum = np.bincount(np.repeat(np.arange(nb), np.diff(up_ptr)), s[up_idx], minlength=nb)
    # GEMM flops: sum_{i,j} 2 * s_i * s * s_j = 2 s (sum s_i)(sum s_j)
    return NodeCosts((2.0 / 3.0) * s ** 3, s * s * (lsum + usum),
                     2.0 * s * lsum * usum, s * s + s * (lsum + usum))


def _row_order(A: sp.csr_matrix, tree: DissectionTree) -> DissectionTree:
    """``tree`` with each block's vertices stably sorted by the smallest
    earlier block they touch in ``A + Aᵀ`` (last if none): a row's first L
    block, as :func:`row_ranges` only carries rows on to later nodes. With
    subtrees ``first[k] .. k`` each L block's rows are then one range where
    the touch sets nest. A tree already in this order is returned."""
    tree.perm._check(A.shape[0], "matrix")
    nb, perm = tree.nblocks, tree.perm.perm
    block = np.repeat(np.arange(nb), tree.sizes)
    at, per_row = block[tree.perm.iperm], np.diff(A.indptr)  # input order
    low = np.full(A.shape[0], nb)           # smallest block touched
    low[per_row > 0] = np.minimum.reduceat(at[A.indices],
                                           A.indptr[:-1][per_row > 0])
    np.minimum.at(low, A.indices, np.repeat(at, per_row))
    order = np.argsort(block * (nb + 1) + np.minimum(low[perm], block),
                       kind="stable")      # own block: none earlier
    return tree if (order == np.arange(order.size)).all() else \
        DissectionTree(tree.parent, perm[order], tree.layout.offsets)


def _build_on(A: sp.csr_matrix, tree: DissectionTree) -> tuple:
    """Row-order + permute + fill + cost one candidate tree."""
    tree = _row_order(A, tree)
    A_perm = tree.perm.apply_matrix(A)
    fill = block_fill(A_perm, tree.layout, tree_parent=tree.parent)
    costs = _compute_costs(tree.layout, fill)
    return A_perm, tree, fill, costs


def symbolic_factorize(A: sp.spmatrix, geometry: GridGeometry | None = None,
                       leaf_size: int = 64, method: str = "bfs",
                       tree: DissectionTree | None = None,
                       max_block: int | None = None,
                       blocking: str = "uniform"
                       ) -> SymbolicFactorization:
    """Run the full symbolic phase on ``A``.

    Parameters
    ----------
    A:
        Square sparse matrix (any scipy format).
    geometry:
        Lattice geometry from the generators, enabling geometric dissection.
    leaf_size:
        Dissection stops when a region has at most this many vertices; this
        is the supernode granularity knob.
    method:
        Separator method for non-geometric dissection (``'bfs'``/``'fiedler'``).
    tree:
        Pre-computed dissection tree (skips ordering); used by the ablation
        benchmarks to compare partitions on a fixed structure, and the way
        to factor a :func:`repro.ordering.relax_supernodes` tree. It must
        be a tree of ``A``'s size. Its order inside blocks is refined
        (``sf.tree`` is ``tree`` once that order holds). Incompatible
        with ``blocking='irregular'`` (the irregular strategy *derives* its
        tree from the pattern).
    max_block:
        Supernode size cap: larger separators are split into chains of
        blocks of at most this size (SuperLU_DIST's ``maxsup`` analogue).
        ``None`` leaves separators whole. Under ``blocking='irregular'``
        this is the same effective cap — no emitted block exceeds it.
    blocking:
        ``'uniform'`` (default) or ``'irregular'``
        (:mod:`repro.symbolic.blocking`): pattern-driven boundaries with
        dense-row snapping + similarity amalgamation, floored by the
        uniform blocking on aggregate filled factor words so the result
        never stores more words in total than the default would.
    """
    A = check_square_sparse(A)
    if blocking not in ("uniform", "irregular"):
        raise ValueError(f"unknown blocking strategy {blocking!r}; "
                         "expected 'uniform' or 'irregular'")
    if blocking == "irregular":
        if tree is not None:
            raise ValueError("blocking='irregular' derives its own tree; "
                             "an explicit tree= cannot be combined with it")
        from repro.symbolic.blocking import irregular_blocking
        base = nested_dissection(A, geometry, leaf_size=leaf_size,
                                 method=method, max_block=None)
        uni_tree = cap_split(base, max_block)
        irr_tree, info = irregular_blocking(A, base, max_block)
        irr, uni = _build_on(A, irr_tree), _build_on(A, uni_tree)
        # Uniform floor: filled factor words are the storage/traffic proxy
        # every ledger prices off — ship the irregular tree only when it
        # strictly saves words (ties go to the simpler uniform blocking).
        info["words_irregular"] = irr[3].total_words
        info["words_uniform"] = uni[3].total_words
        chosen = irr if irr[3].total_words < uni[3].total_words else uni
        info["chose"] = "irregular" if chosen is irr else "uniform"
        return SymbolicFactorization(*chosen, blocking_info=info)
    if tree is None:
        tree = nested_dissection(A, geometry, leaf_size=leaf_size,
                                 method=method, max_block=max_block)
    return SymbolicFactorization(*_build_on(A, tree))
