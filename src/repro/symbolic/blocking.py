"""Structure-aware irregular blocking: pattern-driven supernode boundaries.

The uniform ``max_block`` cap (SuperLU_DIST's ``maxsup``) chops every
oversized dissection node into equal-width chunks, which is the right
thing on mesh-like matrices where the vertices of a separator are
structurally interchangeable. Irregular patterns — circuit, power-grid,
KKT, arrowhead — violate that premise: a node can mix a banded majority
with a handful of near-dense rows, and any *uniform* cut smears those
dense rows across every chunk, inflating every chunk's panel footprint
(and therefore every message priced off it).

This module implements the irregular strategy of the Structure-Aware
Irregular Blocking paper (PAPERS.md), adapted to the dissection-tree
setting. Block boundaries are chosen from the actual pattern in three
passes:

1. **Boundary snapping at dense-row / arrowhead discontinuities.** Inside
   each tree node, vertices whose symmetrized-pattern degree exceeds
   ``snap_ratio`` times the node's median degree are *discontinuities*.
   The node's vertices are stably reordered by ascending degree (a legal
   within-node permutation — block structure only sees node membership)
   and a chunk boundary is snapped exactly at the first dense vertex, so
   the dense rows land in their own top-of-chain chunk, eliminated last,
   and only that skinny chunk carries the wide panels.
2. **Capped chunking.** Each contiguous segment is then split into
   ``<= max_block``-sized chunks exactly like the uniform builder
   (``np.array_split`` convention), emitted as a parent chain so the
   elimination-tree shape is preserved (bottom chunk keeps the node's
   children — the same chain construction the uniform cap uses).
3. **Amalgamation by structural similarity under a relaxation budget.**
   Postorder-adjacent child blocks are absorbed into their parents (the
   contiguity rule of :func:`repro.ordering.relax_supernodes`) only when
   their *future-row* patterns overlap: merging blocks with Jaccard
   dissimilarity above the ``relax_budget`` would manufacture structural
   zeros in the merged panels, which the dense block model then stores
   and ships. Tiny blocks get a laxer budget — their padding is cheap
   and every eliminated block saves messages.

Finally the result is **floored by the uniform blocking** (the same
better-of-two idiom :func:`repro.tree.partition.greedy_partition` uses):
the filled panel words of the irregular tree are compared against the
uniform tree's, and the cheaper tree wins. On mesh-like matrices where
no discontinuity fires, the irregular tree degenerates to the uniform
one; on genuinely irregular matrices the floor guarantees the strategy
never loses words to the baseline it claims to improve on.

Every tree this module emits satisfies the same invariants as the
uniform path (pinned by ``tests/test_blocking.py``): blocks are
contiguous in the permutation and cover ``[0, n)``, no block exceeds the
effective cap, and the scalar elimination tree maps into the block tree
(ancestor consistency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ordering.nested_dissection import DissectionNode, DissectionTree
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern

__all__ = ["BlockingOptions", "BLOCKING_STRATEGIES", "irregular_blocking",
           "uniform_cap_split", "blocking_signature"]

#: The strategies :func:`repro.symbolic.symbolic_factorize` accepts.
BLOCKING_STRATEGIES = ("uniform", "irregular")


@dataclass(frozen=True)
class BlockingOptions:
    """Knobs of the irregular strategy.

    Attributes
    ----------
    max_block:
        Effective supernode cap — identical role to the uniform
        strategy's ``max_block``; no emitted block ever exceeds it
        (``None`` = uncapped, discontinuity snapping still applies).
    snap_ratio:
        A vertex is a discontinuity when its degree is at least this
        multiple of its node's median degree (and at least
        ``snap_min_degree``): 4x covers circuit via-rows and arrowhead
        borders without tripping on mesh corner vertices.
    snap_min_degree:
        Absolute degree floor for a discontinuity — stops tiny leaves
        (median degree 1-2) from flagging ordinary mesh vertices.
    amalg_small:
        Blocks strictly smaller than this are "tiny": amalgamation uses
        the relaxed ``tiny_budget`` for them instead of
        ``relax_budget``.
    relax_budget:
        Maximum Jaccard *dissimilarity* of two blocks' future-row sets
        accepted when amalgamating ordinary blocks (0 = only merge
        structurally identical panels, 1 = merge anything that fits).
    tiny_budget:
        The laxer budget applied when the absorbed child is tiny.
    """

    max_block: int | None = 256
    snap_ratio: float = 4.0
    snap_min_degree: int = 8
    amalg_small: int = 8
    relax_budget: float = 0.1
    tiny_budget: float = 0.5

    def __post_init__(self):
        if self.max_block is not None and self.max_block < 1:
            raise ValueError("max_block must be positive or None")
        if self.snap_ratio <= 1.0:
            raise ValueError("snap_ratio must exceed 1")
        if not 0.0 <= self.relax_budget <= 1.0:
            raise ValueError("relax_budget must be in [0, 1]")
        if not 0.0 <= self.tiny_budget <= 1.0:
            raise ValueError("tiny_budget must be in [0, 1]")


def blocking_signature(strategy: str, opts: "BlockingOptions | None" = None
                       ) -> tuple:
    """Hashable identity of a blocking configuration.

    Part of every plan/service cache key (via
    :func:`repro.plan.replay.plan_options_key`): two runs that block the
    same pattern differently must never share a cached plan.
    """
    if strategy not in BLOCKING_STRATEGIES:
        raise ValueError(f"unknown blocking strategy {strategy!r}; "
                         f"expected one of {BLOCKING_STRATEGIES}")
    if strategy == "uniform" or opts is None:
        return (strategy,)
    return (strategy, opts.max_block, opts.snap_ratio, opts.snap_min_degree,
            opts.amalg_small, opts.relax_budget, opts.tiny_budget)


# -- chain splitting -------------------------------------------------------

def _chain_split(tree: DissectionTree, chunker) -> DissectionTree:
    """Re-emit ``tree`` with each node split into a parent chain of chunks.

    ``chunker(node) -> [np.ndarray, ...]`` returns the node's vertices as
    an ordered list of non-empty chunks (their concatenation must be a
    permutation of the node's vertices). The first chunk keeps the node's
    children; each later chunk parents the previous one — the exact chain
    construction of the uniform builder, so the elimination structure
    (and, for a single-chunk result, the tree itself) is preserved.
    """
    nodes: list[DissectionNode] = []
    top_of: dict[int, int] = {}  # original id -> id of its top chunk

    def add_one(vertices: np.ndarray, children: list[int]) -> int:
        node = DissectionNode(np.asarray(vertices, dtype=np.int64),
                              children, node_id=len(nodes))
        nodes.append(node)
        return node.node_id

    for orig in tree.nodes:  # already postordered: children before parents
        children = [top_of[c] for c in orig.children]
        chunks = chunker(orig)
        nid = add_one(chunks[0], children)
        for chunk in chunks[1:]:
            nid = add_one(chunk, [nid])
        top_of[orig.node_id] = nid
    return DissectionTree(nodes, tree.n)


def _cap_chunks(vertices: np.ndarray, cap: int | None) -> list[np.ndarray]:
    """Uniform ``<= cap`` chunking (the builder's ``np.array_split`` rule)."""
    if cap is None or vertices.size <= cap:
        return [vertices]
    nchunks = -(-vertices.size // cap)  # ceil division
    return list(np.array_split(vertices, nchunks))


def uniform_cap_split(tree: DissectionTree, max_block: int | None
                      ) -> DissectionTree:
    """Apply the uniform supernode cap to an *uncapped* dissection tree.

    Produces exactly the tree :func:`repro.ordering.nested_dissection`
    builds when given ``max_block`` directly (pinned by
    ``tests/test_blocking.py``) — the irregular strategy uses it to
    materialize its uniform floor from one shared dissection.
    """
    if max_block is None:
        return tree
    return _chain_split(tree, lambda node: _cap_chunks(node.vertices,
                                                       max_block))


# -- irregular strategy ----------------------------------------------------

def _snap_chunks(vertices: np.ndarray, deg: np.ndarray,
                 opts: BlockingOptions) -> list[np.ndarray]:
    """Chunk one node's vertices with dense-row boundary snapping.

    When the node contains a degree discontinuity, its vertices are
    stably sorted by ascending degree and cut exactly at the first dense
    vertex; both segments are then capped-chunked. Without a
    discontinuity this is byte-for-byte the uniform chunking.
    """
    d = deg[vertices]
    med = max(float(np.median(d)), 1.0)
    thresh = max(opts.snap_ratio * med, float(opts.snap_min_degree))
    dense = d >= thresh
    if not dense.any():
        return _cap_chunks(vertices, opts.max_block)
    order = np.argsort(d, kind="stable")
    v_sorted = vertices[order]
    first_dense = int(np.searchsorted(np.sort(d), thresh, side="left"))
    chunks: list[np.ndarray] = []
    if first_dense > 0:
        chunks.extend(_cap_chunks(v_sorted[:first_dense], opts.max_block))
    chunks.extend(_cap_chunks(v_sorted[first_dense:], opts.max_block))
    return chunks


def _future_rows(S_perm: sp.csr_matrix, lo: int, hi: int) -> np.ndarray:
    """Sorted unique permuted row ids > ``hi`` adjacent to span [lo, hi)."""
    rows = S_perm.indices[S_perm.indptr[lo]:S_perm.indptr[hi]]
    return np.unique(rows[rows >= hi])


def _amalgamate(tree: DissectionTree, S: sp.csr_matrix,
                opts: BlockingOptions) -> DissectionTree:
    """Similarity-gated relaxed-supernode pass (see module docstring).

    Walks blocks in postorder; a parent absorbs its postorder-adjacent
    child (the only merge that keeps blocks contiguous — see
    :mod:`repro.ordering.relaxation`) when the merged block fits the cap
    and the two blocks' future-row patterns agree within the budget.
    """
    perm = tree.perm
    S_perm = perm.apply_matrix(S).tocsr()
    S_perm.sort_indices()
    nb = tree.nblocks
    offsets = tree.layout.offsets

    vertices: list[np.ndarray] = [node.vertices for node in tree.nodes]
    child_sets: list[set[int]] = [set(node.children) for node in tree.nodes]
    # Permuted index span currently covered by each (possibly merged) block.
    span = [(int(offsets[k]), int(offsets[k + 1])) for k in range(nb)]
    absorbed = np.zeros(nb, dtype=bool)
    cap = opts.max_block
    merges = 0

    for p in range(nb):
        while True:
            lo_p, hi_p = span[p]
            # The postorder-adjacent candidate is whichever block's span
            # ends where p's begins.
            c = p - 1
            while c >= 0 and absorbed[c]:
                c -= 1
            if c < 0 or c not in child_sets[p]:
                break
            lo_c, hi_c = span[c]
            size_c, size_p = hi_c - lo_c, hi_p - lo_p
            if cap is not None and size_c + size_p > cap:
                break
            rows_c_all = _future_rows(S_perm, lo_c, hi_c)
            rows_p = _future_rows(S_perm, lo_p, hi_p)
            # Future rows of the merged block exclude the parent's span
            # (it stops being "future" once merged).
            rows_c = rows_c_all[rows_c_all >= hi_p]
            union = np.union1d(rows_c, rows_p)
            inter = np.intersect1d(rows_c, rows_p, assume_unique=True)
            dissim = 1.0 - (inter.size / union.size) if union.size else 0.0
            budget = opts.tiny_budget if size_c < opts.amalg_small \
                else opts.relax_budget
            if dissim > budget:
                break
            # Word guard: the dense-block model stores s^2 + 2*s*|rows|
            # words per block (diagonal + L and U panels); a merge whose
            # padding grows that estimate is rejected outright — the
            # similarity gate bounds *relative* mismatch, this bounds the
            # absolute cost. Identical-row merges are exactly neutral.
            s = size_c + size_p
            words = lambda sz, r: sz * sz + 2.0 * sz * r  # noqa: E731
            delta = words(s, union.size) \
                - words(size_c, rows_c_all.size) - words(size_p, rows_p.size)
            if delta > 0:
                break
            vertices[p] = np.concatenate([vertices[c], vertices[p]])
            child_sets[p].discard(c)
            child_sets[p].update(child_sets[c])
            child_sets[c] = set()
            absorbed[c] = True
            span[p] = (lo_c, hi_p)
            merges += 1

    if not merges:
        return tree
    survivors = [v for v in range(nb) if not absorbed[v]]
    new_id = {old: i for i, old in enumerate(survivors)}
    nodes = [DissectionNode(vertices[old],
                            sorted(new_id[c] for c in child_sets[old]),
                            node_id=new_id[old])
             for old in survivors]
    return DissectionTree(nodes, tree.n)


def irregular_blocking(A: sp.spmatrix, tree: DissectionTree,
                       opts: BlockingOptions | None = None
                       ) -> tuple[DissectionTree, dict]:
    """Derive an irregular blocking of ``A`` from an *uncapped* tree.

    Returns ``(blocked_tree, info)`` where ``info`` records the snap and
    amalgamation activity. The caller (:func:`repro.symbolic.
    symbolic_factorize`) is responsible for the uniform floor — this
    function only builds the irregular candidate.
    """
    opts = opts or BlockingOptions()
    S = strip_diagonal(symmetrize_pattern(A))
    deg = np.diff(S.indptr).astype(np.int64)

    snapped = 0

    def chunker(node: DissectionNode) -> list[np.ndarray]:
        nonlocal snapped
        chunks = _snap_chunks(node.vertices, deg, opts)
        uniform = len(_cap_chunks(node.vertices, opts.max_block))
        if len(chunks) != uniform or any(
                not np.array_equal(c, u) for c, u in
                zip(chunks, _cap_chunks(node.vertices, opts.max_block))):
            snapped += 1
        return chunks

    split = _chain_split(tree, chunker)
    nb_split = split.nblocks
    merged = _amalgamate(split, S, opts)
    info = {
        "strategy": "irregular",
        "nodes_snapped": snapped,
        "nb_after_split": nb_split,
        "nb_after_amalgamation": merged.nblocks,
        "amalgamated": nb_split - merged.nblocks,
    }
    return merged, info
