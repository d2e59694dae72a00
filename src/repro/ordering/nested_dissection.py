"""Nested dissection producing the supernodal dissection tree.

The tree is the structural backbone of the whole reproduction: its postorder
defines the block (supernode) ordering, its parent links are the block
elimination tree (Fig. 2c / Fig. 3b of the paper), and its subtrees are what
the 3D algorithm maps onto 2D process grids.

A :class:`DissectionTree` is three arrays: ``parent`` (the block tree),
``perm`` (original vertex ids in elimination order) and ``layout`` (block
``k`` owns ``perm[offsets[k]:offsets[k + 1]]`` — the separator it
contributes, or a whole undissected region for a leaf). Every node's
vertices come after all of its descendants', so each node is a contiguous
block row/column of the permuted matrix. Every builder emits that form:
the recursion here, :func:`split_chains` (the supernode cap),
:func:`merge_into_parents` (relaxation and amalgamation) and
:func:`repro.ordering.tree_from_order`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.ordering.permutation import Permutation
from repro.ordering.separators import bfs_level_separator, fiedler_separator, \
    repair_separator
from repro.sparse.blockmatrix import BlockLayout
from repro.sparse.generators import GridGeometry
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern
from repro.utils import check_positive_int

__all__ = ["DissectionTree", "cap_split", "geometric_nd", "graph_nd",
           "merge_into_parents", "nested_dissection", "split_chains"]


class DissectionTree:
    """Postordered block tree: ``parent``, ``perm`` and block ``layout``.

    ``parent[k] > k`` for every node but the root, which is the last node
    (``parent == -1``); ``perm`` is a :class:`Permutation` (or its
    ``perm[new] = old`` array) and ``offsets`` the ``nb + 1`` block
    boundaries in the permuted order. The numbering is true postorder:
    every subtree is the contiguous id range ``first[v] .. v``, and a tree
    where one is not is refused.
    """

    def __init__(self, parent, perm, offsets):
        self.parent = parent = np.asarray(parent, dtype=np.int64)
        self.perm = perm if isinstance(perm, Permutation) else Permutation(perm)
        self.layout = BlockLayout(offsets)
        nb = parent.shape[0]
        if nb != self.layout.nblocks:
            raise ValueError(f"{nb} parent links for "
                             f"{self.layout.nblocks} blocks")
        if self.layout.n != self.perm.n:
            raise ValueError(f"tree owns {self.layout.n} vertices but "
                             f"the permutation has {self.perm.n}")
        if parent[-1] != -1 or int(np.sum(parent == -1)) != 1:
            raise ValueError("tree must have exactly one root, the last node")
        if np.any(parent[:-1] <= np.arange(nb - 1)) or np.any(parent >= nb):
            raise ValueError("nodes are not in postorder")
        # A child's range inside its parent's, for every node, makes every
        # range exactly its subtree.
        first = self._first()
        if np.any(first[parent[:-1]] > first[:-1]):
            raise ValueError("a subtree is not a contiguous id range: "
                             "nodes are not in postorder")

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def nblocks(self) -> int:
        return self.parent.shape[0]

    @property
    def root(self) -> int:
        return self.nblocks - 1

    @property
    def sizes(self) -> np.ndarray:
        """Vertices per block (the layout's memoized sizes)."""
        return self.layout.sizes()

    @cached_property
    def depth(self) -> np.ndarray:
        """Distance from the root (the root has depth 0), per node."""
        depth = [0] * self.nblocks
        par = self.parent.tolist()
        for k in range(self.nblocks - 2, -1, -1):   # parents first
            depth[k] = depth[par[k]] + 1
        return np.asarray(depth, dtype=np.int64)

    def vertices(self, k: int) -> np.ndarray:
        """Original vertex ids block ``k`` owns, in elimination order."""
        return self.perm.perm[self.layout.range_of(k)]

    def children_of(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.parent == k)

    def _first(self) -> np.ndarray:
        size = [1] * self.nblocks       # one pass, children first
        for v, p in enumerate(self.parent[:-1].tolist()):
            size[p] += size[v]
        return np.arange(self.nblocks) - np.asarray(size) + 1

    #: Each node's lowest subtree id: its subtree is ``first[v] .. v``.
    #: Kept from first use, not from construction: an array kept from
    #: construction moved ``brick_cold``'s peak RSS up by 4 MB in most
    #: runs on a 2-vCPU host.
    first = cached_property(_first)

    def subtree_of(self, k: int) -> np.ndarray:
        """All nodes of the subtree rooted at ``k`` (including ``k``), ascending."""
        return np.arange(self.first[k], k + 1)

    def height(self) -> int:
        return int(self.depth.max()) + 1


def _from_blocks(parent, blocks: list[np.ndarray]) -> DissectionTree:
    """The tree whose node ``k`` owns ``blocks[k]``."""
    sizes = [b.shape[0] for b in blocks]
    return DissectionTree(parent, np.concatenate(blocks),
                          np.concatenate([[0], np.cumsum(sizes)]))


def cap_chunks(vertices: np.ndarray, cap: int | None) -> list[np.ndarray]:
    """``vertices`` as ``ceil(size / cap)`` near-equal chunks (the bigger
    first), or whole when ``cap`` is ``None`` or not exceeded."""
    if cap is None or vertices.size <= cap:
        return [vertices]
    return np.array_split(vertices, -(-vertices.size // cap))


def split_chains(tree: DissectionTree, chunker) -> DissectionTree:
    """Re-emit ``tree`` with each node split into a parent chain of chunks.

    ``chunker(vertices)`` returns a node's vertices as an ordered list of
    non-empty chunks (together a permutation of them). The first chunk
    keeps the node's children and each later chunk parents the previous
    one, so a node split into one chunk keeps its place in the tree.
    """
    pieces = [chunker(v) for v in
              np.split(tree.perm.perm, tree.layout.offsets[1:-1])]
    counts = np.array([len(p) for p in pieces], dtype=np.int64)
    start = np.cumsum(counts) - counts          # first chunk of each node
    parent = np.arange(1, int(counts.sum()) + 1, dtype=np.int64)
    p = tree.parent
    parent[start + counts - 1] = np.where(p >= 0, start[p], -1)
    return _from_blocks(parent, [c for chunks in pieces for c in chunks])


def cap_split(tree: DissectionTree, max_block: int | None) -> DissectionTree:
    """Apply the supernode cap (SuperLU_DIST's ``maxsup``) to ``tree``: a
    node over ``max_block`` vertices becomes a chain of near-equal blocks,
    so a big separator is factored as a sequence of moderate panels."""
    if max_block is None:
        return tree
    max_block = check_positive_int(max_block, "max_block")
    if tree.sizes.max() <= max_block:
        return tree
    return split_chains(tree, lambda v: cap_chunks(v, max_block))


def merge_into_parents(tree: DissectionTree, absorbed) -> DissectionTree:
    """Drop the nodes marked ``absorbed``: each one's vertices join the
    first surviving node after it (the node that absorbed it, whose
    children its children become). The permutation stays; only the
    absorbed nodes' upper boundaries leave the layout."""
    keep = ~np.asarray(absorbed, dtype=bool)
    if keep.all():
        return tree
    new_id = np.cumsum(keep) - keep     # first survivor at or after each id
    p = tree.parent[keep]
    return DissectionTree(np.where(p >= 0, new_id[p], -1), tree.perm,
                          np.concatenate([[0], tree.layout.offsets[1:][keep]]))


def _dissect(n: int, leaf_size: int, cut) -> DissectionTree:
    """The uncapped tree of ``range(n)``: a region of at most ``leaf_size``
    vertices, or one ``cut(vertices)`` leaves whole (``None``), is a leaf;
    else ``cut``'s separator parents its non-empty parts' subtrees. An
    empty separator takes one vertex of the larger part (a zero-size block
    would break the layout; the vertex is merely eliminated late)."""
    leaf_size = check_positive_int(leaf_size, "leaf_size")
    blocks: list[np.ndarray] = []
    parent: list[int] = []
    # A depth-first walk on an explicit stack (a recursive closure would
    # leave a reference cycle holding ``cut`` and its adjacency): a frame
    # is a region's block, its parts to dissect and their finished ids.
    stack = [(*_split(np.arange(n, dtype=np.int64), leaf_size, cut), [])]
    while stack:
        block, parts, kids = stack[-1]
        if len(kids) < len(parts):
            stack.append((*_split(parts[len(kids)], leaf_size, cut), []))
            continue
        stack.pop()
        for c in kids:
            parent[c] = len(blocks)
        if stack:
            stack[-1][2].append(len(blocks))
        blocks.append(block)
        parent.append(-1)
    return _from_blocks(parent, blocks)


def _split(vertices: np.ndarray, leaf_size: int, cut):
    """``(block, parts)`` of a region: itself and no parts for a leaf,
    else ``cut``'s separator and its non-empty parts."""
    parts = cut(vertices) if vertices.size > leaf_size else None
    if parts is None:
        return vertices, []
    sep, part_a, part_b = parts
    if sep.size == 0 and part_a.size >= part_b.size:
        sep, part_a = part_a[:1], part_a[1:]
    elif sep.size == 0:
        sep, part_b = part_b[:1], part_b[1:]
    return sep, [p for p in (part_a, part_b) if p.size]


def _unit_steps(adj: sp.csr_matrix, coords_t: np.ndarray) -> bool:
    """Whether ``coords_t`` (a row per dimension) is integer-typed and no
    stored entry of ``adj`` spans over one lattice step in any dimension:
    then no edge can cross a one-thick integer plane (that takes two)."""
    if not np.issubdtype(coords_t.dtype, np.integer):
        return False
    per_row = np.diff(adj.indptr)
    for c in coords_t:          # one dimension at a time: no (d, nnz) array
        step = c[adj.indices]
        step -= np.repeat(c, per_row)
        if step.size and (step.min() < -1 or step.max() > 1):
            return False
    return True


def geometric_nd(adj: sp.csr_matrix, coords: np.ndarray, leaf_size: int = 64,
                 max_block: int | None = None) -> DissectionTree:
    """Coordinate-bisection nested dissection.

    Splits the vertex set at the median coordinate plane of the widest
    dimension; the plane's vertices form the separator. Works for any vertex
    set with lattice-like coordinates, including multi-field problems where
    several vertices share a coordinate (e.g. the KKT proxy's state/adjoint
    pairs — both land in the same region or separator together).
    ``coords`` is a finite ``(n, d)`` array. Unless :func:`_unit_steps`
    rules a leak out, a :func:`repair_separator` pass after every cut
    restores the separation invariant; it reads ``adj`` for its structure
    only (every stored entry an edge).
    """
    n = adj.shape[0]
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[0] != n or not np.isfinite(coords).all():
        raise ValueError(f"coords must be a finite (n, d) array with n={n} "
                         f"rows, got shape {coords.shape}")
    # No call below costs O(n): a repair borrows one marker array, and
    # each region gathers its coordinates once, one contiguous row per
    # dimension (``take`` on the transpose: a fraction of ``coords[v]``).
    adj = adj.tocsr()
    coords_t = np.ascontiguousarray(coords.T)
    marker = None if _unit_steps(adj, coords_t) else np.zeros(n, dtype=bool)

    def cut(vertices: np.ndarray):
        vc = coords_t.take(vertices, axis=1)
        spans = vc.max(axis=1) - vc.min(axis=1)
        kth = [(vertices.size - 1) // 2, vertices.size // 2]
        for d in np.argsort(spans)[::-1]:
            if spans[d] < 2:
                continue  # cannot carve a plane out of a 2-thick slab
            vals = vc[d]
            # Cut at the floor of the median value: on an integer lattice this
            # is an exact one-thick plane. (np.median's own partition; the
            # halves are exact, so their sum is the mean's rounding.)
            mid = np.partition(vals, kth)[kth]
            plane = np.floor(mid[0] / 2 + mid[-1] / 2)
            sep = vertices[vals == plane]
            part_a = vertices[vals < plane]
            part_b = vertices[vals > plane]
            if part_a.size == 0 or part_b.size == 0:
                continue
            if marker is not None:
                return repair_separator(adj, sep, part_a, part_b, marker)
            return sep, part_a, part_b
        return None         # no dimension could be split: a leaf

    return cap_split(_dissect(n, leaf_size, cut), max_block)


def graph_nd(adj: sp.csr_matrix, leaf_size: int = 64, method: str = "bfs",
             max_block: int | None = None) -> DissectionTree:
    """General-graph nested dissection via level-structure or spectral bisection.

    ``method`` is ``'bfs'`` (George-style level-set separators, fast, good on
    mesh-like graphs) or ``'fiedler'`` (spectral; better cuts on irregular
    graphs, slower). ``adj`` is read for its structure only — every stored
    off-diagonal entry is an edge, whatever its value. A region the
    separator cannot split (a clique, a star) becomes one leaf, chunked by
    ``max_block`` like any other node, even when it exceeds ``leaf_size``.
    """
    if method not in ("bfs", "fiedler"):
        raise ValueError(f"unknown separator method {method!r}")
    find = bfs_level_separator if method == "bfs" else fiedler_separator

    def cut(vertices: np.ndarray):
        sep, part_a, part_b = find(adj, vertices)
        # Nothing split (<= 2 vertices, or one component a single BFS level
        # deep, e.g. a clique): a leaf, not a chain peeled off one vertex
        # per recursion.
        if max(sep.size, part_a.size, part_b.size) == vertices.size:
            return None
        return sep, part_a, part_b

    return cap_split(_dissect(adj.shape[0], leaf_size, cut), max_block)


def nested_dissection(A: sp.spmatrix, geometry: GridGeometry | None = None,
                      leaf_size: int = 64, method: str = "bfs",
                      max_block: int | None = None) -> DissectionTree:
    """Dissect the symmetrized pattern of ``A``.

    Dispatches to :func:`geometric_nd` when ``geometry`` is provided (the
    matrix came from one of the lattice generators) and to :func:`graph_nd`
    otherwise. The adjacency used for separator validation is the
    symmetrized off-diagonal pattern of ``A``.
    """
    # Strip the diagonal: separators care about off-diagonal connectivity.
    S = strip_diagonal(symmetrize_pattern(A))
    n = S.shape[0]
    if geometry is not None:
        base = np.indices(geometry.shape).reshape(geometry.ndim, -1).T
        reps = n // geometry.nvertices
        if n % geometry.nvertices != 0:
            raise ValueError(
                f"matrix dim {n} is not a multiple of geometry size "
                f"{geometry.nvertices}")
        coords = np.tile(base, (reps, 1))
        return geometric_nd(S, coords, leaf_size=leaf_size, max_block=max_block)
    return graph_nd(S, leaf_size=leaf_size, method=method, max_block=max_block)
