"""Nested dissection producing the supernodal dissection tree.

The tree is the structural backbone of the whole reproduction: its postorder
defines the block (supernode) ordering, its parent links are the block
elimination tree (Fig. 2c / Fig. 3b of the paper), and its subtrees are what
the 3D algorithm maps onto 2D process grids.

Each :class:`DissectionNode` *owns* a set of original vertex ids — the
separator it contributes (for internal nodes) or an entire undissected
region (for leaves). The permutation places each node's vertices after all
of its descendants' vertices, so every node is a contiguous block row/column
of the permuted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.ordering.permutation import Permutation
from repro.ordering.separators import bfs_level_separator, fiedler_separator, \
    repair_separator
from repro.sparse.blockmatrix import BlockLayout
from repro.sparse.generators import GridGeometry
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern
from repro.utils import check_positive_int

__all__ = ["DissectionNode", "DissectionTree", "geometric_nd", "graph_nd",
           "nested_dissection"]


@dataclass
class DissectionNode:
    """One node of the dissection tree.

    Attributes
    ----------
    vertices:
        Original vertex ids owned by this node (its separator, or the whole
        region for a leaf). Never empty.
    children:
        Postorder ids of the children (empty for leaves).
    depth:
        Distance from the root (root has depth 0), the paper's level index.
    node_id:
        Postorder position == block index in the permuted matrix.
    """

    vertices: np.ndarray
    children: list[int] = field(default_factory=list)
    depth: int = 0
    node_id: int = -1

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DissectionTree:
    """Postordered dissection tree with derived permutation and layout."""

    def __init__(self, nodes: list[DissectionNode], n: int):
        if not nodes:
            raise ValueError("dissection tree must have at least one node")
        self.nodes = nodes
        self.n = n
        nb = len(nodes)
        self.parent = np.full(nb, -1, dtype=np.int64)
        for node in nodes:
            for c in node.children:
                if c >= node.node_id:   # postorder: parents follow children
                    raise ValueError("nodes are not in postorder")
                self.parent[c] = node.node_id
        if int(np.sum(self.parent == -1)) != 1:
            raise ValueError("tree must have exactly one root")
        # Every builder's depths, here once the shape is final: parents first.
        for k, p in reversed(list(enumerate(self.parent.tolist()))):
            nodes[k].depth = 0 if p == -1 else nodes[p].depth + 1

        # Build the permutation: vertices in postorder of owning node.
        chunks = [node.vertices for node in nodes]
        perm = np.concatenate(chunks)
        if perm.shape[0] != n:
            raise ValueError(
                f"tree owns {perm.shape[0]} vertices but matrix has {n}")
        self.perm = Permutation(perm)
        offsets = np.concatenate([[0], np.cumsum([c.shape[0] for c in chunks])])
        self.layout = BlockLayout(offsets)

    @property
    def nblocks(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> int:
        return int(np.flatnonzero(self.parent == -1)[0])

    def children_of(self, k: int) -> list[int]:
        return self.nodes[k].children

    def ancestors_of(self, k: int) -> list[int]:
        """Proper ancestors of ``k``, nearest first."""
        out = []
        p = int(self.parent[k])
        while p != -1:
            out.append(p)
            p = int(self.parent[p])
        return out

    def subtree_of(self, k: int) -> list[int]:
        """All nodes of the subtree rooted at ``k`` (including ``k``), ascending."""
        out = []
        stack = [k]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.nodes[v].children)
        return sorted(out)

    def height(self) -> int:
        return max(node.depth for node in self.nodes) + 1


class _Builder:
    """Accumulates nodes during recursion and assigns postorder ids.

    ``max_block`` caps supernode sizes: a vertex set larger than the cap is
    emitted as a *chain* of tree nodes (bottom chunk keeps the children,
    each next chunk parents the previous). This mirrors SuperLU_DIST's
    relaxed-supernode size limit (``maxsup``): big separators are factored
    as a sequence of moderate panels, not one monolithic block — which is
    what keeps the diagonal factorization off a single process and the
    block-cyclic distribution smooth.
    """

    def __init__(self, max_block: int | None = None) -> None:
        self.nodes: list[DissectionNode] = []
        self.max_block = max_block

    def add(self, vertices: np.ndarray, children: list[int]) -> int:
        vertices = np.asarray(vertices, dtype=np.int64)
        if self.max_block is not None and vertices.size > self.max_block:
            nchunks = -(-vertices.size // self.max_block)  # ceil division
            chunks = np.array_split(vertices, nchunks)
            nid = self._add_one(chunks[0], children)
            for chunk in chunks[1:]:
                nid = self._add_one(chunk, [nid])
            return nid
        return self._add_one(vertices, children)

    def _add_one(self, vertices: np.ndarray, children: list[int]) -> int:
        node = DissectionNode(vertices, children, node_id=len(self.nodes))
        self.nodes.append(node)
        return node.node_id

    def dissect(self, n: int, leaf_size: int, cut) -> DissectionTree:
        """The tree of ``range(n)``: a region of at most ``leaf_size``
        vertices, or one ``cut(vertices)`` leaves whole (``None``), is a
        leaf; else ``cut``'s separator parents its non-empty parts' subtrees.
        An empty separator takes one vertex of the larger part (a zero-size
        block would break the layout; the vertex is merely eliminated late)."""
        leaf_size = check_positive_int(leaf_size, "leaf_size")

        def recurse(vertices: np.ndarray) -> int:
            parts = cut(vertices) if vertices.size > leaf_size else None
            if parts is None:
                return self.add(vertices, [])
            sep, part_a, part_b = parts
            if sep.size == 0 and part_a.size >= part_b.size:
                sep, part_a = part_a[:1], part_a[1:]
            elif sep.size == 0:
                sep, part_b = part_b[:1], part_b[1:]
            return self.add(sep, [recurse(p) for p in (part_a, part_b)
                                  if p.size])

        recurse(np.arange(n, dtype=np.int64))
        return DissectionTree(self.nodes, n)


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

    return _Builder(max_block).dissect(n, leaf_size, cut)


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

    return _Builder(max_block).dissect(adj.shape[0], leaf_size, cut)


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
