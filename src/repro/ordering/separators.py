"""Vertex-separator search on subgraphs of a symmetric sparse pattern.

All routines operate on an induced subgraph given by ``vertices`` (original
vertex ids) of a global CSR adjacency, and return a triple
``(sep, part_a, part_b)`` of disjoint original-id arrays covering
``vertices``, such that after :func:`repair_separator` no edge connects
``part_a`` to ``part_b``.

The adjacency is read for its **structure only**: every *stored*
off-diagonal entry is an edge, whatever its value (negative, zero,
boolean); stored diagonal entries are ignored. Every graph walk is built
on one primitive, :func:`_neighbours`, over a graph held as its raw
``(indptr, indices)`` arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils import ragged

__all__ = ["bfs_level_separator", "fiedler_separator", "repair_separator"]

_NONE = np.array([], dtype=np.int64)


def _neighbours(G, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All stored neighbours of ``rows``, row after row, with repeats:
    ``(nbrs, g)`` where ``nbrs[k]`` is a neighbour of ``rows[g[k]]``."""
    indptr, indices = G
    start = indptr[rows]
    g, w = ragged(indptr[rows + 1] - start)
    return indices[start[g] + w], g


def _induced(G, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the subgraph induced by ``vertices`` (local id
    ``k`` is ``vertices[k]``), self-loops dropped, row order kept."""
    local = np.zeros(G[0].size - 1, dtype=np.int64)  # 0 = not in the subgraph
    local[vertices] = np.arange(1, vertices.size + 1)
    nbrs, g = _neighbours(G, vertices)
    loc = local[nbrs] - 1
    keep = (loc >= 0) & (loc != g)
    indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(g[keep], minlength=vertices.size), out=indptr[1:])
    return indptr, loc[keep]


def _bfs_levels(G, root: int) -> np.ndarray:
    """BFS level of every vertex reachable from ``root``; -1 if unreachable.

    One neighbour gather per level. Levels are graph distances, so they do
    not depend on the order a frontier is held in.
    """
    level = np.full(G[0].size - 1, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        new = _neighbours(G, frontier)[0]
        new = new[level[new] == -1]
        # A vertex seen from several frontier vertices is in `new` several
        # times. Dedupe without a sort: every occurrence writes its slot
        # into the (still unset) level entry, one write survives.
        slot = np.arange(new.size)
        level[new] = slot
        frontier = new[level[new] == slot]
        level[frontier] = d
    return level


def _peripheral_levels(G, level: np.ndarray) -> np.ndarray:
    """Level structure rooted at a pseudo-peripheral vertex of a connected graph.

    ``level`` is any vertex's level structure (the caller's discovery sweep).
    Re-root at a minimum-degree vertex of the farthest level while the
    eccentricity grows, at most four times; the last sweep made *is* the
    chosen root's level structure.
    """
    degree = np.diff(G[0])
    for _ in range(4):
        ecc = level.max()
        far = np.flatnonzero(level == ecc)
        level = _bfs_levels(G, int(far[np.argmin(degree[far])]))
        if level.max() <= ecc:
            break
    return level


def bfs_level_separator(adj: sp.csr_matrix, vertices: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-structure separator: the median BFS level set.

    Runs BFS from a pseudo-peripheral vertex of the induced subgraph and
    takes as separator the level set at which half the vertices have been
    seen — the classic Kernighan/George level bisection. Disconnected pieces
    of the subgraph are taken in order of their smallest vertex and balanced
    greedily between the two parts; a piece less than two levels deep from
    its smallest vertex goes whole into the lighter part. Edges are the
    stored off-diagonal entries of ``adj``, values ignored.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    nloc = vertices.size
    if nloc <= 2:
        return vertices, _NONE, _NONE
    adj = adj.tocsr()
    G = _induced((adj.indptr, adj.indices), vertices)

    unassigned = np.ones(nloc, dtype=bool)
    part_a: list[np.ndarray] = []
    part_b: list[np.ndarray] = []
    sep: list[np.ndarray] = []
    size_a = size_b = 0

    while unassigned.any():
        # The first unassigned vertex is the smallest id of its component
        # (components are disjoint), i.e. local vertex 0 of the component.
        comp_root = int(np.argmax(unassigned))
        level = _bfs_levels(G, comp_root)
        comp_ids = np.flatnonzero(level >= 0)
        unassigned[comp_ids] = False

        if level.max() < 2:
            # Too shallow to split: dump whole component into lighter part.
            lo, hi = comp_ids, _NONE
        else:
            # Re-root at a pseudo-peripheral vertex of the component for a
            # thinner, better-centered level structure. The discovery sweep
            # above is that search's first sweep.
            if comp_ids.size == nloc:
                clevel = _peripheral_levels(G, level)
            else:
                clevel = _peripheral_levels(_induced(G, comp_ids),
                                            level[comp_ids])
            maxlev = clevel.max()
            cum = np.cumsum(np.bincount(clevel, minlength=maxlev + 1))
            mid = int(np.searchsorted(cum, comp_ids.size / 2))
            mid = min(max(mid, 1), maxlev - 1)
            sep.append(comp_ids[clevel == mid])
            lo = comp_ids[clevel < mid]
            hi = comp_ids[clevel > mid]
        if size_a > size_b:
            lo, hi = hi, lo
        part_a.append(lo)
        part_b.append(hi)
        size_a += lo.size
        size_b += hi.size

    cat = lambda lst: vertices[np.concatenate(lst)] if lst else _NONE
    return cat(sep), cat(part_a), cat(part_b)


def fiedler_separator(adj: sp.csr_matrix, vertices: np.ndarray,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral separator from the Fiedler vector of the induced subgraph.

    Vertices are split at the median Fiedler value of the *pattern*
    Laplacian (every stored off-diagonal entry an edge of weight one, values
    ignored); the separator is then the set of part-A endpoints of crossing
    edges (vertex separator from the edge cut). Falls back to
    :func:`bfs_level_separator` when the eigensolver does not converge or
    the subgraph is disconnected.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    nloc = vertices.size
    if nloc <= 8:
        return bfs_level_separator(adj, vertices)
    adj = adj.tocsr()
    indptr, indices = _induced((adj.indptr, adj.indices), vertices)
    if (_bfs_levels((indptr, indices), 0) < 0).any():
        # Disconnected: the Laplacian's null space has one dimension per
        # component and eigsh returns an arbitrary vector of it.
        return bfs_level_separator(adj, vertices)
    G = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                      shape=(nloc, nloc))
    L = sp.diags(np.diff(indptr).astype(np.float64)) - G
    try:
        rng = np.random.default_rng(seed)
        v0 = rng.random(nloc)
        vals, vecs = sp.linalg.eigsh(L, k=2, sigma=-1e-8, which="LM", v0=v0,
                                     maxiter=500)
        order = np.argsort(vals)
        fiedler = vecs[:, order[1]]
    except Exception:
        return bfs_level_separator(adj, vertices)
    med = np.median(fiedler)
    in_a = fiedler <= med
    a_ids = np.flatnonzero(in_a)
    b_ids = np.flatnonzero(~in_a)
    if a_ids.size == 0 or b_ids.size == 0:
        return bfs_level_separator(adj, vertices)
    sep_loc, a_loc, b_loc = repair_separator(G, _NONE, a_ids, b_ids)
    return vertices[sep_loc], vertices[a_loc], vertices[b_loc]


def repair_separator(adj: sp.csr_matrix, sep: np.ndarray, part_a: np.ndarray,
                     part_b: np.ndarray, marker: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move endpoints of any a—b crossing edge into the separator.

    Geometric separators assume short-range stencils; matrices with a few
    longer-range couplings (e.g. :func:`repro.sparse.generators.circuit_like`
    vias) can leave crossing edges. This pass restores the separator
    invariant — no edge between the two parts — by promoting the part-A
    endpoint of each crossing edge. A crossing edge is any *stored* entry
    of ``adj`` between the parts, whatever its value.

    All ids here are in one consistent numbering (caller's choice); the
    returned triple uses the same numbering. ``marker`` is an all-False
    bool scratch array of length ``n`` a recursion lends to every call
    (handed back all-False), so a call costs its parts' size, not ``n``.
    """
    part_a = np.asarray(part_a, dtype=np.int64)
    part_b = np.asarray(part_b, dtype=np.int64)
    sep = np.asarray(sep, dtype=np.int64)
    if part_a.size == 0 or part_b.size == 0:
        return sep, part_a, part_b
    adj = adj.tocsr()
    in_b = np.zeros(adj.shape[0], dtype=bool) if marker is None else marker
    in_b[part_b] = True
    nbrs, g = _neighbours((adj.indptr, adj.indices), part_a)
    crossings = np.zeros(part_a.size, dtype=bool)
    crossings[g[in_b[nbrs]]] = True
    in_b[part_b] = False
    if crossings.any():
        sep = np.concatenate([sep, part_a[crossings]])
        part_a = part_a[~crossings]
    return sep, part_a, part_b
