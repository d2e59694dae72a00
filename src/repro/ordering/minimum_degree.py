"""Approximate-minimum-degree ordering and its supernode tree.

SuperLU_DIST users choose between nested dissection (METIS) and minimum
degree (MMD/AMD) fill-reducing orderings. The 3D algorithm *needs* the
balanced subtree structure only dissection provides — minimum degree's
elimination trees are tall and skinny — which this module exists to
demonstrate quantitatively (see ``tests/claims/test_ablations.py``):

* :func:`minimum_degree_order` — a quotient-graph minimum-degree with
  AMD-style approximate external degrees (element absorption, lazy heap);
* :func:`tree_from_order` — converts any elimination order into a
  :class:`~repro.ordering.nested_dissection.DissectionTree` by building
  the scalar elimination tree, merging its chains into supernodes (capped
  at ``max_block``), so the whole 2D/3D machinery runs unchanged on
  minimum-degree orderings.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.ordering.nested_dissection import DissectionTree
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern
from repro.symbolic.etree import elimination_tree, postorder
from repro.utils import check_positive_int

__all__ = ["minimum_degree_order", "tree_from_order"]


def minimum_degree_order(A: sp.spmatrix) -> np.ndarray:
    """Return an elimination order (old vertex ids, elimination sequence).

    Quotient-graph scheme: eliminating ``v`` turns it into an *element*
    whose variables are ``v``'s current neighborhood; adjacent elements
    are absorbed. Degrees are the AMD upper bound
    ``|A_v| + sum_e |L_e|`` maintained lazily in a heap. Deterministic:
    ties break on vertex id.
    """
    S = strip_diagonal(symmetrize_pattern(A))
    n = S.shape[0]
    adj_var: list[set[int]] = [set(S.indices[S.indptr[v]:S.indptr[v + 1]])
                               for v in range(n)]
    adj_elem: list[set[int]] = [set() for _ in range(n)]
    elem_vars: dict[int, set[int]] = {}
    eliminated = np.zeros(n, dtype=bool)

    def approx_degree(v: int) -> int:
        return len(adj_var[v]) + sum(len(elem_vars[e]) for e in adj_elem[v])

    heap: list[tuple[int, int]] = [(len(adj_var[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)

    for step in range(n):
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == approx_degree(v):
                break
            if not eliminated[v]:
                # Stale entry: reinsert with the fresh degree.
                heapq.heappush(heap, (approx_degree(v), v))
        order[step] = v
        eliminated[v] = True

        # New element: v's variable neighbors plus all variables of its
        # adjacent elements (the fill clique), minus eliminated ones.
        lv = set(adj_var[v])
        for e in adj_elem[v]:
            lv |= elem_vars.pop(e)
        lv.discard(v)
        lv = {u for u in lv if not eliminated[u]}
        elem_vars[v] = lv

        absorbed = adj_elem[v]
        for u in lv:
            adj_var[u].discard(v)
            adj_var[u] -= lv  # edges inside the clique now go via the element
            adj_elem[u] -= absorbed
            adj_elem[u].add(v)
            heapq.heappush(heap, (approx_degree(u), u))
        adj_var[v] = set()
        adj_elem[v] = set()
    return order


def tree_from_order(A: sp.spmatrix, order: np.ndarray,
                    max_block: int = 128) -> DissectionTree:
    """Build the supernodal tree of an arbitrary elimination order.

    Permutes the symmetrized pattern by ``order``, computes the scalar
    elimination tree, and merges *chains* (parent = next column, single
    child) into supernodes of at most ``max_block`` columns, numbered in
    postorder (``order``'s blocks reordered to match: the same supernodes
    and fill). The resulting tree satisfies the ancestor-closure property
    the block factorization asserts, so the whole 2D/3D stack runs on it
    unchanged.
    """
    order = np.asarray(order, dtype=np.int64)
    n = A.shape[0]
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of [0, n)")
    max_block = check_positive_int(max_block, "max_block")

    S = symmetrize_pattern(A)
    S_perm = S[order][:, order].tocsr()
    parent = elimination_tree(S_perm)  # scalar etree in permuted numbering

    # Greedy supernode merge: column v joins v - 1's supernode when v - 1
    # is its only child, until the supernode holds max_block columns.
    cols = np.arange(n, dtype=np.int64)
    joins = np.zeros(n, dtype=bool)
    nchildren = np.bincount(parent[parent >= 0], minlength=n)
    joins[1:] = (parent[:-1] == cols[1:]) & (nchildren[1:] == 1)
    run_start = np.maximum.accumulate(np.where(joins, 0, cols))
    is_start = ~joins | ((cols - run_start) % max_block == 0)
    starts = np.flatnonzero(is_start)
    sup_of = np.cumsum(is_start) - 1
    nb = starts.shape[0]

    last = np.append(starts[1:], n) - 1
    p = parent[last]
    sup_parent = np.where(p >= 0, sup_of[p], -1)
    # The factorization machinery wants a single root: chain any extra
    # forest roots under the last supernode (adds dependencies, never
    # removes them, so ancestor closure is preserved).
    sup_parent[:-1][sup_parent[:-1] == -1] = nb - 1

    # Renumber the supernodes in postorder, children in ascending id, so
    # that every subtree is an id range, and move ``order``'s blocks to
    # match: a topological order of the same tree, so the same fill.
    post = postorder(sup_parent)                    # post[new] = old
    new_id = np.empty(nb, dtype=np.int64)
    new_id[post] = np.arange(nb)
    sizes = (last + 1 - starts)[post]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    cols = np.arange(n) + np.repeat(starts[post] - offsets[:-1], sizes)
    return DissectionTree(np.append(new_id[sup_parent[post[:-1]]], -1),
                          order[cols], offsets)
