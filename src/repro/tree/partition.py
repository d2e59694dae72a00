"""Etree partitioning: the greedy load-balance heuristic of Section III-C.

Splitting a (forest of) subtree(s) into two child forests plus a common
ancestor chain is the core scheduling decision of the 3D algorithm. The
paper's heuristic greedily minimizes

.. math:: T(S) + \\max\\{T(C_1), T(C_2)\\}

where ``T`` sums the per-node factorization flops: starting from whole
subtrees as indivisible items, it repeatedly *splits* the heaviest subtree
(promoting its root into the ancestor set ``S`` and releasing its children
as new items) whenever that lowers the objective, re-running a
largest-first bin packing of items into the two children after each split
(Fig. 8).

:func:`naive_partition` is the ablation baseline: it always takes the plain
nested-dissection split — ancestors = the root chain, children = the two
topmost subtrees — regardless of balance (Fig. 8, left).
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.symbolic_factor import SymbolicFactorization
from repro.tree.treeforest import TreeForest
from repro.utils import check_power_of_two

__all__ = ["greedy_partition", "naive_partition", "critical_path_cost"]


def _tree_tables(parent: np.ndarray, weights: np.ndarray
                 ) -> tuple[list[list[int]], np.ndarray]:
    """``(kids, sub)``: each node's children and the weight of its whole
    subtree, built once per partition call and shared by its candidates.
    Postorder ids make ``sub`` one pass; it adds in ascending id order
    (children first), the order every pinned partition depends on."""
    kids: list[list[int]] = [[] for _ in range(parent.shape[0])]
    sub = weights.astype(np.float64).tolist()
    for v, p in enumerate(parent.tolist()):
        if p != -1:
            kids[p].append(v)
            sub[p] += sub[v]
    return kids, np.asarray(sub)


def _pack_two_bins(items: list[int], sub: np.ndarray
                   ) -> tuple[list[int], list[int], float]:
    """Largest-first greedy packing of subtree roots into two bins.

    Returns (bin_a, bin_b, max_bin_weight).
    """
    order = sorted(items, key=lambda v: -sub[v])
    bins: tuple[list[int], list[int]] = ([], [])
    loads = [0.0, 0.0]
    for v in order:
        tgt = 0 if loads[0] <= loads[1] else 1
        bins[tgt].append(v)
        loads[tgt] += sub[v]
    return bins[0], bins[1], max(loads)


def _greedy_split(roots: list[int], parent: np.ndarray, weights: np.ndarray,
                  sub: np.ndarray, kids: list[list[int]],
                  max_splits: int = 64
                  ) -> tuple[list[int], list[int], list[int]]:
    """Split a forest (given by subtree roots) into (S, C1 roots, C2 roots).

    Implements the greedy improvement loop described in the module
    docstring. ``S`` is returned as a node list; its members' ancestors
    within the forest are guaranteed to be in ``S`` too (we only ever split
    current items, which are children of already-split nodes or original
    roots).
    """
    S: list[int] = []
    s_weight = 0.0
    items = list(roots)

    bin_a, bin_b, obj_children = _pack_two_bins(items, sub)
    best_obj = s_weight + obj_children

    splits = 0
    while splits < max_splits and items:
        heaviest = max(items, key=lambda v: sub[v])
        if not kids[heaviest]:
            break  # heaviest item is a leaf: no further refinement possible
        # Splitting a subtree promotes its root *and any single-child chain
        # below it* into S in one move: chains arise from the max_block
        # supernode cap (one paper-level separator = several blocks), and
        # evaluating the objective mid-chain would always look like a pure
        # loss, stalling the heuristic before the branching node where the
        # actual rebalancing opportunity lives.
        chain = [heaviest]
        while len(kids[chain[-1]]) == 1:
            chain.append(kids[chain[-1]][0])
        exposed = kids[chain[-1]]
        # A degenerate packing (an empty bin) means the forest cannot be
        # balanced at all yet — e.g. a single root: splits are then forced
        # regardless of the objective.
        forced = not bin_a or not bin_b
        trial_items = [v for v in items if v != heaviest] + list(exposed)
        trial_s_weight = s_weight + float(weights[chain].sum())
        ta, tb, t_obj_children = _pack_two_bins(trial_items, sub)
        trial_obj = trial_s_weight + t_obj_children
        if not forced and trial_obj >= best_obj:
            break
        items = trial_items
        S.extend(chain)
        s_weight = trial_s_weight
        bin_a, bin_b, best_obj = ta, tb, trial_obj
        splits += 1

    return S, bin_a, bin_b


def _collect_subtrees(roots: list[int], first: np.ndarray) -> list[int]:
    """The nodes of the disjoint subtrees under ``roots``, ascending: each
    is the id range ``first[v] .. v``, and the ranges of ascending roots
    follow each other."""
    return [x for v in sorted(roots) for x in range(int(first[v]), v + 1)]


def _build_forests(parent: np.ndarray, weights: np.ndarray, pz: int,
                   splitter, kids: list[list[int]], sub: np.ndarray,
                   first: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Split level by level: forest ``b`` of level ``q`` keeps its
    ancestor set and hands its two child forests' roots to forests ``2b``
    and ``2b + 1`` of level ``q + 1``; the last level takes whole subtrees."""
    nlev = int(np.log2(pz))
    level = [sorted(np.flatnonzero(parent == -1).tolist())]
    forests: dict[tuple[int, int], list[int]] = {}
    for q in range(nlev):
        below = []
        for b, forest_roots in enumerate(level):
            S, c1, c2 = splitter(forest_roots, parent, weights, sub, kids)
            forests[(q, b)] = sorted(S)
            below += [c1, c2]
        level = below
    for b, forest_roots in enumerate(level):
        forests[(nlev, b)] = _collect_subtrees(forest_roots, first)
    return forests


def greedy_partition(sf: SymbolicFactorization, pz: int,
                     weights: np.ndarray | None = None) -> TreeForest:
    """Partition ``sf``'s block etree for ``pz`` grids (paper heuristic).

    ``weights`` defaults to the symbolic per-node flop counts — the cost
    function the paper uses. Any positive array of length ``nb`` is accepted
    (the partition ablation test passes alternative cost models).

    The result is floored by the naive nested-dissection partition: both
    full partitions are built and the one with the smaller critical-path
    cost wins, so the heuristic can never end up worse than the plain ND
    split it is meant to improve on (the premise of Fig. 8). Local greedy
    decisions alone cannot guarantee that — a split that looks better at
    one level can recurse into worse sub-splits.
    """
    pz = check_power_of_two(pz, "pz")
    parent = sf.tree.parent
    if weights is None:
        weights = sf.costs.node_flops
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != parent.shape[0]:
        raise ValueError("weights length must equal number of blocks")
    tables = *_tree_tables(parent, weights), sf.tree.first
    greedy = TreeForest(pz, _build_forests(parent, weights, pz,
                                           _greedy_split, *tables), parent)
    naive = TreeForest(pz, _build_forests(parent, weights, pz,
                                          _naive_split, *tables), parent)
    if critical_path_cost(naive, weights) < critical_path_cost(greedy, weights):
        return naive
    return greedy


def _naive_split(roots, parent, weights, sub, kids):
    """Plain ND split: pop root chains until two subtrees are exposed.

    With a binary dissection tree this is "S = root, C1/C2 = its children"
    (Fig. 8, left). Chains (single-child nodes) are absorbed into S.
    """
    S: list[int] = []
    items = list(roots)
    while len(items) == 1 and kids[items[0]]:
        v = items[0]
        S.append(v)
        items = list(kids[v])
    a, b, _ = _pack_two_bins(items, sub)
    return S, a, b


def naive_partition(sf: SymbolicFactorization, pz: int,
                    weights: np.ndarray | None = None) -> TreeForest:
    """Nested-dissection partition without load balancing (ablation baseline)."""
    pz = check_power_of_two(pz, "pz")
    parent = sf.tree.parent
    if weights is None:
        weights = sf.costs.node_flops
    weights = np.asarray(weights, dtype=np.float64)
    forests = _build_forests(parent, weights, pz, _naive_split,
                             *_tree_tables(parent, weights), sf.tree.first)
    return TreeForest(pz, forests, parent)


def critical_path_cost(tf: TreeForest, weights: np.ndarray) -> float:
    """Critical-path cost of a tree-forest under additive node ``weights``.

    ``T(q, b) = T(S_{q,b}) + max(T(q+1, 2b), T(q+1, 2b+1))``, level by
    level from the leaves up: the quantity the greedy heuristic minimizes
    (paper Fig. 8's 75 vs 95).
    """
    weights = np.asarray(weights, dtype=np.float64)
    below: list[float] = []
    for q in range(tf.l, -1, -1):
        own = [float(weights[f].sum()) if (f := tf.forests[(q, b)]) else 0.0
               for b in range(2 ** q)]
        below = own if q == tf.l else [
            t + max(below[2 * b], below[2 * b + 1]) for b, t in enumerate(own)]
    return below[0]
