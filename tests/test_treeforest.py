"""Tests for the tree-forest structure and the partition heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import grid2d_5pt, random_symmetric_pattern
from repro.symbolic import symbolic_factorize
from repro.tree import (
    TreeForest,
    critical_path_cost,
    greedy_partition,
    naive_partition,
)


@pytest.fixture(scope="module")
def sf_planar():
    A, geom = grid2d_5pt(32)
    return symbolic_factorize(A, geom, leaf_size=16)


def _check_forest_invariants(tf, sf):
    """Structural invariants every partition must satisfy."""
    nb = sf.nb
    # Cover: every node in exactly one forest (TreeForest ctor enforces it,
    # but re-check through the public queries).
    seen = []
    for q in range(tf.l + 1):
        seen.extend(tf.nodes_at_level(q))
    assert sorted(seen) == list(range(nb))
    # Grid mapping consistency.
    for v in range(nb):
        grids = tf.grids_of_node(v)
        assert len(grids) == 2 ** (tf.l - int(tf.node_level[v]))
        assert tf.home_grid(v) == grids.start
    # Local forests: grid g sees exactly the forests on its root path.
    for g in range(tf.pz):
        lf = tf.local_forest(g)
        assert len(lf) == tf.l + 1
        for q, nodes in enumerate(lf):
            for v in nodes:
                assert g in tf.grids_of_node(v)
    # Bottom-up ordering within each forest.
    for (q, b), nodes in tf.forests.items():
        assert nodes == sorted(nodes)


class TestGreedyPartition:
    @pytest.mark.parametrize("pz", [1, 2, 4, 8, 16])
    def test_invariants(self, sf_planar, pz):
        tf = greedy_partition(sf_planar, pz)
        _check_forest_invariants(tf, sf_planar)

    def test_pz_one_single_forest(self, sf_planar):
        tf = greedy_partition(sf_planar, 1)
        assert tf.forests[(0, 0)] == list(range(sf_planar.nb))
        assert tf.replication_factor() == 1.0

    def test_rejects_non_power_of_two(self, sf_planar):
        with pytest.raises(ValueError, match="power of two"):
            greedy_partition(sf_planar, 3)

    def test_rejects_bad_weights(self, sf_planar):
        with pytest.raises(ValueError, match="length"):
            greedy_partition(sf_planar, 2, weights=np.ones(3))

    def test_critical_path_decreases_with_pz(self, sf_planar):
        w = sf_planar.costs.node_flops
        costs = [critical_path_cost(greedy_partition(sf_planar, pz), w)
                 for pz in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_critical_path_at_least_max_branch(self, sf_planar):
        """CP can never undercut the heaviest single node."""
        w = sf_planar.costs.node_flops
        tf = greedy_partition(sf_planar, 8)
        assert critical_path_cost(tf, w) >= w.max()

    def test_never_worse_than_naive(self, sf_planar):
        w = sf_planar.costs.node_flops
        for pz in (2, 4, 8):
            cg = critical_path_cost(greedy_partition(sf_planar, pz), w)
            cn = critical_path_cost(naive_partition(sf_planar, pz), w)
            assert cg <= cn + 1e-9

    def test_unbalanced_tree_beats_naive(self):
        """Fig. 8's scenario: greedy strictly wins on an unbalanced tree.

        Build a skewed weight profile on a planar dissection: one deep
        subtree is 20x heavier, so the naive ND split is badly off.
        """
        A, geom = grid2d_5pt(16)
        sf = symbolic_factorize(A, geom, leaf_size=8)
        rng = np.random.default_rng(0)
        w = np.ones(sf.nb)
        # Make the first leaf subtree dominant.
        first_child = sf.tree.children_of(sf.tree.root)[0]
        w[sf.tree.subtree_of(first_child)] = 20.0
        cg = critical_path_cost(greedy_partition(sf, 2, weights=w), w)
        cn = critical_path_cost(naive_partition(sf, 2, weights=w), w)
        assert cg < cn

    @given(st.integers(min_value=10, max_value=100),
           st.integers(min_value=0, max_value=1000),
           st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, n, seed, pz):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        sf = symbolic_factorize(A, None, leaf_size=8)
        tf = greedy_partition(sf, pz)
        _check_forest_invariants(tf, sf)


class TestNaivePartition:
    @pytest.mark.parametrize("pz", [2, 4, 8])
    def test_invariants(self, sf_planar, pz):
        tf = naive_partition(sf_planar, pz)
        _check_forest_invariants(tf, sf_planar)

    def test_top_forest_is_root_chain(self, sf_planar):
        tf = naive_partition(sf_planar, 2)
        root = sf_planar.tree.root
        assert root in tf.forests[(0, 0)]


class TestTreeForestValidation:
    def test_missing_forest_key_rejected(self, sf_planar):
        tf = greedy_partition(sf_planar, 2)
        bad = dict(tf.forests)
        del bad[(1, 1)]
        with pytest.raises(ValueError, match="every"):
            TreeForest(2, bad, sf_planar.tree.parent)

    def test_double_assignment_rejected(self, sf_planar):
        tf = greedy_partition(sf_planar, 2)
        bad = {k: list(v) for k, v in tf.forests.items()}
        v0 = bad[(1, 0)][0]
        bad[(1, 1)] = bad[(1, 1)] + [v0]
        with pytest.raises(ValueError, match="two forests"):
            TreeForest(2, bad, sf_planar.tree.parent)

    def test_unassigned_node_rejected(self, sf_planar):
        tf = greedy_partition(sf_planar, 2)
        bad = {k: list(v) for k, v in tf.forests.items()}
        bad[(1, 0)] = bad[(1, 0)][1:]
        with pytest.raises(ValueError, match="not assigned"):
            TreeForest(2, bad, sf_planar.tree.parent)

    def test_parent_in_deeper_level_rejected(self, sf_planar):
        """A child living above its parent breaks replication nesting."""
        tf = greedy_partition(sf_planar, 2)
        root = sf_planar.tree.root
        kid = sf_planar.tree.children_of(root)[0]
        bad = {k: [v for v in vs if v not in (root, kid)]
               for k, vs in tf.forests.items()}
        bad[(1, 0)] = sorted(bad[(1, 0)] + [root])   # root below...
        bad[(0, 0)] = sorted(bad[(0, 0)] + [kid])    # ...its child above
        with pytest.raises(ValueError, match="inconsistent"):
            TreeForest(2, bad, sf_planar.tree.parent)

    @pytest.mark.parametrize("forests, bad", [
        ({(0, 0): [-1], (1, 0): [0], (1, 1): [1]}, -1),   # aliases node 2
        ({(0, 0): [2, -1], (1, 0): [0, -1], (1, 1): [1]}, -1),
        ({(0, 0): [2, 3], (1, 0): [0], (1, 1): [1]}, 3),
    ])
    def test_node_id_out_of_range_rejected(self, forests, bad):
        """A negative id must not alias a node from the end, nor an id past
        the last node surface as an ``IndexError``: a ``ValueError``
        naming the first offender, before any other check."""
        with pytest.raises(ValueError,
                           match=rf"^node id {bad} out of range \[0, 3\)$"):
            TreeForest(2, forests, parent=[2, 2, -1])

    # Each error names the first offender the per-node loops met: forests
    # in key order and their nodes in list order; children by ascending id.
    PARENT5 = [2, 2, 4, 4, -1]

    def test_double_assignment_names_first_repeat(self):
        forests = {(0, 0): [4], (1, 0): [0, 1, 2], (1, 1): [3, 1, 0]}
        with pytest.raises(ValueError,
                           match=r"^node 1 assigned to two forests$"):
            TreeForest(2, forests, self.PARENT5)

    def test_missing_nodes_listed(self):
        forests = {(0, 0): [4], (1, 0): [0], (1, 1): [2]}
        with pytest.raises(ValueError, match=r"^nodes \[1, 3\] not assigned "
                                             r"to any forest$"):
            TreeForest(2, forests, self.PARENT5)

    def test_inconsistent_parent_names_first_child(self):
        """Every child is inconsistent here; child 0 is reported."""
        forests = {(0, 0): [0, 3], (1, 0): [1, 4], (1, 1): [2]}
        with pytest.raises(ValueError, match=(
                r"^parent 2 \(level 1, forest 1\) inconsistent with child 0 "
                r"\(level 0, forest 0\)$")):
            TreeForest(2, forests, self.PARENT5)

    def test_forest_of_grid_range_check(self, sf_planar):
        tf = greedy_partition(sf_planar, 2)
        with pytest.raises(ValueError, match="out of range"):
            tf.forest_of_grid(5, 0)

    def test_replication_factor_grows_with_pz(self, sf_planar):
        rf = [greedy_partition(sf_planar, pz).replication_factor()
              for pz in (1, 2, 4, 8)]
        assert all(a <= b for a, b in zip(rf, rf[1:]))
        assert rf[0] == 1.0


class TestCriticalPathCost:
    def test_pz1_equals_sequential(self, sf_planar):
        w = sf_planar.costs.node_flops
        tf = greedy_partition(sf_planar, 1)
        assert critical_path_cost(tf, w) == pytest.approx(w.sum())

    def test_toy_tree_hand_computed(self):
        """7-node balanced tree, unit child costs, root cost 3."""
        parent = np.array([2, 2, 6, 5, 5, 6, -1])
        w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0])
        forests = {(0, 0): [6], (1, 0): [0, 1, 2], (1, 1): [3, 4, 5]}
        tf = TreeForest(2, forests, parent)
        assert critical_path_cost(tf, w) == pytest.approx(3.0 + 3.0)
