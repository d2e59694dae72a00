"""Tests for the minimum-degree ordering and order-to-tree conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import ProcessGrid3D, Simulator
from repro.lu3d import factor_3d
from repro.ordering import minimum_degree_order, tree_from_order
from repro.sparse import random_symmetric_pattern
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from tests.conftest import one_layer


class TestMinimumDegreeOrder:
    def test_is_permutation(self, planar_small):
        A, _ = planar_small
        order = minimum_degree_order(A)
        assert sorted(order.tolist()) == list(range(A.shape[0]))

    def test_star_graph_eliminates_leaves_first(self):
        """On a star, the hub (degree n-1) must come last."""
        import scipy.sparse as sp
        n = 9
        D = np.eye(n)
        D[0, :] = D[:, 0] = 1
        order = minimum_degree_order(sp.csr_matrix(D))
        assert order[-1] == 0

    def test_path_graph_fill_free(self):
        """MD on a path gives a fill-free order (perfect elimination)."""
        import scipy.sparse as sp
        n = 20
        A = sp.diags([np.ones(n - 1), 2 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        order = minimum_degree_order(A)
        tree = tree_from_order(A, order, max_block=1)
        sf = symbolic_factorize(A, tree=tree)
        # Fill-free: factor words == diagonal + one off-diagonal per column.
        assert sf.costs.total_words <= 2 * n + n

    def test_beats_natural_order_fill(self, planar_small):
        A, _ = planar_small
        n = A.shape[0]
        md = symbolic_factorize(
            A, tree=tree_from_order(A, minimum_degree_order(A)))
        nat = symbolic_factorize(
            A, tree=tree_from_order(A, np.arange(n)))
        assert md.costs.total_words < 0.5 * nat.costs.total_words

    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=0, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_property_random(self, n, seed):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        order = minimum_degree_order(A)
        assert sorted(order.tolist()) == list(range(n))

    def test_deterministic(self, planar_small):
        A, _ = planar_small
        assert np.array_equal(minimum_degree_order(A),
                              minimum_degree_order(A))


class TestTreeFromOrder:
    def test_rejects_non_permutation(self, planar_small):
        A, _ = planar_small
        with pytest.raises(ValueError, match="permutation"):
            tree_from_order(A, np.zeros(A.shape[0], dtype=int))

    def test_block_cap_respected(self, planar_small):
        A, _ = planar_small
        tree = tree_from_order(A, minimum_degree_order(A), max_block=16)
        assert tree.layout.sizes().max() <= 16

    def test_single_root(self, planar_small):
        A, _ = planar_small
        tree = tree_from_order(A, minimum_degree_order(A))
        assert int(np.sum(tree.parent == -1)) == 1

    def test_disconnected_graph_handled(self):
        import scipy.sparse as sp
        A = sp.block_diag([np.array([[2.0, 1], [1, 2]])] * 3).tocsr()
        tree = tree_from_order(A, minimum_degree_order(A))
        assert tree.n == 6

    def test_numeric_lu_correct_with_md(self, planar_small):
        """The full 2D factorization is exact under an MD ordering."""
        A, _ = planar_small
        sf = symbolic_factorize(
            A, tree=tree_from_order(A, minimum_degree_order(A), max_block=32))
        LU = factor_3d(sf, *one_layer(sf, 2, 2),
                       Simulator(4)).factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        err = np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max()
        assert err < 1e-10

    def test_numeric_3d_correct_with_md(self, planar_small):
        """Even the 3D algorithm runs on an MD tree (badly, but correctly)."""
        A, _ = planar_small
        sf = symbolic_factorize(
            A, tree=tree_from_order(A, minimum_degree_order(A), max_block=32))
        tf = greedy_partition(sf, 2)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), Simulator(8))
        LU = res.factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        err = np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max()
        assert err < 1e-10

    def test_md_tree_much_deeper_than_nd(self, planar_small):
        """The structural reason MD is a poor fit for the 3D algorithm."""
        A, geom = planar_small
        md = tree_from_order(A, minimum_degree_order(A), max_block=32)
        nd = symbolic_factorize(A, geom, leaf_size=32).tree
        assert md.height() > 2 * nd.height()
