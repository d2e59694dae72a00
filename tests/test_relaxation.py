"""Tests for supernode relaxation (amalgamation)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import ProcessGrid3D, Simulator
from repro.lu3d import factor_3d
from repro.ordering import nested_dissection, relax_supernodes
from repro.sparse import grid2d_5pt, random_symmetric_pattern
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from tests.conftest import one_layer


def _tree(leaf=8, nx=20):
    A, g = grid2d_5pt(nx)
    return A, nested_dissection(A, g, leaf_size=leaf, max_block=128)


class TestStructure:
    def test_reduces_block_count(self):
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=24)
        assert relaxed.nblocks < tree.nblocks
        assert relaxed.n == tree.n

    def test_vertices_conserved(self):
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=24)
        owned = np.concatenate([relaxed.vertices(k)
                                for k in range(relaxed.nblocks)])
        assert sorted(owned.tolist()) == list(range(tree.n))

    def test_permutation_unchanged(self):
        """Absorbing contiguous spans must not reorder any vertex."""
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=24)
        assert np.array_equal(relaxed.perm.perm, tree.perm.perm)

    def test_max_block_respected(self):
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=32, max_block=48)
        assert relaxed.layout.sizes().max() <= max(
            48, tree.layout.sizes().max())

    def test_min_size_one_is_noop(self):
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=1)
        assert relaxed.nblocks == tree.nblocks

    def test_postorder_and_single_root(self):
        A, tree = _tree()
        relaxed = relax_supernodes(tree, min_size=40)
        kids = np.arange(relaxed.nblocks - 1)
        assert (relaxed.parent[kids] > kids).all()
        assert int(np.sum(relaxed.parent == -1)) == 1

    @given(st.integers(min_value=10, max_value=100),
           st.integers(min_value=0, max_value=2000),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, n, seed, min_size):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        tree = nested_dissection(A, None, leaf_size=6)
        relaxed = relax_supernodes(tree, min_size=min_size, max_block=64)
        owned = np.concatenate([relaxed.vertices(k)
                                for k in range(relaxed.nblocks)])
        assert sorted(owned.tolist()) == list(range(n))
        assert np.array_equal(relaxed.perm.perm, tree.perm.perm)


class TestNumericsAndEffect:
    def test_factorization_exact_after_relaxation(self):
        A, tree = _tree(nx=16)
        relaxed = relax_supernodes(tree, min_size=24)
        sf = symbolic_factorize(A, tree=relaxed)
        LU = factor_3d(sf, *one_layer(sf, 2, 2),
                       Simulator(4)).factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        assert np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max() < 1e-10

    def test_3d_works_on_relaxed_tree(self):
        A, tree = _tree(nx=16)
        relaxed = relax_supernodes(tree, min_size=16)
        sf = symbolic_factorize(A, tree=relaxed)
        tf = greedy_partition(sf, 2)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 2), Simulator(8))
        LU = res.factors().to_dense()
        n = sf.n
        L = np.tril(LU, -1) + np.eye(n)
        assert np.abs(L @ np.triu(LU) - sf.A_perm.toarray()).max() < 1e-10

    def test_latency_fill_tradeoff(self):
        """The point of relaxation: far fewer messages, bounded extra fill."""
        A, tree = _tree(nx=24)
        relaxed = relax_supernodes(tree, min_size=24)
        stats = {}
        for label, t in (("orig", tree), ("relaxed", relaxed)):
            sf = symbolic_factorize(A, tree=t)
            sim = Simulator(4)
            factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
            stats[label] = (sim.msgs_per_rank().max(), sf.costs.total_words)
        msgs_o, words_o = stats["orig"]
        msgs_r, words_r = stats["relaxed"]
        assert msgs_r < 0.5 * msgs_o
        assert words_r < 3.0 * words_o


class TestGoldenSupernodes:
    """``golden_supernodes.json`` was written by the object-list builders
    (``DissectionNode`` per block): relaxed, irregular and minimum-degree
    trees must reproduce it byte for byte."""

    def test_regenerating_rewrites_the_file_byte_for_byte(self):
        import json

        from tests.data.regen_supernodes import OUT, cases
        records = {name: thunk() for name, thunk in cases()}
        assert len(records) == 192
        assert json.dumps(records, indent=1, sort_keys=True) + "\n" \
            == OUT.read_text()
