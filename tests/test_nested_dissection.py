"""Tests for separators and nested dissection.

The separator property — no edge between the two child regions of any
internal node — is what guarantees that the block fill stays within
ancestor-descendant block pairs, which in turn is what the 3D algorithm's
replication scheme relies on. So these tests check it exhaustively on every
generator family and (property-based) on random graphs.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    DissectionTree,
    bfs_level_separator,
    fiedler_separator,
    graph_nd,
    nested_dissection,
    repair_separator,
)
from repro.sparse import (
    circuit_like,
    grid2d_5pt,
    grid3d_7pt,
    kkt_like,
    random_symmetric_pattern,
    symmetrize_pattern,
)
from repro.sparse.pattern import strip_diagonal


def _check_tree_invariants(tree, A):
    """Full structural validation of a dissection tree against its matrix."""
    n = A.shape[0]
    # 1. Every vertex owned exactly once.
    owned = np.concatenate([tree.vertices(k) for k in range(tree.nblocks)])
    assert sorted(owned.tolist()) == list(range(n))
    # 2. Postorder: children have smaller ids; depths are parent+1.
    kids = np.arange(tree.nblocks - 1)
    assert (tree.parent[kids] > kids).all()
    assert (tree.depth[kids] == tree.depth[tree.parent[kids]] + 1).all()
    # 3. No block has size zero.
    assert (tree.layout.sizes() > 0).all()
    # 4. Separator property at every internal node: the induced subgraphs of
    #    any two distinct child subtrees are disconnected.
    S = strip_diagonal(symmetrize_pattern(A))
    for k in range(tree.nblocks):
        kids = tree.children_of(k)
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                va = np.concatenate(
                    [tree.vertices(d) for d in tree.subtree_of(kids[a])])
                vb = np.concatenate(
                    [tree.vertices(d) for d in tree.subtree_of(kids[b])])
                assert S[va][:, vb].nnz == 0, \
                    f"children of node {k} are connected"


class TestTreeArrays:
    """A tree is ``parent`` + ``perm`` + block offsets; the rest derives."""

    def _tree(self):
        # Leaves 0 and 1 under separator 2, chained under the root 3.
        return DissectionTree([2, 2, 3, -1], [4, 0, 5, 1, 2, 3],
                              [0, 2, 3, 5, 6])

    def test_derived_views(self):
        tree = self._tree()
        assert (tree.n, tree.nblocks, tree.root, tree.height()) == (6, 4, 3, 3)
        assert tree.sizes.tolist() == [2, 1, 2, 1]
        assert tree.depth.tolist() == [2, 2, 1, 0]
        assert tree.vertices(2).tolist() == [1, 2]
        assert tree.children_of(2).tolist() == [0, 1]
        assert tree.subtree_of(2).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("parent, offsets, match", [
        ([2, 2, -1, -1], [0, 2, 3, 5, 6], "one root"),
        ([2, 0, 3, -1], [0, 2, 3, 5, 6], "postorder"),
        ([2, 2, -1], [0, 2, 3, 5, 6], "parent links"),
        ([2, 3, 4, -1], [0, 2, 3, 5, 6], "postorder"),
        ([2, 2, 3, -1], [0, 2, 3, 5, 7], "owns"),
        # Parent after child, but 0 and 2 (node 2's subtree) enclose 1.
        ([2, 3, 3, -1], [0, 2, 3, 5, 6], "contiguous"),
    ])
    def test_malformed_is_refused(self, parent, offsets, match):
        with pytest.raises(ValueError, match=match):
            DissectionTree(parent, [4, 0, 5, 1, 2, 3], offsets)


class TestGeometricND:
    def test_all_families(self, any_matrix):
        A, geom = any_matrix
        tree = nested_dissection(A, geom, leaf_size=24)
        _check_tree_invariants(tree, A)

    def test_planar_root_separator_is_line(self, planar_small):
        A, geom = planar_small
        tree = nested_dissection(A, geom, leaf_size=16)
        assert tree.sizes[tree.root] == 16  # one grid line

    def test_brick_root_separator_is_plane(self, brick_small):
        A, geom = brick_small
        tree = nested_dissection(A, geom, leaf_size=32)
        assert tree.sizes[tree.root] == 64  # one grid plane

    def test_leaf_size_respected(self, planar_small):
        A, geom = planar_small
        tree = nested_dissection(A, geom, leaf_size=10)
        leaves = ~np.isin(np.arange(tree.nblocks), tree.parent)
        assert (tree.sizes[leaves] <= 10).all()

    def test_single_node_tree(self):
        A, geom = grid2d_5pt(3)
        tree = nested_dissection(A, geom, leaf_size=100)
        assert tree.nblocks == 1
        assert tree.depth[0] == 0

    def test_separator_scaling_planar(self):
        """Planar root separators grow like sqrt(n) (Lipton-Tarjan regime)."""
        sizes = []
        for nx in (8, 16, 32):
            A, geom = grid2d_5pt(nx)
            tree = nested_dissection(A, geom, leaf_size=16)
            sizes.append(tree.sizes[tree.root])
        assert sizes == [8, 16, 32]  # exactly one grid line each

    def test_geometry_dimension_mismatch(self):
        from repro.sparse import GridGeometry
        A, _ = grid2d_5pt(4)
        bad = GridGeometry((5, 5), "bad")
        with pytest.raises(ValueError, match="multiple"):
            nested_dissection(A, bad)

    @pytest.mark.parametrize("how, match", [
        ("nan", "finite"), ("inf", "finite"), ("1d", r"\(n, d\)"),
        ("rows", r"\(n, d\)")])
    def test_bad_coordinates_are_refused_up_front(self, how, match):
        """A NaN coordinate used to fall into no part ("tree owns 122
        vertices but matrix has 144"), 1-D coordinates into a bare
        ``AxisError``."""
        from repro.ordering import geometric_nd
        A, geom = grid2d_5pt(12)
        coords = np.indices(geom.shape).reshape(2, -1).T.astype(float)
        if how in ("nan", "inf"):
            coords[5, 1] = np.nan if how == "nan" else np.inf
        elif how == "1d":
            coords = coords[:, 0]
        else:
            coords = coords[:-1]
        with pytest.raises(ValueError, match=match):
            geometric_nd(strip_diagonal(symmetrize_pattern(A)), coords,
                         leaf_size=16)


class TestRepairOnlyWhereAPlaneCanLeak:
    """On integer coordinates whose stored entries all span at most one
    lattice step per dimension no cut plane can leak, so no separator
    repair runs; long couplings or float coordinates keep it — and the
    trees stay the ones the repair would have produced."""

    @pytest.fixture
    def repairs(self, monkeypatch):
        import importlib
        nd = importlib.import_module("repro.ordering.nested_dissection")
        calls = []
        real = nd.repair_separator
        monkeypatch.setattr(nd, "repair_separator",
                            lambda *a: calls.append(1) or real(*a))
        return calls

    @pytest.mark.parametrize("gen, leaks", [
        (lambda: grid2d_5pt(24), False), (lambda: grid3d_7pt(8), False),
        (lambda: kkt_like(6), False), (lambda: circuit_like(24), True)],
        ids=["grid2d", "grid3d", "kkt_like", "circuit_like"])
    def test_repair_runs_only_where_a_plane_can_leak(self, repairs, gen,
                                                     leaks):
        A, geom = gen()
        _assert_separated(nested_dissection(A, geom, leaf_size=16), A)
        assert bool(repairs) == leaks

    def test_float_coordinates_keep_the_repair(self, repairs):
        from repro.ordering import geometric_nd
        A, geom = grid2d_5pt(24)
        S = strip_diagonal(symmetrize_pattern(A))
        coords = np.indices(geom.shape).reshape(2, -1).T
        lattice = geometric_nd(S, coords, leaf_size=16)
        assert not repairs
        real = geometric_nd(S, coords.astype(float), leaf_size=16)
        assert repairs
        assert np.array_equal(real.perm.perm, lattice.perm.perm)
        assert np.array_equal(real.parent, lattice.parent)


class TestGraphND:
    def test_on_grid_without_geometry(self, planar_small):
        A, _ = planar_small
        tree = nested_dissection(A, None, leaf_size=24)
        _check_tree_invariants(tree, A)

    def test_on_random_graph(self, random_small):
        A = random_small
        tree = nested_dissection(A, None, leaf_size=20)
        _check_tree_invariants(tree, A)

    def test_fiedler_method(self, planar_small):
        A, _ = planar_small
        tree = graph_nd(strip_diagonal(symmetrize_pattern(A)), leaf_size=32,
                        method="fiedler")
        _check_tree_invariants(tree, A)

    def test_unknown_method_rejected(self):
        A, _ = grid2d_5pt(4)
        with pytest.raises(ValueError, match="method"):
            graph_nd(A, method="magic")

    @given(st.integers(min_value=2, max_value=120),
           st.integers(min_value=0, max_value=10000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_graphs(self, n, seed):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        tree = nested_dissection(A, None, leaf_size=8)
        _check_tree_invariants(tree, A)


class TestSeparatorPrimitives:
    def test_bfs_separator_splits_path(self):
        # A path graph: separator should be ~1 vertex in the middle.
        n = 31
        G = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tocsr()
        sep, a, b = bfs_level_separator(G, np.arange(n))
        assert sep.size >= 1
        assert a.size > 0 and b.size > 0
        assert sep.size + a.size + b.size == n
        assert G[a][:, b].nnz == 0

    def test_bfs_separator_tiny_input(self):
        G = sp.csr_matrix((2, 2))
        sep, a, b = bfs_level_separator(G, np.arange(2))
        assert sep.size == 2 and a.size == 0 and b.size == 0

    def test_bfs_separator_disconnected(self):
        # Two disjoint triangles: balanced without any separator needed.
        blocks = sp.block_diag([np.ones((3, 3)) - np.eye(3)] * 2).tocsr()
        sep, a, b = bfs_level_separator(blocks, np.arange(6))
        assert blocks[a][:, b].nnz == 0
        assert abs(a.size - b.size) <= 3

    def test_fiedler_separator_grid(self):
        A, _ = grid2d_5pt(8)
        S = strip_diagonal(symmetrize_pattern(A))
        sep, a, b = fiedler_separator(S, np.arange(64))
        assert S[a][:, b].nnz == 0
        assert min(a.size, b.size) > 10  # reasonably balanced

    def test_fiedler_separator_disconnected_is_the_bfs_one(self):
        """The documented fallback: no eigenvector of a disconnected region."""
        blocks = sp.block_diag([strip_diagonal(grid2d_5pt(4)[0])] * 2).tocsr()
        got = fiedler_separator(blocks, np.arange(32))
        want = bfs_level_separator(blocks, np.arange(32))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_fiedler_ordering_repeats_across_processes(self):
        """Five fresh processes gave five permutations of this matrix while
        a disconnected region's separator was an arbitrary null-space vector
        of its Laplacian."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        code = (
            "import hashlib\n"
            "from repro.ordering import nested_dissection\n"
            "from repro.sparse import power_law_laplacian\n"
            "tree = nested_dissection(power_law_laplacian(600, seed=1)[0],"
            " None, leaf_size=16, method='fiedler')\n"
            "print(hashlib.sha1(tree.perm.perm.tobytes()).hexdigest())\n")
        src = Path(__file__).resolve().parent.parent / "src"
        runs = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
            for _ in range(2)]
        assert runs[0] == runs[1] and len(runs[0].strip()) == 40

    def test_repair_separator_moves_endpoints(self):
        # 0-1 edge crossing the parts: endpoint 0 must be promoted.
        G = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
        sep, a, b = repair_separator(
            G, np.array([], dtype=np.int64), np.array([0]), np.array([1]))
        assert 0 in sep.tolist()
        assert a.size == 0

    def test_repair_noop_when_clean(self):
        G = sp.csr_matrix((4, 4))
        sep, a, b = repair_separator(
            G, np.array([3]), np.array([0, 1]), np.array([2]))
        assert np.array_equal(sep, [3])
        assert np.array_equal(a, [0, 1])


# -- the ordering layer on CSR frontiers ------------------------------------

def _assert_separated(tree, adj):
    """No stored off-diagonal entry of ``adj`` joins two tree nodes that are
    not ancestor and descendant — the invariant block fill relies on.
    Structural: an entry is an edge whatever value it stores."""
    nb = tree.nblocks
    owner = np.repeat(np.arange(nb), tree.layout.sizes())[tree.perm.iperm]
    # Postorder: the subtree of node k is the id range [first[k], k].
    first = np.arange(nb)
    for c in range(nb - 1):
        first[tree.parent[c]] = min(first[tree.parent[c]], first[c])
    adj = sp.csr_matrix(adj)
    u = owner[np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))]
    v = owner[adj.indices]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    stray = np.flatnonzero(lo < first[hi])
    assert stray.size == 0, \
        f"{stray.size} stored entries join unrelated nodes, e.g. " \
        f"{lo[stray[0]]} and {hi[stray[0]]}"


def _reweighted(S, how):
    """``S``'s structure with negative or explicitly stored zero values."""
    S = sp.csr_matrix(S, dtype=np.float64, copy=True)
    S.data[:] = {"negative": -1.25, "zero": 0.0}[how]
    return S


class TestStructureOnlyAdjacency:
    """Separators read which entries are stored, never what they store."""

    def test_weighted_path_crossing_found(self):
        # Path 0-1-2-3, weights -1, split {0,1} | {2,3}: edge 1-2 crosses.
        G = -sp.diags([np.ones(3), np.ones(3)], [1, -1]).tocsr()
        sep, a, b = repair_separator(G, np.array([], dtype=np.int64),
                                     np.array([0, 1]), np.array([2, 3]))
        assert sep.tolist() == [1] and a.tolist() == [0] \
            and b.tolist() == [2, 3]

    def test_geometric_nd_on_raw_matrix(self):
        """The raw circuit matrix (off-diagonals -1.14...) as adjacency: the
        vias crossing a coordinate plane must still be repaired."""
        from repro.ordering import geometric_nd
        A, geom = circuit_like(16)
        coords = np.indices(geom.shape).reshape(2, -1).T
        _assert_separated(geometric_nd(A, coords, leaf_size=16), A)

    @pytest.mark.parametrize("how", ["negative", "zero"])
    def test_geometric_nd_weighted(self, how):
        from repro.ordering import geometric_nd
        A, geom = circuit_like(16)
        S = _reweighted(strip_diagonal(symmetrize_pattern(A)), how)
        coords = np.indices(geom.shape).reshape(2, -1).T
        _assert_separated(geometric_nd(S, coords, leaf_size=16), S)

    @pytest.mark.parametrize("how", ["negative", "zero"])
    @pytest.mark.parametrize("method", ["bfs", "fiedler"])
    def test_graph_nd_weighted(self, method, how):
        A, _ = circuit_like(16)
        S = _reweighted(strip_diagonal(symmetrize_pattern(A)), how)
        tree = graph_nd(S, leaf_size=16, method=method)
        _assert_separated(tree, S)
        # ... and values do not steer the ordering at all.
        ref = graph_nd(_reweighted(S, "negative"), leaf_size=16,
                       method=method)
        assert np.array_equal(tree.perm.perm, ref.perm.perm)

    def test_stored_diagonal_is_not_an_edge(self):
        A, _ = grid2d_5pt(8)
        S = strip_diagonal(symmetrize_pattern(A))
        with_diag = (S + sp.identity(64, dtype=bool, format="csr")).tocsr()
        for method in ("bfs", "fiedler"):
            t0 = graph_nd(S, leaf_size=8, method=method)
            t1 = graph_nd(with_diag, leaf_size=8, method=method)
            assert np.array_equal(t0.perm.perm, t1.perm.perm)


class TestUnsplittableRegion:
    """A region the separator cannot split is a leaf, not a vertex-by-vertex
    chain as deep as the region is large."""

    @pytest.mark.parametrize("n", [300, 1200])
    def test_clique_is_one_leaf(self, n):
        K = sp.csr_matrix(np.ones((n, n)))
        tree = nested_dissection(K, None, leaf_size=64)
        assert tree.nblocks == 1 and tree.height() == 1
        assert np.array_equal(tree.perm.perm, np.arange(n))

    def test_clique_is_chunked_by_max_block(self):
        K = sp.csr_matrix(np.ones((300, 300)))
        tree = nested_dissection(K, None, leaf_size=64, max_block=64)
        assert tree.nblocks == 5 and tree.height() == 5  # ceil(300 / 64)
        assert tree.sizes.max() <= 64
        assert np.array_equal(tree.parent, [1, 2, 3, 4, -1])

    def test_star_is_one_leaf(self):
        """Entered at its hub (vertex 0) a star is one BFS level deep."""
        tree = nested_dissection(_shape_graph("star", 100, 0), None,
                                 leaf_size=16)
        assert tree.nblocks == 1

    @pytest.mark.parametrize("glued", [True, False])
    def test_clique_and_grid_still_dissects_grid(self, glued):
        """A clique glued to a grid corner lies in one BFS level, so it ends
        up in a separator; a clique *beside* the grid becomes a region of
        its own — the unsplittable case. Either way the clique stays in at
        most two nodes and the grid is dissected down to ``leaf_size``."""
        A, _ = grid2d_5pt(16)
        n, k = A.shape[0], 80
        G = sp.block_diag([A, np.ones((k, k))], format="lil")
        if glued:
            G[n - 1, n] = G[n, n - 1] = 1.0
        G = G.tocsr()
        tree = nested_dissection(G, None, leaf_size=32)
        _check_tree_invariants(tree, G)
        clique = set(range(n, n + k))
        holders = [k for k in range(tree.nblocks)
                   if clique & set(tree.vertices(k).tolist())]
        assert len(holders) <= 2            # not peeled into a chain
        assert tree.height() <= 8
        grid_leaves = [k for k in range(tree.nblocks)
                       if k not in tree.parent
                       and not clique & set(tree.vertices(k).tolist())]
        assert len(grid_leaves) >= 8
        assert all(tree.sizes[k] <= 32 for k in grid_leaves)

    def test_two_sided_empty_separator_still_recurses(self):
        """Disconnected halves (empty separator, both parts non-empty) are
        the legitimate case for promoting one vertex to the separator."""
        blocks = sp.block_diag([grid2d_5pt(6)[0]] * 2, format="csr")
        tree = nested_dissection(blocks, None, leaf_size=12)
        _check_tree_invariants(tree, blocks)
        assert tree.nblocks > 3


def _referee_bfs_levels(G, root):
    """The per-vertex BFS this layer used before the frontier gather
    (commit bb028c3, verbatim) — kept here as the referee."""
    n = G.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    indptr, indices = G.indptr, G.indices
    while frontier.size:
        d += 1
        nxt = []
        for u in frontier:
            nbrs = indices[indptr[u]:indptr[u + 1]]
            new = nbrs[level[nbrs] == -1]
            level[new] = d
            nxt.append(new)
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.array([], dtype=np.int64)
    return level


def _shape_graph(shape, n, seed):
    if shape == "random":
        return strip_diagonal(symmetrize_pattern(
            random_symmetric_pattern(n, avg_degree=2.5, seed=seed)))
    if shape == "disconnected":
        half = strip_diagonal(symmetrize_pattern(
            random_symmetric_pattern(max(n // 2, 2), 3.0, seed=seed)))
        return sp.block_diag([half, half, sp.csr_matrix((3, 3))],
                             format="csr")
    if shape == "path":
        return sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tocsr()
    if shape == "clique":
        return sp.csr_matrix(np.ones((n, n)) - np.eye(n))
    star = sp.lil_matrix((n, n))
    star[0, 1:] = 1
    star[1:, 0] = 1
    return star.tocsr()


class TestFrontierBFS:
    @given(st.sampled_from(["random", "disconnected", "path", "clique",
                            "star"]),
           st.integers(min_value=2, max_value=90),
           st.integers(min_value=0, max_value=10000),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_levels_equal_referee(self, shape, n, seed, data):
        from repro.ordering.separators import _bfs_levels
        G = _shape_graph(shape, n, seed)
        root = data.draw(st.integers(min_value=0, max_value=G.shape[0] - 1))
        got = _bfs_levels((G.indptr, G.indices), root)
        assert np.array_equal(got, _referee_bfs_levels(G, root))

    def test_sweep_count_guard(self, monkeypatch):
        """BFS sweeps per dissection repeat exactly (170 before the sweeps
        were shared, 100 after): a lost reuse fails here, not in a timing."""
        from repro.ordering import separators
        sweeps = []
        real = separators._bfs_levels
        monkeypatch.setattr(
            separators, "_bfs_levels",
            lambda *a: sweeps.append(1) or real(*a))
        nested_dissection(circuit_like(48)[0], None, leaf_size=64)
        assert 0 < len(sweeps) <= 110


class TestGoldenOrderings:
    """Trees pinned to the pre-frontier ordering layer (see
    tests/data/regen_orderings.py for what may differ and why)."""

    def test_trees_match_golden(self):
        import json

        from tests.data.regen_orderings import OUT, REGENERATED, cases
        golden = json.loads(OUT.read_text())
        built = dict(cases())
        assert set(built) == set(golden)
        assert set(REGENERATED) <= set(golden)
        differ = [name for name, thunk in built.items()
                  if thunk() != golden[name]]
        assert differ == []


class TestSubtreesAreIdRanges:
    """Every tree builder numbers true postorder: every subtree is the id
    range ``first[v] .. v``, which ``subtree_of`` and the tree partition
    read instead of walking the tree (``DissectionTree`` refuses a tree
    where one is not: ``TestTreeArrays::test_malformed_is_refused``)."""

    @staticmethod
    def walked(tree, k):
        inside = np.zeros(tree.nblocks, dtype=bool)
        inside[k] = True
        for v in range(k - 1, -1, -1):
            inside[v] = inside[tree.parent[v]]
        return np.flatnonzero(inside)

    @pytest.mark.parametrize("leaf", [8, 32])
    @pytest.mark.parametrize("name", ["grid2d_20", "grid3d_7", "circuit_16",
                                      "kkt_5", "power_law_300",
                                      "arrowhead_256", "delaunay_300",
                                      "banded_300"])
    def test_every_builder_numbers_true_postorder(self, name, leaf):
        from repro.ordering import (
            minimum_degree_order,
            relax_supernodes,
            tree_from_order,
        )
        from repro.symbolic import symbolic_factorize
        from tests.data.regen_supernodes import matrices
        A, geom = dict(matrices())[name]()
        trees = [symbolic_factorize(A, geom, leaf_size=leaf, max_block=cap,
                                    blocking=blocking).tree
                 for blocking in ("uniform", "irregular")
                 for cap in (None, 16, 256)]
        trees.append(relax_supernodes(
            nested_dissection(A, geom, leaf_size=leaf), min_size=24))
        trees.append(tree_from_order(A, minimum_degree_order(A),
                                     max_block=leaf))
        for tree in trees:
            for k in range(0, tree.nblocks, max(1, tree.nblocks // 16)):
                assert tree.subtree_of(k).tolist() == \
                    self.walked(tree, k).tolist()
