"""Tests for block symbolic factorization and cost estimation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import grid2d_5pt, random_symmetric_pattern
from repro.symbolic import symbolic_factorize
from repro.symbolic.fill import block_fill


def _unpivoted_dense_lu(A: np.ndarray) -> np.ndarray:
    M = A.copy()
    n = M.shape[0]
    for k in range(n - 1):
        M[k + 1:, k] /= M[k, k]
        M[k + 1:, k + 1:] -= np.outer(M[k + 1:, k], M[k, k + 1:])
    return M


def _fill_contained(sf, A) -> bool:
    """True iff the numeric fill of unpivoted LU lies within sf's pattern."""
    M = _unpivoted_dense_lu(sf.A_perm.toarray())
    filled = np.abs(M) > 1e-12
    blocks = sf.fill.all_blocks()
    lay = sf.layout
    rows, cols = np.nonzero(filled)
    bi = lay.block_of_index(rows)
    bj = lay.block_of_index(cols)
    return all((int(i), int(j)) in blocks for i, j in zip(bi, bj))


def _same_blocks(a, b) -> bool:
    """Trees ``a`` and ``b`` put the same vertex set in every block."""
    return all(np.array_equal(np.sort(a.vertices(k)), np.sort(b.vertices(k)))
               for k in range(a.nblocks))


class TestBlockFill:
    def test_fill_contains_numeric_fill(self, any_matrix):
        A, geom = any_matrix
        sf = symbolic_factorize(A, geom, leaf_size=24)
        assert _fill_contained(sf, A)

    @given(st.integers(min_value=5, max_value=80),
           st.integers(min_value=0, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_fill_contains_numeric_fill_random(self, n, seed):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        sf = symbolic_factorize(A, None, leaf_size=8)
        assert _fill_contained(sf, A)

    def test_fill_superset_of_A_pattern(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        blocks = sf.fill.all_blocks()
        coo = sf.A_perm.tocoo()
        bi = sf.layout.block_of_index(coo.row)
        bj = sf.layout.block_of_index(coo.col)
        assert all((int(i), int(j)) in blocks for i, j in zip(bi, bj))

    def test_ancestor_closure_enforced(self, planar_small):
        """Fill blocks only connect ancestor-related tree nodes."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        parent = sf.tree.parent

        def is_ancestor(a, d):
            while d != -1:
                if d == a:
                    return True
                d = int(parent[d])
            return False

        for k in range(sf.nb):
            for i in sf.fill.lpanel[k]:
                assert is_ancestor(int(i), k)
            for j in sf.fill.upanel[k]:
                assert is_ancestor(int(j), k)

    def test_closure_violation_detected(self):
        """A shuffled (non-postorder-consistent) parent array must raise."""
        A, geom = grid2d_5pt(8)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        bogus_parent = np.full(sf.nb, -1, dtype=np.int64)  # all roots
        if any(len(p) for p in sf.fill.lpanel):
            with pytest.raises(AssertionError, match="ancestor closure"):
                block_fill(sf.A_perm, sf.layout, tree_parent=bogus_parent)

    @staticmethod
    def _first_offender(fill, parent) -> str | None:
        """The per-block loop the closure check replaced: ``k`` ascending,
        L panel before U panel, each ascending."""
        def is_ancestor(a, d):
            while d != -1:
                if d == a:
                    return True
                d = int(parent[d])
            return False

        for k in range(fill.nb):
            for i in fill.lpanel[k].tolist():
                if not is_ancestor(i, k):
                    return f"L block ({i}, {k}) violates ancestor closure"
            for j in fill.upanel[k].tolist():
                if not is_ancestor(j, k):
                    return f"U block ({k}, {j}) violates ancestor closure"
        return None

    @pytest.mark.parametrize("cut", [0, 1, 2, 3])
    def test_closure_error_names_first_block_in_loop_order(self, cut):
        """Detach nodes from a real tree: many blocks then violate closure,
        and the error must name the one the per-block loop met first."""
        A, geom = grid2d_5pt(16)
        A = (sp.tril(A) + sp.triu(A, 2)).tocsr()    # L and U panels differ
        sf = symbolic_factorize(A, geom, leaf_size=8)
        parent = sf.tree.parent.copy()
        detached = [v for v in range(sf.nb - 1)
                    if parent[v] != -1][cut::5][:3]
        parent[detached] = -1
        want = self._first_offender(sf.fill, parent)
        assert want is not None
        with pytest.raises(AssertionError) as err:
            block_fill(sf.A_perm, sf.layout, tree_parent=parent)
        assert str(err.value) == want

    def test_parent_numbered_below_its_child_rejected(self):
        """The check lifts along increasing ancestor chains, so a parent
        array that is not topologically numbered is refused, not misread."""
        A, geom = grid2d_5pt(8)
        sf = symbolic_factorize(A, geom, leaf_size=8)
        parent = sf.tree.parent.copy()
        parent[1] = 0
        with pytest.raises(ValueError, match="above its child"):
            block_fill(sf.A_perm, sf.layout, tree_parent=parent)

    def test_closure_check_agrees_with_the_loop_on_random_forests(self):
        """Any topologically numbered forest (``parent > child``), not only
        contiguous postorders: pass/fail and the first offender match."""
        from repro.symbolic.fill import BlockFill, _check_ancestor_closure
        rng = np.random.default_rng(3)
        for _ in range(300):
            nb = int(rng.integers(1, 30))
            parent = np.array([rng.integers(v + 1, nb)
                               if v < nb - 1 and rng.random() < 0.9 else -1
                               for v in range(nb)], dtype=np.int64)
            anc = np.zeros((nb, nb), dtype=bool)     # anc[k, a]: a above k
            for k in range(nb - 1, -1, -1):
                if parent[k] != -1:
                    anc[k] = anc[parent[k]]
                    anc[k, parent[k]] = True
            # Mostly ancestors, now and then any later node.
            panels = [[np.flatnonzero((anc[k] & (rng.random(nb) < 0.7))
                                      | ((np.arange(nb) > k)
                                         & (rng.random(nb) < 0.01)))
                       for k in range(nb)] for _ in range(2)]
            fill = BlockFill(*panels)
            want = self._first_offender(fill, parent)
            try:
                _check_ancestor_closure(fill, parent)
                got = None
            except AssertionError as e:
                got = str(e)
            assert got == want

    def test_schur_pairs(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        for k in range(sf.nb):
            pairs = sf.fill.schur_pairs(k)
            assert len(pairs) == len(sf.fill.lpanel[k]) * len(sf.fill.upanel[k])

    def test_symmetric_pattern_gives_symmetric_fill(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        for k in range(sf.nb):
            assert np.array_equal(sf.fill.lpanel[k], sf.fill.upanel[k])

    def test_dimension_mismatch(self):
        A, geom = grid2d_5pt(4)
        sf = symbolic_factorize(A, geom, leaf_size=8)
        with pytest.raises(ValueError, match="mismatch"):
            block_fill(sp.identity(7, format="csr"), sf.layout)


class TestCosts:
    def test_total_flops_match_simulated_updates(self, planar_small):
        """Symbolic flop totals must equal what the driver executes."""
        from repro.comm import Simulator
        from repro.lu3d import factor_3d
        from tests.conftest import one_layer
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        sim = Simulator(4)
        factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
        executed = sum(f.sum() for f in sim.flops.values())
        assert executed == pytest.approx(sf.costs.total_flops, rel=1e-12)

    def test_flops_positive_and_finite(self, any_matrix):
        A, geom = any_matrix
        sf = symbolic_factorize(A, geom, leaf_size=24)
        assert (sf.costs.node_flops > 0).all()
        assert np.isfinite(sf.costs.total_flops)

    def test_factor_words_lower_bound(self, planar_small):
        """Factor storage at least covers the diagonal blocks."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        diag_words = (sf.layout.sizes().astype(float) ** 2).sum()
        assert sf.costs.total_words >= diag_words

    def test_subtree_flops_root_is_total(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        assert sf.subtree_flops(sf.tree.root) == pytest.approx(
            sf.costs.total_flops)

    def test_fill_ratio_ge_one_for_nd(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        assert sf.fill_ratio() > 1.0

    def test_describe(self, planar_small):
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        text = sf.describe()
        assert "n=256" in text and "nb=" in text


class TestFactorizeEntry:
    def test_precomputed_tree_reused(self, brick_small):
        """An explicit tree keeps its parent links and block boundaries;
        only the order inside each block is refined, and refining the
        result again gives it back as it is."""
        from repro.ordering import nested_dissection
        A, geom = brick_small
        tree = nested_dissection(A, geom, leaf_size=16)
        sf = symbolic_factorize(A, tree=tree)
        assert sf.tree is not tree
        assert np.array_equal(sf.tree.parent, tree.parent)
        assert np.array_equal(sf.layout.offsets, tree.layout.offsets)
        assert _same_blocks(sf.tree, tree)
        assert symbolic_factorize(A, tree=sf.tree).tree is sf.tree

    def test_rejects_dense(self):
        with pytest.raises(TypeError):
            symbolic_factorize(np.eye(4))

    @pytest.mark.parametrize("tree_n", [50, 150])
    def test_tree_of_another_size_is_refused(self, tree_n):
        """A tree built for another matrix names both sizes, not a
        truncated factorization or a bare IndexError."""
        from repro.ordering import nested_dissection
        A = sp.diags([np.ones(99), 4 * np.ones(100), np.ones(99)],
                     [-1, 0, 1], format="csr")
        B = sp.diags([np.ones(tree_n - 1), 4 * np.ones(tree_n),
                      np.ones(tree_n - 1)], [-1, 0, 1], format="csr")
        tree = nested_dissection(B, None, leaf_size=8)
        with pytest.raises(ValueError, match=f"100.*{tree_n}|{tree_n}.*100"):
            symbolic_factorize(A, tree=tree)

    def test_numeric_factor_respects_pattern(self, planar_small):
        """Blocks outside the fill pattern stay exactly zero during LU."""
        A, geom = planar_small
        sf = symbolic_factorize(A, geom, leaf_size=16)
        M = _unpivoted_dense_lu(sf.A_perm.toarray())
        lay = sf.layout
        blocks = sf.fill.all_blocks()
        for i in range(sf.nb):
            for j in range(sf.nb):
                if (i, j) not in blocks:
                    assert np.abs(M[lay.range_of(i), lay.range_of(j)]).max() \
                        < 1e-12


class TestAnalysisGolden:
    """``golden_analysis.json`` was written at ``86a81ba`` by the per-node
    loops (ordering recursion, block-pattern and closure loops, per-node
    costs, per-node block enumerators, the partition's per-node checks):
    the array passes must reproduce the tree, both panel CSRs, the costs,
    both enumerators' block arrays and every partition byte for byte."""

    def test_regenerating_rewrites_the_file_byte_for_byte(self):
        from tests.data.regen_analysis import OUT, cases, render
        records = {name: make() for name, make in cases()}
        assert len(records) == 18
        assert render(records) == OUT.read_text()


def _row_order_zoo():
    """13 matrices of every generator family, for the leaf / cap sweep."""
    from repro.sparse import (arrowhead, banded_dense_rows, circuit_like,
                              delaunay_mesh_2d, grid2d_9pt, grid3d_7pt,
                              grid3d_27pt, kkt_like, power_law_laplacian,
                              thin_slab_7pt)
    return {
        "grid2d_5pt(24)": grid2d_5pt(24),
        "grid2d_9pt(16)": grid2d_9pt(16),
        "grid3d_7pt(10)": grid3d_7pt(10),
        "grid3d_7pt(12)": grid3d_7pt(12),
        "grid3d_27pt(8)": grid3d_27pt(8),
        "thin_slab_7pt(12)": thin_slab_7pt(12),
        "circuit_like(16)": circuit_like(16),
        "kkt_like(6)": kkt_like(6),
        "random_symmetric_pattern(300)": (random_symmetric_pattern(300), None),
        "arrowhead(200)": arrowhead(200),
        "banded_dense_rows(300)": banded_dense_rows(300),
        "power_law_laplacian(300)": power_law_laplacian(300),
        "delaunay_mesh_2d(400)": delaunay_mesh_2d(400),
    }


def _row_range_gemm_flops(sf) -> float:
    """The Schur GEMMs' flops with every L block on its structural rows
    and every U block at full width: what the row ranges alone save."""
    from repro.lu2d.storage import extents, node_block_arrays
    _ptr, _ii, jj, _ww = node_block_arrays(sf)
    tgt, t0, t1, left = extents(sf).pairs.T[:4]
    s = sf.layout.sizes() * 1.0
    return float((2 * s[jj[left]] * (t1 - t0) * s[jj[tgt]]).sum())


class TestRowOrder:
    """Each block's rows are ordered by the smallest earlier block they
    touch, so an L block's structural rows are one tight range."""

    @staticmethod
    def _unrefined(A, tree, sf):
        """``sf`` as it was on the dissection's own order inside blocks."""
        from repro.symbolic.symbolic_factor import SymbolicFactorization
        return SymbolicFactorization(tree.perm.apply_matrix(A), tree,
                                     sf.fill, sf.costs)

    @pytest.mark.parametrize("blocking", ["uniform", "irregular"])
    def test_a_permutation_inside_blocks(self, any_matrix, blocking):
        """Same parent, offsets, vertex set per block and block fill as
        the tree it refines; refining again returns the tree itself."""
        from repro.ordering import cap_split, nested_dissection
        from repro.symbolic.blocking import irregular_blocking
        A, geom = any_matrix
        sf = symbolic_factorize(A, geom, leaf_size=16, max_block=32,
                                blocking=blocking)
        base = nested_dissection(A, geom, leaf_size=16)
        tree = irregular_blocking(A, base, 32)[0] \
            if sf.blocking_info.get("chose") == "irregular" \
            else cap_split(base, 32)
        assert np.array_equal(sf.tree.parent, tree.parent)
        assert np.array_equal(sf.layout.offsets, tree.layout.offsets)
        assert _same_blocks(sf.tree, tree)
        fill = block_fill(tree.perm.apply_matrix(A), tree.layout)
        for ours, theirs in ((sf.fill.lpanel, fill.lpanel),
                             (sf.fill.upanel, fill.upanel)):
            assert all(map(np.array_equal, ours, theirs))
        assert symbolic_factorize(A, tree=sf.tree).tree is sf.tree

    @pytest.mark.parametrize("empty", [[], [0, 77, 143]])
    def test_rows_sorted_by_the_loop_key(self, empty):
        """Per block, the refined order is the dissection's own order
        stably sorted by a plain loop's key: the smallest earlier block a
        vertex touches in ``A + Aᵀ`` (``nb`` if none), on an unsymmetric
        pattern, with empty rows (the last one too) or without."""
        from repro.ordering import nested_dissection
        A, _ = grid2d_5pt(12)
        r = np.arange(0, 144, 5)
        A = (A + sp.csr_matrix((np.ones(r.size), (r, (13 * r + 5) % 144)),
                               shape=A.shape)).tolil()
        for v in empty:
            A.rows[v], A.data[v] = [], []
        A = A.tocsr()
        tree = nested_dissection(A, None, leaf_size=8)
        sf = symbolic_factorize(A, tree=tree)
        block = {v: k for k in range(tree.nblocks)
                 for v in tree.vertices(k).tolist()}
        key = dict.fromkeys(block, tree.nblocks)
        C = A.tocoo()
        for a, b in zip(C.row.tolist(), C.col.tolist()):
            for u, v in ((a, b), (b, a)):
                if block[v] < block[u]:
                    key[u] = min(key[u], block[v])
        for k in range(tree.nblocks):
            assert sf.tree.vertices(k).tolist() == sorted(
                tree.vertices(k).tolist(), key=key.__getitem__)

    def test_brick_ranges_are_tight(self):
        """``grid3d_7pt(16)``, leaf 64, cap 256: at least 95 % of L blocks
        bound exactly their rows of the scalar elimination (41.6 % on the
        dissection's own order), and the Schur GEMMs run 0.284 GFlop on
        structural rows (0.451 before) — every U block at full width;
        the bound program, with its ranged U-side ops, runs fewer."""
        from repro.lu2d.storage import kernel_flops
        from repro.ordering import nested_dissection
        from repro.sparse import grid3d_7pt
        from tests.test_plan import _scalar_fill
        A, geom = grid3d_7pt(16)
        tree = nested_dissection(A, geom, leaf_size=64, max_block=256)
        sf = symbolic_factorize(A, tree=tree)
        G, off = _scalar_fill(sf.A_perm), sf.layout.offsets
        lp_ptr, lp_idx, _up_ptr, _up_idx = sf.fill.panel_csr()
        k_of = np.repeat(np.arange(sf.nb), np.diff(lp_ptr))
        r0, r1 = sf.row_ranges()
        exact = [G[off[i]:off[i + 1], off[k]:off[k + 1]].any(axis=1).sum()
                 for i, k in zip(lp_idx.tolist(), k_of.tolist())]
        assert np.mean(r1 - r0 == np.array(exact)) >= 0.95
        assert _row_range_gemm_flops(sf) <= 0.29e9
        assert _row_range_gemm_flops(self._unrefined(A, tree, sf)) > 0.45e9
        assert kernel_flops(sf)[2] < _row_range_gemm_flops(sf)

    def test_no_zoo_case_runs_5_percent_more(self):
        """13 matrices x leaf {8, 16, 32, 64} x cap {16, 64, 256, None}:
        no case's executed kernel flops rise by more than 5 % over the
        dissection's own order, and the zoo's GEMMs fall overall."""
        from repro.lu2d.storage import kernel_flops
        from repro.ordering import nested_dissection
        ratios = []
        for name, (A, geom) in _row_order_zoo().items():
            for leaf in (8, 16, 32, 64):
                for cap in (16, 64, 256, None):
                    tree = nested_dissection(A, geom, leaf_size=leaf,
                                             max_block=cap)
                    sf = symbolic_factorize(A, tree=tree)
                    new = kernel_flops(sf)
                    old = kernel_flops(self._unrefined(A, tree, sf))
                    assert sum(new) <= 1.05 * sum(old), (name, leaf, cap)
                    ratios.append(old[2] / max(new[2], 1.0))
        assert len(ratios) == 208
        assert np.exp(np.mean(np.log(ratios))) > 1.1
