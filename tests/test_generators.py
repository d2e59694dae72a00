"""Tests for the synthetic matrix generators (Table III proxies)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import (
    GridGeometry,
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    grid3d_27pt,
    kkt_like,
    random_symmetric_pattern,
    structural_symmetry,
    thin_slab_7pt,
)


def _assert_symmetric_pattern(A):
    assert structural_symmetry(A) == pytest.approx(1.0)


class TestGrid2d5pt:
    def test_dimensions(self):
        A, g = grid2d_5pt(7, 5)
        assert A.shape == (35, 35)
        assert g.shape == (7, 5)

    def test_interior_stencil(self):
        nx = 5
        A, _ = grid2d_5pt(nx)
        A = A.tocsr()
        center = 2 * nx + 2  # vertex (2, 2)
        row = A[center].toarray().ravel()
        assert row[center] == 4.0
        for nbr in (center - 1, center + 1, center - nx, center + nx):
            assert row[nbr] == -1.0
        assert np.count_nonzero(row) == 5

    def test_spd(self):
        A, _ = grid2d_5pt(6)
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0

    def test_symmetric(self):
        A, _ = grid2d_5pt(9, 4)
        _assert_symmetric_pattern(A)
        assert abs(A - A.T).max() == 0

    def test_nnz_per_row_matches_paper(self):
        # Paper: K2D5pt has nnz/n = 5.0 (up to boundary effects).
        A, _ = grid2d_5pt(64)
        assert A.nnz / A.shape[0] == pytest.approx(5.0, rel=0.05)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            grid2d_5pt(0)
        with pytest.raises(TypeError):
            grid2d_5pt(4.5)


class TestGrid2d9pt:
    def test_interior_degree(self):
        A, _ = grid2d_9pt(6)
        center = 2 * 6 + 2
        assert A[center].getnnz() == 9

    def test_nnz_per_row_matches_paper(self):
        # Paper: S2D9pt has nnz/n = 9.0.
        A, _ = grid2d_9pt(48)
        assert A.nnz / A.shape[0] == pytest.approx(9.0, rel=0.1)

    def test_symmetric(self):
        A, _ = grid2d_9pt(7, 9)
        _assert_symmetric_pattern(A)


class TestGrid3d:
    def test_7pt_interior_degree(self):
        A, g = grid3d_7pt(5)
        assert g.shape == (5, 5, 5)
        center = (2 * 5 + 2) * 5 + 2
        assert A[center].getnnz() == 7

    def test_7pt_spd(self):
        A, _ = grid3d_7pt(4)
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0

    def test_27pt_interior_degree(self):
        A, _ = grid3d_27pt(5)
        center = (2 * 5 + 2) * 5 + 2
        assert A[center].getnnz() == 27

    def test_27pt_symmetric(self):
        A, _ = grid3d_27pt(4)
        _assert_symmetric_pattern(A)
        assert abs(A - A.T).max() == 0

    def test_anisotropic_shape(self):
        A, g = grid3d_7pt(3, 4, 5)
        assert A.shape == (60, 60)
        assert g.shape == (3, 4, 5)


class TestThinSlab:
    def test_shape(self):
        A, g = thin_slab_7pt(8, 8, 3)
        assert A.shape == (192, 192)
        assert g.kind == "thin_slab_7pt"

    def test_nearly_planar_separators(self):
        # A slab's widest dimensions are x/y; the first geometric cut should
        # be a plane of size ny*nz, i.e. O(sqrt(n)) like a planar problem.
        from repro.ordering import nested_dissection
        A, g = thin_slab_7pt(16, 16, 2)
        tree = nested_dissection(A, g, leaf_size=32)
        root_size = tree.sizes[tree.root]
        assert root_size == 16 * 2  # plane through the thin slab


class TestCircuitLike:
    def test_low_density(self):
        A, _ = circuit_like(24, seed=0)
        # Paper: G3_circuit/ecology1 have nnz/n ~ 5.
        assert 4.0 < A.nnz / A.shape[0] < 7.0

    def test_symmetric(self):
        A, _ = circuit_like(16, seed=2)
        _assert_symmetric_pattern(A)

    def test_deterministic(self):
        A1, _ = circuit_like(10, seed=5)
        A2, _ = circuit_like(10, seed=5)
        assert abs(A1 - A2).max() == 0

    def test_seed_changes_matrix(self):
        A1, _ = circuit_like(10, seed=5)
        A2, _ = circuit_like(10, seed=6)
        assert abs(A1 - A2).max() > 0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="extra_edge_frac"):
            circuit_like(8, extra_edge_frac=1.5)


class TestKktLike:
    def test_block_structure(self):
        A, g = kkt_like(4)
        n = 64
        assert A.shape == (2 * n, 2 * n)
        assert g.extra["nblocks"] == 2
        # The (2,2) block is the negative regularization only.
        D = A[n:, n:].toarray()
        assert np.allclose(D, -1e-2 * np.eye(n))

    def test_symmetric(self):
        A, _ = kkt_like(4)
        _assert_symmetric_pattern(A)
        assert abs(A - A.T).max() < 1e-12

    def test_indefinite(self):
        A, _ = kkt_like(3)
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() < 0 < w.max()

    def test_nonsingular(self):
        A, _ = kkt_like(3)
        w = np.abs(np.linalg.eigvals(A.toarray()))
        assert w.min() > 1e-8


class TestRandomSymmetricPattern:
    def test_symmetric_and_nonsingular(self):
        A = random_symmetric_pattern(80, 4.0, seed=1)
        _assert_symmetric_pattern(A)
        # Strict diagonal dominance was added.
        d = np.abs(A.diagonal())
        off = np.asarray(np.abs(A).sum(axis=1)).ravel() - d
        assert (d > off).all()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            random_symmetric_pattern(0)
        with pytest.raises(ValueError):
            random_symmetric_pattern(10, avg_degree=-1.0)

    def test_zero_degree_is_diagonal(self):
        A = random_symmetric_pattern(10, avg_degree=0.0)
        assert (A - sp.diags(A.diagonal())).nnz == 0


class TestGridGeometry:
    def test_linear_index_roundtrip(self):
        g = GridGeometry((3, 4, 5), "t")
        coords = np.indices((3, 4, 5)).reshape(3, -1).T
        idx = g.linear_index(coords)
        assert np.array_equal(idx, np.arange(60))

    def test_properties(self):
        g = GridGeometry((6, 7), "t")
        assert g.ndim == 2
        assert g.nvertices == 42
