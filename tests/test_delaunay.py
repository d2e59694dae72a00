"""Tests for the unstructured Delaunay mesh generator."""

import numpy as np
import pytest

from repro import SparseLU3D
from repro.sparse import delaunay_mesh_2d, structural_symmetry
from repro.tune import classify_geometry, estimate_separator_exponent


class TestDelaunayMesh:
    def test_shape_and_density(self):
        A, geom = delaunay_mesh_2d(500, seed=0)
        assert geom is None  # deliberately no lattice geometry
        assert A.shape == (500, 500)
        # Planar triangulation: average degree < 6 -> nnz/n < 8.
        assert 4.0 < A.nnz / 500 < 8.0

    def test_spd(self):
        A, _ = delaunay_mesh_2d(120, seed=2)
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0.5  # Laplacian + I

    def test_symmetric(self):
        A, _ = delaunay_mesh_2d(200, seed=3)
        assert structural_symmetry(A) == pytest.approx(1.0)
        assert abs(A - A.T).max() == 0

    def test_connected(self):
        import scipy.sparse.csgraph as csg
        A, _ = delaunay_mesh_2d(300, seed=4)
        ncomp, _ = csg.connected_components(abs(A), directed=False)
        assert ncomp == 1  # a triangulation of one point cloud is connected

    def test_deterministic(self):
        A1, _ = delaunay_mesh_2d(100, seed=7)
        A2, _ = delaunay_mesh_2d(100, seed=7)
        assert abs(A1 - A2).max() == 0

    def test_classified_planar(self):
        """The tuner must recognize the mesh as planar without geometry."""
        A, _ = delaunay_mesh_2d(1500, seed=1)
        sigma = estimate_separator_exponent(A)
        assert sigma < 0.60
        assert classify_geometry(sigma) in ("planar", "intermediate")

    def test_solves_through_graph_nd(self):
        """End-to-end on the general-graph (BFS-separator) pipeline."""
        A, _ = delaunay_mesh_2d(400, seed=5)
        solver = SparseLU3D(A, px=2, py=2, pz=2, leaf_size=32)
        solver.factorize()
        b = np.arange(400, dtype=float)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_3d_gain_on_unstructured_planar(self):
        """The paper's planar win does not depend on lattice structure."""
        A, _ = delaunay_mesh_2d(3000, seed=6)
        times = {}
        for pz, (px, py) in [(1, (4, 4)), (4, (2, 2))]:
            s = SparseLU3D(A, px=px, py=py, pz=pz, leaf_size=64,
                           numeric=False)
            s.factorize()
            times[pz] = s.makespan
        assert times[4] < times[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            delaunay_mesh_2d(3)
