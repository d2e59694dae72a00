"""End-to-end integration tests: the full pipeline on every suite matrix,
plus whole-pipeline property tests on random inputs.

These are the "would a downstream user's first run work" tests: generator
-> ordering -> symbolic -> partition -> 3D numeric factorization ->
solve -> refinement, with the cross-cutting invariants (volume
conservation, flop conservation across Pz, 2D/3D factor equality)
asserted on every path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseLU3D
from repro.experiments.matrices import paper_suite
from repro.sparse import random_symmetric_pattern


@pytest.mark.parametrize("tm", paper_suite("tiny"), ids=lambda tm: tm.name)
def test_full_pipeline_every_suite_matrix(tm):
    """Numeric factor + solve on each Table III proxy (tiny scale)."""
    solver = SparseLU3D(tm.A, geometry=tm.geometry, px=2, py=2, pz=2,
                        leaf_size=tm.leaf_size, max_block=tm.max_block)
    solver.factorize()
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(tm.A.shape[0])
    b = tm.A @ x_true
    x = solver.solve(b)
    rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    assert rel < 1e-8, f"{tm.name}: solution error {rel:.2e}"

    sim = solver.sim
    assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
    assert sim.event_counts["send"] == sim.event_counts["recv"]
    assert (sim.mem_current >= -1e-9).all()


@pytest.mark.parametrize("tm", [t for t in paper_suite("tiny")
                                if t.name in ("K2D5pt4096", "Serena")],
                         ids=lambda tm: tm.name)
def test_pz_equivalence_of_factors(tm):
    """Factors are identical for every Pz (the replication invariant)."""
    reference = None
    for pz, (px, py) in [(1, (2, 2)), (2, (2, 1)), (4, (1, 1))]:
        solver = SparseLU3D(tm.A, geometry=tm.geometry, px=px, py=py, pz=pz,
                            leaf_size=tm.leaf_size, max_block=tm.max_block)
        solver.factorize()
        lu = solver.result.factors().to_dense()
        if reference is None:
            reference = lu
        else:
            assert np.allclose(lu, reference, atol=1e-9), \
                f"{tm.name}: factors differ at pz={pz}"


class TestRandomPipelineProperties:
    """Hypothesis sweeps over matrices the generators never produce."""

    @given(n=st.integers(min_value=10, max_value=120),
           seed=st.integers(min_value=0, max_value=10 ** 6),
           pz=st.sampled_from([1, 2, 4]),
           deg=st.floats(min_value=1.0, max_value=6.0))
    @settings(max_examples=25, deadline=None)
    def test_random_matrices_solve(self, n, seed, pz, deg):
        A = random_symmetric_pattern(n, avg_degree=deg, seed=seed)
        solver = SparseLU3D(A, px=2, py=1, pz=pz, leaf_size=16, max_block=16)
        solver.factorize()
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300) \
            < 1e-8

    @given(n=st.integers(min_value=20, max_value=100),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_flop_total_invariant_in_pz(self, n, seed):
        A = random_symmetric_pattern(n, avg_degree=3.0, seed=seed)
        totals = []
        for pz, (px, py) in [(1, (2, 2)), (4, (1, 1))]:
            solver = SparseLU3D(A, px=px, py=py, pz=pz, leaf_size=12,
                                max_block=12, numeric=False)
            solver.factorize()
            totals.append(sum(solver.sim.flops[k].sum()
                              for k in ("diag", "panel", "schur")))
        assert totals[0] == pytest.approx(totals[1])

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_unsymmetric_pattern_handled(self, seed):
        """Structurally unsymmetric inputs go through the symmetrized-
        pattern path and still solve exactly."""
        import scipy.sparse as sp
        rng = np.random.default_rng(seed)
        n = 40
        D = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
        D += np.diag(np.abs(D).sum(axis=1) + np.abs(D).sum(axis=0) + 1.0)
        A = sp.csr_matrix(D)
        solver = SparseLU3D(A, px=2, py=1, pz=2, leaf_size=10, max_block=10)
        solver.factorize()
        b = rng.standard_normal(n)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9
