"""Tests (incl. property-based) for the Permutation class."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import Permutation


@st.composite
def permutations(draw, max_n=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return Permutation(rng.permutation(n))


class TestValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Permutation(np.array([0, 2]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation(np.array([0, 0, 1]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Permutation(np.zeros((2, 2), dtype=int))

    def test_identity(self):
        p = Permutation.identity(4)
        assert np.array_equal(p.perm, np.arange(4))


@given(permutations())
@settings(max_examples=40, deadline=None)
def test_vector_roundtrip(p):
    x = np.arange(p.n, dtype=float) * 1.5
    assert np.array_equal(p.unapply_vector(p.apply_vector(x)), x)
    assert np.array_equal(p.apply_vector(p.unapply_vector(x)), x)


@given(permutations())
@settings(max_examples=40, deadline=None)
def test_inverse_composes_to_identity(p):
    q = p.compose(p.inverse())
    assert np.array_equal(q.perm, np.arange(p.n))


@given(permutations(max_n=25))
@settings(max_examples=25, deadline=None)
def test_matrix_permutation_consistent_with_dense(p):
    rng = np.random.default_rng(0)
    D = rng.random((p.n, p.n))
    A = sp.csr_matrix(D)
    Ap = p.apply_matrix(A).toarray()
    assert np.allclose(Ap, D[np.ix_(p.perm, p.perm)])


def test_permuted_solve_consistency():
    """Solving the permuted system gives the permuted solution."""
    rng = np.random.default_rng(3)
    n = 12
    D = rng.random((n, n)) + n * np.eye(n)
    p = Permutation(rng.permutation(n))
    A = sp.csr_matrix(D)
    b = rng.random(n)
    x = np.linalg.solve(D, b)
    Ap = p.apply_matrix(A).toarray()
    xp = np.linalg.solve(Ap, p.apply_vector(b))
    assert np.allclose(p.unapply_vector(xp), x)


def test_compose_order():
    """compose(other) = apply other first, then self."""
    a = Permutation(np.array([1, 2, 0]))
    b = Permutation(np.array([2, 0, 1]))
    x = np.array([10.0, 20.0, 30.0])
    c = a.compose(b)
    assert np.array_equal(c.apply_vector(x), a.apply_vector(b.apply_vector(x)))


class TestSizeMismatch:
    """A matrix or vector of the wrong size is refused, never truncated."""

    @pytest.mark.parametrize("m", [3, 7])
    def test_apply_matrix(self, m):
        with pytest.raises(ValueError, match=f"{m}.*5|5.*{m}"):
            Permutation.identity(5).apply_matrix(sp.eye(m, format="csr"))

    @pytest.mark.parametrize("shape", [(3,), (7,), (4, 2), (6, 3)])
    @pytest.mark.parametrize("method", ["apply_vector", "unapply_vector"])
    def test_vectors(self, method, shape):
        with pytest.raises(ValueError, match=f"{shape[0]}.*5|5.*{shape[0]}"):
            getattr(Permutation.identity(5), method)(np.zeros(shape))

    def test_blocks_of_right_size_pass(self):
        p = Permutation(np.array([2, 0, 1]))
        X = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(p.unapply_vector(p.apply_vector(X)), X)
