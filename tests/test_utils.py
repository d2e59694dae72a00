"""Tests for repro.utils validators and timing."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils import (
    Timer,
    check_positive_int,
    check_power_of_two,
    check_rhs,
    check_square_sparse,
    is_power_of_two,
)


class TestIsPowerOfTwo:
    def test_powers(self):
        for k in range(16):
            assert is_power_of_two(2 ** k)

    def test_non_powers(self):
        for x in (0, -1, -2, 3, 5, 6, 7, 9, 12, 100):
            assert not is_power_of_two(x)

    def test_non_int(self):
        assert not is_power_of_two(2.0)
        assert not is_power_of_two("4")

    def test_numpy_int(self):
        assert is_power_of_two(np.int64(8))


class TestCheckPositiveInt:
    def test_accepts(self):
        assert check_positive_int(5, "x") == 5
        assert check_positive_int(np.int32(7), "x") == 7

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive_int(0, "x")
        with pytest.raises(ValueError):
            check_positive_int(-3, "x")

    def test_rejects_non_int(self):
        with pytest.raises(TypeError, match="x must be an int"):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_returns_builtin_int(self):
        assert type(check_positive_int(np.int64(3), "x")) is int


class TestCheckPowerOfTwo:
    def test_accepts(self):
        assert check_power_of_two(16, "pz") == 16

    def test_rejects(self):
        with pytest.raises(ValueError, match="power of two"):
            check_power_of_two(12, "pz")


class TestCheckSquareSparse:
    def test_accepts_and_converts(self):
        A = sp.coo_matrix(np.eye(3))
        out = check_square_sparse(A)
        assert sp.issparse(out) and out.format == "csr"

    def test_rejects_dense(self):
        with pytest.raises(TypeError):
            check_square_sparse(np.eye(3))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square_sparse(sp.random(3, 4, format="csr"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_square_sparse(sp.csr_matrix((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "lil"])
    def test_rejects_non_finite_values_naming_the_argument(self, fmt, bad):
        A = sp.eye(4, format="lil")
        A[2, 1] = bad
        with pytest.raises(ValueError, match="A_new contains NaN or infinite"):
            check_square_sparse(A.asformat(fmt), "A_new")

    def test_duplicates_sum_into_a_copy(self):
        """The one input boundary canonicalizes: duplicates sum (stored
        zeros, summed ones included, stay stored), indices come out
        sorted, and the caller's matrix is not touched."""
        A = sp.csr_matrix((np.array([1.0, 0.0, 2.0, -2.0, 3.0]),
                           np.array([0, 1, 1, 1, 0]), np.array([0, 2, 5])),
                          shape=(2, 2))
        out = check_square_sparse(A)
        assert out.has_canonical_format and out is not A
        assert out.indices.tolist() == [0, 1, 0, 1]
        assert out.data.tolist() == [1.0, 0.0, 3.0, 0.0]
        assert A.nnz == 5 and not A.has_canonical_format
        assert check_square_sparse(out) is out

    def test_pattern_matrices_pass(self):
        """Boolean / integer pattern matrices go through the same check."""
        P = sp.eye(3, format="csr", dtype=bool)
        assert check_square_sparse(P).dtype == bool


class TestCheckRhs:
    def test_returns_float64_vector_or_matrix(self):
        assert check_rhs([1, 2, 3], 3).dtype == np.float64
        assert check_rhs(np.ones((3, 2), dtype=np.float32), 3).shape == (3, 2)

    @pytest.mark.parametrize("b", [np.ones(4), np.ones((2, 3)),
                                   np.ones((3, 1, 1)), 1.0, np.ones((3, 0))])
    def test_rejects_wrong_shape(self, b):
        with pytest.raises(ValueError, match=r"rhs must have shape \(3,\)"):
            check_rhs(b, 3, "rhs")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        b = np.ones((3, 2))
        b[1, 1] = bad
        with pytest.raises(ValueError, match="b contains NaN or infinite"):
            check_rhs(b, 3)


def test_timer_measures_elapsed():
    with Timer() as t:
        sum(range(10000))
    assert t.elapsed > 0.0
