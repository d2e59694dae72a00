"""Permutation vectors with explicit direction conventions.

Index-mapping bugs are the classic failure mode of ordering code, so the
convention is wrapped in a class:

``perm[new] = old`` — applying a :class:`Permutation` ``p`` to a matrix gives
``A_perm = A[p.perm][:, p.perm]``, i.e. row/column ``new`` of the permuted
matrix is row/column ``p.perm[new]`` of the original.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["Permutation"]


class Permutation:
    """A permutation of ``[0, n)`` with cached inverse.

    Parameters
    ----------
    perm:
        Array with ``perm[new] = old``. Must be a bijection on ``[0, n)``.
    """

    def __init__(self, perm: np.ndarray):
        perm = np.asarray(perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("perm must be 1-D")
        n = perm.shape[0]
        valid = (perm >= 0) & (perm < n)
        if not valid.all():
            raise ValueError("perm entries out of range")
        if not (np.bincount(perm, minlength=n) == 1).all():
            raise ValueError("perm is not a bijection")
        self.perm = perm
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[perm] = np.arange(n, dtype=np.int64)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.perm.shape[0]

    def _check(self, m: int, what: str) -> None:
        if m != self.n:
            raise ValueError(f"{what} has leading dimension {m}, but the "
                             f"permutation is of size {self.n}")

    def apply_matrix(self, A: sp.spmatrix) -> sp.csr_matrix:
        """Return ``A[perm][:, perm]`` as CSR (symmetric permutation)."""
        A = A.tocsr()
        self._check(A.shape[0], "matrix")
        return A[self.perm][:, self.perm].tocsr()

    def apply_vector(self, x: np.ndarray) -> np.ndarray:
        """Permute a vector into the new ordering: ``y[new] = x[old]``."""
        x = np.asarray(x)
        self._check(x.shape[0], "vector")
        return x[self.perm]

    def unapply_vector(self, y: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`apply_vector`: ``x[old] = y[new]``."""
        y = np.asarray(y)
        self._check(y.shape[0], "vector")
        return y[self.iperm]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation equivalent to applying ``other`` then ``self``."""
        return Permutation(other.perm[self.perm])

    def inverse(self) -> "Permutation":
        return Permutation(self.iperm.copy())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.perm, other.perm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Permutation(n={self.n})"
