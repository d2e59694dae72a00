"""Structural (pattern-only) operations on sparse matrices.

The symbolic layer works on the *pattern* of ``A`` — a boolean sparse matrix.
SuperLU_DIST (and therefore this reproduction) performs symbolic analysis on
the symmetrized pattern ``pattern(A) | pattern(A^T)``; these helpers produce
and interrogate such patterns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils import check_square_sparse

__all__ = ["pattern_of", "same_structure", "strip_diagonal",
           "symmetrize_pattern", "structural_symmetry"]


def same_structure(A, B) -> bool:
    """Whether CSR ``A`` and ``B`` hold the same ``indptr`` / ``indices``."""
    return np.array_equal(A.indptr, B.indptr) \
        and np.array_equal(A.indices, B.indices)


def strip_diagonal(P: sp.spmatrix) -> sp.csr_matrix:
    """Return a copy of ``P`` with the main diagonal structurally removed."""
    Q = P.tocoo(copy=True)
    keep = Q.row != Q.col
    return sp.csr_matrix((Q.data[keep], (Q.row[keep], Q.col[keep])),
                         shape=Q.shape)


def pattern_of(A: sp.spmatrix, stored: bool = False) -> sp.csr_matrix:
    """Return the boolean structural pattern of ``A`` (explicit zeros dropped).

    ``stored=True`` keeps explicitly-stored zero entries instead — the
    *structural* view the symbolic layer effectively analyzes (nested
    dissection and block fill walk the stored index structure, so a zero
    stored in a Matrix Market file still produces fill). The default drops
    them, which is the right notion for "which entries carry values".
    """
    A = check_square_sparse(A)
    A = A.copy()
    if not stored:
        A.eliminate_zeros()
    P = A.astype(bool).tocsr()
    P.data[:] = True
    return P


def symmetrize_pattern(A: sp.spmatrix, stored: bool = False) -> sp.csr_matrix:
    """Return the boolean pattern of ``A + A^T`` with a full diagonal.

    The full diagonal mirrors SuperLU_DIST's assumption of a zero-free
    diagonal after MC64-style row permutation; the factorization layer
    requires every diagonal block to be structurally present. ``stored``
    is forwarded to :func:`pattern_of` (keep explicitly-stored zeros —
    the pattern the symbolic phase actually covered).
    """
    P = pattern_of(A, stored=stored)
    S = (P + P.T).tocsr()
    S = (S + sp.identity(A.shape[0], dtype=bool, format="csr")).tocsr()
    S.data[:] = True
    return S


def structural_symmetry(A: sp.spmatrix) -> float:
    """Fraction of off-diagonal nonzeros matched by a transposed nonzero.

    Returns 1.0 for structurally symmetric matrices and for matrices with no
    off-diagonal entries at all (a diagonal matrix is trivially symmetric).
    """
    P = pattern_of(A)
    off = strip_diagonal(P)
    nnz = off.nnz
    if nnz == 0:
        return 1.0
    matched = off.multiply(off.T).nnz
    return matched / nnz
