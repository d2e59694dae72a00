"""Argument-validation helpers used across the library.

All validators raise :class:`ValueError` or :class:`TypeError` with a message
naming the offending argument, so call sites can stay one-liners.

This is also where non-finite input stops: the dense kernels
(:mod:`repro.lu2d.kernels`) make no per-block finiteness scan, so matrix
values and right-hand sides are checked here, once, as they enter.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def is_power_of_two(x: int) -> bool:
    """Return ``True`` iff ``x`` is a positive integral power of two."""
    return isinstance(x, (int, np.integer)) and x > 0 and (x & (x - 1)) == 0


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_power_of_two(value, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    value = check_positive_int(value, name)
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value


def require_finite(values, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` if ``values`` holds NaN or inf."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains NaN or infinite values")


def check_rhs(b, n: int, name: str = "b") -> np.ndarray:
    """Validate a right-hand side for an ``n x n`` system: shape ``(n,)``
    or ``(n, nrhs >= 1)``, all finite; return it as a float64 array."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n or b.size == 0:
        raise ValueError(f"{name} must have shape ({n},) or ({n}, nrhs) "
                         f"with nrhs >= 1, got {b.shape}")
    require_finite(b, name)
    return b


def check_square_sparse(A, name: str = "A") -> sp.csr_matrix:
    """Validate that ``A`` is a square 2-D sparse matrix with finite stored
    values; return it as canonical CSR: duplicates summed (as scipy does;
    stored zeros stay) into a copy — the caller's matrix is not touched."""
    if not sp.issparse(A):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(A).__name__}")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    require_finite(A.data, name)
    return A
