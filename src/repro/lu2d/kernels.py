"""The dense-kernel layer: every block operation of LU, Cholesky and the
triangular sweeps, on raw BLAS/LAPACK handles fetched once at import.

This is the only module that imports ``scipy.linalg.blas`` / ``.lapack``.
The handles skip scipy's per-call wrappers (finiteness scans, operand and
result copies), which on a supernodal factorization's small blocks cost
several times the arithmetic. Two things make that safe:

* **Finiteness is checked once, where values enter the library**
  (:mod:`repro.utils.validation`), and ``solve`` refuses to return a
  non-finite ``x``.
* **In-place contract.** Blocks are C-contiguous float64. Fortran BLAS
  sees such a block through its transposed view — an F-contiguous array
  it may overwrite without a copy — so :func:`trsm` and :func:`gemm_sub`
  solve the transposed problem and the result lands in the caller's
  buffer. Any other operand (a strided sub-block view, an F-ordered or
  non-float64 array) goes through a contiguous copy that is written back.

The diagonal factorization is *unpivoted* LU with GESP perturbation —
SuperLU_DIST's static-pivoting scheme: a pivot smaller than
``eps * ||A_kk||`` is replaced by ``±eps * ||A_kk||``, and the resulting
backward error is cleaned up by iterative refinement
(:mod:`repro.solve.refine`). Row exchanges are never performed, which is
what makes the distributed schedule static — the property both the 2D
pipeline and the 3D replication scheme depend on. :func:`potrf_shifted`
is the SPD analogue: a diagonal shift instead of a perturbed pivot.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.blas import dasum, dgemm, dtrsm, idamax
from scipy.linalg.lapack import dgetrf, dpotrf

__all__ = ["trsm", "gemm_sub", "getrf_nopiv", "potrf_shifted",
           "solve_lower_panel", "solve_upper_panel", "chol_panel_solve",
           "GETRF", "POTRF", "TRSM", "GEMM", "trsm_op", "gemm_op",
           "panel_factor_op", "execute", "strided_pays"]

#: Op codes of a bound kernel program (:func:`execute`).
GETRF, POTRF, TRSM, GEMM = range(4)

#: Unblocked threshold for the recursive GESP LU.
_NB = 32
#: The bytes of an ``n``-pivot ``dgetrf`` vector that swapped no row.
_no_swap = functools.cache(lambda n, t: np.arange(n, dtype=t).tobytes())


def _overwritable(X: np.ndarray) -> bool:
    """Whether BLAS can overwrite ``X`` through its transposed view."""
    return X.dtype == np.float64 and X.flags.c_contiguous


def trsm_op(A: np.ndarray, B: np.ndarray, *, side: str = "L", lower: bool,
            unit: bool = False, trans: bool = False) -> tuple:
    """The bound form of :func:`trsm` on an overwritable ``B``: the
    operands' F-views and ``dtrsm``'s flags, taken once."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    # On the F-views A.T / B.T the problem is its own transpose: sides
    # swap, the stored triangle flips, op() stays.
    return (TRSM, B.T if B.ndim == 2 else B[None, :], A.T, None,
            (side == "L", not lower, trans, unit, 1))


def gemm_op(C: np.ndarray, A: np.ndarray, B: np.ndarray,
            trans_b: bool = False, trans_a: bool = False) -> tuple:
    """The bound form of :func:`gemm_sub` on an overwritable ``C``:
    ``C^T -= op(B)^T op(A)^T`` on the F-views, one tuple (cheap to bind)."""
    return (GEMM, C.T, B.T, A.T, (trans_b, trans_a, 1))


def panel_factor_op(code: int, D: np.ndarray, Ls, **solve) -> tuple:
    """The bound ``GETRF`` / ``POTRF`` op: factor ``D``, then solve each row
    block of ``Ls`` against it."""
    ops = [trsm_op(D, X, side="R", **solve) for X in Ls if len(X)]
    return (code, D, [op[1] for op in ops], D.T, ops[0][4] if ops else None)


def execute(prog, lo: int = 0, hi: int | None = None,
            eps: float = 1e-10) -> int:
    """Run ops ``prog[lo:hi]`` of a bound kernel program, in order: tuples
    ``(op, out, x, y, flags)`` from :func:`trsm_op` / :func:`gemm_op`
    (``out``: the F-view overwritten; a strided one from f2py's copy) or
    ``GETRF`` / ``POTRF`` ops factoring ``out`` in place (a diagonal block
    or panel; ``eps``: pivot floor), then solving the F-views ``x``
    against ``y``. Returns the number of perturbed pivots / shifts."""
    perturbed = 0
    for op, out, x, y, flags in prog[lo:hi]:
        if op == GEMM:
            C = dgemm(-1.0, x, y, 1.0, out, *flags)
            if C is not out:
                out[...] = C
            continue
        if op == TRSM:
            x, y = (out,), x
        elif op == GETRF:
            perturbed += getrf_nopiv(out, eps)
        else:
            L, nshifts = potrf_shifted(out, eps)
            out[:] = L
            perturbed += nshifts
        for X in x:
            C = dtrsm(1.0, y, X, *flags)
            if C is not X:
                X[...] = C
    return perturbed


def strided_pays(saved, copied):
    """Whether a U-side op's skipped flops beat its strided copies: 5e4
    plus 8 per word copied (the measured break-even, algorithm.md § 6d)."""
    return saved > 5e4 + 8.0 * copied


def trsm(A: np.ndarray, B: np.ndarray, *, side: str = "L", lower: bool,
         unit: bool = False, trans: bool = False) -> np.ndarray:
    """Triangular solve overwriting ``B``; returns ``B``.

    Solves ``op(A) X = B`` (``side='L'``) or ``X op(A) = B``
    (``side='R'``) with ``op(A) = A^T`` if ``trans`` else ``A``, reading
    only the ``lower`` (or upper) triangle of ``A`` and taking its diagonal
    as ones if ``unit``. ``B`` is a 2-D block or, for ``side='L'``, a 1-D
    right-hand side. No finiteness check and no singularity check: a zero
    pivot yields ``inf``/``nan``, which the facade's ``solve`` rejects.
    """
    X = B if _overwritable(B) else np.ascontiguousarray(B, dtype=np.float64)
    execute((trsm_op(A, X, side=side, lower=lower, unit=unit, trans=trans),))
    if X is not B:
        B[...] = X
    return B


def gemm_sub(C: np.ndarray, A: np.ndarray, B: np.ndarray,
             trans_b: bool = False, trans_a: bool = False) -> np.ndarray:
    """Accumulate ``C -= op(A) @ op(B)`` in place (``op(X) = X^T`` if
    ``trans_x``); returns ``C``. The Schur-update primitive: ``beta = 1``
    GEMM into the caller's block, no product temporary."""
    if C.ndim == 2 and _overwritable(C):
        execute((gemm_op(C, A, B, trans_b, trans_a),))
    else:
        C -= (A.T if trans_a else A) @ (B.T if trans_b else B)
    return C


def _threshold(A: np.ndarray, eps: float) -> float:
    """``eps * ||A||_max`` of a square block (``eps`` if zero or NaN, which
    ``idamax`` mis-ranks, ``dasum`` shows): GESP's floor, Cholesky's shift."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("diagonal block must be square")
    a = A.reshape(-1)
    norm, total = abs(a[idamax(a)]), dasum(a)
    return eps * norm if norm > 0 and total == total else eps


def _getrf_base(A: np.ndarray, tiny: float) -> int:
    """Unblocked in-place unpivoted LU; returns number of perturbed pivots."""
    n = A.shape[0]
    perturbed = 0
    for k in range(n):
        piv = A[k, k]
        if abs(piv) < tiny:
            piv = tiny if piv >= 0 else -tiny
            A[k, k] = piv
            perturbed += 1
        if k + 1 < n:
            A[k + 1:, k] /= piv
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return perturbed


def getrf_nopiv(A: np.ndarray, eps: float = 1e-10) -> int:
    """In-place unpivoted LU of a square block, ``A <- L\\U`` packed (of
    a tall panel ``[A_kk; A_L]``: that of ``A_kk``, ``A_L <- A_L U^{-1}``).

    ``L`` is unit lower (diagonal implicit), ``U`` upper. Tiny pivots are
    perturbed to ``±eps * ||A_kk||_max`` (GESP); the return value counts
    the perturbations so callers can report them.

    LAPACK's partially pivoted ``dgetrf`` runs first, on a copy. Its
    result is taken only when it succeeded, swapped no rows and left every
    ``|u_kk| >= eps * ||A_kk||`` — exactly when partial pivoting and GESP
    compute the same factors (up to rounding) with no perturbation.
    Otherwise (a row swap, a zero or tiny pivot, a NaN) the recursive GESP
    loop runs on the untouched block (a panel's: the square path first).
    """
    n = A.shape[1]
    tiny = _threshold(A[:n], eps)
    lu, piv, info = dgetrf(A)
    if info == 0 and piv.tobytes() == _no_swap(piv.size, piv.dtype) \
            and np.abs(lu.diagonal()).min() >= tiny:
        A[...] = lu
        return 0
    perturbed = getrf_nopiv(A[:n], eps) if len(A) > n \
        else _getrf_recurse(A, tiny)        # a panel: its square block,
    trsm(A[:n], A[n:], side="R", lower=False)   # then its rows (if any)
    return perturbed


def _getrf_recurse(A: np.ndarray, tiny: float) -> int:
    n = A.shape[0]
    if n <= _NB:
        return _getrf_base(A, tiny)
    h = n // 2
    A11, A12 = A[:h, :h], A[:h, h:]
    A21, A22 = A[h:, :h], A[h:, h:]
    perturbed = _getrf_recurse(A11, tiny)
    # A12 <- L11^{-1} A12 ; A21 <- A21 U11^{-1}
    trsm(A11, A12, side="L", lower=True, unit=True)
    trsm(A11, A21, side="R", lower=False)
    gemm_sub(A22, A21, A12)
    perturbed += _getrf_recurse(A22, tiny)
    return perturbed


def potrf_shifted(A: np.ndarray, eps: float = 1e-10,
                  max_shifts: int = 30) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of ``A`` with diagonal-shift fallback.

    Only the lower triangle of ``A`` is read; ``A`` is not modified.
    Returns ``(L, nshifts)``; ``nshifts`` is how many times the shift was
    doubled before the factorization succeeded.
    """
    shift = _threshold(A, eps)
    nshifts = 0
    M = A
    while True:
        L, info = dpotrf(M, lower=1, clean=1)
        if info == 0:
            return L, nshifts
        nshifts += 1
        if nshifts > max_shifts:
            raise np.linalg.LinAlgError(
                "diagonal block is not positive definite even after "
                f"{max_shifts} shifts — is the matrix SPD?")
        M = A + shift * np.eye(A.shape[0])
        shift *= 2.0


def solve_upper_panel(diag_lu: np.ndarray, A_kj: np.ndarray) -> np.ndarray:
    """U-panel solve: ``U_kj = L_kk^{-1} A_kj`` given the packed LU of
    ``A_kk``. Returns a new array (the in-place form is :func:`trsm`)."""
    return trsm(diag_lu, np.array(A_kj, dtype=np.float64, order="C"),
                side="L", lower=True, unit=True)


def solve_lower_panel(diag_lu: np.ndarray, A_ik: np.ndarray) -> np.ndarray:
    """L-panel solve: ``L_ik = A_ik U_kk^{-1}`` given the packed LU of
    ``A_kk``. Returns a new array."""
    return trsm(diag_lu, np.array(A_ik, dtype=np.float64, order="C"),
                side="R", lower=False)


def chol_panel_solve(L_kk: np.ndarray, A_ik: np.ndarray) -> np.ndarray:
    """Cholesky panel solve ``L_ik = A_ik L_kk^{-T}``. Returns a new array."""
    return trsm(L_kk, np.array(A_ik, dtype=np.float64, order="C"),
                side="R", lower=True, trans=True)
