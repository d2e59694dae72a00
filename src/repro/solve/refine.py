"""Iterative refinement (the companion of static pivoting).

SuperLU_DIST's GESP strategy factors with static pivoting — possibly
perturbing tiny pivots — and recovers accuracy with a few steps of
iterative refinement on the original matrix. Refinement stops when the
componentwise backward error ``berr = max_i |r_i| / (|A||x| + |b|)_i``
stops improving or drops below the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["RefinementResult", "iterative_refinement"]


@dataclass
class RefinementResult:
    """Refined solution plus the convergence history."""

    x: np.ndarray
    berr_history: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return max(len(self.berr_history) - 1, 0)

    @property
    def berr(self) -> float:
        return self.berr_history[-1] if self.berr_history else np.inf


def _backward_error(abs_A: sp.csr_matrix, x: np.ndarray, b: np.ndarray,
                    r: np.ndarray) -> float:
    denom = abs_A @ np.abs(x) + np.abs(b)
    denom[denom == 0] = np.finfo(float).tiny
    return float(np.max(np.abs(r) / denom))


def iterative_refinement(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
                         solve_fn, tol: float = 1e-14, max_iter: int = 10
                         ) -> RefinementResult:
    """Refine ``x0`` toward ``A x = b`` using the factored solver ``solve_fn``.

    ``solve_fn(r)`` must return the factorization's solution of ``A d = r``.
    Mirrors the xGERFS stopping logic: stop when ``berr <= tol``, when
    ``berr`` fails to halve, or after ``max_iter`` steps — keeping the best
    iterate seen.
    """
    A = A.tocsr()
    abs_A = abs(A)      # |A| of every berr, built once
    x = x0.astype(np.float64).copy()
    r = b - A @ x
    berr = _backward_error(abs_A, x, b, r)
    result = RefinementResult(x=x, berr_history=[berr])
    best_x, best_berr = x.copy(), berr

    for _ in range(max_iter):
        if berr <= tol:
            result.converged = True
            break
        d = solve_fn(r)
        x = x + d
        r = b - A @ x
        new_berr = _backward_error(abs_A, x, b, r)
        result.berr_history.append(new_berr)
        if new_berr < best_berr:
            best_x, best_berr = x.copy(), new_berr
        if new_berr > berr / 2:
            # Not converging fast enough: settle for the best iterate.
            result.converged = best_berr <= tol
            break
        berr = new_berr
    else:
        result.converged = berr <= tol

    result.x = best_x
    if result.berr_history[-1] != best_berr:
        result.berr_history.append(best_berr)
    return result
