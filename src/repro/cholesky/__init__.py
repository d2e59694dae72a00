"""3D sparse Cholesky: the paper's Section VII extension.

    "We believe these principles could be applied to other variants of
    sparse factorization, such as Cholesky or QR decomposition."

For symmetric positive definite matrices, ``A = L L^T`` halves both the
arithmetic and — more interestingly here — the communication: only the
lower panels exist, so panel broadcasts, Schur updates, ancestor replicas
and the z-axis reduction all shrink by roughly 2x relative to LU on the
same structure. The Algorithm 1 machinery is reused verbatim: ``factor_3d(...,
backend="cholesky")`` plugs in a Cholesky 2D engine and a lower-triangle
block enumerator, demonstrating that the 3D schedule really is
factorization-variant independent.
"""

from repro.cholesky.driver import SparseCholesky3D
from repro.lu2d.kernels import chol_panel_solve, potrf_shifted
from repro.plan.backends import cholesky_node_blocks

__all__ = [
    "SparseCholesky3D",
    "chol_panel_solve",
    "cholesky_node_blocks",
    "potrf_shifted",
]
