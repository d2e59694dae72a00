"""The Table III test-matrix suite, proxied at simulator-friendly sizes.

Each entry pairs a synthetic generator (matching the original matrix's
geometry class — see the substitution table in DESIGN.md) with the paper's
reference data for that matrix, so reports can print paper-vs-measured side
by side. The ``scale`` knob trades run time for fidelity:

* ``tiny``   — unit-test sizes (n ≈ 1-4k), numeric-mode friendly;
* ``small``  — the report / claim-test scale (n ≈ 8-37k), cost-only mode;
* ``medium`` — closer-to-paper shapes (n ≈ 60-260k), minutes per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.sparse.generators import (
    GridGeometry,
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    grid3d_27pt,
    kkt_like,
    thin_slab_7pt,
)

__all__ = ["TestMatrix", "paper_suite", "prepared"]


@dataclass
class TestMatrix:
    """One evaluation matrix: the proxy plus the paper's reference row.

    ``paper_*`` fields are Table III's values for the original matrix
    (``paper_tfact`` = baseline 2D factorization seconds on 16 nodes).
    """

    name: str
    A: sp.csr_matrix
    geometry: GridGeometry | None
    planar: bool
    leaf_size: int
    paper_n: float
    paper_nnz_per_row: float
    paper_flops: float
    paper_tfact: float
    max_block: int = 128

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def nnz_per_row(self) -> float:
        return self.A.nnz / self.n


_SIZES = {
    # scale:   (planar_nx, 9pt_nx, circuit_nx, eco_nx, brick27, brick27_s,
    #           brick27_m, slab_xy, kkt_nx, brick7)
    "tiny":   dict(k2d=48, s2d=40, g3=44, eco=40, audikw=12, coup=10,
                   diel=11, ldoor=(20, 20, 3), nlpkkt=8, serena=13),
    "small":  dict(k2d=192, s2d=160, g3=176, eco=160, audikw=28, coup=20,
                   diel=26, ldoor=(56, 56, 6), nlpkkt=20, serena=28),
    "medium": dict(k2d=512, s2d=416, g3=448, eco=416, audikw=48, coup=36,
                   diel=44, ldoor=(128, 128, 8), nlpkkt=32, serena=48),
}


def paper_suite(scale: str = "small") -> list[TestMatrix]:
    """Build all ten Table III proxies at the given scale.

    Order matches Table III. Planarity flags follow the paper's
    classification (ldoor is listed non-planar there but noted to behave
    nearly planar; we keep the paper's non-planar label).
    """
    if scale not in _SIZES:
        raise ValueError(f"unknown scale {scale!r}; pick from {sorted(_SIZES)}")
    s = _SIZES[scale]

    def mk(name, pair, planar, leaf, pn, pnnz, pflop, ptf):
        A, geom = pair
        return TestMatrix(name, A, geom, planar, leaf, pn, pnnz, pflop, ptf)

    return [
        mk("audikw_1", grid3d_27pt(s["audikw"]), False, 64,
           9.4e5, 82.0, 1.17e13, 5.70),
        mk("CoupCons3D", grid3d_27pt(s["coup"]), False, 64,
           4.2e5, 53.6, 9.09e11, 1.10),
        mk("dielFilterV3real", grid3d_27pt(s["diel"]), False, 64,
           1.1e6, 81.0, 2.00e12, 3.80),
        mk("ldoor", thin_slab_7pt(*s["ldoor"]), False, 64,
           9.5e5, 44.6, 1.69e11, 1.97),
        mk("nlpkkt80", kkt_like(s["nlpkkt"]), False, 64,
           1.1e6, 26.5, 3.14e13, 10.48),
        mk("G3_circuit", circuit_like(s["g3"], seed=11), True, 64,
           1.6e6, 4.8, 1.21e11, 3.33),
        mk("Ecology1", circuit_like(s["eco"], extra_edge_frac=0.005, seed=7),
           True, 64, 1.0e6, 5.0, 4.49e10, 1.36),
        mk("K2D5pt4096", grid2d_5pt(s["k2d"]), True, 64,
           1.6e7, 5.0, 3.26e12, 59.81),
        mk("S2D9pt3072", grid2d_9pt(s["s2d"]), True, 64,
           9.4e6, 9.0, 2.47e12, 26.02),
        mk("Serena", grid3d_7pt(s["serena"]), False, 64,
           1.4e6, 46.1, 5.97e13, 19.49),
    ]


def prepared(names: list[str] | None = None, scale: str = "small"):
    """Convenience: :class:`PreparedMatrix` wrappers, optionally filtered."""
    from repro.experiments.harness import PreparedMatrix
    suite = paper_suite(scale)
    if names is not None:
        byname = {tm.name: tm for tm in suite}
        unknown = set(names) - set(byname)
        if unknown:
            raise ValueError(f"unknown matrices: {sorted(unknown)}")
        suite = [byname[nm] for nm in names]
    return [PreparedMatrix(tm) for tm in suite]
