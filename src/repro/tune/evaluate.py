"""Candidate scoring: the plan's own volume, with the closed form reported
beside it.

* :class:`Evaluator` measures a candidate by *building its plan*: the
  level schedule :func:`~repro.plan.build.build_3d_plan` emits for the
  candidate's grid, reduced by :meth:`~repro.plan.tasks.Plan3D.volume` to
  the critical-path per-process volume (Fig. 10's ``W_total``) — bit for
  bit what a cost-only ``factor_3d`` books into a simulator, without one.
  The symbolic phase is cached per supernode cap and blocking, partitions
  per ``(cap, blocking, Pz)``.
* :func:`predicted_words` prices a candidate with the Section IV closed
  forms (Eq. 7 + Eq. 10 for planar separators, the Table II non-planar
  expression otherwise), *seeded by the measured separator exponent* of
  the actual matrix (:func:`estimate_separator_exponent`). Skewed 2D
  layers pay the classical
  aspect penalty ``(1/Px + 1/Py)·sqrt(P_XY)/2 >= 1`` (panel broadcasts
  travel rows *and* columns, so a ``1xN`` layer is strictly worse than a
  square one of equal size).

Predictions are asymptotic shapes, not word counts, and the only score a
non-power-of-two ``Pz`` (which no plan can run) gets. The search never
chooses by them: they are a reported column, and
:attr:`CandidateResult.model_error` records how far each measured
candidate's prediction was off (after per-run normalization, see
:func:`repro.tune.search.autotune_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.comm.grid import ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.model.nonplanar import volume_3d_nonplanar
from repro.model.planar import volume_3d_planar
from repro.ordering.nested_dissection import nested_dissection
from repro.plan import build_3d_plan
from repro.sparse.generators import GridGeometry
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.tune.space import TuneCandidate

__all__ = ["classify_geometry", "estimate_separator_exponent",
           "MatrixProfile", "CandidateResult", "predicted_words",
           "Evaluator"]

PLANAR_SIGMA_MAX = 0.55
NONPLANAR_SIGMA_MIN = 0.60


def estimate_separator_exponent(A: sp.spmatrix,
                                geometry: GridGeometry | None = None,
                                leaf_size: int = 64,
                                min_region: int = 64) -> float:
    """Estimate ``sigma`` in ``separator ~ region^sigma`` on ``A``'s own
    dissection tree.

    Section IV's regimes are separator growth: ``sigma = 1/2`` for planar
    graphs (Lipton-Tarjan), ``2/3`` for well-shaped 3D meshes. Each
    branching node with a region of at least ``min_region`` vertices
    contributes its pointwise exponent ``log(sep)/log(region)``; the
    estimate is the *median* of those, which is far more robust at modest
    problem sizes than a global log-log regression (separator sizes are
    small discrete integers with aspect-ratio wobble level to level).
    Calibration on the generator families: 2D grids/circuits measure
    0.43-0.49, 3D bricks and the KKT proxy 0.62-0.65, thin slabs ~0.58 —
    the intermediate, ldoor-like band. The tree is built without a
    supernode cap so each internal node owns one whole separator. Fewer
    than 3 samples (a tiny problem, where any ``Pz`` works) read as planar,
    0.5.
    """
    tree = nested_dissection(A, geometry, leaf_size=leaf_size,
                             max_block=None)
    # Subtree vertex counts: a subtree is the id range first[v] .. v.
    offsets = tree.layout.offsets
    region = offsets[1:] - offsets[tree.first]
    nkids = np.bincount(tree.parent[:-1], minlength=tree.nblocks)
    vals = [np.log(tree.sizes[v]) / np.log(region[v])
            for v in np.flatnonzero((nkids >= 2) & (region >= min_region))]
    return float(np.median(vals)) if len(vals) >= 3 else 0.5


def classify_geometry(sigma: float) -> str:
    """Map a separator exponent to the paper's regimes: ``planar``
    (Eq. 8's ``Pz* = log2(n)/2``), ``non-planar`` (Section IV-C's constant
    optimum) or ``intermediate`` in between."""
    if not np.isfinite(sigma):
        raise ValueError("sigma must be finite")
    if sigma < PLANAR_SIGMA_MAX:
        return "planar"
    if sigma > NONPLANAR_SIGMA_MIN:
        return "non-planar"
    return "intermediate"


@dataclass(frozen=True)
class MatrixProfile:
    """What the model needs to know about a matrix: its size and its
    measured separator-growth regime."""

    n: int
    sigma: float
    classification: str

    @classmethod
    def measure(cls, A: sp.spmatrix, geometry: GridGeometry | None = None,
                leaf_size: int = 64) -> "MatrixProfile":
        sigma = estimate_separator_exponent(A, geometry,
                                            leaf_size=leaf_size)
        return cls(n=int(A.shape[0]), sigma=sigma,
                   classification=classify_geometry(sigma))


def _aspect_penalty(px: int, py: int) -> float:
    """``(1/Px + 1/Py) · sqrt(Px·Py) / 2`` — 1.0 for square layers."""
    return (1.0 / px + 1.0 / py) * np.sqrt(px * py) / 2.0


def predicted_words(cand: TuneCandidate, profile: MatrixProfile) -> float:
    """Closed-form per-process communication volume of ``cand`` (model
    units — a shape to compare with the measurement, not a word count):
    Eq. (7) + Eq. (10), Table II's non-planar volume, or their geometric
    mean. A matrix under 4 rows is priced as one of 4."""
    n, P, pz = max(profile.n, 4), cand.total, cand.pz
    if profile.classification == "planar":
        w = volume_3d_planar(n, P, pz)
    elif profile.classification == "non-planar":
        w = volume_3d_nonplanar(n, P, pz)
    else:
        w = float(np.sqrt(volume_3d_planar(n, P, pz)
                          * volume_3d_nonplanar(n, P, pz)))
    return float(w * _aspect_penalty(cand.px, cand.py))


@dataclass
class CandidateResult:
    """One candidate's scores: the model prediction, and — for every
    executable candidate — the measured plan volume."""

    candidate: TuneCandidate
    predicted_words: float
    measured_words: float | None = None     # critical-path W_total
    #: measured / (normalizer · predicted); populated by the search once
    #: the run's normalizer is known. 1.0 = the model was exact.
    model_error: float | None = None

    @property
    def validated(self) -> bool:
        return self.measured_words is not None

    def to_dict(self) -> dict:
        return {"candidate": self.candidate.to_dict(),
                "predicted_words": self.predicted_words,
                "measured_words": self.measured_words,
                "model_error": self.model_error}


class Evaluator:
    """Measures candidates by their plans' volume, sharing the analysis.

    The symbolic factorization is computed once per supernode cap and
    blocking, the tree-forest partition once per ``(cap, blocking, Pz)``;
    each measurement then builds one plan.
    """

    def __init__(self, A: sp.spmatrix, geometry: GridGeometry | None = None,
                 *, leaf_size: int = 64, default_max_block: int | None = 256,
                 options: FactorOptions | None = None):
        self.A = A
        self.geometry = geometry
        self.leaf_size = leaf_size
        self.default_max_block = default_max_block
        self.options = options or FactorOptions()
        self._sf: dict[tuple, object] = {}
        self._tf: dict[tuple, object] = {}

    def sf_for(self, max_block: int | None, blocking: str = "uniform"):
        cap = self.default_max_block if max_block is None else max_block
        key = (cap, blocking)
        if key not in self._sf:
            self._sf[key] = symbolic_factorize(
                self.A, self.geometry, leaf_size=self.leaf_size,
                max_block=cap, blocking=blocking)
        return self._sf[key]

    def tf_for(self, max_block: int | None, pz: int,
               blocking: str = "uniform"):
        cap = self.default_max_block if max_block is None else max_block
        key = (cap, blocking, pz)
        if key not in self._tf:
            self._tf[key] = greedy_partition(
                self.sf_for(max_block, blocking), pz)
        return self._tf[key]

    def measure(self, cand: TuneCandidate) -> float:
        """Fig. 10's ``W_total`` of ``cand``: the largest per-rank words of
        the factorization phase plus the largest of the reduction phase,
        from its plan's :meth:`~repro.plan.tasks.Plan3D.volume` — what
        ``FactorizationMetrics.w_total_max`` reads off a cost-only run."""
        if not cand.executable:
            raise ValueError(f"candidate {cand.label} is not executable "
                             "(Pz must be a power of two); it can only be "
                             "model-scored")
        grid3 = ProcessGrid3D(cand.px, cand.py, cand.pz)
        opts = replace(self.options, blocking=cand.blocking)
        plan = build_3d_plan(self.sf_for(cand.max_block, cand.blocking),
                             self.tf_for(cand.max_block, cand.pz,
                                         cand.blocking), grid3, opts)
        vol = plan.volume(grid3.size)
        return float(vol.words_per_rank("fact").max()
                     + vol.words_per_rank("red").max())
