"""Configuration search over the (Px, Py, Pz, c, max_block, blocking) space.

:func:`autotune_grid` is the tuner's entry point:

1. **Profile** — measure the matrix's separator exponent once
   (:class:`~repro.tune.evaluate.MatrixProfile`); it seeds every model
   score.
2. **Enumerate** — all divisor factorizations of ``P`` crossed with the
   2.5D replication factor (:func:`repro.tune.space.enumerate_candidates`).
3. **Score** — every *executable* candidate (power-of-two ``Pz``) is
   measured by its plan's own volume
   (:meth:`~repro.tune.evaluate.Evaluator.measure`); every candidate,
   executable or not, also gets its closed-form prediction. The naive
   near-square ``Pz = 1`` grid is always measured, so the reported
   improvement is measured-vs-measured, never model-vs-model.
4. **Choose** — the candidate with the smallest measured critical-path
   volume; ties break toward the model's preference.

The per-candidate model error (measured / normalized prediction) is
reported so benchmark plots can show where the asymptotic forms and the
schedule part ways — the crossover datum Table II's constant-factor claims
hinge on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.comm.grid import near_square_grid
from repro.lu2d.options import FactorOptions
from repro.sparse.generators import GridGeometry
from repro.tune.evaluate import (
    CandidateResult,
    Evaluator,
    MatrixProfile,
    predicted_words,
)
from repro.tune.space import TuneCandidate, enumerate_candidates
from repro.utils import check_positive_int

__all__ = ["TuneResult", "autotune_grid"]


@dataclass
class TuneResult:
    """Everything one tuning session learned.

    ``candidates`` holds every scored candidate, measured ones first in
    order of measured cost, then the model-only ones in order of
    prediction. ``chosen`` is the winner; ``baseline`` the naive
    near-square ``Pz = 1`` grid every improvement is quoted against.
    """

    P: int
    n: int
    sigma: float
    classification: str
    chosen: TuneCandidate
    baseline: CandidateResult
    candidates: list[CandidateResult] = field(default_factory=list)
    #: Geometric mean over measured candidates of measured/normalized-
    #: predicted volume — 1.0 means the seeded model ranked in exactly
    #: the schedule's proportions.
    model_error_geomean: float = 1.0

    @property
    def chosen_result(self) -> CandidateResult:
        for r in self.candidates:
            if r.candidate == self.chosen:
                return r
        raise LookupError("chosen candidate missing from results")

    @property
    def measured_improvement(self) -> float:
        """Baseline words / chosen words, both *measured*."""
        chosen = self.chosen_result.measured_words
        base = self.baseline.measured_words
        if not chosen or not base:
            return 1.0
        return base / chosen

    @property
    def predicted_improvement(self) -> float:
        base = self.baseline.predicted_words
        chosen = self.chosen_result.predicted_words
        return base / chosen if chosen else 1.0

    def to_dict(self) -> dict:
        return {"P": self.P, "n": self.n, "sigma": self.sigma,
                "classification": self.classification,
                "chosen": self.chosen.to_dict(),
                "baseline": self.baseline.to_dict(),
                "candidates": [r.to_dict() for r in self.candidates],
                "model_error_geomean": self.model_error_geomean,
                "measured_improvement": self.measured_improvement,
                "predicted_improvement": self.predicted_improvement}

    @classmethod
    def from_dict(cls, d: dict) -> "TuneResult":
        def _res(rd: dict) -> CandidateResult:
            return CandidateResult(
                candidate=TuneCandidate.from_dict(rd["candidate"]),
                predicted_words=float(rd["predicted_words"]),
                measured_words=rd.get("measured_words"),
                model_error=rd.get("model_error"))
        return cls(P=int(d["P"]), n=int(d["n"]), sigma=float(d["sigma"]),
                   classification=d["classification"],
                   chosen=TuneCandidate.from_dict(d["chosen"]),
                   baseline=_res(d["baseline"]),
                   candidates=[_res(rd) for rd in d["candidates"]],
                   model_error_geomean=float(
                       d.get("model_error_geomean", 1.0)))

    def summary(self) -> str:
        ch = self.chosen_result
        measured = sum(r.validated for r in self.candidates)
        lines = [
            f"tuned {self.P} ranks (sigma={self.sigma:.2f}, "
            f"{self.classification}): chose {self.chosen.label} of "
            f"{measured} measured candidates "
            f"({len(self.candidates) - measured} model-only)",
            f"  measured words: {ch.measured_words:.3g} vs baseline "
            f"{self.baseline.measured_words:.3g} "
            f"({self.measured_improvement:.2f}x better)",
            f"  model error (geomean over measured): "
            f"{self.model_error_geomean:.2f}",
        ]
        return "\n".join(lines)


def _normalize_errors(results: list[CandidateResult]) -> float:
    """Fill ``model_error`` on measured results; return the geomean.

    Predictions are asymptotic shapes, so a single scale factor between
    model units and plan words is legitimate; it is chosen as the
    geometric-mean ratio over the measured set, making the per-candidate
    errors pure *shape* disagreement.
    """
    val = [r for r in results
           if r.validated and r.measured_words and r.predicted_words > 0]
    if not val:
        return 1.0
    ratios = np.array([r.measured_words / r.predicted_words for r in val])
    scale = float(np.exp(np.mean(np.log(ratios))))
    errs = []
    for r in val:
        r.model_error = float(
            r.measured_words / (scale * r.predicted_words))
        errs.append(abs(np.log(r.model_error)))
    return float(np.exp(np.mean(errs)))


def autotune_grid(A: sp.spmatrix, P: int,
                  geometry: GridGeometry | None = None, *,
                  leaf_size: int = 64,
                  max_blocks: tuple[int | None, ...] = (None,),
                  c_values: tuple[int, ...] | None = None,
                  blockings: tuple[str, ...] = ("uniform",),
                  options: FactorOptions | None = None,
                  cache=None) -> TuneResult:
    """Search ``(Px, Py, Pz, c, max_block, blocking)`` for factoring ``A``
    on ``P`` ranks; returns the measured :class:`TuneResult`.

    ``cache`` (a :class:`repro.tune.cache.TuneCache`) is consulted first
    and updated with the fresh result.
    """
    P = check_positive_int(P, "P")
    space = dict(max_blocks=max_blocks, c_values=c_values,
                 blockings=blockings)
    key = dict(space, leaf_size=leaf_size, options=options)
    if cache is not None:
        hit = cache.get(A, P, **key)
        if hit is not None:
            return hit

    profile = MatrixProfile.measure(A, geometry, leaf_size=leaf_size)
    ev = Evaluator(A, geometry, leaf_size=leaf_size, options=options)

    def score(cand: TuneCandidate) -> CandidateResult:
        return CandidateResult(
            cand, predicted_words(cand, profile),
            ev.measure(cand) if cand.executable else None)

    results = [score(c) for c in enumerate_candidates(P, **space)]
    # The naive near-square Pz=1 grid: always measured, so improvements
    # are quoted against a real plan even when the space excludes it.
    bx, by = near_square_grid(P)
    naive = TuneCandidate(px=bx, py=by, pz=1)
    baseline = next((r for r in results if r.candidate == naive), None)
    if baseline is None:
        baseline = score(naive)
        results.append(baseline)

    geomean = _normalize_errors(results)
    results.sort(key=lambda r: (not r.validated, r.measured_words or 0.0,
                                r.predicted_words))
    out = TuneResult(P=P, n=profile.n, sigma=profile.sigma,
                     classification=profile.classification,
                     chosen=results[0].candidate, baseline=baseline,
                     candidates=results, model_error_geomean=geomean)
    if cache is not None:
        cache.put(A, out, **key)
    return out
