"""Process-grid auto-tuning.

The paper's evaluation shows the best ``P_XY × P_z`` depends on the
matrix's separator growth: planar problems want depth (large ``Pz``,
Eq. 8), strongly 3D problems want a moderate ``Pz`` (Section IV-C's
constant optimum), and in-between matrices (the paper's ldoor) sit in
between. The paper finds the optimum by sweeping; :func:`autotune_grid`
does the same sweep exactly: it enumerates every divisor factorization of
``P`` crossed with the 2.5D ancestor-replication factor
(:mod:`repro.tune.space`), measures every executable candidate by its
plan's own per-rank volume (:mod:`repro.tune.evaluate` — no simulator),
reports the closed-form prediction seeded by the *measured* separator
exponent beside each measurement, and picks the smallest measured volume
(:mod:`repro.tune.search`). Results persist in a pattern-fingerprint-keyed
JSON cache (:mod:`repro.tune.cache`) that the factorization service
consults to auto-adopt tuned grids on warm requests.
"""

from repro.tune.cache import TuneCache, tune_key
from repro.tune.evaluate import (
    CandidateResult,
    Evaluator,
    MatrixProfile,
    classify_geometry,
    estimate_separator_exponent,
    predicted_words,
)
from repro.tune.search import TuneResult, autotune_grid
from repro.tune.space import (
    TuneCandidate,
    divisors,
    enumerate_candidates,
    factor_triples,
)

__all__ = [
    "classify_geometry",
    "estimate_separator_exponent",
    "TuneCandidate",
    "divisors",
    "factor_triples",
    "enumerate_candidates",
    "MatrixProfile",
    "CandidateResult",
    "predicted_words",
    "Evaluator",
    "TuneResult",
    "autotune_grid",
    "TuneCache",
    "tune_key",
]
