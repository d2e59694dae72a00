"""Tests for the autotuning subsystem (repro.tune).

Covers the separator-exponent profile, the candidate space, the evaluator
(every score pinned bit for bit to the simulator's ledger by
``tests/data/golden_tune_words.json``), the search loop, the on-disk
cache, service auto-adoption, and the model-vs-ledger consistency
contract: predicted 3D/2D communication ratios must move the way the
closed forms say and land within a fixed factor of the measured plan
volume.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.model import volume_3d_nonplanar, volume_3d_planar
from repro.sparse import (
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    grid3d_27pt,
    kkt_like,
    random_symmetric_pattern,
    thin_slab_7pt,
)
from repro.tune import (
    Evaluator,
    MatrixProfile,
    TuneCache,
    TuneCandidate,
    TuneResult,
    autotune_grid,
    classify_geometry,
    divisors,
    enumerate_candidates,
    estimate_separator_exponent,
    factor_triples,
    predicted_words,
    tune_key,
)


class TestSeparatorExponent:
    def test_planar_grids_measure_half(self):
        for gen in (lambda: grid2d_5pt(64), lambda: grid2d_9pt(48),
                    lambda: circuit_like(48)):
            A, g = gen()
            sigma = estimate_separator_exponent(A, g)
            assert 0.35 < sigma < 0.55, sigma

    def test_bricks_measure_two_thirds(self):
        for gen in (lambda: grid3d_7pt(14), lambda: grid3d_27pt(12),
                    lambda: kkt_like(12)):
            A, g = gen()
            sigma = estimate_separator_exponent(A, g)
            assert 0.60 < sigma < 0.75, sigma

    def test_slab_is_intermediate(self):
        """The paper's ldoor observation: a thin 3D object partitions
        between the two regimes."""
        A, g = thin_slab_7pt(32, 32, 3)
        sigma = estimate_separator_exponent(A, g)
        planar_sigma = estimate_separator_exponent(*grid2d_5pt(32))
        brick_sigma = estimate_separator_exponent(*grid3d_7pt(10))
        assert planar_sigma < sigma < brick_sigma

    def test_tiny_problem_defaults_planar(self):
        A, g = grid2d_5pt(6)
        assert estimate_separator_exponent(A, g) == 0.5

    def test_works_without_geometry(self):
        A = random_symmetric_pattern(400, 4.0, seed=2)
        sigma = estimate_separator_exponent(A)
        assert 0.0 < sigma < 1.2


class TestClassify:
    def test_bands(self):
        assert classify_geometry(0.45) == "planar"
        assert classify_geometry(0.58) == "intermediate"
        assert classify_geometry(0.67) == "non-planar"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            classify_geometry(float("nan"))


class TestSpace:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(16) == [1, 2, 4, 8, 16]
        assert divisors(7) == [1, 7]

    def test_factor_triples_cover_and_multiply(self):
        for P in (12, 16, 24):
            triples = factor_triples(P)
            assert all(px * py * pz == P for px, py, pz in triples)
            assert all(px <= py for px, py, _ in triples)
            assert len(set(triples)) == len(triples)
            assert set(pz for _, _, pz in triples) == set(divisors(P))

    def test_enumerate_includes_non_pow2_pz(self):
        cands = enumerate_candidates(12)
        pzs = {c.pz for c in cands}
        assert {1, 2, 3, 4, 6, 12} <= pzs
        assert all(c.total == 12 for c in cands)
        # c ranges over powers of two up to pz, always including 1.
        assert {c.c for c in cands if c.pz == 4} == {1, 2, 4}
        assert {c.c for c in cands if c.pz == 3} == {1, 2}

    def test_executable_only_filter(self):
        cands = enumerate_candidates(12, executable_only=True)
        assert {c.pz for c in cands} == {1, 2, 4}

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            TuneCandidate(px=2, py=2, pz=2, c=4)  # c > pz
        with pytest.raises(ValueError):
            TuneCandidate(px=0, py=2, pz=2)
        with pytest.raises(ValueError):
            enumerate_candidates(12, c_values=(3,))  # non-pow2 c

    def test_candidate_roundtrip(self):
        c = TuneCandidate(px=2, py=3, pz=4, c=2, max_block=128)
        assert TuneCandidate.from_dict(c.to_dict()) == c
        assert c.label == "2x3x4 c=2 cap=128"
        assert not TuneCandidate(px=1, py=4, pz=3).executable
        assert TuneCandidate(px=1, py=4, pz=4).executable


class TestEvaluate:
    def test_profile_measures_regime(self):
        A, g = grid2d_5pt(48)
        prof = MatrixProfile.measure(A, geometry=g)
        assert prof.classification == "planar"
        A3, g3 = grid3d_7pt(12)
        prof3 = MatrixProfile.measure(A3, geometry=g3)
        assert prof3.classification == "non-planar"

    def test_replication_discounts_top_term(self):
        """Section VII: replicating ancestors by c divides the dense-top
        volume term by c, so predicted words fall as c grows."""
        prof = MatrixProfile(n=4096, sigma=0.67, classification="non-planar")
        base = TuneCandidate(px=2, py=2, pz=8)
        more = TuneCandidate(px=2, py=2, pz=8, c=8)
        assert predicted_words(more, prof) < predicted_words(base, prof)

    def test_skewed_layers_penalized(self):
        prof = MatrixProfile(n=4096, sigma=0.5, classification="planar")
        square = TuneCandidate(px=4, py=4, pz=2)
        skewed = TuneCandidate(px=1, py=16, pz=2)
        assert predicted_words(square, prof) < predicted_words(skewed, prof)

    def test_evaluator_shares_the_analysis(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        cand = TuneCandidate(px=2, py=2, pz=2)
        assert ev.measure(cand) == ev.measure(cand)
        # Symbolic + partition objects are shared across same-cap shapes.
        ev.measure(TuneCandidate(px=1, py=4, pz=2))
        assert len(ev._sf) == 1 and len(ev._tf) == 1

    def test_evaluator_rejects_non_executable(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        with pytest.raises(ValueError):
            ev.measure(TuneCandidate(px=1, py=4, pz=3))


class TestVolumeGolden:
    """``golden_tune_words.json`` was written at ``57ae25f`` from cost-only
    simulator runs: the plan's volume reduction reproduces every score of
    its 768 candidates bit for bit. The suite-wide analyzer hook is off
    here, as in ``tests/claims``: it would cost 3x the 768 builds, whose
    builder the rest of tier-1 runs under the hook."""

    def test_regenerating_rewrites_the_file_byte_for_byte(self, monkeypatch):
        from repro.plan import build
        from tests.data.regen_tune_words import (
            OUT,
            case_words,
            cases,
            evaluators,
            render,
        )
        monkeypatch.setattr(build, "POST_BUILD_HOOK", None)
        evs = evaluators()
        records = {case: case_words(evs[name, pricing], P, blocking, mb)
                   for case, name, P, pricing, blocking, mb in cases()}
        assert sum(map(len, records.values())) == 768
        assert render(records) == OUT.read_text()


class TestSearch:
    def test_autotune_beats_or_matches_naive(self):
        """On a non-planar matrix the tuned config's measured words must
        not lose to the naive Pz=1 grid, and every executable candidate
        is measured."""
        A, g = grid3d_7pt(9)
        res = autotune_grid(A, 16, geometry=g, leaf_size=32)
        assert res.baseline.candidate.pz == 1
        assert res.baseline.validated
        assert res.chosen_result.validated
        assert res.measured_improvement >= 1.0
        assert all(r.validated == r.candidate.executable
                   for r in res.candidates)
        assert sum(r.validated for r in res.candidates) == 22

    def test_chosen_grid_is_feasible(self):
        """The chosen grid multiplies to P, is runnable (power-of-two Pz)
        and keeps the Px <= Py convention, on P with odd factors too."""
        A, g = grid2d_5pt(16)
        for P in (12, 7):
            ch = autotune_grid(A, P, geometry=g, leaf_size=32).chosen
            assert ch.total == P and ch.executable and ch.px <= ch.py

    def test_p_validation(self):
        A, g = grid2d_5pt(8)
        with pytest.raises(ValueError):
            autotune_grid(A, 0, geometry=g)

    def test_result_roundtrip_and_summary(self):
        A, g = grid3d_7pt(8)
        res = autotune_grid(A, 4, geometry=g, leaf_size=32)
        clone = TuneResult.from_dict(res.to_dict())
        assert clone.chosen == res.chosen
        assert clone.P == res.P
        assert "chose" in res.summary()

    def test_cache_roundtrip(self, tmp_path):
        A, g = grid3d_7pt(8)
        cache = TuneCache(tmp_path / "tune.json")
        res = autotune_grid(A, 4, geometry=g, leaf_size=32, cache=cache)
        assert len(cache) == 1
        again = autotune_grid(A, 4, geometry=g, leaf_size=32, cache=cache)
        assert again.chosen == res.chosen
        # Different pattern -> distinct entry.
        B, gb = grid2d_5pt(16)
        autotune_grid(B, 4, geometry=gb, cache=cache)
        assert len(cache) == 2

    def test_cache_version_guard(self, tmp_path):
        p = tmp_path / "tune.json"
        p.write_text('{"version": 99, "results": {}}')
        with pytest.raises(ValueError, match="version"):
            TuneCache(p).get(grid3d_7pt(8)[0], 8)

    def test_tune_key_separates_options(self):
        from repro.lu2d.options import FactorOptions
        A, _ = grid3d_7pt(8)
        k1 = tune_key(A, 8)
        k2 = tune_key(A, 16)
        k3 = tune_key(A, 8, options=FactorOptions(compact_comm=True))
        assert len({k1, k2, k3}) == 3

    def test_tune_key_separates_search_space(self, tmp_path):
        """A session over a wider space is not served a narrower one's
        result."""
        A, g = grid2d_5pt(12)
        assert len({tune_key(A, 4), tune_key(A, 4, max_blocks=(None, 32)),
                    tune_key(A, 4, c_values=(1,)),
                    tune_key(A, 4, blockings=("uniform", "irregular"))}) == 4
        cache = TuneCache(tmp_path / "tune.json")
        autotune_grid(A, 4, geometry=g, leaf_size=16, cache=cache)
        both = autotune_grid(A, 4, geometry=g, leaf_size=16, cache=cache,
                             blockings=("uniform", "irregular"))
        assert len(cache) == 2
        assert {r.candidate.blocking for r in both.candidates} == \
            {"uniform", "irregular"}

    def test_fresh_reader_gets_the_most_recent_result(self, tmp_path):
        """``get_by_fingerprint`` in another process (a fresh reader)
        returns the latest session's result, whatever the keys' sort
        order (``:P8:`` sorts after ``:P16:``), and a re-tuned key moves
        to the end."""
        from repro.service.cache import pattern_fingerprint
        A, g = grid2d_5pt(12)
        path = tmp_path / "tune.json"
        cache = TuneCache(path)
        res8 = autotune_grid(A, 8, geometry=g, leaf_size=16, cache=cache)
        cache.put(A, replace(res8, P=16), leaf_size=16)
        fp = pattern_fingerprint(A)
        assert TuneCache(path).get_by_fingerprint(fp).P == 16
        cache.put(A, res8, leaf_size=16)
        assert len(cache) == 2
        assert TuneCache(path).get_by_fingerprint(fp).P == 8


class TestServiceAdoption:
    def test_warm_request_adopts_tuned_grid(self, tmp_path):
        from repro.service import FactorizationService
        A, g = grid3d_7pt(8)
        cache = TuneCache(tmp_path / "tune.json")
        res = autotune_grid(A, 8, geometry=g, leaf_size=32, cache=cache)
        with FactorizationService(px=2, py=2, pz=2, numeric=False,
                                  leaf_size=32, geometry=g,
                                  tune_cache=cache) as svc:
            job = svc.solve(A)
            assert job.tuned_grid == res.chosen.label
            # Explicit grid pins win over the tuning cache.
            pinned = svc.solve(A, px=2, py=2, pz=2)
            assert pinned.tuned_grid is None

    def test_no_cache_no_adoption(self):
        from repro.service import FactorizationService
        A, g = grid3d_7pt(8)
        with FactorizationService(px=2, py=2, pz=2, numeric=False,
                                  leaf_size=32, geometry=g) as svc:
            assert svc.solve(A).tuned_grid is None


class TestModelLedgerConsistency:
    """Predicted 3D/2D ratios vs measured plan volumes."""

    def test_closed_form_terms_monotone_in_pz(self):
        """The replicated-top term grows with Pz while the subtree term
        shrinks — the tension behind Eq. (8)'s interior optimum."""
        n, P = 2**14, 256
        planar = [volume_3d_planar(n, P, pz) for pz in (2, 4, 8, 16)]
        # Planar W_3D is minimized strictly inside the sweep: not monotone.
        assert min(planar) not in (planar[0], planar[-1]) or \
            planar[0] > planar[1]
        nonpl = [volume_3d_nonplanar(n, P, pz) for pz in (2, 4, 8, 16)]
        assert all(np.isfinite(v) and v > 0 for v in planar + nonpl)

    @pytest.mark.parametrize("gen,P,pzs", [
        (lambda: grid2d_5pt(40), 16, (2, 4, 8)),
        (lambda: grid3d_7pt(9), 16, (2, 4, 8)),
    ])
    def test_predicted_ratio_tracks_measured(self, gen, P, pzs):
        """Predicted W_2D/W_3D(pz) and the measured ratio must stay within
        a fixed factor of each other: the model is an asymptotic shape,
        not a word-exact oracle, but one that gets a ratio wrong by >6x
        would be a worthless reported column."""
        A, g = gen()
        prof = MatrixProfile.measure(A, geometry=g)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        base = ev.measure(TuneCandidate(px=4, py=4, pz=1))
        pred_base = predicted_words(TuneCandidate(px=4, py=4, pz=1), prof)
        for pz in pzs:
            px, py = {2: (2, 4), 4: (2, 2), 8: (1, 2)}[pz]
            cand = TuneCandidate(px=px, py=py, pz=pz)
            pred_ratio = pred_base / predicted_words(cand, prof)
            meas_ratio = base / ev.measure(cand)
            assert pred_ratio > 0 and meas_ratio > 0
            assert pred_ratio / meas_ratio < 6.0
            assert meas_ratio / pred_ratio < 6.0

    def test_measured_totals_finite_and_positive(self):
        A, g = grid3d_7pt(8)
        ev = Evaluator(A, geometry=g, leaf_size=32)
        w = ev.measure(TuneCandidate(px=1, py=2, pz=4, c=4))
        assert np.isfinite(w) and w > 0
