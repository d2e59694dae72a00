"""Tests for the experiment harness and per-figure drivers (tiny scale)."""

import numpy as np
import pytest

from repro.experiments import (
    paper_suite,
    prepared,
    pz_sweep,
    run_configuration,
)
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig9 import headline_speedups, run_fig9
from repro.experiments.table2 import fit_exponent
from repro.experiments.table3 import run_table3, table3_text


class TestSuite:
    def test_all_scales_build(self):
        for scale in ("tiny", "small"):
            suite = paper_suite(scale)
            assert len(suite) == 10
            assert all(tm.A.shape[0] == tm.A.shape[1] for tm in suite)

    def test_sizes_ordered_by_scale(self):
        tiny = {tm.name: tm.n for tm in paper_suite("tiny")}
        small = {tm.name: tm.n for tm in paper_suite("small")}
        assert all(small[k] > tiny[k] for k in tiny)

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            paper_suite("huge")

    def test_prepared_filter(self):
        pms = prepared(["Serena", "ldoor"], scale="tiny")
        assert [pm.name for pm in pms] == ["Serena", "ldoor"]
        with pytest.raises(ValueError, match="unknown"):
            prepared(["NotAMatrix"], scale="tiny")

    def test_planar_split(self):
        suite = paper_suite("tiny")
        assert sum(tm.planar for tm in suite) == 4


class TestHarness:
    def test_symbolic_cached(self):
        pm = prepared(["K2D5pt4096"], scale="tiny")[0]
        sf1 = pm.sf
        sf2 = pm.sf
        assert sf1 is sf2

    def test_partition_cached_per_strategy(self):
        pm = prepared(["K2D5pt4096"], scale="tiny")[0]
        assert pm.partition(2) is pm.partition(2)
        assert pm.partition(2) is not pm.partition(2, "naive")

    def test_run_configuration_record(self):
        pm = prepared(["Ecology1"], scale="tiny")[0]
        rec = run_configuration(pm, P=24, pz=4)
        assert rec.P == 24 and rec.pz == 4 and rec.pxy == 6
        assert rec.metrics.makespan > 0
        assert "x4" in rec.label

    def test_pz_sweep_skips_nondivisors(self):
        pm = prepared(["Ecology1"], scale="tiny")[0]
        recs = pz_sweep(pm, 24, (1, 2, 4, 16))
        assert [r.pz for r in recs] == [1, 2, 4]  # 16 does not divide 24

    def test_deterministic(self):
        pm = prepared(["K2D5pt4096"], scale="tiny")[0]
        a = run_configuration(pm, P=24, pz=2).metrics
        b = run_configuration(pm, P=24, pz=2).metrics
        assert a == b


class TestFitExponent:
    def test_pure_power(self):
        ns = [10, 100, 1000]
        vals = [7.0 * n ** 1.5 for n in ns]
        assert fit_exponent(ns, vals) == pytest.approx(1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([10, 100], [1.0, 0.0])


class TestFigureDrivers:
    """Tiny-scale smoke + shape checks for the per-figure drivers; the
    paper's claims are asserted at the ``small`` scale in tests/claims/."""

    def test_table3(self):
        rows = run_table3(scale="tiny", P=24)
        assert len(rows) == 10
        text = table3_text(rows)
        assert "Serena" in text and "Table III" in text

    def test_fig9(self):
        res = run_fig9(P=24, scale="tiny", names=["K2D5pt4096", "Serena"])
        assert len(res) == 2
        for fm in res:
            assert fm.pz[0] == 1
            assert fm.t_norm[0] == pytest.approx(1.0)
        heads = headline_speedups(res)
        assert set(heads) == {"planar", "non-planar"}

    def test_fig10(self):
        series = run_fig10(names=("K2D5pt4096",), P_values=(24,),
                           scale="tiny")
        s = series[0]
        assert s.pz[0] == 1 and s.w_red_bytes[0] == 0.0
        assert s.w_fact_bytes[0] > 0
        assert len(s.w_total_bytes) == len(s.pz)

    def test_fig11(self):
        series = run_fig11(P=24, scale="tiny", names=["K2D5pt4096"])
        s = series[0]
        assert s.pz == [2, 4, 8]  # 16 does not divide 24
        assert all(np.isfinite(s.overhead_pct))

    def test_figure_runners_share_one_sweep(self, monkeypatch):
        """Fig. 9, 10 and 11 read the same (matrix, P, machine) sweep: given
        one suite, each (matrix, P, Pz) configuration is simulated once
        between them, and the records are the ones a fresh sweep returns."""
        from collections import Counter

        from repro.experiments import harness
        suite = harness.prepared_suite("tiny")
        booked = Counter()
        real = harness.run_configuration

        def counting(pm, P, pz, **kw):
            booked[pm.name, P, pz] += 1
            return real(pm, P, pz, **kw)
        monkeypatch.setattr(harness, "run_configuration", counting)
        names = ["K2D5pt4096", "Serena"]
        fig9 = run_fig9(P=24, names=names, suite=suite)
        run_fig10(names=tuple(names), P_values=(24, 48), suite=suite)
        fig11 = run_fig11(P=24, names=names, suite=suite)
        assert run_fig9(P=24, names=names, suite=suite) == fig9
        assert set(booked) == {(n, P, pz) for n in names for P in (24, 48)
                               for pz in (1, 2, 4, 8, 16) if P % pz == 0}
        assert set(booked.values()) == {1}
        # Same numbers as an unshared sweep of a fresh PreparedMatrix.
        pm = harness.PreparedMatrix(suite[names[0]].tm)
        fresh = harness.pz_sweep(pm, 24, (1, 2, 4, 8, 16))
        assert [r.metrics.makespan / fresh[0].metrics.makespan
                for r in fresh] == fig9[0].t_norm
        assert fig11[0].pz == [r.pz for r in fresh[1:]]

    def test_fig12(self):
        hm = run_fig12(names=("Ecology1",), scale="tiny",
                       pxy_values=(4, 8), pz_values=(1, 2))[0]
        assert hm.gflops.shape == (2, 2)
        assert hm.best_2d > 0
        pxy, pz = hm.best_config()
        assert pxy in (4, 8) and pz in (1, 2)
