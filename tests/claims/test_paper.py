"""Sections IV-V: Table II, Table III, Fig. 9-12 and the strong-scaling headline.

``python -m repro report`` prints the tables these tests read (same
drivers, same scale).
"""

import numpy as np
import pytest

from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig9 import headline_speedups, run_fig9
from repro.experiments.scaling import run_scaling, scaling_text
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from tests.claims.conftest import P, SCALE


@pytest.fixture(scope="module")
def fig9_16nodes(suite):
    return run_fig9(P=P, suite=suite)


@pytest.fixture(scope="module")
def fig9_64nodes(suite):
    return run_fig9(P=4 * P, suite=suite)


@pytest.mark.slow
def test_table2_asymptotics():
    """Every fitted log-log exponent of per-process M / W / L is within 0.25
    of its model's (the closed forms carry log factors, so exact power-law
    agreement is not expected even in theory)."""
    rows = run_table2()
    for r in rows:
        assert r.exponent_error < 0.25, (
            f"{r.problem} {r.algorithm} {r.quantity}: measured exponent "
            f"{r.measured_exponent:.2f} vs model {r.model_exponent:.2f}")

    by = {(r.problem, r.algorithm, r.quantity): r for r in rows}
    for problem in ("planar", "non-planar"):
        # 3D (Pz=4) sits below 2D in messages and words at the largest n:
        # a lower measured curve, not just a lower exponent.
        for qty in ("L", "W"):
            assert by[(problem, "3D", qty)].measured[-1] \
                < by[(problem, "2D", qty)].measured[-1], f"{problem} {qty}"
        # The 3D memory overhead is a constant factor, not another power.
        assert abs(by[(problem, "2D", "M")].measured_exponent
                   - by[(problem, "3D", "M")].measured_exponent) < 0.2


@pytest.mark.slow
def test_table3_suite():
    """The structure of Table III: the class split, nnz/n per class, and
    the fill asymmetry between planar and non-planar matrices."""
    rows = run_table3(scale=SCALE)
    assert len(rows) == 10
    assert sum(r.planar for r in rows) == 4

    by = {r.name: r for r in rows}
    # Circuit-class matrices are an order of magnitude sparser than FEM.
    for name in ("G3_circuit", "Ecology1", "K2D5pt4096"):
        assert by[name].nnz_per_row < 8.0
    for name in ("audikw_1", "dielFilterV3real"):
        assert by[name].nnz_per_row > 20.0

    # Per-unknown factorization work: non-planar >> planar.
    def flops_per_n(r):
        return r.flops / r.n
    planar_work = max(flops_per_n(r) for r in rows if r.planar)
    nonplanar_work = max(flops_per_n(r) for r in rows
                         if not r.planar and r.name != "ldoor")
    assert nonplanar_work > 5 * planar_work
    # The thin slab is nearly planar in work density (the paper's ldoor note).
    assert flops_per_n(by["ldoor"]) < 0.3 * nonplanar_work
    heaviest = max(rows, key=lambda r: r.tfact_2d)
    assert not heaviest.planar or heaviest.name == "K2D5pt4096"


def test_fig9_16nodes(fig9_16nodes):
    """Fig. 9 upper, 96 ranks: planar matrices keep gaining into Pz=16; the
    extremely non-planar ones (Serena, nlpkkt80) peak earlier and retreat
    at Pz=16 because T_scu inflates on the shrunken 2D grid (Section V-B)."""
    by = {fm.name: fm for fm in fig9_16nodes}
    for fm in fig9_16nodes:
        if fm.planar:
            assert fm.best_speedup > 1.5, f"{fm.name}: planar gain too small"
            assert fm.t_norm[-1] < fm.t_norm[0], \
                f"{fm.name}: planar should still win at Pz=16"
        else:
            assert fm.best_speedup > 1.0, f"{fm.name}: no 3D gain at all"
    for name in ("Serena", "nlpkkt80"):
        fm = by[name]
        assert fm.t_scu_norm[-1] > fm.t_scu_norm[0], \
            f"{name}: T_scu should inflate at Pz=16"
        assert fm.speedup_at_max_pz < fm.best_speedup, \
            f"{name}: Pz=16 should not be the optimum on 96 ranks"
    # Planar communication time falls with Pz (the dominant effect).
    for name in ("K2D5pt4096", "S2D9pt3072"):
        assert by[name].t_comm_norm[-1] < by[name].t_comm_norm[0]
    heads = headline_speedups(fig9_16nodes)
    assert heads["planar"][1] > heads["non-planar"][1]


@pytest.mark.slow
def test_fig9_64nodes(fig9_64nodes):
    """Fig. 9 lower, 384 ranks: the 2D baseline is deeper into the
    communication-bound regime, so every matrix gains — the extreme
    non-planar ones included (Section V-C's 1.7x / 1.9x)."""
    for fm in fig9_64nodes:
        assert fm.best_speedup > 1.0, f"{fm.name}: no gain on 384 ranks"
        if fm.planar:
            assert fm.best_speedup > 2.0, f"{fm.name}: planar gain too small"
    heads = headline_speedups(fig9_64nodes)
    assert heads["non-planar"][0] > 1.0
    assert heads["planar"][1] > heads["non-planar"][1]


@pytest.mark.slow
def test_fig9_16_vs_64nodes(fig9_16nodes, fig9_64nodes):
    """Pz=16 pays off more on 384 ranks than on 96 for the matrices that
    retreat there (Section V-C)."""
    by16 = {fm.name: fm for fm in fig9_16nodes}
    by64 = {fm.name: fm for fm in fig9_64nodes}
    for name in ("Serena", "nlpkkt80"):
        assert by64[name].speedup_at_max_pz > by16[name].speedup_at_max_pz


def test_fig10_comm_volume(suite):
    """Fig. 10: W_fact falls and W_red grows with Pz; the total drops 2x or
    more at the best Pz, by more on the planar matrix; on 96 ranks W_red
    eats nlpkkt80's gain between Pz=8 and 16 (Section V-D)."""
    series = run_fig10(suite=suite)
    by = {(s.matrix, s.P): s for s in series}
    for s in series:
        assert all(a >= b for a, b in zip(s.w_fact_bytes, s.w_fact_bytes[1:])), \
            f"{s.matrix} P={s.P}: W_fact not decreasing"
        assert all(a <= b for a, b in zip(s.w_red_bytes, s.w_red_bytes[1:])), \
            f"{s.matrix} P={s.P}: W_red not growing"
        assert s.w_total_bytes[0] / min(s.w_total_bytes) > 2.0, \
            f"{s.matrix} P={s.P}: total volume reduction too small"
        # "Almost linearly" in Pz: Eq. (10) is Pz*log(Pz), whose fitted
        # slope over Pz = 2..16 is ~1.67.
        slope = np.polyfit(np.log(s.pz[1:]), np.log(s.w_red_bytes[1:]), 1)[0]
        assert 0.6 < slope < 2.1, f"{s.matrix} P={s.P}: W_red slope {slope}"

    for ranks in (P, 4 * P):
        planar, nonpl = by[("K2D5pt4096", ranks)], by[("nlpkkt80", ranks)]
        # Paper: 3-4.7x planar vs 2.5-3.7x non-planar.
        assert planar.w_total_bytes[0] / min(planar.w_total_bytes) \
            > nonpl.w_total_bytes[0] / min(nonpl.w_total_bytes)
        # Reduction traffic is a far larger share for nlpkkt80 at Pz=16.
        assert nonpl.w_red_bytes[-1] / nonpl.w_total_bytes[-1] \
            > planar.w_red_bytes[-1] / planar.w_total_bytes[-1]

    s = by[("nlpkkt80", P)]
    gain_8 = s.w_total_bytes[0] / s.w_total_bytes[3]
    gain_16 = s.w_total_bytes[0] / s.w_total_bytes[4]
    assert gain_16 < 1.25 * gain_8, "expected W_total flattening at Pz=16"


@pytest.mark.slow
def test_fig11_memory_overhead(suite):
    """Fig. 11: replication overhead grows with Pz, stays cheap for planar
    matrices (paper ~30% for K2D5pt4096 at Pz=16) and is extreme for
    nlpkkt80 (~200%); the suite spans a wide range (18-245%). The KKT
    proxy's separators are better than the real nlpkkt80's, so the
    planar-vs-KKT gap is the reproducible content, not the absolutes."""
    series = run_fig11(P=P, suite=suite)
    by = {s.matrix: s for s in series}
    for s in series:
        assert all(a <= b + 1e-9 for a, b in
                   zip(s.overhead_pct, s.overhead_pct[1:])), \
            f"{s.matrix}: overhead not increasing with Pz"
        assert s.overhead_pct[0] >= 0.0

    k2d = by["K2D5pt4096"].overhead_at_max_pz
    nlp = by["nlpkkt80"].overhead_at_max_pz
    assert k2d < 80.0, f"K2D5pt overhead too high: {k2d:.0f}%"
    assert nlp > 60.0, f"nlpkkt80 overhead too low: {nlp:.0f}%"
    assert nlp > 2 * k2d

    assert not max(series, key=lambda s: s.overhead_at_max_pz).planar
    assert max(s.overhead_at_max_pz for s in series if s.planar) \
        < max(s.overhead_at_max_pz for s in series if not s.planar)
    lo = min(s.overhead_at_max_pz for s in series)
    hi = max(s.overhead_at_max_pz for s in series)
    assert hi / max(lo, 1.0) > 3.0, f"spread too narrow: {lo:.0f}%..{hi:.0f}%"


@pytest.mark.slow
def test_fig12_heatmap():
    """Fig. 12 + Section V-F: the best configuration of both matrices has
    Pz > 1; at a fixed rank budget the planar matrix prefers at least as
    much depth as the non-planar one; performance keeps growing with total
    ranks along each ridge."""
    heatmaps = run_fig12(scale=SCALE)
    by = {hm.matrix: hm for hm in heatmaps}
    k2d, nlp = by["K2D5pt4096"], by["nlpkkt80"]

    # V-F: 5-27.4x planar vs 2.1-3.3x non-planar.
    assert k2d.best_case_speedup > 2.0
    assert nlp.best_case_speedup > 1.2
    assert k2d.best_case_speedup > nlp.best_case_speedup
    assert k2d.best_config()[1] > 1
    assert nlp.best_config()[1] > 1

    def best_pz_at_total(hm, total):
        best, arg = -1.0, None
        for i, pxy in enumerate(hm.pxy):
            for j, pz in enumerate(hm.pz):
                if pxy * pz == total and hm.gflops[i, j] > best:
                    best, arg = hm.gflops[i, j], pz
        return arg

    for total in (96, 192, 384):
        pz_planar = best_pz_at_total(k2d, total)
        pz_nonpl = best_pz_at_total(nlp, total)
        assert pz_planar is not None and pz_nonpl is not None
        assert pz_planar >= pz_nonpl, (
            f"P={total}: planar best Pz {pz_planar} < non-planar {pz_nonpl}")

    for hm in heatmaps:
        best_per_total = {}
        for i, pxy in enumerate(hm.pxy):
            for j, pz in enumerate(hm.pz):
                t = pxy * pz
                best_per_total[t] = max(best_per_total.get(t, 0.0),
                                        hm.gflops[i, j])
        totals = sorted(best_per_total)
        gains = [best_per_total[b] / best_per_total[a]
                 for a, b in zip(totals, totals[1:])]
        # At least the first few doublings keep improving performance.
        assert all(g > 1.0 for g in gains[:3]), \
            f"{hm.matrix}: no strong-scaling headroom ({gains})"


@pytest.mark.slow
def test_scaling_limits(suite):
    """Abstract / Section V-F: "up to 16x more processors for the same
    problem size with continued time reduction". Over P = 24..1536 the 2D
    baseline stops gaining (>= 15% per doubling) while best-3D keeps going:
    >= 8x more ranks on the planar proxy (the paper's 16x is at 400x our
    n), >= 2x on Serena; the best Pz grows with P."""
    planar = run_scaling(suite["K2D5pt4096"])
    nonpl = run_scaling(suite["Serena"])
    print()
    print(scaling_text(planar))
    print()
    print(scaling_text(nonpl))

    assert all(t3 <= t2 for t2, t3 in zip(planar.t_2d, planar.t_3d))
    assert planar.saturation_2d < planar.P[-1]
    assert planar.extra_scaling_factor >= 8.0, (
        f"planar extra scaling only {planar.extra_scaling_factor}x")
    assert nonpl.extra_scaling_factor >= 2.0
    # Non-decreasing in P up to one step of sweep noise.
    violations = sum(a > b for a, b in zip(planar.best_pz, planar.best_pz[1:]))
    assert violations <= 1
    assert planar.t_2d[-1] / planar.t_3d[-1] > 3.0
