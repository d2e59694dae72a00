"""Full-width vs width-1 conformance tests.

**Observational equivalence of the two widths** — a plan is one array
form (:mod:`repro.plan.arrays`); walking its full-width runs books
ledgers bit-identical to walking it task by task and produces bit-equal
factors, across the drivers (3D LU, the 2D baseline as its Pz = 1 run,
merged 3D, Cholesky) and
under the randomized-schedule fuzzer; the static analyzer is clean on it,
cut points and derived columns included, and dropping a dep edge still
trips the race detector. (This file keeps its name from the compile pass
those guarantees were first pinned for.)

The resilience monitor is the one observer that cuts the walk at every
task, so the width-1 driver run here is a monitored one that never
checkpoints (``tests.conftest.width1_options``); the plan-level identity
goes through the fuzzer's ``canonical_ledger``, whose units are tasks or
same-kind runs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import format_parallel_stats
from repro.comm import ProcessGrid2D, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.plan import build_3d_plan, build_grid_plan
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import analyze_plan, drop_dep_edge, fuzz_3d
from repro.verify.oracle import ledger_state
from tests.conftest import one_layer, width1_options


@pytest.fixture(scope="module")
def planar():
    A, geom = grid2d_5pt(14)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    return sf, greedy_partition(sf, 4)


@pytest.fixture(scope="module")
def spd():
    A, geom = grid2d_5pt(14)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=16)
    return sf, greedy_partition(sf, 2)


def _opts(**kw) -> FactorOptions:
    return FactorOptions(**kw)


def _width(per_task: bool) -> FactorOptions:
    return width1_options() if per_task else _opts()


def assert_equivalent(run, compare_factors=True):
    """Run ``run(per_task)`` at full width (plain options) and at width 1
    (the resilience monitor watches every task); demand bit-identity."""
    sim_c, res_c = run(False)
    sim_u, res_u = run(True)
    assert ledger_state(sim_c) == ledger_state(sim_u)
    if compare_factors:
        Fc = res_c.factors().to_dense()
        Fu = res_u.factors().to_dense()
        assert np.array_equal(Fc, Fu), "factors diverged between widths"
    return res_c, res_u


class TestCompiledBitIdentity:
    """Full-width and width-1 walks are observationally indistinguishable."""

    def test_lu2d(self, planar):
        sf, _ = planar

        def run(per_task):
            sim = Simulator(6)
            res = factor_3d(sf, *one_layer(sf, 2, 3), sim, numeric=False,
                            options=_width(per_task))
            return sim, res

        res_c, res_u = assert_equivalent(run, compare_factors=False)
        assert res_c.resilience is None and res_u.resilience is not None
        stats = res_c.plan.fusion_stats()
        assert stats.n_fused > 0
        assert stats.dispatch_reduction > 1.0

    @pytest.mark.parametrize("numeric", [False, True])
    def test_lu3d(self, planar, numeric):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)

        def run(per_task):
            sim = Simulator(grid3.size)
            res = factor_3d(sf, tf, grid3, sim, numeric=numeric,
                            options=_width(per_task))
            return sim, res

        res_c, res_u = assert_equivalent(run, compare_factors=numeric)
        assert res_c.resilience is None
        assert res_u.resilience is not None
        st = res_c.plan.fusion_stats()
        assert st.n_tasks_after < st.n_tasks_before == res_c.plan.n_tasks

    def test_merged(self, planar):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)

        def run(per_task):
            sim = Simulator(grid3.size)
            res = factor_3d(sf, tf, grid3, sim, numeric=True,
                            options=_width(per_task), merged=True)
            return sim, res

        res_c, _ = assert_equivalent(run, compare_factors=False)
        assert res_c.resilience is None

    def test_cholesky(self, spd):
        sf, tf = spd
        grid3 = ProcessGrid3D(2, 2, 2)

        def run(per_task):
            sim = Simulator(grid3.size)
            res = factor_3d(sf, tf, grid3, sim, numeric=True,
                            options=_width(per_task), backend="cholesky")
            return sim, res

        res_c, _ = assert_equivalent(run)
        assert res_c.resilience is None

    def test_fused_deps_point_backwards(self, planar):
        """The fuzzer's full-width units (run = one dispatch, deps = the
        members' edges leaving the run) still form a DAG in list order."""
        from repro.verify.fuzz import _plan3d_units
        sf, tf = planar
        plan3 = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), _opts())
        units, _ = _plan3d_units(plan3, runs=True)
        seen: set = set()
        for u in units:
            assert u.deps <= seen, "full-width unit has a forward dep"
            seen |= u.tids

    def test_full_width_cuts_dispatches_by_three(self):
        """The retired ``bench_compile`` bars, as deterministic
        assertions on its input (``grid2d_5pt(48)``, leaf 8, 2x2x8):
        full-width dispatches <= tasks / 3, ledgers equal at both widths."""
        A, geom = grid2d_5pt(48)
        sf = symbolic_factorize(A, geom, leaf_size=8)
        tf = greedy_partition(sf, 8)
        grid3 = ProcessGrid3D(2, 2, 8)
        plan3 = build_3d_plan(sf, tf, grid3, _opts())
        st = plan3.fusion_stats()
        assert st.n_tasks_before == plan3.n_tasks
        assert st.n_tasks_after * 3 <= st.n_tasks_before
        ledgers = []
        for per_task in (False, True):
            sim = Simulator(grid3.size)
            factor_3d(sf, tf, grid3, sim, numeric=False,
                      options=_width(per_task))
            ledgers.append(ledger_state(sim))
        assert ledgers[0] == ledgers[1]


class TestCompiledStatic:
    """The static analyzer holds on the array form — including its own
    non-vacuousness proof (the mutation self-test)."""

    def _plan_2d(self, planar) -> tuple:
        sf, _ = planar
        return build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(2, 3),
                               _opts()), sf

    def test_analyzer_clean_on_compiled_2d(self, planar):
        plan, sf = self._plan_2d(planar)
        report = analyze_plan(plan, sf)
        assert report.ok, report.summary()

    def test_analyzer_clean_on_compiled_3d(self, planar):
        sf, tf = planar
        plan3 = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), _opts())
        report = analyze_plan(plan3, sf)
        assert report.ok, report.summary()

    def test_analyzer_flags_tampered_cut_points(self, planar):
        """A run cut removed from the arrays (two kinds in one dispatch),
        or a task's slice of the event stream shifted, is an analyzer
        finding."""
        import dataclasses
        plan, sf = self._plan_2d(planar)
        A = plan.arrays
        ptr = A.ev_ptr.copy()
        ptr[1] += 1
        for cols in ({"runs": np.delete(A.runs, 1)}, {"ev_ptr": ptr}):
            bad = dataclasses.replace(
                plan, arrays=dataclasses.replace(A, **cols))
            assert "inconsistent-arrays" in analyze_plan(bad, sf).counts()

    def test_mutation_trips_race_detector(self, planar):
        """Dropping a dep edge and re-packing the task list into arrays
        must surface a race."""
        plan, sf = self._plan_2d(planar)
        mutated, desc = drop_dep_edge(plan, seed=3)
        report = analyze_plan(mutated, sf)
        assert not report.ok, f"analyzer missed mutation: {desc}"
        assert any(i.kind == "race" for i in report.issues), desc

    def test_fuzz_2d_compiled(self, planar):
        sf, _ = planar
        rep_u = fuzz_3d(sf, *one_layer(sf, 2, 3), numeric=True, n_orders=6)
        rep_c = fuzz_3d(sf, *one_layer(sf, 2, 3), numeric=True, n_orders=6,
                        runs=True)
        assert rep_c.ok, rep_c.summary()
        # Full-width runs serialize the single-grid pipeline into a chain,
        # so the identity order may be the only legal one here; the
        # load-bearing assertion is that the full-width canonical run
        # books the same ledgers as the width-1 one.
        assert rep_c.n_units < rep_u.n_units
        assert rep_c.canonical_ledger == rep_u.canonical_ledger

    def test_fuzz_3d_compiled(self, planar):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        rep_u = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=6)
        rep_c = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=6,
                        runs=True)
        assert rep_c.ok, rep_c.summary()
        assert rep_c.n_perturbed > 0, "3D full-width fuzz was vacuous"
        assert rep_c.canonical_ledger == rep_u.canonical_ledger


class TestCompileGating:
    def test_faults_disable_compile(self, planar):
        from repro.resilience import FaultPlan
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size)
        opts = _opts(fault_plan=FaultPlan.parse("slow:rank=0,factor=2"))
        res = factor_3d(sf, tf, grid3, sim, numeric=False, options=opts)
        assert res.resilience is not None


class TestFormatting:
    def test_compile_summary_renders(self, planar):
        sf, _ = planar
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(2, 3),
                               _opts())
        st = plan.fusion_stats()
        out = st.summary()
        assert f"{st.n_tasks_after} dispatches" in out
        assert f"{st.n_tasks_before} tasks" in out and "fused runs" in out

    def test_parallel_stats_render(self, planar):
        sf, tf = planar
        grid3 = ProcessGrid3D(2, 2, 4)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=True,
                        options=_opts(n_workers=2))
        out = format_parallel_stats(res)
        assert "workers" in out and "util" in out and "shipped" not in out
