"""Tests for :mod:`repro.verify`: static analyzer, fuzzer, oracles.

Covers the issue's acceptance criteria explicitly:

* the static analyzer reports **clean** on plans from all four drivers
  (LU 2D across its option points, LU 3D standard, merged, Cholesky)
  over the golden-ledger case matrix;
* the mutation self-test — deleting a dependency edge from a *real* plan
  — MUST trip the race detector (the analyzer is not vacuous);
* the schedule fuzzer replays seeded random legal topological orders per
  driver with bit-identical ledgers and factors within 1e-12; the fast
  subset runs in tier-1, the ≥25-order sweep under ``-m slow``;
* the conservation oracle reconciles the executed ledgers against the
  plan's static cost model and flags tampering;
* hypothesis property tests check analyzer-cleanliness, acyclicity and
  root-reachability over randomized small build configurations.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.comm.events import COMPUTE_KINDS
from repro.comm.simulator import CommError
from repro.comm.stream import EventStream
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.plan.arrays import PANEL_BCAST, PANEL_FACTOR, SCHUR_UPDATE
from repro.plan.build import build_3d_plan, build_grid_plan
from repro.plan.tasks import Plan3D
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.utils.ragged import csr_ptr
from repro.verify import (
    PlanVerificationError,
    VerificationError,
    analyze_plan,
    check_conservation,
    conservation_issues,
    drop_dep_edge,
    fuzz_3d,
    fuzz_solve,
    grid_task_accesses,
    ledger_state,
    verify_factors,
)
from tests.conftest import one_layer, plan_tasks, reassembled, width1_options
from tests.test_plan import planar_setup, spd_setup

OPTION_POINTS = {
    "default": {},
    "lookahead0": {"lookahead": 0},
    "sparse_bcast": {"sparse_bcast": True},
    # The golden row pinned with the deleted ``batched_schur=False`` loop.
    "unbatched": {},
}


@pytest.fixture(scope="module")
def lu2d_sf():
    A, geom = grid2d_5pt(12)
    return symbolic_factorize(A, geom, leaf_size=16)


@pytest.fixture(scope="module")
def planar4():
    return planar_setup(14, 16, 4)


@pytest.fixture(scope="module")
def planar2():
    return planar_setup(12, 16, 2)


@pytest.fixture(scope="module")
def spd4():
    return spd_setup(14, 16, 4)


@pytest.fixture(scope="module")
def spd2():
    return spd_setup(14, 16, 2)


@pytest.fixture(scope="module")
def brick2():
    A, g = grid3d_7pt(6)
    sf = symbolic_factorize(A, g, leaf_size=24)
    return sf, greedy_partition(sf, 2)


def _lu3d_plan(planar4):
    sf, tf = planar4
    return build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), FactorOptions(),
                         backend="lu", merged=False), sf


class TestStaticAnalyzer:
    """Analyzer verdicts over the golden case matrix (all four drivers)."""

    @pytest.mark.parametrize("label", sorted(OPTION_POINTS))
    def test_lu2d_option_points_clean(self, lu2d_sf, label):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3),
                               FactorOptions(**OPTION_POINTS[label]))
        report = analyze_plan(plan, lu2d_sf)
        assert report.ok, report.summary()
        assert report.n_pairs_checked > 0

    def test_lu3d_planar_clean(self, planar4):
        plan, sf = _lu3d_plan(planar4)
        report = analyze_plan(plan, sf)
        assert report.ok, report.summary()
        assert not report.race_check_skipped

    def test_lu3d_brick_clean(self, brick2):
        sf, tf = brick2
        plan = build_3d_plan(sf, tf, ProcessGrid3D(1, 2, 2),
                             FactorOptions(), backend="lu")
        assert analyze_plan(plan, sf).ok

    def test_merged_clean(self, planar4):
        sf, tf = planar4
        plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4),
                             FactorOptions(), backend="lu", merged=True)
        assert analyze_plan(plan, sf).ok

    def test_cholesky_clean(self, spd2):
        sf, tf = spd2
        plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 2),
                             FactorOptions(), backend="cholesky")
        assert analyze_plan(plan, sf).ok

    def test_race_check_size_cap(self, planar4):
        plan, sf = _lu3d_plan(planar4)
        report = analyze_plan(plan, sf, max_race_tasks=10)
        assert report.ok and report.race_check_skipped
        assert report.n_pairs_checked == 0


class TestMutationSelfTest:
    """Deleting a real dep edge MUST trip the race detector."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mutation_trips_race_3d(self, planar4, seed):
        plan, sf = _lu3d_plan(planar4)
        mutated, desc = drop_dep_edge(plan, seed=seed)
        report = analyze_plan(mutated, sf)
        assert not report.ok, f"{desc}: analyzer saw nothing"
        assert "race" in report.counts(), (desc, report.summary())

    @pytest.mark.parametrize("seed", range(5))
    def test_mutation_trips_race_2d(self, lu2d_sf, seed):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        mutated, desc = drop_dep_edge(plan, seed=seed)
        report = analyze_plan(mutated, lu2d_sf)
        assert "race" in report.counts(), (desc, report.summary())

    def test_mutation_raise_if_issues(self, lu2d_sf):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        mutated, _ = drop_dep_edge(plan)
        with pytest.raises(PlanVerificationError, match="race"):
            analyze_plan(mutated, lu2d_sf).raise_if_issues()


def _tampered(plan, **cols):
    """``plan`` (a grid plan) with primary columns replaced, re-assembled."""
    return dataclasses.replace(plan, arrays=reassembled(plan.arrays, **cols))


def _with_deps(plan, t: int, deps):
    """``plan`` with task ``t``'s dependencies replaced by ``deps``."""
    A = plan.arrays
    n_dep = np.diff(A.dep_ptr)
    n_dep[t] = len(deps)
    return _tampered(plan, dep_ptr=csr_ptr(n_dep), dep_idx=np.concatenate(
        [A.dep_idx[:A.dep_ptr[t]], np.asarray(deps, dtype=np.int64),
         A.dep_idx[A.dep_ptr[t + 1]:]]))


class TestSyntheticDefects:
    """Hand-planted defects of every other issue kind are detected."""

    def test_cycle_forward_edge(self, lu2d_sf):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        t = int(np.flatnonzero(plan.arrays.tid == 0)[0])
        bad = _with_deps(plan, t, [plan.arrays.tid[-1]])
        assert "cycle" in analyze_plan(bad, lu2d_sf).counts()

    def test_dangling_dep(self, lu2d_sf):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        t = int(np.flatnonzero(np.diff(plan.arrays.dep_ptr))[0])
        bad = _with_deps(plan, t, [99999])
        assert "cycle" in analyze_plan(bad, lu2d_sf).counts()

    def test_malformed_bcast_root(self, lu2d_sf):
        """A panel solve's broadcast over a communicator without its
        root."""
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        A = plan.arrays
        spec_kind = A.kind[np.repeat(np.arange(A.n_tasks), np.diff(A.bc_ptr))]
        s = int(np.flatnonzero(spec_kind == PANEL_BCAST)[0])
        root = int(A.bc_root[s])
        ranks = tuple(r for r in A.comms[A.bc_comm[s]] if r != root) \
            or (root + 1,)
        comm = A.bc_comm.copy()
        comm[s] = len(A.comms)
        bad = _tampered(plan, bc_comm=comm, comms=[*A.comms, ranks])
        assert "malformed-bcast" in analyze_plan(bad, lu2d_sf).counts()

    def test_rank_escape(self, lu2d_sf):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3), FactorOptions())
        owner = plan.arrays.owner.copy()
        owner[np.flatnonzero(plan.arrays.kind == PANEL_FACTOR)[0]] = 500
        report = analyze_plan(_tampered(plan, owner=owner), lu2d_sf)
        assert report.counts() == {"rank-escape": 1}
        assert "owner 500 outside grid span [0, 6)" in report.issues[0].message

    def test_schur_pair_rank_escape(self):
        """A Schur pair booked on a sibling grid's rank, with the level
        re-assembled and re-cut consistently: only the pair owners show
        it. So does a 2D grid plan's pair owner outside the grid."""
        A0, geom = grid2d_5pt(16)
        sf = symbolic_factorize(A0, geom, leaf_size=16)
        plan = build_3d_plan(sf, greedy_partition(sf, 4),
                             ProcessGrid3D(2, 2, 4), FactorOptions())
        step = plan.levels[0]
        A, (lo, hi) = step.arrays, step.grid_ptr[:2]
        t = lo + int(np.flatnonzero((A.kind[lo:hi] == SCHUR_UPDATE)
                                    & (np.diff(A.pair_ptr)[lo:hi] > 0))[0])
        owner = A.pair_owner.copy()
        owner[A.pair_ptr[t]] = step.grid_plans[1].base
        arrays = reassembled(A, pair_owner=owner)
        cuts = step.grid_ptr.tolist()
        bad = dataclasses.replace(plan, levels=[dataclasses.replace(
            step, arrays=arrays, grid_plans=[
                dataclasses.replace(gp, arrays=(arrays, a, b))
                for gp, a, b in zip(step.grid_plans, cuts, cuts[1:])]),
            *plan.levels[1:]])
        report = analyze_plan(bad, sf)
        assert report.counts() == {"rank-escape": 1}, report.summary()
        assert f"task {A.tid[t]} (schur_update) pair owners [4]" in \
            report.issues[0].message
        gp = build_grid_plan(sf, range(sf.nb), ProcessGrid2D(2, 3))
        owner = gp.arrays.pair_owner.copy()
        owner[0] = 500
        assert analyze_plan(_tampered(gp, pair_owner=owner), sf).counts() \
            == {"rank-escape": 1}

    def test_reduce_alias_standard(self, planar4):
        plan, sf = _lu3d_plan(planar4)
        levels = list(plan.levels)
        li, step = next((li, s) for li, s in enumerate(levels) if s.reduces)
        red = step.reduces[0]
        bad_red = dataclasses.replace(red, dst_grid=red.src_grid)
        levels[li] = dataclasses.replace(step, reduces=[bad_red])
        bad = Plan3D(backend=plan.backend, merged=plan.merged, levels=levels)
        assert "reduce-alias" in analyze_plan(bad, sf).counts()

    def test_reduce_alias_merged_self_move(self, planar4):
        sf, tf = planar4
        plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4),
                             FactorOptions(), backend="lu", merged=True)
        levels = list(plan.levels)
        li, step = next((li, s) for li, s in enumerate(levels) if s.reduces)
        red = step.reduces[0]
        bad_red = dataclasses.replace(   # one more message: a move 3 -> 3
            red, srcs=np.append(red.srcs, 3), dsts=np.append(red.dsts, 3),
            words=np.append(red.words, 10.0), adds=np.append(red.adds, False))
        levels[li] = dataclasses.replace(step, reduces=[bad_red])
        bad = Plan3D(backend=plan.backend, merged=plan.merged, levels=levels)
        assert "reduce-alias" in analyze_plan(bad, sf).counts()

    def test_unmatched_reduce_arrays(self, planar4):
        plan, sf = _lu3d_plan(planar4)
        levels = list(plan.levels)
        li, step = next((li, s) for li, s in enumerate(levels) if s.reduces)
        red = step.reduces[0]
        bad_red = dataclasses.replace(red, srcs=red.srcs[:-1])
        levels[li] = dataclasses.replace(step, reduces=[bad_red])
        bad = Plan3D(backend=plan.backend, merged=plan.merged, levels=levels)
        counts = analyze_plan(bad, sf).counts()
        assert "malformed-reduce" in counts

    def test_retired_source_reused(self, planar4):
        plan, sf = _lu3d_plan(planar4)
        levels = list(plan.levels)
        # retire grids at the first reducing level, then point a later
        # reduce at one of them
        first = next(li for li, s in enumerate(levels) if s.reduces)
        retired = levels[first].reduces[0].src_grid
        later = next(li for li in range(first + 1, len(levels))
                     if levels[li].reduces)
        red = levels[later].reduces[0]
        bad_red = dataclasses.replace(red, src_grid=retired)
        levels[later] = dataclasses.replace(levels[later],
                                            reduces=[bad_red])
        bad = Plan3D(backend=plan.backend, merged=plan.merged, levels=levels)
        assert "reduce-alias" in analyze_plan(bad, sf).counts()


class TestAnalyzerGolden:
    """``golden_analyzer.json`` was written at ``a871862``, when the
    analyzer read a typed record per grid task and packed the records back
    into arrays to compare them: reading the columns instead must give
    every zoo plan, and every mutant of the self-test, the same verdict
    (the file's readme lists the intended regenerations since). Every zoo
    plan is clean — among them, every L-block writer precedes its node's
    factor (:class:`TestFoldIsLegal`) — and every mutant races."""

    def test_regenerating_rewrites_the_file_byte_for_byte(self, monkeypatch):
        from repro.plan import build
        from tests.data.regen_analyzer import OUT, case_record, render
        from tests.data.regen_plan_arrays import cases
        monkeypatch.setattr(build, "POST_BUILD_HOOK", None)  # 301 plans
        records = {name: case_record(name, make()) for name, make in cases()}
        assert len(records) == 301
        assert sum(len(r.get("drop_dep_edge", ()))
                   for r in records.values()) == 90
        assert not any(r["counts"] for r in records.values())
        assert all("race" in counts for r in records.values()
                   for _desc, counts in r.get("drop_dep_edge", ()))
        assert render(records) == OUT.read_text()


class TestFoldIsLegal:
    """A node's factor op solves its L panel (the L-panel solve tasks bind
    no op), so the access model has ``PANEL_FACTOR(k)`` write every L
    block of ``k`` and an L-panel task only read (send) its block: the
    analyzer then checks, on every plan it sees, that everything writing
    an L block is done before the factor. Its clean verdict on all 301
    zoo plans is pinned by ``TestAnalyzerGolden``."""

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_the_factor_task_writes_its_l_panel(self, planar4, spd4,
                                                backend):
        sf, _tf = spd4 if backend == "cholesky" else planar4
        for k in range(sf.nb):
            lp = sf.fill.lpanel[k].tolist()
            assert grid_task_accesses(backend, sf, PANEL_FACTOR, k, k, k) \
                == [(i, k, "W") for i in [k, *lp]]
            for i in lp:
                assert grid_task_accesses(backend, sf, PANEL_BCAST, k, i,
                                          k) == [(i, k, "R")]

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_dropping_a_writer_edge_is_a_race(self, planar4, spd4, backend,
                                              monkeypatch):
        """Drop the edge by which a task of node ``k`` waits for the first
        Schur task ``j`` that writes an L block of ``k`` — fed to
        :func:`drop_dep_edge` as its one candidate: the analyzer reports
        the factor of ``k`` and ``j`` racing on such a block."""
        from repro.verify import static
        sf, tf = spd4 if backend == "cholesky" else planar4
        plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4), FactorOptions(),
                             backend=backend)
        assert analyze_plan(plan, sf).ok
        lp = sf.fill.lpanel
        up = lp if backend == "cholesky" else sf.fill.upanel
        for li, step in enumerate(plan.levels):
            A = step.arrays
            if not step.grid_plans:
                continue
            for e, (d, k) in enumerate(zip(
                    A.dep_idx.tolist(),
                    np.repeat(A.node, np.diff(A.dep_ptr)).tolist())):
                t = d - int(A.tid[0])
                if 0 <= t < A.n_tasks and A.kind[t] == SCHUR_UPDATE:
                    j = int(A.node[t])
                    if k in up[j].tolist() and lp[j].max() > k:
                        break
            else:
                continue
            break
        monkeypatch.setattr(static, "_race_edge_candidates",
                            lambda _plan: [(li, e)])
        mutated, _desc = drop_dep_edge(plan)
        factor = int(A.tid[(A.kind == PANEL_FACTOR) & (A.node == k)][0])
        races = [iss for iss in analyze_plan(mutated, sf).issues
                 if iss.kind == "race" and set(iss.tids) == {factor, d}]
        assert any(f", {k})" in iss.message and f", {k}, {k})" not in
                   iss.message for iss in races), races


class TestEventConstants:
    """The centralized event vocabulary is enforced at record time."""

    def test_trace_rejects_unknown_kind(self):
        from repro.analysis.trace import Trace
        with pytest.raises(ValueError, match="unknown trace event kind"):
            Trace().record(0, 0.0, 1.0, "gemm", "fact")

    def test_trace_rejects_unknown_phase(self):
        from repro.analysis.trace import Trace
        with pytest.raises(ValueError, match="unknown trace event phase"):
            Trace().record(0, 0.0, 1.0, "schur", "warmup")

    def test_simulator_reexports_are_the_canonical_objects(self):
        from repro.comm import events, simulator
        assert simulator.COMPUTE_KINDS is events.COMPUTE_KINDS
        assert simulator.PHASES is events.PHASES
        assert set(events.COMPUTE_KINDS) < set(events.TRACE_KINDS)

    def test_simulator_rejects_unknown_vocab(self):
        sim = Simulator(2, Machine.edison_like())
        with pytest.raises(CommError):
            sim.set_phase("warmup")
        ev = EventStream.pairs([0], [1], [1.0], "reduce_add")
        ev.kind[1] = len(COMPUTE_KINDS)         # no such compute kind
        with pytest.raises(CommError, match="kind"):
            sim.book(ev)


FAST_FUZZ = 4   # orders per driver in tier-1
FULL_FUZZ = 25  # orders per driver under -m slow


class TestFuzzer:
    """Fast per-driver subset (tier-1)."""

    def test_lu3d(self, planar2):
        sf, tf = planar2
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2),
                      n_orders=FAST_FUZZ, seed=11)
        assert rep.ok, rep.summary()
        assert rep.n_perturbed > 0

    def test_lu3d_numeric(self, planar2):
        sf, tf = planar2
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), numeric=True,
                      n_orders=FAST_FUZZ, seed=3)
        assert rep.ok, rep.summary()
        assert rep.factor_max_dev <= 1e-12

    def test_merged_numeric(self, planar2):
        sf, tf = planar2
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), merged=True,
                      numeric=True, n_orders=FAST_FUZZ, seed=5)
        assert rep.ok, rep.summary()
        assert rep.factor_max_dev == 0.0

    def test_merged_is_lu_only(self, planar2):
        """The merged variant has no Cholesky plan: asking for one is
        refused, not fuzzed as LU under another name."""
        sf, tf = planar2
        with pytest.raises(ValueError, match="LU only"):
            fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), merged=True,
                    backend="cholesky", n_orders=0)

    def test_cholesky(self, spd2):
        sf, tf = spd2
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), backend="cholesky",
                      n_orders=FAST_FUZZ, seed=7)
        assert rep.ok, rep.summary()
        assert rep.n_perturbed > 0

    def test_lu2d(self, lu2d_sf):
        rep = fuzz_3d(lu2d_sf, *one_layer(lu2d_sf, 2, 3), n_orders=FAST_FUZZ,
                      seed=13)
        assert rep.ok, rep.summary()

    def test_identity_order_matches_driver(self, planar2):
        """The fuzzer's canonical run IS the driver's run, bit for bit."""
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, sim, numeric=True)
        rep = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=1, seed=0)
        assert rep.canonical_ledger == ledger_state(sim)

    def test_identity_order_matches_driver_2d(self, lu2d_sf):
        tf, grid3 = one_layer(lu2d_sf, 2, 3)
        sim = Simulator(grid3.size, Machine.edison_like())
        factor_3d(lu2d_sf, tf, grid3, sim, numeric=False)
        rep = fuzz_3d(lu2d_sf, tf, grid3, n_orders=1, seed=0)
        assert rep.canonical_ledger == ledger_state(sim)


@pytest.mark.parametrize("full", [False, True], ids=["width1", "fullwidth"])
@pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
class TestVerifyStackBothVolumes:
    """Analyzer + fuzz + conservation on every driver shape, in dense and
    compact block pricing, walked task by task and at full width — what a
    second whole-suite pass under an environment switch used to cover."""

    DRIVERS = {"lu": {}, "merged": {"merged": True},
               "cholesky": {"backend": "cholesky"}}

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_3d(self, planar2, spd2, driver, compact, full):
        sf, tf = spd2 if driver == "cholesky" else planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        opts = FactorOptions(compact_comm=compact)
        kw = self.DRIVERS[driver]
        plan = build_3d_plan(sf, tf, grid3, opts, **kw)
        report = analyze_plan(plan, sf)
        assert report.ok and report.n_pairs_checked > 0, report.summary()
        rep = fuzz_3d(sf, tf, grid3, n_orders=FAST_FUZZ, seed=17,
                      options=opts, runs=full, numeric=True, **kw)
        assert rep.ok, rep.summary()
        # The fuzzer's canonical run at this width is the driver's run
        # (plain options: full width; a resilience monitor: width 1), and
        # that run conserves against the plan's static cost model.
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=True, **kw,
                        options=opts if full else width1_options(opts))
        assert (res.resilience is None) == full
        assert ledger_state(sim) == rep.canonical_ledger
        check_conservation(sim, res.plan)

    def test_2d(self, lu2d_sf, compact, full):
        opts = FactorOptions(compact_comm=compact)
        grid = ProcessGrid2D(2, 3)
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb), grid, opts)
        assert analyze_plan(plan, lu2d_sf).ok
        tf, grid3 = one_layer(lu2d_sf, 2, 3)
        rep = fuzz_3d(lu2d_sf, tf, grid3, n_orders=FAST_FUZZ, seed=19,
                      options=opts, runs=full)
        assert rep.ok, rep.summary()
        sim = Simulator(grid.size, Machine.edison_like())
        res = factor_3d(lu2d_sf, tf, grid3, sim, numeric=False, options=opts)
        assert ledger_state(sim) == rep.canonical_ledger
        check_conservation(sim, res.plan)

    def test_mutation_still_trips_the_race_detector(self, lu2d_sf, compact,
                                                    full):
        plan = build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                               ProcessGrid2D(2, 3),
                               FactorOptions(compact_comm=compact))
        mutated, desc = drop_dep_edge(plan, seed=int(full))
        assert "race" in analyze_plan(mutated, lu2d_sf).counts(), desc


@pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
@pytest.mark.parametrize("backend", ["lu", "cholesky"])
class TestOneProgramAnyWalk:
    """Every walk executes slices of one list of per-block ops — one per
    task, one per Schur pair — so the factors are *bit*-equal across walk
    widths, legal task orders and the grid threads."""

    def runs(self, sf, tf, backend, compact, matrix):
        grid3 = ProcessGrid3D(2, 2, 2)
        opts = FactorOptions(compact_comm=compact)
        out = {}
        for name, o in (("fullwidth", opts), ("width1", width1_options(opts)),
                        ("pool", dataclasses.replace(opts, n_workers=2))):
            res = factor_3d(sf, tf, grid3, Simulator(grid3.size),
                            backend=backend, matrix=matrix, options=o)
            assert (res.resilience is None) == (name != "width1")
            if name == "pool":
                assert res.parallel_stats and not any(
                    hasattr(st, "reason") for st in res.parallel_stats)
            out[name] = (res.factors().to_dense(), res.perturbed_pivots)
        return out

    def test_factors_bit_equal(self, planar2, spd2, backend, compact):
        sf, tf = spd2 if backend == "cholesky" else planar2
        matrix = sp.tril(sf.A_perm).tocsr() if backend == "cholesky" else None
        out = self.runs(sf, tf, backend, compact, matrix)
        want, n_perturbed = out.pop("fullwidth")
        assert n_perturbed == 0
        for name, (F, n) in out.items():
            assert np.array_equal(F, want) and n == 0, name
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), backend=backend,
                      numeric=True, n_orders=FAST_FUZZ, seed=23,
                      options=FactorOptions(compact_comm=compact))
        assert rep.ok and rep.n_perturbed > 0, rep.summary()
        assert rep.factor_max_dev == 0.0

    def test_planted_tiny_pivot_counted_alike(self, planar2, spd2, backend,
                                              compact):
        """A sub-threshold pivot takes ``getrf_nopiv`` off LAPACK's answer
        and onto the GESP loop (a decoupled zero pivot takes
        ``potrf_shifted`` through a shift): same count, same factors, on
        every walk."""
        sf, tf = spd2 if backend == "cholesky" else planar2
        M = sf.A_perm.tolil(copy=True)
        if backend == "cholesky":
            M[0, :] = 0.0
            M[:, 0] = 0.0
            M = sp.tril(M.tocsr()).tocsr()
        else:
            M[0, 0] = 1e-14
            M = M.tocsr()
        out = self.runs(sf, tf, backend, compact, M)
        want, n_perturbed = out.pop("fullwidth")
        assert n_perturbed > 0 and np.isfinite(want).all()
        for name, (F, n) in out.items():
            assert np.array_equal(F, want) and n == n_perturbed, name


def per_grid_walk(sf, tf, grid3, opts, *, backend="lu", merged=False,
                  numeric=True, matrix=None):
    """The walk the level walk replaced: every grid *slice* at full width,
    one after the other, and every reduce booked on its own — through the
    drivers' own plan bundle, storage charge and data binding. Returns
    ``(sim, dense factors or None, plan)``."""
    from repro.lu3d.factor3d import Factor3DResult, _bind_data
    from repro.plan import PlanBundle, execute_grid_plan, execute_reduce
    bundle = PlanBundle.build(sf, tf, grid3, opts, backend=backend,
                              merged=merged)
    sim = Simulator(grid3.size)
    sim.alloc_batch(np.arange(grid3.size),
                    bundle.replica_words(sf, tf, grid3))
    result = Factor3DResult(tf=tf)
    data = _bind_data(sf, tf, result, bundle, numeric=numeric,
                      matrix=matrix, replicas=None)
    for step in bundle.plan3.levels:
        sim.set_phase("fact")
        for gp in step.grid_plans:
            execute_grid_plan(gp, sim, options=opts, prog=data.program(gp))
        sim.set_phase("red")
        for red in step.reduces:
            execute_reduce(red, sim, accumulate=data.accumulate)
    sim.set_phase("fact")
    F = result.factors().to_dense() if numeric else None
    return sim, F, bundle.plan3


@pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
@pytest.mark.parametrize("variant", ["lu", "cholesky", "merged"])
class TestOneWalkAnyWidthAnyGrouping:
    """The level walk (one dispatch + one booking per level, one per level's
    reduces), the per-grid walk over slices, the width-1 walk, a
    fuzzer-permuted legal order and the 2-thread fan-out book one
    ``ledger_state`` and produce ``array_equal`` factors; the plan's
    reduction (one ``add`` per level) is that ledger per rank, exactly."""

    def setup(self, variant, planar4, spd4):
        sf, tf = spd4 if variant == "cholesky" else planar4
        kw = {"backend": "cholesky"} if variant == "cholesky" else \
            {"merged": True} if variant == "merged" else {}
        fn = partial(factor_3d, **kw)
        matrix = sp.tril(sf.A_perm).tocsr() if variant == "cholesky" else None
        return sf, tf, fn, kw, matrix

    def test_ledgers_and_factors(self, planar4, spd4, variant, compact):
        sf, tf, fn, kw, matrix = self.setup(variant, planar4, spd4)
        grid3 = ProcessGrid3D(2, 2, 4)
        opts = FactorOptions(compact_comm=compact)

        def dense(res):
            return res.factors().to_dense()

        sim = Simulator(grid3.size)
        res = fn(sf, tf, grid3, sim, numeric=True, options=opts)
        want, F = ledger_state(sim), dense(res)
        assert max(len(s.grid_plans) for s in res.plan.levels) == 4
        check_conservation(sim, res.plan)       # volume() == booked, per rank

        sim_g, F_g, _plan = per_grid_walk(sf, tf, grid3, opts, matrix=matrix,
                                          **kw)
        assert ledger_state(sim_g) == want and np.array_equal(F_g, F)

        sim_1 = Simulator(grid3.size)
        res_1 = fn(sf, tf, grid3, sim_1, numeric=True,
                   options=width1_options(opts))
        assert res_1.resilience is not None
        assert ledger_state(sim_1) == want and np.array_equal(dense(res_1), F)

        rep = fuzz_3d(sf, tf, grid3, numeric=True, n_orders=2, seed=29,
                      options=opts, runs=True, machine=sim.machine, **kw)
        assert rep.ok and rep.n_perturbed > 0, rep.summary()
        assert rep.canonical_ledger == want
        assert rep.factor_max_dev == 0.0

        sim_p = Simulator(grid3.size)
        res_p = fn(sf, tf, grid3, sim_p, numeric=True,
                   options=dataclasses.replace(opts, n_workers=2))
        # Every variant fans its levels out, merged included.
        assert not any(hasattr(st, "reason") for st in res_p.parallel_stats)
        assert ledger_state(sim_p) == want and np.array_equal(dense(res_p), F)

    def test_analyzer_sees_slices_and_level_arrays(self, planar4, spd4,
                                                   variant, compact):
        """Clean on the built plan; the mutation self-test trips the race
        detector with level and slices still agreeing; a level or a slice
        tampered on its own is an ``inconsistent-arrays`` finding."""
        sf, tf, _fn, kw, _m = self.setup(variant, planar4, spd4)
        plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 4),
                             FactorOptions(compact_comm=compact), **kw)
        assert analyze_plan(plan, sf).ok
        step = plan.levels[0]
        assert len(step.grid_plans) == 4 and step.grid_ptr.size == 5
        for gp, lo, hi in zip(step.grid_plans, step.grid_ptr,
                              step.grid_ptr[1:]):
            assert np.shares_memory(gp.arrays.ev_val, step.arrays.ev_val)
            assert gp.arrays.comms is step.arrays.comms
            assert gp.arrays.tid.tolist() == step.arrays.tid[lo:hi].tolist()
            assert {lo, hi} <= set(step.arrays.runs.tolist())
        for seed in range(3):
            mutated, desc = drop_dep_edge(plan, seed=seed)
            counts = analyze_plan(mutated, sf).counts()
            assert "race" in counts and "inconsistent-arrays" not in counts, \
                desc

        def issues(bad_step):
            bad = dataclasses.replace(plan, levels=[bad_step, *plan.levels[1:]])
            return [i.message for i in analyze_plan(bad, sf).issues
                    if i.kind == "inconsistent-arrays"]

        level_only = dataclasses.replace(step, arrays=dataclasses.replace(
            step.arrays, ev_val=step.arrays.ev_val * 2.0))
        assert issues(level_only) and all(
            m.startswith("level ") for m in issues(level_only))
        gp = step.grid_plans[1]
        slice_only = dataclasses.replace(step, grid_plans=[
            step.grid_plans[0],
            dataclasses.replace(gp, arrays=dataclasses.replace(
                gp.arrays, ev_val=gp.arrays.ev_val * 2.0)),
            *step.grid_plans[2:]])
        assert any(m.startswith("grid ") for m in issues(slice_only))
        one_short = dataclasses.replace(step, grid_plans=step.grid_plans[1:])
        assert issues(one_short) == [
            f"level {step.level}: 3 grid plans, 5 cut points"]


class TestDegenerateLevels:
    """A level with no grid plan, and the plan of one level and one grid."""

    @pytest.mark.parametrize("numeric", [False, True])
    def test_levels_without_a_grid_plan(self, numeric):
        """One supernode on four layers: its level holds the only grid
        plan, the two above hold none (and no reduce: nothing to sum)."""
        A, geom = grid2d_5pt(3)
        sf = symbolic_factorize(A, geom, leaf_size=64)
        tf = greedy_partition(sf, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size)
        res = factor_3d(sf, tf, grid3, sim, numeric=numeric)
        assert [len(s.grid_plans) for s in res.plan.levels] == [1, 0, 0]
        assert [s.arrays is None for s in res.plan.levels] == \
            [False, True, True]
        assert not any(s.reduces for s in res.plan.levels)
        assert analyze_plan(res.plan, sf).ok
        check_conservation(sim, res.plan)
        sim_g, F_g, _ = per_grid_walk(sf, tf, grid3, FactorOptions(),
                                      numeric=numeric)
        sim_1 = Simulator(grid3.size)
        res_1 = factor_3d(sf, tf, grid3, sim_1, numeric=numeric,
                          options=width1_options())
        assert ledger_state(sim) == ledger_state(sim_g) == ledger_state(sim_1)
        if numeric:
            F = res.factors().to_dense()
            assert np.array_equal(F, F_g)
            assert np.array_equal(F, res_1.factors().to_dense())
            assert verify_factors(F, sf.A_perm) < 1e-12

    def test_pz1_is_one_level_of_one_grid(self, lu2d_sf):
        """The level's arrays *are* its only grid plan's, and they are the
        standalone 2D builder's, column for column."""
        from tests.test_arrays import assert_arrays_equal
        tf = greedy_partition(lu2d_sf, 1)
        grid3 = ProcessGrid3D(2, 3, 1)
        sim = Simulator(grid3.size)
        res = factor_3d(lu2d_sf, tf, grid3, sim, numeric=True)
        (step,) = res.plan.levels
        (gp,) = step.grid_plans
        assert gp.arrays is step.arrays and step.grid_ptr.tolist() == \
            [0, gp.n_tasks]
        assert_arrays_equal(gp.arrays, build_grid_plan(
            lu2d_sf, range(lu2d_sf.nb), ProcessGrid2D(2, 3)).arrays)
        sim_g, F_g, _ = per_grid_walk(lu2d_sf, tf, grid3, FactorOptions())
        assert ledger_state(sim) == ledger_state(sim_g)
        assert np.array_equal(res.factors().to_dense(), F_g)
        check_conservation(sim, res.plan)


@pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
class TestVerifyStackOnSolvePlans:
    """Analyzer, mutation self-test, conservation (reduction == walk) and
    schedule fuzz on the solve plans of the LU, transposed and Cholesky
    solves, in both block-pricing modes."""

    #: name -> (facade, sweeps attribute, solve method)
    SOLVES = {"lu": ("lu", "sweeps", "solve"),
              "transposed": ("lu", "transposed_sweeps", "solve_transposed"),
              "cholesky": ("cholesky", "sweeps", "solve")}
    NRHS = 3

    @pytest.fixture(scope="class")
    def solvers(self):
        from repro.cholesky import SparseCholesky3D
        from repro.solve import SparseLU3D
        A, geom = grid2d_5pt(12)
        S = (A + A.T + 20 * sp.eye(A.shape[0])).tocsr()
        return {(name, compact): cls(
                    M, geometry=geom, px=2, py=2, pz=2, leaf_size=16,
                    options=FactorOptions(compact_comm=compact)).factorize()
                for name, cls, M in (("lu", SparseLU3D, A),
                                     ("cholesky", SparseCholesky3D, S))
                for compact in (False, True)}

    @pytest.mark.parametrize("kind", sorted(SOLVES))
    def test_solve_plans(self, solvers, kind, compact):
        facade, sweeps_attr, method = self.SOLVES[kind]
        s = solvers[facade, compact].factorize()    # fresh simulator
        sweeps = getattr(s, sweeps_attr)
        plans = s.solve_plans(sweeps)
        for seed, plan in enumerate(plans):
            report = analyze_plan(plan, s.sf)
            assert report.ok and report.n_pairs_checked > 0, report.summary()
            mutated, desc = drop_dep_edge(plan, seed=seed)
            assert "race" in analyze_plan(mutated, s.sf).counts(), desc
        # Reduction == walk, per rank and exactly, factorization included.
        b = np.random.default_rng(5).standard_normal((s.A.shape[0],
                                                      self.NRHS))
        getattr(s, method)(b)
        n_sweeps = 1 if kind == "transposed" \
            else 1 + s.last_refinement.iterations
        solves = [(p, self.NRHS) for p in plans] * n_sweeps
        check_conservation(s.sim, s.result.plan, solves)
        assert conservation_issues(s.sim, None, solves) == []
        assert conservation_issues(s.sim, None, solves[1:])
        for p in plans:
            vol = p.volume(s.grid.size, self.NRHS)
            assert vol.event_counts["send"] == int(vol.msgs_sent["solve"].sum())
        # Random legal task orders: volume ledgers exact, x to 1e-12.
        bp = s.sf.perm.apply_vector(b)
        for plan, (_down, _lower, unit) in zip(plans, sweeps):
            rep = fuzz_solve(plan, s.sf, s.result.replicas.home_view(), bp, s.grid.size,
                             unit=unit, n_orders=FAST_FUZZ, seed=23)
            assert rep.ok and rep.n_perturbed > 0, rep.summary()
            assert rep.canonical_ledger["flops:solve"] == \
                plan.volume(s.grid.size, self.NRHS).flops["solve"].tolist()

    def test_broken_stream_and_forward_edge_are_reported(self, solvers,
                                                         compact):
        plan = solvers["lu", compact].solve_plans()[0]
        bad = dataclasses.replace(plan, ev_ptr=plan.ev_ptr[:-1])
        assert "inconsistent-arrays" in analyze_plan(bad, None).counts()
        dep_idx = plan.dep_idx.copy()
        dep_idx[0] = plan.n_tasks - 1
        bad = dataclasses.replace(plan, dep_idx=dep_idx)
        assert "cycle" in analyze_plan(bad, None).counts()


@pytest.mark.slow
class TestFuzzerSweep:
    """Full ≥25-order sweeps per driver on the golden-size cases."""

    def test_lu3d_pz4(self, planar4):
        sf, tf = planar4
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 4),
                      n_orders=FULL_FUZZ, seed=0)
        assert rep.ok and rep.n_orders == FULL_FUZZ, rep.summary()
        assert rep.n_perturbed > 0

    def test_lu3d_pz4_numeric(self, planar4):
        sf, tf = planar4
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 4), numeric=True,
                      n_orders=FULL_FUZZ, seed=1)
        assert rep.ok, rep.summary()

    def test_merged_pz4_numeric(self, planar4):
        sf, tf = planar4
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 4), merged=True,
                      numeric=True, n_orders=FULL_FUZZ, seed=2)
        assert rep.ok, rep.summary()

    def test_cholesky_pz2_numeric(self, spd2):
        sf, tf = spd2
        rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), backend="cholesky",
                      numeric=True, n_orders=FULL_FUZZ, seed=3)
        assert rep.ok, rep.summary()

    def test_lu2d_sweep(self, lu2d_sf):
        rep = fuzz_3d(lu2d_sf, *one_layer(lu2d_sf, 2, 3), numeric=True,
                      n_orders=FULL_FUZZ, seed=4)
        assert rep.ok, rep.summary()


class TestOracle:
    def test_conservation_clean_lu3d(self, planar2):
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=True)
        assert conservation_issues(sim, res.plan) == []
        check_conservation(sim, res.plan)

    def test_conservation_clean_merged(self, planar2):
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False, merged=True)
        assert conservation_issues(sim, res.plan) == []

    def test_tampered_ledger_detected(self, planar2):
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False)
        sim.words_sent["fact"][0] += 5.0
        issues = conservation_issues(sim, res.plan)
        assert issues
        with pytest.raises(VerificationError):
            check_conservation(sim, res.plan)

    def test_tampered_flops_detected(self, planar2):
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False)
        sim.flops["schur"][1] += 1000.0
        assert any("flops[schur]" in m
                   for m in conservation_issues(sim, res.plan))

    def test_lu_factors_against_dense_reference(self, planar2):
        sf, tf = planar2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=True)
        err = verify_factors(res.factors().to_dense(), sf.A_perm, "lu")
        assert err < 1e-10

    def test_cholesky_factors_against_scipy(self, spd2):
        sf, tf = spd2
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=True, backend="cholesky")
        err = verify_factors(res.factors().to_dense(), sf.A_perm,
                             "cholesky")
        assert err < 1e-10

    def test_wrong_factors_rejected(self, planar2):
        sf, _tf = planar2
        n = sf.A_perm.shape[0]
        with pytest.raises(VerificationError):
            verify_factors(np.eye(n), sf.A_perm, "lu")


class TestBuilderHook:
    """POST_BUILD_HOOK fires for standalone grid plans and 3D plans."""

    def test_hook_sees_built_plans(self, lu2d_sf, planar2):
        from repro.plan import build
        seen = []
        prev = build.POST_BUILD_HOOK
        build.POST_BUILD_HOOK = lambda plan, sf: seen.append(type(plan))
        try:
            build_grid_plan(lu2d_sf, range(lu2d_sf.nb),
                            ProcessGrid2D(2, 3), FactorOptions())
            sf, tf = planar2
            build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 2), FactorOptions(),
                          backend="lu")
        finally:
            build.POST_BUILD_HOOK = prev
        assert [t.__name__ for t in seen] == ["GridPlan", "Plan3D"]

    def test_hook_sees_solve_plans(self, planar2):
        from repro.plan import build
        from repro.plan.solve import build_solve_plan
        sf, _tf = planar2
        seen = []
        prev = build.POST_BUILD_HOOK
        build.POST_BUILD_HOOK = lambda plan, sf: seen.append(type(plan))
        try:
            build_solve_plan(sf, lambda k: ProcessGrid2D(2, 2), True, True)
        finally:
            build.POST_BUILD_HOOK = prev
        assert [t.__name__ for t in seen] == ["SolvePlan"]

    def test_suite_hook_is_installed(self):
        from repro.plan import build
        assert build.POST_BUILD_HOOK is not None


class TestCliVerifyPlan:
    @pytest.fixture()
    def mtx(self, tmp_path):
        from repro.cli import main
        path = tmp_path / "m.mtx"
        assert main(["generate", "--kind", "grid2d_5pt", "--size", "16",
                     "--out", str(path)]) == 0
        return path

    def test_clean_run(self, mtx, capsys):
        from repro.cli import main
        rc = main(["solve", str(mtx), "--grid", "16,16", "--px", "2",
                   "--py", "2", "--pz", "2", "--verify-plan"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan verification" in out and "clean" in out
        assert out.count("solve plan verification") == 2
        assert "ledger conservation: clean" in out
        assert "solve sweeps included" in out

    def test_faulted_run_skips_conservation(self, mtx, capsys):
        from repro.cli import main
        rc = main(["solve", str(mtx), "--grid", "16,16", "--px", "2",
                   "--py", "2", "--pz", "2", "--verify-plan",
                   "--faults", "drop:src=0,count=2",
                   "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert "ledger conservation: skipped" in out
        assert "plan verification" in out
        assert rc in (0, 1)  # residual may degrade under retransmission


# -- hypothesis property tests ---------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from tests.conftest import plan_cases  # noqa: E402

_PROP_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


def _build_from_case(case):
    if case["pz"] == 1:
        return build_grid_plan(
            case["sf"], range(case["sf"].nb),
            ProcessGrid2D(case["px"], case["py"]), case["opts"],
            backend=case["backend"])
    return build_3d_plan(
        case["sf"], case["tf"],
        ProcessGrid3D(case["px"], case["py"], case["pz"]), case["opts"],
        backend="lu" if case["merged"] else case["backend"],
        merged=case["merged"])


class TestPlanProperties:
    @_PROP_SETTINGS
    @given(case=plan_cases())
    def test_random_plans_analyze_clean(self, case):
        plan = _build_from_case(case)
        report = analyze_plan(plan, case["sf"])
        assert report.ok, report.summary()

    @_PROP_SETTINGS
    @given(case=plan_cases())
    def test_deps_acyclic_and_backward(self, case):
        tasks = list(plan_tasks(_build_from_case(case)))
        tids = {tid for tid, _deps, _kind in tasks}
        assert len(tids) == len(tasks)  # unique
        for tid, deps, _kind in tasks:
            for d in deps:
                assert d in tids and d < tid

    @_PROP_SETTINGS
    @given(case=plan_cases())
    def test_every_task_reachable_from_roots(self, case):
        """Forward reachability: every non-root task is reachable from a
        panel root or a LevelBarrier (the DAG has no orphaned islands)."""
        tasks = sorted(plan_tasks(_build_from_case(case)))
        roots = {tid for tid, deps, kind in tasks
                 if not deps and kind in ("panel_factor", "level_barrier",
                                          "ancestor_reduce")}
        reached = set(roots)
        for tid, deps, _kind in tasks:
            if tid in reached:
                continue
            if any(d in reached for d in deps):
                reached.add(tid)
        missing = [tid for tid, _deps, _kind in tasks if tid not in reached]
        assert not missing, f"unreachable tasks: {missing[:10]}"
