"""The array form of grid plans (:mod:`repro.plan.arrays`).

Pins what makes one plan form safe:

* the arrays are one form — ``assemble`` over a plan's primary columns
  reproduces every derived one, and ``PlanStats`` over the arrays equals
  the numbers the pre-array typed builder produced
  (``golden_planstats.json``);
* booking a plan's event stream on a plain ``Simulator`` — whole, per run,
  per task, in a permuted legal order — equals the same plan issued event
  by event, and ``volume()`` equals the walked ledger per rank, over
  random build configurations in dense and compact pricing (hypothesis);
* ``alloc_batch`` / ``free_batch`` equal the per-event referee on random
  interleavings with repeated ranks;
* a hand-built malformed plan ends in an analyzer issue or a
  ``CommError`` — never a booked ledger;
* plans pickle as arrays only (no stream or kernel-pointer cache);
* a plan bundle refuses to replay against a different sparsity pattern.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.comm.simulator import CommError
from repro.comm.stream import MSG
from repro.lu2d.options import FactorOptions
from repro.lu3d import factor_3d
from repro.plan import (
    TaskArrays,
    build_3d_plan,
    build_grid_plan,
    execute_grid_plan,
    pattern_signature,
)
from repro.plan.arrays import (
    DERIVED,
    PRIMARY,
    SCHUR_UPDATE,
    tree_pattern,
)
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import analyze_plan, ledger_state

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.conftest import plan_cases, plan_tasks, reassembled  # noqa: E402

DATA = Path(__file__).parent / "data"


def build(case, compact=False):
    """A conftest ``plan_cases`` draw -> ``(plan, sf)``."""
    sf = case["sf"]
    opts = dataclasses.replace(case["opts"], compact_comm=compact)
    if case["tf"] is None:
        return build_grid_plan(sf, range(sf.nb),
                               ProcessGrid2D(case["px"], case["py"]), opts,
                               backend=case["backend"]), sf
    grid3 = ProcessGrid3D(case["px"], case["py"], case["pz"])
    return build_3d_plan(sf, case["tf"], grid3, opts,
                         backend=case["backend"], merged=case["merged"]), sf


def grid_plans(plan):
    if hasattr(plan, "arrays"):
        return [plan]
    return [gp for step in plan.levels for gp in step.grid_plans]


def assert_arrays_equal(a: TaskArrays, b: TaskArrays):
    for f in dataclasses.fields(TaskArrays):
        if f.name in ("comms", "bc_comm"):       # interning order is free
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name
    assert [a.comms[c] for c in a.bc_comm] == [b.comms[c] for c in b.bc_comm]


@pytest.fixture(scope="module")
def lu2d():
    A, geom = grid2d_5pt(12)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    return build_grid_plan(sf, range(sf.nb), ProcessGrid2D(2, 3)), sf


class TestViewAndArraysAgree:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(plan_cases())
    def test_round_trip(self, case):
        """``assemble`` over a plan's primary columns reproduces every
        derived one — a level's and each grid plan's."""
        assert {*PRIMARY, *DERIVED} == {
            f.name for f in dataclasses.fields(TaskArrays)}
        plan, _sf = build(case)
        parts = [plan] if hasattr(plan, "arrays") else \
            [*grid_plans(plan), *(s for s in plan.levels if s.grid_plans)]
        for part in parts:
            assert_arrays_equal(part.arrays, reassembled(part.arrays))

    def test_tids_and_deps_are_consistent(self, lu2d):
        plan, _ = lu2d
        A = plan.arrays
        assert A.tid.tolist() == list(range(A.n_tasks))
        tasks = list(plan_tasks(plan))
        assert [tid for tid, _deps, _kind in tasks] == A.tid.tolist()
        for tid, deps, _kind in tasks:
            assert all(d < tid for d in deps)

    @pytest.mark.parametrize("name", sorted(
        k for k in json.loads((DATA / "golden_planstats.json").read_text())
        if not k.startswith("_")))
    def test_planstats_equal_the_typed_builders(self, name):
        """``PlanStats`` over the arrays == the numbers recorded from the
        pre-array typed plans, dense and compact."""
        from tests.data.regen_planstats import cases, planstats_record
        want = json.loads((DATA / "golden_planstats.json").read_text())[name]
        case = name.removesuffix("_compact")
        builder = dict(cases())[case]
        plan = builder(FactorOptions(compact_comm=name != case))
        assert json.loads(json.dumps(planstats_record(plan))) == want

    def test_tree_pattern_is_the_bcast_replay(self):
        """The flattened pairs are the sends a traced booking records, and
        every other member receives once."""
        from repro.analysis import Trace
        from tests.conftest import bcast_stream
        for root, comm in ((2, (0, 1, 2, 3, 4)), (0, (0, 3)), (5, (5,)),
                           (1, (4, 1, 7, 2, 9, 0, 3))):
            sim = Simulator(10, trace=Trace())
            sim.book(bcast_stream(root, list(comm), 3.0))
            srcs, dsts, recv = tree_pattern(-1, root, comm)
            sends = [e for e in sim.trace.events if e.kind == "send"]
            assert [e.rank for e in sends] == srcs
            assert sorted(dsts) == sorted(recv) == sorted(
                r for r in comm if r != root)
            routed = tree_pattern(8, root, comm)
            assert (routed[0], routed[1]) == ([8] + srcs, [root] + dsts)


class EveryTask:
    """A monitor that watches every task boundary and acts on none: under
    it :func:`execute_grid_plan` walks at width 1."""

    def before_task(self, plan, ctx, idx):
        return None

    def after_task(self, plan, ctx, idx):
        pass


def walk(plan, sim, how: str, seed: int = 0):
    """Book ``plan`` (cost-only) on ``sim`` at one choice of cut points:
    ``'whole'`` (one call per grid plan), ``'runs'``, ``'tasks'``, or
    ``'permuted'`` — per task, in a random legal order as the fuzzer
    draws them."""
    from repro.plan import execute_reduce
    from repro.plan.interpret import GridContext, book
    from repro.verify.fuzz import (_constraint_edges, _grid_units,
                                   random_legal_orders)
    steps = plan.levels if hasattr(plan, "levels") \
        else [SimpleNamespace(grid_plans=[plan], reduces=[])]
    for step in steps:
        sim.set_phase("fact")
        for gp in step.grid_plans:
            if how in ("whole", "tasks"):
                execute_grid_plan(gp, sim, monitor=EveryTask()
                                  if how == "tasks" else None)
                continue
            ctx = GridContext(gp, sim, None, FactorOptions())
            spans = list(zip(gp.arrays.runs[:-1].tolist(),
                             gp.arrays.runs[1:].tolist()))
            if how == "permuted":
                units = _grid_units(gp, 0, runs=False)
                order = next(random_legal_orders(
                    len(units), _constraint_edges(units), 1, seed))
                spans = [units[p].span for p in order]
            for a, b in spans:
                book(ctx, a, b)
        sim.set_phase("red")
        for red in step.reduces:
            execute_reduce(red, sim)
    sim.set_phase("fact")
    return ledger_state(sim)


class TestOneEventStream:
    @pytest.mark.parametrize("compact", [False, True])
    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(plan_cases(), st.integers(0, 1000))
    def test_booking_equals_the_event_loop_at_any_cut_points(
            self, compact, case, seed):
        """The plan booked as stream slices on a plain ``Simulator`` — the
        reduction — equals, by ``ledger_state``, the plan issued event by
        event by the per-event referee, whatever the cut points; a permuted
        legal order books the canonical ledger on both."""
        from tests.conftest import EventByEvent
        plan, sf = build(case, compact)
        n = case["px"] * case["py"] * case["pz"]
        ref = walk(plan, EventByEvent(n), "tasks")
        assert ref["event_counts"]
        for how in ("whole", "runs", "tasks", "permuted"):
            assert walk(plan, Simulator(n), how, seed) == ref, how
        assert walk(plan, EventByEvent(n), "permuted", seed) == ref
        assert walk(plan, EventByEvent(n), "whole") == ref

    @pytest.mark.parametrize("compact", [False, True])
    @settings(max_examples=8, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(plan_cases())
    def test_volume_is_the_walked_ledger(self, compact, case):
        """``volume()`` — no simulator, no clock — holds per rank the
        words, messages, flops and buffer peak a walk books."""
        from tests.conftest import EventByEvent
        plan, sf = build(case, compact)
        n = case["px"] * case["py"] * case["pz"]
        sim = EventByEvent(n)
        walk(plan, sim, "tasks")
        vol = plan.volume(n)
        for name in ("flops", "words_sent", "words_recv", "msgs_sent",
                     "msgs_recv"):
            for key, arr in getattr(vol, name).items():
                assert arr.tolist() == getattr(sim, name)[key].tolist(), \
                    (name, key)
        assert vol.mem_peak.tolist() == sim.mem_peak.tolist()
        assert not vol.mem_current.any()
        assert dict(vol.event_counts) == dict(sim.event_counts)
        if case["tf"] is None:          # a GridPlan sizes itself
            assert plan.volume().words_per_rank().tolist() == \
                sim.words_per_rank().tolist()

    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(plan_cases())
    def test_stream_layout(self, case):
        """Per task: its compute event then its live pairs (a Schur task:
        its pairs' GEMMs); charges by panel tasks, releases — the same
        words, negated — by the node's Schur task; ``runs`` are the
        maximal same-kind intervals."""
        plan, _sf = build(case)
        for gp in grid_plans(plan):
            A = gp.arrays
            runs = A.runs.tolist()
            assert runs[0] == 0 and runs[-1] == A.n_tasks
            for a, b in zip(runs, runs[1:]):
                assert a < b and len(set(A.kind[a:b].tolist())) == 1
                assert a == 0 or A.kind[a - 1] != A.kind[a]
            assert (A.ev_src[A.ev_kind == MSG]
                    != A.ev_dst[A.ev_kind == MSG]).all()
            for t in range(A.n_tasks):
                ev = slice(A.ev_ptr[t], A.ev_ptr[t + 1])
                mem = slice(A.mem_ptr[t], A.mem_ptr[t + 1])
                if A.kind[t] == SCHUR_UPDATE:
                    assert (A.ev_kind[ev] == SCHUR_UPDATE).all()
                    assert A.ev_val[ev].sum() == A.flops[t]
                    charged = np.concatenate([
                        np.arange(A.mem_ptr[u], A.mem_ptr[u + 1])
                        for u in np.flatnonzero((A.node == A.node[t])
                                                & (A.kind != SCHUR_UPDATE))])
                    assert A.mem_rank[mem].tolist() == \
                        A.mem_rank[charged].tolist()
                    assert A.mem_words[mem].tolist() == \
                        (-A.mem_words[charged]).tolist()
                    continue
                head = A.ev_ptr[t]
                assert (A.ev_src[head], A.ev_dst[head], A.ev_val[head],
                        A.ev_kind[head]) == (A.owner[t], A.owner[t],
                                             A.flops[t], A.kind[t])
                assert (A.ev_kind[ev][1:] == MSG).all()
                hops = sum(len(A.comms[A.bc_comm[s]]) - 1
                           + (A.bc_route[s] >= 0)
                           for s in range(A.bc_ptr[t], A.bc_ptr[t + 1]))
                assert A.ev_ptr[t + 1] - head - 1 == hops
                assert (A.mem_words[mem] >= 0).all()


class TestGridPlansAreSlices:
    """``golden_plan_arrays.json`` was written at ``be41204`` by the per-grid
    builder (one ``build_grid_plan`` + one ``assemble`` per grid plan): the
    level builder's slices must reproduce every grid plan, reduce and
    barrier of the zoo byte for byte. This — not timing — is what "a grid
    plan is a slice of its level's arrays" rests on."""

    @pytest.fixture(scope="class")
    def rebuilt(self):
        """Every case rebuilt through the level path. The suite-wide
        analyzer hook is off here: 301 plans, and every builder shape of
        the zoo is analyzed under it elsewhere in tier-1."""
        from repro.plan import build
        from tests.data.regen_plan_arrays import cases, plan_record
        prev, build.POST_BUILD_HOOK = build.POST_BUILD_HOOK, None
        try:
            return {name: plan_record(make()) for name, make in cases()}
        finally:
            build.POST_BUILD_HOOK = prev

    def test_level_path_reproduces_the_per_grid_builder(self, rebuilt):
        want = json.loads((DATA / "golden_plan_arrays.json").read_text())
        want.pop("_readme")
        assert sorted(rebuilt) == sorted(want) and len(want) == 301
        assert sum(len(rec["plans"]) for rec in want.values()) == 2901
        for name, rec in want.items():
            assert rebuilt[name] == rec, name

    def test_regenerating_rewrites_the_file_byte_for_byte(self, rebuilt):
        from tests.data.regen_plan_arrays import render
        assert render(rebuilt) == \
            (DATA / "golden_plan_arrays.json").read_text()

    def test_levels_without_a_grid_plan_are_pinned(self, rebuilt):
        """``Pz`` above the leaf count: one supernode on sixteen layers."""
        rec = rebuilt["one_supernode_pz16_lu_dense"]
        assert rec["plans_per_level"] == [1, 0, 0, 0, 0]
        assert len(rec["plans"]) == 1 and rec["reduces"] == []

    def test_one_assemble_per_level(self, monkeypatch):
        """A 3D build calls ``TaskArrays.assemble`` once per level that has
        work — 5 for 31 grid plans here — and cuts no slice until asked."""
        from tests.data.regen_plan_arrays import matrices
        sf = dict(matrices())["brick"]
        calls = {"assemble": 0, "cut": 0}
        assemble, cut = TaskArrays.assemble.__func__, TaskArrays.cut

        def count(name, real):
            def counted(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return counted
        monkeypatch.setattr(TaskArrays, "assemble",
                            classmethod(count("assemble", assemble)))
        monkeypatch.setattr(TaskArrays, "cut", count("cut", cut))
        from repro.plan import build
        monkeypatch.setattr(build, "POST_BUILD_HOOK", None)
        plan = build_3d_plan(sf, greedy_partition(sf, 16),
                             ProcessGrid3D(2, 3, 16), FactorOptions())
        n_plans = [len(s.grid_plans) for s in plan.levels]
        assert calls == {"assemble": sum(n > 0 for n in n_plans), "cut": 0}
        plan.volume(96), plan.fusion_stats()       # level arrays only
        assert calls["cut"] == 0
        gps = grid_plans(plan)
        assert [gp.arrays.n_tasks > 0 for gp in gps] == [True] * sum(n_plans)
        assert calls["cut"] == sum(n for n in n_plans if n > 1)
        assert gps[0].arrays is gps[0].arrays      # memoized
        # A slice shares its level's communicators; the analyzer checks
        # only the ones the slice uses, so it finds no rank escape — and it
        # assembles nothing beyond one re-derivation per level.
        assert analyze_plan(plan, sf).ok
        assert calls["assemble"] == 2 * sum(n > 0 for n in n_plans)


class TestMemoryBatches:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 4),
                           st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-3, 7.25,
                                            1 / 3, 1e9])),
                 min_size=0, max_size=12)), max_size=8))
    def test_batches_equal_the_per_event_loop(self, batches):
        """Random interleavings of alloc and free batches with repeated
        ranks: ``mem_current`` and ``mem_peak`` match event by event,
        given plain lists or arrays (one path now: the scalar fast path
        for small lists is gone, hence half the examples it used to take)."""
        from tests.conftest import EventByEvent
        loop, lists, arrays = EventByEvent(5), Simulator(5), Simulator(5)
        for sim in (loop, lists, arrays):   # headroom so frees stay legal
            sim.alloc_batch(range(5), [1e12] * 5)
        for is_alloc, events in batches:
            ranks = [r for r, _w in events]
            words = [w for _r, w in events]
            for r, w in events:
                (loop.alloc if is_alloc else loop.free)(r, w)
            name = "alloc_batch" if is_alloc else "free_batch"
            getattr(lists, name)(ranks, words)
            getattr(arrays, name)(np.asarray(ranks, dtype=np.intp),
                                  np.asarray(words, dtype=np.float64))
            for batch in (lists, arrays):
                assert loop.mem_current.tolist() == batch.mem_current.tolist()
                assert loop.mem_peak.tolist() == batch.mem_peak.tolist()

    def test_negative_and_out_of_range_rejected_before_booking(self):
        sim = Simulator(3)
        sim.alloc_batch([0], [10.0])
        with pytest.raises(CommError, match="non-negative"):
            sim.free_batch([0], [-5.0])  # used to *raise* mem_current
        for call in (sim.alloc_batch, sim.free_batch,
                     lambda r, w: sim.alloc_batch(np.asarray(r), w),
                     lambda r, w: sim.free_batch(np.asarray(r), w)):
            with pytest.raises(CommError, match="non-negative"):
                call([0, 1], [1.0, -1.0])
            with pytest.raises(CommError, match="outside"):
                call([0, 3], [1.0, 1.0])
            with pytest.raises(CommError, match="outside"):
                call([-1], [1.0])
            with pytest.raises(CommError, match="same length"):
                call([0, 1], [1.0])
        assert sim.mem_current.tolist() == [10.0, 0.0, 0.0]
        assert sim.mem_peak.tolist() == [10.0, 0.0, 0.0]
        for ranks in ([1, 1], np.asarray([1, 1])):
            with pytest.raises(CommError, match="freed more"):
                sim.free_batch(ranks, [0.5, 0.5])


class TestMalformedPlans:
    """Hand-built defects end in an analyzer issue or a ``CommError``."""

    def outcome(self, bad, sf) -> set:
        """Issue kinds the analyzer reports; if it reports none the plan
        must refuse to execute, at either width."""
        kinds = set(analyze_plan(bad, sf).counts())
        if not kinds:
            for monitor in (EveryTask(), None):
                sim = Simulator(bad.px * bad.py)
                with pytest.raises(CommError):
                    execute_grid_plan(bad, sim, monitor=monitor)
                kinds.add("CommError")
        return kinds

    def poke(self, plan, **cols):
        return dataclasses.replace(
            plan, arrays=dataclasses.replace(plan.arrays, **cols))

    def test_root_outside_ranks(self, lu2d):
        plan, sf = lu2d
        A = plan.arrays
        spec = int(np.flatnonzero(
            [len(A.comms[c]) < plan.px * plan.py for c in A.bc_comm])[0])
        outsider = next(r for r in range(plan.px * plan.py)
                        if r not in A.comms[A.bc_comm[spec]])
        root = A.bc_root.copy()
        root[spec] = outsider
        assert "malformed-bcast" in self.outcome(
            self.poke(plan, bc_root=root), sf)

    def test_negative_words_in_a_spec(self, lu2d):
        plan, sf = lu2d
        words = plan.arrays.bc_words.copy()
        words[0] = -4.0
        assert "malformed-bcast" in self.outcome(
            self.poke(plan, bc_words=words), sf)

    def test_negative_words_in_the_flattened_replay(self, lu2d):
        """Only the executed column is tampered: the primary columns look
        sane, so the analyzer's re-derivation has to catch it — and the
        simulator refuses it anyway."""
        plan, sf = lu2d
        A = plan.arrays
        words = A.ev_val.copy()
        words[np.flatnonzero(A.ev_kind == MSG)[0]] = -4.0
        bad = self.poke(plan, ev_val=words)
        assert self.outcome(bad, sf) == {"inconsistent-arrays"}
        for monitor in (EveryTask(), None):
            sim = Simulator(plan.px * plan.py)
            with pytest.raises(CommError, match="non-negative"):
                execute_grid_plan(bad, sim, monitor=monitor)

    def test_rank_outside_the_grid(self, lu2d):
        plan, sf = lu2d
        owner = plan.arrays.owner.copy()
        owner[np.flatnonzero(np.diff(plan.arrays.bc_ptr))[0]] = 500
        bad = dataclasses.replace(
            plan, arrays=reassembled(plan.arrays, owner=owner))
        assert "rank-escape" in self.outcome(bad, sf)
        sim = Simulator(plan.px * plan.py)
        with pytest.raises(CommError):      # and it cannot be booked
            execute_grid_plan(bad, sim)
        assert not any(sim.clock)


class TestBlockArrays:
    """The per-node block arrays and the accounting gathered from them
    equal the written-out loops they replaced, exactly."""

    @pytest.fixture(scope="class", params=["lu", "cholesky"])
    def setup(self, request):
        from repro.plan import get_backend
        from repro.sparse import grid3d_7pt
        A, geom = grid3d_7pt(6)
        sf = symbolic_factorize(A, geom, leaf_size=24)
        return sf, greedy_partition(sf, 4), \
            get_backend(request.param).node_blocks

    def test_node_block_arrays_are_the_enumerator(self, setup):
        from repro.lu2d.storage import node_block_arrays
        sf, _tf, blocks_fn = setup
        ptr, ii, jj, ww = node_block_arrays(sf, blocks_fn)
        assert node_block_arrays(sf, blocks_fn)[0] is ptr     # memoized
        for v in range(sf.nb):
            got = list(zip(ii[ptr[v]:ptr[v + 1]].tolist(),
                           jj[ptr[v]:ptr[v + 1]].tolist(),
                           ww[ptr[v]:ptr[v + 1]].tolist()))
            assert got == [(i, j, float(w)) for i, j, w in blocks_fn(sf, v)]

    @pytest.mark.parametrize("compact", [False, True])
    def test_replica_words_equal_the_triple_loop(self, setup, compact):
        from repro.comm.volume import CompactVolume
        from repro.lu3d.replication import replica_words_per_rank
        sf, tf, blocks_fn = setup
        grid3 = ProcessGrid3D(2, 3, 4)
        volume = CompactVolume(sf) if compact else None
        want = np.zeros(grid3.size)
        for v in range(sf.nb):
            for g in tf.grids_of_node(v):
                for i, j, w in blocks_fn(sf, v):
                    if volume is not None:
                        w = volume.cap(i, j, float(w))
                    want[grid3.layer(g).owner(i, j)] += w
        got = replica_words_per_rank(sf, tf, grid3, blocks_fn=blocks_fn,
                                     volume=volume)
        assert got.tolist() == want.tolist() and got.sum() > 0

    def test_factor_words_equal_the_loop(self, setup):
        """The 2D baseline's static factor storage is the replica charge
        at Pz = 1: every node's blocks once, on the one layer's owners."""
        from repro.comm.volume import CompactVolume
        from repro.lu3d.replication import replica_words_per_rank
        sf, _tf, blocks_fn = setup
        grid3 = ProcessGrid3D(2, 3, 1)
        for volume in (None, CompactVolume(sf)):
            want = np.zeros(6)
            for k in range(sf.nb):
                for i, j, w in blocks_fn(sf, k):
                    want[grid3.layer(0).owner(i, j)] += w if volume is None \
                        else volume.cap(i, j, float(w))
            got = replica_words_per_rank(sf, greedy_partition(sf, 1), grid3,
                                         blocks_fn=blocks_fn, volume=volume)
            assert got.tolist() == want.tolist()


class TestPickling:
    def test_plans_ship_as_arrays_only(self, lu2d):
        plan, sf = lu2d
        cold = len(pickle.dumps(plan))
        plan.arrays.k_ptr                 # materialise the kernel cuts ...
        execute_grid_plan(plan, Simulator(6))  # ... and stream
        assert {"stream", "k_ptr"} <= set(plan.arrays.__dict__)
        assert len(pickle.dumps(plan)) == cold
        clone = pickle.loads(pickle.dumps(plan))
        assert not {"stream", "k_ptr"} & set(clone.arrays.__dict__)
        assert_arrays_equal(plan.arrays, clone.arrays)
        sims = [Simulator(6), Simulator(6)]
        execute_grid_plan(plan, sims[0])
        execute_grid_plan(clone, sims[1])
        assert ledger_state(sims[0]) == ledger_state(sims[1])


class TestPatternSignature:
    """``PlanBundle.check`` knows which pattern a bundle was built from."""

    @staticmethod
    def setup(nx):
        A, geom = grid2d_5pt(nx)
        sf = symbolic_factorize(A, geom, leaf_size=32)
        return A, geom, sf, greedy_partition(sf, 2)

    def test_signature_separates_equal_nb_patterns(self):
        _, _, sf_a, _ = self.setup(16)
        _, _, sf_b, _ = self.setup(17)
        assert sf_a.nb == sf_b.nb == 15
        assert pattern_signature(sf_a) != pattern_signature(sf_b)
        assert pattern_signature(sf_a) == pattern_signature(
            self.setup(16)[2])

    @pytest.mark.parametrize("numeric", [False, True])
    def test_foreign_bundle_refused(self, numeric):
        _, _, sf_a, tf_a = self.setup(16)
        _, _, sf_b, tf_b = self.setup(17)
        grid3 = ProcessGrid3D(2, 2, 2)
        res = factor_3d(sf_a, tf_a, grid3, Simulator(8), numeric=numeric)
        sim = Simulator(8)
        with pytest.raises(ValueError, match="different sparsity pattern"):
            factor_3d(sf_b, tf_b, grid3, sim, numeric=numeric,
                      cached=res.bundle)
        assert not any(sim.clock) and not any(sim.mem_peak)
        # The bundle still replays its own pattern, bit for bit.
        ref, again = Simulator(8), Simulator(8)
        factor_3d(sf_a, tf_a, grid3, ref, numeric=numeric)
        factor_3d(sf_a, tf_a, grid3, again, numeric=numeric,
                  cached=res.bundle)
        assert ledger_state(ref) == ledger_state(again)

    def test_facade_rebuilds_instead_of_replaying_a_foreign_bundle(self):
        from repro.solve import SparseLU3D
        A, geom, _, _ = self.setup(16)
        B, geom_b, _, _ = self.setup(17)
        a = SparseLU3D(A, geometry=geom, px=2, py=2, pz=2, leaf_size=32)
        a.factorize()
        b = SparseLU3D(B, geometry=geom_b, px=2, py=2, pz=2, leaf_size=32)
        b.analyze()
        b._bundle = a._bundle
        assert b._usable_bundle() is None
        x = b.factorize().solve(np.ones(B.shape[0]))
        assert np.linalg.norm(B @ x - 1.0) <= 1e-10 * np.sqrt(B.shape[0])

    def test_service_path_is_keyed_by_fingerprint(self):
        """Two patterns with equal ``nb`` get two cache entries, each
        replaying its own bundle: hits stay hits, ledgers stay cold's."""
        from repro.service import FactorizationService
        A, geom, _, _ = self.setup(16)
        B, geom_b, _, _ = self.setup(17)
        with FactorizationService(px=2, py=2, pz=2, leaf_size=32,
                                  machine=Machine.edison_like()) as svc:
            jobs = [svc.submit(M, np.ones(M.shape[0]), geometry=g).result()
                    for M, g in ((A, geom), (B, geom_b), (A, geom),
                                 (B, geom_b))]
        assert [j.cache_hit for j in jobs] == [False, False, True, True]
        for cold, warm in ((jobs[0], jobs[2]), (jobs[1], jobs[3])):
            assert warm.residual <= 1e-10
            assert ledger_state(cold.solver.sim) == \
                ledger_state(warm.solver.sim)
