"""The execution-mode decision table, swept end to end.

``repro.plan.resolve_exec`` is the only place that chooses how a run
executes. This module sweeps the whole observable input space — the nine
``FactorOptions`` fields × what is attached to the simulator × the driver
× numeric/cost-only — and demands that every combination does exactly one
of two things:

* books the **serial reference ledger** bit for bit, or
* books the reference ledger *and* records a ``ParallelFallback``

— nothing else. The reference is independent of the drivers' path choice:
for plain runs it is the plan-level width-1 walk of the fuzzer
(``fuzz_3d(...).canonical_ledger``, identity order, one dispatch per
task), and the attachments used here are ledger-neutral by construction
(an empty trace, a uniform topology, an accelerator whose threshold
nothing reaches, an injector with no faults), so one reference serves
them all.
Resilient runs (faults / checkpoints change the ledger by design) are
referenced against their own serial, unattached run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis import Trace  # noqa: E402
from repro.cholesky import factor_chol_3d  # noqa: E402
from repro.comm import (  # noqa: E402
    DragonflyTopology,
    Machine,
    ProcessGrid3D,
    Simulator,
    UniformTopology,
)
from repro.comm.accelerator import Accelerator  # noqa: E402
from repro.lu2d import FactorOptions  # noqa: E402
from repro.lu3d import factor_3d  # noqa: E402
from repro.lu3d.merged import factor_3d_merged  # noqa: E402
from repro.parallel import (  # noqa: E402
    LevelStats,
    ParallelFallback,
    resolve_workers,
)
from repro.plan import ExecMode, resolve_exec  # noqa: E402
from repro.resilience import Fault, FaultPlan  # noqa: E402
from repro.tree import greedy_partition  # noqa: E402
from repro.verify import fuzz_3d  # noqa: E402
from repro.verify.oracle import ledger_state  # noqa: E402
from tests.conftest import _symbolic, width1_simulator  # noqa: E402

PZ = 2
GRID3 = ProcessGrid3D(2, 1, PZ)
MACHINE = Machine.edison_like()
ATTACHMENTS = ("none", "trace", "topology", "accelerator", "faults")
DRIVERS = ("lu", "merged", "cholesky")
FAULT_PLANS = {
    "none": None,
    "slow": FaultPlan((Fault("slow", rank=0, slow_factor=2.0),)),
    "crash": FaultPlan((Fault("crash", grid=0, level=1),)),
}


def make_sim(attachment: str) -> Simulator:
    """A simulator carrying one ledger-neutral attachment."""
    if attachment == "trace":
        return Simulator(GRID3.size, MACHINE, trace=Trace())
    if attachment == "topology":
        return Simulator(GRID3.size, MACHINE, topology=UniformTopology())
    if attachment == "faults":
        return width1_simulator(GRID3.size, MACHINE)
    sim = Simulator(GRID3.size, MACHINE)
    if attachment == "accelerator":
        sim.attach_accelerator(Accelerator(min_flops=1e12))
    return sim


def setup_for(driver: str, blocking: str):
    sf = _symbolic(12, 16, driver == "cholesky", blocking)
    return sf, greedy_partition(sf, PZ)


def run_driver(driver: str, sf, tf, sim, numeric: bool, opts: FactorOptions):
    if driver == "merged":
        return factor_3d_merged(sf, tf, GRID3, sim, numeric=numeric,
                                options=opts)
    fn = factor_chol_3d if driver == "cholesky" else factor_3d
    return fn(sf, tf, GRID3, sim, numeric=numeric, options=opts)


def expect_fallback(opts, attachment, driver, numeric) -> bool:
    """The three stay-serial reasons: a width-1 run, a cost-only run, one
    resolved worker — for every driver, merged included. A trace or a
    topology is none of them."""
    if opts.n_workers == 1:
        return False
    width1 = opts.resilience_active() \
        or attachment in ("accelerator", "faults")
    return width1 or not numeric or resolve_workers(opts.n_workers) <= 1


_reference_cache: dict = {}


def reference_ledger(driver, numeric, opts: FactorOptions) -> dict:
    """The serial reference of ``opts``' ledger-relevant part."""
    key = (driver, numeric, opts.lookahead, opts.sparse_bcast,
           opts.compact_comm, opts.blocking,
           opts.fault_plan, opts.checkpoint_every, opts.recovery)
    if key not in _reference_cache:
        sf, tf = setup_for(driver, opts.blocking)
        serial = dataclasses.replace(opts, n_workers=1)
        if opts.resilience_active():
            sim = make_sim("none")
            run_driver(driver, sf, tf, sim, numeric, serial)
            ledger = ledger_state(sim)
        else:
            ledger = fuzz_3d(
                sf, tf, GRID3, numeric=numeric, n_orders=0, options=serial,
                machine=MACHINE, merged=driver == "merged",
                backend="cholesky" if driver == "cholesky" else "lu",
            ).canonical_ledger
        _reference_cache[key] = ledger
    return _reference_cache[key]


@st.composite
def cases(draw):
    fault = draw(st.sampled_from(sorted(FAULT_PLANS)))
    opts = FactorOptions(
        lookahead=draw(st.sampled_from([0, 8])),
        pivot_eps=draw(st.sampled_from([1e-10, 1e-8])),
        sparse_bcast=draw(st.booleans()),
        n_workers=draw(st.sampled_from([1, 2, 0])),
        fault_plan=FAULT_PLANS[fault],
        checkpoint_every=draw(st.sampled_from([0, 7])),
        recovery=draw(st.sampled_from(["restart", "z-replica"])),
        compact_comm=draw(st.booleans()),
        blocking=draw(st.sampled_from(["uniform", "irregular"])))
    return (opts, draw(st.sampled_from(ATTACHMENTS)),
            draw(st.sampled_from(DRIVERS)), draw(st.booleans()))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(cases())
def test_every_combination_matches_reference_raises_or_falls_back(case):
    opts, attachment, driver, numeric = case
    sf, tf = setup_for(driver, opts.blocking)
    sim = make_sim(attachment)
    res = run_driver(driver, sf, tf, sim, numeric, opts)
    assert ledger_state(sim) == reference_ledger(driver, numeric, opts)
    fallbacks = [p for p in res.parallel_stats
                 if isinstance(p, ParallelFallback)]
    levels = [p for p in res.parallel_stats if isinstance(p, LevelStats)]
    if expect_fallback(opts, attachment, driver, numeric):
        assert len(fallbacks) == 1 and not levels
        assert fallbacks[0].requested_workers == opts.n_workers
    else:
        assert not fallbacks
        assert bool(levels) == (opts.n_workers != 1)


@pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
@pytest.mark.parametrize("observer", [*ATTACHMENTS, "monitor"])
def test_width_follows_what_observes(observer, compact):
    """A run nothing observes per task walks its full-width runs — a trace
    does not count, the batch entries book per event under it; an
    accelerator, a fault injector or the resilience monitor get one
    dispatch per task — same plan object, same ledger, either pricing."""
    opts = FactorOptions(compact_comm=compact,
                         checkpoint_every=7 if observer == "monitor" else 0)
    sf, tf = setup_for("lu", "uniform")
    sim = make_sim("none" if observer == "monitor" else observer)
    res = run_driver("lu", sf, tf, sim, True, opts)
    assert (res.compiled is not None) == (
        observer in ("none", "trace", "topology"))
    assert res.plan is res.bundle.plan3
    assert ledger_state(sim) == reference_ledger("lu", True, opts)


@pytest.mark.parametrize("observer", ["trace", "topology"])
def test_observed_threaded_run_is_the_serial_run(observer):
    """A traced run and one under a (ledger-changing) topology fan their
    levels out on threads like a plain run — ``LevelStats``, no fallback —
    and book the serial run's trace, ledger and factors exactly."""
    sf, tf = setup_for("lu", "uniform")
    runs = []
    for nw in (1, 2):
        sim = Simulator(GRID3.size, MACHINE, trace=Trace()) \
            if observer == "trace" else Simulator(
                GRID3.size, MACHINE, topology=DragonflyTopology(2, 1))
        runs.append((sim, run_driver("lu", sf, tf, sim, True,
                                     FactorOptions(n_workers=nw))))
    (sim_s, res_s), (sim_p, res_p) = runs
    assert [type(p) for p in res_p.parallel_stats] == [LevelStats]
    assert ledger_state(sim_p) == ledger_state(sim_s)
    assert np.array_equal(res_p.factors().to_dense(),
                          res_s.factors().to_dense())
    if observer == "trace":
        assert sim_s.trace.events and \
            sim_p.trace.events == sim_s.trace.events


class TestResolveExec:
    """The decision, case by case, without running anything."""

    @staticmethod
    def mode(opts=None, attachment="none", **kw) -> ExecMode:
        kw = {"numeric": True, **kw}
        return resolve_exec(opts or FactorOptions(), make_sim(attachment),
                            **kw)

    def test_plain_run_fuses_inline(self):
        assert self.mode() == ExecMode(fuse=True, n_workers=1,
                                       accelerated=False)

    @pytest.mark.parametrize("attachment", ["accelerator", "faults"])
    def test_observed_runs_walk_unfused(self, attachment):
        m = self.mode(attachment=attachment)
        assert not m.fuse
        assert m.accelerated == (attachment == "accelerator")

    @pytest.mark.parametrize("attachment", ["accelerator", "faults"])
    def test_width1_runs_stay_serial(self, attachment):
        m = self.mode(FactorOptions(n_workers=2), attachment=attachment)
        assert not m.fuse and m.n_workers == 1
        assert "width-1" in m.fallback.reason

    def test_topology_fans_out(self):
        m = self.mode(FactorOptions(n_workers=2), attachment="topology")
        assert m == ExecMode(fuse=True, n_workers=2, accelerated=False)

    def test_trace_fans_out(self):
        """A trace selects neither the walk nor the thread count."""
        assert self.mode(attachment="trace") == self.mode()
        m = self.mode(FactorOptions(n_workers=2), attachment="trace")
        assert m == ExecMode(fuse=True, n_workers=2, accelerated=False)

    def test_resilience_is_monitored_and_serial(self):
        """The resilience engine observes task boundaries: one width rule
        covers it, and no field of the mode names it."""
        m = self.mode(FactorOptions(checkpoint_every=5, n_workers=2))
        assert not m.fuse and m.n_workers == 1
        assert "resilience" in m.fallback.reason
        assert "monitored" not in {f.name for f in
                                   dataclasses.fields(ExecMode)}

    def test_pool_engages_with_resolved_count(self):
        m = self.mode(FactorOptions(n_workers=3))
        assert m.n_workers == 3 and m.fallback is None

    def test_one_resolved_worker_is_a_fallback(self, monkeypatch):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        m = self.mode(FactorOptions(n_workers=0))
        assert m.n_workers == 1 and "single worker" in m.fallback.reason

    def test_cost_only_stays_serial(self):
        m = self.mode(FactorOptions(n_workers=2), numeric=False)
        assert m.n_workers == 1 and "cost-only" in m.fallback.reason

