"""Cross-cutting ledger invariants over full factorization runs.

Property-style checks that hold for *any* valid schedule the drivers can
emit — run over a grid of (matrix family, Pz, engine) combinations. These
are the guards that would catch a mis-metered event long before a figure
looks subtly wrong.
"""

import pytest

from repro.analysis import FactorizationMetrics, PlanStats
from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from tests.conftest import plan_tasks

ENGINES = {
    "lu": lambda sf, tf, g3, sim: factor_3d(sf, tf, g3, sim, numeric=False),
    "cholesky": lambda sf, tf, g3, sim: factor_3d(sf, tf, g3, sim,
                                                  numeric=False,
                                                  backend="cholesky"),
    "merged": lambda sf, tf, g3, sim: factor_3d(sf, tf, g3, sim,
                                                numeric=False, merged=True),
}


def _cases():
    for brick in (False, True):
        for pz in (1, 2, 4):
            for engine in ENGINES:
                yield brick, pz, engine


@pytest.mark.parametrize("brick,pz,engine", list(_cases()),
                         ids=lambda v: str(v))
def test_ledger_invariants(brick, pz, engine):
    # Both families are SPD, so every engine (incl. Cholesky) applies.
    A, g = grid3d_7pt(7) if brick else grid2d_5pt(14)
    sf = symbolic_factorize(A, g, leaf_size=24)
    tf = greedy_partition(sf, pz)
    grid3 = ProcessGrid3D(1, 2, pz)
    sim = Simulator(grid3.size, Machine.edison_like())
    res = ENGINES[engine](sf, tf, grid3, sim)
    m = FactorizationMetrics.from_simulator(sim)

    # 1. Conservation: every send is received.
    assert sim.total_words_sent() == pytest.approx(sim.total_words_recv())
    assert sim.event_counts["send"] == sim.event_counts["recv"]
    # 2. Message-count symmetry (every p2p pairs one send with one recv).
    for phase in ("fact", "red"):
        assert sim.msgs_sent[phase].sum() == sim.msgs_recv[phase].sum()
    # 3. Clocks: the makespan bounds every rank's booked time.
    for r in range(sim.nranks):
        assert sim.compute_time(r) <= sim.clock[r] + 1e-15
        assert sim.comm_time(r) >= -1e-15
    assert m.makespan == pytest.approx(sim.clock.max())
    # 4. Critical-path decomposition is exact.
    assert m.t_scu + m.t_panel + m.t_comm == pytest.approx(m.makespan)
    # 5. Memory: peaks dominate residents; nothing over-freed.
    assert (sim.mem_peak >= sim.mem_current - 1e-9).all()
    assert (sim.mem_current >= -1e-9).all()
    # 6. Reduction traffic exists iff pz > 1 (for the LU/merged engines the
    #    ancestors are nonempty on these meshes).
    if pz == 1:
        assert sim.total_words_sent("red") == 0.0
    else:
        assert sim.total_words_sent("red") > 0.0
    # 7. Flop ledgers are engine-consistent: Cholesky ~ half of LU.
    if engine == "cholesky":
        sim_lu = Simulator(grid3.size, Machine.edison_like())
        ENGINES["lu"](sf, tf, grid3, sim_lu)
        f_ch = sum(sim.flops[k].sum() for k in ("diag", "panel", "schur"))
        f_lu = sum(sim_lu.flops[k].sum() for k in ("diag", "panel", "schur"))
        assert f_ch == pytest.approx(f_lu / 2, rel=0.15)
    # 8. The emitted plan's declared volumes equal what the run booked:
    #    per-kind flops, total messages (exactly — counts are integers)
    #    and total words across the fact+red phases.
    ps = PlanStats.from_plan(res.plan, machine=sim.machine)
    for kind in ("diag", "panel", "schur", "reduce_add"):
        assert ps.flops_by_kind.get(kind, 0.0) == \
            pytest.approx(float(sim.flops[kind].sum()), rel=1e-9)
    booked_msgs = int(sim.msgs_sent["fact"].sum() + sim.msgs_sent["red"].sum())
    booked_words = float(sim.words_sent["fact"].sum()
                         + sim.words_sent["red"].sum())
    assert ps.comm_msgs == booked_msgs
    assert ps.comm_words == pytest.approx(booked_words, rel=1e-9)
    # 9. The dependency DAG is well-formed and its critical path sane.
    seen = set()
    for tid, deps, _kind in plan_tasks(res.plan):
        assert tid not in seen
        assert all(d in seen for d in deps), "dep emitted after task"
        seen.add(tid)
    assert 0 < ps.critical_path_tasks <= ps.n_tasks
    assert 0.0 < ps.critical_path_cost <= ps.total_cost * (1 + 1e-12)
