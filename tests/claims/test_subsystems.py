"""The enforced bars of the subsystems grown beyond the paper: compact block
pricing, the ledger-validated autotuner, irregular blocking, z-replica
recovery. All are facts of a cost-only (or tiny numeric) ledger on the
``small`` inputs EXPERIMENTS.md reports."""

import numpy as np

from repro.analysis import format_resilience_stats, format_table
from repro.comm import ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.resilience import Fault, FaultPlan
from repro.sparse import (
    arrowhead,
    banded_dense_rows,
    circuit_like,
    grid2d_5pt,
    grid3d_7pt,
    power_law_laplacian,
)
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.tune import autotune_grid


def _words(sf, px, py, pz, options=None):
    """Total cost-only comm words of LU 3D on a ``px x py x pz`` grid."""
    grid3 = ProcessGrid3D(px, py, pz)
    sim = Simulator(grid3.size)
    factor_3d(sf, greedy_partition(sf, pz), grid3, sim, numeric=False,
              options=options)
    return float(sim.words_per_rank().sum())


def test_compact_pricing_cuts_nonplanar_volume():
    """SpComm3D's critique of Fig. 10's dense convention: ancestor blocks of
    the filled pattern are mostly structural zeros, so pricing a block at
    ``min(dense, 1.5 * nnz)`` words cuts the total >= 1.5x precisely where
    fill is heaviest — the non-planar brick on a 2x2x4 grid."""
    totals = {}
    for name, (A, geom) in (("grid2d_5pt(24)", grid2d_5pt(24)),
                            ("grid3d_7pt(8)", grid3d_7pt(8))):
        sf = symbolic_factorize(A, geom, leaf_size=16)
        dense, compact = (_words(sf, 2, 2, 4, FactorOptions(compact_comm=c))
                          for c in (False, True))
        totals[name] = dense / compact
        print(f"\n{name:>16}: dense {dense:.0f} words, compact "
              f"{compact:.0f} ({totals[name]:.2f}x)")
    assert totals["grid3d_7pt(8)"] >= 1.5


def test_autotuned_grid_beats_naive():
    """Section IV-C operationalized: ``autotune_grid`` sweeps every divisor
    factorization of P = 16, measures all 9 executable candidates by
    their plans' volume, and lands on the
    smallest critical-path words — 18,122 on the planar grid and 81,800 on
    the non-planar brick, both 1x2x8 — which beat the naive near-square
    Pz=1 grid >= 1.3x on the brick and never lose on the planar grid. The
    sigma-seeded closed form is reported beside every measurement."""
    improvement, chosen = {}, {}
    for name, (A, geom) in (("planar", grid2d_5pt(32)),
                            ("non-planar", grid3d_7pt(10))):
        res = autotune_grid(A, 16, geometry=geom, leaf_size=32)
        measured = [r for r in res.candidates if r.validated]
        assert len(measured) == 9
        assert all(r.model_error is not None for r in measured)
        improvement[name] = res.measured_improvement
        chosen[name] = res.chosen_result.measured_words
        print(f"\n{name:>10} ({res.classification}): chose {res.chosen.label}"
              f" — {chosen[name]:.0f} words, {res.measured_improvement:.2f}x "
              f"vs naive {res.baseline.candidate.label} "
              f"(model error geomean {res.model_error_geomean:.2f})")
    assert chosen == {"planar": 18122.0, "non-planar": 81800.0}
    assert improvement["non-planar"] >= 1.3
    assert improvement["planar"] >= 1.0


def test_irregular_blocking_never_ships_more():
    """Structure-aware irregular blocking (PAPERS.md) against the uniform
    ``max_block`` cap on matrices the paper never tested: never more
    aggregate filled-panel words (the uniform floor compares the words
    summed over all blocks, nothing per rank), no more 3D comm on the
    circuit and arrowhead cases at this one grid (measured here, not
    implied by the floor: other grid shapes can lose per-rank words, see
    EXPERIMENTS.md), a real win on >= 2 adversarial ones; and the paper's
    3D-over-2D volume trade at P = 8 holds on power-law and banded — and is
    honestly bounded on arrowhead, whose chain etree gives Pz nothing to
    distribute (3D can at best tie)."""
    cases = {"arrowhead": arrowhead(512, border=8),
             "banded_dense_rows": banded_dense_rows(512, ndense=4, seed=0),
             "power_law_laplacian": (power_law_laplacian(512, seed=0)[0], None),
             "circuit_like": circuit_like(16, seed=0)}
    comm_win, win_3d = {}, {}
    for name, (A, geom) in cases.items():
        sf_u, sf_i = (symbolic_factorize(A, geom, leaf_size=48, max_block=32,
                                         blocking=b)
                      for b in ("uniform", "irregular"))
        assert sf_i.costs.total_words <= sf_u.costs.total_words, \
            f"{name}: the uniform floor leaked"
        uniform, irregular = _words(sf_u, 2, 2, 2), _words(sf_i, 2, 2, 2)
        comm_win[name] = 1.0 - irregular / uniform
        win_3d[name] = 1.0 - irregular / _words(sf_i, 4, 2, 1)  # same P, flat
        print(f"\n{name:>20}: comm uniform {uniform:.3e} -> irregular "
              f"{irregular:.3e} ({comm_win[name]:+.1%}), 3D-over-2D "
              f"{win_3d[name]:+.1%}")

    for name in ("circuit_like", "arrowhead"):
        assert comm_win[name] >= -1e-12, f"{name}: irregular comm > uniform"
    adversarial = ("arrowhead", "banded_dense_rows", "power_law_laplacian")
    assert sum(comm_win[k] >= 0.01 for k in adversarial) >= 2, comm_win
    for name in ("power_law_laplacian", "banded_dense_rows"):
        assert win_3d[name] >= 0.02, f"{name}: 3D beats 2D by {win_3d[name]:.1%}"
    assert win_3d["arrowhead"] >= -0.02, \
        f"arrowhead: 3D loses {-win_3d['arrowhead']:.1%} to 2D"


def test_z_replica_recovery_beats_restart():
    """Algorithm 1's ancestor replication doubles as fault tolerance. For
    one grid crash at an ancestor level with checkpointing off, a global
    restart replays every grid's work while z-replica recovery rebuilds
    only the crashed grid's subtree from its surviving siblings: strictly
    less aggregate overhead, both to factors within 1e-12 of fault-free."""
    A, geom = grid2d_5pt(28)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    tf = greedy_partition(sf, 4)

    def run(options=None):
        sim = Simulator(16)
        res = factor_3d(sf, tf, ProcessGrid3D(2, 2, 4), sim, numeric=True,
                        options=options)
        return sim, res

    F0 = run()[1].factors().to_dense()
    crash = FaultPlan((Fault("crash", grid=0, level=1),))
    stats, rows = {}, []
    for policy in ("restart", "z-replica"):
        sim, res = run(FactorOptions(fault_plan=crash, recovery=policy))
        st = stats[policy] = res.resilience
        assert float(np.abs(res.factors().to_dense() - F0).max()) <= 1e-12
        assert st.crashes == 1
        assert 0 < st.overhead_seconds < np.inf
        rows.append([policy, sim.makespan * 1e3, st.overhead_seconds,
                     st.overhead_pct, st.checkpoints_taken])
    print()
    print(format_table(
        ["policy", "T [ms]", "overhead [s]", "overhead %", "ckpts"], rows,
        title="single grid crash at level 1 (grid2d_5pt(28), pz=4)"))
    print(format_resilience_stats(stats["z-replica"]))
    assert stats["z-replica"].overhead_seconds \
        < stats["restart"].overhead_seconds
