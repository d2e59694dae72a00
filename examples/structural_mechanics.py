"""SPD structural-mechanics workflow: auto-tune, Cholesky-factor, trace.

Ties three library extensions together on a 3D-FEM-like problem (the
class audikw_1/Serena represent in the paper's suite):

1. the auto-tuner sweeps every executable process-grid shape, scores each
   by its plan's per-rank words, and reports the matrix's measured
   separator-growth exponent (Section IV's planar/non-planar regimes);
2. the SPD system is factored with the 3D *Cholesky* engine (Section
   VII's proposed variant) on that grid;
3. an execution trace shows where each rank's time went, including the
   ancestor-reduction phase along z.

Run:  python examples/structural_mechanics.py
"""

import numpy as np

from repro import Machine, grid3d_7pt
from repro.analysis import FactorizationMetrics, Trace
from repro.cholesky import SparseCholesky3D
from repro.comm import Simulator
from repro.lu3d import factor_3d
from repro.tune import autotune_grid

P_BUDGET = 32


def main() -> None:
    # A 14^3 brick stiffness-like SPD operator (n = 2744).
    A, geometry = grid3d_7pt(14)
    n = A.shape[0]
    print(f"stiffness matrix: n={n}, nnz/n={A.nnz / n:.1f} (3D brick)")

    # 1. Auto-tune the grid for a 32-rank budget. Like `solve --grid auto`,
    #    the numeric run adopts the grid shape only (a tuned c > 1 is a
    #    cost-only LU study).
    tuned = autotune_grid(A, P_BUDGET, geometry=geometry)
    ch = tuned.chosen
    print(f"auto-tuner: sigma={tuned.sigma:.2f} -> {tuned.classification};"
          f" grid {ch.px}x{ch.py}x{ch.pz}")
    print(tuned.summary())

    # 2. Cholesky-factor on the tuned grid and solve a load case.
    solver = SparseCholesky3D(A, geometry=geometry, px=ch.px, py=ch.py,
                              pz=ch.pz, leaf_size=64,
                              machine=Machine.edison_like())
    solver.factorize()
    loads = np.zeros((n, 2))
    loads[n // 2, 0] = 1.0          # point load
    loads[:, 1] = 1.0 / n           # distributed load
    u = solver.solve(loads)
    res = np.linalg.norm(A @ u - loads) / np.linalg.norm(loads)
    print(f"two load cases solved; residual {res:.2e}")

    m = FactorizationMetrics.from_simulator(solver.sim)
    print(f"modeled factor time {m.makespan * 1e3:.2f} ms; "
          f"flops {m.total_flops:.3g} (Cholesky = half of LU's)")

    # 3. Re-run the factorization schedule with tracing to see the
    #    timeline (cost-only: the numbers are identical).
    trace = Trace()
    sim = Simulator(solver.grid.size, solver.machine, trace=trace)
    factor_3d(solver.sf, solver.tf, solver.grid, sim, numeric=False,
              backend="cholesky")
    print("\nper-rank timeline (D=diag P=panel S=schur R=reduce "
          ">=send .=wait):")
    print(trace.gantt(sim.nranks, width=70))
    util = trace.utilization(sim.nranks, horizon=sim.makespan)
    print(f"\ncompute utilization: mean {util.mean():.0%}, "
          f"min {util.min():.0%}, max {util.max():.0%}")
    worst = int(np.argmax(sim.clock))
    kinds = {k: v for k, v in sorted(trace.time_by_kind().items())}
    print(f"aggregate time by kind: "
          + ", ".join(f"{k} {v * 1e3:.2f}ms" for k, v in kinds.items()))
    print(f"critical rank r{worst} finishing at "
          f"{sim.clock[worst] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
