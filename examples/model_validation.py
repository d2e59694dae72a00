"""Validating the paper's analytic cost models against the simulator.

Section IV derives closed-form per-process memory and communication
expressions (Table II). This example measures those quantities on a
sweep of 2D Poisson problems and prints measured/model ratios: a flat
ratio column means the model captures the scaling law (the constants are
absorbed in the first row). It is the interactive companion of
``tests/claims/test_paper.py::test_table2_asymptotics``.

Run:  python examples/model_validation.py
"""

from repro import Machine, grid2d_5pt
from repro.analysis import FactorizationMetrics, format_table
from repro.comm import ProcessGrid3D, Simulator
from repro.lu3d import factor_3d
from repro.model import (
    memory_2d_planar,
    optimal_pz_planar,
    volume_2d_planar,
    volume_3d_planar,
)
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

P = 64
PZ = 4
SIDES = (64, 96, 128, 192)


def measure(nx: int, pz: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=64, max_block=128)
    tf = greedy_partition(sf, pz)
    grid3 = ProcessGrid3D.from_total(P, pz)
    sim = Simulator(grid3.size, Machine.edison_like())
    factor_3d(sf, tf, grid3, sim, numeric=False)
    m = FactorizationMetrics.from_simulator(sim)
    return A.shape[0], m.mem_resident_total / P, m.w_total_max


def main() -> None:
    rows_2d, rows_3d = [], []
    norm = {}
    for nx in SIDES:
        n, mem2, w2 = measure(nx, 1)
        _, mem3, w3 = measure(nx, PZ)
        # Normalize model constants on the first sweep point.
        if not norm:
            norm = {
                "m2": mem2 / memory_2d_planar(n, P),
                "w2": w2 / volume_2d_planar(n, P),
                "w3": w3 / volume_3d_planar(n, P, PZ),
            }
        rows_2d.append([n, mem2, norm["m2"] * memory_2d_planar(n, P),
                        mem2 / (norm["m2"] * memory_2d_planar(n, P)),
                        w2, norm["w2"] * volume_2d_planar(n, P),
                        w2 / (norm["w2"] * volume_2d_planar(n, P))])
        rows_3d.append([n, w3, norm["w3"] * volume_3d_planar(n, P, PZ),
                        w3 / (norm["w3"] * volume_3d_planar(n, P, PZ))])

    print(format_table(
        ["n", "M meas", "M model", "ratio", "W meas", "W model", "ratio"],
        rows_2d, title=f"2D algorithm vs Eq. (4)/(6), P={P} "
                       "(model constants pinned at the first row)"))
    print()
    print(format_table(
        ["n", "W3D meas", "W3D model", "ratio"], rows_3d,
        title=f"3D algorithm vs Eq. (7)+(10), P={P}, Pz={PZ}"))

    n_last = SIDES[-1] ** 2
    print(f"\nEq. (8) optimal Pz for n={n_last}: "
          f"{optimal_pz_planar(n_last)} "
          f"(continuous {optimal_pz_planar(n_last, round_pow2=False):.1f})")
    drift_limit = 1.5
    for label, rows, col in (("2D memory", rows_2d, 3),
                             ("2D volume", rows_2d, 6),
                             ("3D volume", rows_3d, 3)):
        ratios = [r[col] for r in rows]
        drift = max(ratios) / min(ratios)
        verdict = "OK" if drift < drift_limit else "DRIFTING"
        print(f"{label}: measured/model ratio drifts {drift:.2f}x across "
              f"a {SIDES[-1] ** 2 // SIDES[0] ** 2}x range of n "
              f"-> {verdict}")


if __name__ == "__main__":
    main()
