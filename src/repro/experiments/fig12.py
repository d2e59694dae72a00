"""Fig. 12: performance heatmap over ``P_XY × P_z`` combinations.

The paper's heatmap shows achieved TFLOP/s (baseline-2D flop count divided
by measured time) for every combination of 2D-grid size and replication
depth, for the planar K2D5pt4096 and the strongly non-planar nlpkkt80:

* the planar matrix peaks along a constant-``P_XY`` line (communication-
  bound: once the 2D grid is big enough, extra ranks help only via
  ``P_z``);
* the non-planar matrix peaks along a diagonal ``P_z ∝ P_XY`` line (its
  replicated top separator still needs a growing 2D grid);
* the best 3D configuration beats the best 2D configuration by 5-27.4x
  (planar) / 2.1-3.3x (non-planar); mean 6.5x across the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.report import format_table
from repro.comm.machine import Machine
from repro.experiments.harness import prepared_suite, run_configuration

__all__ = ["Fig12Heatmap", "run_fig12", "fig12_text"]

PXY_VALUES = (6, 12, 24, 48, 96)
PZ_VALUES = (1, 2, 4, 8, 16)


@dataclass
class Fig12Heatmap:
    matrix: str
    planar: bool
    pxy: tuple[int, ...]
    pz: tuple[int, ...]
    gflops: np.ndarray = field(default=None)  # [i_pxy, j_pz]

    @property
    def best_2d(self) -> float:
        return float(self.gflops[:, 0].max())

    @property
    def best_3d(self) -> float:
        return float(self.gflops[:, 1:].max())

    @property
    def best_case_speedup(self) -> float:
        """Best 3D config over best 2D config (Section V-F's metric)."""
        return self.best_3d / self.best_2d

    def best_config(self) -> tuple[int, int]:
        i, j = np.unravel_index(int(np.argmax(self.gflops)),
                                self.gflops.shape)
        return self.pxy[i], self.pz[j]


def run_fig12(names=("K2D5pt4096", "nlpkkt80"), scale: str = "small",
              machine: Machine | None = None,
              pxy_values=PXY_VALUES, pz_values=PZ_VALUES,
              suite=None) -> list[Fig12Heatmap]:
    suite = suite or prepared_suite(scale)
    out = []
    for name in names:
        pm = suite[name]
        tm = pm.tm
        flops = pm.sf.costs.total_flops  # paper normalizes by baseline flops
        grid = np.zeros((len(pxy_values), len(pz_values)))
        for i, pxy in enumerate(pxy_values):
            for j, pz in enumerate(pz_values):
                rec = run_configuration(pm, P=pxy * pz, pz=pz,
                                        machine=machine)
                grid[i, j] = flops / rec.metrics.makespan / 1e9  # GFLOP/s
        out.append(Fig12Heatmap(name, tm.planar, tuple(pxy_values),
                                tuple(pz_values), grid))
    return out


def fig12_text(heatmaps: list[Fig12Heatmap]) -> str:
    parts = []
    for hm in heatmaps:
        rows = []
        for i, pxy in enumerate(hm.pxy):
            rows.append([pxy] + [float(hm.gflops[i, j])
                                 for j in range(len(hm.pz))])
        parts.append(format_table(
            ["PXY \\ Pz"] + [str(pz) for pz in hm.pz], rows,
            title=(f"Fig. 12 — {hm.matrix} performance heatmap [GFLOP/s] "
                   f"(best 3D/2D = {hm.best_case_speedup:.2f}x at "
                   f"PXY={hm.best_config()[0]}, Pz={hm.best_config()[1]})")))
    return "\n\n".join(parts)
