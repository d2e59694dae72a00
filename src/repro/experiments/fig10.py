"""Fig. 10: per-process communication volume, split W_fact / W_red.

The paper plots the critical-path per-process volume (bytes) for one
planar matrix (K2d5pt4096) and one non-planar one (nlpkkt80) on 96 and 384
ranks across ``Pz`` ∈ {1, 2, 4, 8, 16}, showing:

* ``W_fact`` (2D-factorization traffic) decreases with growing ``Pz``;
* ``W_red`` (ancestor-reduction traffic) grows roughly linearly in ``Pz``
  — negligible for planar matrices (small separators), large enough for
  nlpkkt80 to push ``W_total`` back up between Pz=8 and 16 on 96 ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.comm.machine import Machine
from repro.experiments.harness import prepared_suite, pz_sweep

__all__ = ["Fig10Series", "run_fig10", "fig10_text"]

PZ_VALUES = (1, 2, 4, 8, 16)
WORD_BYTES = 8


@dataclass
class Fig10Series:
    matrix: str
    P: int
    pz: list[int] = field(default_factory=list)
    w_fact_bytes: list[float] = field(default_factory=list)  # max per rank
    w_red_bytes: list[float] = field(default_factory=list)

    @property
    def w_total_bytes(self) -> list[float]:
        return [f + r for f, r in zip(self.w_fact_bytes, self.w_red_bytes)]


def run_fig10(names=("K2D5pt4096", "nlpkkt80"), P_values=(96, 384),
              scale: str = "small", machine: Machine | None = None,
              suite=None) -> list[Fig10Series]:
    suite = suite or prepared_suite(scale)
    out = []
    for name in names:
        pm = suite[name]
        for P in P_values:
            series = Fig10Series(name, P)
            for rec in pz_sweep(pm, P, PZ_VALUES, machine=machine):
                m = rec.metrics
                series.pz.append(rec.pz)
                series.w_fact_bytes.append(m.w_fact_max * WORD_BYTES)
                series.w_red_bytes.append(m.w_red_max * WORD_BYTES)
            out.append(series)
    return out


def fig10_text(series: list[Fig10Series]) -> str:
    rows = []
    for s in series:
        for pz, wf, wr in zip(s.pz, s.w_fact_bytes, s.w_red_bytes):
            rows.append([s.matrix, s.P, pz, wf, wr, wf + wr])
    return format_table(
        ["matrix", "P", "Pz", "W_fact[B]", "W_red[B]", "W_total[B]"], rows,
        title="Fig. 10 — per-process communication volume (critical-path rank)")
