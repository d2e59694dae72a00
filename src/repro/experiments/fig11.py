"""Fig. 11: relative memory overhead of the 3D algorithm over 2D (percent).

The overhead comes from replicating ancestor (separator) blocks across the
2D grids. Planar matrices have small separators — overhead grows slowly
with ``Pz``; non-planar matrices (nlpkkt80 being the extreme) replicate an
``n^{2/3}``-sized top separator and blow up quickly (paper: 18-245% across
the suite at Pz=16, ~30% for K2D5pt4096, ~200% for nlpkkt80).

Deviation note: at our proxy scales the *max* per-rank memory is noisy
(few blocks per rank at 96 ranks), so the headline overhead uses the
aggregate (summed peak) per-rank memory, whose 2D/3D ratio measures
exactly the replication factor Fig. 11 isolates. The max-based number is
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.comm.machine import Machine
from repro.experiments.harness import prepared_suite, pz_sweep

__all__ = ["Fig11Series", "run_fig11", "fig11_text"]

PZ_VALUES = (1, 2, 4, 8, 16)


@dataclass
class Fig11Series:
    matrix: str
    planar: bool
    pz: list[int] = field(default_factory=list)
    overhead_pct: list[float] = field(default_factory=list)       # aggregate
    overhead_max_pct: list[float] = field(default_factory=list)   # max-rank

    @property
    def overhead_at_max_pz(self) -> float:
        return self.overhead_pct[-1]


def run_fig11(P: int = 96, scale: str = "small",
              machine: Machine | None = None,
              names: list[str] | None = None, suite=None) -> list[Fig11Series]:
    out = []
    for pm in (suite or prepared_suite(scale)).values():
        tm = pm.tm
        if names is not None and tm.name not in names:
            continue
        recs = pz_sweep(pm, P, PZ_VALUES, machine=machine)
        base = recs[0].metrics
        s = Fig11Series(tm.name, tm.planar)
        for rec in recs[1:]:  # overhead relative to the Pz=1 baseline
            m = rec.metrics
            s.pz.append(rec.pz)
            s.overhead_pct.append(
                100.0 * (m.mem_peak_total / base.mem_peak_total - 1.0))
            s.overhead_max_pct.append(m.memory_overhead_over(base))
        out.append(s)
    return out


def fig11_text(series: list[Fig11Series], P: int) -> str:
    rows = []
    for s in series:
        for pz, o, om in zip(s.pz, s.overhead_pct, s.overhead_max_pct):
            rows.append([s.matrix, "planar" if s.planar else "non-pl",
                         pz, o, om])
    return format_table(
        ["matrix", "class", "Pz", "overhead[%]", "overhead(max-rank)[%]"],
        rows, title=f"Fig. 11 — 3D memory overhead over 2D, P={P} ranks")
