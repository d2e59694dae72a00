"""Fig. 9: normalized factorization time vs process-grid shape.

For every Table III matrix and a fixed total rank count ``P`` (96 ranks =
the paper's 16 nodes, 384 = 64 nodes), sweep ``Pz ∈ {1, 2, 4, 8, 16}`` and
report modeled factorization time normalized by the 2D baseline, split
into ``T_scu`` (Schur-update compute on the critical path) and ``T_comm``
(non-overlapped communication + synchronization) — the two stacked
components of the paper's bars.

The headline numbers derived from the same data:

* 16 nodes: planar 2-11.6x speedup, non-planar 0.33-4.9x;
* 64 nodes: planar 2-16.6x, non-planar 1.0-3.6x;
* extremely non-planar matrices (Serena, nlpkkt80) slow down at Pz=16 on
  16 nodes because shrinking the 2D grid inflates ``T_scu``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.comm.machine import Machine
from repro.experiments.harness import prepared_suite, pz_sweep

__all__ = ["Fig9Matrix", "run_fig9", "fig9_text", "headline_speedups"]

PZ_VALUES = (1, 2, 4, 8, 16)


@dataclass
class Fig9Matrix:
    """One matrix's sweep: times normalized by its own 2D baseline."""

    name: str
    planar: bool
    pz: list[int] = field(default_factory=list)
    t_norm: list[float] = field(default_factory=list)
    t_scu_norm: list[float] = field(default_factory=list)
    t_comm_norm: list[float] = field(default_factory=list)

    @property
    def best_speedup(self) -> float:
        return 1.0 / min(self.t_norm)

    @property
    def speedup_at_max_pz(self) -> float:
        return 1.0 / self.t_norm[-1]


def run_fig9(P: int = 96, scale: str = "small",
             machine: Machine | None = None,
             names: list[str] | None = None, suite=None) -> list[Fig9Matrix]:
    out = []
    for pm in (suite or prepared_suite(scale)).values():
        tm = pm.tm
        if names is not None and tm.name not in names:
            continue
        recs = pz_sweep(pm, P, PZ_VALUES, machine=machine)
        base = recs[0].metrics.makespan
        fm = Fig9Matrix(tm.name, tm.planar)
        for r in recs:
            m = r.metrics
            fm.pz.append(r.pz)
            fm.t_norm.append(m.makespan / base)
            fm.t_scu_norm.append(m.t_scu / base)
            fm.t_comm_norm.append(m.t_comm / base)
        out.append(fm)
    return out


def fig9_text(results: list[Fig9Matrix], P: int) -> str:
    rows = []
    for fm in results:
        for pz, t, ts, tc in zip(fm.pz, fm.t_norm, fm.t_scu_norm,
                                 fm.t_comm_norm):
            rows.append([fm.name, "planar" if fm.planar else "non-pl",
                         pz, t, ts, tc])
    return format_table(
        ["matrix", "class", "Pz", "T/T2D", "Tscu/T2D", "Tcomm/T2D"], rows,
        title=f"Fig. 9 — normalized factorization time, P={P} ranks")


def headline_speedups(results: list[Fig9Matrix]) -> dict[str, tuple[float, float]]:
    """(min, max) best-config speedup per class — the paper's quoted ranges."""
    planar = [fm.best_speedup for fm in results if fm.planar]
    nonpl = [fm.best_speedup for fm in results if not fm.planar]
    out = {}
    if planar:
        out["planar"] = (min(planar), max(planar))
    if nonpl:
        out["non-planar"] = (min(nonpl), max(nonpl))
    return out
