"""Table III: the test-matrix suite statistics.

For each matrix we report the proxy's n, nnz/n, symbolic factorization
flop count and modeled baseline (2D, 96-rank) factorization time next to
the paper's values for the original matrix. Absolute agreement is not
expected (the proxies are smaller); the *ordering* of matrices by work and
the planar/non-planar split are the reproducible content.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.comm.machine import Machine
from repro.experiments.harness import prepared_suite, run_configuration

__all__ = ["Table3Row", "run_table3"]


@dataclass
class Table3Row:
    name: str
    planar: bool
    n: int
    paper_n: float
    nnz_per_row: float
    paper_nnz_per_row: float
    flops: float
    paper_flops: float
    tfact_2d: float
    paper_tfact: float


def run_table3(scale: str = "small", P: int = 96,
               machine: Machine | None = None,
               suite=None) -> list[Table3Row]:
    """Measure the baseline per matrix of ``suite`` (default: a fresh
    :func:`prepared_suite` at ``scale``)."""
    rows = []
    for pm in (suite or prepared_suite(scale)).values():
        tm = pm.tm
        rec = run_configuration(pm, P=P, pz=1, machine=machine)
        rows.append(Table3Row(
            name=tm.name, planar=tm.planar, n=tm.n, paper_n=tm.paper_n,
            nnz_per_row=tm.nnz_per_row,
            paper_nnz_per_row=tm.paper_nnz_per_row,
            flops=pm.sf.costs.total_flops, paper_flops=tm.paper_flops,
            tfact_2d=rec.metrics.makespan, paper_tfact=tm.paper_tfact))
    return rows


def table3_text(rows: list[Table3Row]) -> str:
    return format_table(
        ["matrix", "class", "n", "n(paper)", "nnz/n", "nnz/n(paper)",
         "#flop", "#flop(paper)", "Tfact[s]", "Tfact(paper)[s]"],
        [[r.name, "planar" if r.planar else "non-planar", r.n, r.paper_n,
          r.nnz_per_row, r.paper_nnz_per_row, r.flops, r.paper_flops,
          r.tfact_2d, r.paper_tfact] for r in rows],
        title="Table III — test matrices (proxy vs paper)")
