"""Run harness: one (matrix, P, Pz) configuration -> one metrics record.

``PreparedMatrix`` caches the symbolic factorization (ordering + fill +
costs) so that sweeping process-grid configurations — the bulk of the
paper's evaluation — re-runs only the simulated schedule, which is the
part that depends on the grid; it also keeps each finished ``Pz`` sweep,
so figure runners handed one :func:`prepared_suite` simulate each
configuration once between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import FactorizationMetrics
from repro.comm.grid import ProcessGrid3D
from repro.comm.machine import Machine
from repro.comm.simulator import Simulator
from repro.experiments.matrices import TestMatrix, paper_suite
from repro.lu2d.options import FactorOptions
from repro.lu3d.factor3d import factor_3d
from repro.symbolic.symbolic_factor import SymbolicFactorization, symbolic_factorize
from repro.tree.partition import greedy_partition, naive_partition

__all__ = ["PreparedMatrix", "RunRecord", "run_configuration", "pz_sweep",
           "prepared_suite"]


class PreparedMatrix:
    """A test matrix with its symbolic phase computed once and cached."""

    def __init__(self, tm: TestMatrix):
        self.tm = tm
        self._sf: SymbolicFactorization | None = None
        self._partitions: dict[tuple[str, int], object] = {}
        self._sweeps: dict[tuple, list] = {}     # see pz_sweep

    @property
    def name(self) -> str:
        return self.tm.name

    @property
    def sf(self) -> SymbolicFactorization:
        if self._sf is None:
            self._sf = symbolic_factorize(self.tm.A, self.tm.geometry,
                                          leaf_size=self.tm.leaf_size,
                                          max_block=self.tm.max_block)
        return self._sf

    def partition(self, pz: int, strategy: str = "greedy"):
        key = (strategy, pz)
        if key not in self._partitions:
            fn = greedy_partition if strategy == "greedy" else naive_partition
            self._partitions[key] = fn(self.sf, pz)
        return self._partitions[key]


@dataclass
class RunRecord:
    """One configuration's outcome."""

    matrix: str
    P: int
    px: int
    py: int
    pz: int
    metrics: FactorizationMetrics

    @property
    def pxy(self) -> int:
        return self.px * self.py

    @property
    def label(self) -> str:
        return f"{self.px}x{self.py}x{self.pz}"


def run_configuration(pm: PreparedMatrix, P: int, pz: int,
                      machine: Machine | None = None, numeric: bool = False,
                      options: FactorOptions | None = None,
                      strategy: str = "greedy") -> RunRecord:
    """Factor ``pm`` on ``P`` total ranks arranged as ``(P/pz) × pz``.

    Cost-only by default — the schedule, ledgers and timing model are
    identical to numeric mode; only the block arithmetic is skipped.
    """
    grid3 = ProcessGrid3D.from_total(P, pz)
    tf = pm.partition(pz, strategy)
    sim = Simulator(grid3.size, machine or Machine.edison_like())
    factor_3d(pm.sf, tf, grid3, sim, numeric=numeric, options=options)
    return RunRecord(pm.name, P, grid3.px, grid3.py, pz,
                     FactorizationMetrics.from_simulator(sim))


def pz_sweep(pm: PreparedMatrix, P: int, pz_values=(1, 2, 4, 8, 16),
             machine: Machine | None = None,
             options: FactorOptions | None = None,
             strategy: str = "greedy") -> list[RunRecord]:
    """The paper's standard sweep: fixed total P, growing Pz (Fig. 9/10/11).
    Deterministic, so memoized on ``pm`` next to its partitions."""
    key = (P, tuple(pz_values), machine, options, strategy)
    if key not in pm._sweeps:
        pm._sweeps[key] = [
            run_configuration(pm, P, pz, machine=machine, options=options,
                              strategy=strategy)
            for pz in pz_values if P % pz == 0]
    return list(pm._sweeps[key])


def prepared_suite(scale: str = "small") -> dict[str, PreparedMatrix]:
    """``name -> PreparedMatrix`` of :func:`paper_suite` at ``scale``. The
    figure runners take one as ``suite=``: symbolic phases, partitions and
    sweeps are then computed once, whichever figure asks first."""
    return {tm.name: PreparedMatrix(tm) for tm in paper_suite(scale)}
