"""Simulated distributed-memory runtime (the paper's Cray XC30 substitute).

The evaluation quantities of the paper — per-process communication volume,
message counts, per-process memory, and critical-path time split into
computation vs non-overlapped communication — are all *per-rank ledger*
quantities. This subpackage provides a deterministic simulator that executes
the factorization's real message/compute schedule against virtual ranks:

* :class:`repro.comm.Machine` — α-β-γ cost model (latency, inverse
  bandwidth, per-flop times), default-calibrated to an Edison-like node;
* :class:`repro.comm.Simulator` — per-rank clocks and ledgers
  (words/messages sent and received, flops by kernel, memory watermark),
  booked from an event stream by its one entry,
  :meth:`~repro.comm.Simulator.book`, with phase labels separating
  factorization traffic from ancestor-reduction traffic (Fig. 10's
  ``W_fact`` vs ``W_red``);
* :class:`repro.comm.ProcessGrid2D` / :class:`repro.comm.ProcessGrid3D` —
  the logical grids of Section II-E and Section III;
* :func:`repro.comm.collectives.tree_pattern` — a binomial-tree broadcast
  as matched point-to-point pairs, so volume conservation (Σ sent = Σ
  received) holds by construction.
"""

from repro.comm.grid import ProcessGrid2D, ProcessGrid3D, near_square_grid
from repro.comm.machine import Machine
from repro.comm.simulator import CommError, Simulator
from repro.comm.topology import DragonflyTopology, Torus3D, UniformTopology
from repro.comm.volume import (
    BlockVolume,
    CompactVolume,
    DenseVolume,
    compact_enabled,
    volume_for,
    volume_kind,
)

__all__ = [
    "BlockVolume",
    "CommError",
    "CompactVolume",
    "DenseVolume",
    "DragonflyTopology",
    "Machine",
    "ProcessGrid2D",
    "ProcessGrid3D",
    "Simulator",
    "Torus3D",
    "UniformTopology",
    "compact_enabled",
    "near_square_grid",
    "volume_for",
    "volume_kind",
]
