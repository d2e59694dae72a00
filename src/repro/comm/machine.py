"""The α-β-γ machine cost model.

Defaults approximate one MPI rank of the paper's testbed: NERSC Edison
(Cray XC30, dual 12-core Ivy Bridge per node, Aries dragonfly), run with
4 OpenMP threads per MPI rank:

* ``alpha`` — MPI point-to-point latency, ~1.5 µs on Aries;
* ``beta`` — seconds per 8-byte word; Aries sustains ~8 GB/s per rank
  stream, i.e. ~1 ns/word;
* ``gamma_gemm`` — seconds per flop in large dense GEMM; 4 Ivy Bridge cores
  at ~9.6 GF/core peak reach ~70% on DGEMM, but SuperLU's Schur updates run
  on small irregular blocks at far lower efficiency, so the default
  corresponds to ~12 GF/s per rank;
* ``gamma_panel`` — per-flop cost of the less regular panel/diagonal
  kernels (TRSM/GETRF on skinny panels), slower than GEMM;
* ``gemm_overhead`` — fixed cost per Schur-complement block update: the
  pack/unpack and indirect-indexing scatter that SuperLU_DIST performs
  around each GEMM (Section II-E: "a lot of local indirect memory
  accesses").

The absolute values set the time scale only; every claim the benchmarks
check is about ratios and shapes, which are insensitive to moderate
recalibration. ``Machine.edison_like()`` is the pinned configuration used
by all paper-reproduction experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Machine"]


@dataclass(frozen=True)
class Machine:
    """Cost coefficients for the simulator (all in seconds / words / flops)."""

    alpha: float = 1.5e-6        # per-message latency
    beta: float = 1.0e-9         # per-word (8 B) transfer time
    gamma_gemm: float = 8.3e-11  # per-flop, Schur GEMM (~12 GF/s)
    gamma_panel: float = 2.5e-10 # per-flop, panel & diagonal kernels (~4 GF/s)
    gemm_overhead: float = 3.0e-6  # per block-update pack/scatter cost
    # Checkpoint/restart I/O (repro.resilience): per-rank fixed latency
    # and per-word cost of writing (or re-reading) resident state to
    # stable storage, plus the failure-detection + relaunch delay paid
    # once per restart. Burst-buffer-class defaults: ~0.5 ms seek, ~2 GB/s
    # per rank (4x the network beta), ~5 ms to detect and respawn.
    io_alpha: float = 5.0e-4       # per-checkpoint per-rank latency
    io_beta: float = 4.0e-9        # per-word checkpoint read/write time
    restart_latency: float = 5.0e-3  # detect-and-relaunch delay per restart

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_gemm", "gamma_panel",
                     "gemm_overhead", "io_alpha", "io_beta",
                     "restart_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def edison_like(cls) -> "Machine":
        """The pinned calibration used by the paper-reproduction experiments."""
        return cls()

    @classmethod
    def zero_compute(cls) -> "Machine":
        """Communication-only machine: compute is free.

        Useful in tests that need communication totals isolated from
        computation, and for upper-bound strong-scaling studies.
        """
        return cls(gamma_gemm=0.0, gamma_panel=0.0, gemm_overhead=0.0)

    @classmethod
    def zero_comm(cls) -> "Machine":
        """Compute-only machine: communication is free (PRAM-style bound)."""
        return cls(alpha=0.0, beta=0.0)
