"""Closed-form cost models from Section IV (Table II).

These are the analytic per-process memory (M), communication volume (W)
and latency (L) expressions for the 2D and 3D algorithms on the two model
problems — planar (2D PDE) and non-planar (3D PDE) geometries — plus the
generic formulas (Eqs. 1-3) and the optimal-``Pz`` selection rule (Eq. 8).

They return values up to the constants the paper's O(·) notation hides;
the Table II experiment fits those constants against the simulator's
measurements and checks the *scaling exponents*, which is exactly the
claim the table makes.
"""

from repro.model.generic import (
    latency_2d_generic,
    memory_2d_generic,
    volume_2d_generic,
)
from repro.model.nonplanar import (
    latency_2d_nonplanar,
    latency_3d_nonplanar,
    memory_2d_nonplanar,
    memory_3d_nonplanar,
    volume_2d_nonplanar,
    volume_3d_nonplanar,
)
from repro.model.optimum import (
    best_communication_reduction_nonplanar,
    optimal_pz_nonplanar,
    optimal_pz_planar,
)
from repro.model.planar import (
    latency_2d_planar,
    latency_3d_planar,
    memory_2d_planar,
    memory_3d_planar,
    volume_2d_planar,
    volume_3d_planar,
    volume_3d_planar_xy,
    volume_3d_planar_z,
)

__all__ = [
    "best_communication_reduction_nonplanar",
    "latency_2d_generic",
    "latency_2d_nonplanar",
    "latency_2d_planar",
    "latency_3d_nonplanar",
    "latency_3d_planar",
    "memory_2d_generic",
    "memory_2d_nonplanar",
    "memory_2d_planar",
    "memory_3d_nonplanar",
    "memory_3d_planar",
    "optimal_pz_nonplanar",
    "optimal_pz_planar",
    "volume_2d_generic",
    "volume_2d_nonplanar",
    "volume_2d_planar",
    "volume_3d_nonplanar",
    "volume_3d_planar",
    "volume_3d_planar_xy",
    "volume_3d_planar_z",
]
