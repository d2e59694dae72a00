"""Network topology models refining the α-β cost per (src, dst) pair.

The paper's footnote 1 warns that "the network topology and the
underlying MPI implementation may increase the asymptotic complexity" of
the flat model. These classes let the simulator charge distance-dependent
latency and bandwidth factors so that sensitivity studies can check the
conclusions are not artifacts of the uniform-network assumption:

* :class:`UniformTopology` — the default flat network (factors 1.0);
* :class:`DragonflyTopology` — Edison's Aries-like three-tier model:
  cheap within a node, nominal within an all-to-all group, a configurable
  penalty between groups;
* :class:`Torus3D` — hop-count (Manhattan, periodic) latency scaling of
  older torus machines, where rank placement matters most.

A factor takes two ranks or two rank arrays (``Simulator.book`` prices a
stream slice's messages at once); both forms are one formula.

Ranks map to hardware in order: ``node = rank // ranks_per_node`` etc.,
matching how MPI typically fills nodes with consecutive ranks — which
means a z-layer (contiguous rank block) tends to be node-local, and
Ancestor-Reduction partners (``pxy`` apart) usually live on different
nodes, exactly as on the paper's testbed.
"""

from __future__ import annotations

import numpy as np

from repro.utils import check_positive_int

__all__ = ["UniformTopology", "DragonflyTopology", "Torus3D"]


class UniformTopology:
    """Flat network: every pair costs the same (the default model)."""

    def latency_factor(self, src, dst) -> float:
        return 1.0

    def bandwidth_factor(self, src, dst) -> float:
        return 1.0


class DragonflyTopology:
    """Three-tier dragonfly: node / group / global.

    Parameters are multiplicative factors on α (latency) and 1/bandwidth
    (β). Defaults approximate Aries: shared-memory transport within a
    node, single-hop within a group, one optical hop between groups.
    """

    def __init__(self, ranks_per_node: int = 6, nodes_per_group: int = 64,
                 node_latency: float = 0.3, node_bandwidth: float = 0.5,
                 global_latency: float = 1.6, global_bandwidth: float = 1.3):
        self.ranks_per_node = check_positive_int(ranks_per_node,
                                                 "ranks_per_node")
        self.nodes_per_group = check_positive_int(nodes_per_group,
                                                  "nodes_per_group")
        for name, v in (("node_latency", node_latency),
                        ("node_bandwidth", node_bandwidth),
                        ("global_latency", global_latency),
                        ("global_bandwidth", global_bandwidth)):
            if v <= 0:
                raise ValueError(f"{name} must be positive")
        self.node_latency = node_latency
        self.node_bandwidth = node_bandwidth
        self.global_latency = global_latency
        self.global_bandwidth = global_bandwidth

    def _tier(self, src, dst):
        """0 = same node, 1 = same group, 2 = global: boundaries crossed."""
        ns, nd = src // self.ranks_per_node, dst // self.ranks_per_node
        return 1 * (ns != nd) + (ns // self.nodes_per_group
                                 != nd // self.nodes_per_group)

    def latency_factor(self, src, dst):
        return np.take((self.node_latency, 1.0, self.global_latency),
                       self._tier(src, dst))

    def bandwidth_factor(self, src, dst):
        return np.take((self.node_bandwidth, 1.0, self.global_bandwidth),
                       self._tier(src, dst))


class Torus3D:
    """Periodic 3D torus: latency scales with Manhattan hop distance.

    Rank ``r`` sits at torus coordinate ``(r // (ny*nz)) % nx, ...`` in
    order; bandwidth is shared per hop with a mild per-hop factor.
    """

    def __init__(self, nx: int, ny: int, nz: int,
                 hop_latency: float = 0.35, hop_bandwidth: float = 0.08):
        self.shape = (check_positive_int(nx, "nx"),
                      check_positive_int(ny, "ny"),
                      check_positive_int(nz, "nz"))
        if hop_latency < 0 or hop_bandwidth < 0:
            raise ValueError("hop factors must be non-negative")
        self.hop_latency = hop_latency
        self.hop_bandwidth = hop_bandwidth
        self.size = int(np.prod(self.shape))

    def coords(self, rank):
        nx, ny, nz = self.shape
        rank = rank % self.size
        return (rank // (ny * nz), (rank // nz) % ny, rank % nz)

    def hops(self, src, dst):
        out = 0
        for a, b, extent in zip(self.coords(src), self.coords(dst),
                                self.shape):
            d = abs(a - b)
            out += np.minimum(d, extent - d)
        return out

    def latency_factor(self, src, dst):
        return 1.0 + self.hop_latency * self.hops(src, dst)

    def bandwidth_factor(self, src, dst):
        return 1.0 + self.hop_bandwidth * self.hops(src, dst)
