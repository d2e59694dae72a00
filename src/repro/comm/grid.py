"""Logical 2D and 3D process grids (Section II-E and Section III).

Rank numbering: the 3D grid of shape ``Px × Py × Pz`` assigns global rank
``pz * (Px*Py) + px * Py + py`` — each z-layer is a contiguous block of
``Pxy`` ranks, so layer ``g``'s 2D grid is ranks ``[g*Pxy, (g+1)*Pxy)``.
Within a layer, block ``(i, j)`` of the block-cyclic distribution is owned
by process-grid coordinate ``(i mod Px, j mod Py)``, exactly SuperLU_DIST's
supernode-level 2D block-cyclic scheme (Fig. 3a).
"""

from __future__ import annotations

import numpy as np

from repro.utils import check_positive_int, check_power_of_two

__all__ = ["ProcessGrid2D", "ProcessGrid3D", "near_square_grid"]


def near_square_grid(p: int) -> tuple[int, int]:
    """Factor ``p`` into the most-square ``(Px, Py)`` with ``Px <= Py``.

    This mirrors how SuperLU_DIST users pick 2D grids (``nprow <= npcol``
    is the common recommendation).
    """
    p = check_positive_int(p, "p")
    px = int(p ** 0.5)
    while p % px != 0:
        px -= 1
    return px, p // px


class ProcessGrid2D:
    """A ``Px × Py`` grid mapped onto global ranks ``base .. base + Px*Py``."""

    def __init__(self, px: int, py: int, base: int = 0):
        self.px = check_positive_int(px, "px")
        self.py = check_positive_int(py, "py")
        self.base = int(base)
        self.size = self.px * self.py
        # Memoized lookup tables: owner/row_ranks/col_ranks sit in the
        # drivers' innermost loops, so they must not recompute per call.
        # The cached lists are shared — callers must not mutate them.
        self._ranks = [[self.base + pi * self.py + pj
                        for pj in range(self.py)] for pi in range(self.px)]
        self._row_ranks = [list(row) for row in self._ranks]
        self._col_ranks = [[self._ranks[pi][pj] for pi in range(self.px)]
                           for pj in range(self.py)]

    def rank(self, pi: int, pj: int) -> int:
        """Global rank of grid coordinate ``(pi, pj)``."""
        if not (0 <= pi < self.px and 0 <= pj < self.py):
            raise ValueError(f"coordinate ({pi}, {pj}) outside {self.px}x{self.py}")
        return self._ranks[pi][pj]

    def coords(self, rank: int) -> tuple[int, int]:
        local = rank - self.base
        if not 0 <= local < self.size:
            raise ValueError(f"rank {rank} not in this grid")
        return divmod(local, self.py)

    def owner(self, i: int, j: int) -> int:
        """Rank owning block ``(i, j)`` under 2D block-cyclic distribution."""
        return self._ranks[i % self.px][j % self.py]

    def owner_map(self, rows, cols) -> np.ndarray:
        """Vectorized :meth:`owner`: ranks of the ``rows × cols`` block set.

        Returns a ``(len(rows), len(cols))`` int array with
        ``out[a, b] == owner(rows[a], cols[b])`` — the scatter map the
        batched Schur kernel uses to book a whole panel of updates at once.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return (self.base + (rows % self.px)[:, None] * self.py
                + (cols % self.py)[None, :])

    def owner_pairs(self, rows, cols) -> np.ndarray:
        """Elementwise :meth:`owner`: ``out[a] == owner(rows[a], cols[a])``.

        The pairwise companion of :meth:`owner_map` — used by the batched
        Ancestor-Reduction to map a whole level's ``(i, j)`` block list to
        source/destination ranks in one shot.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self.base + (rows % self.px) * self.py + (cols % self.py)

    def row_ranks(self, i: int) -> list[int]:
        """Ranks of the process row owning block-row ``i`` (paper's Px(k)).

        The returned list is memoized and shared; do not mutate it.
        """
        return self._row_ranks[i % self.px]

    def col_ranks(self, j: int) -> list[int]:
        """Ranks of the process column owning block-column ``j``.

        The returned list is memoized and shared; do not mutate it.
        """
        return self._col_ranks[j % self.py]

    def all_ranks(self) -> list[int]:
        return list(range(self.base, self.base + self.size))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessGrid2D({self.px}x{self.py}, base={self.base})"


class ProcessGrid3D:
    """A ``Px × Py × Pz`` grid: ``Pz`` stacked 2D layers.

    ``Pz`` must be a power of two (Algorithm 1's pairwise reduction tree);
    ``Pz = 1`` degenerates to the baseline 2D configuration.
    """

    def __init__(self, px: int, py: int, pz: int):
        self.px = check_positive_int(px, "px")
        self.py = check_positive_int(py, "py")
        self.pz = check_power_of_two(pz, "pz")
        self.pxy = self.px * self.py
        self.size = self.pxy * self.pz
        self._layers = [ProcessGrid2D(px, py, base=g * self.pxy)
                        for g in range(self.pz)]

    @classmethod
    def from_total(cls, p: int, pz: int) -> "ProcessGrid3D":
        """Split ``p`` total ranks into ``pz`` near-square 2D layers."""
        pz = check_power_of_two(pz, "pz")
        p = check_positive_int(p, "p")
        if p % pz != 0:
            raise ValueError(f"total ranks {p} not divisible by pz={pz}")
        px, py = near_square_grid(p // pz)
        return cls(px, py, pz)

    def layer(self, g: int) -> ProcessGrid2D:
        """The 2D grid of z-layer ``g``."""
        if not 0 <= g < self.pz:
            raise ValueError(f"layer {g} out of range [0, {self.pz})")
        return self._layers[g]

    def zmate(self, rank: int, g_to: int) -> int:
        """The rank at the same (px, py) coordinate in layer ``g_to``.

        Ancestor-Reduction communicates along the z axis between these
        pairs (Algorithm 1: "the same (x, y) coordinate in both sender and
        receiver grids").
        """
        g_from, local = divmod(rank, self.pxy)
        if not 0 <= g_from < self.pz:
            raise ValueError(f"rank {rank} out of range")
        return self.layer(g_to).base + local

    def all_ranks(self) -> list[int]:
        return list(range(self.size))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessGrid3D({self.px}x{self.py}x{self.pz})"
