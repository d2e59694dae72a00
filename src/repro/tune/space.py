"""Configuration search space for the (Px, Py, Pz, max_block, blocking)
tuner.

The paper's evaluation fixes ``P`` and sweeps ``Pz`` over powers of two;
real allocations are rarely that tidy (``P = 12`` nodes cannot even
express ``Pz = 3`` as a power of two). The tuner therefore enumerates
*every* divisor factorization of ``P`` — each triple ``Px·Py·Pz = P``
with the SuperLU_DIST convention ``Px <= Py`` — crossed with the
supernode cap and the blocking strategy.

Not every candidate is *executable*: Algorithm 1's pairwise
Ancestor-Reduction needs a power-of-two ``Pz`` (``ProcessGrid3D`` and
``TreeForest`` enforce it), so non-power-of-two depths can be scored by
the closed-form model but have no plan to measure.
:attr:`TuneCandidate.executable` records the distinction; the search
(:mod:`repro.tune.search`) measures every executable candidate and
reports the rest as model-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import check_positive_int, is_power_of_two

__all__ = ["TuneCandidate", "divisors", "factor_triples",
           "enumerate_candidates"]


@dataclass(frozen=True, order=True)
class TuneCandidate:
    """One point of the tuner's search space."""

    px: int
    py: int
    pz: int
    #: Supernode cap forwarded to the symbolic phase; ``None`` keeps the
    #: matrix's default.
    max_block: int | None = None
    #: Blocking strategy forwarded to the symbolic phase
    #: (``FactorOptions.blocking``): ``'uniform'`` or ``'irregular'``.
    blocking: str = "uniform"

    def __post_init__(self):
        for name in ("px", "py", "pz"):
            check_positive_int(getattr(self, name), name)
        if self.blocking not in ("uniform", "irregular"):
            raise ValueError(f"unknown blocking strategy {self.blocking!r}")

    @property
    def pxy(self) -> int:
        return self.px * self.py

    @property
    def total(self) -> int:
        return self.pxy * self.pz

    @property
    def executable(self) -> bool:
        """Whether Algorithm 1 can actually run this shape (power-of-two
        ``Pz``)."""
        return is_power_of_two(self.pz)

    @property
    def label(self) -> str:
        cap = f" cap={self.max_block}" if self.max_block is not None else ""
        blk = " irregular" if self.blocking != "uniform" else ""
        return f"{self.px}x{self.py}x{self.pz}{cap}{blk}"

    def to_dict(self) -> dict:
        return {"px": self.px, "py": self.py, "pz": self.pz,
                "max_block": self.max_block, "blocking": self.blocking}

    @classmethod
    def from_dict(cls, d: dict) -> "TuneCandidate":
        return cls(px=int(d["px"]), py=int(d["py"]), pz=int(d["pz"]),
                   max_block=None if d.get("max_block") is None
                   else int(d["max_block"]),
                   blocking=str(d.get("blocking", "uniform")))


def divisors(P: int) -> list[int]:
    """All divisors of ``P``, ascending."""
    P = check_positive_int(P, "P")
    small, large = [], []
    d = 1
    while d * d <= P:
        if P % d == 0:
            small.append(d)
            if d != P // d:
                large.append(P // d)
        d += 1
    return small + large[::-1]


def factor_triples(P: int) -> list[tuple[int, int, int]]:
    """Every ``(px, py, pz)`` with ``px * py * pz == P`` and ``px <= py``,
    ordered by ``pz`` then ``px``."""
    out: list[tuple[int, int, int]] = []
    for pz in divisors(P):
        pxy = P // pz
        for px in divisors(pxy):
            py = pxy // px
            if px <= py:
                out.append((px, py, pz))
    return out


def enumerate_candidates(P: int, *,
                         max_blocks: tuple[int | None, ...] = (None,),
                         blockings: tuple[str, ...] = ("uniform",),
                         executable_only: bool = False
                         ) -> list[TuneCandidate]:
    """The full candidate list for ``P`` total ranks: every shape crossed
    with every supernode cap in ``max_blocks``. ``blockings`` crosses in
    the supernode-boundary strategy (pass ``("uniform", "irregular")`` to
    let the tuner weigh the structure-aware blocking against the default
    per matrix).
    """
    for b in blockings:
        if b not in ("uniform", "irregular"):
            raise ValueError(f"unknown blocking strategy {b!r}")
    out: list[TuneCandidate] = []
    for px, py, pz in factor_triples(P):
        if executable_only and not is_power_of_two(pz):
            continue
        for mb in max_blocks:
            for b in blockings:
                out.append(TuneCandidate(px=px, py=py, pz=pz, max_block=mb,
                                         blocking=b))
    return out
