"""The block-volume model: one place that prices block messages/storage.

Historically every layer that charged a message or a block of storage did
its own ``rows * cols`` arithmetic — panel broadcasts in
:mod:`repro.plan.backends`, ancestor reductions in :mod:`repro.plan.build`,
replica accounting in :mod:`repro.lu3d.replication`, static factor storage
in :mod:`repro.lu2d.storage`. That dense convention is exactly what
SpComm3D identifies as the flaw of 3D sparse kernels built on dense
buffers: ancestor blocks of the filled pattern are mostly structural
zeros, so dense word counts overstate the communication volume the paper's
Fig. 10 actually measures.

This module centralizes the pricing decision behind one tiny protocol:

``BlockVolume.cap(i, j, dense_words)``
    Given a block coordinate and the historical dense word count for the
    payload, return the words actually shipped/stored
    (``cap_many`` prices parallel arrays of blocks in one call — what the
    array-form plan builder and the replica accounting use).

Two implementations:

* :class:`DenseVolume` — the identity; ``cap`` returns ``dense_words``
  unchanged, so dense-mode plans, ledgers, and goldens are *structurally*
  bit-identical to the pre-refactor code.
* :class:`CompactVolume` — ``min(dense_words, 1.5 * nnz(i, j))`` using the
  per-block fill-in tables of :mod:`repro.symbolic.blocknnz`. The 1.5
  words/entry model is an 8-byte value plus a 4-byte int32 position index
  per structural nonzero. Triangular diagonal payloads
  (``dense_words < s*s``) are priced off the triangle's own nnz.

Because compact pricing is a per-block ``min`` against the dense price,
``compact <= dense`` holds per message, hence per phase and in total — the
invariant the comm-volume smoke gate asserts.

Mode selection: ``FactorOptions.compact_comm`` (default off) — the only
switch; no environment variable overrides it.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = [
    "BlockVolume",
    "CompactVolume",
    "DenseVolume",
    "WORDS_PER_ENTRY",
    "compact_enabled",
    "volume_for",
    "volume_kind",
]

#: Words shipped per structural nonzero in compact mode: one 8-byte value
#: plus one 4-byte int32 flat index, in 8-byte words.
WORDS_PER_ENTRY = 1.5


class BlockVolume(Protocol):
    """Prices the payload of block ``(i, j)`` given its dense word count."""

    kind: str

    def cap(self, i: int, j: int, dense_words: float) -> float:
        """Words shipped/stored for block ``(i, j)``."""
        ...

    def cap_many(self, ii, jj, dense_words) -> np.ndarray:
        """Elementwise :meth:`cap` over parallel arrays (float64 out)."""
        ...


class DenseVolume:
    """Dense pricing: the identity on the historical ``rows * cols`` words."""

    kind = "dense"

    def cap(self, i: int, j: int, dense_words: float) -> float:
        return dense_words

    def cap_many(self, ii, jj, dense_words) -> np.ndarray:
        return np.asarray(dense_words, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DenseVolume()"


class CompactVolume:
    """Sparsity-aware pricing off the filled pattern's per-block nnz.

    ``cap`` never exceeds the dense price (a dense-full block gains
    nothing from indices, so we fall back to shipping it dense), and a
    triangular diagonal payload — recognized by ``dense_words`` strictly
    below the full ``s * s`` tile — is priced off the triangle's nnz.
    """

    kind = "compact"

    def __init__(self, sf):
        # Imported lazily: repro.symbolic pulls the ordering/sparse stack,
        # which must not become an import-time dependency of repro.comm.
        from repro.symbolic.blocknnz import block_nnz_tables

        self.sf = sf
        self.tables = block_nnz_tables(sf)

    def cap(self, i: int, j: int, dense_words: float) -> float:
        if i == j:
            s = self.sf.layout.block_size(i)
            if dense_words < s * s:
                # Triangular payload (diag bcast / packed tri storage).
                nnz = int(self.tables.tri[i])
            else:
                nnz = self.tables.block_nnz(i, i)
        else:
            nnz = self.tables.block_nnz(i, j)
        return min(float(dense_words), WORDS_PER_ENTRY * nnz)

    def cap_many(self, ii, jj, dense_words) -> np.ndarray:
        # The nnz tables are a dict keyed by block: one lookup per block.
        return np.fromiter(
            (self.cap(i, j, w) for i, j, w in zip(
                np.asarray(ii).tolist(), np.asarray(jj).tolist(),
                np.asarray(dense_words, dtype=np.float64).tolist())),
            dtype=np.float64, count=len(ii))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactVolume(nb={self.sf.nb})"


def compact_enabled(options) -> bool:
    """Whether ``options`` (``None`` = defaults) select compact pricing."""
    return bool(options is not None and
                getattr(options, "compact_comm", False))


def volume_kind(options) -> str:
    """``"compact"`` or ``"dense"`` for the resolved mode."""
    return "compact" if compact_enabled(options) else "dense"


def volume_for(sf, options) -> BlockVolume:
    """The :class:`BlockVolume` implied by ``options``."""
    return CompactVolume(sf) if compact_enabled(options) else DenseVolume()
