"""Ragged (CSR-style) index arithmetic shared by the array-form builders."""

from __future__ import annotations

import numpy as np

__all__ = ["csr_ptr", "ragged", "ranges"]


def csr_ptr(counts) -> np.ndarray:
    """Row-pointer array of consecutive groups of sizes ``counts``:
    ``ptr[g]:ptr[g + 1]`` spans group ``g``."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def ragged(counts) -> tuple[np.ndarray, np.ndarray]:
    """``(group, offset)`` of every element of consecutive groups.

    For ``counts = [2, 0, 3]`` returns ``([0, 0, 2, 2, 2], [0, 1, 0, 1, 2])``
    — the vectorized form of ``for g, n in enumerate(counts): for w in
    range(n)``, which is how every per-node panel loop is flattened.
    """
    counts = np.asarray(counts, dtype=np.int64)
    group = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return group, np.arange(group.size) - starts[group]


def ranges(start, counts) -> np.ndarray:
    """``start[g] + 0 .. counts[g] - 1`` for every group ``g``, concatenated:
    :func:`ragged`'s ``start[group] + offset`` as one ``arange + repeat``."""
    ptr = csr_ptr(counts)
    return np.arange(ptr[-1]) + np.repeat(start - ptr[:-1], counts)
