"""Block-sparse matrix container used by the supernodal factorization.

After nested dissection, the permuted matrix is viewed as an ``nb × nb``
block matrix whose block rows/columns are the supernodes (tree nodes). Blocks
that are structurally nonzero (in the *filled* pattern) are stored as dense
``numpy`` arrays, with the supernode granularity set by the dissection leaf
size. An arena over row ranges (:meth:`BlockMatrix.zeros`) stores and takes
only the rows ``r0:r1`` of each L block that can be nonzero (tight under the
row order inside supernodes): a supernode's diagonal block and packed L rows
form one dense ``(s + R) x s`` column block, as in SuperLU_DIST.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.sparse.pattern import same_structure

__all__ = ["BlockLayout", "BlockMatrix"]


@dataclass(frozen=True)
class BlockLayout:
    """Partition of the index range ``[0, n)`` into contiguous blocks.

    Attributes
    ----------
    offsets:
        Array of length ``nb + 1``; block ``i`` spans rows/columns
        ``offsets[i]:offsets[i+1]`` of the permuted matrix.
    """

    offsets: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.int64)
        if off.ndim != 1 or off.shape[0] < 2:
            raise ValueError("offsets must be a 1-D array of length >= 2")
        if off[0] != 0 or np.any(np.diff(off) <= 0):
            raise ValueError("offsets must start at 0 and be strictly increasing")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "_sizes", np.diff(off))

    @property
    def nblocks(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    def block_size(self, i: int) -> int:
        return int(self.offsets[i + 1] - self.offsets[i])

    def sizes(self) -> np.ndarray:
        """Per-block sizes; memoized — callers must not mutate the array."""
        return self._sizes

    def range_of(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def block_of_index(self, idx: np.ndarray) -> np.ndarray:
        """Map scalar indices in ``[0, n)`` to their owning block id."""
        return np.searchsorted(self.offsets, np.asarray(idx), side="right") - 1


def zero_buffer(n: int) -> np.ndarray:
    """``n`` zeroed float64 words from the C allocator. Not ``np.zeros``:
    numpy asks for transparent huge pages from 4 MB up, and a
    factorization-sized buffer then stalls in the kernel's page compaction
    when memory is fragmented (0.2–0.9 s measured on the first touch of a
    22 MB arena in a fragmented process)."""
    return np.frombuffer(bytearray(8 * n), dtype=np.float64)


class ValueMap:
    """Where each stored entry of one CSR structure lands in an arena
    (:meth:`BlockMatrix.value_map`) of index ``index``: offsets ``dest``
    of the entries ``keep`` (``None``: all); the entries ``stray`` (at
    permuted ``at``) lie outside its blocks or ranges and must hold zero."""

    def __init__(self, A, perm, index, dest, keep, stray, at):
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()
        self.perm, self.index, self.dest, self.keep = perm, index, dest, keep
        self.stray, self.at = stray, at

    def matches(self, A, perm, arena) -> bool:
        """Whether this maps CSR ``A`` (through ``perm``) onto ``arena``."""
        return perm is self.perm and same_structure(A, self) and all(
            x is y or np.array_equal(x, y) for x, y in zip(
                self.index, arena.index()))

    def fill(self, buf, data, clear=()) -> None:
        """Zero each buffer of ``clear`` and copy ``data`` — the values of
        a matrix of this structure — into ``buf``: one indexed copy. A
        nonzero stray raises ``ValueError`` naming the first, before
        anything is written (no kernel reads it: the factors would be
        those of another matrix); a stored zero is no value."""
        bad = np.flatnonzero(data[self.stray])
        if bad.size:
            raise ValueError(
                f"{bad.size} entries fall outside the block pattern (its "
                "blocks and their ranges), the first at (row, col) = "
                f"({self.at[0][bad[0]]}, {self.at[1][bad[0]]})")
        for b in clear:
            b.fill(0.0)
        buf[self.dest] = data if self.keep is None else data[self.keep]


class BlockMatrix:
    """Dense-block sparse matrix over a :class:`BlockLayout`.

    ``blocks`` maps ``(i, j)`` block coordinates to dense arrays; missing
    blocks are structurally zero. A matrix built by :meth:`from_csr` /
    :meth:`zeros` is an *arena*: one float64 buffer ``buf`` laid out once,
    every block a C-contiguous view into it, refilled in place by
    :meth:`rebind` — SuperLU_DIST's static L/U structure. A hand-assembled
    matrix (:meth:`alloc`, item assignment) has no buffer. This is the
    numeric working set of both the 2D and 3D factorization drivers; in
    cost-only (symbolic) runs, no ``BlockMatrix`` is materialized at all.
    """

    def __init__(self, layout: BlockLayout):
        self.layout = layout
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        self.buf: np.ndarray | None = None
        # Arena index: sorted keys i * nb + j, buf offsets, the rows r0:r1 and
        # columns c0:c1 a value may take, lo:hi stored; a sentinel closes it.
        self._keys, self._starts = np.array([layout.n ** 2]), np.array([-1])
        self._r0 = self._r1 = self._c0 = self._c1 = self._lo = self._hi = \
            np.array([0])

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, layout: BlockLayout, ii: np.ndarray, jj: np.ndarray,
              rows: tuple | None = None, pack: bool = True,
              cols: tuple | None = None) -> "BlockMatrix":
        """A zero arena over the distinct blocks ``(ii[t], jj[t])``, in
        that order, block ``t`` taking values on rows ``r0[t]:r1[t]`` and
        columns ``c0[t]:c1[t]`` only (``(r0, r1) = rows``, ``(c0, c1) =
        cols``; ``None``: all), with ``pack`` storing only those rows."""
        bm = cls(layout)
        sizes = layout.sizes()
        r0, r1 = rows if rows is not None else (np.zeros_like(ii), sizes[ii])
        c0, c1 = cols if cols is not None else (np.zeros_like(jj), sizes[jj])
        lo, hi = (r0, r1) if pack else (np.zeros_like(ii), sizes[ii])
        h, w = hi - lo, sizes[jj]
        ends = np.cumsum(h * w)
        starts = ends - h * w
        key = ii * layout.nblocks + jj
        order = np.argsort(key)
        (bm._keys, bm._starts, bm._r0, bm._r1, bm._c0, bm._c1, bm._lo,
         bm._hi) = (np.append(x[order], sentinel) for x, sentinel in (
             (key, bm._keys), (starts, bm._starts), (r0, 0), (r1, 0),
             (c0, 0), (c1, 0), (lo, 0), (hi, 0)))
        bm.buf = buf = zero_buffer(int(ends[-1]) if ends.size else 0)
        bm.blocks = {
            (i, j): buf[s:e].reshape(r, c) for i, j, s, e, r, c in zip(
                ii.tolist(), jj.tolist(), starts.tolist(), ends.tolist(),
                h.tolist(), w.tolist())}
        return bm

    @classmethod
    def from_csr(cls, A: sp.csr_matrix, layout: BlockLayout,
                 block_pattern: set[tuple[int, int]] | None = None) -> "BlockMatrix":
        """Scatter a CSR matrix (already permuted) into an arena of dense
        blocks, node-major: block ``(i, j)`` sits with supernode
        ``min(i, j)``, diagonal first, then the L panel, then the U panel.

        If ``block_pattern`` is given (the *filled* pattern from symbolic
        factorization), blocks in the pattern are materialized even when
        their ``A`` content is all zero, so Schur updates always find their
        destination allocated.
        """
        if A.shape[0] != layout.n:
            raise ValueError(
                f"matrix dimension {A.shape[0]} != layout dimension {layout.n}")
        A = A.tocsr()
        nb = layout.nblocks
        bi = np.repeat(np.arange(nb), np.diff(A.indptr[layout.offsets]))
        keys = bi * nb + layout.block_of_index(A.indices)
        keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]  # runs: a row's
        if block_pattern:                       # neighbours share its block
            pat = np.array(list(block_pattern), dtype=np.int64)
            keys = np.concatenate((keys, pat[:, 0] * nb + pat[:, 1]))
        i, j = np.divmod(np.unique(keys), nb)
        order = np.lexsort((np.maximum(i, j), i < j, np.minimum(i, j)))
        bm = cls.zeros(layout, i[order], j[order])
        bm.value_map(A).fill(bm.buf, A.data)
        return bm

    def rebind(self, A: sp.csr_matrix) -> "BlockMatrix":
        """Refill the arena with the values of ``A`` in place through its
        :meth:`value_map`, keeping every array identity; returns ``self``.
        The arena cannot grow (:meth:`ValueMap.fill` refuses)."""
        A = A.tocsr()
        self.value_map(A).fill(self.buf, A.data, (self.buf,))
        return self

    def index(self) -> tuple:
        """The arena index every :class:`ValueMap` onto it is computed from."""
        return (self._keys, self._starts, self._r0, self._r1, self._c0,
                self._c1, self._lo, self._hi)

    def offsets_of(self, ii: np.ndarray, jj: np.ndarray) -> tuple:
        """``(offsets, lo, hi)``: each block ``(ii[t], jj[t])``'s offset
        into ``buf`` (-1 where the arena does not hold it) and the rows
        ``lo:hi`` of it that it stores (``0:0`` if not held)."""
        key = ii * self.layout.nblocks + jj
        slot = np.searchsorted(self._keys, key)
        slot = np.where(self._keys[slot] == key, slot, -1)  # -1: sentinel
        return self._starts[slot], self._lo[slot], self._hi[slot]

    def value_map(self, A: sp.csr_matrix, perm=None, keeps=None
                  ) -> ValueMap:
        """The :class:`ValueMap` of CSR ``A``'s structure onto this arena
        (the one place entry positions are computed): each stored entry's
        ``(row, col)`` goes through ``perm`` (``None``: ``A`` is already
        permuted), the backend's filter ``keeps(rows, cols)`` (a mask,
        :meth:`repro.plan.backends.KernelBackend.keeps`; ``None``: all)
        and the arena's index — its block, then its rows and columns."""
        lay, off = self.layout, self.layout.offsets
        if A.shape != (lay.n, lay.n):
            raise ValueError(f"matrix shape {A.shape} != layout {lay.n}")
        new = np.arange(lay.n) if perm is None else perm.iperm
        block = np.repeat(np.arange(lay.nblocks), lay.sizes())[new]
        local = new - off[block]        # both per input row / column
        n_row = np.diff(A.indptr)
        bi, r = np.repeat(block, n_row), np.repeat(local, n_row)
        bj, c = block[A.indices], local[A.indices]
        key = bi * lay.nblocks + bj
        slot = np.searchsorted(self._keys, key)
        held = (self._keys[slot] == key) & (self._r0[slot] <= r) & (
            r < self._r1[slot]) & (self._c0[slot] <= c) & (c < self._c1[slot])
        mine = True if keeps is None else keeps(off[bi] + r, off[bj] + c)
        keep, out = np.flatnonzero(held & mine), np.flatnonzero(~held & mine)
        dest = self._starts[slot] + (r - self._lo[slot]) * lay.sizes()[bj] + c
        return ValueMap(A, perm, self.index(), dest[keep],
                        None if keep.size == A.nnz else keep, out,
                        (off[bi[out]] + r[out], off[bj[out]] + c[out]))

    def alloc(self, i: int, j: int) -> np.ndarray:
        """Allocate (zero-filled) and return block ``(i, j)``."""
        blk = self.blocks.get((i, j))
        if blk is None:
            blk = np.zeros((self.layout.block_size(i), self.layout.block_size(j)))
            self.blocks[(i, j)] = blk
        return blk

    # -- access ------------------------------------------------------------

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.blocks

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        return self.blocks[key]

    def __setitem__(self, key: tuple[int, int], value: np.ndarray) -> None:
        i, j = key
        expect = (self.layout.block_size(i), self.layout.block_size(j))
        if value.shape != expect:
            raise ValueError(f"block {key} must have shape {expect}, got {value.shape}")
        self.blocks[key] = value

    @property
    def nnz_blocks(self) -> int:
        return len(self.blocks)

    def words(self) -> int:
        """Total stored words (dense block storage model)."""
        return sum(b.size for b in self.blocks.values())

    # -- conversion --------------------------------------------------------

    def _stored(self):
        """``(i, j, lo, block)``: ``block`` holds rows ``lo:`` of ``(i, j)``."""
        ij = np.array(list(self.blocks), dtype=np.int64).reshape(-1, 2).T
        return zip(*ij.tolist(), self.offsets_of(*ij)[1].tolist(),
                   self.blocks.values())

    def to_dense(self) -> np.ndarray:
        """Assemble the full dense matrix (testing only; O(n^2) memory)."""
        out, off = np.zeros((self.layout.n,) * 2), self.layout.offsets
        for i, j, lo, blk in self._stored():
            out[off[i] + lo:off[i] + lo + len(blk), self.layout.range_of(j)] = blk
        return out

    def to_csr(self) -> sp.csr_matrix:
        """Assemble a CSR matrix from the stored blocks (drops exact zeros)."""
        rows, cols, vals = [], [], []
        for i, j, lo, blk in self._stored():
            nz = np.nonzero(blk)
            if nz[0].size:
                rows.append(nz[0] + int(self.layout.offsets[i]) + lo)
                cols.append(nz[1] + int(self.layout.offsets[j]))
                vals.append(blk[nz])
        n = self.layout.n
        if not rows:
            return sp.csr_matrix((n, n))
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsr()

    def copy(self) -> "BlockMatrix":
        """A plain copy (no arena), every block at full height."""
        out = BlockMatrix(self.layout)
        for i, j, lo, blk in self._stored():
            out.alloc(i, j)[lo:lo + len(blk)] = blk
        return out
