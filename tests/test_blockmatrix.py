"""Tests for BlockLayout and BlockMatrix."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import BlockLayout, BlockMatrix


class TestBlockLayout:
    def test_basic(self):
        lay = BlockLayout(np.array([0, 3, 5, 9]))
        assert lay.nblocks == 3
        assert lay.n == 9
        assert lay.block_size(1) == 2
        assert np.array_equal(lay.sizes(), [3, 2, 4])
        assert lay.range_of(2) == slice(5, 9)

    def test_block_of_index(self):
        lay = BlockLayout(np.array([0, 3, 5, 9]))
        assert np.array_equal(lay.block_of_index(np.array([0, 2, 3, 4, 5, 8])),
                              [0, 0, 1, 1, 2, 2])

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            BlockLayout(np.array([1, 3]))
        with pytest.raises(ValueError):
            BlockLayout(np.array([0, 3, 3]))
        with pytest.raises(ValueError):
            BlockLayout(np.array([0]))


@st.composite
def layouts_and_matrices(draw):
    nb = draw(st.integers(min_value=1, max_value=6))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5),
                          min_size=nb, max_size=nb))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    D = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    return BlockLayout(offsets), sp.csr_matrix(D)


@given(layouts_and_matrices())
@settings(max_examples=40, deadline=None)
def test_from_csr_roundtrip(pair):
    layout, A = pair
    bm = BlockMatrix.from_csr(A, layout)
    assert np.allclose(bm.to_dense(), A.toarray())
    assert np.allclose(bm.to_csr().toarray(), A.toarray())


def test_from_csr_materializes_pattern():
    lay = BlockLayout(np.array([0, 2, 4]))
    A = sp.csr_matrix((4, 4))
    A = sp.csr_matrix(sp.identity(4))
    bm = BlockMatrix.from_csr(A.tocsr(), lay, block_pattern={(0, 1), (1, 0)})
    assert (0, 1) in bm and (1, 0) in bm
    assert np.all(bm[(0, 1)] == 0)


def test_dimension_mismatch_rejected():
    lay = BlockLayout(np.array([0, 2]))
    with pytest.raises(ValueError, match="dimension"):
        BlockMatrix.from_csr(sp.identity(3, format="csr"), lay)


def test_setitem_shape_check():
    lay = BlockLayout(np.array([0, 2, 5]))
    bm = BlockMatrix(lay)
    with pytest.raises(ValueError, match="shape"):
        bm[(0, 1)] = np.zeros((2, 2))
    bm[(0, 1)] = np.ones((2, 3))
    assert bm.words() == 6


def test_alloc_idempotent():
    lay = BlockLayout(np.array([0, 2]))
    bm = BlockMatrix(lay)
    a = bm.alloc(0, 0)
    a[0, 0] = 7.0
    b = bm.alloc(0, 0)
    assert b[0, 0] == 7.0


def test_copy_is_deep():
    lay = BlockLayout(np.array([0, 2]))
    bm = BlockMatrix(lay)
    bm.alloc(0, 0)[:] = 1.0
    cp = bm.copy()
    cp[(0, 0)][0, 0] = 99.0
    assert bm[(0, 0)][0, 0] == 1.0


# -- the arena -------------------------------------------------------------

def _loop_reference(A, layout, pattern):
    """The per-block loop ``from_csr`` replaced, kept as the referee: one
    separately allocated array per block, filled entry by entry."""
    ref = {key: np.zeros((layout.block_size(key[0]),
                          layout.block_size(key[1]))) for key in pattern}
    coo = A.tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        i, j = (int(layout.block_of_index(x)) for x in (r, c))
        blk = ref.setdefault((i, j), np.zeros((layout.block_size(i),
                                               layout.block_size(j))))
        blk[r - layout.offsets[i], c - layout.offsets[j]] = v
    return ref


@st.composite
def arena_cases(draw):
    """A layout, a matrix on it and a ``block_pattern`` that is any subset
    of the block grid — so both supersets of the matrix's own blocks and
    patterns the matrix sticks out of."""
    layout, A = draw(layouts_and_matrices())
    nb = layout.nblocks
    cells = [(i, j) for i in range(nb) for j in range(nb)]
    pattern = set(draw(st.lists(st.sampled_from(cells), unique=True)))
    return layout, A, pattern


@given(arena_cases())
@settings(max_examples=60, deadline=None)
def test_arena_equals_the_block_loop(case):
    layout, A, pattern = case
    bm = BlockMatrix.from_csr(A, layout, block_pattern=pattern)
    ref = _loop_reference(A, layout, pattern)
    assert set(bm.blocks) == set(ref)
    assert np.array_equal(bm.to_dense(), A.toarray())
    for key, blk in bm.blocks.items():
        assert np.array_equal(blk, ref[key])        # pattern-only: zero
        assert blk.flags.c_contiguous and blk.base is bm.buf
    assert bm.buf.size == bm.words() == sum(b.size for b in ref.values())
    # Node-major: supernode min(i, j)'s diagonal, L panel, U panel.
    at, lo, hi = bm.offsets_of(*np.array(list(bm.blocks), dtype=np.int64)
                               .reshape(-1, 2).T)
    assert (lo == 0).all() and np.array_equal(
        hi, [layout.block_size(i) for i, _j in bm.blocks])
    order = [key for _o, key in sorted(zip(at.tolist(), bm.blocks))]
    assert order == sorted(bm.blocks, key=lambda k: (min(k), k[0] < k[1],
                                                     max(k)))


@given(arena_cases(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rebind_twice_equals_a_fresh_build(case, seed):
    layout, A, pattern = case
    bm = BlockMatrix.from_csr(A, layout, block_pattern=pattern)
    ids = {key: id(blk) for key, blk in bm.blocks.items()}
    buf = bm.buf
    rng = np.random.default_rng(seed)
    for _ in range(2):              # same pattern, fresh values, a sub-pattern
        B = A.copy()
        B.data = rng.random(B.nnz) * (rng.random(B.nnz) < 0.7)
        assert bm.rebind(B) is bm
    fresh = BlockMatrix.from_csr(B, layout, block_pattern=set(bm.blocks))
    assert np.array_equal(bm.buf, fresh.buf)
    assert bm.buf is buf
    assert ids == {key: id(blk) for key, blk in bm.blocks.items()}


def test_rebind_refuses_a_value_outside_the_arena():
    lay = BlockLayout(np.array([0, 2, 4, 6]))
    bm = BlockMatrix.from_csr(sp.identity(6, format="csr"), lay,
                              block_pattern={(1, 0)})
    stray = sp.identity(6, format="lil")
    stray[1, 5] = stray[0, 4] = 5.0           # block (0, 2): not held
    with pytest.raises(ValueError, match=r"2 entries .* \(0, 4\)"):
        bm.rebind(stray.tocsr())
    mirrored = sp.identity(6, format="lil")
    mirrored[0, 3] = 5.0                      # block (0, 1): only (1, 0) held
    with pytest.raises(ValueError, match=r"1 entries .* \(0, 3\)"):
        bm.rebind(mirrored.tocsr())
    assert np.array_equal(bm.to_dense(), np.eye(6))     # refused: untouched
    zero = sp.csr_matrix(([1.0] * 6 + [0.0], (list(range(6)) + [0],
                                              list(range(6)) + [4])))
    assert zero.nnz == 7                      # a stored zero is no value
    bm.rebind(zero)
    assert np.array_equal(bm.to_dense(), np.eye(6))


@pytest.mark.parametrize("pack", [True, False])
def test_a_ranged_arena_stores_and_takes_only_its_rows(pack):
    """Over row ranges an arena stores each block's rows ``r0:r1`` only
    (``pack``; else at full height), places values on them and refuses a
    value outside them either way."""
    lay = BlockLayout(np.array([0, 3, 7, 12]))
    sizes = lay.sizes()
    ii, jj = np.array([0, 1, 2, 1, 2, 2]), np.array([0, 0, 0, 1, 1, 2])
    r0, r1 = np.array([0, 1, 2, 0, 1, 0]), np.array([3, 3, 4, 4, 5, 5])
    bm = BlockMatrix.zeros(lay, ii, jj, (r0, r1), pack)
    h = r1 - r0 if pack else sizes[ii]
    assert bm.words() == bm.buf.size == int((h * sizes[jj]).sum())
    off = lay.offsets
    dense = np.zeros((12, 12))
    rng = np.random.default_rng(3)
    for t, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        assert bm[(i, j)].shape == (h[t], sizes[j])
        assert bm[(i, j)].flags.c_contiguous and bm[(i, j)].base is bm.buf
        dense[off[i] + r0[t]:off[i] + r1[t], off[j]:off[j + 1]] = \
            rng.random((r1[t] - r0[t], sizes[j]))
    bm.rebind(sp.csr_matrix(dense))
    for t, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        rows = slice(off[i] + r0[t], off[i] + r1[t])
        got = bm[(i, j)] if pack else bm[(i, j)][r0[t]:r1[t]]
        assert np.array_equal(got, dense[rows, off[j]:off[j + 1]])
        if not pack:
            assert not bm[(i, j)][:r0[t]].any() and not bm[(i, j)][r1[t]:].any()
    # Each block's stored rows, and conversions that put them back there.
    _at, lo, hi = bm.offsets_of(np.append(ii, 0), np.append(jj, 2))
    assert np.array_equal(hi - lo, np.append(h, 0))
    assert np.array_equal(lo, np.append(r0 if pack else 0 * r0, 0))
    for out in (bm.to_dense(), bm.to_csr().toarray(), bm.copy().to_dense()):
        assert np.array_equal(out, dense)
    assert all(b.shape == (sizes[i], sizes[j])
               for (i, j), b in bm.copy().blocks.items())
    before = bm.buf.copy()
    stray = dense.copy()
    stray[off[1], off[0]] = 1.0           # row 0 of block (1, 0): range 1:3
    with pytest.raises(ValueError, match=r"1 entries .* \(3, 0\)"):
        bm.rebind(sp.csr_matrix(stray))
    assert np.array_equal(bm.buf, before)
