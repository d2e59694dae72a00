"""The dense-kernel layer (`repro.lu2d.kernels`) against plain references.

Every primitive is checked against `numpy.linalg` over block shapes 1..130
and every operand layout the program can hand it (C-contiguous, a strided
view into a larger array, F-ordered), for the value (<= 1e-12 relative) and
for the in-place contract (the argument is overwritten and returned).
`getrf_nopiv`'s referee is the routine this module replaced, kept here as it
was (an unblocked/recursive GESP loop on `scipy.linalg.solve_triangular`,
its finiteness scan switched off so that NaN blocks can be compared too).
"""

import itertools

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lu2d import kernels
from repro.lu2d.kernels import (
    chol_panel_solve,
    gemm_sub,
    getrf_nopiv,
    potrf_shifted,
    solve_lower_panel,
    solve_upper_panel,
    trsm,
)

RTOL = 1e-12
SIZES = st.integers(min_value=1, max_value=130)
SEEDS = st.integers(min_value=0, max_value=10_000)
LAYOUTS = st.sampled_from(["C", "view", "F"])


def _laid_out(X: np.ndarray, layout: str) -> np.ndarray:
    """A copy of ``X`` stored C-contiguously, as a strided view into a
    larger array, or F-ordered."""
    if layout in "CF":
        return np.array(X, order=layout)
    big = np.full(tuple(2 * d + 1 for d in X.shape), np.nan)
    view = big[tuple(slice(1, 2 * d + 1, 2) for d in X.shape)]
    view[...] = X
    return view


def _rel_err(X: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(X - ref).max() / max(np.abs(ref).max(), 1e-300))


def _triangle(rng, n: int, lower: bool, unit: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(stored, T)``: a well-conditioned triangular ``T`` and the array a
    kernel is handed for it — NaN in the triangle it must not read, and a
    garbage diagonal where the diagonal is implicit."""
    T = rng.uniform(-1.0, 1.0, (n, n)) / n
    T = np.tril(T, -1) if lower else np.triu(T, 1)
    T += np.eye(n) if unit else np.diag(rng.uniform(1.0, 2.0, n))
    stored = T.copy()
    stored[np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)] = np.nan
    if unit:
        np.fill_diagonal(stored, 7.0)
    return stored, T


class TestTrsm:
    @given(SIZES, SIZES, SEEDS, st.sampled_from("LR"), st.booleans(),
           st.booleans(), st.booleans(), LAYOUTS, LAYOUTS)
    @settings(max_examples=200, deadline=None)
    def test_every_variant_matches_numpy(self, n, m, seed, side, lower, unit,
                                         trans, a_layout, b_layout):
        rng = np.random.default_rng(seed)
        stored, T = _triangle(rng, n, lower, unit)
        op = T.T if trans else T
        B0 = rng.standard_normal((n, m) if side == "L" else (m, n))
        ref = np.linalg.solve(op, B0) if side == "L" \
            else np.linalg.solve(op.T, B0.T).T
        A = _laid_out(stored, a_layout)
        B = _laid_out(B0, b_layout)
        out = trsm(A, B, side=side, lower=lower, unit=unit, trans=trans)
        assert out is B                     # overwritten, whatever its layout
        assert _rel_err(B, ref) <= RTOL
        assert np.array_equal(A, stored, equal_nan=True)   # A only read

    def test_all_sixteen_variants_in_place(self):
        """Exhaustive side x uplo x unit x trans on C-contiguous blocks:
        the caller's buffer is the one BLAS wrote."""
        rng = np.random.default_rng(4)
        for side, lower, unit, trans in itertools.product(
                "LR", (True, False), (True, False), (True, False)):
            stored, T = _triangle(rng, 9, lower, unit)
            op = T.T if trans else T
            B = rng.standard_normal((9, 5) if side == "L" else (5, 9))
            ref = np.linalg.solve(op, B) if side == "L" \
                else np.linalg.solve(op.T, B.T).T
            buf = B.ctypes.data
            out = trsm(stored, B, side=side, lower=lower, unit=unit,
                       trans=trans)
            assert out is B and B.ctypes.data == buf
            assert _rel_err(B, ref) <= RTOL, (side, lower, unit, trans)

    @given(SIZES, SEEDS, st.booleans(), st.booleans(), st.booleans(),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_vector_rhs(self, n, seed, lower, unit, trans, strided):
        rng = np.random.default_rng(seed)
        stored, T = _triangle(rng, n, lower, unit)
        b0 = rng.standard_normal(n)
        ref = np.linalg.solve(T.T if trans else T, b0)
        b = _laid_out(b0, "view" if strided else "C")
        assert trsm(stored, b, lower=lower, unit=unit, trans=trans) is b
        assert _rel_err(b, ref) <= RTOL

    def test_segment_of_a_workvector_is_solved_in_its_buffer(self):
        """The solve sweeps' use: ``y[rk]`` of a C-ordered ``(n, nrhs)``
        work array is a contiguous slice — no copy, the parent sees it."""
        rng = np.random.default_rng(3)
        stored, T = _triangle(rng, 5, True, True)
        for shape in ((12,), (12, 4)):
            y = rng.standard_normal(shape)
            y0 = y.copy()
            seg = y[3:8]
            assert kernels._overwritable(seg)
            trsm(stored, seg, lower=True, unit=True)
            assert np.allclose(T @ y[3:8], y0[3:8], rtol=0, atol=1e-13)
            assert np.array_equal(y[:3], y0[:3]) and np.array_equal(y[8:], y0[8:])

    def test_non_float64_block_is_still_overwritten(self):
        stored, T = _triangle(np.random.default_rng(0), 4, False, False)
        B = np.arange(8, dtype=np.float32).reshape(4, 2)
        ref = np.linalg.solve(T, B.astype(np.float64))
        assert trsm(stored, B, lower=False) is B
        assert np.allclose(B, ref, rtol=1e-6)

    def test_bad_side_and_shape_rejected(self):
        A, B = np.eye(3), np.ones((3, 2))
        with pytest.raises(ValueError, match="side"):
            trsm(A, B, side="l", lower=True)
        with pytest.raises(Exception):      # f2py's own dimension check
            trsm(A, np.ones((4, 2)), lower=True)


class TestGemmSub:
    @given(SIZES, SIZES, SIZES, SEEDS, st.booleans(), LAYOUTS, LAYOUTS,
           LAYOUTS)
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy(self, m, k, n, seed, trans_b, c_layout, a_layout,
                           b_layout):
        rng = np.random.default_rng(seed)
        C0 = rng.standard_normal((m, n))
        A0 = rng.standard_normal((m, k))
        B0 = rng.standard_normal((n, k) if trans_b else (k, n))
        ref = C0 - A0 @ (B0.T if trans_b else B0)
        C = _laid_out(C0, c_layout)
        out = gemm_sub(C, _laid_out(A0, a_layout), _laid_out(B0, b_layout),
                       trans_b=trans_b)
        assert out is C
        assert _rel_err(C, ref) <= RTOL

    def test_vector_accumulate(self):
        rng = np.random.default_rng(1)
        A, x, y = rng.standard_normal((6, 4)), rng.standard_normal(4), \
            rng.standard_normal(6)
        ref = y - A @ x
        assert gemm_sub(y, A, x) is y
        assert np.allclose(y, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("c0,c1", [(0, 3), (2, 5), (6, 7)])
    def test_a_ranged_op_is_the_full_op_on_its_columns(self, c0, c1):
        """A GEMM / TRSM on a block's column range ``c0:c1`` (strided
        F-views: f2py works on a copy, which ``execute`` writes back)
        writes what the full-width op writes there and leaves every other
        column alone — the U block being zero outside the range, as a
        factor's is."""
        rng = np.random.default_rng(3)
        C0, A = rng.standard_normal((5, 8)), rng.standard_normal((5, 4))
        B = np.zeros((4, 8))
        B[:, c0:c1] = rng.standard_normal((4, c1 - c0))
        full, ranged = C0.copy(), C0.copy()
        flags = kernels.gemm_op(full, A, B)[4]
        kernels.execute([kernels.gemm_op(full, A, B),
                         (kernels.GEMM, ranged[:, c0:c1].T,
                          B[:, c0:c1].T, A.T, flags)])
        assert np.array_equal(ranged[:, :c0], C0[:, :c0])
        assert np.array_equal(ranged[:, c1:], C0[:, c1:])
        assert np.allclose(ranged, full, rtol=1e-15, atol=1e-15)
        D = np.tril(rng.standard_normal((4, 4)), -1) + np.eye(4)
        full, ranged = B.copy(), B.copy()
        op = kernels.trsm_op(D, full, lower=True, unit=True)
        kernels.execute([op, (kernels.TRSM, ranged[:, c0:c1].T, D.T, None,
                              op[4])])
        assert np.array_equal(ranged, full)


# -- getrf_nopiv ------------------------------------------------------------

def _ref_getrf_base(A, tiny):
    n = A.shape[0]
    perturbed = 0
    for k in range(n):
        piv = A[k, k]
        if abs(piv) < tiny:
            piv = tiny if piv >= 0 else -tiny
            A[k, k] = piv
            perturbed += 1
        if k + 1 < n:
            A[k + 1:, k] /= piv
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return perturbed


def _ref_getrf_recurse(A, tiny):
    n = A.shape[0]
    if n <= 32:
        return _ref_getrf_base(A, tiny)
    h = n // 2
    A11, A12 = A[:h, :h], A[:h, h:]
    A21, A22 = A[h:, :h], A[h:, h:]
    perturbed = _ref_getrf_recurse(A11, tiny)
    A12[:] = la.solve_triangular(A11, A12, lower=True, unit_diagonal=True,
                                 check_finite=False)
    A21[:] = la.solve_triangular(A11, A21.T, trans="T", lower=False,
                                 check_finite=False).T
    A22 -= A21 @ A12
    perturbed += _ref_getrf_recurse(A22, tiny)
    return perturbed


def ref_getrf_nopiv(A, eps=1e-10):
    """The pre-kernel-layer ``getrf_nopiv`` (pure GESP, no LAPACK path)."""
    norm = np.abs(A).max()
    tiny = eps * norm if norm > 0 else eps
    return _ref_getrf_recurse(A, tiny)


@pytest.fixture
def gesp_calls(monkeypatch):
    """Counts entries into the GESP fallback (0 = the LAPACK result was
    accepted)."""
    calls = []
    real = kernels._getrf_recurse

    def spy(A, tiny):
        calls.append(A.shape[0])
        return real(A, tiny)
    monkeypatch.setattr(kernels, "_getrf_recurse", spy)
    return calls


def _dominant(rng, n):
    return rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)


HARD_BLOCKS = {
    "row_swap": np.array([[1e-3, 1.0], [1.0, 1.0]]),
    "zero_pivot": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "tiny_pivot": np.array([[1e-14, 1.0], [0.5e-14, 2.0]]),
    "all_zero": np.zeros((4, 4)),
    "zero_1x1": np.zeros((1, 1)),
    "nan": np.array([[4.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 4.0]]),
    "nan_corner": np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [np.nan, 1.0, 4.0]]),
    "inf": np.array([[4.0, np.inf], [1.0, 4.0]]),
}


class TestGetrfNopiv:
    @given(SIZES, SEEDS, LAYOUTS)
    @settings(max_examples=60, deadline=None)
    def test_lapack_and_gesp_paths_agree_on_dominant_blocks(self, n, seed,
                                                            layout):
        rng = np.random.default_rng(seed)
        A0 = _dominant(rng, n)
        ref = A0.copy()
        assert ref_getrf_nopiv(ref) == 0
        gesp = A0.copy()
        assert kernels._getrf_recurse(gesp, 1e-10 * np.abs(A0).max()) == 0
        M = _laid_out(A0, layout)
        assert getrf_nopiv(M) == 0
        assert _rel_err(M, ref) <= RTOL
        assert _rel_err(gesp, ref) <= RTOL
        L, U = np.tril(M, -1) + np.eye(n), np.triu(M)
        assert _rel_err(L @ U, A0) <= RTOL

    def test_dominant_blocks_take_the_lapack_path(self, gesp_calls):
        rng = np.random.default_rng(0)
        for n in (1, 2, 24, 33, 100):
            assert getrf_nopiv(_dominant(rng, n)) == 0
        assert gesp_calls == []

    @pytest.mark.parametrize("name", sorted(HARD_BLOCKS))
    def test_hard_blocks_take_the_gesp_path_and_match_the_referee(
            self, name, gesp_calls):
        A0 = HARD_BLOCKS[name]
        ref, M = A0.copy(), A0.copy()
        with np.errstate(all="ignore"):
            want = ref_getrf_nopiv(ref, eps=1e-8)
            got = getrf_nopiv(M, eps=1e-8)
        assert gesp_calls == [A0.shape[0]]
        assert got == want
        # n <= 32: the same unblocked loop, so bit-for-bit (NaNs included).
        assert np.array_equal(M, ref, equal_nan=True)

    @given(SIZES, SEEDS, st.sampled_from(["dominant", "general", "zero_pivot",
                                          "tiny_pivot", "rank_one"]))
    @settings(max_examples=120, deadline=None)
    def test_count_and_factors_equal_the_referee(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        A0 = _dominant(rng, n)
        if kind == "general":           # needs row swaps: always GESP
            A0 = rng.standard_normal((n, n))
        elif kind == "zero_pivot":
            A0[rng.integers(n), :] = 0.0
        elif kind == "tiny_pivot":
            k = rng.integers(n)
            A0[k, :] *= 1e-13
        elif kind == "rank_one":
            A0 = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        ref, M = A0.copy(), A0.copy()
        with np.errstate(all="ignore"):
            want = ref_getrf_nopiv(ref)
            got = getrf_nopiv(M)
        assert got == want
        if kind == "dominant" or n <= 32:
            # Dominant: well conditioned at every size. Otherwise only
            # where both run the identical unblocked loop — a perturbed
            # pivot amplifies the recursion's rounding differences.
            assert _rel_err(M, ref) <= RTOL
        assert np.isfinite(M).all()

    def test_perturbation_count_on_a_large_singular_block(self, gesp_calls):
        """Above the recursion threshold the fallback still reports what
        the referee reports."""
        rng = np.random.default_rng(5)
        A0 = _dominant(rng, 70)
        A0[[3, 40, 69], :] = 0.0
        ref, M = A0.copy(), A0.copy()
        assert getrf_nopiv(M) == ref_getrf_nopiv(ref) == 3
        assert gesp_calls[0] == 70

    def test_nan_in_a_large_block_is_not_accepted(self, gesp_calls):
        A = _dominant(np.random.default_rng(2), 48)
        A[30, 7] = np.nan
        with np.errstate(all="ignore"):
            getrf_nopiv(A)
        assert gesp_calls and np.isnan(A).any()

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            getrf_nopiv(np.zeros((2, 3)))


# -- one factor op per node -------------------------------------------------

def today_getrf_nopiv(A, eps=1e-10):
    """``getrf_nopiv`` as it was before its acceptance got leaner: the
    ``np.abs(A).max()`` floor, the pivot vector against ``np.arange`` and
    the LAPACK result taken under the same rule, else the GESP loop."""
    norm = np.abs(A).max()
    tiny = eps * norm if norm > 0 else eps
    lu, piv, info = la.lapack.dgetrf(A)
    if info == 0 and (piv == np.arange(len(piv))).all() \
            and np.abs(lu.diagonal()).min() >= tiny:
        A[...] = lu
        return 0
    return kernels._getrf_recurse(A, tiny)


def _factor_corpus():
    """``name -> (diagonal block, L blocks)``: what a node's factor op can
    be handed, from easy to hostile."""
    rng = np.random.default_rng(7)
    out = {}

    def case(name, D, heights=(3, 0, 5, 1)):
        out[name] = (D, [rng.standard_normal((m, D.shape[0]))
                         for m in heights])
    for n in (2, 17, 33, 49):
        case(f"dominant_{n}", _dominant(rng, n))
    case("dominant_256", _dominant(rng, 256), (40, 7, 129))
    case("one_by_one", np.array([[3.0]]), (4, 1))
    case("zero_one_by_one", np.zeros((1, 1)), (2,))
    case("row_swap", rng.standard_normal((40, 40)))
    case("row_swap_small", HARD_BLOCKS["row_swap"])
    tiny = _dominant(rng, 36)
    tiny[5, :] *= 1e-13
    case("tiny_pivot", tiny)
    case("tiny_pivot_small", HARD_BLOCKS["tiny_pivot"])
    case("all_zero", np.zeros((6, 6)))
    for name in ("nan", "nan_corner", "inf"):
        case(name, HARD_BLOCKS[name])
    signed = _dominant(rng, 40)
    signed[3, 30], signed[31, 2] = np.inf, -np.inf
    case("plus_minus_inf", signed)
    nan = _dominant(rng, 40)
    nan[30, 7] = np.nan
    case("nan_40", nan)
    # A NaN makes the floor eps (max|A| is NaN), so the pivot 1e-7 stands;
    # a floor from the finite entries alone (1e4 eps) would perturb it.
    # (BLAS idamax picks the 1e4 here; where it picks the NaN depends on
    # the size, so only the dasum check makes the floor the referee's.)
    case("nan_beside_a_small_pivot",
         np.diag(np.r_[1e-7, 1e4, np.ones(5), np.nan]))
    return out


FACTOR_CORPUS = _factor_corpus()


class TestPanelFactorOp:
    """A node's factor op — the diagonal factorization, then one TRSM over
    its stacked L rows — is bit for bit the separate ops it replaced, and
    the leaner LAPACK acceptance is today's rule."""

    @pytest.mark.parametrize("name", sorted(FACTOR_CORPUS))
    def test_getrf_matches_todays_rule(self, name):
        D0, _Ls = FACTOR_CORPUS[name]
        ref, got = D0.copy(), D0.copy()
        with np.errstate(all="ignore"):
            want = today_getrf_nopiv(ref, eps=1e-8)
            assert getrf_nopiv(got, eps=1e-8) == want
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("name", sorted(FACTOR_CORPUS))
    def test_lu_op_is_getrf_then_per_block_trsms(self, name, stacked):
        D0, Ls0 = FACTOR_CORPUS[name]
        s = D0.shape[0]
        ref = D0.copy()
        with np.errstate(all="ignore"):
            want = today_getrf_nopiv(ref)
            ref_L = [trsm(ref, L.copy(), side="R", lower=False) for L in Ls0]
        panel = np.concatenate([D0, *Ls0])      # one C-contiguous panel
        targets = [panel[s:]] if stacked else [L.copy() for L in Ls0]
        op = kernels.panel_factor_op(kernels.GETRF, panel[:s], targets,
                                     lower=False)
        with np.errstate(all="ignore"):
            assert kernels.execute([op]) == want
        got_L = targets[0] if stacked else np.concatenate(targets)
        assert np.array_equal(panel[:s], ref, equal_nan=True)
        assert np.array_equal(got_L, np.concatenate(ref_L), equal_nan=True)

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("name", sorted(FACTOR_CORPUS))
    def test_cholesky_op_is_potrf_then_per_block_trsms(self, name, stacked):
        D0, Ls0 = FACTOR_CORPUS[name]
        s = D0.shape[0]
        D0 = np.tril(D0) + np.tril(D0, -1).T    # symmetric, same values
        panel = np.concatenate([D0, *Ls0])
        targets = [panel[s:]] if stacked else [L.copy() for L in Ls0]
        op = kernels.panel_factor_op(kernels.POTRF, panel[:s], targets,
                                     lower=True, trans=True)
        with np.errstate(all="ignore"):
            try:
                ref, want = potrf_shifted(D0.copy(), max_shifts=30)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    kernels.execute([op])
                return
            ref_L = [trsm(ref, L.copy(), side="R", lower=True, trans=True)
                     for L in Ls0]
            assert kernels.execute([op]) == want
        got_L = targets[0] if stacked else np.concatenate(targets)
        assert np.array_equal(panel[:s], ref, equal_nan=True)
        assert np.array_equal(got_L, np.concatenate(ref_L), equal_nan=True)

    @pytest.mark.parametrize("name", sorted(FACTOR_CORPUS))
    def test_tall_panel_is_one_dgetrf_under_todays_rule(self, name):
        """``GETRF`` over a packed panel: LAPACK's one ``dgetrf`` on the
        whole panel, taken under today's rule on the diagonal block — then
        the GESP factors up to rounding — else, bit for bit, the square
        factorization and the TRSM."""
        D0, Ls0 = FACTOR_CORPUS[name]
        s = D0.shape[0]
        ref = D0.copy()
        with np.errstate(all="ignore"):
            want = today_getrf_nopiv(ref)
            ref = np.concatenate([ref] + [trsm(ref, L.copy(), side="R",
                                               lower=False) for L in Ls0])
            panel = np.concatenate([D0, *Ls0])
            norm = np.abs(D0).max()
            lu, piv, info = la.lapack.dgetrf(panel)
            taken = info == 0 and (piv == np.arange(s)).all() and np.abs(
                lu.diagonal()).min() >= 1e-10 * (norm if norm > 0 else 1.0)
            op = (kernels.GETRF, panel, (), None, None)    # as bound
            assert kernels.execute([op]) == want
        if taken:
            assert want == 0 and np.isfinite(ref).all()
            assert _rel_err(panel, ref) <= RTOL
        else:
            assert np.array_equal(panel, ref, equal_nan=True)
        assert taken == name.startswith(("dominant", "one_by_one"))

    @given(st.integers(min_value=1, max_value=80), SEEDS,
           st.lists(st.integers(min_value=0, max_value=60), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_one_trsm_over_stacked_rows_is_bitwise_per_block(self, s, seed,
                                                             heights):
        rng = np.random.default_rng(seed)
        D = _dominant(rng, s)
        getrf_nopiv(D)
        Ls = [rng.standard_normal((m, s)) for m in heights]
        for flags in ({"lower": False}, {"lower": True, "trans": True}):
            stacked = np.concatenate([np.zeros((0, s)), *Ls])
            kernels.execute([kernels.trsm_op(D, stacked, side="R", **flags)]
                            if stacked.size else [])
            each = [trsm(D, L.copy(), side="R", **flags) for L in Ls]
            assert np.array_equal(stacked,
                                  np.concatenate([np.zeros((0, s)), *each]))


# -- Cholesky -----------------------------------------------------------------

def ref_potrf_shifted(A, eps=1e-10, max_shifts=30):
    """The pre-kernel-layer routine, on ``scipy.linalg.cholesky``."""
    n = A.shape[0]
    norm = np.abs(A).max()
    shift = eps * norm if norm > 0 else eps
    nshifts = 0
    M = A
    while True:
        try:
            return la.cholesky(M, lower=True), nshifts
        except la.LinAlgError:
            nshifts += 1
            if nshifts > max_shifts:
                raise
            M = A + shift * np.eye(n)
            shift *= 2.0


class TestPotrfShifted:
    @given(st.integers(min_value=1, max_value=60), SEEDS, LAYOUTS)
    @settings(max_examples=40, deadline=None)
    def test_spd_reads_only_the_lower_triangle(self, n, seed, layout):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        S = B @ B.T + n * np.eye(n)
        ref, _ = ref_potrf_shifted(S)
        stored = S.copy()
        stored[np.triu_indices(n, 1)] = np.nan
        A = _laid_out(stored, layout)
        L, nshift = potrf_shifted(A)
        assert nshift == 0
        assert _rel_err(L, ref) <= RTOL
        assert np.array_equal(np.triu(L, 1), np.zeros((n, n)))
        assert np.array_equal(A, stored, equal_nan=True)    # not modified

    @pytest.mark.parametrize("eig_min", [0.0, -1e-13, -1e-9, -1e-6])
    def test_shift_counts_unchanged_on_indefinite_blocks(self, eig_min):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        A = (Q * np.r_[eig_min, np.linspace(0.5, 3.0, 11)]) @ Q.T
        A = (A + A.T) / 2
        L, nshift = potrf_shifted(A, eps=1e-10)
        ref, want = ref_potrf_shifted(A, eps=1e-10)
        assert nshift == want
        assert nshift >= 1 or eig_min == 0.0
        assert np.allclose(L, ref, rtol=1e-9, atol=0)

    def test_gives_up_like_the_referee(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive"):
            potrf_shifted(-np.eye(4), eps=1e-16, max_shifts=3)


class TestPanelSolves:
    """The public panel functions return a new array and leave their
    argument alone (the in-place form is `trsm`)."""

    @given(st.integers(min_value=1, max_value=70),
           st.integers(min_value=1, max_value=70), SEEDS, LAYOUTS)
    @settings(max_examples=40, deadline=None)
    def test_values_and_no_mutation(self, s, m, seed, layout):
        rng = np.random.default_rng(seed)
        lu = _dominant(rng, s)
        getrf_nopiv(lu)
        L, U = np.tril(lu, -1) + np.eye(s), np.triu(lu)
        chol = np.linalg.cholesky(U.T @ U + np.eye(s))
        for fn, factor, T, shape, right in (
                (solve_upper_panel, lu, L, (s, m), False),
                (solve_lower_panel, lu, U, (m, s), True),
                (chol_panel_solve, chol, chol.T, (m, s), True)):
            B0 = rng.standard_normal(shape)
            B = _laid_out(B0, layout)
            X = fn(factor, B)
            assert X is not B and not np.shares_memory(X, B)
            assert np.array_equal(B, B0)
            ref = np.linalg.solve(T.T, B0.T).T if right \
                else np.linalg.solve(T, B0)
            assert _rel_err(X, ref) <= RTOL
