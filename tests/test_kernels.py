import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg
from scipy.spatial.distance import cdist

from coocmap import kernels
from coocmap.align import csls, match_bidirectional
from coocmap.cooc import CoocMatrix
from coocmap.errors import NumericError, ValidationError
from coocmap.kernels import (
    METRICS,
    check_finite,
    clip,
    clip_thresholds,
    drop_head,
    normalize,
    pair_sim_matrix,
    procrustes,
    psd_sqrt_gram,
    sim_matrix,
    svd,
    trunc,
    unitr,
    unitr_l1,
)
from coocmap.presets import align_config, execute_preset, get_preset

finite = st.floats(-10, 10, allow_nan=False, width=64)


def small_matrices(min_side=1, max_side=8, elements=finite):
    shapes = st.tuples(
        st.integers(min_side, max_side), st.integers(min_side, max_side)
    )
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=elements))


def ref_percentile(values, p):
    """Independent linear-interpolation percentile for the clip oracle."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    h = (len(xs) - 1) * p / 100.0
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class TestElementwise:
    def test_unitr_345(self):
        np.testing.assert_allclose(unitr(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_unitr_zero_row_preserved(self):
        np.testing.assert_array_equal(unitr(np.array([[0.0, 0.0]])), [[0.0, 0.0]])

    def test_unitr_idempotent_on_unit_rows(self):
        X = unitr(np.array([[1.0, 2.0], [0.0, -3.0]]))
        np.testing.assert_allclose(unitr(X), X)

    def test_unitr_l1_zero_row(self):
        X = np.array([[1.0, -3.0], [0.0, 0.0]])
        np.testing.assert_allclose(unitr_l1(X), [[0.25, -0.75], [0.0, 0.0]])


class TestNormalize:
    def test_is_the_composition(self):
        def centerc(X):  # subtract the column means
            return X - X.mean(axis=0, keepdims=True)

        X = np.random.default_rng(1).random((4, 4))
        np.testing.assert_array_equal(normalize(X), unitr(centerc(unitr(X))))

    def test_equal_rows_annihilated(self):
        X = np.tile([1.0, 2.0, 3.0], (4, 1))
        np.testing.assert_allclose(normalize(X), np.zeros((4, 3)), atol=1e-15)

    def test_identity_2x2(self):
        r = np.sqrt(0.5)
        np.testing.assert_allclose(
            normalize(np.eye(2)), [[r, -r], [-r, r]], atol=1e-12
        )

    def test_tiny_rows_reach_unit_norm(self):
        # the centered first column is +-4e-160: its square is subnormal
        X = np.array([[7.934277e-160, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            np.linalg.norm(normalize(X), axis=1), [1.0, 1.0], rtol=1e-12
        )
        np.testing.assert_allclose(unitr(np.full((1, 2), 1e-170)), [[0.5**0.5] * 2])

    @pytest.mark.parametrize("shape", [(1500, 1500), (257, 1000), (1000, 513), (600, 300),
                                       (3, 7)])
    def test_blocked_norms_equal_the_whole_matrix_norm_bitwise(self, shape):
        X = np.random.default_rng(shape[0]).random(shape)
        want = X / np.linalg.norm(X, axis=1, keepdims=True)
        assert unitr(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1500, 1500), (257, 1000), (600, 300), (3, 7)])
    def test_blocked_normalize_equals_the_whole_matrix_chain_bitwise(self, shape):
        X = np.random.default_rng(shape[1]).random(shape)
        Y = X / np.linalg.norm(X, axis=1, keepdims=True)
        Y -= Y.mean(axis=0, keepdims=True)
        want = Y / np.linalg.norm(Y, axis=1, keepdims=True)
        assert normalize(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(600, 300), (3, 7)])
    def test_float32_buffer_normalized_in_float64_and_rounded_once(self, shape):
        X = np.random.default_rng(3).random(shape).astype(np.float32)
        got = kernels._normalize_inplace(X.copy())
        assert got.dtype == np.float32
        assert got.tobytes() == normalize(X).astype(np.float32).tobytes()

    def test_unitr_extra_memory_is_a_block_of_rows(self):
        # the result, plus squares for about 256 rows at a time; the
        # whole-matrix norm held a second V x V array of squares (2 V^2)
        V = 1200
        X = np.random.default_rng(2).random((V, V))
        tracemalloc.start()
        try:
            unitr(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * V**2 * 8

    @given(small_matrices(min_side=2))
    @settings(max_examples=80)
    def test_rows_unit_or_zero(self, X):
        norms = np.linalg.norm(normalize(X), axis=1)
        for n in norms:
            assert abs(n - 1.0) <= 1e-10 or n == 0.0


class TestPercentileAndClip:
    def test_constant_matrix_unchanged(self):
        X = np.full((3, 4), 2.5)
        np.testing.assert_array_equal(clip(X, 1, 99), X)

    def test_inside_range_unchanged(self):
        # repeated extremes put the thresholds exactly at min/max
        rng = np.random.default_rng(3)
        X = rng.uniform(0.2, 0.8, size=(10, 100))
        X[:, :5] = 0.0
        X[:, -5:] = 1.0
        lo, hi = clip_thresholds(X, 1, 99)
        assert (lo, hi) == (0.0, 1.0)
        np.testing.assert_array_equal(clip(X, 1, 99), X)

    def test_outlier_pulled_to_threshold(self):
        # every row shares the minimum so only the outlier moves
        X = np.array([[5.0, 5.0, 7.0], [5.0, 7.0, 5.0], [5.0, 5.0, 1000.0]])
        row_his = [ref_percentile(row, 99) for row in X]
        hi = ref_percentile(row_his, 99)
        lo = ref_percentile([ref_percentile(row, 1) for row in X], 1)
        assert lo == 5.0 and hi == pytest.approx(960.6372)
        got = clip(X, 1, 99)
        expected = X.copy()
        expected[2, 2] = hi
        np.testing.assert_allclose(got, expected)

    def test_thresholds_validation(self):
        with pytest.raises(ValidationError):
            clip_thresholds(np.ones((2, 2)), 99, 1)

    def test_thresholds_match_separate_percentiles(self):
        X = np.random.default_rng(4).random((40, 300))
        lo, hi = clip_thresholds(X, 1.5, 98.5)
        assert lo == float(np.percentile(np.percentile(X, 1.5, axis=1), 1.5))
        assert hi == float(np.percentile(np.percentile(X, 98.5, axis=1), 98.5))

    @given(small_matrices(min_side=2))
    @settings(max_examples=80)
    def test_bounds_and_order_preserved(self, X):
        lo, hi = clip_thresholds(X, 1, 99)
        Y = clip(X, 1, 99)
        assert Y.min() >= lo - 1e-12 and Y.max() <= hi + 1e-12
        order = np.argsort(X, axis=None, kind="stable")
        assert np.all(np.diff(Y.flat[order]) >= 0)


class TestSvdOps:
    def test_factors_contract(self):
        rng = np.random.default_rng(4)
        X = rng.random((6, 4))
        U, S, Vt = svd(X)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(Vt @ Vt.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(S) <= 0) and np.all(S >= 0)
        recon = (U * S) @ Vt
        assert np.linalg.norm(recon - X) <= 1e-6 * np.linalg.norm(X)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.random((5, 5))
        (U1, _, Vt1), (U2, _, Vt2) = svd(X), svd(X.copy())
        assert U1.tobytes() == U2.tobytes()
        assert Vt1.tobytes() == Vt2.tobytes()
        # largest-magnitude entry of each column is nonnegative
        lead = np.abs(U1).argmax(axis=0)
        assert np.all(U1[lead, np.arange(5)] >= 0)

    def test_drop_rank1_gives_zero(self):
        u = np.array([[1.0], [2.0], [3.0]])
        X = u @ u.T
        assert np.abs(drop_head(X, 1)).max() <= 1e-8

    def test_drop_zero_is_identity(self):
        X = np.random.default_rng(6).random((4, 4))
        np.testing.assert_array_equal(drop_head(X, 0), X)

    def test_drop_diagonal(self):
        np.testing.assert_allclose(
            drop_head(np.diag([3.0, 2.0, 1.0]), 1), np.diag([0.0, 2.0, 1.0]), atol=1e-12
        )

    def test_drop_spectral_property(self):
        rng = np.random.default_rng(7)
        X = rng.random((10, 8))
        s = np.linalg.svd(X, compute_uv=False)
        for r in (1, 3):
            top = np.linalg.svd(drop_head(X, r), compute_uv=False)[0]
            assert top == pytest.approx(s[r], abs=1e-6)

    def test_trunc_diagonal(self):
        np.testing.assert_allclose(
            trunc(np.diag([3.0, 1.0]), 1), [[3.0, 0.0], [0.0, 0.0]], atol=1e-12
        )

    def test_trunc_full_rank_is_identity(self):
        X = np.random.default_rng(8).random((4, 4))
        np.testing.assert_allclose(trunc(X, 4), X, atol=1e-10)
        np.testing.assert_allclose(trunc(X, 9), X, atol=1e-10)

    def test_trunc_numerical_rank(self):
        X = np.random.default_rng(9).random((6, 6))
        s = np.linalg.svd(trunc(X, 2), compute_uv=False)
        assert np.all(s[2:] <= 1e-8 * s[0])

    def test_trunc_beats_random_competitors(self):
        rng = np.random.default_rng(10)
        X = rng.random((5, 5))
        best = np.linalg.norm(X - trunc(X, 2))
        for _ in range(100):
            A = rng.standard_normal((5, 2))
            B = rng.standard_normal((2, 5))
            scale = np.trace(B @ X.T @ A) / np.linalg.norm(A @ B) ** 2
            assert best <= np.linalg.norm(X - scale * (A @ B)) + 1e-12

    def test_psd_sqrt_diag(self):
        np.testing.assert_allclose(
            psd_sqrt_gram(np.diag([1.0, 2.0])), np.diag([1.0, 2.0]), atol=1e-12
        )

    def test_psd_sqrt_orthonormal_rows(self):
        Q = np.linalg.qr(np.random.default_rng(11).random((3, 3)))[0]
        np.testing.assert_allclose(psd_sqrt_gram(Q), np.eye(3), atol=1e-10)

    def test_psd_sqrt_squares_to_gram(self):
        Xv = np.random.default_rng(12).random((3, 2))
        R = psd_sqrt_gram(Xv)
        np.testing.assert_allclose(R, R.T, atol=1e-10)
        np.testing.assert_allclose(R @ R, Xv @ Xv.T, atol=1e-6)


def svd_trunc(X, r):
    """Reference rank-r truncation from the full SVD."""
    U, S, Vt = svd(X)
    r = min(r, S.size)
    return (U[:, :r] * S[:r]) @ Vt[:r]


def split_resolved(s, r):
    """Whether the rank-r truncation is determined to working precision: the
    singular values separate at r (gap > 1e-3 sigma_1), or r covers the rank
    and the rank itself separates from a tail at rounding level."""
    if s.size == 0 or s[0] == 0.0 or r == 0 or r >= s.size:
        return True
    gap = 1e-3 * s[0]
    if s[r - 1] - s[r] > gap:
        return True
    return any(s[k - 1] - s[k] > gap and s[k] <= 1e-13 * s[0] for k in range(1, r + 1))


@st.composite
def trunc_problems(draw):
    """Tall, wide and square matrices, dense or a product of thinner factors
    (rank-deficient), and ranks from 0 to past min(shape)."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    inner = draw(st.integers(0, min(m, n)))
    if inner == min(m, n):
        X = draw(arrays(np.float64, (m, n), elements=finite))
    else:
        A = draw(arrays(np.float64, (m, inner), elements=finite))
        B = draw(arrays(np.float64, (inner, n), elements=finite))
        X = A @ B
    return X, draw(st.integers(0, min(m, n) + 2))


class TestTruncByGram:
    @given(problem=trunc_problems())
    # rank 1 with a 1e-63 row: scipy's subset eigensolver returns far from
    # orthonormal vectors for the null cluster that r = 4 reaches into
    @example(problem=(np.outer([1.0, 0.0, 1.25, 1.433520561335716e-63, 0.0], np.ones(5)), 4))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_svd_truncation(self, problem):
        X, r = problem
        s = np.linalg.svd(X, compute_uv=False)
        got, ref = trunc(X, r), svd_trunc(X, r)
        assert got.shape == X.shape
        np.testing.assert_array_equal(drop_head(X, r), X - got)
        if split_resolved(s, r):
            # subnormal entries are spaced 5e-324 apart: an absolute floor
            tol = 1e-10 * (s[0] if s.size else 0.0) + 1e-300
            assert np.abs(got - ref).max(initial=0.0) <= tol

    @pytest.mark.parametrize("shape", [(30, 30), (40, 12), (12, 40)])
    def test_random_spectra(self, shape):
        rng = np.random.default_rng(sum(shape))
        k = min(shape)
        for _ in range(100):
            rank = int(rng.integers(1, k + 1))
            U = np.linalg.qr(rng.standard_normal((shape[0], rank)))[0]
            V = np.linalg.qr(rng.standard_normal((shape[1], rank)))[0]
            sv = np.sort(rng.uniform(0.01, 1.0, rank))[::-1] * 10.0 ** rng.integers(-5, 6)
            X = (U * sv) @ V.T
            s = np.linalg.svd(X, compute_uv=False)
            for r in (0, 1, rank // 2, rank, k, k + 3):
                if split_resolved(s, r):
                    diff = np.abs(trunc(X, r) - svd_trunc(X, r)).max()
                    assert diff <= 1e-10 * s[0]

    def test_zero_rank_and_zero_matrix(self):
        X = np.random.default_rng(13).random((3, 5))
        np.testing.assert_array_equal(trunc(X, 0), np.zeros((3, 5)))
        np.testing.assert_array_equal(trunc(np.zeros((4, 2)), 1), np.zeros((4, 2)))

    def test_negative_rank_rejected(self):
        for f in (trunc, drop_head):
            with pytest.raises(ValidationError):
                f(np.eye(2), -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("f", [trunc, drop_head])
    @pytest.mark.parametrize("r", [0, 1, 5])
    def test_non_finite_raises(self, bad, f, r):
        X = np.random.default_rng(14).random((4, 3))
        X[2, 1] = bad
        with pytest.raises(NumericError):
            f(X, r)

    def test_extreme_magnitudes(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 4))
        for scale in (1e-200, 1e200):
            np.testing.assert_allclose(
                trunc(X * scale, 2), svd_trunc(X, 2) * scale, rtol=0, atol=1e-12 * scale
            )


def clip_thresholds_whole(X, p_lo, p_hi):
    """clip_thresholds as one whole-matrix percentile of a float64 copy."""
    row_lo, row_hi = np.percentile(np.asarray(X, dtype=np.float64), [p_lo, p_hi], axis=1)
    return float(np.percentile(row_lo, p_lo)), float(np.percentile(row_hi, p_hi))


def clip_whole(X, p_lo, p_hi):
    return np.clip(np.asarray(X, dtype=np.float64), *clip_thresholds_whole(X, p_lo, p_hi))


def trunc_whole(X, r):
    """trunc on a float64 copy of X, its Gram matrix handed to eigh as it is."""
    X = np.asarray(X, dtype=np.float64)
    k, r = min(X.shape), min(r, min(X.shape))
    if r == 0:
        return np.zeros_like(X)
    Xs = np.ldexp(X, -int(np.frexp(max(X.max(), -X.min()))[1]))
    tall = X.shape[0] > X.shape[1]
    G = Xs.T @ Xs if tall else Xs @ Xs.T
    Q = linalg.eigh(G, subset_by_index=[k - r, k - 1])[1]
    return (X @ Q) @ Q.T if tall else Q @ (Q.T @ X)


def drop_whole(X, r):
    X = np.asarray(X, dtype=np.float64)
    return X - trunc_whole(X, r)


class TestStageKernelsAgainstWholeMatrixFormulas:
    """clip, clip_thresholds, trunc and drop_head equal, bit for bit, the
    whole-matrix formulas they replace (float64 copies of the input, a
    percentile over the whole matrix, a C-ordered Gram matrix), on float32
    and float64 inputs, and leave their inputs as they were."""

    SHAPES = [(600, 300), (300, 700), (513, 40), (40, 513), (257, 257), (3, 5), (5, 3)]

    @staticmethod
    def _check(f, oracle, X, *args):
        before = X.tobytes()
        got, want = f(X, *args), oracle(X, *args)
        assert X.tobytes() == before
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.dtype == np.float64 and not np.shares_memory(got, X)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_clip(self, shape, dtype):
        X = np.random.default_rng(sum(shape)).standard_normal(shape).astype(dtype)
        for p in ((1.0, 99.0), (5, 95), (0, 100)):
            self._check(clip_thresholds, clip_thresholds_whole, X, *p)
            self._check(clip, clip_whole, X, *p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_trunc_and_drop(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        X = (rng.random(shape) + np.outer(rng.random(shape[0]), rng.random(shape[1]))).astype(dtype)
        k = min(shape)
        for r in sorted({0, 1, min(20, k), k, k + 3}):
            self._check(trunc, trunc_whole, X, r)
            self._check(drop_head, drop_whole, X, r)

    def test_drop_head_extra_memory_on_float32(self):
        # a float32 input is read as float64 without a float64 copy of it:
        # the scaled copy beside the Gram matrix (2 V^2), then the result,
        # which the difference overwrites; a copy of X first made it 3 V^2
        V = 1024
        X = np.random.default_rng(3).random((V, V), dtype=np.float32)
        tracemalloc.start()
        try:
            drop_head(X, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * V**2 * 8 + 256 * V * 8

    def test_clip_extra_memory_on_float32(self):
        # the result and one block of rows' copy for the percentiles; the
        # whole-matrix percentile copied the float64 matrix again (2 V^2)
        V = 1024
        X = np.random.default_rng(4).random((V, V), dtype=np.float32)
        tracemalloc.start()
        try:
            clip(X, 1, 99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < V**2 * 8 + 256 * V * 8


class TestSimMatrix:
    def test_identical_rows_cosine_one(self):
        X = np.array([[1.0, 2.0]])
        assert sim_matrix(X, X, "cosine")[0, 0] == pytest.approx(1.0)

    def test_orthogonal_rows_cosine_zero(self):
        S = sim_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), "cosine")
        assert S[0, 0] == pytest.approx(0.0)

    def test_zero_row_convention(self):
        S = sim_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), "cosine")
        assert S[0, 0] == 0.0

    def test_unit_diagonal_for_nonzero_rows(self):
        X = np.random.default_rng(13).random((5, 3)) + 0.1
        np.testing.assert_allclose(np.diag(sim_matrix(X, X, "cosine")), 1.0, atol=1e-12)

    def test_negative_distances(self):
        X = np.array([[0.0, 0.0]])
        Z = np.array([[3.0, 4.0]])
        assert sim_matrix(X, Z, "neg_l1")[0, 0] == pytest.approx(-7.0)

    def test_dot(self):
        S = sim_matrix(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), "dot")
        assert S[0, 0] == 11.0

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            sim_matrix(np.ones((1, 2)), np.ones((1, 2)), "manhattan")

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_float32_operands_give_the_float64_product_rounded_once(self, metric):
        rng = np.random.default_rng(6)
        X, Z = rng.random((5, 4)), rng.random((3, 4))
        X32, Z32 = X.astype(np.float32), Z.astype(np.float32)
        got = sim_matrix(X32, Z32, metric)
        assert got.dtype == np.float32
        want = sim_matrix(X32.astype(np.float64), Z32.astype(np.float64), metric)
        assert got.tobytes() == want.astype(np.float32).tobytes()
        assert sim_matrix(X32, Z, metric).dtype == np.float64  # one float64 operand

    def test_float32_product_is_formed_in_blocks_under_a_v2_float64_array(self):
        # the float32 result plus float64 copies of two blocks of rows and
        # their product block; a whole float64 product or operand copy would
        # add V^2 float64
        V = 1200
        rng = np.random.default_rng(7)
        X, Z = rng.random((V, V), dtype=np.float32), rng.random((V, V), dtype=np.float32)
        tracemalloc.start()
        try:
            got = sim_matrix(X, Z, "dot")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * V**2 * 8 + 3 * 256 * V * 8
        want = (X.astype(np.float64) @ Z.astype(np.float64).T).astype(np.float32)
        # blocks may sum in another order: within float32 rounding of the whole product
        np.testing.assert_allclose(got, want, rtol=2.0**-23, atol=0)

    def test_l1_reads_float32_operands_in_float64(self):
        rng = np.random.default_rng(7)
        X32, Z32 = rng.random((5, 4), dtype=np.float32), rng.random((3, 4), dtype=np.float32)
        got = sim_matrix(X32, Z32, "neg_l1")
        want = sim_matrix(X32.astype(np.float64), Z32.astype(np.float64), "neg_l1")
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            sim_matrix(np.ones((1, 2)), np.ones((1, 3)), "cosine")


# no subnormals: their squares lose the bits both norm computations rely on
tame = st.floats(-10, 10, allow_nan=False, width=64).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


@st.composite
def pair_problems(draw):
    """X (n x V1), Z (m x V2) with some all-zero rows, and arbitrary paired
    column indices: repeats, gaps and any length, as dictionary seeds give."""
    n, m, v1, v2 = (draw(st.integers(1, 6)) for _ in range(4))
    X = draw(arrays(np.float64, (n, v1), elements=tame))
    Z = draw(arrays(np.float64, (m, v2), elements=tame))
    X[draw(arrays(bool, n))] = 0.0
    Z[draw(arrays(bool, m))] = 0.0
    pairs = draw(st.lists(st.tuples(st.integers(0, v1 - 1), st.integers(0, v2 - 1)),
                          min_size=1, max_size=12))
    s, t = (np.array(c) for c in zip(*pairs))
    return X, Z, s, t


def measure_bound(Z):
    """pair_sim_matrix's derived float32 error bound on every cosine entry:
    (n + 2) * 2**-24 for n = Z.shape[1] summed terms."""
    return (Z.shape[1] + 2) * 2.0**-24


class TestPairSimMatrix:
    """The float64 gathered `sim_matrix` is the oracle. cosine runs one
    float32 GEMM: it is held to the docstring's bound, and a CSLS entry
    then moves by at most twice it (its entry and its mean penalties), so a
    CSLS pick lies within four times the bound of the oracle's best."""

    @pytest.mark.parametrize("metric", METRICS)
    @given(problem=pair_problems())
    @settings(max_examples=60, deadline=None)
    def test_equals_gathered_sim_matrix(self, metric, problem):
        X, Z, s, t = problem
        ref = sim_matrix(X[:, s], Z[:, t], metric)
        got = pair_sim_matrix(X, Z, s, t, metric)
        # a bound on the magnitude of the summed terms sets the oracle's
        # float64 rounding scale
        scale = 1.0 + s.size * 20.0 * max(1.0, np.abs(X).max(), np.abs(Z).max())
        if metric == "cosine":
            err = measure_bound(Z)
            assert np.all(np.abs(got - ref) <= err + 1e-12 * scale)
            drift = 2 * err
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
            drift = 0.0
        k = min(2, *ref.shape)
        Cr, Cn = csls(ref, k), csls(got, k)
        # equal argmax; where the reference ties (within rounding), the pick
        # must be one of the tied columns
        picked = Cr[np.arange(Cr.shape[0]), Cn.argmax(axis=1)]
        assert np.all(picked >= Cr.max(axis=1) - 2 * drift - 1e-10 * scale)

    @pytest.mark.parametrize("metric", METRICS)
    def test_matched_pairs_from_a_real_iteration(self, metric):
        rng = np.random.default_rng(21)
        X, Z = rng.random((40, 40)), rng.random((40, 50))
        X[3] = 0.0
        state = match_bidirectional(rng.random((40, 50)) ** 8)
        assert np.unique(state.s * 50 + state.t).size < state.s.size  # repeated pairs
        ref = sim_matrix(X[:, state.s], Z[:, state.t], metric)
        got = pair_sim_matrix(X, Z, state.s, state.t, metric)
        if metric != "cosine":
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(csls(got, 5).argmax(axis=1), csls(ref, 5).argmax(axis=1))
            return
        err = measure_bound(Z)
        assert np.all(np.abs(got - ref) <= err + 1e-12)
        drift = 2 * err
        Cr, Cn = csls(ref, 5), csls(got, 5)
        top2 = np.sort(Cr, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 2 * drift
        assert clear.sum() >= 30  # the check below is not vacuous
        np.testing.assert_array_equal(Cn.argmax(axis=1)[clear], Cr.argmax(axis=1)[clear])
        picked = Cr[np.arange(40), Cn.argmax(axis=1)]
        assert np.all(picked >= Cr.max(axis=1) - 2 * drift)

    @pytest.mark.parametrize("metric", ["cosine"])
    def test_bound_holds_on_near_parallel_rows(self, metric):
        # long positive rows a hair apart: every summed term adds with the
        # same sign, and the cosines sit within 1e-9 of 1
        rng = np.random.default_rng(8)
        n = 3000
        base = rng.random(n) + 0.5
        X = base * (1.0 + 1e-5 * rng.standard_normal((20, n)))
        Z = base * (1.0 + 1e-5 * rng.standard_normal((30, n)))
        s = np.concatenate([np.arange(n), rng.integers(0, n, 500)])
        t = np.concatenate([np.arange(n), s[n:]])
        ref = sim_matrix(X[:, s], Z[:, t], metric)
        got = pair_sim_matrix(X, Z, s, t, metric)
        assert ref.min() > 1.0 - 1e-9
        assert np.all(np.abs(got - ref) <= measure_bound(Z) * (1 + 1e-6))

    @pytest.mark.parametrize("metric", ["cosine"])
    def test_bound_holds_on_float32_operands(self, metric):
        # the rows above, stored as float32 as the package stores its
        # associations; the oracle measures the same float32 values in
        # float64. A row of float32 subnormals ([1e-40, 2e-40, 3e-40], far
        # below float32's normal range) still has float64 squares in the
        # normal range, so its norm and the bound hold
        rng = np.random.default_rng(8)
        n = 3000
        base = rng.random(n) + 0.5
        X = (base * (1.0 + 1e-5 * rng.standard_normal((20, n)))).astype(np.float32)
        Z = (base * (1.0 + 1e-5 * rng.standard_normal((30, n)))).astype(np.float32)
        X[0, :3], X[0, 3:] = np.array([1e-40, 2e-40, 3e-40], dtype=np.float32), 0.0
        Z[0, :3], Z[0, 3:] = [1.0, 2.0, 3.0], 0.0
        assert 0.0 < X[0, 0] < np.finfo(np.float32).tiny
        s = np.concatenate([np.arange(n), rng.integers(0, n, 500)])
        t = np.concatenate([np.arange(n), s[n:]])
        ref = sim_matrix(X.astype(np.float64)[:, s], Z.astype(np.float64)[:, t], metric)
        got = pair_sim_matrix(X, Z, s, t, metric)
        assert got.dtype == np.float32
        assert ref[1:, 1:].min() > 1.0 - 1e-9 and ref[0, 0] > 1.0 - 1e-9
        assert np.all(np.abs(got - ref) <= measure_bound(Z) * (1 + 1e-6))

    def test_extra_memory_within_its_model(self):
        # 1.5 V^2 with the result: the float32 operands beside their float32
        # product, the result; the float64 path held X M beside a V x V array
        # of squares (2 V^2)
        V = 1024
        rng = np.random.default_rng(9)
        X, Z = rng.random((V, V), dtype=np.float32), rng.random((V, V), dtype=np.float32)
        state = match_bidirectional(rng.random((V, V)))
        tracemalloc.start()
        try:
            pair_sim_matrix(X, Z, state.s, state.t, "cosine")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * V**2 * 8

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("s, t", [([-1], [0]), ([3], [0]), ([0], [4]), ([0], [-1]),
                                      ([0, 1], [0]), ([], [])])
    def test_bad_indices_rejected(self, metric, s, t):
        with pytest.raises(ValidationError):
            pair_sim_matrix(np.ones((2, 3)), np.ones((2, 4)), s, t, metric)

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            pair_sim_matrix(np.ones((1, 2)), np.ones((1, 2)), [0], [1], "manhattan")


@pytest.fixture
def cdist_calls(monkeypatch):
    """Records, per call of scipy's cdist, whether both operands are
    C-contiguous. kernels imports cdist where it calls it, so patching the
    scipy module sees every call."""
    calls = []

    def recorder(XA, XB, metric):
        calls.append((XA.flags.c_contiguous, XB.flags.c_contiguous))
        return cdist(XA, XB, metric=metric)

    monkeypatch.setattr(scipy.spatial.distance, "cdist", recorder)
    return calls


class TestCdistLayout:
    """cdist walks its operands row by row: a column gather hands it
    column-major rows and costs about 2.5x on the sweep's 500 x 707 calls."""

    @pytest.mark.parametrize("metric", ["neg_l1"])
    def test_pair_operands_are_row_major_and_exact(self, cdist_calls, metric):
        rng = np.random.default_rng(5)
        X, Z = rng.random((30, 40)), rng.random((35, 50))
        state = match_bidirectional(rng.random((40, 50)) ** 8)
        got = pair_sim_matrix(X, Z, state.s, state.t, metric)
        pairs, w = np.unique(state.s * 50 + state.t, return_counts=True)
        ref = -cdist(X[:, pairs // 50] * w, Z[:, pairs % 50] * w, metric="cityblock")
        assert cdist_calls == [(True, True)]
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("metric", ["neg_l1"])
    def test_column_major_input_is_made_contiguous(self, cdist_calls, metric):
        rng = np.random.default_rng(6)
        X, Z = np.asfortranarray(rng.random((20, 30))), rng.random((25, 60))[:, ::2]
        got = sim_matrix(X, Z, metric)
        assert cdist_calls == [(True, True)]
        assert np.array_equal(got, -cdist(X, Z, metric="cityblock"))

    @pytest.mark.parametrize("preset", ["rapp", "fung"])
    def test_every_call_of_an_l1_run_is_row_major(self, cdist_calls, preset):
        rng = np.random.default_rng(7)
        C1, C2 = (CoocMatrix(M + M.T, 1, "t", 1000)
                  for M in rng.integers(0, 40, size=(2, 30, 30)).astype(float))
        execute_preset(align_config(get_preset(preset), csls_k=3, max_iters=4), C1, C2)
        assert len(cdist_calls) > 2  # the init and every iteration's measure
        assert all(a and b for a, b in cdist_calls)


class TestCheckFinite:
    def test_passes_finite_through(self):
        S = np.eye(2)
        assert check_finite(S, "test") is S

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        S = np.eye(3)
        S[1, 2] = bad
        with pytest.raises(NumericError):
            check_finite(S, "test")


def random_rotation(d, rng):
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return Q


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        X = np.random.default_rng(14).random((6, 3))
        np.testing.assert_allclose(procrustes(X, X), np.eye(3), atol=1e-8)

    def test_recovers_constructed_rotation(self):
        rng = np.random.default_rng(15)
        X = rng.random((10, 4))
        R = random_rotation(4, rng)
        W = procrustes(X, X @ R)
        np.testing.assert_allclose(W, R, atol=1e-6)

    def test_orthogonality(self):
        rng = np.random.default_rng(16)
        W = procrustes(rng.random((8, 3)), rng.random((8, 3)))
        np.testing.assert_allclose(W.T @ W, np.eye(3), atol=1e-8)

    def test_beats_random_orthogonal_competitors(self):
        rng = np.random.default_rng(17)
        X, Z = rng.random((7, 3)), rng.random((7, 3))
        best = np.linalg.norm(X @ procrustes(X, Z) - Z)
        for _ in range(100):
            assert best <= np.linalg.norm(X @ random_rotation(3, rng) - Z) + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(18)
        X, Z = rng.random((9, 3)), rng.random((9, 3))
        perm = rng.permutation(9)
        np.testing.assert_allclose(
            procrustes(X, Z), procrustes(X[perm], Z[perm]), atol=1e-8
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            procrustes(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            procrustes(np.zeros((3, 0)), np.zeros((3, 0)))
