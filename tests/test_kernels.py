import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from coocmap import kernels
from coocmap.align import csls, match_bidirectional
from coocmap.cooc import CoocMatrix
from coocmap.errors import NumericError, ValidationError
from coocmap.kernels import (
    METRICS,
    centerc,
    check_finite,
    clip,
    clip_thresholds,
    drop_head,
    epow,
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
    def test_epow_sqrt(self):
        np.testing.assert_allclose(epow(np.array([[4.0, 9.0]]), 0.5), [[2.0, 3.0]])

    def test_epow_identity(self):
        X = np.array([[1.0, -2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(epow(X, 1.0), X)

    def test_epow_diag(self):
        np.testing.assert_allclose(
            epow(np.array([[1.0, 0.0], [0.0, 16.0]]), 0.5),
            [[1.0, 0.0], [0.0, 4.0]],
        )

    def test_epow_domain_error(self):
        with pytest.raises(ValidationError):
            epow(np.array([[-1.0]]), 0.5)

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

    def test_centerc(self):
        np.testing.assert_allclose(
            centerc(np.array([[1.0, 2.0], [3.0, 4.0]])), [[-1.0, -1.0], [1.0, 1.0]]
        )

    def test_centerc_idempotent(self):
        X = centerc(np.random.default_rng(0).random((4, 3)))
        np.testing.assert_allclose(centerc(X), X, atol=1e-15)

    def test_centerc_single_cell(self):
        np.testing.assert_array_equal(centerc(np.array([[5.0]])), [[0.0]])


class TestNormalize:
    def test_is_the_composition(self):
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
        f = svd(X)
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(f.Vt @ f.Vt.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)
        recon = (f.U * f.S) @ f.Vt
        assert np.linalg.norm(recon - X) <= 1e-6 * np.linalg.norm(X)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.random((5, 5))
        f1, f2 = svd(X), svd(X.copy())
        assert f1.U.tobytes() == f2.U.tobytes()
        assert f1.Vt.tobytes() == f2.Vt.tobytes()
        # largest-magnitude entry of each column is nonnegative
        lead = np.abs(f1.U).argmax(axis=0)
        assert np.all(f1.U[lead, np.arange(5)] >= 0)

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
    f = svd(X)
    r = min(r, f.S.size)
    return (f.U[:, :r] * f.S[:r]) @ f.Vt[:r]


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
        assert sim_matrix(X, Z, "neg_l2")[0, 0] == pytest.approx(-5.0)
        assert sim_matrix(X, Z, "neg_l1")[0, 0] == pytest.approx(-7.0)

    def test_dot(self):
        S = sim_matrix(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), "dot")
        assert S[0, 0] == 11.0

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            sim_matrix(np.ones((1, 2)), np.ones((1, 2)), "manhattan")

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            sim_matrix(np.ones((1, 2)), np.ones((1, 3)))


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


class TestPairSimMatrix:
    @pytest.mark.parametrize("metric", METRICS)
    @given(problem=pair_problems())
    @settings(max_examples=60, deadline=None)
    def test_equals_gathered_sim_matrix(self, metric, problem):
        X, Z, s, t = problem
        ref = sim_matrix(X[:, s], Z[:, t], metric)
        got = pair_sim_matrix(X, Z, s, t, metric)
        # a bound on the magnitude of the summed terms sets the rounding scale
        scale = 1.0 + s.size * 20.0 * max(1.0, np.abs(X).max(), np.abs(Z).max())
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
        k = min(2, *ref.shape)
        Cr, Cn = csls(ref, k), csls(got, k)
        # equal argmax; where the reference ties (within rounding), the pick
        # must be one of the tied columns
        picked = Cr[np.arange(Cr.shape[0]), Cn.argmax(axis=1)]
        assert np.all(picked >= Cr.max(axis=1) - 1e-10 * scale)

    @pytest.mark.parametrize("metric", METRICS)
    def test_matched_pairs_from_a_real_iteration(self, metric):
        rng = np.random.default_rng(21)
        X, Z = rng.random((40, 40)), rng.random((40, 50))
        X[3] = 0.0
        state = match_bidirectional(rng.random((40, 50)) ** 8)
        assert np.unique(state.s * 50 + state.t).size < state.s.size  # repeated pairs
        ref = sim_matrix(X[:, state.s], Z[:, state.t], metric)
        got = pair_sim_matrix(X, Z, state.s, state.t, metric)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(csls(got, 5).argmax(axis=1), csls(ref, 5).argmax(axis=1))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("s, t", [([-1], [0]), ([3], [0]), ([0], [4]), ([0], [-1]),
                                      ([0, 1], [0]), ([], [])])
    def test_bad_indices_rejected(self, metric, s, t):
        with pytest.raises(ValidationError):
            pair_sim_matrix(np.ones((2, 3)), np.ones((2, 4)), s, t, metric)

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            pair_sim_matrix(np.ones((1, 2)), np.ones((1, 2)), [0], [1], "manhattan")


CDIST_METRICS = {"neg_l1": "cityblock", "neg_l2": "euclidean"}


@pytest.fixture
def cdist_calls(monkeypatch):
    """Records, per call of kernels.cdist, whether both operands are C-contiguous."""
    calls = []

    def recorder(XA, XB, metric):
        calls.append((XA.flags.c_contiguous, XB.flags.c_contiguous))
        return cdist(XA, XB, metric=metric)

    monkeypatch.setattr(kernels, "cdist", recorder)
    return calls


class TestCdistLayout:
    """cdist walks its operands row by row: a column gather hands it
    column-major rows and costs about 2.5x on the sweep's 500 x 707 calls."""

    @pytest.mark.parametrize("metric", CDIST_METRICS)
    def test_pair_operands_are_row_major_and_exact(self, cdist_calls, metric):
        rng = np.random.default_rng(5)
        X, Z = rng.random((30, 40)), rng.random((35, 50))
        state = match_bidirectional(rng.random((40, 50)) ** 8)
        got = pair_sim_matrix(X, Z, state.s, state.t, metric)
        pairs, w = np.unique(state.s * 50 + state.t, return_counts=True)
        w = w if metric == "neg_l1" else np.sqrt(w)
        ref = -cdist(X[:, pairs // 50] * w, Z[:, pairs % 50] * w, metric=CDIST_METRICS[metric])
        assert cdist_calls == [(True, True)]
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("metric", CDIST_METRICS)
    def test_column_major_input_is_made_contiguous(self, cdist_calls, metric):
        rng = np.random.default_rng(6)
        X, Z = np.asfortranarray(rng.random((20, 30))), rng.random((25, 60))[:, ::2]
        got = sim_matrix(X, Z, metric)
        assert cdist_calls == [(True, True)]
        assert np.array_equal(got, -cdist(X, Z, metric=CDIST_METRICS[metric]))

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
