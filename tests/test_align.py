import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coocmap.align import (
    AlignConfig,
    MatchState,
    coocmap_selflearn,
    csls,
    drop_schedule,
    match_bidirectional,
    objective,
    run_coocmap,
    run_vecmap,
    stage_steps,
    unsupervised_init,
    vec_measure,
    vecmap_selflearn,
)
from coocmap.assoc import Step, build
from coocmap.cooc import CoocMatrix, count_cooc, permute_cooc
from coocmap.corpus import build_vocab, encode, tokenize
from coocmap.errors import NumericError, ValidationError
from coocmap.presets import align_config, get_preset
from coocmap.synth import generate_corpus

finite = st.floats(-5, 5, allow_nan=False, width=64)


def sim_strategy(max_side=7):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite))


class TestCsls:
    def test_identity_2x2_k1(self):
        np.testing.assert_allclose(
            csls(np.eye(2), 1), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12
        )

    def test_1x1(self):
        np.testing.assert_allclose(csls(np.array([[3.7]]), 1), [[0.0]])

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            csls(np.eye(2), 3)
        with pytest.raises(ValidationError):
            csls(np.eye(2), 0)

    @given(sim_strategy(), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=80)
    def test_shift_invariance(self, S, c):
        k = min(S.shape)
        np.testing.assert_allclose(csls(S + c, k), csls(S, k), atol=1e-9)

    def test_full_k_subtracts_half_means(self):
        rng = np.random.default_rng(0)
        S = rng.random((6, 6))
        expect = S - (S.mean(1)[:, None] + S.mean(0)[None, :]) / 2
        np.testing.assert_allclose(csls(S, 6), expect, atol=1e-12)

    def test_positive_scaling_keeps_argmax_structure(self):
        rng = np.random.default_rng(1)
        S = rng.random((5, 5))
        a = csls(S, 2).argmax(axis=1)
        b = csls(4.2 * S, 2).argmax(axis=1)
        np.testing.assert_array_equal(a, b)


class TestMatchBidirectional:
    def test_hand_example(self):
        state = match_bidirectional(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert state.s.tolist() == [0, 1, 0, 1]
        assert state.t.tolist() == [0, 1, 0, 1]

    def test_diagonal_dominant_matches_self(self):
        S = np.eye(4) + 0.01
        state = match_bidirectional(S)
        assert state.s.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
        assert state.t.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_all_equal_ties_go_to_zero(self):
        state = match_bidirectional(np.ones((3, 2)))
        assert state.s.tolist() == [0, 1, 2, 0, 0]
        assert state.t.tolist() == [0, 0, 0, 0, 1]

    @given(sim_strategy())
    @settings(max_examples=100)
    def test_emits_rows_plus_cols_pairs_covering_both_sides(self, S):
        n, m = S.shape
        state = match_bidirectional(S)
        assert len(state.s) == len(state.t) == n + m
        assert set(range(n)) <= set(state.s.tolist())
        assert set(range(m)) <= set(state.t.tolist())


class TestObjective:
    def test_hand_example(self):
        assert objective(np.array([[1.0, 0.0], [0.0, 0.5]])) == 0.75

    def test_constant(self):
        assert objective(np.full((3, 4), 0.3)) == pytest.approx(0.3)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        S = rng.random((5, 4))
        assert objective(S) == objective(S[rng.permutation(5)])


def toy_assoc(seed=0, V=8):
    rng = np.random.default_rng(seed)
    M = rng.random((V, V)) + np.eye(V) * 0.5
    C = CoocMatrix((M + M.T) * 10, 1, "t", 100)
    return build("coocmap", C)


class TestUnsupervisedInit:
    def test_sortrow_ascending_convention(self):
        X = np.array([[3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(np.sort(X, axis=1), [[1.0, 2.0, 3.0]])

    def test_self_init_contains_identity_forward(self):
        X = toy_assoc(3)
        state = unsupervised_init(X, X, AlignConfig(csls_k=2))
        n = X.shape[0]
        forward = {(int(s), int(t)) for s, t in zip(state.s[:n], state.t[:n])}
        assert forward == {(i, i) for i in range(n)}

    def test_recovers_row_permutation(self):
        rng = np.random.default_rng(4)
        Z = toy_assoc(5, V=5)
        pi = rng.permutation(5)
        X = Z[pi]  # row i of X is row pi(i) of Z
        state = unsupervised_init(X, Z, AlignConfig(csls_k=2))
        np.testing.assert_array_equal(state.t[:5], pi[state.s[:5]])

    def test_unequal_widths_truncate_to_small_quantiles(self):
        X = np.array([[0.1, 0.5, 9.0, 11.0]])
        Z = np.array([[0.1, 0.5]])
        state = unsupervised_init(X, Z, AlignConfig(csls_k=1))
        assert len(state.s) == 2  # 1 row + 1 col


class TestSelfLearn:
    def test_identity_fixed_point_objective_one(self):
        X = toy_assoc(6)
        n = X.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2, max_iters=10)
        state, trace = coocmap_selflearn(X, X, init, cfg)
        assert state.objective == pytest.approx(1.0, abs=1e-9)
        forward = {(int(s), int(t)) for s, t in zip(state.s[:n], state.t[:n])}
        assert forward == {(i, i) for i in range(n)}

    def test_max_iters_one_single_round(self):
        X = toy_assoc(7)
        n = X.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        _, trace = coocmap_selflearn(X, X, init, AlignConfig(csls_k=2, max_iters=1))
        assert len(trace) == 1

    def test_terminates_and_reports_best(self):
        X, Z = toy_assoc(8), toy_assoc(9)
        cfg = AlignConfig(csls_k=2, max_iters=30)
        init = unsupervised_init(X, Z, cfg)
        state, trace = coocmap_selflearn(X, Z, init, cfg)
        assert len(trace) <= 30
        assert state.objective == pytest.approx(max(trace))

    def test_out_of_range_init_rejected(self):
        X = toy_assoc(10)
        bad = MatchState(np.array([99]), np.array([0]))
        with pytest.raises(ValidationError):
            coocmap_selflearn(X, X, bad, AlignConfig(csls_k=2))

    def test_nan_association_raises(self):
        X = toy_assoc(11)
        X[2, 5] = np.nan
        n = X.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2)
        with pytest.raises(NumericError):
            coocmap_selflearn(X, toy_assoc(11), init, cfg)
        with pytest.raises(NumericError):
            unsupervised_init(X, toy_assoc(11), cfg)


class TestCipherOracle:
    def test_selflearn_recovers_permutation(self, tmp_path):
        """200-word synthetic language, one side relabeled by a known
        permutation; the unsupervised pipeline must undo it."""
        path = tmp_path / "mini.txt"
        generate_corpus(path, 600_000, seed=42, n_types=220, n_companions=8)
        lines = tokenize(path.read_text())
        vocab = build_vocab((t for l in lines for t in l), 200)
        C = count_cooc(encode(lines, vocab), 5)
        rng = np.random.default_rng(11)
        pi = rng.permutation(vocab.size)
        Cp = permute_cooc(C, pi)
        X = build("coocmap", Cp)  # source: ciphered
        Z = build("coocmap", C)  # target: plain
        cfg = AlignConfig(csls_k=10, max_iters=50)
        init = unsupervised_init(X, Z, cfg)
        state, _ = coocmap_selflearn(X, Z, init, cfg)
        from coocmap.kernels import sim_matrix

        S = csls(sim_matrix(X[:, state.s], Z[:, state.t], "cosine"), cfg.csls_k)
        pred = S.argmax(axis=1)
        # ciphered word pi(i) should map back to plain word i
        inv = np.argsort(pi)
        assert np.mean(pred == inv) >= 0.95


class TestVecmapSelfLearn:
    def test_recovers_constructed_rotation(self):
        rng = np.random.default_rng(12)
        Xv = rng.random((12, 4))
        from coocmap.kernels import normalize

        R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Zv = normalize(Xv) @ R  # rotate the normalized vectors
        n = Xv.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=3, max_iters=10)
        state, _ = vecmap_selflearn(Xv, Zv, init, cfg)
        forward = {(int(s), int(t)) for s, t in zip(state.s[:n], state.t[:n])}
        assert forward == {(i, i) for i in range(n)}
        W = np.linalg.lstsq(normalize(Xv), normalize(Zv), rcond=None)[0]
        # normalize(Zv) != Xv @ R in general; check the matching held instead
        assert state.objective > 0.99

    def test_identity_vectors_give_identity_map(self):
        rng = np.random.default_rng(13)
        Xv = rng.random((10, 3))
        from coocmap.kernels import normalize, procrustes

        n = Xv.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        state, _ = vecmap_selflearn(Xv, Xv, init, AlignConfig(csls_k=2, max_iters=5))
        Xn = normalize(Xv)
        W = procrustes(Xn[state.s], Xn[state.t])
        np.testing.assert_allclose(W, np.eye(3), atol=1e-8)

    def test_degenerate_1d_runs(self):
        rng = np.random.default_rng(14)
        Xv = rng.random((6, 1)) + 0.5
        init = MatchState(np.arange(6), np.arange(6))
        state, _ = vecmap_selflearn(Xv, Xv, init, AlignConfig(csls_k=2, max_iters=3))
        from coocmap.kernels import normalize, procrustes

        Xn = normalize(Xv)
        W = procrustes(Xn[state.s], Xn[state.t])
        assert abs(abs(W[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("s, t", [([-1, 0, 1], [0, 1, 2]), ([0, 1, 2], [0, -1, 2])])
    def test_negative_seed_indices_rejected(self, s, t):
        # a negative index would wrap around in Xn[s] instead of failing
        Xv = np.random.default_rng(15).random((6, 3))
        with pytest.raises(ValidationError, match="out of range"):
            run_vecmap(Xv, Xv, AlignConfig(csls_k=2, max_iters=3), seed=MatchState(s, t))


class TestWhitenedEquivalence:
    """Gram-column matching and least-squares vector matching coincide for
    whitened vectors: dot-sim of (X X^T)[:, s] vs (Z Z^T)[:, t] equals
    dot-sim of X W vs Z with W = X[s]^T Z[t]."""

    def test_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(3, 31))
            m = int(rng.integers(3, 31))
            d = int(rng.integers(1, min(11, n, m)))
            X = np.linalg.qr(rng.standard_normal((n, d)))[0]
            Z = np.linalg.qr(rng.standard_normal((m, d)))[0]
            npairs = int(rng.integers(1, 12))
            s = rng.integers(0, n, npairs)
            t = rng.integers(0, m, npairs)
            left = (X @ X.T)[:, s] @ ((Z @ Z.T)[:, t]).T
            W = X[s].T @ Z[t]
            right = (X @ W) @ Z.T
            np.testing.assert_allclose(left, right, atol=1e-8)


class TestPipelines:
    def test_drop_schedule(self):
        assert drop_schedule(20, None) == 20
        assert drop_schedule(20, 400) == 20
        assert drop_schedule(20, 1000) == 20
        assert drop_schedule(20, 100) == 5
        assert drop_schedule(20, 10) == 1

    def test_stage_steps_keep_parameters_exactly(self):
        plain = AlignConfig(clip=(1.0, 99.0), drop_r=20, dim=300)
        trunc, clip = Step("trunc", (300,)), Step("clip", (1.0, 99.0))
        assert stage_steps(plain, False) == [trunc, clip]
        assert stage_steps(plain, True) == [trunc, Step("drop", (15,)), clip]
        odd = AlignConfig(clip=(1.2345678, 98.7654321))
        assert stage_steps(odd, False) == [Step("clip", (1.2345678, 98.7654321))]

    def _counts(self, seed, V=10):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 30, size=(V, V)).astype(float)
        return CoocMatrix(M + M.T, 1, "t", 500)

    def test_stage1_only_matches_manual(self):
        C1, C2 = self._counts(16), self._counts(17)
        cfg = AlignConfig(csls_k=3, max_iters=5)
        run = run_coocmap(C1, C2, cfg)
        assert len(run.traces) == 1
        X = build("coocmap", C1)
        Z = build("coocmap", C2)
        init = unsupervised_init(X, Z, cfg)
        state, trace = coocmap_selflearn(X, Z, init, cfg)
        assert run.traces[0] == trace
        np.testing.assert_array_equal(run.state.s, state.s)

    def test_stage2_reruns_from_stage1(self):
        C1, C2 = self._counts(18), self._counts(19)
        cfg = AlignConfig(
            csls_k=3, max_iters=5, clip=(1.0, 99.0), drop_r=2,
        )
        run = run_coocmap(C1, C2, cfg)
        assert len(run.traces) == 2

    def test_truncates_once_per_side(self, monkeypatch):
        from coocmap import align, assoc

        C1, C2 = self._counts(22, V=14), self._counts(23, V=14)
        cfg = align_config(get_preset("coocmap-drop"), csls_k=3, max_iters=5, dim=6)
        A1, A2 = build("coocmap", C1), build("coocmap", C2)
        expected = [
            assoc.apply_pipeline(A, stage_steps(cfg, stage2))
            for stage2 in (False, True) for A in (A1, A2)
        ]
        trunc_calls, seen = [], []
        real_trunc, real_selflearn = assoc._STEPS["trunc"], align.coocmap_selflearn

        def counting_trunc(X, r):
            trunc_calls.append(r)
            return real_trunc(X, r)

        def recording_selflearn(X, Z, init, cfg):
            seen.extend([X, Z])
            return real_selflearn(X, Z, init, cfg)

        monkeypatch.setitem(assoc._STEPS, "trunc", counting_trunc)
        monkeypatch.setattr(align, "coocmap_selflearn", recording_selflearn)
        run = align.run_staged(A1, A2, cfg)
        assert trunc_calls == [6.0, 6.0]
        assert len(seen) == 4 and len(run.traces) == 2
        for got, want in zip(seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_dict_seed_fixed_point_on_identical_counts(self):
        C = self._counts(20)
        n = C.size
        seed = MatchState(np.arange(n), np.arange(n))
        run = run_coocmap(C, C, AlignConfig(csls_k=3, max_iters=10), seed=seed)
        forward = dict(zip(run.state.s.tolist(), run.state.t.tolist()))
        assert all(forward[i] == i for i in range(n))

    def test_run_vecmap_identity(self):
        C = self._counts(21)
        from coocmap.assoc import svd_vectors

        Xv = svd_vectors(C, 5)
        run = run_vecmap(Xv, Xv, AlignConfig(csls_k=3, max_iters=5))
        s, t = run.state.s, run.state.t
        assert run.measure(s, t).tobytes() == vec_measure(Xv, Xv)(s, t).tobytes()
        n = C.size
        forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
        assert all(forward[i] == i for i in range(n))
