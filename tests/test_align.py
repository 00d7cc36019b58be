import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coocmap.align import (
    AlignConfig,
    _selflearn,
    MatchState,
    coocmap_selflearn,
    csls,
    drop_schedule,
    match_bidirectional,
    objective,
    run_vecmap,
    stage_steps,
    unsupervised_init,
    vec_measure,
)
from coocmap.assoc import Step, build
from coocmap.cooc import CoocMatrix, count_cooc, permute_cooc
from coocmap.corpus import build_vocab, encode, tokenize
from coocmap.errors import NumericError, ValidationError
from coocmap.kernels import check_finite, pair_sim_matrix
from coocmap.presets import align_config, execute_preset, get_preset
from coocmap.synth import generate_corpus

finite = st.floats(-5, 5, allow_nan=False, width=64)


def sim_strategy(max_side=7):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite))


def _csls_oracle(S, k):
    """CSLS as one formula on a copy: S minus half the row and column top-k means."""

    def topk_mean(M):
        if k == M.shape[1]:
            return M.mean(axis=1)
        return np.partition(M, -k, axis=1)[:, -k:].mean(axis=1)

    return S - (topk_mean(S)[:, None] + topk_mean(S.T)[None, :]) / 2.0


class TestCsls:
    @pytest.mark.parametrize("shape", [(1, 1), (255, 256), (256, 257), (256, 256), (600, 300),
                                       (300, 600)])
    def test_blocked_equals_the_formula_bitwise(self, shape):
        # shapes straddle the 256-lane blocks; k = min(shape) is the full
        # width of one side's lanes (of both sides' on a square)
        S = np.random.default_rng(sum(shape)).standard_normal(shape)
        for k in sorted({1, 10, min(shape)} & set(range(1, min(shape) + 1))):
            want = _csls_oracle(S, k)
            assert csls(S.copy(), k).tobytes() == want.tobytes(), k

    def test_overwrites_its_argument(self):
        S = np.random.default_rng(2).random((7, 9))
        want = _csls_oracle(S, 3)
        out = csls(S, 3)
        assert out is S
        assert S.tobytes() == want.tobytes()

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
        a = csls(S.copy(), 2).argmax(axis=1)
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

    def test_float32_init_is_the_float64_products_match_outside_its_bound(self):
        # clusters of near-duplicate rows: many CSLS scores tie to within
        # about 1e-9, far below float32's resolution, and the rest do not
        from coocmap import align

        rng = np.random.default_rng(0)
        n, w, k = 120, 400, 5
        base = np.repeat(rng.random((12, w)) ** 3, 10, axis=0)
        X, Z = ((base * (1 + 1e-4 * rng.standard_normal((n, w)))).astype(np.float32)
                for _ in range(2))
        Rx, Rz = align._profile(X, w), align._profile(Z, w)
        assert Rx.dtype == np.float32
        ref = csls(Rx.astype(np.float64) @ Rz.astype(np.float64).T, k)
        state = unsupervised_init(X, Z, AlignConfig(csls_k=k))
        # the docstring's bound: each float32 score within e of the float64 one
        d = 2.0**-24 + (w + 2) * 2.0**-53
        e = 2 * d + 2.0**-23
        for scores, picks in ((ref, state.t[:n]), (ref.T, state.s[n:])):
            top2 = np.sort(scores, axis=1)[:, -2:]
            clear = top2[:, 1] - top2[:, 0] > 2 * e
            assert 20 <= clear.sum() < n  # both kinds of rows occur
            np.testing.assert_array_equal(picks[clear], scores.argmax(axis=1)[clear])
            picked = scores[np.arange(n), picks]
            assert np.all(picked >= scores.max(axis=1) - 2 * e)

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
        state, trace, _ = coocmap_selflearn(X, X, init, cfg)
        # the measure's float32 bound, (n + 2) * 2**-24 for n summed terms
        assert max(trace) == pytest.approx(1.0, abs=(X.shape[1] + 2) * 2.0**-24)
        forward = {(int(s), int(t)) for s, t in zip(state.s[:n], state.t[:n])}
        assert forward == {(i, i) for i in range(n)}

    def test_max_iters_one_single_round(self):
        X = toy_assoc(7)
        n = X.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        _, trace, _ = coocmap_selflearn(X, X, init, AlignConfig(csls_k=2, max_iters=1))
        assert len(trace) == 1

    def test_terminates_and_reports_best(self):
        X, Z = toy_assoc(8), toy_assoc(9)
        cfg = AlignConfig(csls_k=2, max_iters=30)
        init = unsupervised_init(X, Z, cfg)
        state, trace, _ = coocmap_selflearn(X, Z, init, cfg)
        assert len(trace) <= 30
        # the best state is the match made at max(trace): a run cut right
        # after that iteration returns it too
        k = trace.index(max(trace))
        cut, cut_trace, _ = coocmap_selflearn(X, Z, init, replace(cfg, max_iters=k + 1))
        assert cut_trace == trace[: k + 1]
        assert (cut.s.tolist(), cut.t.tolist()) == (state.s.tolist(), state.t.tolist())

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


def _selflearn_reference(measure, init: MatchState, cfg: AlignConfig, translate: bool = True):
    """The loop as it kept its best state and translation in running
    bookkeeping, before it read them from its history; the oracle of
    `TestSelfLearnRule`."""
    state = init
    best = targets = None
    best_obj = -math.inf  # every objective is finite: measures are checked
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        S = check_finite(measure(state.s, state.t), "self-learning")
        obj = objective(S)
        matched = match_bidirectional(csls(S, cfg.csls_k))
        if state is best:
            targets = matched.t[: S.shape[0]]
        del S  # csls overwrote it; free it before the next measure
        state = matched
        trace.append(obj)
        if obj > best_obj:
            best, best_obj, targets = state, obj, None
        if len(trace) > 1 and obj - trace[-2] < cfg.tol:
            break
    if targets is None and translate:
        S = check_finite(measure(best.s, best.t), "translation")
        targets = csls(S, cfg.csls_k).argmax(axis=1)
    return best, trace, targets


class TestSelfLearnRule:
    @given(
        sizes=st.tuples(st.integers(4, 12), st.integers(4, 12)),
        name=st.sampled_from(["coocmap", "rapp"]),  # the cosine and neg_l1 measures
        csls_k=st.integers(1, 4),
        max_iters=st.integers(1, 8),
        tol=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
        translate=st.booleans(),
        start=st.sampled_from(["init", "seed"]),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_history_rule_equals_the_bookkeeping_loop(
        self, sizes, name, csls_k, max_iters, tol, translate, start, flat, seed
    ):
        rng = np.random.default_rng(seed)
        X, Z = (build(name, CoocMatrix((M + M.T).astype(np.float32), 1, "t", 100))
                for M in (rng.integers(1, 20, size=(V, V)) for V in sizes))
        cfg = AlignConfig(assoc=name, csls_k=csls_k, max_iters=max_iters, tol=tol)
        if start == "init":
            init = unsupervised_init(X, Z, cfg)
        else:
            n = int(rng.integers(1, 10))
            init = MatchState(rng.integers(0, sizes[0], n), rng.integers(0, sizes[1], n))

        def measure(s, t):
            if not flat:
                return pair_sim_matrix(X, Z, s, t, cfg.metric)
            # every row's best is 1.0, where the pairs place it: the
            # objective ties at every iteration while the matches change
            r = np.random.default_rng(np.concatenate([s, t]))
            S = r.random(sizes) / 2
            S[np.arange(sizes[0]), r.integers(0, sizes[1], sizes[0])] = 1.0
            return S

        outs, calls = [], []
        for loop in (_selflearn, _selflearn_reference):
            counted = []
            outs.append(loop(lambda s, t: counted.append(1) or measure(s, t), init, cfg, translate))
            calls.append(len(counted))
        (best, trace, targets), (want_best, want_trace, want_targets) = outs
        assert calls[0] == calls[1]
        assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
        assert best.s.tobytes() == want_best.s.tobytes()
        assert best.t.tobytes() == want_best.t.tobytes()
        if want_targets is None:
            assert targets is None
        else:
            assert targets.dtype == want_targets.dtype
            assert targets.tobytes() == want_targets.tobytes()


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
        state, _, _ = coocmap_selflearn(X, Z, init, cfg)
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
        run = run_vecmap(Xv, Zv, cfg, seed=init)
        state, trace = run.state, run.traces[0]
        forward = {(int(s), int(t)) for s, t in zip(state.s[:n], state.t[:n])}
        assert forward == {(i, i) for i in range(n)}
        W = np.linalg.lstsq(normalize(Xv), normalize(Zv), rcond=None)[0]
        # normalize(Zv) != Xv @ R in general; check the matching held instead
        assert max(trace) > 0.99

    def test_identity_vectors_give_identity_map(self):
        rng = np.random.default_rng(13)
        Xv = rng.random((10, 3))
        from coocmap.kernels import normalize, procrustes

        n = Xv.shape[0]
        init = MatchState(np.arange(n), np.arange(n))
        state = run_vecmap(Xv, Xv, AlignConfig(csls_k=2, max_iters=5), seed=init).state
        Xn = normalize(Xv)
        W = procrustes(Xn[state.s], Xn[state.t])
        np.testing.assert_allclose(W, np.eye(3), atol=1e-8)

    def test_degenerate_1d_runs(self):
        rng = np.random.default_rng(14)
        Xv = rng.random((6, 1)) + 0.5
        init = MatchState(np.arange(6), np.arange(6))
        state = run_vecmap(Xv, Xv, AlignConfig(csls_k=2, max_iters=3), seed=init).state
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
        clip = Step("clip", (1.0, 99.0))
        head, stages = stage_steps(plain)
        assert head == [Step("trunc", (300,))]
        assert stages == [[clip], [Step("drop", (15,)), clip]]
        odd = AlignConfig(clip=(1.2345678, 98.7654321))
        assert stage_steps(odd) == ([], [[Step("clip", (1.2345678, 98.7654321))]])
        assert stage_steps(AlignConfig(drop_r=3)) == ([], [[], [Step("drop", (3,))]])

    def _counts(self, seed, V=10):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 30, size=(V, V)).astype(float)
        return CoocMatrix(M + M.T, 1, "t", 500)

    def test_stage1_only_matches_manual(self):
        C1, C2 = self._counts(16), self._counts(17)
        cfg = AlignConfig(csls_k=3, max_iters=5)
        run = execute_preset(cfg, C1, C2)
        assert len(run.traces) == 1
        X = build("coocmap", C1)
        Z = build("coocmap", C2)
        init = unsupervised_init(X, Z, cfg)
        state, trace, _ = coocmap_selflearn(X, Z, init, cfg)
        assert run.traces[0] == trace
        np.testing.assert_array_equal(run.state.s, state.s)

    def test_stage2_reruns_from_stage1(self):
        C1, C2 = self._counts(18), self._counts(19)
        cfg = AlignConfig(
            csls_k=3, max_iters=5, clip=(1.0, 99.0), drop_r=2,
        )
        run = execute_preset(cfg, C1, C2)
        assert len(run.traces) == 2

    def test_truncates_once_per_side(self, monkeypatch):
        from coocmap import align, assoc

        C1, C2 = self._counts(22, V=14), self._counts(23, V=14)
        cfg = align_config(get_preset("coocmap-drop"), csls_k=3, max_iters=5, dim=6)
        A1, A2 = build("coocmap", C1), build("coocmap", C2)
        # one rounding after the truncation, one after each stage's steps
        head, stages = stage_steps(cfg)
        expected = [
            assoc.apply_pipeline(assoc.apply_pipeline(A, head), steps)
            for steps in stages for A in (A1, A2)
        ]
        trunc_calls, seen = [], []
        real_trunc, real_selflearn = assoc._STEPS["trunc"], align.coocmap_selflearn

        def counting_trunc(X, r):
            trunc_calls.append(r)
            return real_trunc(X, r)

        def recording_selflearn(X, Z, init, cfg, **kw):
            seen.extend([X, Z])
            return real_selflearn(X, Z, init, cfg, **kw)

        monkeypatch.setitem(assoc._STEPS, "trunc", counting_trunc)
        monkeypatch.setattr(align, "coocmap_selflearn", recording_selflearn)
        run = align.run_staged(A1, A2, cfg)
        assert trunc_calls == [6.0, 6.0]
        assert len(seen) == 4 and len(run.traces) == 2
        for got, want in zip(seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_stage2_builds_after_stage1_matrices_are_freed(self, monkeypatch):
        # stage 2 makes its matrices beside A1 and A2 only, not beside stage
        # 1's clipped X and Z as well
        from coocmap import align, assoc

        C1, C2 = self._counts(26, V=14), self._counts(27, V=14)
        cfg = align_config(get_preset("coocmap-drop"), csls_k=3, max_iters=3, drop_r=2)
        refs, alive = [], []
        real_selflearn, real_pipeline = align.coocmap_selflearn, assoc.apply_pipeline

        def recording_selflearn(X, Z, init, cfg, **kw):
            refs.extend([weakref.ref(X), weakref.ref(Z)])
            return real_selflearn(X, Z, init, cfg, **kw)

        def checking_pipeline(A, steps):
            alive.append([ref() is not None for ref in refs])
            return real_pipeline(A, steps)

        monkeypatch.setattr(align, "coocmap_selflearn", recording_selflearn)
        monkeypatch.setattr(assoc, "apply_pipeline", checking_pipeline)
        run = execute_preset(cfg, C1, C2)
        assert len(run.traces) == 2
        # the truncation and stage 1 (no refs yet), then stage 2's two sides
        assert alive == [[], [], [], [], [False, False], [False, False]]

    @pytest.mark.parametrize("max_iters, measures", [(1, 2), (100, None)])
    def test_targets_are_the_last_measure_under_the_final_state(self, monkeypatch, max_iters,
                                                                measures):
        # a run that stops on no improvement measured under its best state
        # already and reuses that; at max_iters it measures once more
        from coocmap import align

        C1, C2 = self._counts(24), self._counts(25)
        cfg = AlignConfig(csls_k=3, max_iters=max_iters)
        calls = []
        monkeypatch.setattr(
            align, "pair_sim_matrix", lambda *a: calls.append(a) or pair_sim_matrix(*a)
        )
        run = execute_preset(cfg, C1, C2)
        (trace,) = run.traces
        if measures is None:
            assert len(trace) < max_iters and trace[-1] < max(trace)
            measures = len(trace)
        assert len(calls) == measures
        X, Z = build("coocmap", C1), build("coocmap", C2)
        S = pair_sim_matrix(X, Z, run.state.s, run.state.t, cfg.metric)
        want = csls(S, cfg.csls_k).argmax(axis=1)
        assert run.targets.tobytes() == want.tobytes()

    def test_dict_seed_fixed_point_on_identical_counts(self):
        C = self._counts(20)
        n = C.size
        seed = MatchState(np.arange(n), np.arange(n))
        run = execute_preset(AlignConfig(csls_k=3, max_iters=10), C, C, seed=seed)
        forward = dict(zip(run.state.s.tolist(), run.state.t.tolist()))
        assert all(forward[i] == i for i in range(n))

    def test_run_vecmap_identity(self):
        C = self._counts(21)
        from coocmap.assoc import svd_vectors

        Xv = svd_vectors(C, 5)
        run = run_vecmap(Xv, Xv, AlignConfig(csls_k=3, max_iters=5))
        s, t = run.state.s, run.state.t
        want = csls(vec_measure(Xv, Xv)(s, t), 3).argmax(axis=1)
        assert run.targets.tobytes() == want.tobytes()
        n = C.size
        forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
        assert all(forward[i] == i for i in range(n))
