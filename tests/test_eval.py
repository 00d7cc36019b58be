import numpy as np
import pytest

from coocmap.align import (
    AlignConfig,
    MatchState,
    PipelineRun,
    cooc_measure,
    csls,
    stage_steps,
    vec_measure,
)
from coocmap.assoc import apply_pipeline, assoc_from_vectors, build, svd_vectors
from coocmap.cooc import CoocMatrix
from coocmap.corpus import build_vocab
from coocmap.errors import NumericError, ValidationError
from coocmap.evaluation import (
    ClipDiff,
    Dictionary,
    Prediction,
    Predictions,
    clip_diff_report,
    load_dictionary,
    load_predictions,
    precision_at_1,
    seed_from_dictionary,
    translate,
    write_predictions,
)
from coocmap.kernels import clip_thresholds, normalize, pair_sim_matrix, procrustes, sim_matrix
from coocmap.presets import align_config, execute_preset, get_preset


class TestLoadDictionary:
    def test_accumulates_targets(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("dog chien\ndog toutou\n")
        d = load_dictionary(p)
        assert d.entries == {"dog": frozenset({"chien", "toutou"})}

    def test_lowercases(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("Dog Chien\n")
        assert load_dictionary(p).entries == {"dog": frozenset({"chien"})}

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("")
        with pytest.raises(ValidationError):
            load_dictionary(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("dog chien\nbad line here\n")
        with pytest.raises(ValidationError) as e:
            load_dictionary(p)
        assert ":2:" in str(e.value)

    def test_tab_separated(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("dog\tchien\n")
        assert load_dictionary(p).entries == {"dog": frozenset({"chien"})}


def _toy_pair(seed=0, V=6):
    rng = np.random.default_rng(seed)
    M = rng.random((V, V)) + np.eye(V)
    X = M / np.linalg.norm(M, axis=1, keepdims=True)
    return X


def _cooc_run(X, Z, state, cfg):
    return PipelineRun(state, [], cooc_measure(X, Z, cfg.metric)(state.s, state.t))


class TestTranslate:
    def test_identical_sides_predict_self(self):
        X = _toy_pair()
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        state = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2)
        preds = translate(_cooc_run(X, X, state, cfg), cfg, toks, toks)
        assert [r.predicted for r in preds.rows] == list(toks)
        assert [r.rank for r in preds.rows] == list(range(n))

    def test_covers_every_source_once(self):
        X = _toy_pair(1)
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        state = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2)
        preds = translate(_cooc_run(X, X, state, cfg), cfg, toks, toks)
        assert len(preds.rows) == n
        assert len({r.source for r in preds.rows}) == n

    def test_deterministic(self):
        X, Z = _toy_pair(2), _toy_pair(3)
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        state = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2)
        a = translate(_cooc_run(X, Z, state, cfg), cfg, toks, toks)
        b = translate(_cooc_run(X, Z, state, cfg), cfg, toks, toks)
        assert a.rows == b.rows

    @pytest.mark.parametrize("family", ["cooc", "vec"])
    def test_non_finite_similarity_raises(self, family):
        X, Z = _toy_pair(4), _toy_pair(5)
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        cfg = AlignConfig(csls_k=2)
        state = MatchState(np.arange(n), np.arange(n))
        measure = cooc_measure(X, Z, cfg.metric) if family == "cooc" else vec_measure(X, Z)
        for bad in (np.inf, -np.inf, np.nan):
            sims = measure(state.s, state.t)
            sims[1, 1] = bad
            with pytest.raises(NumericError, match="translation similarities"):
                translate(PipelineRun(state, [], sims), cfg, toks, toks)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_non_finite_input_vector_fails_fitting_the_map(self):
        # normalize spreads one inf entry to NaN in every row (inf / inf in
        # unitr, then the column means), so the map's SVD fails before any
        # similarity exists
        X = _toy_pair(4)
        X[1, 1] = np.inf
        measure = vec_measure(X, _toy_pair(5))
        with pytest.raises(NumericError, match="SVD failed to converge"):
            measure(np.array([0, 2, 3, 4, 5]), np.array([0, 2, 3, 4, 5]))


class TestPrecisionAt1:
    def _vocabs(self):
        v1 = build_vocab(["dog", "cat"], 4)
        v2 = build_vocab(["chien", "chat"], 4)
        return v1, v2

    def test_all_correct(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"chien"}), "cat": frozenset({"chat"})})
        preds = Predictions([Prediction("dog", "chien", 1), Prediction("cat", "chat", 2)])
        assert precision_at_1(preds, d, v1, v2) == (1.0, 2, 2, False)

    def test_half_correct(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"chien"}), "cat": frozenset({"chat"})})
        preds = Predictions([Prediction("dog", "chien", 1), Prediction("cat", "chien", 2)])
        assert precision_at_1(preds, d, v1, v2) == (0.5, 2, 1, False)

    def test_disjoint_vocab_flags_no_overlap(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"horse": frozenset({"cheval"})})
        preds = Predictions([Prediction("dog", "chien", 1)])
        acc, evaluated, correct, no_overlap = precision_at_1(preds, d, v1, v2)
        assert (acc, evaluated, correct, no_overlap) == (0.0, 0, 0, True)

    def test_targets_outside_v2_skipped(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"hund"}), "cat": frozenset({"chat"})})
        preds = Predictions([Prediction("dog", "chien", 1), Prediction("cat", "chat", 2)])
        assert precision_at_1(preds, d, v1, v2) == (1.0, 1, 1, False)


class TestSeedFromDictionary:
    def test_pairs_in_vocab_only(self):
        v1 = build_vocab(["dog", "cat"], 4)
        v2 = build_vocab(["chien", "chat"], 4)
        d = Dictionary(
            {"dog": frozenset({"chien", "hund"}), "horse": frozenset({"cheval"})}
        )
        state = seed_from_dictionary(d, v1, v2)
        assert list(zip(state.s.tolist(), state.t.tolist())) == [
            (v1.id_of("dog"), v2.id_of("chien"))
        ]

    def test_nothing_usable_rejected(self):
        v1 = build_vocab(["dog"], 3)
        v2 = build_vocab(["chien"], 3)
        d = Dictionary({"horse": frozenset({"cheval"})})
        with pytest.raises(ValidationError):
            seed_from_dictionary(d, v1, v2)


class TestPredictionsIO:
    def test_round_trip_with_correct_column(self, tmp_path):
        preds = Predictions([Prediction("dog", "chien", 1), Prediction("sun", "lune", 9)])
        d = Dictionary({"dog": frozenset({"chien"}), "sun": frozenset({"soleil"})})
        p = tmp_path / "preds.tsv"
        write_predictions(preds, p, d)
        lines = p.read_text().splitlines()
        assert lines == ["1\tdog\tchien\t1", "9\tsun\tlune\t0"]
        assert load_predictions(p).rows == preds.rows

    def test_dash_without_dictionary(self, tmp_path):
        preds = Predictions([Prediction("a", "b", 0)])
        p = tmp_path / "preds.tsv"
        write_predictions(preds, p)
        assert p.read_text() == "0\ta\tb\t-\n"


class TestClipDiffReport:
    def _vocab(self, n):
        return build_vocab([f"w{i}" for i in range(1, n)] * 2, n)

    def test_identical_matrices_empty(self):
        X = np.random.default_rng(4).random((4, 4))
        assert clip_diff_report(X, X, (0.2, 0.8), self._vocab(4)) == []

    def test_engineered_outlier_is_full_rank_plus(self):
        X = np.full((3, 3), 0.5)
        Y = X.copy()
        X[1, 2] = 5.0  # clipped in the full matrix only
        vocab = self._vocab(3)
        report = clip_diff_report(X, Y, (0.0, 1.0), vocab)
        assert report == [
            ClipDiff(vocab.tokens[1], vocab.tokens[2], "full-rank+", 4.5)
        ]

    def test_sides_disjoint_and_sorted(self):
        rng = np.random.default_rng(5)
        Xf, Xr = rng.random((6, 6)), rng.random((6, 6))
        lo, hi = clip_thresholds(Xf, 10, 90)
        report = clip_diff_report(Xf, Xr, (lo, hi), self._vocab(6))
        pairs = {}
        for r in report:
            assert r.side in ("full-rank+", "reduced+")
            assert (r.token_i, r.token_j) not in pairs
            pairs[(r.token_i, r.token_j)] = r.side
        mags = [r.magnitude for r in report]
        assert mags == sorted(mags, reverse=True)

    def test_matches_brute_force_sets(self):
        rng = np.random.default_rng(6)
        Xf, Xr = rng.random((5, 5)), rng.random((5, 5))
        lo, hi = 0.3, 0.7
        vocab = self._vocab(5)
        report = clip_diff_report(Xf, Xr, (lo, hi), vocab)
        got_full = {(r.token_i, r.token_j) for r in report if r.side == "full-rank+"}
        got_red = {(r.token_i, r.token_j) for r in report if r.side == "reduced+"}
        expect_full, expect_red = set(), set()
        for i in range(5):
            for j in range(5):
                f_clip = Xf[i, j] < lo or Xf[i, j] > hi
                r_clip = Xr[i, j] < lo or Xr[i, j] > hi
                if f_clip and not r_clip:
                    expect_full.add((vocab.tokens[i], vocab.tokens[j]))
                if r_clip and not f_clip:
                    expect_red.add((vocab.tokens[i], vocab.tokens[j]))
        assert got_full == expect_full and got_red == expect_red

    def test_top_n_limits(self):
        rng = np.random.default_rng(7)
        Xf, Xr = rng.random((5, 5)), rng.random((5, 5))
        full = clip_diff_report(Xf, Xr, (0.3, 0.7), self._vocab(5))
        top = clip_diff_report(Xf, Xr, (0.3, 0.7), self._vocab(5), top_n=3)
        assert top == full[:3]


def _unrelated_counts(V=30):
    """Two independent random count matrices: with no true translation to
    find, the predictions depend on every detail of the measure."""
    rng = np.random.default_rng(31)
    M1, M2 = rng.integers(0, 40, size=(2, V, V)).astype(float)
    return CoocMatrix(M1 + M1.T, 2, "s", 1000), CoocMatrix(M2 + M2.T, 2, "t", 1000)


class TestTranslateRanksTheRunsMeasure:
    """translate measures with the run's own last-stage measure. The
    per-family formulas it used to repeat are the oracles: predictions must
    equal their CSLS argmax exactly."""

    def _predicted(self, run, cfg, V):
        toks = tuple(f"w{i}" for i in range(V))
        return np.array([int(r.predicted[1:]) for r in translate(run, cfg, toks, toks).rows])

    @pytest.mark.parametrize("name, dim", [
        ("coocmap", None), ("coocmap-drop", 12), ("rapp", None), ("ppmi", 20),
        ("coocmap-vectors", None),
    ])
    def test_cooc_oracle(self, name, dim):
        C1, C2 = _unrelated_counts()
        cfg = align_config(get_preset(name), csls_k=3, max_iters=8, dim=dim)
        if cfg.vectors == "import":
            vectors = (svd_vectors(C1, 10), svd_vectors(C2, 10))
            run = execute_preset(cfg, vectors1=vectors[0], vectors2=vectors[1])
            A1, A2 = (assoc_from_vectors(v) for v in vectors)
        else:
            run = execute_preset(cfg, C1, C2)
            A1, A2 = build(cfg.assoc, C1), build(cfg.assoc, C2)
        steps = stage_steps(cfg, stage2=cfg.drop_r is not None)
        X, Z = apply_pipeline(A1, steps), apply_pipeline(A2, steps)
        S = pair_sim_matrix(X, Z, run.state.s, run.state.t, cfg.metric)
        want = csls(S, cfg.csls_k).argmax(axis=1)
        np.testing.assert_array_equal(self._predicted(run, cfg, C1.size), want)

    @pytest.mark.parametrize("name", ["vecmap-raw", "vecmap-vectors"])
    def test_vec_oracle(self, name):
        C1, C2 = _unrelated_counts()
        dim = None if name == "vecmap-vectors" else 10
        cfg = align_config(get_preset(name), csls_k=3, max_iters=8, dim=dim)
        Xv, Zv = svd_vectors(C1, 10), svd_vectors(C2, 10)
        if cfg.vectors == "import":
            run = execute_preset(cfg, vectors1=Xv, vectors2=Zv)
        else:
            run = execute_preset(cfg, C1, C2)
        Xn, Zn = normalize(Xv), normalize(Zv)
        W = procrustes(Xn[run.state.s], Zn[run.state.t])
        want = csls(sim_matrix(Xn @ W, Zn), cfg.csls_k).argmax(axis=1)
        np.testing.assert_array_equal(self._predicted(run, cfg, C1.size), want)
