import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocmap.align import (
    AlignConfig,
    MatchState,
    csls,
    run_staged,
    run_vecmap,
    stage_steps,
    vec_measure,
)
from coocmap.assoc import apply_pipeline, build, svd_vectors
from coocmap.cooc import CoocMatrix
from coocmap.corpus import build_vocab
from coocmap.errors import NumericError, ValidationError
from coocmap.evaluation import (
    Dictionary,
    Prediction,
    load_dictionary,
    load_predictions,
    score,
    seed_from_dictionary,
    translate,
    write_predictions,
)
from coocmap.kernels import normalize, pair_sim_matrix, procrustes, sim_matrix
from coocmap.presets import align_config, execute_preset, get_preset


class TestLoadDictionary:
    def test_accumulates_targets(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("dog chien\ndog toutou\n")
        d = load_dictionary(p)
        assert d == {"dog": frozenset({"chien", "toutou"})}

    def test_lowercases(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("Dog Chien\n")
        assert load_dictionary(p) == {"dog": frozenset({"chien"})}

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
        assert load_dictionary(p) == {"dog": frozenset({"chien"})}


def _toy_pair(seed=0, V=6):
    rng = np.random.default_rng(seed)
    M = rng.random((V, V)) + np.eye(V)
    X = M / np.linalg.norm(M, axis=1, keepdims=True)
    return X


def _spoil_call(module, name, n, bad, monkeypatch):
    """Rebind module.name so that its n-th call returns a similarity matrix
    with one entry replaced by `bad`."""
    real, calls = getattr(module, name), []

    def spoiled(*args):
        S = real(*args)
        calls.append(name)
        if len(calls) == n:
            S[1, 1] = bad
        return S

    monkeypatch.setattr(module, name, spoiled)


class TestTranslate:
    def test_identical_sides_predict_self(self):
        X = _toy_pair()
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        state = MatchState(np.arange(n), np.arange(n))
        run = run_staged(X, X, AlignConfig(csls_k=2), seed=state)
        preds = translate(run, toks, toks)
        assert [r.predicted for r in preds] == list(toks)
        assert [r.rank for r in preds] == list(range(n))

    def test_covers_every_source_once(self):
        X, Z = _toy_pair(1), _toy_pair(2, V=4)
        src, tgt = tuple(f"s{i}" for i in range(6)), tuple(f"t{j}" for j in range(4))
        run = run_staged(X, Z, AlignConfig(csls_k=2))
        preds = translate(run, src, tgt)
        assert [r.source for r in preds] == list(src)
        assert [r.predicted for r in preds] == [tgt[j] for j in run.targets]

    def test_deterministic(self):
        X, Z = _toy_pair(2), _toy_pair(3)
        n = X.shape[0]
        toks = tuple(f"w{i}" for i in range(n))
        state = MatchState(np.arange(n), np.arange(n))
        cfg = AlignConfig(csls_k=2)
        a = translate(run_staged(X, Z, cfg, seed=state), toks, toks)
        b = translate(run_staged(X, Z, cfg, seed=state), toks, toks)
        assert a == b

    @pytest.mark.parametrize("family", ["cooc", "vec"])
    def test_non_finite_similarity_raises(self, family, monkeypatch):
        # one self-learning round, then the measure under the best state that
        # translation ranks: its second call
        from coocmap import align

        X, Z = _toy_pair(4), _toy_pair(5)
        n = X.shape[0]
        cfg = AlignConfig(csls_k=2, max_iters=1)
        state = MatchState(np.arange(n), np.arange(n))
        measure, pipeline = {
            "cooc": ("pair_sim_matrix", run_staged), "vec": ("sim_matrix", run_vecmap)
        }[family]
        for bad in (np.inf, -np.inf, np.nan):
            with monkeypatch.context() as m:
                _spoil_call(align, measure, 2, bad, m)
                with pytest.raises(NumericError, match="translation similarities"):
                    pipeline(X, Z, cfg, seed=state)

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


def _counts(r):
    return r.accuracy, r.evaluated, r.correct, r.no_overlap


class TestPrecisionAt1:
    def _vocabs(self):
        v1 = build_vocab(["dog", "cat"], 4)
        v2 = build_vocab(["chien", "chat"], 4)
        return v1, v2

    def test_all_correct(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"chien"}), "cat": frozenset({"chat"})})
        preds = [Prediction("dog", "chien", 1), Prediction("cat", "chat", 2)]
        r = score(preds, d, v1, v2)
        assert _counts(r) == (1.0, 2, 2, False)
        assert r.flags == {"dog": True, "cat": True}

    def test_half_correct(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"chien"}), "cat": frozenset({"chat"})})
        preds = [Prediction("dog", "chien", 1), Prediction("cat", "chien", 2)]
        r = score(preds, d, v1, v2)
        assert _counts(r) == (0.5, 2, 1, False)
        assert r.flags == {"dog": True, "cat": False}

    def test_disjoint_vocab_flags_no_overlap(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"horse": frozenset({"cheval"})})
        preds = [Prediction("dog", "chien", 1)]
        r = score(preds, d, v1, v2)
        assert _counts(r) == (0.0, 0, 0, True)
        assert r.flags == {}

    def test_targets_outside_v2_skipped(self):
        v1, v2 = self._vocabs()
        d = Dictionary({"dog": frozenset({"hund"}), "cat": frozenset({"chat"})})
        preds = [Prediction("dog", "chien", 1), Prediction("cat", "chat", 2)]
        r = score(preds, d, v1, v2)
        assert _counts(r) == (1.0, 1, 1, False)
        assert r.flags == {"cat": True}

    def test_cut_counts_scored_entries_in_rank_order(self):
        """The cut takes the first scored entries by rank, whatever the
        dictionary's or the list's order; every scored source is flagged."""
        v1, v2 = self._vocabs()
        d = Dictionary({"cat": frozenset({"chat"}), "horse": frozenset({"chat"}),
                        "dog": frozenset({"chien"})})
        preds = [Prediction("cat", "chien", 2), Prediction("dog", "chien", 1)]
        r = score(preds, d, v1, v2, limit=1)
        assert _counts(r) == (1.0, 1, 1, False)
        assert r.flags == {"dog": True, "cat": False}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12,
                 unique_by=lambda p: p[0]),
        st.dictionaries(st.integers(0, 14), st.frozensets(st.integers(0, 11), min_size=1),
                        max_size=14),
        st.frozensets(st.integers(0, 14)),
        st.frozensets(st.integers(0, 11)),
        st.one_of(st.none(), st.integers(0, 13)),
        st.randoms(use_true_random=False),
    )
    def test_dump_rescores_to_the_result(self, pairs, entries, v1, labels, limit, rng):
        """Sources outside v1 or the dictionary, and targets outside the
        labels, in any list order: the dump's flags, counted as a dump is
        re-scored (rank order, the first `limit` flagged rows), give the
        result's evaluated and correct, and flag exactly the predictions
        with an entry that has a target label."""
        import tempfile
        from pathlib import Path

        ranks = rng.sample(range(100), len(pairs))
        preds = [Prediction(f"s{s}", f"t{t}", rank) for (s, t), rank in zip(pairs, ranks)]
        d = Dictionary({f"s{s}": frozenset(f"t{t}" for t in ts) for s, ts in entries.items()})
        v1 = {f"s{s}" for s in v1}
        labels = {f"t{t}" for t in labels}
        r = score(preds, d, v1, labels, limit)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "preds.tsv"
            write_predictions(preds, path, r.flags)
            assert load_predictions(path) == preds
            rows = sorted((line.split("\t") for line in path.read_text().splitlines()),
                          key=lambda row: int(row[0]))
        flagged = [row[3] for row in rows if row[3] != "-"][:limit]
        assert (len(flagged), flagged.count("1")) == (r.evaluated, r.correct)
        assert r.no_overlap == (r.evaluated == 0)
        keyed = {p.source: d.get(p.source, frozenset()) & labels for p in preds}
        assert r.flags == {p.source: p.predicted in keyed[p.source]
                           for p in preds if p.source in v1 and keyed[p.source]}


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
        preds = [Prediction("dog", "chien", 1), Prediction("sun", "lune", 9),
                 Prediction("cat", "lune", 12)]
        # no target of cat is a target word: score skips it, so the dump
        # does not flag it
        d = Dictionary({"dog": frozenset({"chien"}), "sun": frozenset({"soleil"}),
                        "cat": frozenset({"chat"})})
        p = tmp_path / "preds.tsv"
        labels = {"chien", "lune", "soleil"}
        write_predictions(preds, p, score(preds, d, {"dog", "sun", "cat"}, labels).flags)
        lines = p.read_text().splitlines()
        assert lines == ["1\tdog\tchien\t1", "9\tsun\tlune\t0", "12\tcat\tlune\t-"]
        assert load_predictions(p) == preds

    def test_dash_without_dictionary(self, tmp_path):
        preds = [Prediction("a", "b", 0)]
        p = tmp_path / "preds.tsv"
        write_predictions(preds, p, {})
        assert p.read_text() == "0\ta\tb\t-\n"

    @pytest.mark.parametrize("text, message", [
        ("0\ta\ta\t-\nx\tb\tb\t-\n", r"preds\.tsv:2: rank must be an integer, got 'x'"),
        # scored, the later row would win silently
        ("0\ta\ta\t-\n1\tb\tb\t-\n2\ta\tb\t-\n",
         r"preds\.tsv:3: source 'a' listed twice, first on line 1"),
        # a flag eval does not read, but a dump never writes
        ("0\ta\ta\t1\n1\tb\tb\tbanana\n", r"preds\.tsv:2: flag must be 0, 1 or '-', got 'banana'"),
        # the rank order a dump is scored in would be ambiguous
        ("0\ta\ta\t-\n1\tb\tb\t-\n1\tc\tc\t-\n",
         r"preds\.tsv:3: rank 1 listed twice, first on line 2"),
    ], ids=["rank", "repeated-source", "flag", "repeated-rank"])
    def test_malformed_dump_names_its_lines(self, tmp_path, text, message):
        p = tmp_path / "preds.tsv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_predictions(p)


def _unrelated_counts(V=30):
    """Two independent random count matrices: with no true translation to
    find, the predictions depend on every detail of the measure."""
    rng = np.random.default_rng(31)
    M1, M2 = rng.integers(0, 40, size=(2, V, V)).astype(float)
    return CoocMatrix(M1 + M1.T, 2, "s", 1000), CoocMatrix(M2 + M2.T, 2, "t", 1000)


class TestTranslateRanksTheRunsMeasure:
    """Translation is the CSLS argmax of the run's own last-stage measure
    under its final pairs. The per-family formulas are the oracles:
    predictions must equal their CSLS argmax exactly. Each oracle runs at
    max_iters 1, where the loop measures once more under its best state,
    and at 8, where it reuses a measurement it made (these inputs stop
    early)."""

    MAX_ITERS = (1, 8)

    def _predicted(self, run, V):
        toks = tuple(f"w{i}" for i in range(V))
        return np.array([int(r.predicted[1:]) for r in translate(run, toks, toks)])

    @pytest.mark.parametrize("name, dim", [
        ("coocmap", None), ("coocmap-drop", 12), ("rapp", None), ("ppmi", 20),
    ])
    def test_cooc_oracle(self, name, dim):
        C1, C2 = _unrelated_counts()
        for max_iters in self.MAX_ITERS:
            cfg = align_config(get_preset(name), csls_k=3, max_iters=max_iters, dim=dim)
            run = execute_preset(cfg, C1, C2)
            A1, A2 = build(cfg.assoc, C1), build(cfg.assoc, C2)
            head, stages = stage_steps(cfg)
            X, Z = (apply_pipeline(apply_pipeline(A, head), stages[-1]) for A in (A1, A2))
            S = pair_sim_matrix(X, Z, run.state.s, run.state.t, cfg.metric)
            want = csls(S, cfg.csls_k).argmax(axis=1)
            np.testing.assert_array_equal(
                self._predicted(run, C1.size), want, err_msg=f"max_iters={max_iters}"
            )

    @pytest.mark.parametrize("name, dim", [("coocmap", None), ("coocmap-drop", 12)])
    def test_only_the_last_stage_measures_for_translation(self, name, dim, monkeypatch):
        # at max_iters=1 no stage measured under its best state in the loop;
        # stage 1 of a drop run hands its state to stage 2 without measuring
        from coocmap import align

        C1, C2 = _unrelated_counts()
        cfg = align_config(get_preset(name), csls_k=3, max_iters=1, dim=dim)
        calls = []
        monkeypatch.setattr(
            align, "pair_sim_matrix", lambda *a: calls.append(a) or pair_sim_matrix(*a)
        )
        run = execute_preset(cfg, C1, C2)
        iterations = sum(len(trace) for trace in run.traces)
        assert iterations == len(run.traces)
        assert len(calls) == iterations + 1

    @pytest.mark.parametrize("name", ["vecmap-raw"])
    def test_vec_oracle(self, name):
        C1, C2 = _unrelated_counts()
        Xv, Zv = svd_vectors(C1, 10), svd_vectors(C2, 10)
        for max_iters in self.MAX_ITERS:
            cfg = align_config(get_preset(name), csls_k=3, max_iters=max_iters, dim=10)
            run = execute_preset(cfg, C1, C2)
            Xn, Zn = normalize(Xv), normalize(Zv)
            W = procrustes(Xn[run.state.s], Zn[run.state.t])
            want = csls(sim_matrix(Xn @ W, Zn, "cosine"), cfg.csls_k).argmax(axis=1)
            np.testing.assert_array_equal(
                self._predicted(run, C1.size), want, err_msg=f"max_iters={max_iters}"
            )
