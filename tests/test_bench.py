import json
import time
import tracemalloc
from dataclasses import asdict, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse

from coocmap import bench
from coocmap.bench import (
    BenchConfig,
    RunReport,
    SweepSpec,
    cipher_bench,
    run_sweep,
    split_identity_bench,
    sweep_csv,
    sweep_summary,
)
from coocmap.errors import ValidationError
from coocmap.evaluation import load_dictionary, load_predictions, score
from coocmap.align import AlignConfig
from coocmap.cooc import CoocMatrix, count_cooc
from coocmap.kernels import pair_sim_matrix
from coocmap.corpus import Vocabulary, build_vocab, encode, tokenize
from coocmap.presets import execute_preset
from coocmap.synth import generate_corpus
from splits import alternate_blocks, head_text, line_blocks

FAST = BenchConfig(preset="coocmap", vocab_size=300, top_eval=200, max_iters=40)


@pytest.fixture(scope="module")
def few_words_corpus(tmp_path_factory):
    """A corpus of 60 distinct words: a point whose dim fits vocab_size but
    not the 61 words of a side ([UNK] included) fails after ingest."""
    path = tmp_path_factory.mktemp("data") / "few.txt"
    generate_corpus(path, 300_000, seed=11, n_types=60, n_companions=6)
    return str(path)


def mask_seconds(csv_text: str) -> str:
    lines = csv_text.splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        if len(cols) >= 6 and cols[5] != "seconds":
            cols[5] = "X"
        out.append(",".join(cols))
    return "\n".join(out)


class TestAlternateBlocks:
    def test_blocks_dealt_alternately(self):
        a, b = alternate_blocks(list(range(10)), 2)
        assert a == [0, 1, 4, 5, 8, 9]
        assert b == [2, 3, 6, 7]

    def test_big_block_puts_everything_left(self):
        a, b = alternate_blocks([1, 2, 3], 100)
        assert a == [1, 2, 3] and b == []


# letters lower() changes or keeps (a capital sigma lowers by its context), a
# literal [UNK] in both cases, and whitespace that split() cuts on but
# split("\n") does not
_TEXT_PIECES = ["a", "b", "B", "\u03a3", "\u00df", "\u1e9e", "\u00e9", "\u00c9", "[UNK]", "[unk]",
                " ", "\t", "\r", "\x0c", "\x85", "\u2028", "\u00a0", "\n", "\n", "\n"]


def _ingest(path, budget, cfg, sides):
    """Per side of build_sides: its vocabulary, the corpus it counts, its
    counts and types; and the bytes read."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "count_cooc", lambda corpus, m: seen.append(corpus) or count_cooc(corpus, m))
        built, data_bytes = bench.build_sides(path, budget, cfg, sides)
    return [(vocab, enc, C, types) for (vocab, C, types), enc in zip(built, seen)], data_bytes


class TestStreamedIngest:
    """Ingest in blocks of lines read from the file equals the whole-text
    composition `encode(tokenize(text), build_vocab(...))` of the complete
    lines within the budget, bit for bit, for a whole file and for the two
    halves of a split."""

    def _check(self, path, budget, block_lines, v_max, window):
        cfg = BenchConfig(vocab_size=v_max, window=window, block_lines=block_lines)
        text, size = head_text(path, budget)
        lines = tokenize(text)
        half_a, half_b = alternate_blocks(lines, block_lines)
        whole, data_bytes = _ingest(path, budget, cfg, 1)
        halves, split_bytes = _ingest(path, budget, cfg, 2)
        assert data_bytes == split_bytes == size
        for (vocab, enc, C, types), side_lines in zip(whole + halves, (lines, half_a, half_b)):
            want_vocab = build_vocab(chain.from_iterable(side_lines), v_max)
            want = encode(side_lines, want_vocab)
            want_C = count_cooc(want, window)
            assert vocab.tokens == want_vocab.tokens
            assert (enc.ids.dtype, enc.line_breaks.dtype) == (want.ids.dtype, want.line_breaks.dtype)
            assert enc.ids.tobytes() == want.ids.tobytes()
            assert enc.line_breaks.tobytes() == want.line_breaks.tobytes()
            assert C.counts.tobytes() == want_C.counts.tobytes()
            assert (C.token_count, C.vocab_digest) == (want_C.token_count, want_C.vocab_digest)
            assert types == len(set(chain.from_iterable(side_lines)))

    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=60), st.integers(1, 4),
           st.integers(1, 6), st.integers(1, 3))
    @example([], 1, 3, 1)
    @example(["a", "\n", "\n", " ", "\n", "b", "a", "\n", "\u2028", "\n", "b"], 2, 2, 2)
    @example(["b", " ", "a", "\n", "a", " ", "b", "\n", "[UNK]", "\n", "\u1e9e", "\n"], 1, 3, 1)
    @example(["a", "\u03a3", "\n", "\u03a3", "a", "\u03a3", "\n", "B", "\u03a3", "\n"], 1, 6, 1)
    def test_equals_whole_text_composition(self, pieces, block_lines, v_max, window):
        import tempfile

        raw = "".join(pieces).encode("utf-8")
        with tempfile.NamedTemporaryFile(suffix=".txt") as f:
            f.write(raw)
            f.flush()
            self._check(f.name, len(raw), block_lines, v_max, window)

    def test_corpus_blocks(self, small_corpus):
        self._check(small_corpus, 300_000, 100, 150, 5)

    def test_block_lines_must_be_positive(self, small_corpus):
        with pytest.raises(ValidationError, match="block_lines"):
            bench.build_sides(small_corpus, 100, replace(FAST, block_lines=0))


def _ingest_peak(small_corpus, budget, cfg, pair, hold_text=False):
    """tracemalloc's peak over one ingest of `budget` bytes, and its sides;
    with `hold_text`, the decoded budget is read first and held through it."""
    tracemalloc.start()
    try:
        text = head_text(small_corpus, budget) if hold_text else None
        if pair:
            sides = bench._corpus_pair_sides(small_corpus, small_corpus, budget, cfg)
        else:
            sides = bench._split_sides(small_corpus, budget, cfg)
        del text
        return tracemalloc.get_traced_memory()[1], sides
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pair", [False, True])
def test_ingest_peak_memory_stays_under_its_model(small_corpus, pair):
    """The memory model `build_sides` states, for `_split_sides` (two sides
    from one read) and `_corpus_pair_sides` (one side per read), with no
    term per budget byte: the float32 counts of every side but the last
    (4 B * V^2 each) and 100 B per distinct token per side, beside the
    larger of reading and relabelling (12 B per token read, 80 B per token
    of the largest block) and counting a side (4 B per token read, 20 B
    per token of the side and a float32 sum beside an int64 bincount,
    12 B * V^2). Holding the decoded budget through the ingest, as a
    whole-text read did, does not fit it (on the split: 4.6 MB, and 6.6 MB
    with the text held, against a 5.9 MB bound), nor does counting at about
    45 B per token (per-token int64 segment ids and compacted keys)."""
    budget, cfg = 2_000_000, BenchConfig(vocab_size=300)
    text, _ = head_text(small_corpus, budget)
    block_tokens = max(len(block.split()) for block in line_blocks(text, cfg.block_lines))
    distinct = len(set(text.split()))
    del text
    peak, sides = _ingest_peak(small_corpus, budget, cfg, pair)
    side_tokens = max(sides.C1.token_count, sides.C2.token_count)
    tokens = side_tokens if pair else sides.C1.token_count + sides.C2.token_count
    V, n_sides = cfg.vocab_size, 1 if pair else 2
    bound = 4 * V**2 + 100 * distinct * n_sides + max(
        12 * tokens + 80 * block_tokens, 4 * tokens + 20 * side_tokens + 12 * V**2
    )
    assert peak < bound
    assert _ingest_peak(small_corpus, budget, cfg, pair, hold_text=True)[0] > bound


def test_count_peak_memory_stays_under_its_model():
    """`count_cooc` on a corpus short beside V^2: a float32 sum beside an
    int64 bincount, 12 B * V^2, then the sum beside the float32 counts. The
    bound allows one more byte per cell for numpy's casting buffers and the
    per-token arrays; a float64 sum (16 B * V^2) does not fit it."""
    V = 1200
    rng = np.random.default_rng(4)
    vocab = Vocabulary(("[UNK]", *[f"w{i}" for i in range(1, V)]))
    corpus = encode([[vocab.tokens[i] for i in rng.integers(1, V, 2000)]], vocab)
    tracemalloc.start()
    try:
        C = count_cooc(corpus, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.counts.dtype == np.float32
    assert peak < 13 * V**2


def test_alignment_peak_memory_stays_under_its_model():
    """The model `align.run_staged` states, for a coocmap run beyond its
    float32 counts: 2.5 V^2 float64 plus row blocks of at most 256 lanes.
    The initializer sets the peak: the two float32 associations, the two
    float32 profiles and their float32 similarity matrix, beside the
    float64 blocks its product is formed from (two blocks of rows and their
    product). Building the second association (its float64 chain beside the
    first) and the float32 measure stay under it. At V=1000 the model, with
    three blocks, is 3.27 V^2; float64 matrices (5.27 V^2) or an extra
    float32 V x V copy (3.56 V^2) do not fit it."""
    V = 1000
    rng = np.random.default_rng(5)
    C1, C2 = (CoocMatrix((M + M.T).astype(np.float32), 2, name, 1000)
              for name, M in zip("st", rng.integers(0, 30, size=(2, V, V))))
    tracemalloc.start()
    try:
        run = execute_preset(AlignConfig(max_iters=3), C1, C2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.traces[0]) >= 2  # self-learning ran under the same bound
    assert peak < 2.5 * V**2 * 8 + 3 * 256 * V * 8


def test_staged_alignment_peak_memory_stays_under_its_model():
    """The model `align.run_staged` states for coocmap-drop (a stage-1 clip,
    then a stage-2 head-drop and clip) beyond its float32 counts: 3.5 V^2
    float64 plus row blocks of at most 256 lanes. The initializer and the
    measure run beside A1, A2 and the clipped X and Z (2); each stage step
    holds at most 2 float64 copies beside its float32 input, and stage 2
    builds beside A1 and A2 alone. At V=1000 the model, with three blocks,
    is 4.27 V^2 (measured: 4.06). A float64 working copy in every
    `apply_pipeline` call does not fit it (4.51 V^2), nor does that copy
    with whole-matrix percentiles and stage 1's X and Z kept through stage
    2's build (5.07 V^2). At this V the row blocks hide those two alone;
    the clip memory test in test_kernels and
    `test_stage2_builds_after_stage1_matrices_are_freed` pin them."""
    V = 1000
    rng = np.random.default_rng(6)
    C1, C2 = (CoocMatrix((M + M.T).astype(np.float32), 2, name, 1000)
              for name, M in zip("st", rng.integers(0, 30, size=(2, V, V))))
    cfg = AlignConfig(clip=(1.0, 99.0), drop_r=20, max_iters=3)
    tracemalloc.start()
    try:
        run = execute_preset(cfg, C1, C2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(trace) >= 2 for trace in run.traces] == [True, True]
    assert peak < 3.5 * V**2 * 8 + 3 * 256 * V * 8


class TestIdentityBench:
    def test_identical_halves_give_perfect_accuracy(self, small_corpus, tmp_path):
        # duplicate each block so the two dealt halves are the same text
        lines = head_text(small_corpus, 400_000)[0].splitlines()
        block = 50
        doubled = []
        for i in range(0, len(lines), block):
            doubled.extend(lines[i : i + block])
            doubled.extend(lines[i : i + block])
        path = tmp_path / "doubled.txt"
        path.write_text("\n".join(doubled) + "\n")
        cfg = BenchConfig(preset="coocmap", vocab_size=300, top_eval=200, block_lines=block)
        report = split_identity_bench(path, 10**9, cfg)
        assert report.accuracy == 1.0

    def test_tiny_budget_near_zero_without_error(self, small_corpus):
        report = split_identity_bench(small_corpus, 120_000, FAST)
        assert report.error is None
        assert report.accuracy < 0.2

    def test_report_fields_consistent(self, small_corpus):
        report = split_identity_bench(small_corpus, 600_000, FAST)
        assert report.mode == "identity"
        assert report.evaluated <= 200
        assert 0 <= report.correct <= report.evaluated
        assert report.accuracy == pytest.approx(report.correct / report.evaluated)
        assert report.vocab_sizes == (300, 300)
        assert report.data_bytes <= 600_000
        assert report.config["preset"] == "coocmap"

    def test_accuracy_recomputable_from_dump(self, small_corpus, tmp_path):
        preds_path = tmp_path / "preds.tsv"
        report = split_identity_bench(small_corpus, 600_000, FAST, preds_out=preds_path)
        preds = load_predictions(preds_path)
        # rebuild the scored set: top shared tokens in rank order
        lines = tokenize(head_text(small_corpus, 600_000)[0])
        half_a, half_b = alternate_blocks(lines, FAST.block_lines)
        v1 = build_vocab((t for l in half_a for t in l), FAST.vocab_size)
        v2 = build_vocab((t for l in half_b for t in l), FAST.vocab_size)
        shared = [tok for tok in v1.tokens if tok in v2][: FAST.top_eval]
        from coocmap.evaluation import Dictionary

        identity = Dictionary({tok: frozenset([tok]) for tok in shared})
        result = score(preds, identity, v1, v2)
        assert result.evaluated == report.evaluated
        assert result.accuracy == pytest.approx(report.accuracy)


class TestCipherBench:
    def test_identity_permutation_reduces_to_identity_bench(self, small_corpus, monkeypatch):
        # the seeded draw stubbed to the identity: only the labels differ
        class IdentityDraw:
            def __init__(self, seed):
                pass

            def permutation(self, n):
                return np.arange(n)

        ident = split_identity_bench(small_corpus, 600_000, FAST)
        monkeypatch.setattr(bench.np.random, "default_rng", IdentityDraw)
        c = cipher_bench(small_corpus, 600_000, 0, FAST)
        assert c.accuracy == pytest.approx(ident.accuracy)

    def test_seeded_permutation_within_two_points(self, small_corpus):
        ident = split_identity_bench(small_corpus, 1_500_000, FAST)
        c = cipher_bench(small_corpus, 1_500_000, 3, FAST)
        assert abs(c.accuracy - ident.accuracy) <= 0.02
        assert c.seed == 3

    def test_drop_predictions_equal_full_svd_truncation(self, small_corpus, tmp_path, monkeypatch):
        from coocmap import kernels

        cfg = replace(FAST, preset="coocmap-drop")
        cipher_bench(small_corpus, 600_000, 2, cfg, preds_out=tmp_path / "gram.tsv")

        def full_svd_trunc(X, r):
            U, S, Vt = kernels.svd(X)
            r = min(r, S.size)
            return (U[:, :r] * S[:r]) @ Vt[:r]

        monkeypatch.setattr(kernels, "trunc", full_svd_trunc)
        cipher_bench(small_corpus, 600_000, 2, cfg, preds_out=tmp_path / "svd.tsv")
        assert (tmp_path / "gram.tsv").read_bytes() == (tmp_path / "svd.tsv").read_bytes()

    def test_report_json_round_trip(self, small_corpus):
        report = cipher_bench(small_corpus, 400_000, 1, FAST)
        d = json.loads(report.to_json())
        d["vocab_sizes"], d["token_counts"] = tuple(d["vocab_sizes"]), tuple(d["token_counts"])
        assert RunReport(**d) == report

    def test_unpermuted_counts_freed_before_alignment(self, small_corpus, monkeypatch):
        """The target counts are held once: the unpermuted copy is gone
        while the permuted one is aligned, and the answer key is built only
        once the run is translated."""
        import weakref

        refs, during = [], []
        real_split, real_execute, real_key = bench._split_sides, bench.execute_preset, bench._shared_key

        def split(*args):
            sides = real_split(*args)
            refs.append(weakref.ref(sides.C2.counts))
            return sides

        def execute(*args, **kwargs):
            during.append(refs[0]() is None)
            return real_execute(*args, **kwargs)

        def key(*args):
            during.append("key")
            return real_key(*args)

        monkeypatch.setattr(bench, "_split_sides", split)
        monkeypatch.setattr(bench, "execute_preset", execute)
        monkeypatch.setattr(bench, "_shared_key", key)
        report = cipher_bench(small_corpus, 400_000, 1, FAST)
        assert during == [True, "key"]
        assert report.evaluated > 0


def pair_sim_matrix_f64(X, Z, s, t, metric="cosine"):
    """The self-learning measure with its cosine product in float64, as
    `kernels.pair_sim_matrix` computed it before that product ran in
    float32: the oracle for whole runs."""
    if metric != "cosine":
        return pair_sim_matrix(X, Z, s, t, metric)
    X, Z = np.asarray(X, dtype=np.float64), np.asarray(Z, dtype=np.float64)
    v1, v2 = X.shape[1], Z.shape[1]
    M = sparse.csr_array((np.ones(s.size), (s, t)), shape=(v1, v2))
    XM = np.asarray(X @ M)
    nx = np.sqrt((X * X) @ np.bincount(s, minlength=v1))
    nz = np.sqrt((Z * Z) @ np.bincount(t, minlength=v2))
    nx[nx == 0.0] = 1.0
    nz[nz == 0.0] = 1.0
    return (XM / nx[:, None]) @ Z.T / nz


class TestFloat32Measure:
    @pytest.mark.parametrize("mode, preset", [("identity", "coocmap"), ("cipher", "coocmap-drop")])
    def test_same_run_as_the_float64_product(self, small_corpus, tmp_path, monkeypatch, mode,
                                             preset):
        from coocmap import align

        cfg = replace(FAST, preset=preset)

        def run(name):
            path = tmp_path / name
            if mode == "identity":
                report = split_identity_bench(small_corpus, 1_500_000, cfg, preds_out=path)
            else:
                report = cipher_bench(small_corpus, 1_500_000, 3, cfg, preds_out=path)
            return report, path.read_bytes()

        f32, f32_dump = run("f32.tsv")
        calls = []
        monkeypatch.setattr(
            align, "pair_sim_matrix", lambda *a: calls.append(a) or pair_sim_matrix_f64(*a)
        )
        f64, f64_dump = run("f64.tsv")
        assert len(calls) == sum(len(trace) for trace in f64.traces)
        assert f32_dump == f64_dump
        assert [len(trace) for trace in f32.traces] == [len(trace) for trace in f64.traces]
        # each objective is a mean of entries within the float32 bound
        bound = (cfg.vocab_size + 2) * 2.0**-24
        for got, want in zip(f32.traces, f64.traces):
            np.testing.assert_allclose(got, want, rtol=0, atol=bound)
        assert f32.accuracy == f64.accuracy


def _store_float64(monkeypatch):
    """Make a run store its counts, associations and stage matrices in
    float64, each step chain running as in a float32 run but never rounded:
    the oracle for float32 storage. The counts convert exactly, as every
    count is an integer below 2**24."""
    from coocmap import assoc

    real_count = bench.count_cooc

    def count64(corpus, m):
        C = real_count(corpus, m)
        return replace(C, counts=C.counts.astype(np.float64))

    def steps64(data, steps):
        data = np.asarray(data, dtype=np.float64)
        for step in steps:
            data = assoc._STEPS[step.name](data, *step.args)
        return data

    monkeypatch.setattr(bench, "count_cooc", count64)
    monkeypatch.setattr(assoc, "_run_steps", steps64)


def _measure_shift(new, old) -> float:
    """A derived bound on how far one iteration's objective moves between a
    float32-storage measure call and the float64-storage oracle's call under
    the same pairs: (X, Z, s, t, metric) each.

    E = X - X0 and F = Z - Z0, with X0, Z0 the oracle's operands; c_s and c_t
    count each column in s and t, so gathered rows have weighted norms.
    cosine: a row x + e has |unit(x + e) - unit(x)| <= 2 |e| / |x|, so each
    cosine moves by at most 2 |e_i|/|x_i| + 2 |f_k|/|z_k| (weighted norms),
    plus the float32 measure's (n + 2) * 2**-24 in each run. neg_l1: by the
    triangle inequality each distance moves by at most
    sum_j c_s[j] |E_ij| + sum_j c_t[j] |F_kj|, plus the float64 rounding of
    both cdist sums over P distinct pairs, (P + 1) * 2**-53 times their
    weighted l1 masses. An objective is a mean of row maxima, so it moves by
    at most the mean over rows of the row bound."""
    (X, Z, s, t, metric), (X0, Z0, s0, t0, _) = new, old
    np.testing.assert_array_equal(s, s0)
    np.testing.assert_array_equal(t, t0)
    E, F = X.astype(np.float64) - X0, Z.astype(np.float64) - Z0
    cs, ct = np.bincount(s, minlength=X.shape[1]), np.bincount(t, minlength=Z.shape[1])
    if metric == "cosine":
        def rel(E, X, c):
            err, norm = np.sqrt((E * E) @ c), np.sqrt((X * X) @ c)
            assert not err[norm == 0].any()
            return np.divide(err, norm, out=np.zeros_like(err), where=norm > 0)

        gemm = 2 * (Z.shape[1] + 2) * 2.0**-24
        return float(np.mean(2 * rel(E, X0, cs)) + 2 * rel(F, Z0, ct).max() + gemm)
    pairs = np.unique(s * Z.shape[1] + t).size
    mass = sum((np.abs(A) @ c).max() for A, c in ((X, cs), (X0, cs), (Z, ct), (Z0, ct)))
    rounding = (pairs + 1) * 2.0**-53 * float(mass)
    return float(np.mean(np.abs(E) @ cs) + (np.abs(F) @ ct).max() + rounding)


class TestFloat32Storage:
    """Runs that store every V x V matrix in float32 make the run that stores
    them in float64: the same dumps, iterations and matchings, with each
    objective within `_measure_shift`'s derived bound."""

    @pytest.mark.parametrize("mode, preset", [("identity", "coocmap"),
                                              ("cipher", "coocmap-drop"),
                                              ("identity", "rapp")])
    def test_same_run_as_float64_storage(self, small_corpus, tmp_path, monkeypatch, mode,
                                         preset):
        from coocmap import align

        cfg = replace(FAST, preset=preset)
        real_measure = align.pair_sim_matrix

        def run(name):
            calls = []
            monkeypatch.setattr(
                align, "pair_sim_matrix", lambda *a: calls.append(a) or real_measure(*a)
            )
            path = tmp_path / name
            if mode == "identity":
                report = split_identity_bench(small_corpus, 1_500_000, cfg, preds_out=path)
            else:
                report = cipher_bench(small_corpus, 1_500_000, 3, cfg, preds_out=path)
            return report, path.read_bytes(), calls

        f32, f32_dump, f32_calls = run("f32.tsv")
        _store_float64(monkeypatch)
        f64, f64_dump, f64_calls = run("f64.tsv")
        assert {c[0].dtype for c in f32_calls} == {np.dtype(np.float32)}
        assert {c[0].dtype for c in f64_calls} == {np.dtype(np.float64)}
        assert f32_dump == f64_dump
        assert [len(trace) for trace in f32.traces] == [len(trace) for trace in f64.traces]
        assert f32.accuracy == f64.accuracy
        assert len(f32_calls) == len(f64_calls)
        # the calls line up with the traces; a last translation measure, if
        # any, has no objective
        got, want = list(chain(*f32.traces)), list(chain(*f64.traces))
        for new, old, a, b in zip(f32_calls, f64_calls, got, want):
            assert abs(a - b) <= _measure_shift(new, old)


def _corpus_pair(small_corpus, tmp_path, dict_size: int):
    """The two halves of the small corpus written to separate files (a
    supplied corpus pair) and an identity dictionary of the source half's
    top `dict_size - 1` words."""
    lines = head_text(small_corpus, 900_000)[0].splitlines()
    a, b = alternate_blocks(lines, 100)
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    src.write_text("\n".join(a) + "\n")
    tgt.write_text("\n".join(b) + "\n")
    va = build_vocab((t for line in a for t in line.split()), dict_size)
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("".join(f"{t} {t}\n" for t in va.tokens[1:]))
    return src, tgt, dict_path


def _crosslingual_spec(src, tgt, dict_path, **overrides) -> SweepSpec:
    """A one-budget crosslingual sweep of the whole corpus pair, tuned as
    FAST."""
    fields = dict(
        source=str(src), target=str(tgt), mode="crosslingual", dict_path=str(dict_path),
        budgets=(10**9,), vocab_size=FAST.vocab_size, top_eval=FAST.top_eval,
        max_iters=FAST.max_iters,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def _count_and_induce(tmp_path, src, tgt, dict_path) -> dict:
    """`coocmap count` of both corpora, then `coocmap induce` of coocmap
    tuned as FAST, scored against `dict_path`; its dump is `cli.tsv`."""
    from coocmap.cli import main

    for name, path in (("s", src), ("t", tgt)):
        assert main([
            "count", "--input", str(path), "--out", str(tmp_path / name),
            "--vocab-size", str(FAST.vocab_size), "--window", str(FAST.window),
        ]) == 0
    assert main([
        "induce", "--cooc1", str(tmp_path / "s.cooc.bin"), "--cooc2", str(tmp_path / "t.cooc.bin"),
        "--vocab1", str(tmp_path / "s.vocab.txt"), "--vocab2", str(tmp_path / "t.vocab.txt"),
        "--preset", "coocmap", "--dict", str(dict_path), "--max-iters", str(FAST.max_iters),
        "--out-report", str(tmp_path / "cli.json"), "--out-preds", str(tmp_path / "cli.tsv"),
    ]) == 0
    return json.loads((tmp_path / "cli.json").read_text())


class TestCrosslingual:
    def test_split_files_with_identity_dictionary(self, small_corpus, tmp_path):
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 200)
        spec = _crosslingual_spec(src, tgt, dict_path, vocab_size=200, top_eval=200,
                                  max_iters=BenchConfig.max_iters)
        [report], _ = run_sweep(spec)
        assert report.mode == "crosslingual"
        assert report.evaluated > 100
        assert report.error is None

    def test_dict_init_requires_dictionary(self, small_corpus):
        with pytest.raises(ValidationError, match="preset dict-init seeds from a supplied"):
            SweepSpec(source=small_corpus, target=small_corpus, mode="crosslingual",
                      budgets=(10**5,), presets=("dict-init",))

    def test_dict_init_seeds_from_the_supplied_dictionary(self, small_corpus, tmp_path,
                                                          monkeypatch):
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        calls = []
        real = bench.seed_from_dictionary

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(bench, "seed_from_dictionary", counting)
        spec = _crosslingual_spec(src, tgt, dict_path, presets=("dict-init", "coocmap"))
        reports, _ = run_sweep(spec)
        assert [(r.preset, r.error) for r in reports] == [("dict-init", None), ("coocmap", None)]
        # an unsupervised preset never seeds from it
        assert calls == [load_dictionary(dict_path)]

    def test_same_outputs_as_count_and_induce(self, small_corpus, tmp_path):
        """A sweep row and `coocmap count` + `coocmap induce` on the same
        files and dictionary agree."""
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        [report], _ = run_sweep(_crosslingual_spec(src, tgt, dict_path))
        induced = _count_and_induce(tmp_path, src, tgt, dict_path)
        assert induced["evaluated"] > 100
        assert [induced[k] for k in ("accuracy", "evaluated", "correct", "traces")] == [
            report.accuracy, report.evaluated, report.correct, report.traces
        ]

    def test_dump_flags_rescore_to_the_report(self, small_corpus, tmp_path):
        """The dump flags exactly the entries the report scores: an entry
        with no target in the target vocabulary is neither flagged nor
        scored."""
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        lines = dict_path.read_text().splitlines()
        unscored = lines[0].split()[0]
        lines[0] = f"{unscored} zzz-unseen"
        dict_path.write_text("\n".join(lines) + "\n")
        report = _count_and_induce(tmp_path, src, tgt, dict_path)
        rows = [line.split("\t") for line in (tmp_path / "cli.tsv").read_text().splitlines()]
        flags = [flag for _, _, _, flag in rows]
        assert flags.count("1") == report["correct"] > 0
        assert flags.count("0") + flags.count("1") == report["evaluated"]
        assert [flag for _, source, _, flag in rows if source == unscored] == ["-"]


class TestSeedingByPreset:
    """Seeding is the preset's: dict-init needs a supplied dictionary and is
    never seeded from an identity or cipher answer key."""

    def test_identity_and_cipher_reject_dict_init(self, small_corpus):
        cfg = replace(FAST, preset="dict-init")
        with pytest.raises(ValidationError, match="dict-init"):
            split_identity_bench(small_corpus, 300_000, cfg)
        with pytest.raises(ValidationError, match="dict-init"):
            cipher_bench(small_corpus, 300_000, 1, cfg)

    def test_dict_init_fails_before_ingest(self, small_corpus, monkeypatch):
        reads = []
        real = bench.take_head_bytes
        monkeypatch.setattr(bench, "take_head_bytes", lambda *a: reads.append(a) or real(*a))
        cfg = replace(FAST, preset="dict-init")
        entry_points = [
            lambda: split_identity_bench(small_corpus, 300_000, cfg),
            lambda: cipher_bench(small_corpus, 300_000, 1, cfg),
        ]
        for run in entry_points:
            with pytest.raises(ValidationError, match="dict-init"):
                run()
        assert reads == []

    @pytest.mark.parametrize("mode", ["identity", "cipher", "crosslingual"])
    def test_sweep_error_row_per_point(self, few_words_corpus, mode):
        # dict-init without a dictionary rejects the spec; vecmap-raw's
        # dim=300 fits vocab_size=300 but not the corpus's 61 words, so each
        # of its points fails after ingest, one error row each, and the
        # sweep goes on
        reps = 2 if mode == "cipher" else 1
        fields = dict(
            source=few_words_corpus,
            target=few_words_corpus if mode == "crosslingual" else None,
            mode=mode, budgets=(200_000, 300_000), repetitions=reps, vocab_size=300,
            top_eval=200, max_iters=40,
        )
        with pytest.raises(ValidationError, match="preset dict-init seeds from a supplied"):
            SweepSpec(presets=("dict-init", "coocmap"), **fields)
        reports, _ = run_sweep(SweepSpec(presets=("vecmap-raw", "coocmap"), **fields))
        assert [r.preset for r in reports] == (["vecmap-raw"] * reps + ["coocmap"] * reps) * 2
        for r in reports:
            if r.preset == "vecmap-raw":
                assert r.error.startswith("ValidationError: dim=300 exceeds")
            else:
                assert r.error is None

    @pytest.mark.parametrize("preset, dims, csls_k, message", [
        ("vecmap-raw", (), 10, "dim=300 exceeds vocab_size=200"),  # the shipped dim
        ("coocmap", (8, 201), 10, "dim=201 exceeds vocab_size=200"),
        ("coocmap", (), 201, "csls_k=201 exceeds vocab_size=200"),
    ])
    def test_point_beyond_vocab_size_fails_before_ingest(
        self, small_corpus, monkeypatch, preset, dims, csls_k, message
    ):
        # a side holds at most vocab_size words, so the point cannot run
        reads = []
        monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
        with pytest.raises(ValidationError, match=message):
            SweepSpec(source=small_corpus, budgets=(200_000,), presets=(preset,), dims=dims,
                      csls_k=csls_k, vocab_size=200)
        cfg = replace(FAST, preset=preset, dim=dims[-1] if dims else None, csls_k=csls_k,
                      vocab_size=200)
        for run in (lambda: split_identity_bench(small_corpus, 200_000, cfg),
                    lambda: cipher_bench(small_corpus, 200_000, 1, cfg)):
            with pytest.raises(ValidationError, match=message):
                run()
        assert reads == []

    def test_sweep_without_runnable_point_reads_nothing(self, small_corpus, monkeypatch):
        reads = []
        monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
        with pytest.raises(ValidationError, match="preset dict-init seeds from a supplied"):
            run_sweep(SweepSpec(source=small_corpus, presets=("dict-init",),
                                budgets=(200_000, 300_000)))
        assert reads == []

    def test_ingest_seconds_go_to_first_point_that_runs(self, few_words_corpus, monkeypatch):
        real = bench.take_head_bytes
        slept = []

        def slow_read(*args):
            if not slept:  # one second per ingest, not per block
                slept.append(time.sleep(1.0))
            return real(*args)

        monkeypatch.setattr(bench, "take_head_bytes", slow_read)
        # vecmap-raw's dim=300 fails after ingest at 61 words per side
        spec = SweepSpec(
            source=few_words_corpus, budgets=(200_000,), presets=("vecmap-raw", "coocmap"),
            vocab_size=300, top_eval=200, max_iters=40,
        )
        reports, _ = run_sweep(spec)
        assert reports[0].error.startswith("ValidationError") and reports[0].seconds == 0.0
        assert reports[1].error is None and reports[1].seconds >= 1.0

    def test_spec_file_value_that_does_not_convert_names_line_and_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("source = x\nbudgets = 10\nrepetitions = two\n")
        with pytest.raises(ValidationError, match=r"spec\.txt:3: cannot read repetitions = two"):
            SweepSpec.from_file(path)

    def test_spec_file_key_given_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("source = x\nbudgets = 10\n# a comment\nbudgets = 20\n")
        with pytest.raises(ValidationError,
                           match=r"spec\.txt:4: sweep key budgets given twice, first on line 2"):
            SweepSpec.from_file(path)

    def test_spec_file_seed_mode_key_is_unknown(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("source = x\nbudgets = 10\nseed_mode = dict-init\n")
        with pytest.raises(ValidationError, match="unknown sweep key 'seed_mode'"):
            SweepSpec.from_file(path)


class TestSweep:
    def _spec_file(self, tmp_path, corpus, **overrides):
        lines = {
            "source": corpus,
            "mode": "identity",
            "budgets": "300000,600000",
            "presets": "coocmap",
            "vocab_size": "300",
            "top_eval": "200",
            "max_iters": "40",
        }
        lines.update(overrides)
        p = tmp_path / "spec.txt"
        p.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        return p

    def test_single_point_single_row(self, small_corpus, tmp_path):
        spec = SweepSpec.from_file(
            self._spec_file(tmp_path, small_corpus, budgets="300000")
        )
        reports, csv_text = run_sweep(spec)
        assert len(reports) == 1
        lines = csv_text.splitlines()
        assert lines[0] == "budget_bytes,preset,dimension,accuracy,evaluated,seconds,error"
        assert len(lines) == 2

    def test_product_count(self, small_corpus, tmp_path):
        spec = SweepSpec.from_file(
            self._spec_file(tmp_path, small_corpus, presets="coocmap,log1p")
        )
        reports, csv_text = run_sweep(spec)
        assert len(reports) == 4
        assert [r.preset for r in reports] == ["coocmap", "log1p"] * 2

    def test_deterministic_modulo_seconds(self, small_corpus, tmp_path):
        spec = SweepSpec.from_file(self._spec_file(tmp_path, small_corpus))
        _, csv1 = run_sweep(spec)
        _, csv2 = run_sweep(spec)
        assert mask_seconds(csv1) == mask_seconds(csv2)

    def test_error_rows_keep_sweeping(self, few_words_corpus, tmp_path):
        # at 61 words per side, vecmap-raw's dim=300 fails after ingest
        spec = SweepSpec.from_file(
            self._spec_file(tmp_path, few_words_corpus, presets="coocmap,vecmap-raw")
        )
        reports, csv_text = run_sweep(spec)
        assert len(reports) == 4
        bad = [r for r in reports if r.preset == "vecmap-raw"]
        assert all(r.error for r in bad)
        good = [r for r in reports if r.preset == "coocmap"]
        assert all(r.error is None for r in good)
        assert "ValidationError" in csv_text

    def test_dimension_trend_matches_headline_behavior(self, bench_corpus, tmp_path):
        """Truncating the association to a few dimensions must hurt badly;
        accuracy climbs back as the rank budget grows."""
        spec = SweepSpec(
            source=bench_corpus,
            budgets=(20_000_000,),
            presets=("coocmap-drop",),
            dims=(5, 300),
            vocab_size=800,
            top_eval=500,
        )
        reports, _ = run_sweep(spec)
        acc = {r.dimension: r.accuracy for r in reports}
        assert acc[5] < 0.2 < acc[300]

    def test_spec_validation(self, tmp_path, small_corpus):
        with pytest.raises(ValidationError):
            SweepSpec(source=small_corpus, budgets=())
        with pytest.raises(ValidationError):
            SweepSpec(source=small_corpus, budgets=(2, 1))
        with pytest.raises(ValidationError):
            SweepSpec(source=small_corpus, budgets=(1,), presets=("nope",))
        with pytest.raises(ValidationError):
            SweepSpec(source=small_corpus, budgets=(1,), mode="banana")
        with pytest.raises(ValidationError, match="cipher_seed must be >= 0, got -1"):
            SweepSpec(source=small_corpus, budgets=(1,), mode="cipher", cipher_seed=-1)
        # a spec that runs nothing, or one point twice, is rejected before any read
        with pytest.raises(ValidationError, match="presets must be a nonempty list"):
            SweepSpec(source="unread.txt", budgets=(1,), presets=())
        with pytest.raises(ValidationError, match="budgets must be strictly ascending"):
            SweepSpec(source="unread.txt", budgets=(100, 100))
        with pytest.raises(ValidationError, match="presets must not repeat a value"):
            SweepSpec(source="unread.txt", budgets=(1,), presets=("coocmap", "coocmap"))
        with pytest.raises(ValidationError, match="dims must not repeat a value"):
            SweepSpec(source="unread.txt", budgets=(1,), dims=(4, 8, 4))
        empty = tmp_path / "empty.txt"
        empty.write_text("source = unread.txt\nbudgets = 100\npresets =\n")
        with pytest.raises(ValidationError, match="presets must be a nonempty list"):
            SweepSpec.from_file(empty)
        # a spec that parses but fails SweepSpec's own checks names its file
        repeated = tmp_path / "repeated.txt"
        repeated.write_text("source = unread.txt\nbudgets = 100,100\n")
        with pytest.raises(
            ValidationError, match=r"repeated\.txt: budgets must be strictly ascending"
        ):
            SweepSpec.from_file(repeated)
        unknown = tmp_path / "unknown.txt"
        unknown.write_text("source = unread.txt\nbudgets = 100\npresets = nosuch\n")
        with pytest.raises(ValidationError, match=r"unknown\.txt: unknown preset 'nosuch'"):
            SweepSpec.from_file(unknown)
        bad = tmp_path / "bad.txt"
        bad.write_text("source = x\nbudgets = 10\nnot_a_key = 3\n")
        with pytest.raises(ValidationError):
            SweepSpec.from_file(bad)

    @pytest.mark.parametrize("field", ["top_eval", "window"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_tuning_below_one_rejected(self, field, value):
        # top_eval=-1 would score every entry, 0 would score none
        with pytest.raises(ValidationError, match="need window, top_eval >= 1"):
            BenchConfig(**{field: value})
        with pytest.raises(ValidationError, match="need window, top_eval >= 1"):
            SweepSpec(source="unread.txt", budgets=(1,), **{field: value})

    @pytest.mark.parametrize("field", ["vocab_size", "block_lines"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_ingest_sizes_below_one_rejected(self, field, value):
        # checked before any file is read, not by build_vocab / take_head_bytes
        with pytest.raises(ValidationError, match="need vocab_size, block_lines >= 1"):
            BenchConfig(**{field: value})
        with pytest.raises(ValidationError, match="need vocab_size, block_lines >= 1"):
            SweepSpec(source="unread.txt", budgets=(1,), **{field: value})

    @pytest.mark.parametrize("mode", ["identity", "crosslingual"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_cipher_seed_outside_cipher_mode_rejected(self, mode, seed):
        # 0 is the cipher default: given, it is still a seed no run reads
        target = "unread.txt" if mode == "crosslingual" else None
        with pytest.raises(ValidationError, match=f"{mode} mode does not read it"):
            SweepSpec(source="unread.txt", target=target, budgets=(1,), mode=mode,
                      cipher_seed=seed)

    @pytest.mark.parametrize("mode", ["identity", "cipher"])
    @pytest.mark.parametrize("field, name", [("target", "target"), ("dict_path", "dict")])
    def test_crosslingual_inputs_outside_crosslingual_mode_rejected(self, mode, field, name):
        # read by no other mode: a given path that is never opened would be
        # silently ignored
        with pytest.raises(ValidationError,
                           match=f"{name} is a crosslingual input; {mode} mode does not read it"):
            SweepSpec(source="unread.txt", budgets=(1,), mode=mode, **{field: "unread.txt"})

    def test_cipher_seed_defaults_to_zero(self, small_corpus):
        spec = SweepSpec(source=small_corpus, mode="cipher", budgets=(200_000,),
                         presets=("coocmap",), vocab_size=300, top_eval=200, max_iters=40)
        reports, _ = run_sweep(spec)
        assert [r.seed for r in reports] == [0]

    def test_cipher_repetitions_use_distinct_seeds(self, small_corpus, tmp_path):
        spec = SweepSpec.from_file(self._spec_file(
            tmp_path, small_corpus, mode="cipher", budgets="200000",
            repetitions="2", cipher_seed="5",
        ))
        reports, _ = run_sweep(spec)
        assert [r.seed for r in reports] == [5, 6]

    def test_rows_record_the_dimension_that_ran(self, small_corpus):
        # vecmap-raw reads its shipped dim=300 when the point gives none
        spec = SweepSpec(source=small_corpus, budgets=(500_000,), presets=("vecmap-raw",),
                         vocab_size=300, top_eval=200, max_iters=40)
        reports, csv_text = run_sweep(spec)
        assert reports[0].vocab_sizes == (300, 300) and reports[0].error is None
        assert json.loads(reports[0].to_json())["dimension"] == 300
        assert csv_text.splitlines()[1].split(",")[2] == "300"
        assert list(sweep_summary(reports)) == ["vecmap-raw@300"]

    def test_points_keep_the_preset_tuning(self, monkeypatch):
        """A bench or sweep point runs its preset's own csls_k, max_iters and
        tol unless it sets them, and reports the ones it left as None."""
        from coocmap import presets

        probe = AlignConfig("probe", max_iters=3, csls_k=4, tol=0.5)
        monkeypatch.setitem(presets.PRESETS, "probe", probe)
        assert bench._point_config(BenchConfig(preset="probe")) == probe
        [(cfg, acfg)] = SweepSpec(source="unread.txt", budgets=(1,), presets=("probe",)).points()
        assert acfg == probe
        assert (cfg.csls_k, cfg.max_iters, cfg.tol) == (None, None, None)
        [(_, acfg)] = SweepSpec(source="unread.txt", budgets=(1,), presets=("probe",),
                                csls_k=5).points()
        assert acfg == replace(probe, csls_k=5)

    def test_sweep_summary_thresholds(self):
        def rep(budget, acc):
            return RunReport(
                mode="identity", preset="coocmap", budget_bytes=budget,
                dimension=None, accuracy=acc, evaluated=100, correct=int(acc * 100),
                no_overlap=False, seconds=0.0, vocab_sizes=(1, 1),
                token_counts=(0, 0), data_bytes=0, traces=[], config={},
            )

        reports = [rep(1, 0.01), rep(2, 0.08), rep(3, 0.6), rep(4, 0.9)]
        assert sweep_summary(reports) == {"coocmap": {"start": 2, "works": 3}}

    def test_csv_error_column_quoted_safely(self):
        report = RunReport(
            mode="identity", preset="coocmap", budget_bytes=1, dimension=None,
            accuracy=0.0, evaluated=0, correct=0, no_overlap=True, seconds=0.0,
            vocab_sizes=(0, 0), token_counts=(0, 0), data_bytes=0, traces=[],
            config={}, error="boom, with commas",
        )
        text = sweep_csv([report])
        assert '"boom, with commas"' in text


def _point_reports(spec: SweepSpec) -> list[RunReport]:
    """One bench call per sweep point, each ingesting on its own: the public
    entry point of identity and cipher, and `run_point` on its own ingest
    for crosslingual."""
    dictionary = load_dictionary(spec.dict_path) if spec.dict_path else None
    out = []
    for budget in spec.budgets:
        for preset in spec.presets:
            for dim in spec.dims or (None,):
                for rep in range(spec.repetitions):
                    cfg = BenchConfig(
                        preset=preset, vocab_size=spec.vocab_size, window=spec.window,
                        dim=dim, csls_k=spec.csls_k, max_iters=spec.max_iters,
                        tol=spec.tol, top_eval=spec.top_eval, block_lines=spec.block_lines,
                    )
                    if spec.mode == "identity":
                        out.append(split_identity_bench(spec.source, budget, cfg))
                    elif spec.mode == "cipher":
                        out.append(cipher_bench(spec.source, budget, spec.cipher_seed + rep, cfg))
                    else:
                        sides = bench._corpus_pair_sides(spec.source, spec.target, budget, cfg)
                        acfg = bench._point_config(cfg, dictionary is not None)
                        out.append(bench.run_point("crosslingual", sides, acfg, asdict(cfg),
                                                   time.perf_counter(), budget=budget,
                                                   dictionary=dictionary))
    return out


def _without_seconds(reports):
    return [replace(r, seconds=0.0) for r in reports]


class TestSweepSharesIngest:
    BUDGETS = (300_000, 600_000)

    def _spec(self, source, **overrides):
        fields = dict(
            source=source, budgets=self.BUDGETS, presets=("coocmap", "ppmi"),
            vocab_size=300, top_eval=200, max_iters=40,
        )
        fields.update(overrides)
        return SweepSpec(**fields)

    def _crosslingual_spec(self, small_corpus, tmp_path):
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        return self._spec(
            str(src), target=str(tgt), mode="crosslingual", dict_path=str(dict_path),
            presets=("coocmap", "dict-init"),
        )

    @pytest.mark.parametrize("mode", ["identity", "cipher", "crosslingual"])
    def test_same_rows_as_one_call_per_point(self, small_corpus, tmp_path, mode):
        if mode == "identity":
            spec = self._spec(small_corpus)
        elif mode == "cipher":
            spec = self._spec(
                small_corpus, mode="cipher", presets=("coocmap",), repetitions=2, cipher_seed=4
            )
        else:
            spec = self._crosslingual_spec(small_corpus, tmp_path)
        reports, csv_text = run_sweep(spec)
        expected = _point_reports(spec)
        assert mask_seconds(csv_text) == mask_seconds(sweep_csv(expected))
        assert _without_seconds(reports) == _without_seconds(expected)
        assert all(r.error is None for r in reports)

    def test_counts_once_per_side_and_budget(self, small_corpus, monkeypatch):
        calls = []
        real = bench.count_cooc

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "count_cooc", counting)
        reports, _ = run_sweep(self._spec(small_corpus, mode="cipher", repetitions=2))
        assert len(reports) == 2 * 2 * len(self.BUDGETS)
        assert len(calls) == 2 * len(self.BUDGETS)

    def test_identity_repetitions_align_once(self, small_corpus, monkeypatch):
        # a repetition outside cipher mode would rerun the same point, so
        # the spec rejects it, and each (preset, dim) point aligns once
        for mode, target in (("identity", None), ("crosslingual", small_corpus)):
            with pytest.raises(ValidationError, match=f"repetitions draw cipher permutation "
                                                      f"seeds; {mode} mode runs each point once"):
                self._spec(small_corpus, mode=mode, target=target, repetitions=2)
        calls = []
        real = bench.execute_preset

        def counting(*args, **kwargs):
            calls.append(args[0].preset)
            return real(*args, **kwargs)

        spec = self._spec(small_corpus, budgets=self.BUDGETS[:1], dims=(4, 8))
        monkeypatch.setattr(bench, "execute_preset", counting)
        reports, _ = run_sweep(spec)
        assert calls == ["coocmap", "coocmap", "ppmi", "ppmi"]
        assert [(r.preset, r.dimension, r.error) for r in reports] == [
            (p, d, None) for p in spec.presets for d in spec.dims
        ]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_any_read(self, small_corpus, monkeypatch, workers):
        reads = []
        monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(self._spec(small_corpus), workers=workers)
        assert reads == []

    @pytest.mark.parametrize("budgets, workers, pool_size", [
        ((1_000,), 4, None),  # one budget: serial, no pool
        ((1_000, 2_000), 1, None),
        ((1_000, 2_000), 2, 2),
        ((1_000, 2_000), 8, 2),  # capped at one process per budget
    ])
    def test_pool_has_at_most_one_worker_per_budget(
        self, tmp_path, monkeypatch, budgets, workers, pool_size
    ):
        pools = []

        class FakePool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
        # a missing corpus: every point is an error row, so no work is done
        spec = self._spec(str(tmp_path / "missing.txt"), budgets=budgets)
        reports, _ = run_sweep(spec, workers=workers)
        assert pools == ([] if pool_size is None else [pool_size])
        assert len(reports) == len(spec.presets) * len(budgets)
        assert all(r.error.startswith("FileNotFoundError") for r in reports)

    def test_parallel_budgets_same_csv(self, small_corpus):
        spec = self._spec(small_corpus)
        _, serial = run_sweep(spec, workers=1)
        _, parallel = run_sweep(spec, workers=2)
        assert mask_seconds(parallel) == mask_seconds(serial)

    def test_shared_counts_are_read_only(self, small_corpus, monkeypatch):
        def scribble(cfg, C1, C2, seed=None):
            C1.counts[0, 0] += 1.0

        monkeypatch.setattr(bench, "execute_preset", scribble)
        with pytest.raises(ValueError, match="read-only"):
            run_sweep(self._spec(small_corpus))

    def test_missing_source_one_error_row_per_point(self, tmp_path):
        spec = self._spec(str(tmp_path / "missing.txt"), mode="cipher", repetitions=2)
        reports, csv_text = run_sweep(spec)
        assert [(r.budget_bytes, r.preset) for r in reports] == [
            (b, p) for b in self.BUDGETS for p in spec.presets for _ in range(2)
        ]
        assert all(r.error.startswith("FileNotFoundError") for r in reports)
        assert csv_text.count("FileNotFoundError") == len(reports)

    def test_error_rows_record_the_resolved_dimension(self, small_corpus, few_words_corpus,
                                                      tmp_path):
        # a point whose config resolved records the dim it would have run,
        # as the rows that ran do: vecmap-raw's shipped 300
        presets = ("coocmap", "vecmap-raw", "dict-init")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("a a\n")

        def spec(source, dict_path):
            return self._spec(source, target=small_corpus, mode="crosslingual",
                              dict_path=str(dict_path), presets=presets)

        missing, csv_text = run_sweep(spec(str(tmp_path / "missing.txt"), dict_path))
        assert all(r.error.startswith("FileNotFoundError") for r in missing)
        assert [r.dimension for r in missing] == [None, 300, None] * len(self.BUDGETS)
        assert [row.split(",")[2] for row in csv_text.splitlines()[1:4]] == ["", "300", ""]
        # a missing dictionary fails every point of the budget
        no_dict, _ = run_sweep(spec(small_corpus, tmp_path / "nope.txt"))
        assert all(r.error.startswith("FileNotFoundError") for r in no_dict)
        assert [r.dimension for r in no_dict] == [None, 300, None] * len(self.BUDGETS)
        # 61 words per side: vecmap-raw's dim=300 fails the point after ingest
        failed, _ = run_sweep(self._spec(few_words_corpus, budgets=(300_000,),
                                         presets=("vecmap-raw",)))
        assert failed[0].error.startswith("ValidationError: dim=300 exceeds")
        assert failed[0].dimension == 300

    def test_error_rows_record_the_spec_config(self, small_corpus, tmp_path):
        # budget 300 holds a single block of lines, so the target half is
        # empty and csls_k fails the point; budget 300000 succeeds
        spec = self._spec(small_corpus, budgets=(300, 300_000), presets=("coocmap",))
        reports, _ = run_sweep(spec)
        assert reports[0].error.startswith("ValidationError") and reports[1].error is None
        expected = asdict(BenchConfig(
            preset="coocmap", vocab_size=300, top_eval=200, max_iters=40,
        ))
        assert reports[0].config == reports[1].config == expected
        missing, _ = run_sweep(self._spec(str(tmp_path / "missing.txt"), presets=("coocmap",)))
        assert [r.config for r in missing] == [expected] * len(self.BUDGETS)

    def test_programming_error_propagates(self, small_corpus, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a recorded failure")

        monkeypatch.setattr(bench, "execute_preset", broken)
        with pytest.raises(TypeError, match="not a recorded failure"):
            run_sweep(self._spec(small_corpus))
