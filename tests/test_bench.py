import json
import tracemalloc
from dataclasses import asdict, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coocmap import bench
from coocmap.bench import (
    BenchConfig,
    RunReport,
    SweepSpec,
    alternate_blocks,
    cipher_bench,
    crosslingual_run,
    run_sweep,
    split_identity_bench,
    sweep_csv,
    sweep_summary,
)
from coocmap.errors import ValidationError
from coocmap.evaluation import load_dictionary, load_predictions, precision_at_1
from coocmap.cooc import count_cooc
from coocmap.corpus import Vocabulary, build_vocab, encode, line_blocks, take_head_bytes, tokenize

FAST = BenchConfig(preset="coocmap", vocab_size=300, top_eval=200, max_iters=40)


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


# letters lower() changes or keeps, a literal [UNK] in both cases, and
# whitespace that split() cuts on but split("\n") does not
_TEXT_PIECES = ["a", "b", "B", "\u00df", "\u1e9e", "\u00e9", "\u00c9", "[UNK]", "[unk]",
                " ", "\t", "\r", "\x0c", "\x85", "\u2028", "\u00a0", "\n", "\n", "\n"]


def _ingest(text, blocks, cfg):
    """build_side's vocabulary, the corpus it counts, its counts and types."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "count_cooc", lambda corpus, m: seen.append(corpus) or count_cooc(corpus, m))
        vocab, C, types = bench.build_side(text, blocks, cfg)
    return vocab, seen[0], C, types


class TestStreamedIngest:
    """Ingest in blocks of lines equals the whole-text composition
    `encode(tokenize(text), build_vocab(...))` bit for bit, for a whole text
    and for the two halves of a split."""

    def _check(self, text, block_lines, v_max, window):
        cfg = BenchConfig(vocab_size=v_max, window=window, block_lines=block_lines)
        blocks = line_blocks(text, block_lines)
        lines = tokenize(text)
        half_a, half_b = alternate_blocks(lines, block_lines)
        for side, side_lines in ((blocks, lines), (blocks[0::2], half_a), (blocks[1::2], half_b)):
            vocab, enc, C, types = _ingest(text, side, cfg)
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
    def test_equals_whole_text_composition(self, pieces, block_lines, v_max, window):
        self._check("".join(pieces), block_lines, v_max, window)

    def test_corpus_blocks(self, small_corpus):
        text, _ = take_head_bytes(small_corpus, 300_000)
        self._check(text, 100, 150, 5)

    def test_block_lines_must_be_positive(self):
        with pytest.raises(ValidationError, match="block_lines"):
            line_blocks("a\n", 0)


@pytest.mark.parametrize("pair", [False, True])
def test_ingest_peak_memory_stays_under_its_model(small_corpus, pair):
    """The memory model `_split_sides` states (and `_corpus_pair_sides` with
    one file read at a time): about 2 B per budget byte, 24 B per token of
    the larger side, 80 B per token of the largest block and 32 B * V^2.
    Counting with per-token int64 segment ids and compacted keys, about
    45 B per token, does not fit it on the pair case (16.0 MB against a
    15.0 MB bound)."""
    budget, cfg = 2_000_000, BenchConfig(vocab_size=300)
    text, _ = take_head_bytes(small_corpus, budget)
    block_tokens = max(len(text[b].split()) for b in line_blocks(text, cfg.block_lines))
    del text
    tracemalloc.start()
    try:
        if pair:
            sides = bench._corpus_pair_sides(small_corpus, small_corpus, budget, cfg)
        else:
            sides = bench._split_sides(small_corpus, budget, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tokens = max(sides.C1.token_count, sides.C2.token_count)
    assert peak < 2 * budget + 24 * tokens + 80 * block_tokens + 32 * cfg.vocab_size**2


class TestIdentityBench:
    def test_identical_halves_give_perfect_accuracy(self, small_corpus, tmp_path):
        # duplicate each block so the two dealt halves are the same text
        lines = take_head_bytes(small_corpus, 400_000)[0].splitlines()
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
        lines = tokenize(take_head_bytes(small_corpus, 600_000)[0])
        half_a, half_b = alternate_blocks(lines, FAST.block_lines)
        v1 = build_vocab((t for l in half_a for t in l), FAST.vocab_size)
        v2 = build_vocab((t for l in half_b for t in l), FAST.vocab_size)
        shared = [tok for tok in v1.tokens if tok in v2][: FAST.top_eval]
        from coocmap.evaluation import Dictionary

        identity = Dictionary({tok: frozenset([tok]) for tok in shared})
        acc, evaluated, correct, _ = precision_at_1(preds, identity, v1, v2)
        assert evaluated == report.evaluated
        assert acc == pytest.approx(report.accuracy)


class TestCipherBench:
    def test_identity_permutation_reduces_to_identity_bench(self, small_corpus):
        ident = split_identity_bench(small_corpus, 600_000, FAST)
        c = cipher_bench(small_corpus, 600_000, 0, FAST, pi=np.arange(FAST.vocab_size))
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
            f = kernels.svd(X)
            r = min(r, f.S.size)
            return (f.U[:, :r] * f.S[:r]) @ f.Vt[:r]

        monkeypatch.setattr(kernels, "trunc", full_svd_trunc)
        cipher_bench(small_corpus, 600_000, 2, cfg, preds_out=tmp_path / "svd.tsv")
        assert (tmp_path / "gram.tsv").read_bytes() == (tmp_path / "svd.tsv").read_bytes()

    def test_report_json_round_trip(self, small_corpus):
        report = cipher_bench(small_corpus, 400_000, 1, FAST)
        again = RunReport.from_json(report.to_json())
        assert again == report


def _corpus_pair(small_corpus, tmp_path, dict_size: int):
    """The two halves of the small corpus written to separate files (a
    supplied corpus pair) and an identity dictionary of the source half's
    top `dict_size - 1` words."""
    lines = take_head_bytes(small_corpus, 900_000)[0].splitlines()
    a, b = alternate_blocks(lines, 100)
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    src.write_text("\n".join(a) + "\n")
    tgt.write_text("\n".join(b) + "\n")
    va = build_vocab((t for line in a for t in line.split()), dict_size)
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("".join(f"{t} {t}\n" for t in va.tokens[1:]))
    return src, tgt, dict_path


class TestCrosslingual:
    def test_split_files_with_identity_dictionary(self, small_corpus, tmp_path):
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 200)
        dictionary = load_dictionary(dict_path)
        cfg = BenchConfig(preset="coocmap", vocab_size=200, top_eval=200)
        report = crosslingual_run(src, tgt, 10**9, cfg, dictionary)
        assert report.mode == "crosslingual"
        assert report.evaluated > 100
        assert report.error is None

    def test_dict_init_requires_dictionary(self, small_corpus):
        with pytest.raises(ValidationError):
            crosslingual_run(
                small_corpus, small_corpus, 10**5, replace(FAST, preset="dict-init"), None
            )

    def test_dict_init_seeds_from_the_supplied_dictionary(self, small_corpus, tmp_path,
                                                          monkeypatch):
        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        dictionary = load_dictionary(dict_path)
        calls = []
        real = bench.seed_from_dictionary

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(bench, "seed_from_dictionary", counting)
        report = crosslingual_run(src, tgt, 10**9, replace(FAST, preset="dict-init"), dictionary)
        assert calls == [dictionary]
        assert report.preset == "dict-init"
        crosslingual_run(src, tgt, 10**9, FAST, dictionary)
        assert len(calls) == 1  # an unsupervised preset never seeds from it

    def test_same_outputs_as_count_and_induce(self, small_corpus, tmp_path):
        """The library run and `coocmap count` + `coocmap induce` on the same
        files and dictionary agree byte for byte."""
        from coocmap.cli import main

        src, tgt, dict_path = _corpus_pair(small_corpus, tmp_path, 300)
        report = crosslingual_run(
            src, tgt, 10**9, FAST, load_dictionary(dict_path), preds_out=tmp_path / "lib.tsv"
        )
        for name, path in (("s", src), ("t", tgt)):
            assert main([
                "count", "--input", str(path), "--out", str(tmp_path / name),
                "--vocab-size", str(FAST.vocab_size), "--window", str(FAST.window),
            ]) == 0
        assert main([
            "induce", "--cooc1", str(tmp_path / "s.cooc.bin"), "--cooc2", str(tmp_path / "t.cooc.bin"),
            "--vocab1", str(tmp_path / "s.vocab.txt"), "--vocab2", str(tmp_path / "t.vocab.txt"),
            "--preset", "coocmap", "--dict", str(dict_path),
            "--csls-k", str(FAST.csls_k), "--max-iters", str(FAST.max_iters),
            "--tol", repr(FAST.tol),
            "--out-report", str(tmp_path / "cli.json"), "--out-preds", str(tmp_path / "cli.tsv"),
        ]) == 0
        assert (tmp_path / "cli.tsv").read_bytes() == (tmp_path / "lib.tsv").read_bytes()
        induced = RunReport.from_json((tmp_path / "cli.json").read_text())
        assert induced.evaluated > 100
        assert (induced.accuracy, induced.evaluated, induced.correct, induced.traces) == (
            report.accuracy, report.evaluated, report.correct, report.traces
        )


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
            lambda: crosslingual_run(small_corpus, small_corpus, 300_000, cfg),
        ]
        for run in entry_points:
            with pytest.raises(ValidationError, match="dict-init"):
                run()
        assert reads == []

    @pytest.mark.parametrize("mode", ["identity", "cipher", "crosslingual"])
    def test_sweep_error_row_per_point(self, small_corpus, mode):
        spec = SweepSpec(
            source=small_corpus, target=small_corpus if mode == "crosslingual" else None,
            mode=mode, budgets=(200_000, 300_000), presets=("dict-init", "coocmap"),
            repetitions=2, vocab_size=300, top_eval=200, max_iters=40,
        )
        reports, _ = run_sweep(spec)
        assert [r.preset for r in reports] == ["dict-init"] * 2 + ["coocmap"] * 2 + \
            ["dict-init"] * 2 + ["coocmap"] * 2
        for r in reports:
            if r.preset == "dict-init":
                assert r.error.startswith("ValidationError") and "dict-init" in r.error
            else:
                assert r.error is None

    def test_sweep_without_runnable_point_reads_nothing(self, small_corpus, monkeypatch):
        reads = []
        monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
        spec = SweepSpec(source=small_corpus, presets=("dict-init",), budgets=(200_000, 300_000))
        reports, _ = run_sweep(spec)
        assert reads == []
        assert [r.error.startswith("ValidationError") for r in reports] == [True, True]

    def test_ingest_seconds_go_to_first_point_that_runs(self, small_corpus, monkeypatch):
        import time

        real = bench.take_head_bytes

        def slow_read(*args):
            time.sleep(1.0)
            return real(*args)

        monkeypatch.setattr(bench, "take_head_bytes", slow_read)
        spec = SweepSpec(
            source=small_corpus, budgets=(200_000,), presets=("dict-init", "coocmap"),
            vocab_size=300, top_eval=200, max_iters=40,
        )
        reports, _ = run_sweep(spec)
        assert reports[0].seconds == 0.0
        assert reports[1].error is None and reports[1].seconds >= 1.0

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

    def test_error_rows_keep_sweeping(self, small_corpus, tmp_path):
        spec = SweepSpec.from_file(
            self._spec_file(tmp_path, small_corpus, presets="coocmap,vecmap-vectors")
        )
        reports, csv_text = run_sweep(spec)
        assert len(reports) == 4
        bad = [r for r in reports if r.preset == "vecmap-vectors"]
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
        bad = tmp_path / "bad.txt"
        bad.write_text("source = x\nbudgets = 10\nnot_a_key = 3\n")
        with pytest.raises(ValidationError):
            SweepSpec.from_file(bad)

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
    """One public bench call per sweep point, each ingesting on its own."""
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
                        out.append(crosslingual_run(
                            spec.source, spec.target, budget, cfg, dictionary
                        ))
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
        reports, _ = run_sweep(self._spec(small_corpus, repetitions=2))
        assert len(reports) == 2 * 2 * len(self.BUDGETS)
        assert len(calls) == 2 * len(self.BUDGETS)

    def test_identity_repetitions_align_once(self, small_corpus, monkeypatch):
        calls = []
        real = bench.execute_preset

        def counting(*args, **kwargs):
            calls.append(args[0].preset)
            return real(*args, **kwargs)

        spec = self._spec(small_corpus, repetitions=2, dims=(4, 8))
        monkeypatch.setattr(bench, "execute_preset", counting)
        reports, csv_text = run_sweep(spec)
        assert len(calls) == len(spec.presets) * len(spec.dims) * len(self.BUDGETS)
        assert len(reports) == 2 * len(calls)
        assert all(r.seconds == 0.0 for r in reports[1::2])
        monkeypatch.setattr(bench, "execute_preset", real)
        assert mask_seconds(csv_text) == mask_seconds(sweep_csv(_point_reports(spec)))

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
        spec = self._spec(str(tmp_path / "missing.txt"), repetitions=2)
        reports, csv_text = run_sweep(spec)
        assert [(r.budget_bytes, r.preset) for r in reports] == [
            (b, p) for b in self.BUDGETS for p in spec.presets for _ in range(2)
        ]
        assert all(r.error.startswith("FileNotFoundError") for r in reports)
        assert csv_text.count("FileNotFoundError") == len(reports)

    def test_error_rows_record_the_resolved_dimension(self, small_corpus, tmp_path):
        # a point whose config resolved records the dim it would have run,
        # as the rows that ran do: vecmap-raw's shipped 300
        presets = ("coocmap", "vecmap-raw", "dict-init")
        missing, csv_text = run_sweep(self._spec(str(tmp_path / "missing.txt"), presets=presets))
        assert all(r.error.startswith("FileNotFoundError") for r in missing)
        assert [r.dimension for r in missing] == [None, 300, None] * len(self.BUDGETS)
        assert [row.split(",")[2] for row in csv_text.splitlines()[1:4]] == ["", "300", ""]
        # 200 words per side: vecmap-raw's dim=300 fails the point after ingest
        failed, _ = run_sweep(self._spec(small_corpus, budgets=(300_000,), presets=("vecmap-raw",),
                                         vocab_size=200))
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
