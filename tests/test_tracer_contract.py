"""The per-layer tracer in perfbench/spans.py rebinds package functions by
name in the modules that call them. A rename that breaks it fails here, in
the tier-1 run, instead of only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from coocmap.align import AlignConfig
from coocmap.cooc import CoocMatrix

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(targets) -> dict:
    """(caller module, function name) -> the object bound there now."""
    out = {}
    for _layer, fname, callers in targets:
        for caller in callers:
            out[caller, fname] = getattr(importlib.import_module(f"coocmap.{caller}"), fname)
    return out


def test_recorder_rebinds_every_target_and_restores_it():
    spans = load_spans()
    before = bound_names(spans.TARGETS)
    recorder = spans.Recorder()
    rng = np.random.default_rng(0)
    M = rng.integers(0, 30, size=(10, 10)).astype(float)
    C = CoocMatrix(M + M.T, 1, "t", 500)
    with recorder.installed():
        inside = bound_names(spans.TARGETS)
        from coocmap import align

        align.run_coocmap(C, C, AlignConfig(csls_k=3, max_iters=5))
    assert all(inside[key] is not fn for key, fn in before.items())
    after = bound_names(spans.TARGETS)
    assert all(after[key] is fn for key, fn in before.items())
    names = [s["name"] for s in recorder.spans]
    assert "assoc.build" in names and "align.unsupervised_init" in names
    learned = [s for s in recorder.spans if s["name"] == "align.coocmap_selflearn"]
    assert len(learned) == 1 and learned[0]["attrs"]["iterations"] >= 1


def test_recorder_sees_every_ingest_layer(tmp_path):
    """A split ingest under the recorder leaves spans of each ingest layer,
    so the per-layer ingest metrics cannot go silently empty: one read per
    block and one at the end of the head."""
    from coocmap import bench

    path = tmp_path / "c.txt"
    path.write_text("a b c\nb c d\nc d a\nd a b\ne\n")
    recorder = load_spans().Recorder()
    with recorder.installed():
        sides = bench._split_sides(path, 10**6, bench.BenchConfig(vocab_size=4, block_lines=2))
    names = [s["name"] for s in recorder.spans]
    assert sides.data_bytes == path.stat().st_size
    assert names.count("corpus.take_head_bytes") == 4  # 3 blocks and the end
    assert names.count("corpus.tokenize") == names.count("corpus.encode") == 3
    assert names.count("corpus.build_vocab") == names.count("cooc.count_cooc") == 2


def test_recorder_sees_the_experiment_step(tmp_path):
    """One bench run records one span each of aligning, translating and
    writing the dump, in that order, under the bench entry point."""
    from coocmap import bench
    from coocmap.synth import generate_corpus

    path = tmp_path / "c.txt"
    generate_corpus(path, 60_000, seed=5, n_types=60, n_companions=6)
    cfg = bench.BenchConfig(vocab_size=30, csls_k=5, max_iters=3, top_eval=3)
    recorder = load_spans().Recorder()
    with recorder.installed():
        report = bench.split_identity_bench(path, 10**6, cfg, preds_out=tmp_path / "p.tsv")
    step = ("presets.execute_preset", "evaluation.translate", "evaluation.write_predictions")
    spans = [s for s in recorder.spans if s["name"] in step]
    assert [s["name"] for s in spans] == list(step)
    entry = [s["id"] for s in recorder.spans if s["name"] == "bench.split_identity_bench"]
    assert len(entry) == 1 and all(s["parent"] == entry[0] for s in spans)
    assert report.evaluated == 3 and (tmp_path / "p.tsv").is_file()
