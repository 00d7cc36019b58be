import json

import numpy as np
import pytest

from coocmap.cli import main
from coocmap.cooc import CoocMatrix, load_cooc, save_cooc
from coocmap.corpus import Vocabulary, build_vocab


@pytest.fixture(scope="module")
def counted(tmp_path_factory, request):
    """A tiny structured corpus counted into vocab/cooc files via the CLI."""
    from coocmap.synth import generate_corpus

    tmp = tmp_path_factory.mktemp("cli")
    corpus = tmp / "corpus.txt"
    generate_corpus(corpus, 250_000, seed=5, n_types=60, n_companions=6)
    out = tmp / "side"
    rc = main([
        "count", "--input", str(corpus), "--out", str(out),
        "--vocab-size", "50", "--window", "5",
    ])
    assert rc == 0
    return tmp, out


def test_count_writes_loadable_files(counted, capsys):
    tmp, out = counted
    vocab = Vocabulary.load(f"{out}.vocab.txt")
    C = load_cooc(f"{out}.cooc.bin", vocab)
    assert vocab.size == 50
    assert C.counts.shape == (50, 50)
    assert np.array_equal(C.counts, C.counts.T)


def test_count_hand_checked_window(tmp_path, capsys):
    (tmp_path / "tiny.txt").write_text("a b a\n")
    rc = main([
        "count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t"),
        "--vocab-size", "3", "--window", "1",
    ])
    assert rc == 0
    assert "tokens=3 types=2" in capsys.readouterr().out
    vocab = Vocabulary.load(tmp_path / "t.vocab.txt")
    C = load_cooc(tmp_path / "t.cooc.bin", vocab)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert C.counts[a, b] == 2 and C.counts[b, a] == 2 and C.counts[a, a] == 0


def test_induce_identical_sides_reaches_full_accuracy(counted, capsys, tmp_path):
    tmp, out = counted
    vocab = Vocabulary.load(f"{out}.vocab.txt")
    dict_path = tmp_path / "ident.txt"
    dict_path.write_text("".join(f"{t} {t}\n" for t in vocab.tokens[1:]))
    report_path = tmp_path / "report.json"
    preds_path = tmp_path / "preds.tsv"
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "coocmap", "--dict", str(dict_path), "--csls-k", "5",
        "--out-report", str(report_path), "--out-preds", str(preds_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["accuracy"] == 1.0
    assert report["preset"] == "coocmap"
    assert preds_path.read_text().count("\n") == vocab.size


def test_induce_reproducible_outputs(counted, tmp_path):
    tmp, out = counted
    outputs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"r{tag}.json"
        preds_path = tmp_path / f"p{tag}.tsv"
        rc = main([
            "induce",
            "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
            "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
            "--preset", "coocmap", "--csls-k", "5",
            "--out-report", str(report_path), "--out-preds", str(preds_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        report["seconds"] = None  # the designated volatile field
        outputs.append((preds_path.read_bytes(), json.dumps(report, sort_keys=True)))
    assert outputs[0] == outputs[1]


def test_induce_dict_init_preset(counted, tmp_path):
    tmp, out = counted
    vocab = Vocabulary.load(f"{out}.vocab.txt")
    dict_path = tmp_path / "seed.txt"
    dict_path.write_text("".join(f"{t} {t}\n" for t in vocab.tokens[1:20]))
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "dict-init", "--dict", str(dict_path), "--csls-k", "5",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 0
    assert json.loads((tmp_path / "r.json").read_text())["accuracy"] == 1.0


def test_eval_hand_written_two_of_three(tmp_path, capsys):
    (tmp_path / "preds.tsv").write_text(
        "1\tdog\tchien\t-\n2\tcat\tchat\t-\n3\tsun\tlune\t-\n"
    )
    (tmp_path / "dict.txt").write_text(
        "dog chien\ncat chat\nsun soleil\n"
    )
    for name, toks in (("v1.txt", ["dog", "cat", "sun"]), ("v2.txt", ["chien", "chat", "soleil", "lune"])):
        build_vocab(toks, 10).save(tmp_path / name)
    rc = main([
        "eval", "--preds", str(tmp_path / "preds.tsv"), "--dict", str(tmp_path / "dict.txt"),
        "--vocab1", str(tmp_path / "v1.txt"), "--vocab2", str(tmp_path / "v2.txt"),
    ])
    assert rc == 0
    assert "evaluated=3 correct=2" in capsys.readouterr().out


def test_bench_subcommand(counted, tmp_path, capsys):
    tmp, _ = counted
    rc = main([
        "bench", "--corpus", str(tmp / "corpus.txt"), "--budget", "200000",
        "--mode", "cipher", "--seed", "1", "--vocab-size", "60",
        "--top-eval", "40", "--block-lines", "20",
        "--out-report", str(tmp_path / "bench.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=cipher" in out and "accuracy=" in out
    assert json.loads((tmp_path / "bench.json").read_text())["mode"] == "cipher"


def test_bench_defaults_come_from_bench_config(counted, tmp_path):
    from dataclasses import asdict

    from coocmap.bench import BenchConfig

    tmp, _ = counted
    rc = main([
        "bench", "--corpus", str(tmp / "corpus.txt"), "--budget", "1000000000",
        "--mode", "identity", "--out-report", str(tmp_path / "bench.json"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["error"] is None
    assert report["config"] == asdict(BenchConfig())


def test_bench_dict_init_exits_2(counted, tmp_path, capsys):
    tmp, _ = counted
    rc = main([
        "bench", "--corpus", str(tmp / "corpus.txt"), "--budget", "200000",
        "--vocab-size", "60", "--top-eval", "40", "--block-lines", "20",
        "--preset", "dict-init", "--out-report", str(tmp_path / "bench.json"),
    ])
    assert rc == 2
    assert "dict-init" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_sweep_subcommand_with_workers(counted, tmp_path, capsys):
    tmp, _ = counted
    spec = tmp_path / "spec.txt"
    spec.write_text(
        f"source = {tmp / 'corpus.txt'}\n"
        "mode = identity  # comment here\n"
        "budgets = 100000,200000\n"
        "presets = coocmap\n"
        "vocab_size = 60\n"
        "top_eval = 40\n"
        "block_lines = 20\n"
    )
    rc = main([
        "sweep", "--spec", str(spec), "--out-csv", str(tmp_path / "s.csv"),
        "--workers", "2", "--out-reports", str(tmp_path / "reports"),
    ])
    assert rc == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "budget_bytes,preset,dimension,accuracy,evaluated,seconds,error"
    assert len(lines) == 3
    assert (tmp_path / "reports" / "run_0001.json").exists()


def test_config_file_merge(tmp_path, capsys):
    (tmp_path / "tiny.txt").write_text("a b a\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("vocab-size = 2\nwindow = 1\n")
    rc = main([
        "count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t"),
        "--config", str(cfg), "--vocab-size", "3",  # flag beats config
    ])
    assert rc == 0
    assert Vocabulary.load(tmp_path / "t.vocab.txt").size == 3


def test_exit_code_usage_error():
    assert main(["count", "--no-such-flag"]) == 1
    assert main(["frobnicate"]) == 1


def test_exit_code_validation(tmp_path):
    # missing file
    assert main(["count", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 2
    # missing required option
    assert main(["count", "--input", str(tmp_path / "nope.txt")]) == 2
    # unknown preset
    (tmp_path / "c.txt").write_text("a b\n")
    assert main([
        "induce", "--cooc1", "x", "--cooc2", "x", "--vocab1", "x", "--vocab2", "x",
        "--preset", "nope", "--out-report", "r", "--out-preds", "p",
    ]) == 2
    # unknown config key
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus = 1\n")
    assert main([
        "count", "--input", str(tmp_path / "c.txt"), "--out", str(tmp_path / "o"),
        "--config", str(cfg),
    ]) == 2


def test_vecmap_vectors_preset_via_files(counted, tmp_path):
    from coocmap.assoc import save_vectors, svd_vectors

    tmp, out = counted
    vocab = Vocabulary.load(f"{out}.vocab.txt")
    C = load_cooc(f"{out}.cooc.bin", vocab)
    vec_path = tmp_path / "vecs.txt"
    save_vectors(svd_vectors(C, 20), vocab, vec_path)
    dict_path = tmp_path / "ident.txt"
    dict_path.write_text("".join(f"{t} {t}\n" for t in vocab.tokens[1:]))
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "vecmap-vectors", "--vectors1", str(vec_path),
        "--vectors2", str(vec_path), "--dict", str(dict_path), "--csls-k", "5",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 0
    assert json.loads((tmp_path / "r.json").read_text())["accuracy"] == 1.0


def test_threads_env_propagates(tmp_path):
    """COOCMAP_THREADS reaches the BLAS variables before numpy loads, so a
    process that only imports the CLI runs with the thread cap."""
    import os
    import subprocess
    import sys

    import coocmap

    script = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from coocmap.cli import main\n"
        "rc = main(['count', '--input', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, seen[0], os.environ['OMP_NUM_THREADS'])\n"
    )
    (tmp_path / "tiny.txt").write_text("a b a\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["COOCMAP_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(coocmap.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "tiny.txt"), str(tmp_path / "t")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.splitlines()[-1].split() == ["0", "1", "1"]


def test_csls_k_beyond_vocabulary_exits_2(counted, tmp_path, capsys):
    tmp, out = counted
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "coocmap-drop", "--csls-k", "100000",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "csls_k=100000" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_exit_code_numeric_failure(tmp_path):
    # counts with NaN entries are rejected when the counts file is loaded
    V = 8
    bad = np.full((V, V), np.nan)
    vocab = build_vocab([f"w{i}" for i in range(1, V)] * 2, V)
    C = CoocMatrix(bad, window=1, vocab_digest=vocab.digest, token_count=0)
    save_cooc(C, tmp_path / "bad.bin")
    vocab.save(tmp_path / "v.txt")
    rc = main([
        "induce",
        "--cooc1", str(tmp_path / "bad.bin"), "--cooc2", str(tmp_path / "bad.bin"),
        "--vocab1", str(tmp_path / "v.txt"), "--vocab2", str(tmp_path / "v.txt"),
        "--preset", "coocmap-drop", "--csls-k", "2",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 3


def test_malformed_cooc_header_exits_2(tmp_path, capsys):
    raw = json.dumps({"m": 1, "token_count": 3, "vocab_digest": "t"}).encode("utf-8")
    (tmp_path / "c.bin").write_bytes(b"COOCMAT1" + len(raw).to_bytes(4, "little") + raw)
    (tmp_path / "v.txt").write_text("[UNK]\na\n")
    rc = main([
        "induce", "--cooc1", str(tmp_path / "c.bin"), "--cooc2", str(tmp_path / "c.bin"),
        "--vocab1", str(tmp_path / "v.txt"), "--vocab2", str(tmp_path / "v.txt"),
        "--preset", "coocmap",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "c.bin: header key 'V'" in capsys.readouterr().err


def test_induce_dict_init_fails_before_reading_counts(tmp_path, capsys):
    rc = main([
        "induce", "--cooc1", str(tmp_path / "no1.bin"), "--cooc2", str(tmp_path / "no2.bin"),
        "--vocab1", str(tmp_path / "no1.txt"), "--vocab2", str(tmp_path / "no2.txt"),
        "--preset", "dict-init",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "preset dict-init seeds from a supplied dictionary" in capsys.readouterr().err


def test_bench_dict_init_reads_no_corpus(tmp_path, capsys, monkeypatch):
    from coocmap import bench

    reads = []
    monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
    rc = main([
        "bench", "--corpus", str(tmp_path / "missing.txt"), "--budget", "200000",
        "--preset", "dict-init",
    ])
    assert rc == 2
    assert "preset dict-init seeds from a supplied dictionary" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("preset, flags, unread", [
    ("coocmap", ["--drop-r", "5"], "drop_r"),
    ("vecmap-raw", ["--clip-lo", "2"], "clip_lo"),
    ("vecmap-vectors", ["--dim", "50"], "dim"),
])
def test_induce_unread_override_exits_2(counted, tmp_path, capsys, preset, flags, unread):
    tmp, out = counted
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", preset, *flags,
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert f"preset {preset} does not read {unread}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("preset, flags", [
    ("coocmap", ["--dim", "100"]),
    ("vecmap-raw", []),  # the shipped dim=300 on 50 words
])
def test_induce_dim_beyond_vocabulary_exits_2(counted, tmp_path, capsys, preset, flags):
    tmp, out = counted
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", preset, *flags, "--csls-k", "5",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "exceeds the smaller vocabulary" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_induce_vector_widths_differ_exits_2(counted, tmp_path, capsys):
    from coocmap.assoc import save_vectors, svd_vectors

    tmp, out = counted
    vocab = Vocabulary.load(f"{out}.vocab.txt")
    C = load_cooc(f"{out}.cooc.bin", vocab)
    for name, width in (("v1.txt", 20), ("v2.txt", 10)):
        save_vectors(svd_vectors(C, width), vocab, tmp_path / name)
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "vecmap-vectors", "--csls-k", "5",
        "--vectors1", str(tmp_path / "v1.txt"), "--vectors2", str(tmp_path / "v2.txt"),
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "source 20 and target 10" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
