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


@pytest.mark.parametrize("budget, tokens", [(None, 8), ("15", 8), ("14", 6)])
def test_count_keeps_a_last_line_without_newline(tmp_path, capsys, budget, tokens):
    """The file's last line counts without a newline when the budget reaches
    the end of the file (the default budget is the whole file); a budget
    that stops inside it cuts back to the last newline."""
    (tmp_path / "c.txt").write_bytes(b"a b c\nd e f\ng h")
    argv = ["count", "--input", str(tmp_path / "c.txt"), "--out", str(tmp_path / "t")]
    assert main(argv + (["--bytes", budget] if budget else [])) == 0
    assert f"tokens={tokens} types={tokens}" in capsys.readouterr().out


def test_count_files_equal_the_whole_text_composition(tmp_path, capsys):
    """`count` ingests in blocks of lines; its files are byte for byte those
    of counting `encode(tokenize(text), build_vocab(...))` of the whole text."""
    from itertools import chain

    from coocmap.cooc import count_cooc
    from coocmap.corpus import encode, tokenize
    from coocmap.synth import generate_corpus

    corpus = tmp_path / "corpus.txt"
    generate_corpus(corpus, 150_000, seed=9, n_types=80, n_companions=6)
    lines = corpus.read_bytes().decode("utf-8").split("\n")
    assert len(lines) > 2000  # three blocks of the default 1000 lines
    lines[3] = "\u1e9etra\u00dfe [UNK] [unk] \u00c9\x85\u00e9\u2028x\u00a0y\rz\x0cw"
    lines[1500] = "   "
    lines.insert(1000, "")
    corpus.write_bytes("\n".join(lines).encode("utf-8"))
    assert main([
        "count", "--input", str(corpus), "--out", str(tmp_path / "new"),
        "--vocab-size", "40", "--window", "3",
    ]) == 0
    tokens = tokenize(corpus.read_bytes().decode("utf-8"))
    vocab = build_vocab(chain.from_iterable(tokens), 40)
    vocab.save(tmp_path / "old.vocab.txt")
    save_cooc(count_cooc(encode(tokens, vocab), 3), tmp_path / "old.cooc.bin")
    for suffix in (".vocab.txt", ".cooc.bin"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
    types = len(set(chain.from_iterable(tokens)))
    assert f"tokens={sum(map(len, tokens))} types={types} vocab=40" in capsys.readouterr().out


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


def _eval_argv(tmp_path, preds, v1):
    """`eval` of the dump `preds` against the dictionary 'a a', with the
    source vocabulary file's lines `v1` and a target vocabulary of a, b."""
    (tmp_path / "preds.tsv").write_text(preds)
    (tmp_path / "dict.txt").write_text("a a\n")
    (tmp_path / "v1.txt").write_text("".join(tok + "\n" for tok in v1))
    build_vocab(["a", "b"], 10).save(tmp_path / "v2.txt")
    return [
        "eval", "--preds", str(tmp_path / "preds.tsv"), "--dict", str(tmp_path / "dict.txt"),
        "--vocab1", str(tmp_path / "v1.txt"), "--vocab2", str(tmp_path / "v2.txt"),
    ]


@pytest.mark.parametrize("preds, v1, message", [
    # scored, the later row would win: 0/1 with exit 0
    ("0\ta\ta\t-\n1\ta\tb\t-\n", ("[UNK]", "a", "b"),
     "preds.tsv:2: source 'a' listed twice, first on line 1"),
    ("0\ta\ta\t-\n", ("[UNK]", "a", "b", "a"),
     "v1.txt:4: vocabulary tokens must be unique; 'a' is also on line 2"),
    ("0\ta\ta\t-\n", ("[UNK]", "a", "[UNK]"),
     "v1.txt:3: vocabulary tokens must be unique; '[UNK]' is also on line 1"),
    ("0\ta\ta\t-\n", ("a", "b"), "v1.txt: vocabulary must start with '[UNK]' at id 0"),
    ("0\ta\ta\tyes\n", ("[UNK]", "a", "b"), "preds.tsv:1: flag must be 0, 1 or '-', got 'yes'"),
    ("0\ta\ta\t-\n0\tb\tb\t-\n", ("[UNK]", "a", "b"),
     "preds.tsv:2: rank 0 listed twice, first on line 1"),
], ids=["repeated-source", "repeated-token", "repeated-unk", "no-leading-unk", "bad-flag",
        "repeated-rank"])
def test_eval_malformed_input_exits_2_naming_the_file(tmp_path, capsys, preds, v1, message):
    assert main(_eval_argv(tmp_path, preds, v1)) == 2
    assert message in capsys.readouterr().err


def test_induce_vocabulary_without_leading_unk_names_the_file(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("a\nb\n")
    rc = main([
        "induce", "--cooc1", str(tmp_path / "c.bin"), "--cooc2", str(tmp_path / "c.bin"),
        "--vocab1", str(tmp_path / "v.txt"), "--vocab2", str(tmp_path / "v.txt"),
        "--preset", "coocmap",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "v.txt: vocabulary must start with '[UNK]' at id 0" in capsys.readouterr().err


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


def test_config_value_that_does_not_convert_names_line_and_key(tmp_path, capsys):
    (tmp_path / "tiny.txt").write_text("a b a\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("vocab-size = 2\nwindow = five\n")
    rc = main([
        "count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t"),
        "--config", str(cfg),
    ])
    assert rc == 2
    assert "cfg.txt:2: cannot read window = five" in capsys.readouterr().err
    assert not (tmp_path / "t.vocab.txt").exists()


def test_config_key_given_twice_names_both_lines(tmp_path, capsys):
    (tmp_path / "tiny.txt").write_text("a b a\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("window = 1\nvocab-size = 2\nwindow = 2\n")
    rc = main([
        "count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t"),
        "--config", str(cfg),
    ])
    assert rc == 2
    assert "cfg.txt:3: option window given twice, first on line 1" in capsys.readouterr().err
    assert not (tmp_path / "t.vocab.txt").exists()


def test_config_option_in_both_spellings_names_both_lines(tmp_path, capsys):
    # the two spellings name one option, so the third line gives it twice
    (tmp_path / "tiny.txt").write_text("a b a c d e\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("vocab-size = 2\nwindow = 1\nvocab_size = 4\n")
    rc = main([
        "count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t"),
        "--config", str(cfg),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cfg.txt:3: option vocab_size given twice, first on line 1 as vocab-size" in err
    assert not (tmp_path / "t.vocab.txt").exists()


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


# every required option of each subcommand, with a value that passes every
# check before the first file is read
REQUIRED = {
    "count": {"input": "missing", "out": "missing"},
    "induce": {"cooc1": "missing", "cooc2": "missing", "vocab1": "missing",
               "vocab2": "missing", "preset": "coocmap", "out-report": "missing",
               "out-preds": "missing"},
    "eval": {"preds": "missing", "dict": "missing", "vocab1": "missing", "vocab2": "missing"},
    "bench": {"corpus": "missing", "budget": "1000"},
    "sweep": {"spec": "missing", "out-csv": "missing"},
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in REQUIRED.items() for option in options
])
def test_required_option_missing_exits_2_and_a_config_file_gives_it(
    tmp_path, monkeypatch, capsys, command, option
):
    monkeypatch.chdir(tmp_path)
    others = REQUIRED[command].copy()
    value = others.pop(option)
    argv = [command, *(arg for name, v in others.items() for arg in (f"--{name}", v))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"coocmap: missing required option --{option}\n"
    # given only in the config file, the option passes the check, and the
    # command goes on to read its first missing file
    (tmp_path / "cfg.txt").write_text(f"{option} = {value}\n")
    assert main([*argv, "--config", "cfg.txt"]) == 2
    err = capsys.readouterr().err
    assert "missing required option" not in err and "No such file" in err


def _fresh_python(script: str, *args: str, **env_vars: str) -> str:
    """stdout of `script` run with `args` by a new interpreter that imports
    this checkout's package, with the BLAS thread variables unset and
    `env_vars` set."""
    import os
    import subprocess
    import sys

    import coocmap

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(env_vars)
    src = os.path.dirname(os.path.dirname(coocmap.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_threads_env_propagates(tmp_path):
    """COOCMAP_THREADS reaches the BLAS variables before numpy loads, so a
    process that only imports the CLI runs with the thread cap."""
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
    out = _fresh_python(script, str(tmp_path / "tiny.txt"), str(tmp_path / "t"),
                        COOCMAP_THREADS="1")
    assert out.splitlines()[-1].split() == ["0", "1", "1"]


@pytest.mark.parametrize("command", ["count", "eval", "--help"])
def test_command_loads_only_what_it_runs(tmp_path, command):
    """`import coocmap` loads no numpy, and a command that reaches no kernel
    calling scipy loads no scipy module."""
    (tmp_path / "tiny.txt").write_text("a b a\n")
    argv = {
        "count": ["count", "--input", str(tmp_path / "tiny.txt"), "--out", str(tmp_path / "t")],
        "eval": _eval_argv(tmp_path, "0\ta\ta\t-\n", ("[UNK]", "a", "b")),
        "--help": ["--help"],
    }[command]
    script = (
        "import json, sys\n"
        "import coocmap\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        "from coocmap.cli import main\n"
        "rc = main(json.loads(sys.argv[1]))\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([rc, numpy_loaded, scipy]))\n"
    )
    out = _fresh_python(script, json.dumps(argv))
    assert json.loads(out.splitlines()[-1]) == [0, False, []]


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


def test_internal_error_propagates(tmp_path, monkeypatch):
    """A failure outside errors.INPUT_ERRORS and NumericError is a programming
    error, even a ValueError such as numpy's LinAlgError: `main` lets it
    through, so the program exits 1 with its traceback."""
    from coocmap import evaluation

    def broken(path):
        raise np.linalg.LinAlgError("internal")

    monkeypatch.setattr(evaluation, "load_predictions", broken)
    with pytest.raises(np.linalg.LinAlgError, match="internal"):
        main(_eval_argv(tmp_path, "0\ta\ta\t-\n", ("[UNK]", "a", "b")))


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


def test_cooc_of_another_vocabulary_size_exits_2(tmp_path, capsys):
    # the digest matches, the header's V does not: no alignment runs
    (tmp_path / "v.txt").write_text("[UNK]\na\nb\n")
    digest = Vocabulary.load(tmp_path / "v.txt").digest
    raw = json.dumps({"V": 2, "m": 1, "token_count": 3, "vocab_digest": digest}).encode()
    (tmp_path / "c.bin").write_bytes(b"COOCMAT1" + len(raw).to_bytes(4, "little") + raw
                                     + np.zeros(4).tobytes())
    rc = main([
        "induce", "--cooc1", str(tmp_path / "c.bin"), "--cooc2", str(tmp_path / "c.bin"),
        "--vocab1", str(tmp_path / "v.txt"), "--vocab2", str(tmp_path / "v.txt"),
        "--preset", "coocmap",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "c.bin: header V=2, but the vocabulary has 3 words" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_huge_cooc_header_without_payload_exits_2(tmp_path, capsys):
    # the payload's size is checked before V x V counts are allocated
    (tmp_path / "v.txt").write_text("[UNK]\na\n")
    digest = Vocabulary.load(tmp_path / "v.txt").digest
    raw = json.dumps({"V": 1_000_000, "m": 1, "token_count": 3, "vocab_digest": digest})
    (tmp_path / "c.bin").write_bytes(b"COOCMAT1" + len(raw).to_bytes(4, "little") + raw.encode())
    rc = main([
        "induce", "--cooc1", str(tmp_path / "c.bin"), "--cooc2", str(tmp_path / "c.bin"),
        "--vocab1", str(tmp_path / "v.txt"), "--vocab2", str(tmp_path / "v.txt"),
        "--preset", "coocmap",
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert "c.bin: truncated counts for V=1000000: expected 8000000000000 bytes, read 0" \
        in capsys.readouterr().err


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


@pytest.mark.parametrize("preset, flags, field", [
    ("vecmap-raw", ["--drop-r", "5"], "drop_r"),
    ("vecmap-raw", ["--clip", "2,98"], "clip"),
])
def test_induce_unread_override_exits_2(counted, tmp_path, capsys, preset, flags, field):
    tmp, out = counted
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", preset, *flags,
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 2
    assert f"preset {preset} does not read {field} " in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags, clip, traces", [
    (["--drop-r", "3"], None, 2),  # a preset without a stage 2 gains one
    (["--clip", "2,98"], [2.0, 98.0], 1),  # and one without clipping clips
], ids=["drop-r-adds-a-stage-2", "clip-turns-clipping-on"])
def test_induce_override_is_recorded_and_run(counted, tmp_path, flags, clip, traces):
    tmp, out = counted
    rc = main([
        "induce",
        "--cooc1", f"{out}.cooc.bin", "--cooc2", f"{out}.cooc.bin",
        "--vocab1", f"{out}.vocab.txt", "--vocab2", f"{out}.vocab.txt",
        "--preset", "coocmap", *flags,
        "--out-report", str(tmp_path / "r.json"), "--out-preds", str(tmp_path / "p.tsv"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config"]["clip"] == clip
    assert len(report["traces"]) == traces


@pytest.mark.parametrize("argv, config, code, message", [
    (["--clip", "2"], "", 1, "argument --clip: invalid percentiles value: '2'"),
    (["--clip", "2,x"], "", 1, "argument --clip: invalid percentiles value: '2,x'"),
    ([], "clip = 2\n", 2, "cfg.txt:1: cannot read clip = 2: expected LO,HI, two percentiles"),
    (["--clip-lo", "2"], "", 1, "unrecognized arguments: --clip-lo 2"),
    ([], "clip_lo = 2\n", 2, "cfg.txt: unknown option 'clip_lo'"),
], ids=["one-number", "not-a-number", "one-number-in-config", "clip-lo-flag", "clip_lo-key"])
def test_induce_clip_takes_two_percentiles(tmp_path, capsys, argv, config, code, message):
    missing = str(tmp_path / "missing")
    (tmp_path / "cfg.txt").write_text(config)
    assert main([
        "induce", "--cooc1", missing, "--cooc2", missing, "--vocab1", missing,
        "--vocab2", missing, "--out-report", missing, "--out-preds", missing,
        "--preset", "coocmap", "--config", str(tmp_path / "cfg.txt"), *argv,
    ]) == code
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err
    if "invalid percentiles" in message:
        assert "[--clip LO,HI]" in err  # the usage line shows the form


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


@pytest.mark.parametrize("command, flags, message", [
    ("induce", ["--dim", "0"], "need dim >= 1, drop_r >= 0, got 0, None"),
    ("induce", ["--preset", "coocmap-drop", "--drop-r", "-1"], "got None, -1"),
    ("induce", ["--clip", "50,40"], "need 0 <= p_lo < p_hi <= 100"),
    ("bench", ["--top-eval", "0"], "need window, top_eval >= 1"),
    ("bench", ["--window", "0"], "need window, top_eval >= 1"),
    ("count", ["--window", "0"], "need window, top_eval >= 1"),
    ("count", ["--vocab-size", "0"], "need vocab_size, block_lines >= 1, got 0, 1000"),
    ("bench", ["--block-lines", "0"], "need vocab_size, block_lines >= 1, got 5000, 0"),
    ("bench", ["--mode", "cipher", "--seed", "-1"], "cipher seed must be >= 0, got -1"),
    ("bench", ["--seed", "5"], "--seed is the cipher permutation seed; --mode identity does not"),
    ("bench", ["--mode", "identity", "--seed", "0"], "--mode identity does not read it"),
    ("bench", ["--preset", "vecmap-raw", "--vocab-size", "200"], "dim=300 exceeds vocab_size=200"),
    ("bench", ["--csls-k", "11", "--vocab-size", "10"], "csls_k=11 exceeds vocab_size=10"),
    ("induce", ["--tol", "nan"], "csls_k and max_iters must be >= 1, tol >= 0"),
    ("induce", ["--tol", "inf"], "csls_k and max_iters must be >= 1, tol >= 0"),
])
def test_bad_parameter_exits_2_before_reading_files(tmp_path, capsys, command, flags, message):
    missing = str(tmp_path / "missing")
    inputs = {
        "induce": ["--cooc1", missing, "--cooc2", missing, "--vocab1", missing,
                   "--vocab2", missing, "--out-report", missing, "--out-preds", missing],
        "bench": ["--corpus", missing, "--budget", "1000"],
        "count": ["--input", missing, "--out", missing],
    }[command]
    if command == "induce" and "--preset" not in flags:
        flags = ["--preset", "coocmap", *flags]
    assert main([command, *inputs, *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err


@pytest.mark.parametrize("spec_lines, flags, message", [
    ("cipher_seed = 5\n", [], "cipher_seed is the cipher permutation seed; identity mode"),
    ("mode = cipher\n", ["--workers", "0"], "workers must be >= 1, got 0"),
    ("mode = cipher\n", ["--workers", "-2"], "workers must be >= 1, got -2"),
    ("target = t.txt\n", [], "target is a crosslingual input; identity mode does not read it"),
    ("mode = cipher\ndict = nope.txt\n", [],
     "dict is a crosslingual input; cipher mode does not read it"),
    # every point resolves before the corpus is read, as `coocmap bench` does
    ("csls_k = 0\n", [], "csls_k and max_iters must be >= 1"),
    ("dims = 0\n", [], "need dim >= 1, drop_r >= 0, got 0, None"),
    ("presets = coocmap, dict-init\n", [], "preset dict-init seeds from a supplied dictionary"),
    ("presets = vecmap-raw\nvocab_size = 200\n", [], "dim=300 exceeds vocab_size=200"),
    ("repetitions = 2\n", [], "repetitions draw cipher permutation seeds; identity mode"),
    ("tol = nan\n", [], "csls_k and max_iters must be >= 1, tol >= 0"),
    ("tol = inf\n", [], "csls_k and max_iters must be >= 1, tol >= 0"),
], ids=["cipher_seed-in-identity-mode", "workers-0", "workers-negative",
        "target-in-identity-mode", "dict-in-cipher-mode", "csls_k-0", "dims-0",
        "dict-init-without-dict", "dim-beyond-vocab_size", "repetitions-in-identity-mode",
        "tol-nan", "tol-inf"])
def test_sweep_bad_parameter_exits_2_before_reading_corpus(
    tmp_path, capsys, monkeypatch, spec_lines, flags, message
):
    from coocmap import bench

    reads = []
    monkeypatch.setattr(bench, "take_head_bytes", lambda *args: reads.append(args))
    spec = tmp_path / "spec.txt"
    spec.write_text(f"source = {tmp_path / 'missing.txt'}\nbudgets = 1000\n{spec_lines}")
    rc = main(["sweep", "--spec", str(spec), "--out-csv", str(tmp_path / "s.csv"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert (f"{spec}: " in err) == (not flags)  # a spec check names the spec file
    assert reads == []
    assert not (tmp_path / "s.csv").exists()
