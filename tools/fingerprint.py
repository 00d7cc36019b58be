"""Fingerprint of a checkout's outputs, for byte-identity checks.

    python3 tools/fingerprint.py --src <checkout>/src --out FILE [--size tiny]
                                 [--against OLD.json]

Imports `coocmap` from `--src` and runs fixed points through the public
entry points, with BLAS pinned to one thread:

- `split_identity_bench` and `cipher_bench` for every preset but dict-init,
  and `coocmap-drop` at dim 50 in both modes;
- a cipher `run_sweep` over two budgets, two presets, two dims and two
  repetitions, and a crosslingual sweep whose missing target makes every
  point an error row;
- every subcommand through `cli.main`, help text wrapped at 100 columns:
  `--help` of the program and of each subcommand, a usage error, a missing
  required option, a `count` -> `induce --preset dict-init --dict` -> `eval`
  round trip, an `induce` that reads `--config`, `bench` in identity and
  cipher mode, and a two-worker cipher `sweep` from a spec file.

FILE gets sorted JSON: every report without `seconds`, the MD5 of every
predictions dump and of every file `count` writes, the sweep CSV without its
`seconds` column, and each command's exit code and output without `bench`'s
`seconds=`. The last line printed is the MD5 of FILE: two checkouts with the
same digest gave the same outputs here. With `--against OLD.json`, an
earlier FILE, the path of each entry that differs from OLD's is printed
first, one per line in key order (`changed_paths`). A point that raises
stops the tool with its traceback.

The corpus is the benchmark's seed-7 text, written by `perfbench/inputs.py`
of the checkout this tool sits in, so a change to the package under test
cannot change the inputs. The points run in a temporary directory, named
by relative paths, so no output names it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VOCAB = 300
DICT_ENTRIES = 150

# corpus bytes, bench budget, sweep budgets, round-trip heads of the two sides
SIZES = {
    "full": (3_200_000, 2_000_000, (1_000_000, 2_000_000), (2_000_000, 3_000_000)),
    "tiny": (400_000, 250_000, (150_000, 250_000), (250_000, 350_000)),
}


_ABSENT = object()


def changed_paths(old, new, path: str = "$") -> list[str]:
    """The path of each entry of JSON value `new` that differs from `old`, in
    key and index order: a key present on one side only, a list whose length
    changed, or a differing scalar. A path is `$` and the keys and indices
    in brackets, `$["cli"]["output"][0]`; equal values give none."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [p for key in sorted(old.keys() | new.keys())
                for p in changed_paths(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                       f"{path}[{json.dumps(key)}]")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in changed_paths(a, b, f"{path}[{i}]")]
    return [] if type(old) is type(new) and old == new else [path]


def _md5(path) -> str:
    return hashlib.md5(Path(path).read_bytes()).hexdigest()


def _row(report) -> dict:
    row = asdict(report)
    del row["seconds"]
    return row


def _benches(bench, presets, budget: int) -> dict:
    out = {}
    points = [(name, None) for name in presets if name != "dict-init"]
    for preset, dim in [*points, ("coocmap-drop", 50)]:
        cfg = bench.BenchConfig(preset=preset, vocab_size=VOCAB, dim=dim)
        identity = bench.split_identity_bench("corpus.txt", budget, cfg, preds_out="identity.tsv")
        cipher = bench.cipher_bench("corpus.txt", budget, 0, cfg, preds_out="cipher.tsv")
        for mode, report in (("identity", identity), ("cipher", cipher)):
            out[f"{mode}/{preset}@{dim}"] = {"report": _row(report), "dump": _md5(f"{mode}.tsv")}
    return out


def _sweeps(bench, budgets) -> dict:
    specs = {
        "cipher": bench.SweepSpec(
            source="corpus.txt", mode="cipher", budgets=budgets,
            presets=("coocmap-drop", "vecmap-raw"), dims=(20, 250), repetitions=2,
            cipher_seed=3, vocab_size=VOCAB,
        ),
        "error-rows": bench.SweepSpec(
            source="corpus.txt", target="missing.txt", mode="crosslingual",
            budgets=budgets, presets=("coocmap", "vecmap-raw"), vocab_size=VOCAB,
        ),
    }
    return {name: [_row(r) for r in bench.run_sweep(spec)[0]] for name, spec in specs.items()}


def _cli(cli, budget: int, budgets, heads) -> dict:
    output = []

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main([str(a) for a in argv])
        text = re.sub(r" seconds=\S+", "", buf.getvalue().strip())
        output.append(f"{' '.join(map(str, argv[:2]))} rc={rc} {text}")

    for argv in ([], ["count"], ["induce"], ["eval"], ["bench"], ["sweep"]):
        run(*argv, "--help")
    run("align", "--input", "corpus.txt")  # usage error
    run("count", "--input", "corpus.txt")  # missing --out
    for side, head in zip(("src", "tgt"), heads):
        run("count", "--input", "corpus.txt", "--bytes", head, "--vocab-size", VOCAB,
            "--out", side)
    src = Path("src.vocab.txt").read_text(encoding="utf-8").split("\n")[1:]
    tgt = set(Path("tgt.vocab.txt").read_text(encoding="utf-8").split("\n"))
    shared = [tok for tok in src if tok and tok in tgt][:DICT_ENTRIES]
    Path("dict.txt").write_text("".join(f"{t} {t}\n" for t in shared), encoding="utf-8")
    paths = ["--cooc1", "src.cooc.bin", "--cooc2", "tgt.cooc.bin",
             "--vocab1", "src.vocab.txt", "--vocab2", "tgt.vocab.txt", "--dict", "dict.txt"]
    run("induce", *paths, "--preset", "dict-init", "--out-report", "report.json",
        "--out-preds", "preds.tsv")
    run("eval", "--preds", "preds.tsv", *paths[4:])
    # options in a config file, in both spellings, one of them also given as a flag
    Path("induce.cfg").write_text("preset = coocmap\nmax-iters = 8\ncsls_k = 5\n"
                                  "out_report = config.json\nout-preds = config.tsv\n",
                                  encoding="utf-8")
    run("induce", *paths, "--config", "induce.cfg", "--csls-k", "7")
    for mode in ("identity", "cipher"):  # identity by default, cipher with its default seed
        flags = ["--mode", mode] if mode == "cipher" else []
        run("bench", "--corpus", "corpus.txt", "--budget", budget, *flags, "--vocab-size", VOCAB,
            "--out-report", f"bench-{mode}.json", "--out-preds", f"bench-{mode}.tsv")
    Path("sweep.spec").write_text(
        f"source = corpus.txt\nmode = cipher\nbudgets = {', '.join(map(str, budgets))}\n"
        f"presets = coocmap, vecmap-raw\ndims = 20\nrepetitions = 2\nvocab_size = {VOCAB}\n",
        encoding="utf-8",
    )
    run("sweep", "--spec", "sweep.spec", "--out-csv", "sweep.csv", "--out-reports", "reports",
        "--workers", 2)

    reports = {}
    for name in ("report.json", "config.json", "bench-identity.json", "bench-cipher.json",
                 *(f"reports/{n}" for n in sorted(os.listdir("reports")))):
        reports[name] = json.loads(Path(name).read_text(encoding="utf-8"))
        del reports[name]["seconds"]
    with open("sweep.csv", newline="", encoding="utf-8") as f:
        csv_rows = [{k: v for k, v in row.items() if k != "seconds"} for row in csv.DictReader(f)]
    files = ("src.vocab.txt", "src.cooc.bin", "tgt.vocab.txt", "tgt.cooc.bin", "preds.tsv",
             "config.tsv", "bench-identity.tsv", "bench-cipher.tsv")
    return {"output": output, "files": {name: _md5(name) for name in files},
            "reports": reports, "csv": csv_rows}


def main(argv=None) -> int:
    # before anything loads numpy
    for var in ("COOCMAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["COLUMNS"] = "100"  # before any parser is built: argparse wraps --help to it
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--out", required=True, help="where to write the fingerprint JSON")
    p.add_argument("--size", choices=list(SIZES), default="full")
    p.add_argument("--against", help="an earlier fingerprint JSON to list the changes from")
    args = p.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from coocmap import bench, cli, presets

    if not Path(bench.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"coocmap imported from {bench.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)

    corpus_bytes, budget, budgets, heads = SIZES[args.size]
    out, cwd = Path(args.out).resolve(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            inputs.write_corpus("corpus.txt", corpus_bytes, 7)
            result = {
                "size": args.size,
                "benches": _benches(bench, presets.PRESETS, budget),
                "sweeps": _sweeps(bench, budgets),
                "cli": _cli(cli, budget, budgets, heads),
            }
        finally:
            os.chdir(cwd)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    out.write_text(text, encoding="utf-8")
    if args.against:
        old = json.loads(Path(args.against).read_text(encoding="utf-8"))
        for path in changed_paths(old, json.loads(text)):
            print(path)
    print(hashlib.md5(text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
