"""Fingerprint of a checkout's outputs, for byte-identity checks.

    python3 tools/fingerprint.py --src <checkout>/src --out FILE [--size tiny]

Imports `coocmap` from `--src` and runs fixed points through the public
entry points, with BLAS pinned to one thread:

- `split_identity_bench` and `cipher_bench` for every preset but dict-init,
  and `coocmap-drop` at dim 50 in both modes;
- a cipher `run_sweep` over two budgets, two presets, two dims and two
  repetitions, and a crosslingual sweep whose missing target makes every
  point an error row;
- a `count` -> `induce --preset dict-init --dict` -> `eval` round trip
  through `cli.main`.

FILE gets sorted JSON: every report without `seconds`, the MD5 of every
predictions dump and of every file the round trip writes, and the round
trip's exit codes and output lines. The last line printed is the MD5 of
FILE: two checkouts with the same digest gave the same outputs here. A
point that raises stops the tool with its traceback.

The corpus is the benchmark's seed-7 text, written by `perfbench/inputs.py`
of the checkout this tool sits in, so a change to the package under test
cannot change the inputs. The points run in a temporary directory, named
by relative paths, so no output names it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

# before anything loads numpy
for _var in ("COOCMAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
VOCAB = 300
DICT_ENTRIES = 150

# corpus bytes, bench budget, sweep budgets, round-trip heads of the two sides
SIZES = {
    "full": (3_200_000, 2_000_000, (1_000_000, 2_000_000), (2_000_000, 3_000_000)),
    "tiny": (400_000, 250_000, (150_000, 250_000), (250_000, 350_000)),
}


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


def _round_trip(cli, heads) -> dict:
    output = []

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main([str(a) for a in argv])
        output.append(f"{argv[0]} rc={rc} {buf.getvalue().strip()}")

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
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    del report["seconds"]
    files = ("src.vocab.txt", "src.cooc.bin", "tgt.vocab.txt", "tgt.cooc.bin", "preds.tsv")
    return {"output": output, "files": {name: _md5(name) for name in files}, "report": report}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--out", required=True, help="where to write the fingerprint JSON")
    p.add_argument("--size", choices=list(SIZES), default="full")
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
                "round_trip": _round_trip(cli, heads),
            }
        finally:
            os.chdir(cwd)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    out.write_text(text, encoding="utf-8")
    print(hashlib.md5(text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
