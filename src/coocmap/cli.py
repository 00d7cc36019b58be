"""Command-line surface: count, induce, eval, bench, sweep.

Exit codes: 0 success, 1 usage error, 2 input validation, 3 numeric failure.
Any subcommand accepts --config FILE with flat key = value lines (keys are
flag names with underscores); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flag(p):
    p.add_argument("--config", default=None, help="key = value config file")


def _merge_config(ns: argparse.Namespace, parser_defaults: dict):
    """Fill unset flags from the config file; explicit flags keep priority."""
    from .config import parse_kv_file
    from .errors import ValidationError

    if not ns.config:
        return
    for key, raw in parse_kv_file(ns.config).items():
        dest = key.replace("-", "_")
        if dest not in parser_defaults:
            raise ValidationError(f"{ns.config}: unknown option {key!r}")
        if getattr(ns, dest) is None:  # not given on the command line
            conv = parser_defaults[dest]
            setattr(ns, dest, conv(raw) if conv is not None else raw)


def _resolve(ns, **fallbacks):
    for key, value in fallbacks.items():
        if getattr(ns, key) is None:
            setattr(ns, key, value)


def _given(ns, *names) -> dict:
    """The named flags that were set, so unset ones take the defaults of the
    config they are passed to."""
    return {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}


def cmd_count(ns) -> int:
    from itertools import chain

    from .bench import BenchConfig, build_side
    from .cooc import save_cooc
    from .corpus import take_head_bytes, tokenize

    cfg = BenchConfig(**_given(ns, "vocab_size", "window"))
    n = ns.bytes if ns.bytes is not None else os.path.getsize(ns.input)
    lines = tokenize(take_head_bytes(ns.input, n))
    vocab, C = build_side(lines, cfg)
    vocab.save(ns.out + ".vocab.txt")
    save_cooc(C, ns.out + ".cooc.bin")
    types = len(set(chain.from_iterable(lines)))
    print(f"tokens={C.token_count} types={types} vocab={vocab.size}")
    return 0


def cmd_induce(ns) -> int:
    import time
    from dataclasses import asdict

    from .assoc import load_vectors
    from .bench import Sides, align_and_score, check_seeding
    from .cooc import load_cooc
    from .corpus import Vocabulary
    from .errors import ValidationError
    from .evaluation import load_dictionary
    from .presets import align_config, get_preset

    t0 = time.perf_counter()
    cfg = align_config(
        get_preset(ns.preset),
        **_given(ns, "csls_k", "max_iters", "tol", "dim", "clip_lo", "clip_hi", "drop_r"),
    )
    dictionary = load_dictionary(ns.dict) if ns.dict else None
    check_seeding(cfg, dictionary)
    v1 = Vocabulary.load(ns.vocab1)
    v2 = Vocabulary.load(ns.vocab2)
    C1 = load_cooc(ns.cooc1, v1)
    C2 = load_cooc(ns.cooc2, v2)
    vectors = ()
    if cfg.vectors == "import":
        if not ns.vectors1 or not ns.vectors2:
            raise ValidationError(f"preset {cfg.preset} needs --vectors1/--vectors2")
        vectors1, missing1 = load_vectors(ns.vectors1, v1)
        vectors2, missing2 = load_vectors(ns.vectors2, v2)
        for side, missing in (("source", missing1), ("target", missing2)):
            if missing:
                print(f"note: {len(missing)} {side} words missing from vectors", file=sys.stderr)
        vectors = (vectors1, vectors2)
    report = align_and_score(
        "induce", Sides(v1, v2, C1, C2, data_bytes=0), v2.tokens, cfg, asdict(cfg), t0,
        answer=dictionary, dictionary=dictionary, vectors=vectors, preds_out=ns.out_preds,
    )
    with open(ns.out_report, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    print(f"accuracy={report.accuracy:.4f} evaluated={report.evaluated} correct={report.correct}")
    return 0


def cmd_eval(ns) -> int:
    from .corpus import Vocabulary
    from .evaluation import load_dictionary, load_predictions, precision_at_1

    preds = load_predictions(ns.preds)
    dictionary = load_dictionary(ns.dict)
    v1 = Vocabulary.load(ns.vocab1)
    v2 = Vocabulary.load(ns.vocab2)
    acc, evaluated, correct, _ = precision_at_1(preds, dictionary, v1, v2)
    print(f"accuracy={acc:.4f} evaluated={evaluated} correct={correct}")
    return 0


def cmd_bench(ns) -> int:
    from .bench import BenchConfig, cipher_bench, split_identity_bench

    cfg = BenchConfig(**_given(
        ns, "preset", "vocab_size", "window", "dim", "csls_k", "max_iters", "top_eval",
        "block_lines",
    ))
    if ns.mode == "identity":
        report = split_identity_bench(ns.corpus, ns.budget, cfg, preds_out=ns.out_preds)
    else:
        report = cipher_bench(ns.corpus, ns.budget, ns.seed, cfg, preds_out=ns.out_preds)
    if ns.out_report:
        with open(ns.out_report, "w", encoding="utf-8") as f:
            f.write(report.to_json() + "\n")
    print(
        f"mode={report.mode} preset={report.preset} budget={report.budget_bytes} "
        f"accuracy={report.accuracy:.4f} evaluated={report.evaluated} "
        f"seconds={report.seconds:.1f}"
    )
    return 0


def cmd_sweep(ns) -> int:
    from .bench import SweepSpec, run_sweep, sweep_summary

    spec = SweepSpec.from_file(ns.spec)
    reports, csv_text = run_sweep(spec, workers=ns.workers)
    with open(ns.out_csv, "w", encoding="utf-8") as f:
        f.write(csv_text)
    if ns.out_reports:
        os.makedirs(ns.out_reports, exist_ok=True)
        for i, report in enumerate(reports):
            with open(os.path.join(ns.out_reports, f"run_{i:04d}.json"), "w") as f:
                f.write(report.to_json() + "\n")
    failed = sum(1 for r in reports if r.error)
    print(f"rows={len(reports)} failed={failed} csv={ns.out_csv}")
    for key, entry in sweep_summary(reports).items():
        print(f"{key}: starts={entry['start']} works={entry['works']}")
    return 0


def _build_parser():
    from .align import AlignConfig
    from .bench import BenchConfig

    dim_help = ("rank truncation of the association (cooc presets) or SVD vector "
                "dimension (vecmap-raw, default 300), at most the smaller vocabulary; "
                "vecmap-vectors rejects it")

    parser = _Parser(prog="coocmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every flag defaults to None so config-file values can fill the gaps;
    # real defaults are applied after the merge
    defaults: dict[str, dict] = {}

    def flag(p, name, conv, help, table):
        p.add_argument(name, type=conv, default=None, help=help)
        table[name.lstrip("-").replace("-", "_")] = conv

    p = sub.add_parser("count", help="count a corpus into vocab + cooc files")
    t = defaults["count"] = {}
    flag(p, "--input", str, "plain-text corpus, one fragment per line", t)
    flag(p, "--bytes", int, "byte budget from the head (default: whole file)", t)
    flag(p, "--vocab-size", int, f"max vocabulary size (default {BenchConfig.vocab_size})", t)
    flag(p, "--window", int, f"co-occurrence window per side (default {BenchConfig.window})", t)
    flag(p, "--out", str, "output prefix (.vocab.txt, .cooc.bin)", t)
    _add_config_flag(p)

    p = sub.add_parser("induce", help="run a translation pipeline on counts")
    t = defaults["induce"] = {}
    flag(p, "--cooc1", str, "source counts file", t)
    flag(p, "--cooc2", str, "target counts file", t)
    flag(p, "--vocab1", str, "source vocabulary", t)
    flag(p, "--vocab2", str, "target vocabulary", t)
    flag(p, "--preset", str, "pipeline preset name", t)
    flag(p, "--dict", str, "reference dictionary: scores every evaluable entry; "
         "a dictionary-seeded preset (dict-init) seeds from it and needs it", t)
    flag(p, "--vectors1", str, "imported source vectors", t)
    flag(p, "--vectors2", str, "imported target vectors", t)
    flag(p, "--dim", int, dim_help, t)
    flag(p, "--csls-k", int, f"csls neighborhood size (default {AlignConfig.csls_k})", t)
    flag(p, "--max-iters", int,
         f"self-learning iteration cap (default {AlignConfig.max_iters})", t)
    flag(p, "--tol", float, f"minimum objective improvement (default {AlignConfig.tol})", t)
    flag(p, "--clip-lo", float, "lower clip percentile; read by the cooc presets, where a "
         "preset without clipping clips from (1.0, 99.0); vecmap-* rejects it", t)
    flag(p, "--clip-hi", float, "upper clip percentile; read as --clip-lo is", t)
    flag(p, "--drop-r", int, "stage-2 head-drop rank; read by coocmap-drop and "
         "coocmap-drop-1.5 only, every other preset rejects it", t)
    flag(p, "--out-report", str, "where to write the run report JSON", t)
    flag(p, "--out-preds", str, "where to write the predictions dump", t)
    _add_config_flag(p)

    p = sub.add_parser("eval", help="score a predictions dump")
    t = defaults["eval"] = {}
    flag(p, "--preds", str, "predictions dump", t)
    flag(p, "--dict", str, "reference dictionary", t)
    flag(p, "--vocab1", str, "source vocabulary", t)
    flag(p, "--vocab2", str, "target vocabulary", t)
    _add_config_flag(p)

    p = sub.add_parser("bench", help="identity / cipher benchmark on one corpus")
    t = defaults["bench"] = {}
    flag(p, "--corpus", str, "plain-text corpus", t)
    flag(p, "--budget", int, "byte budget from the head", t)
    flag(p, "--mode", str, "identity or cipher (default identity)", t)
    flag(p, "--seed", int, "cipher permutation seed (default 0)", t)
    flag(p, "--preset", str, f"pipeline preset (default {BenchConfig.preset})", t)
    flag(p, "--vocab-size", int, f"max vocabulary size (default {BenchConfig.vocab_size})", t)
    flag(p, "--window", int, f"window size (default {BenchConfig.window})", t)
    flag(p, "--dim", int, dim_help, t)
    flag(p, "--csls-k", int, f"csls neighborhood size (default {BenchConfig.csls_k})", t)
    flag(p, "--max-iters", int, f"iteration cap (default {BenchConfig.max_iters})", t)
    flag(p, "--top-eval", int, f"shared tokens scored (default {BenchConfig.top_eval})", t)
    flag(p, "--block-lines", int, f"split block size (default {BenchConfig.block_lines})", t)
    flag(p, "--out-report", str, "write the run report JSON here", t)
    flag(p, "--out-preds", str, "write the predictions dump here", t)
    _add_config_flag(p)

    p = sub.add_parser("sweep", help="run a budget/preset/dimension sweep")
    t = defaults["sweep"] = {}
    flag(p, "--spec", str, "sweep spec file (key = value lines)", t)
    flag(p, "--out-csv", str, "output CSV path", t)
    flag(p, "--workers", int, "parallel workers, run across budgets (default 1)", t)
    flag(p, "--out-reports", str, "directory for per-run report JSON", t)
    _add_config_flag(p)

    return parser, defaults


def _dispatch(argv) -> int:
    from .errors import ValidationError

    parser, defaults = _build_parser()
    ns = parser.parse_args(argv)
    _merge_config(ns, defaults[ns.command])

    def require(*names):
        for name in names:
            if getattr(ns, name) is None:
                raise ValidationError(f"missing required option --{name.replace('_', '-')}")

    if ns.command == "count":
        require("input", "out")
        return cmd_count(ns)
    if ns.command == "induce":
        require("cooc1", "cooc2", "vocab1", "vocab2", "preset", "out_report", "out_preds")
        return cmd_induce(ns)
    if ns.command == "eval":
        require("preds", "dict", "vocab1", "vocab2")
        return cmd_eval(ns)
    if ns.command == "bench":
        require("corpus", "budget")
        _resolve(ns, mode="identity", seed=0)
        if ns.mode not in ("identity", "cipher"):
            raise ValidationError(f"--mode must be identity or cipher, got {ns.mode!r}")
        return cmd_bench(ns)
    if ns.command == "sweep":
        require("spec", "out_csv")
        _resolve(ns, workers=1)
        return cmd_sweep(ns)
    raise AssertionError(ns.command)


def main(argv=None) -> int:
    # COOCMAP_THREADS is applied by the package's __init__, before numpy loads
    try:
        return _dispatch(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except BrokenPipeError:
        return 0
    except (OSError, UnicodeDecodeError, ValueError) as e:
        # ValidationError is a ValueError: bad inputs, malformed files
        print(f"coocmap: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"coocmap: numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
