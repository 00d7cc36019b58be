"""Command-line surface: count, induce, eval, bench, sweep.

Exit codes: 0 success, 1 usage error (or an internal error, with its
traceback), 2 input validation, 3 numeric failure. Any subcommand accepts
--config FILE with flat key = value lines (keys are flag names, with dashes
or underscores); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import INPUT_ERRORS, NumericError, ValidationError


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _merge_config(ns: argparse.Namespace):
    """Fill unset flags from the config file; explicit flags keep priority."""
    from .config import parse_kv_file

    if not ns.config:
        return
    # keys are flag names, with dashes or underscores: one option either way
    dests = parse_kv_file(ns.config, ns.types, "option", lambda key: key.replace("-", "_"))
    for dest, value in dests.items():
        if getattr(ns, dest) is None:  # not given on the command line
            setattr(ns, dest, value)


def _given(ns, *names) -> dict:
    """The named flags that were set, so unset ones take the defaults of the
    config they are passed to."""
    return {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}


def percentiles(raw: str) -> tuple[float, float]:
    """LO,HI as two floats; a ValueError otherwise, so a config file names its line."""
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected LO,HI, two percentiles, got {raw!r}")
    return float(parts[0]), float(parts[1])


def cmd_count(ns) -> int:
    from .bench import BenchConfig, build_sides
    from .cooc import save_cooc

    cfg = BenchConfig(**_given(ns, "vocab_size", "window"))
    n = ns.bytes if ns.bytes is not None else os.path.getsize(ns.input)
    [(vocab, C, types)], _ = build_sides(ns.input, n, cfg)
    vocab.save(ns.out + ".vocab.txt")
    save_cooc(C, ns.out + ".cooc.bin")
    print(f"tokens={C.token_count} types={types} vocab={vocab.size}")
    return 0


def cmd_induce(ns) -> int:
    import time
    from dataclasses import asdict

    from .bench import Sides, check_seeding, run_point
    from .cooc import load_cooc
    from .corpus import Vocabulary
    from .evaluation import load_dictionary
    from .presets import align_config, get_preset

    t0 = time.perf_counter()
    cfg = align_config(get_preset(ns.preset),
                       **_given(ns, "csls_k", "max_iters", "tol", "dim", "clip", "drop_r"))
    dictionary = load_dictionary(ns.dict) if ns.dict else None
    check_seeding(cfg, dictionary is not None)
    v1 = Vocabulary.load(ns.vocab1)
    v2 = Vocabulary.load(ns.vocab2)
    C1 = load_cooc(ns.cooc1, v1)
    C2 = load_cooc(ns.cooc2, v2)
    report = run_point("induce", Sides(v1, v2, C1, C2, data_bytes=0), cfg, asdict(cfg), t0,
                       dictionary=dictionary, preds_out=ns.out_preds)
    with open(ns.out_report, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    print(f"accuracy={report.accuracy:.4f} evaluated={report.evaluated} correct={report.correct}")
    return 0


def cmd_eval(ns) -> int:
    from .corpus import Vocabulary
    from .evaluation import load_dictionary, load_predictions, score

    preds = load_predictions(ns.preds)
    dictionary = load_dictionary(ns.dict)
    v1 = Vocabulary.load(ns.vocab1)
    v2 = Vocabulary.load(ns.vocab2)
    result = score(preds, dictionary, v1, v2)
    print(f"accuracy={result.accuracy:.4f} evaluated={result.evaluated} correct={result.correct}")
    return 0


def cmd_bench(ns) -> int:
    from .bench import BenchConfig, cipher_bench, split_identity_bench

    mode = "identity" if ns.mode is None else ns.mode
    if mode not in ("identity", "cipher"):
        raise ValidationError(f"--mode must be identity or cipher, got {mode!r}")
    if ns.seed is not None and mode != "cipher":
        raise ValidationError(f"--seed is the cipher permutation seed; --mode {mode} "
                              "does not read it")
    cfg = BenchConfig(**_given(
        ns, "preset", "vocab_size", "window", "dim", "csls_k", "max_iters", "top_eval",
        "block_lines",
    ))
    if mode == "identity":
        report = split_identity_bench(ns.corpus, ns.budget, cfg, preds_out=ns.out_preds)
    else:
        report = cipher_bench(ns.corpus, ns.budget, ns.seed or 0, cfg, preds_out=ns.out_preds)
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
    reports, csv_text = run_sweep(spec, **_given(ns, "workers"))
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
    from .presets import PRESETS

    dim_help = ("rank truncation of the association (cooc presets) or SVD vector "
                f"dimension (vecmap-raw, default {PRESETS['vecmap-raw'].dim}), at most the "
                "smaller vocabulary")

    parser = _Parser(prog="coocmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run):
        """Declare subcommand `name`, run by `run`, and return its flag declarer.
        Flags default to None so a config file can fill them; `_dispatch` then
        checks the required ones, and `run` applies the real defaults."""
        p = sub.add_parser(name, help=help)
        types, needed = {}, []  # each flag's converter, for the config file
        p.set_defaults(run=run, types=types, required=needed)

        def flag(name, conv, help, required=False, metavar=None):
            dest = p.add_argument(name, type=conv, default=None, help=help, metavar=metavar).dest
            types[dest] = conv
            if required:
                needed.append(dest)

        return flag

    flag = command("count", "count a corpus into vocab + cooc files", cmd_count)
    flag("--input", str, "plain-text corpus, one fragment per line", required=True)
    flag("--bytes", int, "byte budget from the head: the lines that end within it, and a last "
         "line without a newline once it reaches the end of the file (default: whole file)")
    flag("--vocab-size", int, f"max vocabulary size (default {BenchConfig.vocab_size})")
    flag("--window", int, f"co-occurrence window per side (default {BenchConfig.window})")
    flag("--out", str, "output prefix (.vocab.txt, .cooc.bin)", required=True)

    flag = command("induce", "run a translation pipeline on counts", cmd_induce)
    flag("--cooc1", str, "source counts file", required=True)
    flag("--cooc2", str, "target counts file", required=True)
    flag("--vocab1", str, "source vocabulary", required=True)
    flag("--vocab2", str, "target vocabulary", required=True)
    flag("--preset", str, "pipeline preset name", required=True)
    flag("--dict", str, "reference dictionary: scores every evaluable entry; "
         "a dictionary-seeded preset (dict-init) seeds from it and needs it")
    flag("--dim", int, dim_help)
    flag("--csls-k", int, f"csls neighborhood size (default {AlignConfig.csls_k})")
    flag("--max-iters", int, f"self-learning iteration cap (default {AlignConfig.max_iters})")
    flag("--tol", float, f"minimum objective improvement (default {AlignConfig.tol})")
    flag("--clip", percentiles, "clip percentiles, both bounds; read by the cooc presets, "
         "where a preset without clipping turns it on; vecmap-raw rejects it", metavar="LO,HI")
    flag("--drop-r", int, "stage-2 head-drop rank; read by the cooc presets, where a preset "
         "without a stage 2 gains one that drops, then clips as stage 1 does; vecmap-raw "
         "rejects it")
    flag("--out-report", str, "where to write the run report JSON", required=True)
    flag("--out-preds", str, "where to write the predictions dump", required=True)

    flag = command("eval", "score a predictions dump", cmd_eval)
    flag("--preds", str, "predictions dump", required=True)
    flag("--dict", str, "reference dictionary", required=True)
    flag("--vocab1", str, "source vocabulary", required=True)
    flag("--vocab2", str, "target vocabulary", required=True)

    flag = command("bench", "identity / cipher benchmark on one corpus", cmd_bench)
    flag("--corpus", str, "plain-text corpus", required=True)
    flag("--budget", int, "byte budget from the head", required=True)
    flag("--mode", str, "identity or cipher (default identity)")
    flag("--seed", int, "cipher permutation seed (default 0); cipher mode only")
    flag("--preset", str, f"pipeline preset (default {BenchConfig.preset})")
    flag("--vocab-size", int, f"max vocabulary size (default {BenchConfig.vocab_size})")
    flag("--window", int, f"window size (default {BenchConfig.window})")
    flag("--dim", int, dim_help)
    flag("--csls-k", int, f"csls neighborhood size (default {AlignConfig.csls_k})")
    flag("--max-iters", int, f"iteration cap (default {AlignConfig.max_iters})")
    flag("--top-eval", int, f"shared tokens scored (default {BenchConfig.top_eval})")
    flag("--block-lines", int, f"split block size (default {BenchConfig.block_lines})")
    flag("--out-report", str, "write the run report JSON here")
    flag("--out-preds", str, "write the predictions dump here")

    flag = command("sweep", "run a budget/preset/dimension sweep", cmd_sweep)
    flag("--spec", str, "sweep spec file (key = value lines)", required=True)
    flag("--out-csv", str, "output CSV path", required=True)
    flag("--workers", int, "parallel workers, at most one per budget (default 1)")
    flag("--out-reports", str, "directory for per-run report JSON")

    # last in each --help; not a flag a config file can set
    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="key = value config file")
    return parser


def _dispatch(argv) -> int:
    ns = _build_parser().parse_args(argv)
    _merge_config(ns)
    for name in ns.required:
        if getattr(ns, name) is None:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")
    return ns.run(ns)


def main(argv=None) -> int:
    # COOCMAP_THREADS is applied by the package's __init__, before numpy loads.
    # Any error but the caller's and NumericError is a programming error: it
    # propagates, and Python exits 1 with its traceback.
    try:
        return _dispatch(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except BrokenPipeError:
        return 0
    except INPUT_ERRORS as e:
        print(f"coocmap: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"coocmap: numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
