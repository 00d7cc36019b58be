"""Desk-scale benchmarks: split-corpus self-translation, substitution-cipher
recovery, cross-lingual runs, and the sweep driver that grids budgets,
presets, and dimensions into CSV tables."""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat, zip_longest
from typing import Iterable, Sequence

import numpy as np

from .align import AlignConfig
from .config import parse_kv_file
from .cooc import CoocMatrix, count_cooc, permute_cooc
from .corpus import (
    TypeIndex,
    Vocabulary,
    build_vocab,
    encode,
    line_blocks,
    take_head_bytes,
    tokenize,
)
from .errors import NumericError, ValidationError
from .evaluation import (
    Dictionary,
    load_dictionary,
    precision_at_1,
    seed_from_dictionary,
    translate,
    write_predictions,
)
from .presets import align_config, execute_preset, get_preset

CSV_HEADER = ["budget_bytes", "preset", "dimension", "accuracy", "evaluated", "seconds", "error"]

MODES = ("identity", "cipher", "crosslingual")


@dataclass(frozen=True)
class BenchConfig:
    preset: str = "coocmap"
    vocab_size: int = 5000
    window: int = 5
    dim: int | None = None
    csls_k: int = AlignConfig.csls_k
    max_iters: int = AlignConfig.max_iters
    tol: float = AlignConfig.tol
    top_eval: int = 1000
    block_lines: int = 1000


@dataclass
class RunReport:
    """One experiment, serializable; `seconds` is the only volatile field.

    Seeding comes from the preset alone: `dict-init` seeds from a supplied
    dictionary (crosslingual, `induce --dict`) and is a ValidationError
    without one, never seeded from an identity or cipher answer key.
    `top_eval` bounds identity and cipher scoring only; crosslingual and
    induce runs score every evaluable dictionary entry.

    `config` is a bench or sweep point's BenchConfig, and the resolved
    AlignConfig (the preset with its flags applied) of an `induce` run.

    `seconds` runs from reading the corpus to scoring. In a sweep, the
    points of one budget share a single ingest: the budget's first point
    that is not an error row carries it, and the others cover their own
    align and score. Only cipher mode depends on the repetition (its
    permutation seed); in the other modes each (preset, dim) is aligned
    once and its later repetitions are copies with `seconds` 0.0.
    """

    mode: str
    preset: str
    budget_bytes: int
    dimension: int | None
    accuracy: float
    evaluated: int
    correct: int
    no_overlap: bool
    seconds: float
    vocab_sizes: tuple[int, int]
    token_counts: tuple[int, int]
    data_bytes: int
    traces: list[list[float]]
    config: dict
    seed: int | None = None
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        d = json.loads(text)
        d["vocab_sizes"] = tuple(d["vocab_sizes"])
        d["token_counts"] = tuple(d["token_counts"])
        return cls(**d)


def alternate_blocks(lines: list, block: int) -> tuple[list, list]:
    """Deal consecutive blocks of lines to the two halves alternately: the
    split `_split_sides` streams, as lists."""
    a: list = []
    b: list = []
    for i in range(0, len(lines), block):
        (a if (i // block) % 2 == 0 else b).extend(lines[i : i + block])
    return a, b


@dataclass(frozen=True)
class Sides:
    """The two sides of an experiment, reduced to what aligning and scoring
    need: no text or token lists are kept, so several points can share it."""

    v1: Vocabulary
    v2: Vocabulary
    C1: CoocMatrix
    C2: CoocMatrix
    data_bytes: int


def build_side(text: str, blocks: Iterable[slice], cfg: BenchConfig):
    """Vocabulary, window counts and number of distinct tokens of one side:
    the `blocks` of `text` (consecutive blocks of lines, `line_blocks`).
    Equal to counting `encode(tokenize(side), build_vocab(...))` of the
    side's whole text.

    Memory, over the text: token strings live for one block at a time,
    about 80 B per token of the largest block (T_block). The side's T tokens
    take 4 B each as type ids and 8 B more while relabelled; `count_cooc`
    then adds about 20 B per token to the 4 B ids (a line-start flag,
    crossing masks and the int64 keys of two window offsets) next to two
    V x V float64 buffers and an int64 bincount. The type index takes about
    100 B per distinct token. The side needs at most about 24 B * T +
    80 B * T_block + 24 B * V^2 of it."""
    types = TypeIndex()
    parts = [encode(tokenize(text[b]), types) for b in blocks]
    vocab = build_vocab(types.counts(parts), cfg.vocab_size)
    corpus = types.relabel(parts, vocab)
    del parts  # the type ids, not needed while counting
    C = count_cooc(corpus, cfg.window)
    C.counts.flags.writeable = False  # shared by every point of a sweep budget
    return vocab, C, len(types) - 1  # less the [UNK] entry


def _split_sides(corpus_path, budget: int, cfg: BenchConfig) -> Sides:
    """Both halves of one corpus, dealt in alternate blocks of `block_lines`
    lines and ingested one after the other.

    Memory: reading holds the raw bytes and the decoded text at once, 2 B
    per budget byte of ASCII text (a wider character takes up to 4 B in the
    text); the text is then held through both sides. With T tokens in the
    larger side, T_block in the largest block and V words per side, the
    ingest peaks under about 2 B * budget + 24 B * T + 80 B * T_block +
    32 B * V^2, the first side's counts included, plus 100 B per distinct
    token: it grows with the larger side, not with the budget's tokens."""
    text, data_bytes = take_head_bytes(corpus_path, budget)
    blocks = line_blocks(text, cfg.block_lines)
    v1, C1, _ = build_side(text, blocks[0::2], cfg)
    v2, C2, _ = build_side(text, blocks[1::2], cfg)
    return Sides(v1, v2, C1, C2, data_bytes)


def _file_side(path, budget: int, cfg: BenchConfig) -> tuple[Vocabulary, CoocMatrix, int]:
    """One side from the first `budget` bytes of a corpus; with the bytes read."""
    text, data_bytes = take_head_bytes(path, budget)
    vocab, C, _ = build_side(text, line_blocks(text, cfg.block_lines), cfg)
    return vocab, C, data_bytes


def _corpus_pair_sides(source_path, target_path, budget: int, cfg: BenchConfig) -> Sides:
    """One side per corpus, each cut to the same byte budget. The target is
    read once the source side is built, so the peak memory is that of
    `_split_sides`, with T the tokens of the larger side."""
    v1, C1, bytes1 = _file_side(source_path, budget, cfg)
    v2, C2, bytes2 = _file_side(target_path, budget, cfg)
    return Sides(v1, v2, C1, C2, bytes1 + bytes2)


def check_seeding(cfg: AlignConfig, dictionary: Dictionary | None) -> None:
    """Reject a dictionary-seeded preset (dict-init) without a dictionary.
    Entry points call it before reading any corpus or counts file, so the
    error costs no ingest."""
    if cfg.seed_mode == "dictionary" and dictionary is None:
        raise ValidationError(
            f"preset {cfg.preset} seeds from a supplied dictionary (induce --dict, "
            "or a crosslingual run's dictionary); none was given"
        )


def _point_config(cfg: BenchConfig, dictionary: Dictionary | None = None) -> AlignConfig:
    """The resolved config of one bench point, once its seeding is checked."""
    acfg = align_config(get_preset(cfg.preset), csls_k=cfg.csls_k, max_iters=cfg.max_iters,
                        tol=cfg.tol, dim=cfg.dim)
    check_seeding(acfg, dictionary)
    return acfg


def align_and_score(
    mode: str,
    sides: Sides,
    labels: Sequence[str],
    cfg: AlignConfig,
    record: dict,
    t0: float,
    *,
    answer: Dictionary | None = None,
    dictionary: Dictionary | None = None,
    top_eval: int | None = None,
    vectors: tuple = (),
    budget: int = 0,
    seed: int | None = None,
    preds_out=None,
) -> RunReport:
    """The experiment step every entry point shares: align the two sides
    under `cfg`, translate each source word into `labels` (the target side's
    word names), write the optional predictions dump and score it.

    A dictionary-seeded preset seeds from the supplied `dictionary`, which
    the caller has checked with `check_seeding`. Predictions are scored
    against the `answer` key (none: nothing is scored): at most `top_eval`
    entries whose target is one of `labels`, in the key's order. `vectors`
    are the imported (source, target) vectors of a preset that takes them.
    `record` is the report's `config`, recorded as given; the report's
    dimension is the `cfg.dim` that ran.
    """
    v1, v2 = sides.v1, sides.v2
    seed_state = None
    if cfg.seed_mode == "dictionary":
        seed_state = seed_from_dictionary(dictionary, v1, v2)
    run = execute_preset(cfg, sides.C1, sides.C2, *vectors, seed=seed_state)
    preds = translate(run, cfg, v1.tokens, labels)
    if answer is None:
        answer = Dictionary({})
    if preds_out is not None:
        write_predictions(preds, preds_out, answer)
    acc, evaluated, correct, no_overlap = precision_at_1(
        preds, answer, v1, frozenset(labels), top_eval
    )
    return RunReport(
        mode=mode,
        preset=cfg.preset,
        budget_bytes=budget,
        dimension=cfg.dim,
        accuracy=acc,
        evaluated=evaluated,
        correct=correct,
        no_overlap=no_overlap,
        seconds=time.perf_counter() - t0,
        vocab_sizes=(v1.size, v2.size),
        token_counts=(sides.C1.token_count, sides.C2.token_count),
        data_bytes=sides.data_bytes,
        traces=run.traces,
        config=record,
        seed=seed,
    )


def cipher_labels(V: int) -> tuple[str, ...]:
    return tuple("w%04d" % j for j in range(V))


def _shared_key(sides: Sides, target_names: Sequence[str]) -> Dictionary:
    """Answer key of a split corpus: each token both halves share maps to
    the name of its own target id, in source-rank order."""
    v2 = sides.v2
    return Dictionary(
        {tok: frozenset([target_names[v2.id_of(tok)]]) for tok in sides.v1.tokens if tok in v2}
    )


def _bench_point(
    mode: str, sides: Sides, cfg: BenchConfig, acfg: AlignConfig, budget: int, t0,
    seed=None, pi=None, dictionary: Dictionary | None = None, preds_out=None,
) -> RunReport:
    """One benchmark point on built sides, aligned under `acfg`, the
    `_point_config` of `cfg`. The mode decides the target labels and the
    answer key: identity scores each shared token against itself, cipher
    first permutes the target side (by `pi`, or a permutation drawn from
    `seed`) and scores against the permutation, and crosslingual scores
    against the supplied dictionary."""
    labels, answer = sides.v2.tokens, dictionary
    if mode == "cipher":
        if pi is None:
            pi = np.random.default_rng(seed).permutation(sides.v2.size)
        sides = replace(sides, C2=permute_cooc(sides.C2, pi))
        labels = cipher_labels(sides.v2.size)
        answer = _shared_key(sides, [labels[j] for j in pi])
    elif mode == "identity":
        answer = _shared_key(sides, labels)
    return align_and_score(
        mode, sides, labels, acfg, asdict(cfg), t0,
        answer=answer, dictionary=dictionary,
        top_eval=None if mode == "crosslingual" else cfg.top_eval,
        budget=budget, seed=seed, preds_out=preds_out,
    )


def split_identity_bench(corpus_path, budget: int, cfg: BenchConfig, preds_out=None) -> RunReport:
    """Self-translation: align two disjoint halves of one corpus and score
    how many of the top shared tokens map to themselves."""
    t0 = time.perf_counter()
    acfg = _point_config(cfg)
    sides = _split_sides(corpus_path, budget, cfg)
    return _bench_point("identity", sides, cfg, acfg, budget, t0, preds_out=preds_out)


def cipher_bench(
    corpus_path, budget: int, seed: int, cfg: BenchConfig, preds_out=None, pi=None
) -> RunReport:
    """Identity benchmark with one side's vocabulary scrambled by a seeded
    permutation (or an explicit one); scored against the permutation."""
    t0 = time.perf_counter()
    acfg = _point_config(cfg)
    sides = _split_sides(corpus_path, budget, cfg)
    return _bench_point("cipher", sides, cfg, acfg, budget, t0, seed, pi, preds_out=preds_out)


def crosslingual_run(
    source_path,
    target_path,
    budget: int,
    cfg: BenchConfig,
    dictionary: Dictionary | None = None,
    preds_out=None,
) -> RunReport:
    """Two-corpus run scored with precision@1 against a reference dictionary,
    over every evaluable entry (`top_eval` does not apply). The preset decides
    seeding: `dict-init` seeds from `dictionary` and needs one."""
    t0 = time.perf_counter()
    acfg = _point_config(cfg, dictionary)
    sides = _corpus_pair_sides(source_path, target_path, budget, cfg)
    return _bench_point(
        "crosslingual", sides, cfg, acfg, budget, t0, dictionary=dictionary, preds_out=preds_out
    )


@dataclass(frozen=True)
class SweepSpec:
    """A grid of benchmark points: budgets x presets x dims x repetitions.

    The tuning fields default to BenchConfig's. Each point's preset decides
    its seeding: `dict-init` needs `dict_path` (crosslingual mode) and is an
    error row in identity and cipher modes. `top_eval` bounds identity and
    cipher scoring only; crosslingual points score every evaluable entry of
    the dictionary.
    """

    source: str
    target: str | None = None
    mode: str = "identity"
    budgets: tuple[int, ...] = ()
    presets: tuple[str, ...] = ("coocmap",)
    dims: tuple[int, ...] = ()
    dict_path: str | None = None
    repetitions: int = 1
    vocab_size: int = BenchConfig.vocab_size
    window: int = BenchConfig.window
    csls_k: int = BenchConfig.csls_k
    max_iters: int = BenchConfig.max_iters
    tol: float = BenchConfig.tol
    top_eval: int = BenchConfig.top_eval
    block_lines: int = BenchConfig.block_lines
    cipher_seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if not self.budgets or any(b <= 0 for b in self.budgets):
            raise ValidationError("budgets must be a nonempty list of positive bytes")
        if list(self.budgets) != sorted(self.budgets):
            raise ValidationError("budgets must be ascending")
        for name in self.presets:
            get_preset(name)
        if self.mode == "crosslingual" and self.target is None:
            raise ValidationError("crosslingual mode needs a target corpus")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        kv = parse_kv_file(path)
        known = {
            "source": str, "target": str, "mode": str,
            "dict": str, "budgets": "ints", "presets": "strs", "dims": "ints",
            "repetitions": int, "vocab_size": int, "window": int,
            "csls_k": int, "max_iters": int, "tol": float, "top_eval": int,
            "block_lines": int, "cipher_seed": int,
        }
        kwargs = {}
        for key, raw in kv.items():
            if key not in known:
                raise ValidationError(f"{path}: unknown sweep key {key!r}")
            conv = known[key]
            name = "dict_path" if key == "dict" else key
            if conv == "ints":
                kwargs[name] = tuple(int(x) for x in raw.split(",") if x.strip())
            elif conv == "strs":
                kwargs[name] = tuple(x.strip() for x in raw.split(",") if x.strip())
            else:
                kwargs[name] = conv(raw)
        if "source" not in kwargs:
            raise ValidationError(f"{path}: sweep spec needs a source corpus")
        return cls(**kwargs)


# Failures a sweep records as error rows: bad input and numeric failure, the
# classes the CLI maps to exits 2 and 3. Anything else is a programming error
# and propagates.
_RECORDED_ERRORS = (ValidationError, NumericError, OSError, UnicodeDecodeError)


def _error_row(mode: str, budget: int, cfg: BenchConfig, e, acfg: AlignConfig | None = None):
    """The row of a point that failed; its dimension is the resolved `acfg`'s
    (as on the rows that ran), or the point's own if it did not resolve."""
    return RunReport(
        mode=mode, preset=cfg.preset, budget_bytes=budget,
        dimension=cfg.dim if acfg is None else acfg.dim,
        accuracy=0.0, evaluated=0, correct=0, no_overlap=True, seconds=0.0,
        vocab_sizes=(0, 0), token_counts=(0, 0), data_bytes=0, traces=[],
        config=asdict(cfg), seed=None, error=f"{type(e).__name__}: {e}",
    )


def _budget_points(spec: SweepSpec, budget: int) -> list[RunReport]:
    """Every (preset, dim, rep) point of one budget, in spec order, on one
    ingest of that budget. Each point's config and seeding are checked
    before the ingest, and a point that fails them is an error row; a budget
    with no point left reads no corpus. The first point that is not an error
    row carries the ingest's time. Outside cipher mode a repetition would rerun
    the same computation, so it copies the previous row with `seconds` 0.0."""
    t0 = time.perf_counter()
    # every BenchConfig field but preset and dim is the spec's, for all points
    tuning = [f.name for f in fields(BenchConfig) if f.name not in ("preset", "dim")]
    base = BenchConfig(**{name: getattr(spec, name) for name in tuning})
    points = [
        (replace(base, preset=preset, dim=dim), rep)
        for preset in spec.presets
        for dim in (spec.dims or (None,))
        for rep in range(spec.repetitions)
    ]
    dictionary = None
    # per point: its resolved config, or the error row that replaces it
    resolved: list[AlignConfig | RunReport] = []
    try:
        if spec.mode == "crosslingual" and spec.dict_path:
            dictionary = load_dictionary(spec.dict_path)
        for cfg, _ in points:
            try:
                resolved.append(_point_config(cfg, dictionary))
            except ValidationError as e:
                resolved.append(_error_row(spec.mode, budget, cfg, e))
        if all(isinstance(r, RunReport) for r in resolved):
            return resolved
        if spec.mode == "crosslingual":
            sides = _corpus_pair_sides(spec.source, spec.target, budget, base)
        else:
            sides = _split_sides(spec.source, budget, base)
    except _RECORDED_ERRORS as e:
        return [
            _error_row(spec.mode, budget, cfg, e, acfg if isinstance(acfg, AlignConfig) else None)
            for (cfg, _), acfg in zip_longest(points, resolved)
        ]
    reports = []
    for acfg, (cfg, rep) in zip(resolved, points):
        if isinstance(acfg, RunReport):
            reports.append(acfg)
            continue
        if rep > 0 and spec.mode != "cipher":
            reports.append(replace(deepcopy(reports[-1]), seconds=0.0))
            continue
        seed = spec.cipher_seed + rep if spec.mode == "cipher" else None
        try:
            report = _bench_point(
                spec.mode, sides, cfg, acfg, budget, t0, seed, dictionary=dictionary
            )
            t0 = time.perf_counter()
        except _RECORDED_ERRORS as e:
            report = _error_row(spec.mode, budget, cfg, e, acfg)
        reports.append(report)
    return reports


def sweep_csv(reports: list[RunReport]) -> str:
    """Fixed-header CSV; `seconds` is volatile, everything else deterministic.

    A budget's first row's `seconds` includes that budget's ingest, and
    repeated identity/crosslingual rows are copies that record 0 (see
    RunReport); error rows record 0.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in reports:
        w.writerow([
            r.budget_bytes,
            r.preset,
            "" if r.dimension is None else r.dimension,
            "" if r.error is not None else f"{r.accuracy:.6f}",
            r.evaluated,
            f"{r.seconds:.3f}",
            r.error or "",
        ])
    return buf.getvalue()


def sweep_summary(reports: list[RunReport]) -> dict[str, dict]:
    """Per preset (and dimension): the smallest budget that starts to work
    (accuracy >= 5%) and the smallest that works (accuracy >= 50%)."""
    out: dict[str, dict] = {}
    for r in reports:
        if r.error is not None:
            continue
        key = r.preset if r.dimension is None else f"{r.preset}@{r.dimension}"
        entry = out.setdefault(key, {"start": None, "works": None})
        for field_, bar in (("start", 0.05), ("works", 0.50)):
            if r.accuracy >= bar:
                prev = entry[field_]
                if prev is None or r.budget_bytes < prev:
                    entry[field_] = r.budget_bytes
    return out


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Cartesian product of budgets x presets x dims x repetitions, executed
    in spec order; input and numeric failures become error rows. Each budget
    is read and counted once and its counts are shared by all of its points;
    with workers > 1, budgets run in parallel. Returns (reports, csv text)."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_budget = list(pool.map(_budget_points, repeat(spec), spec.budgets))
    else:
        per_budget = [_budget_points(spec, budget) for budget in spec.budgets]
    reports = [r for rows in per_budget for r in rows]
    return reports, sweep_csv(reports)
