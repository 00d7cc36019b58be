"""Desk-scale benchmarks: split-corpus self-translation and
substitution-cipher recovery, and the sweep driver that grids budgets,
presets and dimensions of those and of cross-lingual runs into CSV tables."""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import count, repeat
from typing import Sequence

import numpy as np

from .align import AlignConfig
from .config import parse_kv_file
from .cooc import CoocMatrix, count_cooc, permute_cooc
from .corpus import (
    TypeIndex,
    Vocabulary,
    build_vocab,
    encode,
    take_head_bytes,
    tokenize,
)
from .errors import INPUT_ERRORS, NumericError, ValidationError
from .evaluation import (
    Dictionary,
    load_dictionary,
    score,
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
    csls_k: int | None = None
    max_iters: int | None = None
    tol: float | None = None
    top_eval: int = 1000
    block_lines: int = 1000

    def __post_init__(self):
        if self.window < 1 or self.top_eval < 1:
            raise ValidationError(f"need window, top_eval >= 1, got {self.window}, {self.top_eval}")
        if self.vocab_size < 1 or self.block_lines < 1:
            raise ValidationError(
                f"need vocab_size, block_lines >= 1, got {self.vocab_size}, {self.block_lines}"
            )


@dataclass
class RunReport:
    """One experiment, serializable; `seconds` is the only volatile field.
    `run_point` builds it and states what each mode labels, seeds from and
    scores. The result fields default to the empty result of an error row.

    `config` is a bench or sweep point's BenchConfig, whose `dim`, `csls_k`,
    `max_iters` and `tol` are null where the caller kept the preset's value,
    and the resolved AlignConfig (the preset with its flags applied) of an
    `induce` run: its fields, so not `metric`, which follows the association.

    `seconds` runs from reading the corpus to scoring. In a sweep, the
    points of one budget share a single ingest: the budget's first point
    that runs carries it (with the time of any point that failed before
    it), and the others cover their own align and score. Repetitions are a
    cipher input: each one draws its own permutation seed.
    """

    mode: str
    preset: str
    budget_bytes: int
    dimension: int | None
    config: dict
    accuracy: float = 0.0
    evaluated: int = 0
    correct: int = 0
    no_overlap: bool = True
    seconds: float = 0.0
    vocab_sizes: tuple[int, int] = (0, 0)
    token_counts: tuple[int, int] = (0, 0)
    data_bytes: int = 0
    traces: list[list[float]] = field(default_factory=list)
    seed: int | None = None
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class Sides:
    """The two sides of an experiment, reduced to what aligning and scoring
    need: no text or token lists are kept, so several points can share it."""

    v1: Vocabulary
    v2: Vocabulary
    C1: CoocMatrix
    C2: CoocMatrix
    data_bytes: int


def build_sides(path, budget: int, cfg: BenchConfig, sides: int = 1):
    """Vocabulary, window counts and number of distinct tokens of each of
    `sides` sides, and the bytes read: the lines within the first `budget`
    bytes of `path` (`take_head_bytes`) are cut into consecutive blocks of
    `block_lines` lines, dealt to the sides in turn. Each side equals counting
    `encode(tokenize(side), build_vocab(...))` of its whole text.

    One read of the budget encodes every side: a block is read, decoded,
    tokenized and encoded against its side's `TypeIndex`, then dropped.
    Then each side in turn is relabelled to its vocabulary, its type ids and
    type index are dropped, and it is counted.

    Memory, with T tokens over the sides, T_side in the largest side,
    T_block in the largest block and D distinct tokens per side: reading
    holds every side's type ids (4 B * T) and type index (100 B * D each)
    beside one block's bytes, text and token strings (80 B * T_block), and
    relabelling a side adds 8 B per token of it. `count_cooc` then adds
    about 20 B per token of the side (a line-start flag, crossing masks and
    the int64 keys of two window offsets) to the 4 B per token of ids held,
    next to a float32 V x V sum and an int64 bincount (12 B * V^2); each
    side keeps its float32 counts (4 B * V^2). So the sides need at most
    about 4 B * V^2 * (sides - 1) + 100 B * D * sides + max(12 B * T +
    80 B * T_block, 4 B * T + 20 B * T_side + 12 B * V^2), whatever the
    byte budget."""
    types = [TypeIndex() for _ in range(sides)]
    parts = [[] for _ in range(sides)]
    data_bytes = 0
    with open(path, "rb") as f:
        for i in count():
            text, size = take_head_bytes(f, budget, cfg.block_lines)
            if not size:
                break
            data_bytes += size
            parts[i % sides].append(encode(tokenize(text), types[i % sides]))
            del text
    built = []
    for side in range(sides):
        vocab = build_vocab(types[side].counts(parts[side]), cfg.vocab_size)
        corpus = types[side].relabel(parts[side], vocab)
        n_types = len(types[side]) - 1  # less the [UNK] entry
        types[side] = parts[side] = None  # not needed while counting
        C = count_cooc(corpus, cfg.window)
        del corpus
        C.counts.flags.writeable = False  # shared by every point of a sweep budget
        built.append((vocab, C, n_types))
    return built, data_bytes


def _split_sides(corpus_path, budget: int, cfg: BenchConfig) -> Sides:
    """Both halves of one corpus, dealt in alternate blocks of `block_lines`
    lines, from one read of the budget.

    Memory (`build_sides`' model for two sides): with T tokens in the
    budget, T_block in the largest block, D distinct tokens per side and V
    words per side, the ingest peaks under about 4 B * V^2 + 200 B * D +
    max(12 B * T + 80 B * T_block, 4 B * T + 20 B * T_side + 12 B * V^2),
    T_side the tokens of the larger side: it grows with the budget's tokens,
    not with its bytes."""
    ((v1, C1, _), (v2, C2, _)), data_bytes = build_sides(corpus_path, budget, cfg, 2)
    return Sides(v1, v2, C1, C2, data_bytes)


def _corpus_pair_sides(source_path, target_path, budget: int, cfg: BenchConfig) -> Sides:
    """One side per corpus, each cut to the same byte budget. The target is
    read once the source side is built, so the peak memory is that of one
    side (`build_sides`) beside the source's float32 counts (4 B * V^2)."""
    [(v1, C1, _)], bytes1 = build_sides(source_path, budget, cfg)
    [(v2, C2, _)], bytes2 = build_sides(target_path, budget, cfg)
    return Sides(v1, v2, C1, C2, bytes1 + bytes2)


def check_seeding(cfg: AlignConfig, has_dictionary: bool) -> None:
    """Reject a dictionary-seeded preset (dict-init) without a dictionary.
    Entry points, and a sweep spec for each of its points, call it before
    reading any corpus or counts file, so the error costs no ingest."""
    if cfg.seed_mode == "dictionary" and not has_dictionary:
        raise ValidationError(
            f"preset {cfg.preset} seeds from a supplied dictionary (induce --dict, "
            "or a crosslingual run's dictionary); none was given"
        )


def _point_config(cfg: BenchConfig, has_dictionary: bool = False) -> AlignConfig:
    """The resolved config of one bench point, once its seeding is checked
    and its sizes fit `vocab_size` (`AlignConfig.check_fits`; `execute_preset`
    checks the sides read): a point that cannot run fails before any read."""
    acfg = align_config(get_preset(cfg.preset), csls_k=cfg.csls_k, max_iters=cfg.max_iters,
                        tol=cfg.tol, dim=cfg.dim)
    check_seeding(acfg, has_dictionary)
    acfg.check_fits(cfg.vocab_size, f"vocab_size={cfg.vocab_size}, the most words a side holds")
    return acfg


def _shared_key(sides: Sides, target_names: Sequence[str]) -> Dictionary:
    """Answer key of a split corpus: each token both halves share maps to
    the name of its own target id, in source-rank order."""
    v2 = sides.v2
    return {tok: frozenset([target_names[v2.id_of(tok)]]) for tok in sides.v1.tokens if tok in v2}


def run_point(
    mode: str,
    sides: Sides,
    cfg: AlignConfig,
    record: dict,
    t0: float,
    *,
    top_eval: int | None = None,
    budget: int = 0,
    seed: int | None = None,
    dictionary: Dictionary | None = None,
    preds_out=None,
) -> RunReport:
    """The experiment step of every run: align the two sides under `cfg`,
    translate each source word into the target side's labels, score the
    translations, write the optional predictions dump and report. Per mode:

    - labels: the target's tokens; cipher first permutes the target counts
      by a permutation drawn from `seed` and names its words "w%04d" by id.
    - seeding: the preset's alone. dict-init seeds from `dictionary`, as
      checked by `check_seeding`, so never from an answer key.
    - key and cut: identity keys the tokens both sides share to themselves
      and cipher to their permuted names (`[UNK]` too, so the bucket is
      scored as a word), and counts the first `top_eval` in rank order;
      crosslingual and induce key `dictionary` (none: nothing is scored)
      with no cut. The key is built once the run is translated, so it is
      not alive during alignment.

    One `evaluation.score` call decides which predictions are scored (source
    in v1 and the key, a target among the labels) and whether each is
    right; the report counts the first `top_eval` and the dump writes the
    flag of every scored source. `record` is the report's `config`, as
    given; its dimension is the `cfg.dim` that ran and its `seconds` run
    from `t0`. A failure raises: a sweep records it as that point's error
    row.
    """
    labels = sides.v2.tokens
    if mode == "cipher":
        pi = np.random.default_rng(seed).permutation(sides.v2.size)
        sides = replace(sides, C2=permute_cooc(sides.C2, pi))
        labels = tuple("w%04d" % j for j in range(sides.v2.size))
    v1, v2 = sides.v1, sides.v2
    seed_state = None
    if cfg.seed_mode == "dictionary":
        seed_state = seed_from_dictionary(dictionary, v1, v2)
    run = execute_preset(cfg, sides.C1, sides.C2, seed=seed_state)
    preds = translate(run, v1.tokens, labels)
    if mode == "identity":
        key = _shared_key(sides, labels)
    elif mode == "cipher":
        key = _shared_key(sides, [labels[j] for j in pi])
    else:
        key, top_eval = dictionary or {}, None
    result = score(preds, key, v1, frozenset(labels), top_eval)
    if preds_out is not None:
        write_predictions(preds, preds_out, result.flags)
    return RunReport(
        mode=mode,
        preset=cfg.preset,
        budget_bytes=budget,
        dimension=cfg.dim,
        accuracy=result.accuracy,
        evaluated=result.evaluated,
        correct=result.correct,
        no_overlap=result.no_overlap,
        seconds=time.perf_counter() - t0,
        vocab_sizes=(v1.size, v2.size),
        token_counts=(sides.C1.token_count, sides.C2.token_count),
        data_bytes=sides.data_bytes,
        traces=run.traces,
        config=record,
        seed=seed,
    )


def split_identity_bench(corpus_path, budget: int, cfg: BenchConfig, preds_out=None) -> RunReport:
    """Self-translation: align two disjoint halves of one corpus and score
    how many of the top shared tokens map to themselves."""
    t0 = time.perf_counter()
    acfg = _point_config(cfg)
    return run_point("identity", _split_sides(corpus_path, budget, cfg), acfg, asdict(cfg), t0,
                     top_eval=cfg.top_eval, budget=budget, preds_out=preds_out)


def cipher_bench(
    corpus_path, budget: int, seed: int, cfg: BenchConfig, preds_out=None
) -> RunReport:
    """Identity benchmark with one side's vocabulary scrambled by a
    permutation drawn from `seed`; scored against the permutation."""
    t0 = time.perf_counter()
    if seed < 0:
        raise ValidationError(f"cipher seed must be >= 0, got {seed}")
    acfg = _point_config(cfg)
    # passed straight in, so the unpermuted target counts die once permuted
    return run_point("cipher", _split_sides(corpus_path, budget, cfg), acfg, asdict(cfg), t0,
                     top_eval=cfg.top_eval, budget=budget, seed=seed, preds_out=preds_out)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of benchmark points: budgets x presets x dims x repetitions.

    The tuning fields default to BenchConfig's (None: the preset's value);
    each point runs as `run_point` states. Every point resolves before
    anything is read, so a point that does not (a bad tuning value, a dim or
    csls_k above `vocab_size`, or a preset that needs a dictionary the spec
    lacks: dict-init without `dict_path`) rejects the spec. `target` and
    `dict_path` are crosslingual inputs, and the other modes reject them.
    `repetitions` and `cipher_seed`, the first repetition's permutation seed
    (default 0), are cipher inputs: the other modes reject `cipher_seed`
    and more than one repetition, which would only rerun the same point.
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
    csls_k: int | None = BenchConfig.csls_k
    max_iters: int | None = BenchConfig.max_iters
    tol: float | None = BenchConfig.tol
    top_eval: int = BenchConfig.top_eval
    block_lines: int = BenchConfig.block_lines
    cipher_seed: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if not self.budgets or any(b <= 0 for b in self.budgets):
            raise ValidationError("budgets must be a nonempty list of positive bytes")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValidationError(f"budgets must be strictly ascending, got {self.budgets}")
        if not self.presets:
            raise ValidationError("presets must be a nonempty list")
        for name, values in (("presets", self.presets), ("dims", self.dims)):
            if len(set(values)) != len(values):
                raise ValidationError(f"{name} must not repeat a value, got {values}")
        if self.mode == "crosslingual" and self.target is None:
            raise ValidationError("crosslingual mode needs a target corpus")
        for name, value in (("target", self.target), ("dict", self.dict_path)):
            if value is not None and self.mode != "crosslingual":
                raise ValidationError(
                    f"{name} is a crosslingual input; {self.mode} mode does not read it"
                )
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.repetitions > 1 and self.mode != "cipher":
            raise ValidationError(
                f"repetitions draw cipher permutation seeds; {self.mode} mode runs each point once"
            )
        if self.cipher_seed is not None and self.mode != "cipher":
            raise ValidationError(
                f"cipher_seed is the cipher permutation seed; {self.mode} mode does not read it"
            )
        if self.cipher_seed is not None and self.cipher_seed < 0:
            raise ValidationError(f"cipher_seed must be >= 0, got {self.cipher_seed}")
        self.points()  # a point that does not resolve rejects the spec

    def points(self) -> list[tuple[BenchConfig, AlignConfig]]:
        """Each (preset, dim) point's BenchConfig and resolved config, in
        spec order; dict-init resolves only when `dict_path` is given."""
        tuning = [f.name for f in fields(BenchConfig) if f.name not in ("preset", "dim")]
        base = BenchConfig(**{name: getattr(self, name) for name in tuning})
        out = []
        for preset in self.presets:
            for dim in self.dims or (None,):
                cfg = replace(base, preset=preset, dim=dim)
                out.append((cfg, _point_config(cfg, self.dict_path is not None)))
        return out

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        kwargs = parse_kv_file(path, _SPEC_KEYS, "sweep key")
        if "dict" in kwargs:
            kwargs["dict_path"] = kwargs.pop("dict")
        if "source" not in kwargs:
            raise ValidationError(f"{path}: sweep spec needs a source corpus")
        try:
            return cls(**kwargs)
        except ValidationError as e:  # SweepSpec's own checks, named by the file
            raise ValidationError(f"{path}: {e}") from None


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


# a sweep spec file's keys and how each value is read
_SPEC_KEYS = {
    "source": str, "target": str, "mode": str,
    "dict": str, "budgets": _ints, "presets": _strs, "dims": _ints,
    "repetitions": int, "vocab_size": int, "window": int,
    "csls_k": int, "max_iters": int, "tol": float, "top_eval": int,
    "block_lines": int, "cipher_seed": int,
}


# Failures a sweep records as error rows: bad input and numeric failure, the
# classes the CLI maps to exits 2 and 3. Anything else is a programming error
# and propagates.
_RECORDED_ERRORS = (*INPUT_ERRORS, NumericError)


def _error_row(mode: str, budget: int, cfg: BenchConfig, acfg: AlignConfig, e):
    """The row of a point that failed: RunReport's empty result with the
    error; its dimension is the resolved one, as on the rows that ran."""
    return RunReport(mode=mode, preset=cfg.preset, budget_bytes=budget, dimension=acfg.dim,
                     config=asdict(cfg), error=f"{type(e).__name__}: {e}")


def _budget_points(spec: SweepSpec, budget: int) -> list[RunReport]:
    """Every (preset, dim, rep) point of one budget, in spec order, on one
    ingest of that budget; the spec has resolved every point. A failure to
    read the dictionary or the corpus makes every point an error row, and a
    point that fails to run is one. The first point that runs carries the
    ingest's time."""
    t0 = time.perf_counter()
    points = spec.points()
    ingest = points[0][0]  # the points differ in preset and dim alone
    try:
        dictionary = load_dictionary(spec.dict_path) if spec.dict_path is not None else None
        if spec.mode == "crosslingual":
            sides = _corpus_pair_sides(spec.source, spec.target, budget, ingest)
        else:
            sides = _split_sides(spec.source, budget, ingest)
    except _RECORDED_ERRORS as e:
        return [_error_row(spec.mode, budget, cfg, acfg, e)
                for cfg, acfg in points for _ in range(spec.repetitions)]
    reports = []
    for cfg, acfg in points:
        for rep in range(spec.repetitions):
            seed = (spec.cipher_seed or 0) + rep if spec.mode == "cipher" else None
            try:
                report = run_point(spec.mode, sides, acfg, asdict(cfg), t0, top_eval=cfg.top_eval,
                                   budget=budget, seed=seed, dictionary=dictionary)
                t0 = time.perf_counter()
            except _RECORDED_ERRORS as e:
                report = _error_row(spec.mode, budget, cfg, acfg, e)
            reports.append(report)
    return reports


def sweep_csv(reports: list[RunReport]) -> str:
    """Fixed-header CSV; `seconds` is volatile, everything else deterministic.
    Each row is a `run_point` report (its `seconds` as RunReport states) or
    an error row, which records 0."""
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
    is read and counted once and its counts are shared by all of its points.
    Budgets run in parallel on `workers` processes, at most one per budget;
    one worker (or one budget) runs them in this process, with no pool.
    Returns (reports, csv text)."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(spec.budgets))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_budget = list(pool.map(_budget_points, repeat(spec), spec.budgets))
    else:
        per_budget = [_budget_points(spec, budget) for budget in spec.budgets]
    reports = [r for rows in per_budget for r in rows]
    return reports, sweep_csv(reports)
