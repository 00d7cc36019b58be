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
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .align import AlignConfig
from .config import parse_kv_file
from .cooc import CoocMatrix, count_cooc, permute_cooc
from .corpus import Vocabulary, build_vocab, encode, take_head_bytes, tokenize
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
    csls_k: int = 10
    max_iters: int = 100
    tol: float = 1e-6
    top_eval: int = 1000
    block_lines: int = 1000


@dataclass
class RunReport:
    """One experiment, serializable; `seconds` is the only volatile field.

    `seconds` runs from reading the corpus to scoring. In a sweep, the
    points of one budget share a single ingest: the budget's first point
    carries it and the others cover their own align and score. Only cipher
    mode depends on the repetition (its permutation seed); in the other
    modes each (preset, dim) is aligned once and its later repetitions are
    copies with `seconds` 0.0. A budget's rows still sum to the time that
    budget took.
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
    """Deal consecutive blocks of lines to the two halves alternately."""
    a: list = []
    b: list = []
    for i in range(0, len(lines), block):
        (a if (i // block) % 2 == 0 else b).extend(lines[i : i + block])
    return a, b


@dataclass(frozen=True)
class _Sides:
    """The two sides of one budget, reduced to what aligning and scoring
    need: no text or token lists are kept, so several points can share it."""

    v1: Vocabulary
    v2: Vocabulary
    C1: CoocMatrix
    C2: CoocMatrix
    data_bytes: int


def _build_side(lines, cfg: BenchConfig):
    vocab = build_vocab(chain.from_iterable(lines), cfg.vocab_size)
    C = count_cooc(encode(lines, vocab), cfg.window)
    C.counts.flags.writeable = False  # shared by every point of a sweep budget
    return vocab, C


def _split_sides(corpus_path, budget: int, cfg: BenchConfig) -> _Sides:
    """Both halves of one corpus, dealt in alternate blocks of lines."""
    text = take_head_bytes(corpus_path, budget)
    data_bytes = len(text.encode("utf-8"))
    half_a, half_b = alternate_blocks(tokenize(text), cfg.block_lines)
    del text
    v1, C1 = _build_side(half_a, cfg)
    v2, C2 = _build_side(half_b, cfg)
    return _Sides(v1, v2, C1, C2, data_bytes)


def _corpus_pair_sides(source_path, target_path, budget: int, cfg: BenchConfig) -> _Sides:
    """One side per corpus, each cut to the same byte budget."""
    text1 = take_head_bytes(source_path, budget)
    text2 = take_head_bytes(target_path, budget)
    data_bytes = len(text1.encode("utf-8")) + len(text2.encode("utf-8"))
    v1, C1 = _build_side(tokenize(text1), cfg)
    v2, C2 = _build_side(tokenize(text2), cfg)
    return _Sides(v1, v2, C1, C2, data_bytes)


def _align_cfg(cfg: BenchConfig) -> AlignConfig:
    return align_config(
        get_preset(cfg.preset),
        csls_k=cfg.csls_k,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        dim=cfg.dim,
    )


def _shared_top(v1: Vocabulary, v2: Vocabulary, top_eval: int) -> list[str]:
    return [tok for tok in v1.tokens if tok in v2][:top_eval]


def _report(mode, cfg: BenchConfig, budget, run, acc, evaluated, correct,
            no_overlap, t0, sides: _Sides, seed=None) -> RunReport:
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
        vocab_sizes=(sides.v1.size, sides.v2.size),
        token_counts=(sides.C1.token_count, sides.C2.token_count),
        data_bytes=sides.data_bytes,
        traces=run.traces if run is not None else [],
        config=asdict(cfg),
        seed=seed,
    )


def split_identity_bench(corpus_path, budget: int, cfg: BenchConfig, preds_out=None) -> RunReport:
    """Self-translation: align two disjoint halves of one corpus and score
    how many of the top shared tokens map to themselves."""
    t0 = time.perf_counter()
    return _identity_score(_split_sides(corpus_path, budget, cfg), budget, cfg, t0, preds_out)


def _identity_score(sides: _Sides, budget: int, cfg: BenchConfig, t0, preds_out=None) -> RunReport:
    v1, v2 = sides.v1, sides.v2
    acfg = _align_cfg(cfg)
    run = execute_preset(get_preset(cfg.preset), acfg, sides.C1, sides.C2)
    preds = translate(run.X, run.Z, run.state, acfg, v1.tokens, v2.tokens, run.family)
    if preds_out is not None:
        identity = Dictionary({tok: frozenset([tok]) for tok in v1.tokens if tok in v2})
        write_predictions(preds, preds_out, identity)
    shared = _shared_top(v1, v2, cfg.top_eval)
    predicted = preds.as_dict()
    correct = sum(predicted[tok] == tok for tok in shared)
    acc = correct / len(shared) if shared else 0.0
    return _report("identity", cfg, budget, run, acc, len(shared), correct, not shared, t0, sides)


def cipher_labels(V: int) -> tuple[str, ...]:
    return tuple("w%04d" % j for j in range(V))


def cipher_bench(
    corpus_path, budget: int, seed: int, cfg: BenchConfig, preds_out=None, pi=None
) -> RunReport:
    """Identity benchmark with one side's vocabulary scrambled by a seeded
    permutation (or an explicit one); scored against the permutation."""
    t0 = time.perf_counter()
    sides = _split_sides(corpus_path, budget, cfg)
    return _cipher_score(sides, budget, seed, cfg, t0, preds_out, pi)


def _cipher_score(
    sides: _Sides, budget: int, seed: int, cfg: BenchConfig, t0, preds_out=None, pi=None
) -> RunReport:
    v1, v2 = sides.v1, sides.v2
    if pi is None:
        pi = np.random.default_rng(seed).permutation(v2.size)
    C2p = permute_cooc(sides.C2, pi)
    labels = cipher_labels(v2.size)
    acfg = _align_cfg(cfg)
    run = execute_preset(get_preset(cfg.preset), acfg, sides.C1, C2p)
    preds = translate(run.X, run.Z, run.state, acfg, v1.tokens, labels, run.family)
    if preds_out is not None:
        truth = Dictionary(
            {tok: frozenset([labels[pi[v2.id_of(tok)]]]) for tok in v1.tokens if tok in v2}
        )
        write_predictions(preds, preds_out, truth)
    shared = _shared_top(v1, v2, cfg.top_eval)
    predicted = preds.as_dict()
    correct = sum(predicted[tok] == labels[pi[v2.id_of(tok)]] for tok in shared)
    acc = correct / len(shared) if shared else 0.0
    return _report(
        "cipher", cfg, budget, run, acc, len(shared), correct, not shared, t0, sides, seed=seed
    )


def crosslingual_run(
    source_path,
    target_path,
    budget: int,
    cfg: BenchConfig,
    dictionary: Dictionary | None = None,
    seed_mode: str = "unsupervised",
    preds_out=None,
) -> RunReport:
    """Two-corpus run scored with precision@1 against a reference dictionary."""
    t0 = time.perf_counter()
    sides = _corpus_pair_sides(source_path, target_path, budget, cfg)
    return _crosslingual_score(sides, budget, cfg, t0, dictionary, seed_mode, preds_out)


def _crosslingual_score(
    sides: _Sides, budget: int, cfg: BenchConfig, t0,
    dictionary: Dictionary | None, seed_mode: str, preds_out=None,
) -> RunReport:
    v1, v2 = sides.v1, sides.v2
    acfg = _align_cfg(cfg)
    seed_state = None
    if seed_mode == "dict-init":
        if dictionary is None:
            raise ValidationError("dict-init seeding needs a dictionary")
        seed_state = seed_from_dictionary(dictionary, v1, v2)
    run = execute_preset(get_preset(cfg.preset), acfg, sides.C1, sides.C2, seed=seed_state)
    preds = translate(run.X, run.Z, run.state, acfg, v1.tokens, v2.tokens, run.family)
    if preds_out is not None:
        write_predictions(preds, preds_out, dictionary)
    if dictionary is not None:
        acc, evaluated, correct, no_overlap = precision_at_1(preds, dictionary, v1, v2)
    else:
        acc, evaluated, correct, no_overlap = 0.0, 0, 0, True
    return _report(
        "crosslingual", cfg, budget, run, acc, evaluated, correct, no_overlap, t0, sides
    )


@dataclass(frozen=True)
class SweepSpec:
    source: str
    target: str | None = None
    mode: str = "identity"
    budgets: tuple[int, ...] = ()
    presets: tuple[str, ...] = ("coocmap",)
    dims: tuple[int, ...] = ()
    seed_mode: str = "unsupervised"
    dict_path: str | None = None
    repetitions: int = 1
    vocab_size: int = 5000
    window: int = 5
    csls_k: int = 10
    max_iters: int = 100
    tol: float = 1e-6
    top_eval: int = 1000
    block_lines: int = 1000
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
            "source": str, "target": str, "mode": str, "seed_mode": str,
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


def _error_row(spec: SweepSpec, budget: int, preset: str, dim: int | None, e) -> RunReport:
    cfg = BenchConfig(preset=preset, dim=dim)
    return RunReport(
        mode=spec.mode, preset=preset, budget_bytes=budget, dimension=dim,
        accuracy=0.0, evaluated=0, correct=0, no_overlap=True, seconds=0.0,
        vocab_sizes=(0, 0), token_counts=(0, 0), data_bytes=0, traces=[],
        config=asdict(cfg), seed=None, error=f"{type(e).__name__}: {e}",
    )


def _budget_points(spec: SweepSpec, budget: int) -> list[RunReport]:
    """Every (preset, dim, rep) point of one budget, in spec order, on one
    ingest of that budget. The first point's `seconds` includes the ingest.
    Outside cipher mode a repetition would rerun the same computation, so it
    copies the previous row with `seconds` 0.0."""
    t0 = time.perf_counter()
    base = BenchConfig(
        vocab_size=spec.vocab_size,
        window=spec.window,
        csls_k=spec.csls_k,
        max_iters=spec.max_iters,
        tol=spec.tol,
        top_eval=spec.top_eval,
        block_lines=spec.block_lines,
    )
    points = [
        (preset, dim, rep)
        for preset in spec.presets
        for dim in (spec.dims or (None,))
        for rep in range(spec.repetitions)
    ]
    try:
        if spec.mode == "crosslingual":
            dictionary = load_dictionary(spec.dict_path) if spec.dict_path else None
            sides = _corpus_pair_sides(spec.source, spec.target, budget, base)
        else:
            dictionary, sides = None, _split_sides(spec.source, budget, base)
    except _RECORDED_ERRORS as e:
        return [_error_row(spec, budget, preset, dim, e) for preset, dim, _ in points]
    reports = []
    for preset, dim, rep in points:
        if rep > 0 and spec.mode != "cipher":
            reports.append(replace(deepcopy(reports[-1]), seconds=0.0))
            continue
        cfg = replace(base, preset=preset, dim=dim)
        try:
            if spec.mode == "identity":
                report = _identity_score(sides, budget, cfg, t0)
            elif spec.mode == "cipher":
                report = _cipher_score(sides, budget, spec.cipher_seed + rep, cfg, t0)
            else:
                report = _crosslingual_score(sides, budget, cfg, t0, dictionary, spec.seed_mode)
        except _RECORDED_ERRORS as e:
            report = _error_row(spec, budget, preset, dim, e)
        reports.append(report)
        t0 = time.perf_counter()
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
