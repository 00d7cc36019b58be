"""Dictionary loading, translation extraction, precision@1 scoring, and the
clipped-pair diagnostic comparing full-rank against reduced matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, NamedTuple, Sequence

import numpy as np

# perfbench/spans.py rebinds csls and sim_matrix as globals of this module
from .align import AlignConfig, MatchState, PipelineRun, csls
from .corpus import Vocabulary
from .errors import ValidationError
from .kernels import check_finite, sim_matrix  # noqa: F401


@dataclass(frozen=True)
class Dictionary:
    """source token -> acceptable target tokens, all lowercased."""

    entries: dict[str, frozenset[str]]


def load_dictionary(path) -> Dictionary:
    entries: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'source target', got {line.rstrip()!r}"
                )
            src, tgt = (p.lower() for p in parts)
            entries.setdefault(src, set()).add(tgt)
    if not entries:
        raise ValidationError(f"{path}: empty dictionary")
    return Dictionary({src: frozenset(tgts) for src, tgts in entries.items()})


class Prediction(NamedTuple):
    source: str
    predicted: str
    rank: int  # source frequency rank (= vocabulary id)


@dataclass
class Predictions:
    rows: list[Prediction]

    def as_dict(self) -> dict[str, str]:
        return {r.source: r.predicted for r in self.rows}


def translate(
    run: PipelineRun,
    cfg: AlignConfig,
    source_tokens: Sequence[str],
    target_tokens: Sequence[str],
) -> Predictions:
    """One last measurement under the final correspondence, with the run's
    own self-learning measure, then CSLS with `cfg.csls_k`; every source
    word predicts its best-scoring target word."""
    S = check_finite(run.measure(run.state.s, run.state.t), "translation")
    best = csls(S, cfg.csls_k).argmax(axis=1)
    rows = [
        Prediction(source=tok, predicted=target_tokens[best[i]], rank=i)
        for i, tok in enumerate(source_tokens)
    ]
    return Predictions(rows=rows)


class EvalResult(NamedTuple):
    accuracy: float
    evaluated: int
    correct: int
    no_overlap: bool = False


def precision_at_1(
    preds: Predictions,
    dictionary: Dictionary,
    v1: Vocabulary,
    v2: Container[str],
    limit: int | None = None,
) -> EvalResult:
    """Score only entries whose source is in v1 and whose target set meets v2
    (the target vocabulary, or any set of target labels), at most `limit` of
    them in dictionary order; zero evaluable entries report accuracy 0 with
    the no-overlap flag set."""
    predicted = preds.as_dict()
    evaluated = correct = 0
    for src, targets in dictionary.entries.items():
        if evaluated == limit:
            break
        if src not in v1 or src not in predicted:
            continue
        in_vocab = {t for t in targets if t in v2}
        if not in_vocab:
            continue
        evaluated += 1
        if predicted[src] in in_vocab:
            correct += 1
    if evaluated == 0:
        return EvalResult(0.0, 0, 0, no_overlap=True)
    return EvalResult(correct / evaluated, evaluated, correct)


def seed_from_dictionary(
    dictionary: Dictionary, v1: Vocabulary, v2: Vocabulary
) -> MatchState:
    """Initial correspondence from every in-vocabulary dictionary pair."""
    s: list[int] = []
    t: list[int] = []
    for src, targets in dictionary.entries.items():
        if src not in v1:
            continue
        for tgt in sorted(targets):
            if tgt in v2:
                s.append(v1.id_of(src))
                t.append(v2.id_of(tgt))
    if not s:
        raise ValidationError("no dictionary pair is in-vocabulary on both sides")
    return MatchState(s=np.asarray(s), t=np.asarray(t))


def write_predictions(preds: Predictions, path, dictionary: Dictionary | None = None):
    """Tab-separated dump: rank, source, prediction, and correctness where a
    dictionary entry applies ('-' otherwise)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in preds.rows:
            flag = "-"
            if dictionary is not None and row.source in dictionary.entries:
                flag = "1" if row.predicted in dictionary.entries[row.source] else "0"
            f.write(f"{row.rank}\t{row.source}\t{row.predicted}\t{flag}\n")


def load_predictions(path) -> Predictions:
    rows: list[Prediction] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 tab-separated fields")
            rows.append(Prediction(source=parts[1], predicted=parts[2], rank=int(parts[0])))
    return Predictions(rows=rows)


class ClipDiff(NamedTuple):
    token_i: str
    token_j: str
    side: str  # "full-rank+" or "reduced+"
    magnitude: float


def clip_diff_report(
    X_full: np.ndarray,
    X_reduced: np.ndarray,
    thresholds: tuple[float, float],
    vocab: Vocabulary,
    top_n: int | None = None,
) -> list[ClipDiff]:
    """Pairs clipped in one matrix but not the other, largest change first.

    full-rank+ marks pairs the reduced matrix tamed below the thresholds;
    reduced+ marks pairs reduction pushed past them.
    """
    Xf = np.asarray(X_full, dtype=np.float64)
    Xr = np.asarray(X_reduced, dtype=np.float64)
    if Xf.shape != Xr.shape:
        raise ValidationError(f"shape mismatch: {Xf.shape} vs {Xr.shape}")
    lo, hi = thresholds
    full_clipped = (Xf < lo) | (Xf > hi)
    red_clipped = (Xr < lo) | (Xr > hi)
    diff = np.abs(Xf - Xr)
    out: list[ClipDiff] = []
    for mask, side in [
        (full_clipped & ~red_clipped, "full-rank+"),
        (red_clipped & ~full_clipped, "reduced+"),
    ]:
        ii, jj = np.nonzero(mask)
        for i, j in zip(ii.tolist(), jj.tolist()):
            out.append(ClipDiff(vocab.tokens[i], vocab.tokens[j], side, float(diff[i, j])))
    out.sort(key=lambda r: -r.magnitude)
    return out[:top_n] if top_n is not None else out
