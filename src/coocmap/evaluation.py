"""Dictionary loading, translation extraction, precision@1 scoring, and the
clipped-pair diagnostic comparing full-rank against reduced matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, NamedTuple, Sequence

import numpy as np

# perfbench/spans.py rebinds csls and sim_matrix as globals of this module
from .align import MatchState, PipelineRun, csls  # noqa: F401
from .corpus import Vocabulary
from .errors import ValidationError
from .kernels import sim_matrix  # noqa: F401


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


def translate(
    run: PipelineRun, source_tokens: Sequence[str], target_tokens: Sequence[str]
) -> list[Prediction]:
    """A list of `Prediction`: every source word predicts the target word the
    run matched it to, `run.targets`: its CSLS best under the run's final
    correspondence."""
    return [
        Prediction(source=tok, predicted=target_tokens[run.targets[i]], rank=i)
        for i, tok in enumerate(source_tokens)
    ]


class EvalResult(NamedTuple):
    accuracy: float
    evaluated: int
    correct: int
    no_overlap: bool = False


def precision_at_1(
    preds: list[Prediction],
    dictionary: Dictionary,
    v1: Vocabulary,
    v2: Container[str],
    limit: int | None = None,
) -> EvalResult:
    """Score only entries whose source is in v1 and whose target set meets v2
    (the target vocabulary, or any set of target labels), at most `limit` of
    them in dictionary order; zero evaluable entries report accuracy 0 with
    the no-overlap flag set."""
    predicted = {p.source: p.predicted for p in preds}
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


def write_predictions(
    preds: list[Prediction], path, dictionary: Dictionary | None = None, v2: Container[str] = ()
):
    """Tab-separated dump of a list of `Prediction`: rank, source, prediction,
    and correctness ('-' otherwise) where `precision_at_1` scores the entry
    against the target labels `v2`: its source is in `dictionary` and one of
    its targets is in v2."""
    with open(path, "w", encoding="utf-8") as f:
        for row in preds:
            flag = "-"
            if dictionary is not None and row.source in dictionary.entries:
                in_vocab = {t for t in dictionary.entries[row.source] if t in v2}
                if in_vocab:
                    flag = "1" if row.predicted in in_vocab else "0"
            f.write(f"{row.rank}\t{row.source}\t{row.predicted}\t{flag}\n")


def load_predictions(path) -> list[Prediction]:
    """A `write_predictions` dump as a list of `Prediction`; a malformed line
    or a rank that is not an integer names its line, and a source listed
    twice names both lines."""
    rows: list[Prediction] = []
    first: dict[str, int] = {}  # line of each source
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                rank = int(parts[0])
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: rank must be an integer, got {parts[0]!r}"
                ) from None
            if parts[1] in first:
                raise ValidationError(
                    f"{path}:{lineno}: source {parts[1]!r} listed twice, first on line "
                    f"{first[parts[1]]}"
                )
            first[parts[1]] = lineno
            rows.append(Prediction(source=parts[1], predicted=parts[2], rank=rank))
    return rows


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
