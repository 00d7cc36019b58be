"""Dictionary loading and seeding, translation extraction, precision@1
scoring, and the predictions dump. A `Dictionary` is a plain dict: source
token -> the frozenset of its acceptable targets (`load_dictionary` lowercases).

`score` is the one rule for which predictions are scored and whether each
is right: the source is a source word with a dictionary entry, one of its
targets is a target label, and the prediction is right when it names one of
those. Reports (`bench.run_point`), dump flags (`write_predictions`) and
`coocmap eval` all read it. The identity and cipher answer keys keep the
`[UNK]` bucket, which both vocabularies hold, so it is scored as a word."""

from __future__ import annotations

from operator import attrgetter
from typing import Container, Mapping, NamedTuple, Sequence

import numpy as np

# perfbench/spans.py rebinds csls and sim_matrix as globals of this module
from .align import MatchState, PipelineRun, csls  # noqa: F401
from .corpus import Vocabulary
from .errors import ValidationError
from .kernels import sim_matrix  # noqa: F401


Dictionary = dict[str, frozenset[str]]


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
    return {src: frozenset(tgts) for src, tgts in entries.items()}


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
    flags: dict[str, bool]  # every scored source: whether its prediction is right

    @property
    def no_overlap(self) -> bool:
        return self.evaluated == 0


def score(
    preds: Sequence[Prediction],
    dictionary: Dictionary,
    v1: Container[str],
    labels: Container[str],
    limit: int | None = None,
) -> EvalResult:
    """The scoring rule, in one pass over `preds` (distinct sources) in rank
    order. A prediction is scored when its source is in v1 and in
    `dictionary` and one of its targets is among `labels` (the target
    vocabulary, or any set of target labels); it is right when it predicts
    one of those targets. Every scored source is flagged; accuracy,
    evaluated and correct count the first `limit` of them, and none scored
    reads accuracy 0 with `no_overlap` set."""
    flags: dict[str, bool] = {}
    evaluated = correct = 0
    for p in sorted(preds, key=attrgetter("rank")):
        targets = [t for t in dictionary.get(p.source, ()) if t in labels]
        if not targets or p.source not in v1:
            continue
        flags[p.source] = right = p.predicted in targets
        if evaluated != limit:
            evaluated += 1
            correct += right
    return EvalResult(correct / evaluated if evaluated else 0.0, evaluated, correct, flags)


def seed_from_dictionary(
    dictionary: Dictionary, v1: Vocabulary, v2: Vocabulary
) -> MatchState:
    """Initial correspondence from every in-vocabulary dictionary pair."""
    s: list[int] = []
    t: list[int] = []
    for src, targets in dictionary.items():
        if src not in v1:
            continue
        for tgt in sorted(targets):
            if tgt in v2:
                s.append(v1.id_of(src))
                t.append(v2.id_of(tgt))
    if not s:
        raise ValidationError("no dictionary pair is in-vocabulary on both sides")
    return MatchState(s=np.asarray(s), t=np.asarray(t))


def write_predictions(preds: list[Prediction], path, flags: Mapping[str, bool]):
    """Tab-separated dump of a list of `Prediction`: rank, source, prediction,
    and the flag `score` gave its source (1 right, 0 wrong, '-' not scored)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in preds:
            flag = "-" if row.source not in flags else "1" if flags[row.source] else "0"
            f.write(f"{row.rank}\t{row.source}\t{row.predicted}\t{flag}\n")


def load_predictions(path) -> list[Prediction]:
    """A `write_predictions` dump as a list of `Prediction`; a malformed line,
    a rank that is not an integer or a flag other than 0, 1 or '-' names its
    line, and a source or rank listed twice names both lines."""
    rows: list[Prediction] = []
    source_line: dict[str, int] = {}
    rank_line: dict[int, int] = {}
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
            if parts[3] not in ("0", "1", "-"):
                raise ValidationError(
                    f"{path}:{lineno}: flag must be 0, 1 or '-', got {parts[3]!r}"
                )
            for what, key, seen in (("source", parts[1], source_line), ("rank", rank, rank_line)):
                if key in seen:
                    raise ValidationError(
                        f"{path}:{lineno}: {what} {key!r} listed twice, first on line {seen[key]}"
                    )
                seen[key] = lineno
            rows.append(Prediction(source=parts[1], predicted=parts[2], rank=rank))
    return rows

