"""The benchmark's workloads: what each runs through the package's public
entry points, and the checks its outputs must pass.

Why each workload is here (BENCHMARK.json carries the one-line version):

- identity-20mb: the ROADMAP baseline point (preset coocmap, 20 MB, V=1500,
  top-1000). It loads ingest (read, tokenize, vocab, encode, count) and the
  dense self-learning measure about evenly, and bypasses clip, SVD,
  permute_cooc and the cdist path of sim_matrix.
- cipher-drop-20mb: the only workload that runs stage 2. Clip percentiles,
  the SVD head-drop and permute_cooc load kernels and assoc; the cdist path
  is bypassed. Its accuracy (0.047 at the baseline) is the known clip/drop
  defect of ROADMAP item 5 and is recorded as measured.
- sweep-shared-counts: run_sweep over 2 budgets x 3 presets at V=500. Every
  point redoes ingest, so 12 count calls cover 4 distinct count sets; rapp
  runs the neg_l1 cdist path. Dense measure is small at V=500; SVD and clip
  are bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Size:
    corpus_bytes: int
    budget: int  # identity and cipher byte budget
    sweep_budgets: tuple[int, ...]
    vocab: int
    sweep_vocab: int
    top_eval: int
    identity_floor: float | None  # least identity accuracy, at top_eval tokens


SIZES = {
    # identity_floor is acceptance criterion 5's
    "full": Size(21_000_000, 20_000_000, (5_000_000, 20_000_000), 1500, 500, 1000, 0.90),
    # seconds-long runs of every code path, for the benchmark's own smoke test
    "tiny": Size(700_000, 600_000, (250_000, 600_000), 300, 200, 200, None),
}

CIPHER_SEED = 0
SWEEP_PRESETS = ("coocmap", "ppmi", "rapp")


def _identity(bench, corpus, size: Size, dump):
    cfg = bench.BenchConfig(preset="coocmap", vocab_size=size.vocab, top_eval=size.top_eval)
    return [bench.split_identity_bench(corpus, size.budget, cfg, preds_out=dump)]


def _cipher(bench, corpus, size: Size, dump):
    cfg = bench.BenchConfig(preset="coocmap-drop", vocab_size=size.vocab, top_eval=size.top_eval)
    return [bench.cipher_bench(corpus, size.budget, CIPHER_SEED, cfg, preds_out=dump)]


def _sweep(bench, corpus, size: Size, dump):
    spec = bench.SweepSpec(
        source=str(corpus),
        budgets=size.sweep_budgets,
        presets=SWEEP_PRESETS,
        vocab_size=size.sweep_vocab,
        top_eval=size.top_eval,
    )
    reports, _ = bench.run_sweep(spec, workers=1)
    return reports


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (bench module, corpus path, Size, dump path) -> list[RunReport]
    points: int  # reports one experiment returns
    dumps: bool  # writes a predictions dump to re-score
    floored: bool = False  # accuracy must reach Size.identity_floor


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identity-20mb", _identity, 1, True, floored=True),
        Workload("cipher-drop-20mb", _cipher, 1, True),
        Workload("sweep-shared-counts", _sweep, len(SWEEP_PRESETS) * 2, False),
    )
}


def rescore(dump, top_eval: int, identity: bool) -> tuple[int, int]:
    """(correct, evaluated) re-read from a predictions dump: the first
    top_eval scored rows in rank order. Identity dumps are scored by
    prediction == source, and their flags must agree."""
    with open(dump, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    rows.sort(key=lambda r: int(r[0]))
    scored = [r for r in rows if r[3] != "-"][:top_eval]
    if identity:
        if any((r[3] == "1") != (r[1] == r[2]) for r in scored):
            raise ValueError("dump flags disagree with prediction == source")
        return sum(r[1] == r[2] for r in scored), len(scored)
    return sum(r[3] == "1" for r in scored), len(scored)


def point_failures(workload: Workload, size: Size, reports, dump) -> list[str | None]:
    """One entry per expected point: None if it passed, else the reason."""
    if len(reports) != workload.points:
        return [f"expected {workload.points} points, got {len(reports)}"] * workload.points
    out: list[str | None] = []
    for r in reports:
        if r.error is not None:
            out.append(f"error row: {r.error}")
        elif r.evaluated < 1 or r.accuracy != r.correct / r.evaluated:
            out.append(f"accuracy {r.accuracy} is not {r.correct}/{r.evaluated}")
        elif workload.dumps and r.evaluated != size.top_eval:
            out.append(f"evaluated {r.evaluated} tokens, expected {size.top_eval}")
        elif workload.dumps and rescore(dump, size.top_eval, r.mode == "identity") != (
            r.correct, r.evaluated
        ):
            out.append("re-scored predictions dump disagrees with the report")
        elif workload.floored and size.identity_floor is not None \
                and r.accuracy < size.identity_floor:
            out.append(f"identity accuracy {r.accuracy} below {size.identity_floor}")
        else:
            out.append(None)
    return out


def signature(reports) -> list:
    """The deterministic part of an experiment's output."""
    return [(r.preset, r.budget_bytes, r.accuracy, r.correct, r.evaluated, r.traces)
            for r in reports]
