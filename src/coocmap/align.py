"""Alignment engine: CSLS, bidirectional matching, the self-learning loops,
and the staged clip/drop pipeline driver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assoc
from .assoc import Step
from .errors import ValidationError
from .kernels import (
    _blocks,
    _normalize_inplace,
    _real,
    check_finite,
    check_percentiles,
    normalize,
    pair_sim_matrix,
    procrustes,
    psd_sqrt_gram,
    sim_matrix,
)


def _topk_mean(S: np.ndarray, k: int) -> np.ndarray:
    """Mean of the k largest entries per row, in float64, partitioning a
    block at a time."""
    if k == S.shape[1]:
        return S.mean(axis=1, dtype=np.float64)
    out = np.empty(S.shape[0])
    for b in _blocks(S.shape[0]):
        out[b] = np.partition(S[b], -k, axis=1)[:, -k:].mean(axis=1, dtype=np.float64)
    return out


def csls(S: np.ndarray, k: int) -> np.ndarray:
    """Penalize each similarity by the mean of its row's and column's k best
    values, so matches must stand out from their neighborhoods.

    Overwrites S (when it is a float32 or float64 array) and returns it: the
    float64 penalty means are subtracted one block of rows at a time in
    float64, each entry rounded back to S's precision, so the extra memory
    is O((V1 + V2) * block), not a second matrix."""
    S = _real(S)
    if k < 1 or k > min(S.shape):
        raise ValidationError(f"csls k={k} out of range for {S.shape} matrix")
    row_pen = _topk_mean(S, k)
    col_pen = _topk_mean(S.T, k)
    for b in _blocks(S.shape[0]):
        S[b] -= (row_pen[b, None] + col_pen[None, :]) / 2.0
    return S


def objective(S: np.ndarray) -> float:
    """Mean over rows of the best similarity in each row, taken in float64."""
    return float(np.mean(np.max(S, axis=1), dtype=np.float64))


@dataclass
class MatchState:
    """Paired index sequences: s[i] in V1 corresponds to t[i] in V2."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=np.int64)
        if self.s.shape != self.t.shape or self.s.size < 1:
            raise ValidationError("s and t must be nonempty and the same length")


def match_bidirectional(S: np.ndarray) -> MatchState:
    """Forward argmax per row plus backward argmax per column; always emits
    rows + cols pairs, ties resolved to the lowest index. Matched from CSLS
    scores, the forward half `t[:rows]` translates each source word."""
    S = np.asarray(S)
    n, m = S.shape
    fwd = S.argmax(axis=1)
    # a block of columns at a time: argmax down the columns of the whole
    # matrix would first copy it into column-major order
    bwd = np.concatenate([S[:, b].argmax(axis=0) for b in _blocks(m)])
    s = np.concatenate([np.arange(n), bwd])
    t = np.concatenate([fwd, np.arange(m)])
    return MatchState(s=s, t=t)


# the optional AlignConfig fields each family reads
READS = {
    "cooc": ("assoc", "clip", "drop_r", "dim"),
    "vec": ("dim",),
}


@dataclass(frozen=True)
class AlignConfig:
    """One run's resolved method and tuning; `presets.PRESETS` holds one per
    named method, and `presets.execute_preset` runs it. Both families start
    from window counts: `family` "cooc" matches association columns of the
    counts (`run_staged`), and "vec" rotates the counts' `dim`-dimensional
    SVD vectors (`run_vecmap`). Every run reads `preset` (the name in
    reports and errors), `seed_mode` ("unsupervised" or "dictionary"),
    `csls_k`, `max_iters` and `tol`.
    `READS` says which families read `assoc` (a `CONSTRUCTOR_CHAINS` key; it
    sets `metric`), `clip` (lo, hi percentiles), `drop_r` (stage 2's
    head-drop rank, `drop_schedule`; None: no stage 2) and `dim` (rank
    truncation or SVD width, at most the smaller vocabulary; "vec" needs
    it). A field set off its default where its family does not read it, or
    any value not named here, is a ValidationError.
    """

    preset: str = "coocmap"
    family: str = "cooc"
    assoc: str = "coocmap"
    seed_mode: str = "unsupervised"
    clip: tuple[float, float] | None = None
    drop_r: int | None = None
    dim: int | None = None
    csls_k: int = 10
    max_iters: int = 100
    tol: float = 1e-6

    @property
    def metric(self) -> str:
        """Follows `assoc`: "neg_l1" after unit-l1 rows (rapp, fung), else "cosine"."""
        return "neg_l1" if assoc.CONSTRUCTOR_CHAINS[self.assoc][-1].name == "unit_l1" else "cosine"

    def __post_init__(self):
        for name, value, valid in (
            ("family", self.family, tuple(READS)),
            ("seed_mode", self.seed_mode, ("unsupervised", "dictionary")),
            ("assoc", self.assoc, tuple(assoc.CONSTRUCTOR_CHAINS)),
        ):
            if value not in valid:
                raise ValidationError(f"unknown {name} {value!r}, expected one of {valid}")
        reads = READS[self.family]
        for name in READS["cooc"]:  # a cooc pipeline reads all of them
            value = getattr(self, name)
            if name not in reads and value != getattr(AlignConfig, name):
                raise ValidationError(f"preset {self.preset} does not read {name} (given {value})")
        if self.family == "vec" and self.dim is None:
            raise ValidationError(f"preset {self.preset} needs dim, its SVD vector dimension")
        # tol is written to the report as JSON, where neither NaN nor inf is a number
        if self.csls_k < 1 or self.max_iters < 1 or not 0 <= self.tol < math.inf:
            raise ValidationError("csls_k and max_iters must be >= 1, tol >= 0 and finite")
        if (self.dim is not None and self.dim < 1) or (self.drop_r is not None and self.drop_r < 0):
            raise ValidationError(f"need dim >= 1, drop_r >= 0, got {self.dim}, {self.drop_r}")
        if self.clip is not None:
            check_percentiles(*self.clip)

    def check_fits(self, words: int, limit: str) -> None:
        """Reject a `dim` or `csls_k` above `words`, the most words a side
        holds, as `limit` names it: each is a size of both sides' matrices."""
        for name in ("dim", "csls_k"):
            value = getattr(self, name)
            if value is not None and value > words:
                raise ValidationError(f"{name}={value} exceeds {limit}")


def _profile(A: np.ndarray, width: int) -> np.ndarray:
    """A's rows sorted ascending, cut to `width`, normalized in that buffer:
    float32 for a float32 A, float64 otherwise."""
    R = np.sort(_real(A), axis=1)
    return _normalize_inplace(np.ascontiguousarray(R[:, :width]))


def unsupervised_init(X: np.ndarray, Z: np.ndarray, cfg: AlignConfig) -> MatchState:
    """Seed correspondence from per-row sorted association profiles.

    The profiles are normalized in their own sort buffers, so the extra
    memory is the two profiles and one V1 x V2 similarity matrix: for float32
    associations, all three are float32.

    The sorted profiles are alike, and their CSLS scores can tie to within
    1e-7 (at V=5000 a third of the rows are within 1.2e-3, a float32 GEMM's
    error bound), so the cosines are float64 products rounded once into
    float32 (`sim_matrix`). Precision (derived as in
    `kernels.pair_sim_matrix`): the unit profile rows of width w put each
    stored cosine within d = 2**-24 + (w + 2) * 2**-53 of its exact value;
    each top-k mean moves by at most d, and rounding a CSLS score (|score|
    <= 2) into float32 adds at most 2**-23, so each score lies within
    e = 2 d + 2**-23 of the float64 one. Every match whose float64 score
    clears the next best by more than 2 e is the float64 product's."""
    # unequal widths: keep the low/middle quantiles of the sorted rows
    width = min(X.shape[1], Z.shape[1])
    Rx, Rz = _profile(X, width), _profile(Z, width)
    # normalize leaves unit rows, so their dot products are the cosines
    S = sim_matrix(Rx, Rz, "dot" if cfg.metric == "cosine" else cfg.metric)
    return match_bidirectional(csls(check_finite(S, "initial"), cfg.csls_k))


def _selflearn(measure, init: MatchState, cfg: AlignConfig, translate: bool = True):
    """Alternate measuring similarities under (s, t) and re-matching until
    the objective rises by less than `tol`, at most `max_iters` times.

    The loop keeps its history, the matches made (from `init` on) and the
    objective trace, and one rule reads it: the best state is the match made
    from the first highest objective, and its translation is the forward
    half of the next match if one was made. Otherwise, only when `translate`
    is set (False: a stage the next one refines), the loop measures once
    more under the best state; else the translation is None. The history
    costs 16 (V1 + V2) bytes per iteration: 4.8 MB at V=1500, `max_iters` 100.
    """
    history = [init]
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        S = check_finite(measure(history[-1].s, history[-1].t), "self-learning")
        rows = S.shape[0]
        trace.append(objective(S))
        history.append(match_bidirectional(csls(S, cfg.csls_k)))
        del S  # csls overwrote it; free it before the next measure
        if len(trace) > 1 and trace[-1] - trace[-2] < cfg.tol:
            break
    i = int(np.argmax(trace)) + 1  # every objective is finite: measures are checked
    best = history[i]
    if i + 1 < len(history):
        targets = history[i + 1].t[:rows]
    elif translate:
        S = check_finite(measure(best.s, best.t), "translation")
        targets = csls(S, cfg.csls_k).argmax(axis=1)
    else:
        targets = None
    return best, trace, targets


def vec_measure(Xv: np.ndarray, Zv: np.ndarray):
    """Solve an orthogonal map on the pairs (s, t) of unit vectors, then take
    the cosine similarity of the mapped source vectors to the targets."""
    Xn = normalize(Xv)
    Zn = normalize(Zv)

    def measure(s, t):
        W = procrustes(Xn[s], Zn[t])
        return sim_matrix(Xn @ W, Zn, "cosine")

    return measure


def coocmap_selflearn(
    X: np.ndarray, Z: np.ndarray, init: MatchState, cfg: AlignConfig, translate: bool = True
):
    """Self-learning on association columns: the measure under pairs (s, t)
    is the similarity of X[:, s] and Z[:, t] (`pair_sim_matrix`)."""
    return _selflearn(lambda s, t: pair_sim_matrix(X, Z, s, t, cfg.metric), init, cfg, translate)


def drop_schedule(drop_r: int, dim: int | None) -> int:
    """Drop fewer head directions when the matrix is truncated to low rank."""
    if dim is None:
        return drop_r
    return min(drop_r, math.ceil(drop_r * dim / 400))


@dataclass(frozen=True)
class PipelineRun:
    """The final correspondence, each stage's objective trace, and `targets`:
    the translation, one target id per source word, the CSLS row argmax of
    the last stage's self-learning measure under the final pairs."""

    state: MatchState
    traces: list[list[float]]
    targets: np.ndarray


def stage_steps(cfg: AlignConfig) -> tuple[list[Step], list[list[Step]]]:
    """(head, stages): the rank truncation each side takes once, if `dim` is
    set, and each stage's steps after it: stage 1 clips, if `clip` is set,
    and stage 2, if `drop_r` is set, drops the head (`drop_schedule`), then
    clips."""
    head = [] if cfg.dim is None else [Step("trunc", (cfg.dim,))]
    clip = [] if cfg.clip is None else [Step("clip", cfg.clip)]
    stages = [clip]
    if cfg.drop_r is not None:
        stages.append([Step("drop", (drop_schedule(cfg.drop_r, cfg.dim),)), *clip])
    return head, stages


def run_staged(
    A1: np.ndarray,
    A2: np.ndarray,
    cfg: AlignConfig,
    seed: MatchState | None = None,
) -> PipelineRun:
    """Stage 1: self-learn on the (optionally clipped) association matrices,
    starting from the sorted-row initializer or a supplied seed. Stage 2, if
    `drop_r` is set: rebuild with head-drop plus clip, re-learn from stage 1.
    The stages run in one loop, and only the last one translates.

    With (head, stages) = `stage_steps(cfg)`, each side takes `head` once,
    and each stage's data equals `assoc.apply_pipeline(assoc.apply_pipeline(A,
    head), steps)`: the truncation is rounded to float32 on its own, and with
    no `head` the inner call returns the float32 A itself.

    Memory, in V^2 float64 units (8 B) beyond the caller's counts, for
    float32 counts and associations: A1 and A2 (0.5 each), and X and Z
    (0.5 each) where a stage's steps make new matrices. Each
    `assoc.apply_pipeline` call of stage steps adds at most 2 beside its
    float32 input (a stage-1 clip 1.5: its float64 copy beside the float32
    result). The initializer adds two float32 sorted profiles and their
    float32 similarity matrix (1.5), a cosine measure 1.5 with its float32
    product (`pair_sim_matrix`), and csls, matching, normalization and
    product blocks of about 256 lanes. With no stage-1 steps the
    initializer sets the peak, 2.5 V^2 plus its product's float64 blocks
    (tracemalloc: 2.86 V^2 at V=1500 and 3.06 V^2 at V=1000); building A2
    beside A1 reaches 2.5 plus two blocks, and the measure 2.5. With a
    stage-1 clip (coocmap-drop) the initializer and the measure run beside
    X and Z as well, 3.5 plus blocks, and the initializer still sets the
    peak: stage 1's X and Z are freed before stage 2 builds its own, so
    stage 2's second side is built beside A1, A2 and its X, 1.5 + 2
    (tracemalloc at V=1000: 4.06 V^2).
    """
    head, stages = stage_steps(cfg)
    A1 = assoc.apply_pipeline(A1, head)
    A2 = assoc.apply_pipeline(A2, head)
    state, traces = seed, []
    for i, steps in enumerate(stages, start=1):
        X = assoc.apply_pipeline(A1, steps)
        Z = assoc.apply_pipeline(A2, steps)
        if state is None:
            state = unsupervised_init(X, Z, cfg)
        state, trace, targets = coocmap_selflearn(X, Z, state, cfg, translate=i == len(stages))
        traces.append(trace)
        del X, Z  # the next stage builds its own matrices from A1 and A2
    return PipelineRun(state, traces, targets)


def run_vecmap(
    Xv: np.ndarray, Zv: np.ndarray, cfg: AlignConfig, seed: MatchState | None = None
) -> PipelineRun:
    """Vector-space pipeline: gram-sqrt initializer, then self-learning in
    vector space (`vec_measure`): re-match by cosine similarity of the
    vectors mapped under the current pairs."""
    if seed is None:
        seed = unsupervised_init(psd_sqrt_gram(Xv), psd_sqrt_gram(Zv), cfg)
    s, t = seed.s, seed.t
    if min(s.min(), t.min()) < 0 or s.max() >= Xv.shape[0] or t.max() >= Zv.shape[0]:
        raise ValidationError("initial match indices out of range")
    state, trace, targets = _selflearn(vec_measure(Xv, Zv), seed, cfg)
    return PipelineRun(state, [trace], targets)
