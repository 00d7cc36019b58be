"""Alignment engine: CSLS, bidirectional matching, the self-learning loops,
and the staged clip/drop pipeline driver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import assoc
from .assoc import Step
from .cooc import CoocMatrix
from .errors import ValidationError
from .kernels import (
    check_finite,
    normalize,
    pair_sim_matrix,
    procrustes,
    psd_sqrt_gram,
    sim_matrix,
)

# mean of the k largest entries per row


def _topk_mean(S: np.ndarray, k: int) -> np.ndarray:
    if k == S.shape[1]:
        return S.mean(axis=1)
    return np.partition(S, -k, axis=1)[:, -k:].mean(axis=1)


def csls(S: np.ndarray, k: int) -> np.ndarray:
    """Penalize each similarity by the mean of its row's and column's k best
    values, so matches must stand out from their neighborhoods."""
    S = np.asarray(S, dtype=np.float64)
    if k < 1 or k > min(S.shape):
        raise ValidationError(f"csls k={k} out of range for {S.shape} matrix")
    row_pen = _topk_mean(S, k)
    col_pen = _topk_mean(S.T, k)
    return S - (row_pen[:, None] + col_pen[None, :]) / 2.0


def objective(S: np.ndarray) -> float:
    """Mean over rows of the best similarity in each row."""
    return float(np.mean(np.max(S, axis=1)))


@dataclass
class MatchState:
    """Paired index sequences: s[i] in V1 corresponds to t[i] in V2."""

    s: np.ndarray
    t: np.ndarray
    objective: float = 0.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=np.int64)
        if self.s.shape != self.t.shape or self.s.size < 1:
            raise ValidationError("s and t must be nonempty and the same length")


def match_bidirectional(S: np.ndarray) -> MatchState:
    """Forward argmax per row plus backward argmax per column; always emits
    rows + cols pairs, ties resolved to the lowest index. The objective is
    left to the caller, which scores the raw similarities, not these."""
    S = np.asarray(S)
    n, m = S.shape
    fwd = S.argmax(axis=1)
    bwd = S.argmax(axis=0)
    s = np.concatenate([np.arange(n), bwd])
    t = np.concatenate([fwd, np.arange(m)])
    return MatchState(s=s, t=t)


@dataclass(frozen=True)
class AlignConfig:
    """One run's resolved method and tuning; `presets.PRESETS` holds one per
    named method. `family` "cooc" matches association columns (`run_staged`)
    and "vec" rotates vectors (`run_vecmap`). Both read `preset` (the name
    in reports and errors), `vectors` (None: counts are the input; "import":
    given vectors; "svd": `dim`-dimensional SVD vectors of the counts),
    `seed_mode` ("unsupervised" or "dictionary"), `metric` (initializer and
    cooc measure), `csls_k`, `max_iters` and `tol`. Only cooc reads `assoc`
    (the `assoc.build` constructor of the counts), `clip` (lo, hi
    percentiles) and `drop_r` (None: no stage 2). `dim` truncates the cooc
    association's rank; vec reads it only with "svd" vectors. Stage 2
    rebuilds each side as the truncation, a drop of
    `drop_schedule(drop_r, dim)` head directions and `clip` again.
    """

    preset: str = "coocmap"
    family: str = "cooc"
    assoc: str = "coocmap"
    vectors: str | None = None
    seed_mode: str = "unsupervised"
    metric: str = "cosine"
    clip: tuple[float, float] | None = None
    drop_r: int | None = None
    dim: int | None = None
    csls_k: int = 10
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if self.csls_k < 1 or self.max_iters < 1 or self.tol < 0:
            raise ValidationError("csls_k and max_iters must be >= 1, tol >= 0")


def _matrix_data(X) -> np.ndarray:
    return np.asarray(getattr(X, "data", X), dtype=np.float64)


def unsupervised_init(X, Z, cfg: AlignConfig) -> MatchState:
    """Seed correspondence from per-row sorted association profiles."""
    Xd, Zd = _matrix_data(X), _matrix_data(Z)
    width = min(Xd.shape[1], Zd.shape[1])
    # unequal widths: keep the low/middle quantiles of the sorted rows
    Rx = np.sort(Xd, axis=1)[:, :width]
    Rz = np.sort(Zd, axis=1)[:, :width]
    S = check_finite(sim_matrix(normalize(Rx), normalize(Rz), cfg.metric), "initial")
    state = match_bidirectional(csls(S, cfg.csls_k))
    state.objective = objective(S)
    return state


def _selflearn(measure, init: MatchState, cfg: AlignConfig):
    """Alternate measuring similarities under (s, t) and re-matching until the
    objective stops improving; returns the best state seen and the trace."""
    s, t = init.s, init.t
    best: MatchState | None = None
    prev = None
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        S = check_finite(measure(s, t), "self-learning")
        obj = objective(S)
        state = match_bidirectional(csls(S, cfg.csls_k))
        state.objective = obj
        s, t = state.s, state.t
        trace.append(obj)
        if best is None or obj > best.objective:
            best = state
        if prev is not None and obj - prev < cfg.tol:
            break
        prev = obj
    assert best is not None
    return best, trace


Measure = Callable[[np.ndarray, np.ndarray], np.ndarray]


def cooc_measure(X, Z, metric: str) -> Measure:
    """Similarity of association columns under pairs (s, t): X[:, s] vs Z[:, t]."""
    Xd, Zd = _matrix_data(X), _matrix_data(Z)
    return lambda s, t: pair_sim_matrix(Xd, Zd, s, t, metric)


def vec_measure(Xv, Zv) -> Measure:
    """Solve an orthogonal map on the pairs (s, t) of unit vectors, then take
    the cosine similarity of the mapped source vectors to the targets."""
    Xn = normalize(_matrix_data(Xv))
    Zn = normalize(_matrix_data(Zv))

    def measure(s, t):
        W = procrustes(Xn[s], Zn[t])
        return sim_matrix(Xn @ W, Zn, "cosine")

    return measure


def coocmap_selflearn(X, Z, init: MatchState, cfg: AlignConfig):
    """Self-learning on association columns (`cooc_measure`)."""
    return _selflearn(cooc_measure(X, Z, cfg.metric), init, cfg)


def vecmap_selflearn(Xv, Zv, init: MatchState, cfg: AlignConfig):
    """Self-learning in vector space (`vec_measure`): re-match by cosine
    similarity of the vectors mapped under the current pairs."""
    Xd, Zd = _matrix_data(Xv), _matrix_data(Zv)
    if init.s.max() >= Xd.shape[0] or init.t.max() >= Zd.shape[0]:
        raise ValidationError("initial match indices out of range")
    return _selflearn(vec_measure(Xd, Zd), init, cfg)


def drop_schedule(drop_r: int, dim: int | None) -> int:
    """Drop fewer head directions when the matrix is truncated to low rank."""
    if dim is None:
        return drop_r
    return min(drop_r, math.ceil(drop_r * dim / 400))


@dataclass(frozen=True)
class PipelineRun:
    """The final correspondence, each stage's objective trace, and the last
    stage's self-learning measure: `measure(s, t)` is the V1 x V2 similarity
    under the pairs (s, t), the measurement translation ranks."""

    state: MatchState
    traces: list[list[float]]
    measure: Measure


def _trunc_steps(cfg: AlignConfig) -> list[Step]:
    """The rank truncation both stages start from, if `dim` is set."""
    return [] if cfg.dim is None else [Step("trunc", (cfg.dim,))]


def _stage_tail(cfg: AlignConfig, stage2: bool) -> list[Step]:
    """A stage's steps after the truncation: clip, after a head-drop in stage 2."""
    steps = [Step("drop", (drop_schedule(cfg.drop_r, cfg.dim),))] if stage2 else []
    if cfg.clip is not None:
        steps.append(Step("clip", cfg.clip))
    return steps


def stage_steps(cfg: AlignConfig, stage2: bool) -> list[Step]:
    """Pipeline steps appended to the association constructor for a stage."""
    return _trunc_steps(cfg) + _stage_tail(cfg, stage2)


def run_staged(
    A1: "assoc.AssocMatrix",
    A2: "assoc.AssocMatrix",
    cfg: AlignConfig,
    seed: MatchState | None = None,
) -> PipelineRun:
    """Stage 1: self-learn on the (optionally clipped) association matrices,
    starting from the sorted-row initializer or a supplied seed. Stage 2, if
    `drop_r` is set: rebuild with head-drop plus clip, re-learn from stage 1.

    Each side is truncated once; both stages apply their own steps to that
    matrix, so every stage's data and chain equal
    `assoc.apply_pipeline(A, stage_steps(cfg, stage2))`."""
    A1 = assoc.apply_pipeline(A1, _trunc_steps(cfg))
    A2 = assoc.apply_pipeline(A2, _trunc_steps(cfg))
    X = assoc.apply_pipeline(A1, _stage_tail(cfg, stage2=False))
    Z = assoc.apply_pipeline(A2, _stage_tail(cfg, stage2=False))
    init = seed if seed is not None else unsupervised_init(X, Z, cfg)
    state, trace1 = coocmap_selflearn(X, Z, init, cfg)
    traces = [trace1]
    if cfg.drop_r is not None:
        X = assoc.apply_pipeline(A1, _stage_tail(cfg, stage2=True))
        Z = assoc.apply_pipeline(A2, _stage_tail(cfg, stage2=True))
        state, trace2 = coocmap_selflearn(X, Z, state, cfg)
        traces.append(trace2)
    return PipelineRun(state, traces, cooc_measure(X, Z, cfg.metric))


def run_coocmap(
    C1: CoocMatrix,
    C2: CoocMatrix,
    cfg: AlignConfig,
    seed: MatchState | None = None,
) -> PipelineRun:
    """Full pipeline from raw counts via the config's association constructor."""
    return run_staged(assoc.build(cfg.assoc, C1), assoc.build(cfg.assoc, C2), cfg, seed)


def run_vecmap(Xv, Zv, cfg: AlignConfig, seed: MatchState | None = None) -> PipelineRun:
    """Vector-space pipeline: gram-sqrt initializer, then Procrustes loop."""
    Xd, Zd = _matrix_data(Xv), _matrix_data(Zv)
    if seed is None:
        seed = unsupervised_init(psd_sqrt_gram(Xd), psd_sqrt_gram(Zd), cfg)
    state, trace = vecmap_selflearn(Xd, Zd, seed, cfg)
    return PipelineRun(state, [trace], vec_measure(Xd, Zd))
