"""Named pipeline presets: the single source of truth for what each method
runs, overridable flag by flag from the CLI."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .align import (
    AlignConfig,
    MatchState,
    PipelineRun,
    run_coocmap,
    run_staged,
    run_vecmap,
)
from .assoc import assoc_from_vectors, svd_vectors
from .cooc import CoocMatrix
from .errors import ValidationError

PRESETS = {
    cfg.preset: cfg
    for cfg in [
        AlignConfig("coocmap"),
        AlignConfig("coocmap-clip", clip=(1.0, 99.0)),
        AlignConfig("coocmap-clip-1.5", clip=(1.5, 98.5)),
        AlignConfig("coocmap-drop", clip=(1.0, 99.0), drop_r=20),
        AlignConfig("coocmap-drop-1.5", clip=(1.5, 98.5), drop_r=20),
        AlignConfig("dict-init", seed_mode="dictionary"),
        AlignConfig("log1p", assoc="log1p"),
        AlignConfig("rapp", assoc="rapp", metric="neg_l1"),
        AlignConfig("fung", assoc="fung", metric="neg_l1"),
        AlignConfig("ppmi", assoc="ppmi"),
        AlignConfig("glove", assoc="glove"),
        AlignConfig("coocmap-vectors", vectors="import"),
        AlignConfig("coocmap-vectors-clip", vectors="import", clip=(1.0, 99.0)),
        AlignConfig("vecmap-raw", "vec", vectors="svd", dim=300),
        AlignConfig("vecmap-vectors", "vec", vectors="import"),
    ]
}


def get_preset(name: str) -> AlignConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}, expected one of {sorted(PRESETS)}"
        ) from None


def align_config(
    preset: AlignConfig,
    *,
    csls_k: int | None = None,
    max_iters: int | None = None,
    tol: float | None = None,
    dim: int | None = None,
    clip_lo: float | None = None,
    clip_hi: float | None = None,
    drop_r: int | None = None,
) -> AlignConfig:
    """A preset with per-flag overrides; None keeps the preset's value. A
    clip bound given to a preset without clipping turns clipping on, the
    other bound from (1.0, 99.0). A flag the preset's pipeline would not read
    raises ValidationError: `drop_r` without a stage 2, any clip or drop flag
    in the vec family, and `dim` with imported vectors in the vec family."""
    unread = {"drop_r": drop_r} if preset.drop_r is None else {}
    if preset.family == "vec":
        unread = {"clip_lo": clip_lo, "clip_hi": clip_hi, "drop_r": drop_r,
                  "dim": dim if preset.vectors == "import" else None}
    for flag, value in unread.items():
        if value is not None:
            raise ValidationError(f"preset {preset.preset} does not read {flag} (given {value})")
    clip = preset.clip
    if clip_lo is not None or clip_hi is not None:
        lo, hi = clip if clip is not None else (1.0, 99.0)
        clip = (lo if clip_lo is None else clip_lo, hi if clip_hi is None else clip_hi)
    given = {"csls_k": csls_k, "max_iters": max_iters, "tol": tol, "dim": dim, "drop_r": drop_r}
    return replace(preset, clip=clip, **{k: v for k, v in given.items() if v is not None})


def execute_preset(
    cfg: AlignConfig,
    C1: CoocMatrix | None = None,
    C2: CoocMatrix | None = None,
    vectors1: np.ndarray | None = None,
    vectors2: np.ndarray | None = None,
    seed: MatchState | None = None,
) -> PipelineRun:
    """Dispatch a resolved config to its pipeline given counts and/or vectors."""
    if cfg.vectors == "import":
        if vectors1 is None or vectors2 is None:
            raise ValidationError(f"preset {cfg.preset} needs vectors on both sides")
    elif C1 is None or C2 is None:
        raise ValidationError(f"preset {cfg.preset} needs co-occurrence counts")
    if cfg.vectors == "svd" and cfg.dim is None:
        raise ValidationError(f"preset {cfg.preset} needs dim, its SVD vector dimension")
    if cfg.vectors == "import":
        v1, v2 = vectors1.shape[0], vectors2.shape[0]
    else:
        v1, v2 = C1.counts.shape[0], C2.counts.shape[0]
    # every similarity matrix is V1 x V2, and `dim` is a rank or a vector
    # width of both sides: fail before building anything
    sizes = f"the smaller vocabulary (source {v1}, target {v2} words)"
    if cfg.csls_k > min(v1, v2):
        raise ValidationError(f"csls_k={cfg.csls_k} exceeds {sizes}")
    if cfg.dim is not None and cfg.dim > min(v1, v2):
        raise ValidationError(f"dim={cfg.dim} exceeds {sizes}")
    if cfg.family == "vec" and cfg.vectors == "import" and vectors1.shape[1] != vectors2.shape[1]:
        raise ValidationError(
            f"preset {cfg.preset} needs vectors of one width, got source "
            f"{vectors1.shape[1]} and target {vectors2.shape[1]}"
        )

    if cfg.family == "vec":
        if cfg.vectors == "svd":
            vectors1 = svd_vectors(C1, cfg.dim)
            vectors2 = svd_vectors(C2, cfg.dim)
        return run_vecmap(vectors1, vectors2, cfg, seed)
    if cfg.vectors == "import":
        return run_staged(
            assoc_from_vectors(vectors1), assoc_from_vectors(vectors2), cfg, seed
        )
    return run_coocmap(C1, C2, cfg, seed)
