"""Named pipeline presets: the single source of truth for what each method
runs, overridable flag by flag from the CLI."""

from __future__ import annotations

from dataclasses import replace

from . import assoc
from .align import AlignConfig, MatchState, PipelineRun, run_staged, run_vecmap
from .cooc import CoocMatrix
from .errors import ValidationError

# the default clip percentiles (lo, hi)
CLIP = (1.0, 99.0)

PRESETS = {
    cfg.preset: cfg
    for cfg in [
        AlignConfig("coocmap"),
        AlignConfig("coocmap-clip", clip=CLIP),
        AlignConfig("coocmap-clip-1.5", clip=(1.5, 98.5)),
        AlignConfig("coocmap-drop", clip=CLIP, drop_r=20),
        AlignConfig("coocmap-drop-1.5", clip=(1.5, 98.5), drop_r=20),
        AlignConfig("dict-init", seed_mode="dictionary"),
        AlignConfig("log1p", assoc="log1p"),
        AlignConfig("rapp", assoc="rapp"),
        AlignConfig("fung", assoc="fung"),
        AlignConfig("ppmi", assoc="ppmi"),
        AlignConfig("glove", assoc="glove"),
        AlignConfig("vecmap-raw", "vec", dim=300),
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
    """A preset with per-flag overrides; None keeps the preset's value. Beyond
    `AlignConfig`'s own check of the fields a run reads, two rules hold: a
    clip bound given to a preset without clipping turns clipping on, the
    other bound from `CLIP`, and `drop_r` given to a preset without a stage
    2 raises ValidationError."""
    if drop_r is not None and preset.drop_r is None:
        raise ValidationError(f"preset {preset.preset} does not read drop_r (given {drop_r})")
    clip = preset.clip
    if clip_lo is not None or clip_hi is not None:
        lo, hi = clip if clip is not None else CLIP
        clip = (lo if clip_lo is None else clip_lo, hi if clip_hi is None else clip_hi)
    given = {"csls_k": csls_k, "max_iters": max_iters, "tol": tol, "dim": dim, "drop_r": drop_r}
    return replace(preset, clip=clip, **{k: v for k, v in given.items() if v is not None})


def execute_preset(
    cfg: AlignConfig, C1: CoocMatrix, C2: CoocMatrix, seed: MatchState | None = None
) -> PipelineRun:
    """Run a resolved config on the two sides' counts once its sizes fit the
    smaller side (`AlignConfig.check_fits`): "vec" aligns the counts' SVD
    vectors (`align.run_vecmap`), and "cooc" builds each side's association
    through `cfg.assoc`'s chain and aligns them in stages (`run_staged`)."""
    v1, v2 = C1.size, C2.size
    cfg.check_fits(min(v1, v2), f"the smaller vocabulary (source {v1}, target {v2} words)")
    if cfg.family == "vec":
        return run_vecmap(assoc.svd_vectors(C1, cfg.dim), assoc.svd_vectors(C2, cfg.dim), cfg, seed)
    # looked up on assoc, where perfbench/spans.py rebinds build to time it
    return run_staged(assoc.build(cfg.assoc, C1), assoc.build(cfg.assoc, C2), cfg, seed)
