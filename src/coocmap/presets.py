"""Named pipeline presets: the single source of truth for what each method
runs, one entry per method. A run is its preset with the fields its caller
set (`align_config`), so a point of a method's parameters is an override,
not a preset: `induce --preset coocmap-clip --clip 1.5,98.5`."""

from __future__ import annotations

from dataclasses import replace

from . import assoc
from .align import AlignConfig, MatchState, PipelineRun, run_staged, run_vecmap
from .cooc import CoocMatrix
from .errors import ValidationError

# the clip percentiles (lo, hi) of coocmap-clip and coocmap-drop
CLIP = (1.0, 99.0)

PRESETS = {
    cfg.preset: cfg
    for cfg in [
        AlignConfig("coocmap"),
        AlignConfig("coocmap-clip", clip=CLIP),
        AlignConfig("coocmap-drop", clip=CLIP, drop_r=20),
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


def align_config(preset: AlignConfig, **overrides) -> AlignConfig:
    """The preset with each override that is not None: the one rule of every
    entry point. `AlignConfig` checks the result, so a field its preset's
    family does not read raises ValidationError."""
    return replace(preset, **{k: v for k, v in overrides.items() if v is not None})


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
