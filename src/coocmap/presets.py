"""Named pipeline presets: the single source of truth for what each method
runs, overridable flag by flag from the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .align import (
    AlignConfig,
    MatchState,
    PipelineRun,
    Stage2Config,
    run_coocmap,
    run_staged,
    run_vecmap,
)
from .assoc import WordVectors, assoc_from_vectors, svd_vectors
from .cooc import CoocMatrix
from .errors import ValidationError


@dataclass(frozen=True)
class Preset:
    name: str
    family: str  # "cooc" (match association columns) or "vec" (rotate vectors)
    assoc: str = "coocmap"  # association constructor for the cooc family
    metric: str = "cosine"
    clip: tuple[float, float] | None = None
    stage2: Stage2Config | None = None
    seed_mode: str = "unsupervised"  # or "dictionary"
    vectors: str | None = None  # "svd" | "import" when vectors are the input
    default_dim: int | None = None


PRESETS = {
    p.name: p
    for p in [
        Preset("coocmap", "cooc"),
        Preset("coocmap-clip", "cooc", clip=(1.0, 99.0)),
        Preset("coocmap-clip-1.5", "cooc", clip=(1.5, 98.5)),
        Preset(
            "coocmap-drop",
            "cooc",
            clip=(1.0, 99.0),
            stage2=Stage2Config(drop_r=20, clip=(1.0, 99.0)),
        ),
        Preset(
            "coocmap-drop-1.5",
            "cooc",
            clip=(1.5, 98.5),
            stage2=Stage2Config(drop_r=20, clip=(1.5, 98.5)),
        ),
        Preset("dict-init", "cooc", seed_mode="dictionary"),
        Preset("log1p", "cooc", assoc="log1p"),
        Preset("rapp", "cooc", assoc="rapp", metric="neg_l1"),
        Preset("fung", "cooc", assoc="fung", metric="neg_l1"),
        Preset("ppmi", "cooc", assoc="ppmi"),
        Preset("glove", "cooc", assoc="glove"),
        Preset("coocmap-vectors", "cooc", vectors="import"),
        Preset("coocmap-vectors-clip", "cooc", vectors="import", clip=(1.0, 99.0)),
        Preset("vecmap-raw", "vec", vectors="svd", default_dim=300),
        Preset("vecmap-vectors", "vec", vectors="import"),
    ]
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}, expected one of {sorted(PRESETS)}"
        ) from None


def align_config(
    preset: Preset,
    csls_k: int = AlignConfig.csls_k,
    max_iters: int = AlignConfig.max_iters,
    tol: float = AlignConfig.tol,
    dim: int | None = None,
    clip_lo: float | None = None,
    clip_hi: float | None = None,
    drop_r: int | None = None,
) -> AlignConfig:
    """Resolve a preset plus per-flag overrides into an AlignConfig."""
    clip = preset.clip
    if clip_lo is not None or clip_hi is not None:
        base = clip if clip is not None else (1.0, 99.0)
        clip = (clip_lo if clip_lo is not None else base[0],
                clip_hi if clip_hi is not None else base[1])
    stage2 = preset.stage2
    if stage2 is not None and (drop_r is not None or clip != preset.clip):
        stage2 = Stage2Config(
            drop_r=drop_r if drop_r is not None else stage2.drop_r,
            clip=clip if clip is not None else stage2.clip,
        )
    if preset.family == "vec" and dim is None:
        dim = preset.default_dim
    return AlignConfig(
        csls_k=csls_k,
        max_iters=max_iters,
        tol=tol,
        metric=preset.metric,
        clip=clip,
        stage2=stage2,
        dim=dim,
    )


def execute_preset(
    preset: Preset,
    cfg: AlignConfig,
    C1: CoocMatrix | None = None,
    C2: CoocMatrix | None = None,
    vectors1: WordVectors | None = None,
    vectors2: WordVectors | None = None,
    seed: MatchState | None = None,
) -> PipelineRun:
    """Dispatch a preset to its pipeline given counts and/or vectors."""
    if preset.vectors == "import":
        if vectors1 is None or vectors2 is None:
            raise ValidationError(f"preset {preset.name} needs vectors on both sides")
    elif C1 is None or C2 is None:
        raise ValidationError(f"preset {preset.name} needs co-occurrence counts")
    if preset.vectors == "svd" and cfg.dim is None:
        raise ValidationError(f"preset {preset.name} needs dim, its SVD vector dimension")
    if preset.vectors == "import":
        v1, v2 = vectors1.data.shape[0], vectors2.data.shape[0]
    else:
        v1, v2 = C1.counts.shape[0], C2.counts.shape[0]
    if cfg.csls_k > min(v1, v2):
        # every similarity matrix is V1 x V2: fail before building anything
        raise ValidationError(
            f"csls_k={cfg.csls_k} exceeds the smaller vocabulary "
            f"(source {v1}, target {v2} words)"
        )

    if preset.family == "vec":
        if preset.vectors == "svd":
            vectors1 = svd_vectors(C1, cfg.dim)
            vectors2 = svd_vectors(C2, cfg.dim)
        return run_vecmap(vectors1, vectors2, cfg, seed)
    if preset.vectors == "import":
        return run_staged(
            assoc_from_vectors(vectors1), assoc_from_vectors(vectors2), cfg, seed
        )
    return run_coocmap(C1, C2, cfg, seed, assoc_name=preset.assoc)
