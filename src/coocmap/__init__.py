"""Unsupervised word translation from raw co-occurrence statistics."""

import os as _os

# Cap BLAS threads before numpy loads so COOCMAP_THREADS actually applies.
_threads = _os.environ.get("COOCMAP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .align import (  # noqa: E402
    AlignConfig,
    MatchState,
    PipelineRun,
    csls,
    match_bidirectional,
    objective,
    run_coocmap,
    run_staged,
    run_vecmap,
    unsupervised_init,
    coocmap_selflearn,
    vecmap_selflearn,
)
from .assoc import (  # noqa: E402
    Step,
    apply_pipeline,
    assoc_from_vectors,
    load_vectors,
    save_vectors,
    svd_vectors,
)
from .bench import (  # noqa: E402
    BenchConfig,
    RunReport,
    SweepSpec,
    cipher_bench,
    run_sweep,
    split_identity_bench,
)
from .cooc import CoocMatrix, count_cooc, load_cooc, permute_cooc, save_cooc  # noqa: E402
from .corpus import (  # noqa: E402
    EncodedCorpus,
    Vocabulary,
    build_vocab,
    encode,
    take_head_bytes,
    tokenize,
)
from .errors import IntegrityError, NumericError, ValidationError  # noqa: E402
from .evaluation import (  # noqa: E402
    Dictionary,
    Predictions,
    clip_diff_report,
    load_dictionary,
    precision_at_1,
    translate,
)
from .kernels import (  # noqa: E402
    SvdFactors,
    centerc,
    clip,
    clip_thresholds,
    drop_head,
    epow,
    normalize,
    pair_sim_matrix,
    procrustes,
    psd_sqrt_gram,
    sim_matrix,
    svd,
    trunc,
    unitr,
)
from .presets import PRESETS, align_config, execute_preset, get_preset  # noqa: E402
