from dataclasses import replace

import numpy as np
import pytest

from coocmap.align import Stage2Config, vec_measure
from coocmap.assoc import WordVectors, svd_vectors
from coocmap.cooc import CoocMatrix
from coocmap.errors import ValidationError
from coocmap.presets import PRESETS, align_config, execute_preset, get_preset

# the method names the CLI contract promises
REQUIRED_PRESETS = {
    "dict-init", "coocmap", "coocmap-clip", "coocmap-drop", "coocmap-clip-1.5",
    "coocmap-drop-1.5", "vecmap-raw", "vecmap-vectors", "coocmap-vectors",
    "ppmi", "log1p", "rapp", "fung", "glove",
}


def counts(seed=0, V=12):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 40, size=(V, V)).astype(float)
    return CoocMatrix(M + M.T, 1, "t", 1000)


def test_registry_contains_required_names():
    assert REQUIRED_PRESETS <= set(PRESETS)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        get_preset("cooc-map")


def test_align_config_defaults_per_preset():
    assert align_config(get_preset("coocmap")).clip is None
    assert align_config(get_preset("coocmap-clip")).clip == (1.0, 99.0)
    assert align_config(get_preset("coocmap-clip-1.5")).clip == (1.5, 98.5)
    drop = align_config(get_preset("coocmap-drop"))
    assert drop.stage2 == Stage2Config(drop_r=20, clip=(1.0, 99.0))
    assert align_config(get_preset("vecmap-raw")).dim == 300
    assert align_config(get_preset("rapp")).metric == "neg_l1"
    assert align_config(get_preset("ppmi")).metric == "cosine"


def test_flag_overrides_win():
    cfg = align_config(get_preset("coocmap-drop"), clip_hi=98.0, drop_r=7, csls_k=4)
    assert cfg.clip == (1.0, 98.0)
    assert cfg.stage2.drop_r == 7
    assert cfg.stage2.clip == (1.0, 98.0)
    assert cfg.csls_k == 4
    # clip override on a preset without clip turns it on
    assert align_config(get_preset("coocmap"), clip_lo=2.0).clip == (2.0, 99.0)


def test_vec_dim_flag_overrides_default():
    assert align_config(get_preset("vecmap-raw"), dim=100).dim == 100


def test_execute_vecmap_raw_identity():
    C = counts(1)
    preset = get_preset("vecmap-raw")
    run = execute_preset(preset, align_config(preset, csls_k=3, max_iters=5, dim=6), C, C)
    Xv = svd_vectors(C, 6).data
    s, t = run.state.s, run.state.t
    assert run.measure(s, t).tobytes() == vec_measure(Xv, Xv)(s, t).tobytes()
    n = C.size
    forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
    assert all(forward[i] == i for i in range(n))


def test_execute_import_vector_presets_identity():
    C = counts(2)
    Xv = svd_vectors(C, 6)
    n = C.size
    for name in ("vecmap-vectors", "coocmap-vectors"):
        preset = get_preset(name)
        run = execute_preset(
            preset, align_config(preset, csls_k=3, max_iters=5),
            vectors1=Xv, vectors2=Xv,
        )
        forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
        assert all(forward[i] == i for i in range(n)), name


def test_execute_missing_inputs_rejected():
    C = counts(3)
    with pytest.raises(ValidationError):
        execute_preset(get_preset("vecmap-vectors"), align_config(get_preset("vecmap-vectors")), C, C)
    with pytest.raises(ValidationError):
        execute_preset(get_preset("coocmap"), align_config(get_preset("coocmap")))


@pytest.mark.parametrize("name", ["coocmap-drop", "vecmap-raw", "coocmap-vectors"])
def test_csls_k_beyond_vocabulary_fails_before_any_work(name, monkeypatch):
    import coocmap.presets as presets
    from coocmap import assoc

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the csls_k check")

    monkeypatch.setattr(assoc, "build", no_work)
    for attr in ("svd_vectors", "assoc_from_vectors", "run_staged", "run_vecmap", "run_coocmap"):
        monkeypatch.setattr(presets, attr, no_work)
    preset = get_preset(name)
    C1, C2 = counts(4, V=12), counts(5, V=9)
    v1 = WordVectors(np.ones((12, 3)), "t")
    v2 = WordVectors(np.ones((9, 3)), "t")
    with pytest.raises(ValidationError, match=r"csls_k=10 .*source 12, target 9"):
        execute_preset(preset, align_config(preset, csls_k=10), C1, C2, v1, v2)
    # at the smaller size the check passes and the work starts
    with pytest.raises(AssertionError, match="work started"):
        execute_preset(preset, align_config(preset, csls_k=9), C1, C2, v1, v2)


def test_vecmap_raw_without_dim_names_dim():
    C = counts(6)
    preset = get_preset("vecmap-raw")
    cfg = replace(align_config(preset, csls_k=3), dim=None)
    with pytest.raises(ValidationError, match="needs dim"):
        execute_preset(preset, cfg, C, C)
