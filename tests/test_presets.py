from dataclasses import replace

import numpy as np
import pytest

from coocmap.align import MatchState, vec_measure
from coocmap.assoc import svd_vectors
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
    assert (drop.drop_r, drop.clip) == (20, (1.0, 99.0))
    assert align_config(get_preset("vecmap-raw")).dim == 300
    assert align_config(get_preset("rapp")).metric == "neg_l1"
    assert align_config(get_preset("ppmi")).metric == "cosine"


def test_flag_overrides_win():
    cfg = align_config(get_preset("coocmap-drop"), clip_hi=98.0, drop_r=7, csls_k=4)
    assert cfg.clip == (1.0, 98.0)
    assert cfg.drop_r == 7
    assert cfg.csls_k == 4
    # clip override on a preset without clip turns it on
    assert align_config(get_preset("coocmap"), clip_lo=2.0).clip == (2.0, 99.0)


def test_vec_dim_flag_overrides_default():
    assert align_config(get_preset("vecmap-raw"), dim=100).dim == 100


def test_execute_vecmap_raw_identity():
    C = counts(1)
    run = execute_preset(align_config(get_preset("vecmap-raw"), csls_k=3, max_iters=5, dim=6), C, C)
    Xv = svd_vectors(C, 6)
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
        run = execute_preset(
            align_config(get_preset(name), csls_k=3, max_iters=5), vectors1=Xv, vectors2=Xv
        )
        forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
        assert all(forward[i] == i for i in range(n)), name


def test_execute_missing_inputs_rejected():
    C = counts(3)
    with pytest.raises(ValidationError):
        execute_preset(get_preset("vecmap-vectors"), C, C)
    with pytest.raises(ValidationError):
        execute_preset(get_preset("coocmap"))


def forbid_work(monkeypatch):
    """Make every association, SVD and pipeline entry fail when called."""
    import coocmap.presets as presets
    from coocmap import assoc

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the checks")

    monkeypatch.setattr(assoc, "build", no_work)
    for attr in ("svd_vectors", "assoc_from_vectors", "run_staged", "run_vecmap", "run_coocmap"):
        monkeypatch.setattr(presets, attr, no_work)


@pytest.mark.parametrize("name", ["coocmap-drop", "vecmap-raw", "coocmap-vectors"])
def test_csls_k_beyond_vocabulary_fails_before_any_work(name, monkeypatch):
    forbid_work(monkeypatch)
    preset = get_preset(name)
    if preset.vectors == "svd":
        preset = replace(preset, dim=6)  # the shipped 300 exceeds both vocabularies
    C1, C2 = counts(4, V=12), counts(5, V=9)
    v1, v2 = np.ones((12, 3)), np.ones((9, 3))
    with pytest.raises(ValidationError, match=r"csls_k=10 .*source 12, target 9"):
        execute_preset(align_config(preset, csls_k=10), C1, C2, v1, v2)
    # at the smaller size the check passes and the work starts
    with pytest.raises(AssertionError, match="work started"):
        execute_preset(align_config(preset, csls_k=9), C1, C2, v1, v2)


@pytest.mark.parametrize("name", ["coocmap", "coocmap-drop", "coocmap-vectors", "vecmap-raw"])
def test_dim_beyond_vocabulary_fails_before_any_work(name, monkeypatch):
    forbid_work(monkeypatch)
    C1, C2 = counts(4, V=12), counts(5, V=9)
    v1, v2 = np.ones((12, 3)), np.ones((9, 3))
    with pytest.raises(ValidationError, match=r"dim=10 .*source 12, target 9"):
        execute_preset(align_config(get_preset(name), csls_k=3, dim=10), C1, C2, v1, v2)
    # at the smaller size the check passes and the work starts
    with pytest.raises(AssertionError, match="work started"):
        execute_preset(align_config(get_preset(name), csls_k=3, dim=9), C1, C2, v1, v2)


@pytest.mark.parametrize("name, V1, V2, dim", [
    ("vecmap-raw", 10, 10, 11),
    ("vecmap-raw", 12, 10, 11),
    ("vecmap-raw", 10, 10, 300),  # the shipped dim
    ("coocmap", 12, 10, 50),
])
def test_dim_beyond_vocabulary_rejected(name, V1, V2, dim):
    cfg = align_config(get_preset(name), csls_k=3, max_iters=5, dim=dim)
    with pytest.raises(ValidationError, match=f"dim={dim} exceeds the smaller vocabulary"):
        execute_preset(cfg, counts(9, V=V1), counts(10, V=V2))


def test_vec_import_widths_must_match(monkeypatch):
    cfg = align_config(get_preset("vecmap-vectors"), csls_k=3, max_iters=5)
    v1, v2 = np.ones((12, 3)), np.ones((10, 4))
    forbid_work(monkeypatch)
    with pytest.raises(ValidationError, match="source 3 and target 4"):
        execute_preset(cfg, vectors1=v1, vectors2=v2)


def test_cooc_import_widths_may_differ():
    C1, C2 = counts(11, V=12), counts(12, V=10)
    cfg = align_config(get_preset("coocmap-vectors"), csls_k=3, max_iters=5)
    run = execute_preset(cfg, vectors1=svd_vectors(C1, 6), vectors2=svd_vectors(C2, 4))
    assert set(run.state.s.tolist()) == set(range(12))


def test_vecmap_raw_without_dim_names_dim():
    C = counts(6)
    cfg = replace(align_config(get_preset("vecmap-raw"), csls_k=3), dim=None)
    with pytest.raises(ValidationError, match="needs dim"):
        execute_preset(cfg, C, C)


@pytest.mark.parametrize("name, flag, value", [
    ("coocmap", "drop_r", 5),
    ("coocmap-clip", "drop_r", 5),
    ("vecmap-raw", "clip_lo", 2.0),
    ("vecmap-raw", "clip_hi", 98.0),
    ("vecmap-raw", "drop_r", 5),
    ("vecmap-vectors", "clip_lo", 2.0),
    ("vecmap-vectors", "dim", 50),
])
def test_unread_override_rejected(name, flag, value):
    with pytest.raises(ValidationError, match=f"preset {name} does not read {flag}"):
        align_config(get_preset(name), **{flag: value})


def test_read_overrides_accepted():
    assert align_config(get_preset("coocmap-drop-1.5"), drop_r=5).drop_r == 5
    assert align_config(get_preset("coocmap-vectors"), dim=4, clip_hi=97.0).clip == (1.0, 97.0)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_executes(name):
    cfg = align_config(get_preset(name), csls_k=3, max_iters=5)
    if cfg.vectors == "svd":
        cfg = replace(cfg, dim=6)  # the shipped 300 exceeds both vocabularies
    C1, C2 = counts(7, V=12), counts(8, V=10)
    inputs = {"C1": C1, "C2": C2}
    if cfg.vectors == "import":
        inputs = {"vectors1": svd_vectors(C1, 6), "vectors2": svd_vectors(C2, 6)}
    seed = None
    if cfg.seed_mode == "dictionary":
        seed = MatchState(np.arange(10), np.arange(10))
    run = execute_preset(cfg, **inputs, seed=seed)
    assert len(run.traces) == (1 if cfg.drop_r is None else 2)
    assert all(trace and np.isfinite(trace).all() for trace in run.traces)
    assert set(run.state.s.tolist()) == set(range(12))
    assert set(run.state.t.tolist()) == set(range(10))
