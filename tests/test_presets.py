import re
from collections import defaultdict
from dataclasses import fields, replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from coocmap.align import AlignConfig, MatchState, csls, stage_steps, vec_measure
from coocmap.assoc import CONSTRUCTOR_CHAINS, Step, svd_vectors
from coocmap.cooc import CoocMatrix
from coocmap.errors import ValidationError
from coocmap.kernels import METRICS, pair_sim_matrix
from coocmap.presets import PRESETS, align_config, execute_preset, get_preset

# the method names the CLI contract promises
REQUIRED_PRESETS = {
    "dict-init", "coocmap", "coocmap-clip", "coocmap-drop", "vecmap-raw", "ppmi", "log1p",
    "rapp", "fung", "glove",
}
# the fields that name a method; the others are its parameters
METHOD_FIELDS = ("family", "assoc", "seed_mode")


def counts(seed=0, V=12):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 40, size=(V, V)).astype(float)
    return CoocMatrix(M + M.T, 1, "t", 1000)


def test_registry_contains_required_names():
    assert REQUIRED_PRESETS <= set(PRESETS)


def test_each_preset_is_a_method():
    """Two presets that set the same fields off the defaults differ in a
    method field: one that differs only in a parameter is an override."""
    groups = defaultdict(list)
    for cfg in PRESETS.values():
        set_fields = frozenset(f.name for f in fields(AlignConfig)
                               if f.name != "preset" and getattr(cfg, f.name) != f.default)
        groups[set_fields].append(cfg)
    for group in groups.values():
        for a, b in combinations(group, 2):
            assert any(getattr(a, f) != getattr(b, f) for f in METHOD_FIELDS), (a.preset, b.preset)


def test_readme_table_lists_the_presets_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Presets\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", section, flags=re.M) == list(PRESETS)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        get_preset("cooc-map")


def test_align_config_defaults_per_preset():
    assert align_config(get_preset("coocmap")).clip is None
    assert align_config(get_preset("coocmap-clip")).clip == (1.0, 99.0)
    assert align_config(get_preset("coocmap-clip"), clip=(1.5, 98.5)).clip == (1.5, 98.5)
    drop = align_config(get_preset("coocmap-drop"))
    assert (drop.drop_r, drop.clip) == (20, (1.0, 99.0))
    assert align_config(get_preset("vecmap-raw")).dim == 300
    assert align_config(get_preset("rapp")).metric == "neg_l1"
    assert align_config(get_preset("fung")).metric == "neg_l1"
    assert align_config(get_preset("ppmi")).metric == "cosine"


def test_flag_overrides_win():
    cfg = align_config(get_preset("coocmap-drop"), clip=(1.0, 98.0), drop_r=7, csls_k=4)
    assert cfg.clip == (1.0, 98.0)
    assert cfg.drop_r == 7
    assert cfg.csls_k == 4
    # clip override on a preset without clip turns it on
    assert align_config(get_preset("coocmap"), clip=(2.0, 99.0)).clip == (2.0, 99.0)


def test_vec_dim_flag_overrides_default():
    assert align_config(get_preset("vecmap-raw"), dim=100).dim == 100


def test_execute_vecmap_raw_identity():
    C = counts(1)
    run = execute_preset(align_config(get_preset("vecmap-raw"), csls_k=3, max_iters=5, dim=6), C, C)
    Xv = svd_vectors(C, 6)
    s, t = run.state.s, run.state.t
    assert run.targets.tobytes() == csls(vec_measure(Xv, Xv)(s, t), 3).argmax(axis=1).tobytes()
    n = C.size
    forward = dict(zip(run.state.s.tolist()[:n], run.state.t.tolist()[:n]))
    assert all(forward[i] == i for i in range(n))


def forbid_work(monkeypatch):
    """Make every association, SVD and pipeline entry fail when called."""
    import coocmap.presets as presets
    from coocmap import assoc

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the checks")

    for attr in ("build", "svd_vectors"):
        monkeypatch.setattr(assoc, attr, no_work)
    for attr in ("run_vecmap", "run_staged"):
        monkeypatch.setattr(presets, attr, no_work)


@pytest.mark.parametrize("name", ["coocmap-drop", "vecmap-raw"])
def test_csls_k_beyond_vocabulary_fails_before_any_work(name, monkeypatch):
    forbid_work(monkeypatch)
    preset = get_preset(name)
    if preset.family == "vec":
        preset = replace(preset, dim=6)  # the shipped 300 exceeds both vocabularies
    C1, C2 = counts(4, V=12), counts(5, V=9)
    with pytest.raises(ValidationError, match=r"csls_k=10 .*source 12, target 9"):
        execute_preset(align_config(preset, csls_k=10), C1, C2)
    # at the smaller size the check passes and the work starts
    with pytest.raises(AssertionError, match="work started"):
        execute_preset(align_config(preset, csls_k=9), C1, C2)


@pytest.mark.parametrize("name", ["coocmap", "coocmap-drop", "vecmap-raw"])
def test_dim_beyond_vocabulary_fails_before_any_work(name, monkeypatch):
    forbid_work(monkeypatch)
    C1, C2 = counts(4, V=12), counts(5, V=9)
    with pytest.raises(ValidationError, match=r"dim=10 .*source 12, target 9"):
        execute_preset(align_config(get_preset(name), csls_k=3, dim=10), C1, C2)
    # at the smaller size the check passes and the work starts
    with pytest.raises(AssertionError, match="work started"):
        execute_preset(align_config(get_preset(name), csls_k=3, dim=9), C1, C2)


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


@pytest.mark.parametrize("field, value, message", [
    ("dim", 0, "need dim >= 1, drop_r >= 0, got 0, 20"),
    ("drop_r", -1, "need dim >= 1, drop_r >= 0, got None, -1"),
    ("clip", (50.0, 40.0), "need 0 <= p_lo < p_hi <= 100"),
    ("clip", (-1.0, 99.0), "need 0 <= p_lo < p_hi <= 100"),
    ("clip", (1.0, 101.0), "need 0 <= p_lo < p_hi <= 100"),
    ("family", "vecc", "unknown family 'vecc', expected one of"),
    ("family", "import", "unknown family 'import', expected one of"),
    ("seed_mode", "dict", "unknown seed_mode 'dict', expected one of"),
    ("assoc", "pmi", "unknown assoc 'pmi', expected one of"),
    ("tol", float("nan"), "csls_k and max_iters must be >= 1, tol >= 0"),
    ("tol", float("inf"), "csls_k and max_iters must be >= 1, tol >= 0"),
])
def test_config_out_of_range_rejected(field, value, message):
    with pytest.raises(ValidationError, match=message):
        replace(get_preset("coocmap-drop"), **{field: value})


@pytest.mark.parametrize("name, field, value", [
    ("vecmap-raw", "assoc", "ppmi"),
    ("vecmap-raw", "clip", (1.0, 99.0)),
    ("vecmap-raw", "drop_r", 3),
])
def test_unread_field_rejected(name, field, value):
    with pytest.raises(ValidationError, match=rf"preset {name} does not read {field} \(given "):
        replace(get_preset(name), **{field: value})


def test_vec_config_with_cooc_fields_rejected():
    with pytest.raises(ValidationError, match="preset v does not read assoc"):
        AlignConfig("v", "vec", clip=(1.0, 99.0), drop_r=3, dim=7, assoc="ppmi")


def test_buildable_methods_are_the_presets():
    """Every (family, assoc, metric) a config can hold is one a preset
    names: no setting exists that no shipped method runs."""
    built = set()
    for family, name in product(("cooc", "vec"), CONSTRUCTOR_CHAINS):
        try:
            cfg = AlignConfig(family=family, assoc=name, dim=300 if family == "vec" else None)
        except ValidationError:
            continue
        built.add((cfg.family, cfg.assoc, cfg.metric))
    assert built == {(c.family, c.assoc, c.metric) for c in PRESETS.values()}
    assert len(built) == 7


def test_vecmap_raw_without_dim_names_dim():
    with pytest.raises(ValidationError, match="preset vecmap-raw needs dim"):
        replace(align_config(get_preset("vecmap-raw"), csls_k=3), dim=None)


def test_measure_serves_exactly_the_preset_metrics():
    """No metric of the self-learning measure is unreachable from a preset,
    and none a preset names is missing from it."""
    served = set()
    for metric in ("cosine", "dot", "neg_l1", "neg_l2", "euclidean", "cityblock"):
        try:
            pair_sim_matrix(np.ones((2, 3)), np.ones((2, 3)), [0, 1], [1, 2], metric)
            served.add(metric)
        except ValidationError:
            pass
    assert served == {cfg.metric for cfg in PRESETS.values()} == set(METRICS)


@pytest.mark.parametrize("name, field, value", [
    ("vecmap-raw", "clip", (2.0, 99.0)),
    ("vecmap-raw", "clip", (1.0, 98.0)),
    ("vecmap-raw", "drop_r", 5),
], ids=["vecmap-raw-clip-2.0,99.0", "vecmap-raw-clip-1.0,98.0", "vecmap-raw-drop_r-5"])
def test_unread_override_rejected(name, field, value):
    with pytest.raises(ValidationError, match=f"preset {name} does not read {field} "):
        align_config(get_preset(name), **{field: value})


def test_read_overrides_accepted():
    assert align_config(get_preset("coocmap-drop"), clip=(1.5, 98.5), drop_r=5).drop_r == 5
    # a parameter point of a method is its preset overridden
    old_point = AlignConfig("coocmap-drop-1.5", clip=(1.5, 98.5), drop_r=20)
    assert align_config(get_preset("coocmap-drop"), clip=(1.5, 98.5)) == replace(
        old_point, preset="coocmap-drop")
    assert align_config(get_preset("coocmap"), dim=4, clip=(1.0, 97.0)).clip == (1.0, 97.0)


@pytest.mark.parametrize("name", ["coocmap", "coocmap-clip"])
def test_drop_r_adds_a_stage_2(name):
    """A preset without a stage 2 gains one from `drop_r`: the head drop,
    then the preset's clip if it has one."""
    cfg = align_config(get_preset(name), drop_r=5)
    clip = [] if cfg.clip is None else [Step("clip", cfg.clip)]
    assert stage_steps(cfg) == ([], [clip, [Step("drop", (5,)), *clip]])


# one valid value of each field a caller can override
OVERRIDES = {"csls_k": 4, "max_iters": 3, "tol": 0.5, "dim": 8, "clip": (2.0, 98.0), "drop_r": 3}


@pytest.mark.parametrize("name, field", product(sorted(PRESETS), OVERRIDES))
def test_override_is_the_preset_replaced(name, field):
    """Every entry point's one rule: the preset with the field set, checked
    by `AlignConfig` alone."""
    preset, value = get_preset(name), OVERRIDES[field]
    try:
        expected = replace(preset, **{field: value})
    except ValidationError as e:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(e))}$"):
            align_config(preset, **{field: value})
    else:
        assert align_config(preset, **{field: value}) == expected
    assert align_config(preset, **{field: None}) == preset


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_executes(name):
    cfg = align_config(get_preset(name), csls_k=3, max_iters=5)
    if cfg.family == "vec":
        cfg = replace(cfg, dim=6)  # the shipped 300 exceeds both vocabularies
    seed = None
    if cfg.seed_mode == "dictionary":
        seed = MatchState(np.arange(10), np.arange(10))
    run = execute_preset(cfg, counts(7, V=12), counts(8, V=10), seed=seed)
    assert len(run.traces) == (1 if cfg.drop_r is None else 2)
    assert all(trace and np.isfinite(trace).all() for trace in run.traces)
    assert set(run.state.s.tolist()) == set(range(12))
    assert set(run.state.t.tolist()) == set(range(10))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_resolves_as_a_bench_point(name):
    """Bench and sweep can run every shipped preset: each one resolves
    through a bench point's config, dict-init once told that a dictionary
    to seed from is given."""
    from coocmap.bench import BenchConfig, _point_config

    preset = get_preset(name)
    assert _point_config(BenchConfig(preset=name), preset.seed_mode == "dictionary") == preset
