"""The per-layer tracer in perfbench/spans.py rebinds package functions by
name in the modules that call them. A rename that breaks it fails here, in
the tier-1 run, instead of only in the benchmark's own smoke test."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from coocmap.align import AlignConfig
from coocmap.cooc import CoocMatrix

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(targets) -> dict:
    """(caller module, function name) -> the object bound there now."""
    out = {}
    for _layer, fname, callers in targets:
        for caller in callers:
            out[caller, fname] = getattr(importlib.import_module(f"coocmap.{caller}"), fname)
    return out


def test_recorder_rebinds_every_target_and_restores_it():
    spans = load_spans()
    before = bound_names(spans.TARGETS)
    recorder = spans.Recorder()
    rng = np.random.default_rng(0)
    M = rng.integers(0, 30, size=(10, 10)).astype(float)
    C = CoocMatrix(M + M.T, 1, "t", 500)
    with recorder.installed():
        inside = bound_names(spans.TARGETS)
        from coocmap import presets

        presets.execute_preset(AlignConfig(csls_k=3, max_iters=5), C, C)
    assert all(inside[key] is not fn for key, fn in before.items())
    after = bound_names(spans.TARGETS)
    assert all(after[key] is fn for key, fn in before.items())
    names = [s["name"] for s in recorder.spans]
    assert names.count("assoc.build") == 2 and "align.unsupervised_init" in names
    learned = [s for s in recorder.spans if s["name"] == "align.coocmap_selflearn"]
    assert len(learned) == 1 and learned[0]["attrs"]["iterations"] >= 1


def test_recorder_sees_every_ingest_layer(tmp_path):
    """A split ingest under the recorder leaves spans of each ingest layer,
    so the per-layer ingest metrics cannot go silently empty: one read per
    block and one at the end of the head."""
    from coocmap import bench

    path = tmp_path / "c.txt"
    path.write_text("a b c\nb c d\nc d a\nd a b\ne\n")
    recorder = load_spans().Recorder()
    with recorder.installed():
        sides = bench._split_sides(path, 10**6, bench.BenchConfig(vocab_size=4, block_lines=2))
    names = [s["name"] for s in recorder.spans]
    assert sides.data_bytes == path.stat().st_size
    assert names.count("corpus.take_head_bytes") == 4  # 3 blocks and the end
    assert names.count("corpus.tokenize") == names.count("corpus.encode") == 3
    assert names.count("corpus.build_vocab") == names.count("cooc.count_cooc") == 2


def test_recorder_sees_the_experiment_step(tmp_path):
    """One bench run records one span each of aligning, translating and
    writing the dump, in that order, under the bench entry point."""
    from coocmap import bench
    from coocmap.synth import generate_corpus

    path = tmp_path / "c.txt"
    generate_corpus(path, 60_000, seed=5, n_types=60, n_companions=6)
    cfg = bench.BenchConfig(vocab_size=30, csls_k=5, max_iters=3, top_eval=3)
    recorder = load_spans().Recorder()
    with recorder.installed():
        report = bench.split_identity_bench(path, 10**6, cfg, preds_out=tmp_path / "p.tsv")
    step = ("presets.execute_preset", "evaluation.translate", "evaluation.write_predictions")
    spans = [s for s in recorder.spans if s["name"] in step]
    assert [s["name"] for s in spans] == list(step)
    entry = [s["id"] for s in recorder.spans if s["name"] == "bench.split_identity_bench"]
    assert len(entry) == 1 and all(s["parent"] == entry[0] for s in spans)
    assert report.evaluated == 3 and (tmp_path / "p.tsv").is_file()


def unseen_bindings(sources: dict[str, str], targets) -> list[str]:
    """`module: from .layer import fname` for each module-level import of a
    traced function into a module (name -> source) the tracer does not
    rebind it in. Such a module keeps the untraced function, so the layer
    reads nothing for its calls. An import inside a function reads the
    module attribute when it runs, and sees the rebinding."""
    callers = {(layer, fname): names for layer, fname, names in targets}
    out = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if module not in callers.get((node.module, alias.name), (module,)):
                    out.append(f"{module}: from .{node.module} import {alias.name}")
    return out


def test_every_imported_target_is_rebound_where_it_is_imported():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "coocmap").glob("*.py"))}
    assert unseen_bindings(sources, load_spans().TARGETS) == []


def test_the_binding_check_sees_a_module_level_import():
    # assoc.build is rebound in assoc alone: presets would keep its own copy
    targets = (("assoc", "build", ("assoc",)), ("align", "csls", ("align", "evaluation")))
    sources = {
        "presets": "from . import assoc\nfrom .assoc import build, svd_vectors\n",
        "evaluation": "from .align import csls\n",
        "cli": "def main():\n    from .assoc import build\n",
    }
    assert unseen_bindings(sources, targets) == ["presets: from .assoc import build"]


def untraced_noqa_imports(sources: dict[str, str], targets) -> list[str]:
    """`module: from .layer import name` for each name a `# noqa: F401`
    import binds in a module (name -> source) that the module never reads
    and the tracer does not rebind there. Such an import is kept only for
    the tracer, so once the tracer stops rebinding it, it is dead."""
    callers = {(layer, fname): names for layer, fname, names in targets}
    out = []
    for module, source in sources.items():
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" not in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                continue
            layer = getattr(node, "module", None)  # a plain import rebinds nothing
            where = f"from {'.' * node.level}{layer} import" if layer else "import"
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and module not in callers.get((layer, alias.name), ()):
                    out.append(f"{module}: {where} {name}")
    return out


def test_every_tracer_only_import_is_rebound_there():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "coocmap").glob("*.py"))}
    assert untraced_noqa_imports(sources, load_spans().TARGETS) == []


def test_the_tracer_only_import_check_sees_an_unrebound_name():
    # csls is rebound in evaluation, so its unread import stays; sim_matrix
    # is not, and MatchState is read, so it needs no rebinding
    targets = (("align", "csls", ("align", "evaluation")), ("kernels", "sim_matrix", ("align",)))
    sources = {
        "evaluation": (
            "from .align import MatchState, csls  # noqa: F401\n"
            "from .kernels import (  # noqa: F401\n"
            "    sim_matrix,\n"
            ")\n"
            "def f(state: MatchState):\n"
            "    pass\n"
        ),
        "bench": "from .align import csls\n",  # not marked: the unused-import check's case
        "cli": "import json  # noqa: F401\n",
    }
    assert untraced_noqa_imports(sources, targets) == [
        "evaluation: from .kernels import sim_matrix", "cli: import json",
    ]
