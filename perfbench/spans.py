"""Per-layer tracing from outside the package.

Each traced function is rebound, for the duration of a ``Recorder.installed``
block, in the modules that look its name up at call time. The wrapper
records a span (name, parent, start, end) in memory, plus a few numbers
derived only from the call's arguments and return value, so the program's
behaviour is unchanged. Spans are turned into per-layer metrics and written
out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# (layer, function, modules whose globals or attributes the callers read).
# `assoc.build` and `assoc.apply_pipeline` are reached as attributes of the
# assoc module; kernels.svd and kernels.clip_thresholds are called as globals
# of kernels itself (trunc, procrustes, clip) and as kernels.svd from assoc.
TARGETS = (
    ("corpus", "take_head_bytes", ("bench",)),
    ("corpus", "tokenize", ("bench",)),
    ("corpus", "build_vocab", ("bench",)),
    ("corpus", "encode", ("bench",)),
    ("cooc", "count_cooc", ("bench",)),
    ("cooc", "permute_cooc", ("bench",)),
    ("assoc", "build", ("assoc",)),
    ("assoc", "apply_pipeline", ("assoc",)),
    ("kernels", "sim_matrix", ("align", "evaluation")),
    ("kernels", "svd", ("kernels",)),
    ("kernels", "clip_thresholds", ("kernels",)),
    ("align", "unsupervised_init", ("align",)),
    ("align", "coocmap_selflearn", ("align",)),
    ("align", "csls", ("align", "evaluation")),
    ("align", "match_bidirectional", ("align",)),
    ("evaluation", "translate", ("bench",)),
    ("evaluation", "write_predictions", ("bench",)),
    ("presets", "execute_preset", ("bench",)),
    ("bench", "split_identity_bench", ("bench",)),
    ("bench", "cipher_bench", ("bench",)),
    ("bench", "run_sweep", ("bench",)),
)

CDIST_METRICS = ("neg_l1", "neg_l2")  # the cdist path of sim_matrix


def _attrs(name, args, kwargs, out) -> dict | None:
    """Counts derived from one call's arguments and return value."""
    if name == "corpus.encode":
        return {"tokens": int(out.ids.size)}
    if name == "cooc.count_cooc":
        return {"key": [out.vocab_digest, out.window, out.token_count]}
    if name == "kernels.sim_matrix":
        (n, k), m = np.shape(args[0]), np.shape(args[1])[0]
        metric = args[2] if len(args) > 2 else kwargs.get("metric", "cosine")
        return {"flop": 2 * n * m * k, "metric": metric}
    if name == "align.match_bidirectional":
        n, m = np.shape(args[0])
        fwd, bwd = out.t[:n], out.s[n:]
        return {
            "pairs": int(out.s.size),
            "unique_pairs": int(np.unique(out.s * m + out.t).size),
            "rows": n,
            "mutual_rows": int(np.count_nonzero(bwd[fwd] == np.arange(n))),
        }
    if name == "align.coocmap_selflearn":
        return {"iterations": len(out[1])}
    return None


class Recorder:
    """Spans of the calls made while installed, in start order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            attrs = _attrs(name, args, kwargs, out)
            if attrs:
                span["attrs"] = attrs
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in its caller modules; restore on exit."""
        saved = []
        try:
            for layer, fname, callers in TARGETS:
                fn = getattr(importlib.import_module(f"coocmap.{layer}"), fname)
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for caller in callers:
                    mod = importlib.import_module(f"coocmap.{caller}")
                    if getattr(mod, fname) is not fn:
                        raise RuntimeError(f"coocmap.{caller}.{fname} is not {layer}.{fname}")
                    saved.append((mod, fname, fn))
                    setattr(mod, fname, wrapped)
            yield self
        finally:
            for mod, fname, fn in reversed(saved):
                setattr(mod, fname, fn)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# per-layer self-time metrics: metric -> span names summed
SELF_TIME_METRICS = {
    "corpus.read_s": ("corpus.take_head_bytes",),
    "corpus.tokenize_s": ("corpus.tokenize",),
    "corpus.vocab_s": ("corpus.build_vocab",),
    "corpus.encode_s": ("corpus.encode",),
    "cooc.count_s": ("cooc.count_cooc",),
    "cooc.permute_s": ("cooc.permute_cooc",),
    "assoc.build_s": ("assoc.build",),
    "assoc.pipeline_s": ("assoc.apply_pipeline",),
    "kernels.sim_matrix_s": ("kernels.sim_matrix",),
    "kernels.svd_s": ("kernels.svd",),
    "kernels.clip_thresholds_s": ("kernels.clip_thresholds",),
    "align.init_s": ("align.unsupervised_init",),
    "align.selflearn_s": ("align.coocmap_selflearn",),
    "align.csls_s": ("align.csls",),
    "align.match_s": ("align.match_bidirectional",),
    "evaluation.translate_s": ("evaluation.translate",),
    "evaluation.write_s": ("evaluation.write_predictions",),
    "presets.execute_s": ("presets.execute_preset",),
    "bench.point_s": ("bench.split_identity_bench", "bench.cipher_bench", "bench.run_sweep"),
}

# metric -> unit, in the order they are reported
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "corpus.tokens": "count",
    "cooc.count_calls": "count",
    "cooc.count_reuse_frac": "ratio",
    "kernels.sim_matrix_calls": "count",
    "kernels.sim_matrix_gflop": "GFLOP",
    "kernels.sim_matrix_l1_s": "s",
    "kernels.svd_calls": "count",
    "align.iterations": "count",
    "align.emitted_pairs": "count",
    "align.unique_pair_frac": "ratio",
    "align.match_rows": "count",
    "align.mutual_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced experiment that took `wall` seconds.

    Every ratio has its base among the metrics: count_reuse_frac over
    count_calls, unique_pair_frac over emitted_pairs, mutual_frac over
    match_rows, coverage_frac over trace.wall_s. sim_matrix_gflop is
    computed from operand shapes (2*n*m*k), not measured. trace.overhead_s
    needs an untraced run and is filled in by the caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["id"])

    def total_self(*names):
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def attr(i, key, default=0):
        return spans[i].get("attrs", {}).get(key, default)

    def attr_sum(name, key):
        return sum(attr(i, key) for i in by_name.get(name, ()))

    out = {m: total_self(*names) for m, names in SELF_TIME_METRICS.items()}
    counts = by_name.get("cooc.count_cooc", [])
    keys = {tuple(attr(i, "key", ())) for i in counts}
    sims = by_name.get("kernels.sim_matrix", [])
    pairs = attr_sum("align.match_bidirectional", "pairs")
    rows = attr_sum("align.match_bidirectional", "rows")
    # top-level spans: package calls made directly from bench code
    top = sum(
        s["end"] - s["start"]
        for s in spans
        if not s["name"].startswith("bench.")
        and s["parent"] is not None
        and spans[s["parent"]]["name"].startswith("bench.")
    )
    out.update({
        "corpus.tokens": attr_sum("corpus.encode", "tokens"),
        "cooc.count_calls": len(counts),
        "cooc.count_reuse_frac": _ratio(len(counts) - len(keys), len(counts)),
        "kernels.sim_matrix_calls": len(sims),
        "kernels.sim_matrix_gflop": attr_sum("kernels.sim_matrix", "flop") / 1e9,
        "kernels.sim_matrix_l1_s": sum(
            selfs[i] for i in sims if attr(i, "metric", None) in CDIST_METRICS
        ),
        "kernels.svd_calls": len(by_name.get("kernels.svd", [])),
        "align.iterations": attr_sum("align.coocmap_selflearn", "iterations"),
        "align.emitted_pairs": pairs,
        "align.unique_pair_frac": _ratio(attr_sum("align.match_bidirectional", "unique_pairs"), pairs),
        "align.match_rows": rows,
        "align.mutual_frac": _ratio(attr_sum("align.match_bidirectional", "mutual_rows"), rows),
        "trace.wall_s": wall,
        "trace.coverage_frac": _ratio(top, wall),
    })
    return out
