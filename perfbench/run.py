"""Layer-timed benchmark of the coocmap pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity-20mb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run generates the seeded corpus (perfbench/inputs.py), then repeats the
workload's experiment through the package's public entry points for about
--seconds seconds, checking every output. It prints one line per metric
with its unit and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_s (median seconds per
experiment), accuracy, peak_rss_mb of this process and setup_s (package
import plus the median of five corpus generations). --trace 1 alternates
untraced and traced experiments and reports per-layer metrics from the
traced ones (perfbench/spans.py); their spans go to perfbench/out/.

--workload all runs every workload, each in its own process so that peak
memory is per workload. The exit status is 1 when an output check failed
and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import SIZES, WORKLOADS, point_failures, signature

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1  # single-threaded: the steadier baseline on a shared machine
SETUP_REPEATS = 5
THREAD_VARS = ("COOCMAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "accuracy": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
COVERAGE_FLOOR = 0.90  # share of traced wall the top-level spans should cover


def pin_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    n = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_package() -> float:
    """Import coocmap from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "coocmap" / "__init__.py").is_file():
        print(f"error: {src / 'coocmap'} not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import coocmap  # noqa: F401

    return time.perf_counter() - t0


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_once(bench, workload, size, corpus, dump, recorder=None):
    """One experiment: (wall seconds, reports or None, failure per point)."""
    reports = None
    with recorder.installed() if recorder else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            reports = workload.run(bench, str(corpus), size, str(dump))
        except Exception:  # a failed experiment is counted, not fatal
            traceback.print_exc()
        wall = time.perf_counter() - t0
    failures: list = ["raised"] * workload.points
    if reports is not None:
        try:
            failures = point_failures(workload, size, reports, dump)
        except (OSError, ValueError, IndexError):
            traceback.print_exc()
    return wall, reports, failures


def measure(bench, spans, workload, size, corpus, dump, seconds: float, trace: bool):
    """Repeat the experiment while the next one should end nearer to
    `seconds` than stopping now would.

    With trace, experiments alternate untraced/traced and at least one of
    each runs. Every experiment must reproduce the first one's output.
    Returns one dict per experiment.
    """
    exps: list[dict] = []
    first = None
    start = time.perf_counter()
    while True:
        recorder = spans.Recorder() if trace and len(exps) % 2 == 1 else None
        wall, reports, failures = run_once(bench, workload, size, corpus, dump, recorder)
        if reports is not None:
            if first is None:
                first = signature(reports)
            elif signature(reports) != first:
                failures = ["output differs from the first experiment's"] * workload.points
        for reason in filter(None, failures):
            print(f"check failed: {reason}", file=sys.stderr)
        exps.append({"traced": recorder is not None, "wall": wall, "reports": reports,
                     "failed": sum(f is not None for f in failures),
                     "spans": recorder.spans if recorder else None})
        enough = not trace or len(exps) >= 2
        median_wall = statistics.median(e["wall"] for e in exps)
        if enough and time.perf_counter() - start + median_wall / 2 >= seconds:
            return exps


def end_to_end(exps, setup_s: float) -> dict[str, float]:
    ok = [e for e in exps if not e["failed"]] or exps
    reports = ok[0]["reports"] or []
    return {
        "wall_s": statistics.median(e["wall"] for e in ok),
        "accuracy": statistics.fmean(r.accuracy for r in reports) if reports else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_s,
    }


def per_layer(spans, exps) -> dict[str, float]:
    traced = [e for e in exps if e["traced"]]
    plain = [e for e in exps if not e["traced"]]
    runs = [spans.layer_metrics(e["spans"], e["wall"]) for e in traced]
    out = {m: statistics.median(r[m] for r in runs) for m in runs[0]}
    out["trace.overhead_s"] = (statistics.median(e["wall"] for e in traced)
                               - statistics.median(e["wall"] for e in plain))
    return {m: out[m] for m in spans.PER_LAYER_UNITS}


def write_spans(spans, path: Path, header: dict, exps) -> None:
    """Every traced experiment's spans, times relative to its first span."""
    experiments = []
    for e in (e for e in exps if e["traced"]):
        t0 = e["spans"][0]["start"] if e["spans"] else 0.0
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0, "self_s": self_s}
            for s, self_s in zip(e["spans"], spans.self_times(e["spans"]))
        ]
        experiments.append({"wall_s": e["wall"], "spans": rows})
    path.write_text(json.dumps({**header, "experiments": experiments}, indent=1) + "\n")


def run_workload(args) -> int:
    threads = pin_threads()
    import_s = import_package()
    # imported after pin_threads: both load numpy
    import inputs
    import spans
    from coocmap import bench

    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    env = environment(threads)
    print(f"workload {workload.name} seed {args.seed} size {args.size} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        corpus, dump = Path(work) / "corpus.txt", Path(work) / "predictions.tsv"
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs.write_corpus(corpus, size.corpus_bytes, args.seed)
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)
        exps = measure(bench, spans, workload, size, corpus, dump, args.seconds, bool(args.trace))

    attempted = len(exps) * workload.points
    failed = sum(e["failed"] for e in exps)
    if args.trace:
        metrics = per_layer(spans, exps)
        units = spans.PER_LAYER_UNITS
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        header = {"workload": workload.name, "seed": args.seed, "size": args.size, "env": env}
        write_spans(spans, path, header, exps)
        print(f"spans {path.relative_to(ROOT)}")
        if metrics["trace.coverage_frac"] < COVERAGE_FLOOR:
            print(f"warning: top-level spans cover {metrics['trace.coverage_frac']:.3f} "
                  f"of the traced wall, under {COVERAGE_FLOOR}", file=sys.stderr)
    else:
        metrics = end_to_end(exps, setup_s)
        units = END_TO_END_UNITS
    print(f"experiments {len(exps)} walls " + " ".join(f"{e['wall']:.3f}" for e in exps) + " s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one summary row per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        results[name] = json.loads(lines[-1])
    print(" | ".join(["workload", *next(iter(results.values()))["metrics"], "error_frac"]))
    for name, r in results.items():
        cells = [f"{m['value']:.4g} {m['unit']}" for m in r["metrics"].values()]
        print(" | ".join([name, *cells, f"{r['failed'] / r['attempted']:.4g} ratio"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=list(SIZES), default="full",
                   help="tiny runs every code path in seconds, for the smoke test")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
