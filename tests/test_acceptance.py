"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them live).

The benchmark criteria (5-8) run against COOCMAP_CORPUS when set (>= 20MB of
plain text, one fragment per line); otherwise a deterministic synthetic
corpus stands in. Criterion thresholds are identical either way.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from coocmap.align import csls, match_bidirectional
from coocmap.assoc import build
from coocmap.bench import (
    BenchConfig,
    SweepSpec,
    alternate_blocks,
    cipher_bench,
    run_sweep,
)
from coocmap.cooc import CoocMatrix, count_cooc
from coocmap.corpus import UNK_TOKEN, Vocabulary, build_vocab, encode, take_head_bytes, tokenize
from coocmap.kernels import (
    clip,
    clip_thresholds,
    drop_head,
    normalize,
    procrustes,
    trunc,
)

BUDGETS = (500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000)
VOCAB_SIZE = 1500
TOP_EVAL = 1000


@contextmanager
def criterion(n):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"[criterion {n}] FAIL {info['detail']}")
        raise
    print(f"[criterion {n}] PASS {info['detail']}")


@pytest.fixture(scope="module")
def sweep_reports(bench_corpus):
    """One sweep shared by criteria 5, 7 and 8: budgets x (coocmap, ppmi)."""
    spec = SweepSpec(
        source=bench_corpus,
        budgets=BUDGETS,
        presets=("coocmap", "ppmi"),
        vocab_size=VOCAB_SIZE,
        top_eval=TOP_EVAL,
    )
    reports, _ = run_sweep(spec)
    assert all(r.error is None for r in reports), [r.error for r in reports]
    return {(r.preset, r.budget_bytes): r for r in reports}


def test_criterion_1_kernel_property_suite():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    with criterion(1) as c:
        # normalize: every nonzero row has unit l2 norm within 1e-10
        for _ in range(50):
            X = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
            norms = np.linalg.norm(normalize(X), axis=1)
            assert np.all((np.abs(norms - 1.0) <= 1e-10) | (norms == 0.0))
        # clip: bounds respected and weak order preserved, 1000 random matrices
        for _ in range(1000):
            X = rng.standard_normal((8, 10)) * rng.uniform(0.5, 3.0)
            lo, hi = clip_thresholds(X, 1, 99)
            Y = clip(X, 1, 99)
            assert Y.min() >= lo - 1e-12 and Y.max() <= hi + 1e-12
            order = np.argsort(X, axis=None, kind="stable")
            assert np.all(np.diff(Y.flat[order]) >= 0)
        # drop_head: top singular value of the residual is sigma_{r+1}
        for _ in range(20):
            X = rng.standard_normal((12, 9))
            s = np.linalg.svd(X, compute_uv=False)
            r = int(rng.integers(1, 5))
            top = np.linalg.svd(drop_head(X, r), compute_uv=False)[0]
            assert abs(top - s[r]) <= 1e-6
        # trunc: no random rank-r competitor does better in Frobenius error
        X = rng.standard_normal((6, 6))
        best = np.linalg.norm(X - trunc(X, 2))
        for _ in range(100):
            A = rng.standard_normal((6, 2))
            B = rng.standard_normal((2, 6))
            scale = np.trace(B @ X.T @ A) / np.linalg.norm(A @ B) ** 2
            assert best <= np.linalg.norm(X - scale * (A @ B)) + 1e-12
        # procrustes: orthogonal to 1e-8, recovers a built rotation to 1e-6
        for _ in range(20):
            Xs = rng.standard_normal((10, 4))
            R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            W = procrustes(Xs, Xs @ R)
            assert np.abs(W.T @ W - np.eye(4)).max() <= 1e-8
            assert np.abs(W - R).max() <= 1e-6
        # csls: adding a constant changes nothing, within 1e-9
        for _ in range(50):
            S = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            k = min(S.shape)
            shift = float(rng.uniform(-5, 5))
            assert np.abs(csls(S + shift, k) - csls(S, k)).max() <= 1e-9
        dt = time.perf_counter() - t0
        c["detail"] = f"kernel properties hold (runtime {dt:.1f}s < 30s)"
        assert dt < 30.0


def test_criterion_2_whitened_equivalence():
    rng = np.random.default_rng(101)
    with criterion(2) as c:
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(2, 31))
            d = int(rng.integers(1, min(11, n + 1, m + 1)))
            X = np.linalg.qr(rng.standard_normal((n, d)))[0]
            Z = np.linalg.qr(rng.standard_normal((m, d)))[0]
            npairs = int(rng.integers(1, 15))
            s = rng.integers(0, n, npairs)
            t = rng.integers(0, m, npairs)
            gram_side = (X @ X.T)[:, s] @ ((Z @ Z.T)[:, t]).T
            mapped_side = (X @ (X[s].T @ Z[t])) @ Z.T
            worst = max(worst, float(np.abs(gram_side - mapped_side).max()))
        c["detail"] = f"gram-column vs mapped-vector similarity, max |diff| {worst:.2e}"
        assert worst <= 1e-8


def _brute_cooc(lines, V, m):
    C = np.zeros((V, V))
    for line in lines:
        L = len(line)
        for i in range(L):
            for j in range(-m, m + 1):
                if j != 0 and 0 <= i + j < L:
                    C[line[i], line[i + j]] += 1
    return C


def test_criterion_3_counting_oracle():
    rng = np.random.default_rng(102)
    with criterion(3) as c:
        for trial in range(200):
            V = int(rng.integers(2, 20))
            n_tokens = int(rng.integers(0, 1001))
            lines = []
            left = n_tokens
            while left > 0:
                take = int(rng.integers(1, min(60, left) + 1))
                lines.append(list(rng.integers(0, V, take)))
                left -= take
            vocab = Vocabulary((UNK_TOKEN, *[f"w{i}" for i in range(1, V)]))
            enc = encode([[vocab.tokens[i] for i in line] for line in lines], vocab)
            m = (1, 2, 5)[trial % 3]
            got = count_cooc(enc, m).counts
            np.testing.assert_array_equal(got, _brute_cooc(lines, V, m))
            # shard-merge equals single-pass bitwise
            third = max(1, len(lines) // 3)
            merged = np.zeros((V, V))
            for start in range(0, len(lines), third):
                shard = lines[start : start + third]
                enc_s = encode([[vocab.tokens[i] for i in ln] for ln in shard], vocab)
                merged += count_cooc(enc_s, m).counts
            assert np.array_equal(got, merged)
        c["detail"] = "200 corpora <= 1000 tokens, m in {1,2,5}, exact + shard-merge"


def test_criterion_4_matching_contract():
    rng = np.random.default_rng(103)
    with criterion(4) as c:
        for _ in range(500):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            S = rng.standard_normal((n, m))
            state = match_bidirectional(S)
            assert len(state.s) == len(state.t) == n + m
            assert set(range(n)) <= set(state.s.tolist())
            assert set(range(m)) <= set(state.t.tolist())
        c["detail"] = "500 random matrices emit exactly |V1| + |V2| pairs"


def test_criterion_5_identity_benchmark(sweep_reports):
    with criterion(5) as c:
        report = sweep_reports[("coocmap", 20_000_000)]
        c["detail"] = (
            f"20MB identity: accuracy {report.accuracy:.3f} on top-{report.evaluated} "
            f"shared tokens in {report.seconds:.0f}s"
        )
        assert report.evaluated == TOP_EVAL
        assert report.accuracy >= 0.90
        assert report.seconds < 600.0


def test_criterion_6_cipher_invariance(bench_corpus, sweep_reports):
    with criterion(6) as c:
        ident = sweep_reports[("coocmap", 20_000_000)]
        cfg = BenchConfig(preset="coocmap", vocab_size=VOCAB_SIZE, top_eval=TOP_EVAL)
        deltas = []
        for seed in (0, 1, 2):
            rep = cipher_bench(bench_corpus, 20_000_000, seed, cfg)
            deltas.append(abs(rep.accuracy - ident.accuracy))
        c["detail"] = "cipher vs identity deltas " + ", ".join(f"{d * 100:.2f}pt" for d in deltas)
        assert max(deltas) <= 0.02


def test_criterion_7_degradation_curve(sweep_reports):
    with criterion(7) as c:
        accs = [sweep_reports[("coocmap", b)].accuracy for b in BUDGETS]
        inversions = sum(1 for a, b in zip(accs, accs[1:]) if b < a)
        c["detail"] = "accuracy by budget " + ", ".join(f"{a:.2f}" for a in accs)
        assert accs[0] < 0.10
        assert accs[-1] >= 0.90
        assert inversions <= 1


def test_criterion_8_association_ordering(sweep_reports):
    # property fallback first: degenerate-case checks always run
    r = np.random.default_rng(104).permutation([1.0, 1.0, 2.0, 4.0, 8.0])
    C = CoocMatrix(np.outer(r, r), 1, "t", 256)
    flat = build("rapp", C)
    assert np.abs(flat - 1.0 / C.size).max() <= 1e-10
    assert np.abs(build("fung", C)).max() <= 1e-10
    assert np.abs(build("ppmi", C)).max() <= 1e-10
    const = CoocMatrix(np.full((4, 4), 9.0), 1, "t", 144)
    assert np.abs(build("glove", const)).max() <= 1e-10

    with criterion(8) as c:
        def working_budget(preset):
            for b in BUDGETS:
                if sweep_reports[(preset, b)].accuracy >= 0.50:
                    return b
            return None

        best = {
            p: max(sweep_reports[(p, b)].accuracy for b in BUDGETS)
            for p in ("coocmap", "ppmi")
        }
        wb = {p: working_budget(p) for p in ("coocmap", "ppmi")}
        c["detail"] = (
            f"best coocmap {best['coocmap']:.2f} / ppmi {best['ppmi']:.2f}; "
            f"working budgets {wb['coocmap']} <= {wb['ppmi']}; degenerate checks at 1e-10"
        )
        assert best["coocmap"] >= 0.90 and best["ppmi"] >= 0.90
        assert wb["coocmap"] is not None and wb["ppmi"] is not None
        assert wb["coocmap"] <= wb["ppmi"]


def test_criterion_9_sweep_driver_runs_supplied_corpora(bench_corpus, tmp_path):
    """Full cross-lingual reproduction is out of desk scope; the driver must
    still run unmodified on a supplied corpus pair plus dictionary."""
    with criterion(9) as c:
        lines = take_head_bytes(bench_corpus, 3_000_000).splitlines()
        a, b = alternate_blocks(lines, 1000)
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_text("\n".join(a) + "\n")
        tgt.write_text("\n".join(b) + "\n")
        vocab = build_vocab((t for ln in a for t in ln.split()), 400)
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("".join(f"{t} {t}\n" for t in vocab.tokens[1:]))
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(
            f"source = {src}\ntarget = {tgt}\nmode = crosslingual\n"
            f"dict = {dict_path}\nbudgets = 1500000\npresets = coocmap\n"
            "vocab_size = 400\n"
        )
        reports, csv_text = run_sweep(SweepSpec.from_file(spec_path))
        assert len(reports) == 1 and reports[0].error is None
        assert reports[0].evaluated > 0
        assert csv_text.startswith("budget_bytes,preset,dimension,accuracy,evaluated,seconds,error")
        c["detail"] = (
            f"cross-lingual sweep row: accuracy {reports[0].accuracy:.2f} "
            f"on {reports[0].evaluated} entries (driver unmodified)"
        )
