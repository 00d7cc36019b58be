import numpy as np
import pytest

from coocmap.assoc import (
    CONSTRUCTOR_CHAINS,
    Step,
    apply_pipeline,
    assoc_from_vectors,
    build,
    load_vectors,
    svd_vectors,
)
from coocmap.cooc import CoocMatrix
from coocmap.corpus import build_vocab
from coocmap.errors import ValidationError
from coocmap.kernels import clip, drop_head, normalize, unitr, unitr_l1

CONSTRUCTORS = ["coocmap", "log1p", "rapp", "fung", "ppmi", "glove"]


def cmat(counts):
    counts = np.asarray(counts, dtype=np.float64)
    return CoocMatrix(counts, window=1, vocab_digest="t", token_count=int(counts.sum()))


def random_counts(rng, V=6):
    M = rng.integers(0, 20, size=(V, V)).astype(float)
    C = M + M.T
    np.fill_diagonal(C, 0.0)
    return cmat(C)


def independent_counts(rng, V=5):
    """Counts that factor into their marginals exactly, even in float64:
    dyadic entries summing to a power of two keep every division exact."""
    r = rng.permutation([1.0, 1.0, 2.0, 4.0, 8.0][:V])
    assert np.sum(r) == 16.0
    return cmat(np.outer(r, r))


class TestCoocmapAssoc:
    def test_zero_counts_give_zero(self):
        assert not build("coocmap", cmat(np.zeros((3, 3)))).any()

    def test_hand_computation_2x2(self):
        A = build("coocmap", cmat([[0.0, 4.0], [4.0, 0.0]]))
        r = np.sqrt(0.5)
        np.testing.assert_allclose(A, [[-r, r], [r, -r]], atol=1e-12)



class TestLog1p:
    def test_log_of_em1_is_one_before_normalize(self):
        np.testing.assert_allclose(
            apply_pipeline(np.array([[np.e - 1.0]]), (Step("log1p"),)), [[1.0]]
        )

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(1))
        np.testing.assert_array_equal(
            build("log1p", C), normalize(np.log1p(C.counts))
        )


class TestRapp:
    def test_independent_counts_flat_rows(self):
        C = independent_counts(np.random.default_rng(2))
        A = build("rapp", C)
        np.testing.assert_allclose(A, np.full_like(A, 1.0 / A.shape[1]), atol=1e-10)

    def test_diagonal_dominance_by_hand(self):
        # joint [[.5,0],[0,.5]], marginals (.5,.5): ratio diag 2, off-diag 0
        A = build("rapp", cmat([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(A, np.eye(2), atol=1e-12)

    def test_zero_row_stays_zero(self):
        A = build("rapp", cmat([[0.0, 0.0], [0.0, 2.0]]))
        assert not A[0].any()

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(3))
        P = C.counts / C.counts.sum()
        expect = P / np.outer(P.sum(1), P.sum(0))
        expect[~np.isfinite(expect)] = 0.0
        np.testing.assert_allclose(build("rapp", C), unitr_l1(expect), atol=1e-12)


class TestFung:
    def test_independence_gives_zero(self):
        C = independent_counts(np.random.default_rng(4))
        np.testing.assert_allclose(build("fung", C), 0.0, atol=1e-10)

    def test_zero_entries_contribute_zero(self):
        A = build("fung", cmat([[0.0, 3.0], [3.0, 0.0]]))
        assert np.isfinite(A).all()
        assert A[0, 0] == 0.0

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(5), V=3)
        P = C.counts / C.counts.sum()
        denom = np.outer(P.sum(1), P.sum(0))
        expect = np.zeros_like(P)
        m = (P > 0) & (denom > 0)
        expect[m] = P[m] * np.log(P[m] / denom[m])
        np.testing.assert_allclose(build("fung", C), unitr_l1(expect), atol=1e-12)


def ppmi_steps(k):
    return (Step("ppmi", (k,)), Step("unit_l2"))


def ppmi(C, k):
    """The ppmi association with shift k."""
    return apply_pipeline(C.counts, ppmi_steps(k))


class TestPpmi:
    def test_independence_k1_gives_zero(self):
        C = independent_counts(np.random.default_rng(6))
        np.testing.assert_allclose(build("ppmi", C), 0.0, atol=1e-10)

    def test_huge_shift_gives_zero(self):
        C = random_counts(np.random.default_rng(7))
        assert not ppmi(C, 1e12).any()

    @staticmethod
    def oracle(C, k):
        P = C.counts / C.counts.sum()
        denom = np.outer(P.sum(1), P.sum(0))
        expect = np.zeros_like(P)
        m = (P > 0) & (denom > 0)
        expect[m] = np.maximum(0.0, np.log(P[m] / denom[m]) - np.log(k))
        return unitr(expect)

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(8))
        np.testing.assert_allclose(ppmi(C, 2.0), self.oracle(C, 2.0), atol=1e-12)

    def test_bad_shift(self):
        with pytest.raises(ValidationError):
            ppmi(cmat(np.eye(2)), 0.0)

    def test_chain_keeps_shift_exactly(self):
        C = random_counts(np.random.default_rng(9))
        A = apply_pipeline(C.counts, ppmi_steps(1.2345678))
        np.testing.assert_allclose(A, self.oracle(C, 1.2345678), atol=1e-12)


class TestGlove:
    def test_constant_counts_give_zero(self):
        np.testing.assert_allclose(build("glove", cmat(np.full((3, 3), 4.0))), 0.0)

    def test_single_cell_gives_zero(self):
        np.testing.assert_allclose(build("glove", cmat([[7.0]])), 0.0)

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(9))
        L = np.log1p(C.counts)
        G = L - L.mean(axis=1, keepdims=True)
        G = G - G.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(build("glove", C), unitr(G), atol=1e-12)


class TestDeterminism:
    def test_identical_counts_identical_bytes(self):
        rng = np.random.default_rng(10)
        C = random_counts(rng)
        C2 = cmat(C.counts.copy())
        for make in CONSTRUCTORS:
            assert build(make, C).tobytes() == build(make, C2).tobytes()


    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_counts_replay_constructor_and_stage_steps(self, name):
        # the config names every step, so the raw counts replay a run's matrix
        C = random_counts(np.random.default_rng(18), V=8)
        steps = (Step("trunc", (3,)), Step("clip", (5, 95)))
        A = apply_pipeline(build(name, C), steps)
        replayed = apply_pipeline(C.counts, CONSTRUCTOR_CHAINS[name] + steps)
        assert replayed.tobytes() == A.tobytes()


class TestVectors:
    def test_svd_vectors_diag_counts(self):
        Xv = svd_vectors(cmat(np.diag([16.0, 1.0])), 2)
        np.testing.assert_allclose(Xv, [[4.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_full_rank_gram_reconstruction(self):
        C = random_counts(np.random.default_rng(11))
        root = np.sqrt(C.counts)
        Xv = svd_vectors(C, C.size)
        np.testing.assert_allclose(Xv @ Xv.T, root @ root.T, atol=1e-8)

    def test_rank1_counts(self):
        v = np.array([1.0, 4.0, 9.0])
        C = cmat(np.outer(v, v))
        w = np.sqrt(v)
        Xv = svd_vectors(C, 1)
        np.testing.assert_allclose(Xv[:, 0], w * np.linalg.norm(w), atol=1e-10)

    def test_assoc_from_orthonormal_vectors(self):
        Q = np.linalg.qr(np.random.default_rng(12).random((3, 3)))[0]
        A = assoc_from_vectors(Q)
        np.testing.assert_allclose(A, normalize(np.eye(3)), atol=1e-10)

    def test_full_rank_vectors_recover_coocmap_assoc(self):
        # choose counts whose elementwise sqrt is itself PSD
        rng = np.random.default_rng(13)
        B = rng.random((4, 4))
        B = B @ B.T  # PSD with nonnegative entries
        C = cmat(B * B)
        A = assoc_from_vectors(svd_vectors(C, C.size))
        np.testing.assert_allclose(A, build("coocmap", C), atol=1e-6)

    def test_gram_sqrt_matches_symmetric_factor(self):
        C = random_counts(np.random.default_rng(14))
        f = np.linalg.svd(np.sqrt(C.counts))
        Xv = svd_vectors(C, C.size)
        from coocmap.kernels import psd_sqrt_gram

        np.testing.assert_allclose(
            psd_sqrt_gram(Xv), (f[0] * f[1]) @ f[0].T, atol=1e-8
        )


class TestVectorIO:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab(["a", "b", "a"], 3)
        Xv = np.random.default_rng(15).random((3, 4))
        from coocmap.assoc import save_vectors

        save_vectors(Xv, vocab, tmp_path / "v.txt")
        loaded, missing = load_vectors(tmp_path / "v.txt", vocab)
        np.testing.assert_array_equal(loaded, Xv)
        assert missing == []

    def test_missing_words_zeroed_and_reported(self, tmp_path):
        (tmp_path / "v.txt").write_text("1 2\na 0.5 0.25\n")
        vocab = build_vocab(["a", "b"], 3)
        loaded, missing = load_vectors(tmp_path / "v.txt", vocab)
        assert missing == ["[UNK]", "b"]
        np.testing.assert_array_equal(loaded[vocab.id_of("a")], [0.5, 0.25])
        assert not loaded[vocab.id_of("b")].any()

    def test_extra_words_skipped(self, tmp_path):
        (tmp_path / "v.txt").write_text("2 1\nzzz 9.0\na 1.0\n")
        vocab = build_vocab(["a"], 2)
        loaded, _ = load_vectors(tmp_path / "v.txt", vocab)
        assert loaded[vocab.id_of("a")] == [1.0]
        assert not loaded[vocab.unk_id].any()

    def test_malformed_line_reports_number(self, tmp_path):
        (tmp_path / "v.txt").write_text("1 2\na 0.5\n")
        with pytest.raises(ValidationError) as e:
            load_vectors(tmp_path / "v.txt", build_vocab(["a"], 2))
        assert ":2:" in str(e.value)


class TestApplyPipeline:
    def test_empty_steps_identity(self):
        A = build("coocmap", cmat(np.eye(3) * 4))
        B = apply_pipeline(A, [])
        np.testing.assert_array_equal(B, A)

    def test_matches_composed_kernels(self):
        C = random_counts(np.random.default_rng(16), V=8)
        A = build("coocmap", C)
        steps = (Step("clip", (1, 99)), Step("drop", (2,)))
        B = apply_pipeline(A, steps)
        np.testing.assert_array_equal(B, drop_head(clip(A, 1, 99), 2))

    def test_step_by_step_oracle(self):
        C = random_counts(np.random.default_rng(17), V=8)
        A = build("coocmap", C)
        B = apply_pipeline(A, [Step("drop", (3,)), Step("clip", (1, 99))])
        np.testing.assert_array_equal(B, clip(drop_head(A, 3), 1, 99))

    def test_step_args_used_exactly(self, monkeypatch):
        from coocmap import assoc

        seen = []
        monkeypatch.setitem(assoc._STEPS, "clip", lambda X, lo, hi: seen.append((lo, hi)) or X)
        monkeypatch.setitem(assoc._STEPS, "drop", lambda X, r: seen.append(r) or X)
        A = build("coocmap", cmat(np.eye(2)))
        apply_pipeline(A, [Step("clip", (1.2345678, 98.7654321)), Step("drop", (3,))])
        assert seen == [(1.2345678, 98.7654321), 3]
        assert type(seen[1]) is int

    def test_unknown_step(self):
        with pytest.raises(ValidationError):
            apply_pipeline(build("coocmap", cmat(np.eye(2))), [Step("sparsify", (3,))])
