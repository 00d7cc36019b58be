import numpy as np
import pytest

from coocmap.assoc import (
    _STEPS,
    CONSTRUCTOR_CHAINS,
    Step,
    apply_pipeline,
    build,
    svd_vectors,
)
from coocmap.cooc import CoocMatrix
from coocmap.errors import ValidationError
from coocmap.kernels import clip, drop_head, normalize, unitr, unitr_l1

CONSTRUCTORS = ["coocmap", "log1p", "rapp", "fung", "ppmi", "glove"]
# arguments for the `_STEPS` entries that take them
STEP_ARGS = {"clip": (5, 95), "drop": (2,), "trunc": (3,)}


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

    def test_sqrt_step(self):
        np.testing.assert_array_equal(
            apply_pipeline(np.array([[4.0, 9.0], [0.0, 16.0]]), (Step("sqrt"),)),
            [[2.0, 3.0], [0.0, 4.0]],
        )


def test_chain_steps_take_no_arguments():
    """Every argument a run passes is its config's (the stage steps)."""
    assert all(step.args == () for chain in CONSTRUCTOR_CHAINS.values() for step in chain)


class TestLog1p:
    def test_log_of_em1_is_one_before_normalize(self):
        np.testing.assert_allclose(
            apply_pipeline(np.array([[np.e - 1.0]]), (Step("log1p"),)), [[1.0]]
        )

    def test_direct_recomputation(self):
        # the chain runs in float64 and its result is rounded to float32 once
        C = random_counts(np.random.default_rng(1))
        np.testing.assert_array_equal(
            build("log1p", C), normalize(np.log1p(C.counts)).astype(np.float32)
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


class TestPpmi:
    def test_independence_k1_gives_zero(self):
        C = independent_counts(np.random.default_rng(6))
        np.testing.assert_allclose(build("ppmi", C), 0.0, atol=1e-10)

    def test_direct_recomputation(self):
        C = random_counts(np.random.default_rng(8))
        P = C.counts / C.counts.sum()
        denom = np.outer(P.sum(1), P.sum(0))
        expect = np.zeros_like(P)
        m = (P > 0) & (denom > 0)
        expect[m] = np.maximum(0.0, np.log(P[m] / denom[m]))
        np.testing.assert_allclose(build("ppmi", C), unitr(expect), atol=1e-12)


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


class TestFloat32Storage:
    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_build_rounds_the_float64_chain_once(self, name):
        C = random_counts(np.random.default_rng(21), V=7)
        data = C.counts
        for step in CONSTRUCTOR_CHAINS[name]:
            data = _STEPS[step.name](data, *step.args)
        assert data.dtype == np.float64
        got = build(name, C)
        assert got.dtype == np.float32
        assert got.tobytes() == data.astype(np.float32).tobytes()

    def test_float32_and_float64_counts_build_one_association(self):
        C = random_counts(np.random.default_rng(22), V=7)
        C32 = cmat(C.counts.astype(np.float32))
        for name in CONSTRUCTORS:
            assert build(name, C32).tobytes() == build(name, C).tobytes()


class TestDeterminism:
    def test_identical_counts_identical_bytes(self):
        rng = np.random.default_rng(10)
        C = random_counts(rng)
        C2 = cmat(C.counts.copy())
        for make in CONSTRUCTORS:
            assert build(make, C).tobytes() == build(make, C2).tobytes()


    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_counts_replay_constructor_and_stage_steps(self, name):
        # the config names every step and each call rounds once, so the raw
        # counts, float32 as counted, replay a run's matrix call for call
        C = random_counts(np.random.default_rng(18), V=8)
        steps = (Step("trunc", (3,)), Step("clip", (5, 95)))
        A = apply_pipeline(build(name, C), steps)
        counts32 = C.counts.astype(np.float32)
        replayed = apply_pipeline(apply_pipeline(counts32, CONSTRUCTOR_CHAINS[name]), steps)
        assert replayed.dtype == np.float32
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

    @pytest.mark.parametrize("r", [0, 3])
    def test_dimension_outside_vocabulary_rejected(self, r):
        with pytest.raises(ValidationError, match=rf"\[1, V=2\], got {r}"):
            svd_vectors(cmat(np.diag([16.0, 1.0])), r)

    def test_gram_sqrt_matches_symmetric_factor(self):
        C = random_counts(np.random.default_rng(14))
        f = np.linalg.svd(np.sqrt(C.counts))
        Xv = svd_vectors(C, C.size)
        from coocmap.kernels import psd_sqrt_gram

        np.testing.assert_allclose(
            psd_sqrt_gram(Xv), (f[0] * f[1]) @ f[0].T, atol=1e-8
        )


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
        np.testing.assert_array_equal(B, drop_head(clip(A, 1, 99), 2).astype(np.float32))

    def test_step_by_step_oracle(self):
        C = random_counts(np.random.default_rng(17), V=8)
        A = build("coocmap", C)
        B = apply_pipeline(A, [Step("drop", (3,)), Step("clip", (1, 99))])
        np.testing.assert_array_equal(B, clip(drop_head(A, 3), 1, 99).astype(np.float32))

    def test_step_args_used_exactly(self, monkeypatch):
        from coocmap import assoc

        seen = []
        monkeypatch.setitem(assoc._STEPS, "clip", lambda X, lo, hi: seen.append((lo, hi)) or X)
        monkeypatch.setitem(assoc._STEPS, "drop", lambda X, r: seen.append(r) or X)
        A = build("coocmap", cmat(np.eye(2)))
        apply_pipeline(A, [Step("clip", (1.2345678, 98.7654321)), Step("drop", (3,))])
        assert seen == [(1.2345678, 98.7654321), 3]
        assert type(seen[1]) is int

    def test_no_steps_return_a_float32_input_itself(self):
        A = build("coocmap", random_counts(np.random.default_rng(19)))
        assert apply_pipeline(A, []) is A
        assert apply_pipeline(A.astype(np.float64), []).dtype == np.float32

    # clip, drop and trunc first: the stage steps this test covered alone
    @pytest.mark.parametrize("step", [
        Step(name, STEP_ARGS.get(name, ()))
        for name in sorted(_STEPS, key=lambda name: name not in ("clip", "drop", "trunc"))
    ])
    def test_stage_steps_read_float32_as_its_float64_values(self, step):
        # `_run_steps` hands its first step the float32 input itself, so every
        # step reads it as its float64 values; no step writes to its input
        C = random_counts(np.random.default_rng(20), V=8)
        inputs = [C.counts.astype(np.float32)]
        if step.name in ("clip", "drop", "trunc"):
            inputs.append(build("coocmap", C))
        for A in inputs:
            A64 = A.astype(np.float64)
            before = A.tobytes(), A64.tobytes()
            want = apply_pipeline(A64, [step])
            assert apply_pipeline(A, [step]).tobytes() == want.tobytes()
            got = _STEPS[step.name](A, *step.args)
            assert got.dtype == np.float64
            assert got.tobytes() == _STEPS[step.name](A64, *step.args).tobytes()
            assert (A.tobytes(), A64.tobytes()) == before

    def test_unknown_step(self):
        with pytest.raises(ValidationError):
            apply_pipeline(build("coocmap", cmat(np.eye(2))), [Step("sparsify", (3,))])
