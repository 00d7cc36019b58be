import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocmap.cooc import (
    EXACT_COUNTS,
    MAGIC,
    CoocMatrix,
    count_cooc,
    load_cooc,
    permute_cooc,
    save_cooc,
)
from coocmap.corpus import UNK_TOKEN, Vocabulary, build_vocab, encode
from coocmap.errors import IntegrityError, NumericError, ValidationError


def brute_cooc(lines, V, m):
    """Direct pair enumeration, the oracle for count_cooc."""
    C = np.zeros((V, V))
    for line in lines:
        L = len(line)
        for i in range(L):
            for j in range(-m, m + 1):
                if j != 0 and 0 <= i + j < L:
                    C[line[i], line[i + j]] += 1
    return C


def corpus_from_ids(lines, V):
    vocab = Vocabulary((UNK_TOKEN, *[f"w{i}" for i in range(1, V)]))
    names = [[vocab.tokens[i] for i in line] for line in lines]
    return encode(names, vocab)


class TestCountCooc:
    def test_window_1_hand_enumeration(self):
        # ids [a, b, a]: a-b pairs from both ends, no a-a within one step
        enc = corpus_from_ids([[1, 2, 1]], 3)
        C = count_cooc(enc, 1).counts
        assert C[1, 2] == 2 and C[2, 1] == 2 and C[1, 1] == 0

    def test_window_2_hand_enumeration(self):
        enc = corpus_from_ids([[1, 2, 1]], 3)
        C = count_cooc(enc, 2).counts
        assert C[1, 1] == 2 and C[1, 2] == 2 and C[2, 1] == 2 and C[2, 2] == 0

    def test_single_token_all_zero(self):
        enc = corpus_from_ids([[1]], 2)
        assert not count_cooc(enc, 5).counts.any()

    def test_windows_do_not_cross_lines(self):
        one_line = corpus_from_ids([[1, 2]], 3)
        two_lines = corpus_from_ids([[1], [2]], 3)
        assert count_cooc(one_line, 5).counts[1, 2] == 1
        assert not count_cooc(two_lines, 5).counts.any()

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            count_cooc(corpus_from_ids([[1]], 2), 0)

    def test_empty_corpus_all_zero(self):
        for lines in ([], [[]], [[], []]):
            C = count_cooc(corpus_from_ids(lines, 3), 5)
            assert C.token_count == 0 and not C.counts.any()

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_corpus_no_longer_than_the_window(self, m):
        # n <= m tokens: no pair is dj >= n apart, and the loop stops at n
        rng = np.random.default_rng(m)
        for n in range(m + 1):
            ids = rng.integers(0, 4, size=n).tolist()
            for lines in ([ids], [ids[: n // 2], ids[n // 2 :]]):
                C = count_cooc(corpus_from_ids(lines, 4), m)
                np.testing.assert_array_equal(C.counts, brute_cooc(lines, 4, m))

    # windows up to 8 against lines of up to 40 tokens: some windows outlast
    # every line, so whole offsets fall into the dropped bin
    @given(
        st.lists(st.lists(st.integers(0, 5), max_size=40), max_size=8),
        st.integers(1, 8),
    )
    @settings(max_examples=100)
    def test_matches_brute_force(self, lines, m):
        enc = corpus_from_ids(lines, 6)
        C = count_cooc(enc, m)
        np.testing.assert_array_equal(C.counts, brute_cooc(lines, 6, m))
        assert np.array_equal(C.counts, C.counts.T)
        assert C.counts.sum() <= 2 * m * C.token_count

    def test_counts_are_float32(self):
        C = count_cooc(corpus_from_ids([[1, 2, 1, 3]], 4), 2)
        assert C.counts.dtype == np.float32
        np.testing.assert_array_equal(C.counts, brute_cooc([[1, 2, 1, 3]], 4, 2))

    # one word repeated n times on one line, window 5: its count with itself
    # is 2 * (5n - 15), pairs dj = 1..5 apart seen from both ends
    @pytest.mark.parametrize("n, raises", [(1_677_000, False), (1_700_000, True)])
    def test_a_count_reaching_2_to_the_24_raises_naming_its_cell(self, n, raises):
        vocab = build_vocab(["a"], 2)
        enc = encode([["a"] * n], vocab)
        a = vocab.id_of("a")
        assert (2 * (5 * n - 15) >= EXACT_COUNTS) == raises
        if not raises:
            assert count_cooc(enc, 5).counts[a, a] == 2 * (5 * n - 15)
            return
        with pytest.raises(NumericError, match=rf"count at \({a}, {a}\) reaches 16999970"):
            count_cooc(enc, 5)

    def test_shard_merge_equals_single_pass(self):
        rng = np.random.default_rng(0)
        lines = [list(rng.integers(0, 8, size=rng.integers(1, 40))) for _ in range(30)]
        full = count_cooc(corpus_from_ids(lines, 8), 3).counts
        shards = [lines[:10], lines[10:20], lines[20:]]
        merged = sum(count_cooc(corpus_from_ids(s, 8), 3).counts for s in shards)
        np.testing.assert_array_equal(full, merged)


class TestPermuteCooc:
    def test_identity(self):
        C = count_cooc(corpus_from_ids([[1, 2, 1]], 3), 2)
        np.testing.assert_array_equal(permute_cooc(C, np.arange(3)).counts, C.counts)

    def test_symmetric_2x2_invariant_under_swap(self):
        C = CoocMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), 1, "d", 4)
        np.testing.assert_array_equal(
            permute_cooc(C, np.array([1, 0])).counts, C.counts
        )

    def test_swap_hand_permutation(self):
        C = CoocMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]), 1, "d", 4)
        np.testing.assert_array_equal(
            permute_cooc(C, np.array([1, 0])).counts, np.array([[4.0, 2.0], [2.0, 1.0]])
        )

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        M = rng.random((6, 6))
        C = CoocMatrix(M + M.T, 1, "d", 10)
        pi = rng.permutation(6)
        back = permute_cooc(permute_cooc(C, pi), np.argsort(pi))
        np.testing.assert_array_equal(back.counts, C.counts)

    def test_not_a_permutation(self):
        C = CoocMatrix(np.zeros((3, 3)), 1, "d", 0)
        with pytest.raises(ValidationError):
            permute_cooc(C, np.array([0, 0, 2]))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        vocab = build_vocab(["a", "b", "a", "c"], 4)
        enc = encode([["a", "b", "a", "c"]], vocab)
        C = count_cooc(enc, 2)
        save_cooc(C, tmp_path / "c.bin")
        loaded = load_cooc(tmp_path / "c.bin", vocab)
        np.testing.assert_array_equal(loaded.counts, C.counts)
        assert loaded.window == C.window
        assert loaded.token_count == C.token_count
        assert loaded.vocab_digest == C.vocab_digest

    def test_round_trip_of_float64_counts_loads_float32(self, tmp_path):
        # the payload stays little-endian float64; loading rounds nothing,
        # because every count below 2**24 is a float32
        rng = np.random.default_rng(3)
        counts = rng.integers(0, EXACT_COUNTS, size=(5, 5)).astype(np.float64)
        counts[0, 0] = EXACT_COUNTS - 1
        save_cooc(CoocMatrix(counts, 3, "d", 9), tmp_path / "c.bin")
        raw = (tmp_path / "c.bin").read_bytes()
        assert raw.endswith(counts.astype("<f8").tobytes())
        loaded = load_cooc(tmp_path / "c.bin")
        assert loaded.counts.dtype == np.float32
        np.testing.assert_array_equal(loaded.counts, counts)
        save_cooc(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == raw

    @pytest.mark.parametrize("bad", [2.5, float(EXACT_COUNTS), -1.0])
    def test_a_value_that_is_not_an_exact_float32_count_is_named(self, tmp_path, bad):
        counts = np.ones((3, 3))
        counts[1, 2] = bad
        counts[2, 0] = 0.5  # later in row-major order: not the one named
        save_cooc(CoocMatrix(counts, 1, "d", 9), tmp_path / "c.bin")
        with pytest.raises(NumericError, match=rf"c\.bin: count {bad} at \(1, 2\) is not an exact"):
            load_cooc(tmp_path / "c.bin")

    def test_truncated_after_a_bad_value_is_an_integrity_error(self, tmp_path):
        counts = np.ones((3, 3))
        counts[0, 1] = 0.5
        save_cooc(CoocMatrix(counts, 1, "d", 9), tmp_path / "c.bin")
        raw = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(raw[:-12])
        with pytest.raises(IntegrityError, match="truncated counts for V=3: expected 72 bytes, "
                                                 "read 60"):
            load_cooc(tmp_path / "c.bin")

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        # a row of float64 at a time beside the float32 counts; a whole
        # float64 payload, or payload bytes beside a converted copy, would
        # hold 2 to 4 V^2 float32 units
        V = 1000
        C = CoocMatrix(np.ones((V, V), dtype=np.float32), 1, "d", 9)
        tracemalloc.start()
        try:
            save_cooc(C, tmp_path / "c.bin")
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_cooc(tmp_path / "c.bin")
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.counts.nbytes == V * V * 4
        assert saved < 0.1 * V * V * 4
        assert read < 1.1 * V * V * 4

    def test_digest_mismatch(self, tmp_path):
        vocab = build_vocab(["a", "b"], 3)
        enc = encode([["a", "b"]], vocab)
        save_cooc(count_cooc(enc, 1), tmp_path / "c.bin")
        other = build_vocab(["x", "y"], 3)
        with pytest.raises(IntegrityError):
            load_cooc(tmp_path / "c.bin", other)

    def test_digest_is_checked_before_the_payload(self, tmp_path):
        # a wrong vocabulary fails before its V x V counts are sized or read
        write_with_header(tmp_path / "c.bin", {**GOOD_HEADER, "V": 1_000_000})
        with pytest.raises(IntegrityError, match=r"c\.bin: vocabulary digest mismatch"):
            load_cooc(tmp_path / "c.bin", build_vocab(["x", "y"], 3))

    def test_trailing_bytes_are_an_integrity_error(self, tmp_path):
        vocab = build_vocab(["a", "b", "a", "c"], 4)
        save_cooc(count_cooc(encode([["a", "b", "a", "c"]], vocab), 2), tmp_path / "c.bin")
        with open(tmp_path / "c.bin", "ab") as f:
            f.write(bytes(8))
        with pytest.raises(IntegrityError, match=r"c\.bin: 8 trailing bytes after the 128 bytes "
                                                 r"of counts for V=4"):
            load_cooc(tmp_path / "c.bin", vocab)

    def test_header_v_other_than_the_vocabulary_size(self, tmp_path):
        # a counts file of V=2 under a 3-word vocabulary with its digest:
        # the whole alignment would run and fail in translate
        vocab = build_vocab(["a", "b"], 3)
        write_with_header(tmp_path / "c.bin", {**GOOD_HEADER, "vocab_digest": vocab.digest})
        with pytest.raises(IntegrityError, match=r"c\.bin: header V=2, but the vocabulary has "
                                                 r"3 words"):
            load_cooc(tmp_path / "c.bin", vocab)

    @pytest.mark.parametrize("cut", [8, 1])
    def test_truncated_payload(self, tmp_path, cut):
        vocab = build_vocab(["a", "b", "a", "c"], 4)
        save_cooc(count_cooc(encode([["a", "b", "a", "c"]], vocab), 2), tmp_path / "c.bin")
        raw = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(raw[:-cut])
        with pytest.raises(IntegrityError, match="truncated"):
            load_cooc(tmp_path / "c.bin", vocab)

    def test_truncated_header(self, tmp_path):
        vocab = build_vocab(["a", "b"], 3)
        save_cooc(count_cooc(encode([["a", "b"]], vocab), 1), tmp_path / "c.bin")
        raw = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(raw[:20])
        with pytest.raises(IntegrityError, match="truncated"):
            load_cooc(tmp_path / "c.bin")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_count_named_at_load(self, tmp_path, bad):
        vocab = build_vocab(["a", "b", "a", "c"], 4)
        counts = np.arange(16, dtype=np.float64).reshape(4, 4)
        counts[2, 1] = bad
        counts[3, 0] = np.nan  # later in row-major order: not the one named
        save_cooc(CoocMatrix(counts, 2, vocab.digest, 4), tmp_path / "c.bin")
        with pytest.raises(NumericError) as e:
            load_cooc(tmp_path / "c.bin", vocab)
        assert "c.bin" in str(e.value)
        assert "(2, 1)" in str(e.value)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(IntegrityError):
            load_cooc(tmp_path / "bad.bin")


GOOD_HEADER = {"V": 2, "m": 1, "token_count": 3, "vocab_digest": "t"}


def write_with_header(path, header):
    """A counts file with the given JSON header and a 2 x 2 zero payload."""
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + np.zeros(4).tobytes())


class TestMalformedHeader:
    def test_good_header_loads(self, tmp_path):
        write_with_header(tmp_path / "c.bin", GOOD_HEADER)
        assert load_cooc(tmp_path / "c.bin").counts.shape == (2, 2)

    @pytest.mark.parametrize("header, key", [
        ({k: v for k, v in GOOD_HEADER.items() if k != "V"}, "V"),
        ([2, 1, 3, "t"], None),
        ({**GOOD_HEADER, "V": "2"}, "V"),
        ({**GOOD_HEADER, "V": -2}, "V"),
        ({**GOOD_HEADER, "V": True}, "V"),
        ({**GOOD_HEADER, "V": 2.0}, "V"),
        ({**GOOD_HEADER, "m": 0}, "m"),
        ({**GOOD_HEADER, "token_count": -1}, "token_count"),
        ({**GOOD_HEADER, "vocab_digest": 7}, "vocab_digest"),
    ])
    def test_rejected_naming_file_and_key(self, tmp_path, header, key):
        write_with_header(tmp_path / "c.bin", header)
        with pytest.raises(IntegrityError) as e:
            load_cooc(tmp_path / "c.bin")
        assert "c.bin" in str(e.value)
        assert (repr(key) if key else "not an object") in str(e.value)

    def test_huge_v_without_payload_is_truncated_before_allocating(self, tmp_path):
        # 1e6 x 1e6 float32 counts would be 3.64 TiB: the size check comes first
        write_with_header(tmp_path / "c.bin", {**GOOD_HEADER, "V": 1_000_000})
        with pytest.raises(IntegrityError, match=r"c\.bin: truncated counts for V=1000000: "
                                                 r"expected 8000000000000 bytes, read 32"):
            load_cooc(tmp_path / "c.bin")

    def test_header_not_json(self, tmp_path):
        raw = b"{not json"
        (tmp_path / "c.bin").write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw)
        with pytest.raises(IntegrityError, match="c.bin: header is not JSON"):
            load_cooc(tmp_path / "c.bin")
