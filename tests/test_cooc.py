import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocmap.cooc import MAGIC, CoocMatrix, count_cooc, load_cooc, permute_cooc, save_cooc
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

    @given(
        st.lists(st.lists(st.integers(0, 5), max_size=30), max_size=8),
        st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, lines, m):
        enc = corpus_from_ids(lines, 6)
        C = count_cooc(enc, m)
        np.testing.assert_array_equal(C.counts, brute_cooc(lines, 6, m))
        assert np.array_equal(C.counts, C.counts.T)
        assert C.counts.sum() <= 2 * m * C.token_count

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

    def test_digest_mismatch(self, tmp_path):
        vocab = build_vocab(["a", "b"], 3)
        enc = encode([["a", "b"]], vocab)
        save_cooc(count_cooc(enc, 1), tmp_path / "c.bin")
        other = build_vocab(["x", "y"], 3)
        with pytest.raises(IntegrityError):
            load_cooc(tmp_path / "c.bin", other)

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

    def test_header_not_json(self, tmp_path):
        raw = b"{not json"
        (tmp_path / "c.bin").write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw)
        with pytest.raises(IntegrityError, match="c.bin: header is not JSON"):
            load_cooc(tmp_path / "c.bin")
