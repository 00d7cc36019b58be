import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coocmap.corpus import (
    UNK_ID,
    UNK_TOKEN,
    _READ_BYTES,
    Vocabulary,
    build_vocab,
    encode,
    take_head_bytes,
    tokenize,
)
from coocmap import bench
from coocmap.errors import ValidationError
from splits import head_text, line_blocks


def _write(tmp_path, content, name="c.txt"):
    p = tmp_path / name
    p.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return p


def _read(path, n, block_lines=1):
    """Every block `take_head_bytes` reads from the head of `path`, and the
    bytes read."""
    blocks, total = [], 0
    with open(path, "rb") as f:
        while True:
            text, size = take_head_bytes(f, n, block_lines)
            if not size:
                return blocks, total
            assert size == len(text.encode("utf-8"))
            blocks.append(text)
            total += size


class TestTakeHeadBytes:
    def test_partial_line_dropped(self, tmp_path):
        assert _read(_write(tmp_path, "ab\ncd\n"), 4) == (["ab\n"], 3)

    def test_exact_length(self, tmp_path):
        assert _read(_write(tmp_path, "ab\ncd\n"), 6) == (["ab\n", "cd\n"], 6)
        assert _read(_write(tmp_path, "ab\ncd\n"), 6, 2) == (["ab\ncd\n"], 6)

    def test_empty_budget(self, tmp_path):
        assert _read(_write(tmp_path, "ab\ncd\n"), 0) == ([], 0)

    def test_budget_past_end_of_file(self, tmp_path):
        assert _read(_write(tmp_path, "ab\ncd\n"), 10**9, 3) == (["ab\ncd\n"], 6)

    def test_last_line_without_newline_counts_at_end_of_file(self, tmp_path):
        p = _write(tmp_path, "ab\ncd")
        for n in (5, 10**9):  # the budget reaches the end of the file
            assert _read(p, n) == (["ab\n", "cd"], 5)
            assert _read(p, n, 2) == (["ab\ncd"], 5)
        assert _read(p, 4) == (["ab\n"], 3)  # a budget inside the line cuts it

    def test_crlf_line_kept_whole(self, tmp_path):
        p = _write(tmp_path, "a b\r\nc\r\n")
        assert _read(p, 10**9) == (["a b\r\n", "c\r\n"], 8)
        assert _read(p, 7) == (["a b\r\n"], 5)  # the budget cuts before c's newline

    def test_budget_inside_a_character_drops_its_line(self, tmp_path):
        p = _write(tmp_path, "a\n\u00e9\u65e5\n")  # é is 2 bytes, 日 3
        for n in range(2, 7):
            assert _read(p, n) == (["a\n"], 2)
        assert _read(p, 8) == (["a\n", "\u00e9\u65e5\n"], 8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError) as e:
            bench.build_sides(tmp_path / "nope.txt", 10, bench.BenchConfig())
        assert "nope.txt" in str(e.value)

    def test_negative_budget(self, tmp_path):
        with pytest.raises(ValidationError):
            _read(_write(tmp_path, "x\n"), -1)

    @pytest.mark.parametrize("block_lines", [0, -1])
    def test_block_lines_below_one(self, tmp_path, block_lines):
        with pytest.raises(ValidationError, match="block_lines must be >= 1"):
            _read(_write(tmp_path, "x\n"), 2, block_lines)

    def test_invalid_utf8_reports_offset(self, tmp_path):
        p = _write(tmp_path, b"ok\n\xff\xfe\n")
        with pytest.raises(UnicodeDecodeError) as e:
            _read(p, 100)
        assert e.value.start == 3

    def test_invalid_utf8_in_a_later_block_reports_file_offset(self, tmp_path):
        p = _write(tmp_path, b"ab\ncd\nef\ng\xffh\n")
        with pytest.raises(UnicodeDecodeError) as e:
            _read(p, 100, 2)
        assert (e.value.start, e.value.end) == (10, 11)

    def test_invalid_utf8_after_the_budget_is_not_read(self, tmp_path):
        p = _write(tmp_path, b"ab\ncd\n\xff\n")
        assert _read(p, 6) == (["ab\n", "cd\n"], 6)
        assert _read(p, 7) == (["ab\n", "cd\n"], 6)  # the budget cuts \xff's line

    @given(st.lists(st.text(alphabet="abc é", max_size=8), max_size=6))
    def test_prefix_property(self, lines):
        import tempfile

        content = "".join(line.replace("\n", " ") + "\n" for line in lines)
        raw = content.encode("utf-8")
        with tempfile.NamedTemporaryFile(suffix=".txt") as f:
            f.write(raw)
            f.flush()
            for n in range(0, len(raw) + 2):
                blocks, size = _read(f.name, n)
                head = "".join(blocks).encode("utf-8")
                assert size == len(head)
                # the lines that end within the budget, or the whole file
                assert head == (raw if n >= len(raw) else raw[: raw.rfind(b"\n", 0, n) + 1])

    @given(st.lists(st.sampled_from(["a", "\u00e9", "\u65e5", " ", "\r", "\n", "\n"]), max_size=30),
           st.integers(0, 80), st.integers(1, 4), st.booleans())
    @example(["a", "\n", "\u65e5", "\n"], 4, 1, True)
    @example(["a", "\n", "a", "\n", "a", "\n", "a"], 7, 2, False)
    def test_blocks_equal_whole_head_cut_into_lines(self, pieces, n, block_lines, bad_tail):
        """The blocks and bytes read equal the whole head read at once, cut
        into blocks of lines, for any budget: inside a line, inside a
        character, or past the end of a file whose last line may lack its
        newline and whose bytes may turn invalid after the head."""
        import tempfile

        raw = "".join(pieces).encode("utf-8")
        if bad_tail and n <= len(raw):  # invalid UTF-8 past the budget is never decoded
            raw = raw[:n] + b"\xff\xfe\n"
        with tempfile.NamedTemporaryFile(suffix=".txt") as f:
            f.write(raw)
            f.flush()
            text, size = head_text(f.name, n)
            assert _read(f.name, n, block_lines) == (line_blocks(text, block_lines), size)

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    def test_lines_longer_than_a_read(self, tmp_path, block_lines):
        """Lines that span several reads still form blocks that equal the
        whole head cut into lines, for budgets inside a line, on a newline
        and past the end of the file."""
        R = _READ_BYTES
        lengths = [2 * R + 5, R, 3, 3 * R + 1, R - 1]  # each with its newline
        raw = b"".join(b"abcde"[i : i + 1] * (k - 1) + b"\n" for i, k in enumerate(lengths))
        p = _write(tmp_path, raw)
        for n in (R // 2, 2 * R + 5, 3 * R + 4, 3 * R + 9, len(raw) - 1, len(raw), 10**9):
            text, size = head_text(p, n)
            assert _read(p, n, block_lines) == (line_blocks(text, block_lines), size)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The CAT  sat") == [["the", "cat", "sat"]]

    def test_empty(self):
        assert tokenize("") == []

    def test_line_structure_kept(self):
        assert tokenize("A b\nc") == [["a", "b"], ["c"]]

    def test_interior_empty_line(self):
        assert tokenize("a\n\nb\n") == [["a"], [], ["b"]]

    def test_punctuation_retained(self):
        assert tokenize("don't stop, now.") == [["don't", "stop,", "now."]]


class TestBuildVocab:
    def test_frequency_order(self):
        assert build_vocab(["a", "b", "a"], 3).tokens == (UNK_TOKEN, "a", "b")

    def test_truncation(self):
        assert build_vocab(["a", "b", "a"], 2).tokens == (UNK_TOKEN, "a")

    def test_tie_broken_by_first_occurrence(self):
        assert build_vocab(["x", "y"], 3).tokens == (UNK_TOKEN, "x", "y")
        assert build_vocab(["y", "x"], 3).tokens == (UNK_TOKEN, "y", "x")

    def test_empty_stream(self):
        assert build_vocab([], 5).tokens == (UNK_TOKEN,)

    def test_v_max_validation(self):
        with pytest.raises(ValidationError):
            build_vocab(["a"], 0)

    @given(st.lists(st.sampled_from("abcdefg"), max_size=60), st.integers(0, 2**32 - 1))
    def test_permutation_stable_for_unique_frequencies(self, tokens, seed):
        """Shuffling the stream must not move tokens whose count is unique."""
        from collections import Counter

        v1 = build_vocab(tokens, 8)
        shuffled = list(tokens)
        random.Random(seed).shuffle(shuffled)
        v2 = build_vocab(shuffled, 8)
        counts = Counter(tokens)
        freq_of_freq = Counter(counts.values())
        for tok, c in counts.items():
            if freq_of_freq[c] == 1 and tok in v1:
                assert v1.id_of(tok) == v2.id_of(tok)


class TestEncode:
    def test_unk_mapping(self):
        vocab = Vocabulary((UNK_TOKEN, "a"))
        assert encode([["a", "z"]], vocab).ids.tolist() == [1, 0]

    def test_empty(self):
        vocab = Vocabulary((UNK_TOKEN, "a"))
        assert encode([], vocab).ids.tolist() == []

    def test_repeats(self):
        vocab = Vocabulary((UNK_TOKEN, "a"))
        assert encode([["a", "a"]], vocab).ids.tolist() == [1, 1]

    def test_line_breaks_strictly_increasing(self):
        vocab = Vocabulary((UNK_TOKEN, "a"))
        enc = encode([["a"], [], ["a", "a"], []], vocab)
        assert enc.line_breaks.tolist() == [1, 3]

    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=5), max_size=8))
    def test_round_trip_in_vocab(self, lines):
        flat = [tok for line in lines for tok in line]
        vocab = build_vocab(flat, 10)
        enc = encode(lines, vocab)
        # every token is in-vocab here
        assert [vocab.tokens[i] for i in enc.ids] == flat


def _encode_oracle(lines, vocab):
    """The per-token loop the vectorised encode replaced, with its own
    token -> id lookup."""
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    ids: list[int] = []
    breaks: list[int] = []
    for line in lines:
        ids.extend(index.get(tok, 0) for tok in line)
        if line:
            breaks.append(len(ids))
    return np.asarray(ids, dtype=np.int32), np.asarray(breaks, dtype=np.int64)


def _vocab_oracle(lines, v_max):
    """[UNK] plus the most frequent tokens, ties by first occurrence."""
    counts: dict[str, int] = {}
    for line in lines:
        for tok in line:
            if tok != UNK_TOKEN:
                counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts, key=lambda tok: -counts[tok])  # stable
    return (UNK_TOKEN, *ranked[: v_max - 1])


# non-ASCII letters, a literal [UNK], and Unicode whitespace that split() cuts on
_PIECES = ["a", "b", "é", "ß", "日", UNK_TOKEN, " ", "\u00a0", "\u2003", "\u3000", "\t", "\n"]
# tokens handed straight to encode may hold whitespace themselves
_RAW_TOKEN = st.text(alphabet="ab\u00e9\u2003\u00a0 ", max_size=3) | st.just(UNK_TOKEN)


class TestEncodeEquivalence:
    def _check(self, lines, v_max):
        vocab = build_vocab(chain.from_iterable(lines), v_max)
        assert vocab.tokens == _vocab_oracle(lines, v_max)
        enc = encode(lines, vocab)
        ids, breaks = _encode_oracle(lines, vocab)
        assert enc.ids.dtype == ids.dtype == np.int32
        assert enc.line_breaks.dtype == breaks.dtype == np.int64
        assert np.array_equal(enc.ids, ids)
        assert np.array_equal(enc.line_breaks, breaks)

    @given(st.lists(st.sampled_from(_PIECES), max_size=40), st.integers(1, 6))
    @example([], 3)
    @example(["\n", "\n", "a", "\n", "\n"], 2)
    def test_tokenized_text(self, pieces, v_max):
        self._check(tokenize("".join(pieces)), v_max)

    @given(st.lists(st.lists(_RAW_TOKEN, max_size=5), max_size=8), st.integers(1, 6))
    @example([], 1)
    @example([[], ["a"], [], [UNK_TOKEN, "zz"], []], 2)
    def test_token_lists(self, lines, v_max):
        self._check(lines, v_max)


class TestVocabulary:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["b", "a", "b"], 5)
        vocab.save(tmp_path / "v.txt")
        loaded = Vocabulary.load(tmp_path / "v.txt")
        assert loaded == vocab
        assert loaded.digest == vocab.digest

    def test_unk_must_lead(self):
        with pytest.raises(ValidationError):
            Vocabulary(("a", UNK_TOKEN))

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValidationError):
            Vocabulary((UNK_TOKEN, "a", "a"))

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary((UNK_TOKEN, "a"))
        assert vocab.id_of("missing") == UNK_ID == 0
