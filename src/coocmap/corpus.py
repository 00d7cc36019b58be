"""Corpus ingestion: byte slicing, tokenization, vocabularies, id encoding.

A corpus is read one block of lines at a time (`take_head_bytes`): a byte
budget takes the lines that end within it, and the file's last line, with
or without a newline, once it reaches the end of the file. Each block is
decoded, tokenized and encoded against a growing `TypeIndex`, then dropped,
so one block's bytes, text and token strings are alive at a time, never the
whole budget. The side's vocabulary is then ranked from the type counts and
the type ids are relabelled to vocabulary ids in one array lookup; the
result equals `encode(tokenize(text), build_vocab(...))` of the side's
whole text.

Memory of ingesting T tokens, with T_block tokens in the largest block and
D distinct tokens: one block's bytes, text and token strings (about 80 B
per token of it, plus up to 64 KiB read past its end), 4 B per token as
type ids, 8 B more per token while a side is relabelled, and about 100 B
per distinct token for the type index: at most about 12 B * T +
80 B * T_block + 100 B * D, whatever the byte budget. `bench.build_sides`
states what counting adds."""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

UNK_TOKEN = "[UNK]"
UNK_ID = 0


class _TokenIndex(dict):
    """token -> id; a missing token maps to the unk id."""

    def __missing__(self, token):
        return UNK_ID


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token list; index is the token id, id 0 is [UNK]."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) < 1 or self.tokens[0] != UNK_TOKEN:
            raise ValidationError("vocabulary must start with %r at id 0" % UNK_TOKEN)
        index = _TokenIndex((tok, i) for i, tok in enumerate(self.tokens))
        if len(index) != len(self.tokens):
            raise ValidationError("vocabulary tokens must be unique")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    @property
    def digest(self) -> str:
        blob = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        if not tokens:
            raise ValidationError(f"empty vocabulary file: {path}")
        first: dict[str, int] = {}  # line of each token
        for lineno, tok in enumerate(tokens, start=1):
            if tok in first:
                raise ValidationError(
                    f"{path}:{lineno}: vocabulary tokens must be unique; {tok!r} is also on "
                    f"line {first[tok]}"
                )
            first[tok] = lineno
        try:
            return cls(tuple(tokens))
        except ValidationError as e:  # the constructor's own check, named by the file
            raise ValidationError(f"{path}: {e}") from None


class TypeIndex(dict):
    """token -> type id in order of first occurrence, for encoding text whose
    vocabulary is not known yet: looking up a new token gives it the next
    id. Id 0 is [UNK], as in a Vocabulary, so a literal [UNK] token encodes
    to the unk id either way."""

    def __init__(self):
        super().__init__({UNK_TOKEN: UNK_ID})

    def __missing__(self, token):
        self[token] = n = len(self)
        return n

    def counts(self, parts: Sequence["EncodedCorpus"]) -> dict[str, int]:
        """token -> occurrences in `parts` (encoded against this index), in
        first-seen order: what `build_vocab` ranks."""
        n = np.bincount(_joined([p.ids for p in parts], np.int32), minlength=len(self))
        return dict(zip(self, n.tolist()))

    def relabel(self, parts: Sequence["EncodedCorpus"], vocab: Vocabulary) -> "EncodedCorpus":
        """Consecutive `parts` encoded against this index, joined and encoded
        against `vocab` by one array lookup: a type outside it maps to unk."""
        lut = np.full(len(self), UNK_ID, dtype=np.int32)
        lut[[self[tok] for tok in vocab.tokens]] = np.arange(vocab.size, dtype=np.int32)
        starts = np.cumsum([0] + [p.ids.size for p in parts])
        return EncodedCorpus(
            ids=lut[_joined([p.ids for p in parts], np.int32)],
            line_breaks=_joined([p.line_breaks + s for p, s in zip(parts, starts)], np.int64),
            vocab=vocab,
        )


@dataclass(frozen=True)
class EncodedCorpus:
    """Token ids plus the positions where input lines ended. The ids index
    `vocab`: a Vocabulary, or the TypeIndex a block was encoded against."""

    ids: np.ndarray  # int32
    line_breaks: np.ndarray  # int64 cumulative end offsets, strictly increasing
    vocab: Vocabulary | TypeIndex


def _joined(arrays: Iterable[np.ndarray], dtype) -> np.ndarray:
    """The arrays concatenated; empty of `dtype` when there are none."""
    return np.concatenate([np.empty(0, dtype), *arrays])


_READ_BYTES = 1 << 16  # bytes per read of a block; a block overshoots by less


def take_head_bytes(f, n: int, block_lines: int) -> tuple[str, int]:
    """The next block of the head of the binary file `f`: up to
    `block_lines` complete lines from its position that end within the
    file's first `n` bytes, decoded, and the block's length in bytes; ("", 0)
    once the head is read. A line ends at its newline, or at the end of the
    file when `n` reaches it. Called until it returns 0, it reads the first
    `n` bytes cut back to their last newline (all of them, if they are the
    whole file), in consecutive blocks of `block_lines` lines (only the last
    may be shorter). It leaves `f` at the end of the block; no byte past the
    head is read, and none past the block is decoded. A decoding error's
    `start` and `end` are file offsets."""
    if n < 0:
        raise ValidationError(f"byte budget must be >= 0, got {n}")
    if block_lines < 1:
        raise ValidationError(f"block_lines must be >= 1, got {block_lines}")
    start, head, newlines = f.tell(), bytearray(), 0
    while newlines < block_lines:
        chunk = f.read(max(min(_READ_BYTES, n - start - len(head)), 0))
        if not chunk:
            break
        head += chunk
        newlines += chunk.count(b"\n")
    ends = np.flatnonzero(np.frombuffer(head, np.uint8) == ord("\n"))[:block_lines]
    size = int(ends[-1]) + 1 if ends.size else 0
    if ends.size < block_lines and start + len(head) == os.fstat(f.fileno()).st_size:
        size = len(head)  # the budget reaches the end of the file: its last line counts
    f.seek(start + size)
    try:
        return str(memoryview(head)[:size], "utf-8"), size
    except UnicodeDecodeError as e:
        e.start += start
        e.end += start
        raise


def tokenize(text: str) -> list[list[str]]:
    """Lowercase and split each line on runs of whitespace.

    A trailing newline terminates the last line rather than opening an
    empty one; interior empty lines are kept as empty token lists.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.lower().split() for line in lines]


def build_vocab(tokens: Iterable[str] | Mapping[str, int], v_max: int) -> Vocabulary:
    """[UNK] plus the v_max - 1 most frequent tokens, ties by first occurrence.
    `tokens` is a token stream, or a token -> count mapping in first-seen
    order (`TypeIndex.counts`), which ranks the same."""
    if v_max < 1:
        raise ValidationError(f"v_max must be >= 1, got {v_max}")
    counts = Counter(tokens)
    counts.pop(UNK_TOKEN, None)
    # Counter preserves insertion order, and most_common is a stable sort,
    # so equal counts keep first-occurrence order.
    ranked = [tok for tok, _ in counts.most_common(v_max - 1)]
    return Vocabulary((UNK_TOKEN, *ranked))


def encode(lines: list[list[str]], vocab: Vocabulary | TypeIndex) -> EncodedCorpus:
    """Map tokens to ids and record line end positions. Against a Vocabulary
    an OOV token maps to unk; a TypeIndex adds it with the next type id."""
    index = vocab._index if isinstance(vocab, Vocabulary) else vocab
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    ids = np.fromiter(
        map(index.__getitem__, chain.from_iterable(lines)),
        np.int32,
        int(lengths.sum()),
    )
    return EncodedCorpus(
        ids=ids,
        line_breaks=np.cumsum(lengths)[lengths > 0],
        vocab=vocab,
    )
