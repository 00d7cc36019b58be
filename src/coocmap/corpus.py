"""Corpus ingestion: byte slicing, tokenization, vocabularies, id encoding."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

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

    @property
    def unk_id(self) -> int:
        return UNK_ID

    def id_of(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

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
        return cls(tuple(tokens))


@dataclass(frozen=True)
class EncodedCorpus:
    """Token ids plus the positions where input lines ended."""

    ids: np.ndarray  # int32
    line_breaks: np.ndarray  # cumulative end offsets, strictly increasing
    vocab: Vocabulary


def take_head_bytes(path, n: int) -> str:
    """First n bytes of the file, truncated back to the last complete line."""
    if n < 0:
        raise ValidationError(f"byte budget must be >= 0, got {n}")
    with open(path, "rb") as f:
        head = f.read(n)
    cut = head.rfind(b"\n")
    head = head[: cut + 1] if cut >= 0 else b""
    return head.decode("utf-8")


def tokenize(text: str) -> list[list[str]]:
    """Lowercase and split each line on runs of whitespace.

    A trailing newline terminates the last line rather than opening an
    empty one; interior empty lines are kept as empty token lists.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.lower().split() for line in lines]


def build_vocab(tokens: Iterable[str], v_max: int) -> Vocabulary:
    """[UNK] plus the v_max - 1 most frequent tokens, ties by first occurrence."""
    if v_max < 1:
        raise ValidationError(f"v_max must be >= 1, got {v_max}")
    counts = Counter(tokens)
    counts.pop(UNK_TOKEN, None)
    # Counter preserves insertion order, and most_common is a stable sort,
    # so equal counts keep first-occurrence order.
    ranked = [tok for tok, _ in counts.most_common(v_max - 1)]
    return Vocabulary((UNK_TOKEN, *ranked))


def encode(lines: list[list[str]], vocab: Vocabulary) -> EncodedCorpus:
    """Map tokens to ids (OOV -> unk) and record line end positions."""
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    ids = np.fromiter(
        map(vocab._index.__getitem__, chain.from_iterable(lines)),
        np.int32,
        int(lengths.sum()),
    )
    return EncodedCorpus(
        ids=ids,
        line_breaks=np.cumsum(lengths)[lengths > 0],
        vocab=vocab,
    )
