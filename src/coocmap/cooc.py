"""Window co-occurrence counting, permutation, and binary serialization."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .corpus import EncodedCorpus, Vocabulary
from .errors import IntegrityError, NumericError, ValidationError

MAGIC = b"COOCMAT1"

# float32 holds every integer below 2**24 exactly; counts must stay below it
EXACT_COUNTS = 2**24


@dataclass(frozen=True)
class CoocMatrix:
    """Symmetric V x V window co-occurrence counts for one vocabulary:
    float32 as counted or loaded, integers below `EXACT_COUNTS`. Every
    consumer also accepts counts of any other real dtype."""

    counts: np.ndarray  # V x V
    window: int
    vocab_digest: str
    token_count: int

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def count_cooc(corpus: EncodedCorpus, m: int) -> CoocMatrix:
    """Count pairs within m tokens on either side, never across lines.

    The counts are float32, exact while every count stays below
    `EXACT_COUNTS`: a larger count raises NumericError naming its cell.

    Besides the int32 ids, a call holds about 20 B per token (a 1-byte
    line-start flag, the 1-byte crossing masks and the int64 keys of two
    consecutive offsets) next to a V x V float32 sum of the offsets' int64
    bincount (12 B * V^2), then that sum beside the counts (8 B * V^2)."""
    if m < 1:
        raise ValidationError(f"window size must be >= 1, got {m}")
    V = corpus.vocab.size
    ids = corpus.ids
    n = ids.size
    starts = np.zeros(n + 1, dtype=bool)  # True where a new line begins
    starts[corpus.line_breaks] = True
    cross = np.zeros(n, dtype=bool)  # pair (i, i + dj) spans a line start
    dropped = V * V  # the bin crossing pairs go to, cut off the counts
    half = np.zeros(V * V, dtype=np.float32)
    for dj in range(1, m + 1):
        if dj >= n:
            break
        cross = cross[:-1] | starts[dj:n]
        keys = ids[:-dj].astype(np.int64) * V + ids[dj:]
        keys[cross] = dropped
        # exact while the sums stay below EXACT_COUNTS, checked on the total
        half += np.bincount(keys, minlength=dropped + 1)[:-1]
    half = half.reshape(V, V)
    counts = half + half.T  # each ordered pair seen from both endpoints
    peak = int(counts.argmax())
    if counts.flat[peak] >= EXACT_COUNTS:
        row, col = divmod(peak, V)
        raise NumericError(
            f"count at ({row}, {col}) reaches {counts.flat[peak]:.0f} >= 2**24, "
            "past the counts float32 holds exactly"
        )
    return CoocMatrix(
        counts=counts,
        window=m,
        vocab_digest=corpus.vocab.digest,
        token_count=n,
    )


def permute_cooc(C: CoocMatrix, pi: np.ndarray) -> CoocMatrix:
    """Relabel words: result[pi(i), pi(j)] = counts[i, j]."""
    pi = np.asarray(pi)
    V = C.size
    if pi.shape != (V,) or not np.array_equal(np.sort(pi), np.arange(V)):
        raise ValidationError("pi is not a permutation of range(V)")
    out = np.empty_like(C.counts)
    out[np.ix_(pi, pi)] = C.counts
    return replace(C, counts=out)


def save_cooc(C: CoocMatrix, path) -> None:
    """Header, then the counts as little-endian float64 in row-major order,
    converted one row at a time."""
    header = json.dumps(
        {
            "V": C.size,
            "m": C.window,
            "token_count": C.token_count,
            "vocab_digest": C.vocab_digest,
        }
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for row in C.counts:
            f.write(np.ascontiguousarray(row, dtype="<f8"))


def _read_exact(f, n: int, path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IntegrityError(f"{path}: truncated {what}: expected {n} bytes, read {len(data)}")
    return data


# header integer keys and their least valid value
_HEADER_INTS = {"V": 1, "m": 1, "token_count": 0}


def _parse_header(raw: bytes, path) -> dict:
    """The JSON header, checked key by key: IntegrityError names the bad key."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # includes UnicodeDecodeError
        raise IntegrityError(f"{path}: header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key, least in _HEADER_INTS.items():
        value = header.get(key)
        if type(value) is not int or value < least:  # bool is not an int here
            raise IntegrityError(
                f"{path}: header key {key!r} must be an integer >= {least}, got {value!r}"
            )
    if not isinstance(header.get("vocab_digest"), str):
        raise IntegrityError(
            f"{path}: header key 'vocab_digest' must be a string, "
            f"got {header.get('vocab_digest')!r}"
        )
    return header


def load_cooc(path, vocab: Vocabulary | None = None) -> CoocMatrix:
    """Read a counts file into float32 counts, one row at a time. Before the
    counts are allocated, the header, the vocabulary's digest (if one is
    given), the payload's size and the vocabulary's size are checked: a
    malformed header, a digest mismatch, a payload other than 8 V^2 bytes or
    a `V` other than the vocabulary's size raises IntegrityError naming the
    key, the mismatch or the sizes. Then the first value that is not an exact
    count below `EXACT_COUNTS` (NaN, infinite, negative, fractional or too
    large) raises NumericError naming it."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, path, "header length"))
        header = _parse_header(_read_exact(f, hlen, path, "header"), path)
        if vocab is not None and vocab.digest != header["vocab_digest"]:
            raise IntegrityError(f"{path}: vocabulary digest mismatch")
        V = header["V"]
        expected, found = 8 * V * V, os.fstat(f.fileno()).st_size - f.tell()
        if found < expected:
            raise IntegrityError(
                f"{path}: truncated counts for V={V}: expected {expected} bytes, read {found}"
            )
        if found > expected:
            raise IntegrityError(
                f"{path}: {found - expected} trailing bytes after the {expected} bytes of "
                f"counts for V={V}"
            )
        if vocab is not None and V != vocab.size:
            raise IntegrityError(f"{path}: header V={V}, but the vocabulary has {vocab.size} words")
        counts = np.empty((V, V), dtype=np.float32)
        row = np.empty(V, dtype="<f8")
        for i in range(V):
            f.readinto(row)
            # NaN fails every comparison, so it is caught as not exact
            exact = (row >= 0) & (row < EXACT_COUNTS) & (np.floor(row) == row)
            if not exact.all():
                col = int(np.argmin(exact))
                what = "non-finite count" if not np.isfinite(row[col]) else "count"
                raise NumericError(
                    f"{path}: {what} {row[col]} at ({i}, {col}) is not an exact count below 2**24"
                )
            counts[i] = row
    return CoocMatrix(
        counts=counts,
        window=header["m"],
        vocab_digest=header["vocab_digest"],
        token_count=header["token_count"],
    )
