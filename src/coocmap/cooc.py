"""Window co-occurrence counting, permutation, and binary serialization."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .corpus import EncodedCorpus, Vocabulary
from .errors import IntegrityError, NumericError, ValidationError

MAGIC = b"COOCMAT1"


@dataclass(frozen=True)
class CoocMatrix:
    """Symmetric V x V window co-occurrence counts for one vocabulary."""

    counts: np.ndarray  # float64, V x V
    window: int
    vocab_digest: str
    token_count: int

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def count_cooc(corpus: EncodedCorpus, m: int = 5) -> CoocMatrix:
    """Count pairs within m tokens on either side, never across lines.

    Besides the int32 ids, a call holds about 20 B per token (a 1-byte
    line-start flag, the 1-byte crossing masks and the int64 keys of two
    consecutive offsets) next to two V x V float64 buffers and an int64
    bincount."""
    if m < 1:
        raise ValidationError(f"window size must be >= 1, got {m}")
    V = corpus.vocab.size
    ids = corpus.ids
    n = ids.size
    starts = np.zeros(n + 1, dtype=bool)  # True where a new line begins
    starts[corpus.line_breaks] = True
    cross = np.zeros(n, dtype=bool)  # pair (i, i + dj) spans a line start
    dropped = V * V  # the bin crossing pairs go to, cut off the counts
    half = np.zeros(V * V, dtype=np.float64)
    for dj in range(1, m + 1):
        if dj >= n:
            break
        cross = cross[:-1] | starts[dj:n]
        keys = ids[:-dj].astype(np.int64) * V + ids[dj:]
        keys[cross] = dropped
        half += np.bincount(keys, minlength=dropped + 1)[:-1]
    half = half.reshape(V, V)
    counts = half + half.T  # each ordered pair seen from both endpoints
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
        f.write(np.ascontiguousarray(C.counts, dtype="<f8").tobytes())


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
    """Read a counts file; if a vocabulary is given, verify its digest.
    A malformed header raises IntegrityError naming the key; NaN or infinite
    counts raise NumericError naming the first one."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, path, "header length"))
        header = _parse_header(_read_exact(f, hlen, path, "header"), path)
        V = header["V"]
        payload = _read_exact(f, V * V * 8, path, f"counts for V={V}")
        data = np.frombuffer(payload, dtype="<f8").reshape(V, V)
    if vocab is not None and vocab.digest != header["vocab_digest"]:
        raise IntegrityError(f"{path}: vocabulary digest mismatch")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        row, col = divmod(int(bad[0]), V)
        raise NumericError(f"{path}: non-finite count {data[row, col]} at ({row}, {col})")
    return CoocMatrix(
        counts=data.astype(np.float64),
        window=header["m"],
        vocab_digest=header["vocab_digest"],
        token_count=header["token_count"],
    )
