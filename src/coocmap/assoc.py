"""Association matrices: the sqrt-and-normalize default, the classic
alternatives (marginal ratio, weighted PMI, positive PMI, centered log),
vector import/export, and typed pipeline steps.

Associations and word vectors are plain float64 arrays: V x V for an
association, V x d for vectors. A run's association is its counts through
`CONSTRUCTOR_CHAINS[cfg.assoc]`, then `align.stage_steps(cfg, stage2)` for
each stage, so the resolved config a report records is the provenance:
`apply_pipeline` on the raw counts replays any chain bitwise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .cooc import CoocMatrix
from .corpus import Vocabulary
from .errors import ValidationError


class Step(NamedTuple):
    """One pipeline step: a name from the step table and its arguments,
    passed to the step exactly as given."""

    name: str
    args: tuple = ()


def _marginals(counts: np.ndarray):
    total = counts.sum()
    P = counts / total if total > 0 else np.zeros_like(counts)
    return P, P.sum(axis=1), P.sum(axis=0)


def _ratio(counts: np.ndarray) -> np.ndarray:
    """p(s,i) / (p(s) p(i)); zero wherever a marginal (or the cell) is zero."""
    P, ps, pi = _marginals(counts)
    denom = np.outer(ps, pi)
    out = np.zeros_like(P)
    np.divide(P, denom, out=out, where=denom > 0)
    return out


def _weighted_pmi(counts: np.ndarray) -> np.ndarray:
    """p(s,i) * log(p(s,i) / (p(s) p(i))), with 0 log 0 := 0."""
    P, ps, pi = _marginals(counts)
    denom = np.outer(ps, pi)
    mask = (P > 0) & (denom > 0)
    out = np.zeros_like(P)
    out[mask] = P[mask] * np.log(P[mask] / denom[mask])
    return out


def _ppmi(counts: np.ndarray, k: float) -> np.ndarray:
    """max(0, log(p(s,i) / (p(s) p(i))) - log k)."""
    if k <= 0:
        raise ValidationError(f"ppmi shift must be > 0, got {k}")
    P, ps, pi = _marginals(counts)
    denom = np.outer(ps, pi)
    mask = (P > 0) & (denom > 0)
    out = np.zeros_like(P)
    out[mask] = np.maximum(0.0, np.log(P[mask] / denom[mask]) - np.log(k))
    return out


def _centered_log(counts: np.ndarray) -> np.ndarray:
    """log(1+C) minus its row means, then minus the column means of that."""
    L = np.log1p(counts)
    G = L - L.mean(axis=1, keepdims=True)
    return G - G.mean(axis=0, keepdims=True)


_STEPS = {
    "epow": kernels.epow,
    "log1p": lambda X: np.log1p(np.asarray(X, dtype=np.float64)),
    "ratio": _ratio,
    "wpmi": _weighted_pmi,
    "ppmi": _ppmi,
    "centered_log": _centered_log,
    "normalize": kernels.normalize,
    "unit_l1": kernels.unitr_l1,
    "unit_l2": kernels.unitr,
    "clip": kernels.clip,
    "drop": kernels.drop_head,
    "trunc": kernels.trunc,
}


def _run_steps(data, steps) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    for step in steps:
        if step.name not in _STEPS:
            raise ValidationError(f"unknown pipeline step {step.name!r}")
        data = _STEPS[step.name](data, *step.args)
    return data


# canonical constructor chains, keyed by the preset-facing name
CONSTRUCTOR_CHAINS = {
    "coocmap": (Step("epow", (0.5,)), Step("normalize")),
    "log1p": (Step("log1p"), Step("normalize")),
    "rapp": (Step("ratio"), Step("unit_l1")),
    "fung": (Step("wpmi"), Step("unit_l1")),
    "ppmi": (Step("ppmi", (1.0,)), Step("unit_l2")),
    "glove": (Step("centered_log"), Step("unit_l2")),
}


def build(name: str, C: CoocMatrix) -> np.ndarray:
    """Construct the named association matrix from co-occurrence counts."""
    if name not in CONSTRUCTOR_CHAINS:
        raise ValidationError(
            f"unknown association {name!r}, expected one of {sorted(CONSTRUCTOR_CHAINS)}"
        )
    return _run_steps(C.counts, CONSTRUCTOR_CHAINS[name])


def assoc_from_vectors(Xv: np.ndarray) -> np.ndarray:
    """normalize((Xv Xv^T)^(1/2)): word vectors lifted to association space."""
    return kernels.normalize(kernels.psd_sqrt_gram(Xv))


def svd_vectors(C: CoocMatrix, r: int = 300) -> np.ndarray:
    """Left singular vectors of sqrt(counts) scaled by the top-r values."""
    if r < 1:
        raise ValidationError(f"vector dimension must be >= 1, got {r}")
    f = kernels.svd(kernels.epow(C.counts, 0.5))
    r = min(r, f.S.size)
    return f.U[:, :r] * f.S[:r]


def apply_pipeline(A: np.ndarray, steps) -> np.ndarray:
    """Apply Steps left to right to an association (or raw counts)."""
    return _run_steps(A, steps)


def save_vectors(Xv: np.ndarray, vocab: Vocabulary, path) -> None:
    """Text format: header "V d", then one "token v1 ... vd" line per word."""
    V, d = Xv.shape
    if V != vocab.size:
        raise ValidationError(f"vectors have {V} rows but vocabulary has {vocab.size}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{V} {d}\n")
        for tok, row in zip(vocab.tokens, Xv):
            f.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")


def load_vectors(path, vocab: Vocabulary):
    """Read vectors aligned to the given vocabulary.

    File words outside the vocabulary are skipped; vocabulary words missing
    from the file keep zero vectors and are returned for reporting.
    """
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValidationError(f"{path}:1: expected header 'V d'")
        _, d = (int(x) for x in header)
        data = np.zeros((vocab.size, d))
        seen = np.zeros(vocab.size, dtype=bool)
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise ValidationError(f"{path}:{lineno}: expected 1 token + {d} values")
            wid = vocab.id_of(parts[0])
            if wid == vocab.unk_id and parts[0] != vocab.tokens[vocab.unk_id]:
                continue  # word not in the current vocabulary
            data[wid] = [float(x) for x in parts[1:]]
            seen[wid] = True
    missing = [tok for tok, s in zip(vocab.tokens, seen) if not s]
    return data, missing
