"""Association matrices: the sqrt-and-normalize default, the classic
alternatives (marginal ratio, weighted PMI, positive PMI, centered log),
the counts' SVD word vectors, and typed pipeline steps.

An association is a V x V float32 array; word vectors are V x d float64.
Each `apply_pipeline` call runs its steps in float64 and rounds the result
to float32 once: the first step reads a float32 input as its float64 values,
so no float64 working copy of it is made. A run's association is its counts
through `CONSTRUCTOR_CHAINS[cfg.assoc]` (`build`, one call); `align.run_staged`
then truncates it (one call, if `dim` is set) and applies each stage's
remaining steps (one call per stage), so the resolved config a report
records is the provenance: the same calls on the raw counts replay any
run's matrices bitwise. No chain step takes an argument: every argument a
run passes is a field of its config, in the clip, drop and trunc steps that
`align.stage_steps` builds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .cooc import CoocMatrix
from .errors import ValidationError


class Step(NamedTuple):
    """One pipeline step: a name from the step table and its arguments,
    passed to the step exactly as given."""

    name: str
    args: tuple = ()


def _sqrt(counts: np.ndarray) -> np.ndarray:
    """The entrywise square root of the counts in float64."""
    return np.sqrt(np.asarray(counts, dtype=np.float64))


def _joint(counts: np.ndarray):
    """(p(s,i), p(s) p(i)) of the counts in float64; both zero if no count is."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    P = counts / total if total > 0 else np.zeros_like(counts)
    return P, np.outer(P.sum(axis=1), P.sum(axis=0))


def _ratio(counts: np.ndarray) -> np.ndarray:
    """p(s,i) / (p(s) p(i)); zero wherever a marginal (or the cell) is zero."""
    P, denom = _joint(counts)
    out = np.zeros_like(P)
    np.divide(P, denom, out=out, where=denom > 0)
    return out


def _weighted_pmi(counts: np.ndarray) -> np.ndarray:
    """p(s,i) * log(p(s,i) / (p(s) p(i))), with 0 log 0 := 0."""
    P, denom = _joint(counts)
    mask = (P > 0) & (denom > 0)
    out = np.zeros_like(P)
    out[mask] = P[mask] * np.log(P[mask] / denom[mask])
    return out


def _ppmi(counts: np.ndarray) -> np.ndarray:
    """max(0, log(p(s,i) / (p(s) p(i))))."""
    P, denom = _joint(counts)
    mask = (P > 0) & (denom > 0)
    out = np.zeros_like(P)
    out[mask] = np.maximum(0.0, np.log(P[mask] / denom[mask]))
    return out


def _centered_log(counts: np.ndarray) -> np.ndarray:
    """log(1+C) minus its row means, then minus the column means of that."""
    L = np.log1p(np.asarray(counts, dtype=np.float64))
    G = L - L.mean(axis=1, keepdims=True)
    return G - G.mean(axis=0, keepdims=True)


_STEPS = {
    "sqrt": _sqrt,
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
    """data through the steps in float64, rounded to float32 once; with no
    steps, data as float32 (not copied if it is float32 already). Every step
    reads a float32 input as its float64 values and returns float64, so no
    float64 working copy of data is made up front."""
    steps = tuple(steps)
    for step in steps:
        if step.name not in _STEPS:
            raise ValidationError(f"unknown pipeline step {step.name!r}")
    if not steps:
        return np.asarray(data, dtype=np.float32)
    for step in steps:
        data = _STEPS[step.name](data, *step.args)
    return data.astype(np.float32)


# canonical constructor chains, keyed by the preset-facing name
CONSTRUCTOR_CHAINS = {
    "coocmap": (Step("sqrt"), Step("normalize")),
    "log1p": (Step("log1p"), Step("normalize")),
    "rapp": (Step("ratio"), Step("unit_l1")),
    "fung": (Step("wpmi"), Step("unit_l1")),
    "ppmi": (Step("ppmi"), Step("unit_l2")),
    "glove": (Step("centered_log"), Step("unit_l2")),
}


def build(name: str, C: CoocMatrix) -> np.ndarray:
    """The float32 association of counts under a `CONSTRUCTOR_CHAINS` key
    (`AlignConfig` checks it).

    Memory, in V^2 float64 units (8 B) beyond the counts: each step's
    float64 input or copy of it beside its float64 result (2, plus the
    normalization's row blocks), then the last result beside the float32
    one (1.5)."""
    return _run_steps(C.counts, CONSTRUCTOR_CHAINS[name])


def svd_vectors(C: CoocMatrix, r: int) -> np.ndarray:
    """Left singular vectors of sqrt(counts) scaled by the top-r values."""
    if not 1 <= r <= C.size:
        raise ValidationError(f"vector dimension must be in [1, V={C.size}], got {r}")
    U, S, _ = kernels.svd(_sqrt(C.counts))
    return U[:, :r] * S[:r]


def apply_pipeline(A: np.ndarray, steps) -> np.ndarray:
    """Apply Steps left to right to an association (or raw counts) in
    float64; the result is float32, rounded once.

    The stage steps (clip, drop, trunc) hold at most 2 V^2 float64 (8 B
    units) beside a float32 input: clip its float64 copy, drop and trunc a
    scaled copy beside the Gram matrix, and a step's float64 result beside
    the next step's copy or the float32 result."""
    return _run_steps(A, steps)
