"""Dense-matrix primitives: normalization chain, percentile clipping, rank
surgery (rank-r truncation and head-drop by projection onto the top
eigenvectors of the smaller Gram matrix), similarity matrices, and
orthogonal Procrustes.

Everything here is a pure function of float64 arrays; inputs are never
mutated. The cdist metrics (neg_l1, neg_l2) take C-contiguous rows: scipy
walks each row in turn, so a column-major operand costs a strided read per
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.spatial.distance import cdist

from .errors import NumericError, ValidationError

METRICS = ("cosine", "dot", "neg_l2", "neg_l1")

# rows whose l2 norm falls below this are measured at a rescaled copy
_TINY_NORM = 1e-100


def epow(X: np.ndarray, alpha: float) -> np.ndarray:
    """Entrywise power X[i,j] ** alpha."""
    X = np.asarray(X, dtype=np.float64)
    if alpha != int(alpha) and np.any(X < 0):
        raise ValidationError("fractional power of a matrix with negative entries")
    return X**alpha


def unitr(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit l2 norm; all-zero rows stay zero."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    # below ~1e-154 the squares go subnormal or to zero and the norm loses
    # its digits; such rows take it from a copy scaled by their largest entry
    tiny = norms[:, 0] < _TINY_NORM
    if tiny.any():
        peak = np.max(np.abs(X[tiny]), axis=1, keepdims=True, initial=0.0)
        peak[peak == 0.0] = 1.0
        norms[tiny] = peak * np.linalg.norm(X[tiny] / peak, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return X / norms


def unitr_l1(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit l1 mass; all-zero rows stay zero."""
    X = np.asarray(X, dtype=np.float64)
    mass = np.sum(np.abs(X), axis=1, keepdims=True)
    mass[mass == 0.0] = 1.0
    return X / mass


def centerc(X: np.ndarray) -> np.ndarray:
    """Subtract the column means so every column averages to zero."""
    X = np.asarray(X, dtype=np.float64)
    return X - X.mean(axis=0, keepdims=True)


def normalize(X: np.ndarray) -> np.ndarray:
    """unitr(centerc(unitr(X))), in exactly that order."""
    return unitr(centerc(unitr(X)))


def clip_thresholds(X: np.ndarray, p_lo: float = 1.0, p_hi: float = 99.0):
    """Two-stage percentile thresholds: per-row percentiles, then the same
    percentile over the row statistics, so no single row dominates."""
    if not (0.0 <= p_lo < p_hi <= 100.0):
        raise ValidationError(f"need 0 <= p_lo < p_hi <= 100, got ({p_lo}, {p_hi})")
    X = np.asarray(X, dtype=np.float64)
    row_lo, row_hi = np.percentile(X, [p_lo, p_hi], axis=1)
    return float(np.percentile(row_lo, p_lo)), float(np.percentile(row_hi, p_hi))


def clip(X: np.ndarray, p_lo: float = 1.0, p_hi: float = 99.0) -> np.ndarray:
    """Limit every entry to the two-stage percentile thresholds."""
    lo, hi = clip_thresholds(X, p_lo, p_hi)
    return np.clip(np.asarray(X, dtype=np.float64), lo, hi)


@dataclass(frozen=True)
class SvdFactors:
    U: np.ndarray  # rows x k, orthonormal columns
    S: np.ndarray  # k, nonincreasing
    Vt: np.ndarray  # k x cols, orthonormal rows


def svd(X: np.ndarray) -> SvdFactors:
    """Thin SVD with a deterministic sign convention: in each column of U
    the largest-magnitude entry (first on ties) is made nonnegative."""
    X = np.asarray(X, dtype=np.float64)
    try:
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"SVD failed to converge on {X.shape} matrix") from e
    lead = np.abs(U).argmax(axis=0)
    signs = np.sign(U[lead, np.arange(U.shape[1])])
    signs[signs == 0.0] = 1.0
    return SvdFactors(U=U * signs, S=S, Vt=Vt * signs[:, None])


def trunc(X: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation (tail removal) of an m x n matrix.

    Projects X onto the top-r eigenvectors Q of its smaller Gram matrix:
    Q (Q^T X) with G = X X^T when m <= n, (X Q) Q^T with G = X^T X when
    m > n. The projection needs no sign convention and does not depend on
    the basis chosen inside a repeated or null eigenvalue. Extra memory is
    one min(m, n)^2 Gram matrix (plus a scaled copy of X while it is formed)
    and a min(m, n) x r basis, instead of a full SVD's U and V^T. The Gram
    matrix squares the spectrum, so the error is about
    eps * sigma_1^2 / (sigma_r - sigma_{r+1}) rather than the SVD's
    eps * sigma_1: the same to working precision unless the top r directions
    barely separate from the rest. Raises NumericError on NaN/inf entries or
    if the eigensolver fails.
    """
    if r < 0:
        raise ValidationError(f"rank must be >= 0, got {r}")
    X = np.asarray(X, dtype=np.float64)
    peak = max(X.max(), -X.min()) if X.size else 0.0
    if not np.isfinite(peak):
        raise NumericError(f"non-finite entries in {X.shape} matrix to truncate")
    tall = X.shape[0] > X.shape[1]
    k = min(X.shape)
    r = min(r, k)
    if r == 0:
        return np.zeros_like(X)
    # squaring the entries must not underflow or overflow: scale by a power
    # of two (exact) so the largest magnitude lies in [0.5, 1)
    Xs = np.ldexp(X, -int(np.frexp(peak)[1]))
    G = Xs.T @ Xs if tall else Xs @ Xs.T
    del Xs
    try:
        Q = linalg.eigh(G, subset_by_index=[k - r, k - 1], overwrite_a=True)[1]
    except (np.linalg.LinAlgError, ValueError) as e:
        raise NumericError(f"eigendecomposition failed on {X.shape} matrix") from e
    return (X @ Q) @ Q.T if tall else Q @ (Q.T @ X)


def drop_head(X: np.ndarray, r: int) -> np.ndarray:
    """Remove the top-r singular directions: X minus its rank-r approximation,
    computed by `trunc` (same method and extra memory, plus the result)."""
    X = np.asarray(X, dtype=np.float64)
    return X - trunc(X, r)


def psd_sqrt_gram(Xv: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of the gram matrix: U S U^T for Xv = U S Vt."""
    f = svd(Xv)
    return (f.U * f.S) @ f.U.T


def sim_matrix(X: np.ndarray, Z: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Pairwise row similarities, higher = more similar.

    cosine treats all-zero rows as similarity 0 to everything.
    """
    X = np.asarray(X, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if X.shape[1] != Z.shape[1]:
        raise ValidationError(f"row width mismatch: {X.shape} vs {Z.shape}")
    if metric == "cosine":
        return unitr(X) @ unitr(Z).T
    if metric == "dot":
        return X @ Z.T
    if metric in ("neg_l2", "neg_l1"):
        name = "euclidean" if metric == "neg_l2" else "cityblock"
        return -cdist(np.ascontiguousarray(X), np.ascontiguousarray(Z), metric=name)
    raise ValidationError(f"unknown metric {metric!r}, expected one of {METRICS}")


def pair_sim_matrix(X, Z, s, t, metric: str = "cosine") -> np.ndarray:
    """sim_matrix(X[:, s], Z[:, t], metric) without gathering the paired columns.

    Column p of the gathered pair contributes once per occurrence of the pair
    (s[p], t[p]), so only the pair counts matter. cosine/dot use the sparse
    V1 x V2 count matrix M: X[:, s] @ Z[:, t].T = (X M) @ Z.T, and the squared
    row norms of X[:, s] are (X*X) @ bincount(s). neg_l1/neg_l2 measure each
    distinct pair once, its columns scaled by the count w (l1) or sqrt(w) (l2):
    for P distinct pairs they cost V1 * V2 * P, on row-major operands.
    """
    X = np.asarray(X, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if s.ndim != 1 or s.shape != t.shape or s.size < 1:
        raise ValidationError(f"need nonempty paired index vectors, got {s.shape} vs {t.shape}")
    v1, v2 = X.shape[1], Z.shape[1]
    if s.min() < 0 or s.max() >= v1 or t.min() < 0 or t.max() >= v2:
        raise ValidationError(f"pair indices out of range for {v1} x {v2} columns")
    if metric in ("cosine", "dot"):
        M = sparse.csr_array((np.ones(s.size), (s, t)), shape=(v1, v2))
        XM = np.asarray(X @ M)
        if metric == "dot":
            return XM @ Z.T
        nx = np.sqrt((X * X) @ np.bincount(s, minlength=v1))
        nz = np.sqrt((Z * Z) @ np.bincount(t, minlength=v2))
        nx[nx == 0.0] = 1.0  # all-zero rows stay zero, as in unitr
        nz[nz == 0.0] = 1.0
        XM /= nx[:, None]
        S = XM @ Z.T
        S /= nz
        return S
    if metric in ("neg_l1", "neg_l2"):
        pairs, w = np.unique(s * v2 + t, return_counts=True)
        scale = w if metric == "neg_l1" else np.sqrt(w)
        # np.take keeps the rows contiguous; X[:, idx] would return them
        # column-major
        Xp = np.take(X, pairs // v2, axis=1) * scale
        Zp = np.take(Z, pairs % v2, axis=1) * scale
        return sim_matrix(Xp, Zp, metric)
    raise ValidationError(f"unknown metric {metric!r}, expected one of {METRICS}")


def check_finite(S: np.ndarray, what: str) -> np.ndarray:
    """Return S, or raise NumericError if any entry is NaN or infinite, so a
    bad row cannot argmax silently to index 0."""
    if not np.isfinite(S).all():
        raise NumericError(f"non-finite values in {what} similarities")
    return S


def procrustes(Xs: np.ndarray, Zt: np.ndarray) -> np.ndarray:
    """Orthogonal W minimizing ||Xs @ W - Zt||_F, via SVD of Xs^T Zt."""
    Xs = np.asarray(Xs, dtype=np.float64)
    Zt = np.asarray(Zt, dtype=np.float64)
    if Xs.ndim != 2 or Xs.shape != Zt.shape:
        raise ValidationError(f"paired shapes required, got {Xs.shape} vs {Zt.shape}")
    if 0 in Xs.shape:
        raise ValidationError("empty point sets")
    f = svd(Xs.T @ Zt)
    return f.U @ f.Vt
