"""Dense-matrix primitives: normalization chain, percentile clipping, rank
surgery (rank-r truncation and head-drop by projection onto the top
eigenvectors of the smaller Gram matrix), similarity matrices, and
orthogonal Procrustes.

Every public function here is a pure function of real arrays: inputs are
never mutated. The normalization chain, clipping and rank surgery compute
and return float64, and read a float32 input as its float64 values. Clipping
and rank surgery hold at most two float64 arrays of their input's size, the
result among them: `clip` takes its row percentiles a block of rows at a
time and clips its one float64 copy in place; `trunc` frees its scaled copy
and Gram matrix before it projects, and `drop_head` subtracts into the
projection's buffer. The normalization chain is built on private in-place
cores (`_unitr_inplace`, `_normalize_inplace`) that overwrite and return a
buffer their caller owns; the public `unitr` and `normalize` run them on
one fresh float64 copy. Both cores work one block of rows at a time, so
none of them holds a V x V temporary, and `_normalize_inplace` also
normalizes a float32 buffer in float64, rounding it once. The cdist
metric (neg_l1) takes C-contiguous rows: scipy walks each row in turn, so
a column-major operand costs a strided read per entry.

A coocmap run stores its V x V matrices in float32 (`assoc`), and the
similarity kernels keep that storage: `sim_matrix`'s dot and cosine of
float32 operands are float64 products rounded once into float32, formed a
block at a time. One product runs in float32 arithmetic: the cosine GEMM of
`pair_sim_matrix`, the self-learning measure, whose docstring derives the
bound this costs. The cdist metric reads float64 operands.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

# scipy is imported inside the three kernels that call it (trunc,
# pair_sim_matrix and sim_matrix): it takes about 0.4 s to load, which a
# command that never reaches them (count, eval, --help) should not pay

METRICS = ("cosine", "neg_l1")  # the self-learning measure's, and AlignConfig.metric's

# rows whose l2 norm falls below this are measured at a rescaled copy
_TINY_NORM = 1e-100

# unitr's row norms, pair_sim_matrix's X M, and csls and match_bidirectional
# in align work on blocks of about this many rows (or columns), so their
# copies and temporaries are a few lanes wide, not a second V1 x V2 matrix
_BLOCK = 256


def _blocks(n: int) -> list[slice]:
    """ceil(n / _BLOCK) near-equal slices covering range(n). No slice holds a
    single lane unless n == 1: numpy lays a one-lane partition copy out, and
    sums it, differently from a wider one."""
    nb = -(-n // _BLOCK)
    return [slice(n * b // nb, n * (b + 1) // nb) for b in range(nb)]


def _real(X) -> np.ndarray:
    """X as an array of float32 or float64, copied only if it is neither."""
    X = np.asarray(X)
    return X if X.dtype in (np.float32, np.float64) else X.astype(np.float64)


def _unitr_inplace(X: np.ndarray) -> np.ndarray:
    """unitr on X's own float64 buffer: overwrites and returns X."""
    norms = np.empty((X.shape[0], 1))
    for b in _blocks(X.shape[0]):
        # a block of rows at a time, so the squares are never a V x V
        # temporary; each row is reduced alone, so the norms are bitwise those
        # of the whole-matrix call
        norms[b] = np.linalg.norm(X[b], axis=1, keepdims=True)
    # below ~1e-154 the squares go subnormal or to zero and the norm loses
    # its digits; such rows take it from a copy scaled by their largest entry
    tiny = norms[:, 0] < _TINY_NORM
    if tiny.any():
        peak = np.max(np.abs(X[tiny]), axis=1, keepdims=True, initial=0.0)
        peak[peak == 0.0] = 1.0
        norms[tiny] = peak * np.linalg.norm(X[tiny] / peak, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    X /= norms
    return X


def unitr(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit l2 norm; all-zero rows stay zero."""
    return _unitr_inplace(np.array(X, dtype=np.float64))


def unitr_l1(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit l1 mass; all-zero rows stay zero."""
    X = np.asarray(X, dtype=np.float64)
    mass = np.sum(np.abs(X), axis=1, keepdims=True)
    mass[mass == 0.0] = 1.0
    return X / mass


def _normalize_inplace(X: np.ndarray) -> np.ndarray:
    """normalize on X's own float32 or float64 buffer: overwrites and returns X.

    Each block of rows is worked on as a float64 copy and written back once,
    so a float32 buffer is rounded once. The unit rows' column sums run row
    by row, in the order X.mean(axis=0) adds them, so a float64 result is
    bitwise that of the whole-matrix chain."""
    total = np.zeros(X.shape[1])
    for b in _blocks(X.shape[0]):
        for row in _unitr_inplace(X[b].astype(np.float64)):
            total += row
        del row  # its block, before the next block's copy
    mean = total / X.shape[0]
    for b in _blocks(X.shape[0]):
        Y = _unitr_inplace(X[b].astype(np.float64))
        Y -= mean
        X[b] = _unitr_inplace(Y)
        del Y
    return X


def normalize(X: np.ndarray) -> np.ndarray:
    """Unit rows, then the column means subtracted, then unit rows again, in
    exactly that order, in one copy of X."""
    return _normalize_inplace(np.array(X, dtype=np.float64))


def check_percentiles(p_lo: float, p_hi: float) -> None:
    """Reject clip percentiles outside 0 <= p_lo < p_hi <= 100."""
    if not (0.0 <= p_lo < p_hi <= 100.0):
        raise ValidationError(f"need 0 <= p_lo < p_hi <= 100, got ({p_lo}, {p_hi})")


def clip_thresholds(X: np.ndarray, p_lo: float, p_hi: float):
    """Two-stage percentile thresholds: per-row percentiles, then the same
    percentile over the row statistics, so no single row dominates.

    The row percentiles are taken one block of rows at a time, each from a
    float64 copy of the block that the percentile partitions in place; a
    row's percentile reads that row alone, so the thresholds are bitwise
    those of the whole-matrix call, and no V x V copy is made."""
    check_percentiles(p_lo, p_hi)
    X = _real(X)
    row_lo, row_hi = np.empty(X.shape[0]), np.empty(X.shape[0])
    for b in _blocks(X.shape[0]):
        row_lo[b], row_hi[b] = np.percentile(X[b].astype(np.float64), [p_lo, p_hi], axis=1,
                                             overwrite_input=True)
    return float(np.percentile(row_lo, p_lo)), float(np.percentile(row_hi, p_hi))


def clip(X: np.ndarray, p_lo: float, p_hi: float) -> np.ndarray:
    """Limit every entry to the two-stage percentile thresholds: one float64
    copy of X, clipped in place."""
    lo, hi = clip_thresholds(X, p_lo, p_hi)
    out = np.array(X, dtype=np.float64)
    return np.clip(out, lo, hi, out=out)


def svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, S, Vt) as `np.linalg.svd` returns it, with a deterministic
    sign convention: in each column of U the largest-magnitude entry (first
    on ties) is made nonnegative, and the matching row of Vt follows."""
    X = np.asarray(X, dtype=np.float64)
    try:
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"SVD failed to converge on {X.shape} matrix") from e
    lead = np.abs(U).argmax(axis=0)
    signs = np.sign(U[lead, np.arange(U.shape[1])])
    signs[signs == 0.0] = 1.0
    return U * signs, S, Vt * signs[:, None]


def trunc(X: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation (tail removal) of an m x n matrix, in float64.

    Projects X onto the top-r eigenvectors Q of its smaller Gram matrix:
    Q (Q^T X) with G = X X^T when m <= n, (X Q) Q^T with G = X^T X when
    m > n. The projection needs no sign convention and does not depend on
    the basis chosen inside a repeated or null eigenvalue. The Gram matrix
    squares the spectrum, so the error is about
    eps * sigma_1^2 / (sigma_r - sigma_{r+1}) rather than the SVD's
    eps * sigma_1: the same to working precision unless the top r directions
    barely separate from the rest. Raises NumericError on NaN/inf entries or
    if the eigensolver fails.

    X may be float32; it is read as its float64 values. Memory beside X, in
    float64 arrays of X's size: at most 2 -- the scaled float64 copy of X
    beside the min(m, n)^2 Gram matrix, which the eigensolver overwrites
    rather than copies. Both are freed before the projection, which holds
    one such array at a time (for a float32 X, the float64 copy of X its
    first product reads, then the result) beside an r-wide product. Only
    when the subset eigensolver loses orthogonality does a second, full
    solve run, adding its min(m, n)^2 eigenvectors.
    """
    if r < 0:
        raise ValidationError(f"rank must be >= 0, got {r}")
    X = _real(X)
    peak = float(max(X.max(), -X.min())) if X.size else 0.0
    if not np.isfinite(peak):
        raise NumericError(f"non-finite entries in {X.shape} matrix to truncate")
    tall = X.shape[0] > X.shape[1]
    k = min(X.shape)
    r = min(r, k)
    if r == 0:
        return np.zeros(X.shape)

    def gram():
        # squaring the entries must not underflow or overflow: scale by a
        # power of two (exact) so the largest magnitude lies in [0.5, 1)
        Xs = X.astype(np.float64)
        np.ldexp(Xs, -int(np.frexp(peak)[1]), out=Xs)
        return Xs.T @ Xs if tall else Xs @ Xs.T

    from scipy import linalg

    # numpy forms the Gram matrix G by syrk, so G is exactly symmetric and
    # G.T is G in Fortran order, which the eigensolver overwrites in place
    try:
        Q = linalg.eigh(gram().T, subset_by_index=[k - r, k - 1], overwrite_a=True)[1]
        # inside a cluster of (near-)null eigenvalues the subset solver can
        # return far from orthonormal vectors, and Q Q^T is then no projection;
        # the full solver's are orthonormal to rounding. 1e-8 is far above
        # the k * eps a successful solve leaves and far below such a loss.
        if np.abs(Q.T @ Q - np.eye(r)).max() > 1e-8:
            Q = linalg.eigh(gram().T, overwrite_a=True)[1][:, k - r:]
    except (np.linalg.LinAlgError, ValueError) as e:
        raise NumericError(f"eigendecomposition failed on {X.shape} matrix") from e
    return (X @ Q) @ Q.T if tall else Q @ (Q.T @ X)


def drop_head(X: np.ndarray, r: int) -> np.ndarray:
    """Remove the top-r singular directions: X minus its rank-r approximation,
    computed by `trunc` and overwritten with the difference, so the extra
    memory is `trunc`'s (at most 2 float64 copies of X's size, the result
    among them)."""
    P = trunc(X, r)
    return np.subtract(X, P, out=P)


def psd_sqrt_gram(Xv: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of the gram matrix: U S U^T for Xv = U S Vt."""
    U, S, _ = svd(Xv)
    return (U * S) @ U.T


def _product(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """X @ Z.T in float64 arithmetic. Two float32 operands give a float32
    result, formed a block at a time from float64 copies of the operands'
    blocks, so each entry is rounded once and no V x V float64 array exists;
    anything else is one float64 GEMM."""
    if X.dtype != np.float32 or Z.dtype != np.float32:
        return X.astype(np.float64, copy=False) @ Z.astype(np.float64, copy=False).T
    out = np.empty((X.shape[0], Z.shape[0]), dtype=np.float32)
    for b in _blocks(Z.shape[0]):
        Zb = Z[b].astype(np.float64)
        for a in _blocks(X.shape[0]):
            out[a, b] = X[a].astype(np.float64) @ Zb.T
    return out


def sim_matrix(X: np.ndarray, Z: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise row similarities (a metric of METRICS, or "dot"), higher = more
    similar; cosine treats all-zero rows as similarity 0 to everything.

    Every metric computes in float64. dot and cosine of two float32 operands
    return float32, each entry rounded once; anything else returns float64.
    neg_l1 is scipy's cdist on float64 copies of the rows."""
    X, Z = _real(X), _real(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValidationError(f"row width mismatch: {X.shape} vs {Z.shape}")
    if metric == "cosine":
        return (unitr(X) @ unitr(Z).T).astype(np.result_type(X, Z), copy=False)
    if metric == "dot":
        return _product(X, Z)
    if metric == "neg_l1":
        from scipy.spatial.distance import cdist

        return -cdist(np.ascontiguousarray(X, dtype=np.float64),
                      np.ascontiguousarray(Z, dtype=np.float64), metric="cityblock")
    raise ValidationError(f"unknown metric {metric!r}, expected one of {(*METRICS, 'dot')}")


def pair_sim_matrix(X, Z, s, t, metric: str) -> np.ndarray:
    """sim_matrix(X[:, s], Z[:, t], metric) without gathering the paired columns.

    Column p of the gathered pair contributes once per occurrence of the pair
    (s[p], t[p]), so only the pair counts matter. neg_l1 measures each
    distinct pair once, its columns scaled by the count w: for P distinct
    pairs it costs V1 * V2 * P, on row-major operands, and only those
    gathered V x P columns are made float64.

    cosine uses the sparse V1 x V2 count matrix M: X[:, s] @ Z[:, t].T =
    (X M) @ Z.T. X and Z are read as they are, float32 or float64. The
    sparse product X M, the pair-weighted row norms nx = ||X[:, s]|| and
    nz = ||Z[:, t]|| (squares weighted by bincount(s) and bincount(t)) and
    the division by them are float64. The unit-row operands a = (X M) / nx
    and b = Z / nz are rounded to float32 once, and a @ b.T is one float32
    GEMM, returned as it is.

    Precision (derived, not fitted): by Cauchy-Schwarz over the pairs,
    sum_j |a_ij b_kj| <= 1, so the two operand roundings and the float32
    sum of n = Z.shape[1] terms put every cosine entry within
    (n + 2) * 2**-24 of the exact cosine of the given X and Z, to first
    order. Precondition: the operand entries lie in float32's normal range
    (|x| >= 2**-126, about 1.2e-38) or are zero. Their squares are then
    normal in float64, and the float64 norms exact to rounding. The
    package's associations meet what this asks: they are float32, and the
    squares of any float32 entry, down to 2**-149, are normal in float64. A
    float64 row whose entries all lie below about 1e-154 does not: its
    squares go subnormal, and its cosines may leave [-1, 1] (unitr rescales
    such rows; this measure does not). Float32 underflow in a, b or their
    products adds an absolute error of order 2**-149 per summed term.

    Memory, for V x V operands, in V^2 float64 units (8 B): at most 1.5 --
    a and b beside their float32 product, which is the result (0.5). Neither
    X M nor the squares are ever a whole V x V float64 array.
    """
    X, Z = _real(X), _real(Z)
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if s.ndim != 1 or s.shape != t.shape or s.size < 1:
        raise ValidationError(f"need nonempty paired index vectors, got {s.shape} vs {t.shape}")
    v1, v2 = X.shape[1], Z.shape[1]
    if s.min() < 0 or s.max() >= v1 or t.min() < 0 or t.max() >= v2:
        raise ValidationError(f"pair indices out of range for {v1} x {v2} columns")
    if metric == "cosine":
        from scipy import sparse

        M = sparse.csr_array((np.ones(s.size), (s, t)), shape=(v1, v2))
        # squared norms summed in float64 with the pair counts as weights,
        # no X * X array
        nx = np.sqrt(np.einsum("ij,ij,j->i", X, X, np.bincount(s, minlength=v1),
                               dtype=np.float64))
        nz = np.sqrt(np.einsum("ij,ij,j->i", Z, Z, np.bincount(t, minlength=v2),
                               dtype=np.float64))
        nx[nx == 0.0] = 1.0  # all-zero rows stay zero, as in unitr
        nz[nz == 0.0] = 1.0
        # the unit rows are divided in float64 and rounded into float32
        # buffers; X M is formed a block of rows at a time, because scipy
        # copies its dense operand
        a = np.empty((X.shape[0], v2), dtype=np.float32)
        for r in _blocks(X.shape[0]):
            np.divide(X[r] @ M, nx[r, None], out=a[r])
        b = np.empty(Z.shape, dtype=np.float32)
        np.divide(Z, nz[:, None], out=b)
        return a @ b.T
    if metric == "neg_l1":
        pairs, w = np.unique(s * v2 + t, return_counts=True)
        # np.take keeps the rows contiguous; X[:, idx] would return them
        # column-major. The count w makes the gathered columns float64.
        Xp = np.take(X, pairs // v2, axis=1) * w
        Zp = np.take(Z, pairs % v2, axis=1) * w
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
    U, _, Vt = svd(Xs.T @ Zt)
    return U @ Vt
