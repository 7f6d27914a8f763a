"""Classical multi-user detectors operating on matched-filter outputs.

Four baselines: the single-user sign detector, the decorrelator, linear
MMSE, and the optimal joint detector, the argmin of the quadratic
likelihood metric over all bit vectors.

Each detector is written once, for rows of soft outputs (``detect_rows``).
The per-symbol functions check their matrix, then run that code on one row.
The optimal search ranks a chunk of candidates for a slice of rows with
one matrix product (Verdú's correlation form of the metric) and reruns the
exhaustive search of the exact metric only for the rows where a second
candidate comes within the float-error margin of the best.  It reads
nothing but R and the rows, and no step of it allocates more than
RESIDUAL_BYTES.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import KTooLarge, SingularMatrix

# Exhaustive search cap: 2**20 candidates is the most this desk-scale tool
# will enumerate.
MAX_EXHAUSTIVE_USERS = 20

# Above this condition number a correlation matrix is treated as singular
# (duplicated or linearly dependent signatures).
CONDITION_LIMIT = 1e12

# Cap on the largest array one step of the optimal search allocates: a
# chunk's (candidates, K) floats, the filter's (rows, candidates) scores or
# the exact search's (rows, candidates, K) residuals.  Candidates come in
# chunks of min(2^K, RESIDUAL_BYTES // 8K), and both searches split their
# rows into slices to stay under it.
RESIDUAL_BYTES = 1 << 20

# Safety factor on the filter's float-error margin (see _optimal_rows).
_MARGIN_SAFETY = 1024.0


class DetectorKind(enum.Enum):
    SUD = "sud"
    DECORRELATOR = "decorrelator"
    MMSE = "mmse"
    OPTIMAL = "optimal"


ALL_DETECTORS = tuple(DetectorKind)


def _check_condition(M: np.ndarray) -> None:
    """Raises SingularMatrix for a non-finite or ill-conditioned matrix."""
    cond = np.linalg.cond(M) if np.all(np.isfinite(M)) else np.inf
    if cond > CONDITION_LIMIT:
        raise SingularMatrix(
            f"matrix condition exceeds {CONDITION_LIMIT:g}; degenerate signature set")


def check_user_cap(R: np.ndarray) -> None:
    """Raises KTooLarge when R has more users than the optimal search's cap."""
    if len(R) > MAX_EXHAUSTIVE_USERS:
        raise KTooLarge(f"K={len(R)} exceeds exhaustive-search cap {MAX_EXHAUSTIVE_USERS}")


def _sign(x: np.ndarray) -> np.ndarray:
    # Tie-break: sign(0) = +1.
    return np.where(np.asarray(x) >= 0, 1, -1).astype(int)


def sud_detect(soft) -> np.ndarray:
    """Componentwise sign of the matched-filter outputs."""
    return _sign(soft)


def decorrelate_detect(soft, R) -> np.ndarray:
    """Sign of R^-1 b~; inverts the multiple-access interference exactly."""
    R = np.asarray(R, dtype=float)
    _check_condition(R)
    return _solve_sign(R, np.asarray(soft, dtype=float))


def mmse_detect(soft, R, noise_variance: float) -> np.ndarray:
    """Sign of (R + sigma^2 I)^-1 b~; reduces to the decorrelator at sigma^2 = 0."""
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    R = np.asarray(R, dtype=float)
    M = R + noise_variance * np.eye(len(R))
    _check_condition(M)
    return _solve_sign(M, np.asarray(soft, dtype=float))


def mlse_objective(y, soft, R) -> float:
    """Joint likelihood metric (b~ - R y)^T R^-1 (b~ - R y).

    Nonnegative for positive-definite R; zero exactly when y reproduces the
    soft outputs.
    """
    R = np.asarray(R, dtype=float)
    _check_condition(R)
    fitted = np.asarray(y, dtype=float)[None, :] @ R.T
    return float(_metric_rows(np.asarray(soft, dtype=float)[None, :], fitted, R)[0, 0])


def optimal_detect(soft, R) -> np.ndarray:
    """Exhaustive argmin of the joint likelihood metric over {-1,+1}^K.

    Ties go to the lexicographically smallest candidate with -1 < +1.
    The decision is that of the exhaustive search of the metric as
    ``mlse_objective`` computes it, bit for bit; a correlation-form filter
    only spares that search the rows it cannot change.
    """
    soft = np.asarray(soft, dtype=float)
    R = np.asarray(R, dtype=float)
    check_user_cap(R)
    _check_condition(R)
    return _optimal_rows(soft[None], R)[0]


def detect_rows(soft: np.ndarray, R: np.ndarray, noise_variance: float) -> dict:
    """Decisions of the four detectors for every row of soft (T, K), keyed in ALL_DETECTORS order.

    The per-symbol detectors are this code on one row, after their checks.
    The matrices are not checked here: callers run the checks once first,
    which raise SingularMatrix or KTooLarge for a degenerate scenario.
    """
    return {DetectorKind.SUD: _sign(soft),
            DetectorKind.DECORRELATOR: _solve_sign(R, soft),
            DetectorKind.MMSE: _solve_sign(R + noise_variance * np.eye(len(R)), soft),
            DetectorKind.OPTIMAL: _optimal_rows(soft, R)}


def _solve_sign(M: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """sign(M^-1 b~) for every row b~ of soft (..., K)."""
    # One right-hand side per row, a (..., K, 1) stack: that gives each row
    # the bits np.linalg.solve(M, soft[t]) gives it alone, which a single
    # (K, T) right-hand side does not.
    return _sign(np.linalg.solve(M, soft[..., None])[..., 0])


def _metric_rows(soft: np.ndarray, fitted: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(b~_t - f_n)^T R^-1 (b~_t - f_n) for rows b~_t of soft (T, K) and f_n of fitted (N, K).

    fitted holds R y for each candidate y; the result is (T, N).
    """
    d = soft[:, None, :] - fitted
    return np.einsum("tnk,tkn->tn", d, np.linalg.solve(R, d.transpose(0, 2, 1)))


def _candidates(i: np.ndarray, K: int) -> np.ndarray:
    """Candidates i of {-1,+1}^K in lexicographic order (-1 < +1), one row each.

    Bit j of candidate i is (i >> (K - 1 - j)) & 1, read as -1 for 0 and
    +1 for 1.
    """
    return 2.0 * ((i[:, None] >> np.arange(K - 1, -1, -1)) & 1) - 1.0


def _chunk_size(K: int) -> int:
    """Candidates per chunk: 2^K, or as many as keep a chunk's (n, K) floats in RESIDUAL_BYTES."""
    return min(1 << K, RESIDUAL_BYTES // (8 * K))


def _candidate_chunks(K: int):
    """(index of the first, candidates) for {-1,+1}^K in lexicographic order, a chunk at a time."""
    n = _chunk_size(K)
    for lo in range(0, 1 << K, n):
        yield lo, _candidates(np.arange(lo, min(lo + n, 1 << K)), K)


def _optimal_rows(soft: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The exact search's decision for every row of soft, found by a filter where it can be.

    R is symmetric, so the metric (b~ - R y)^T R^-1 (b~ - R y) is
    b~^T R^-1 b~ + s(y) with s(y) = y^T R y - 2 b~.y, and the first term is
    the same for every candidate.  The filter scores s for a slice of rows
    with one product into a buffer of at most RESIDUAL_BYTES and counts,
    per row, the candidates within ``margin`` of the row's running minimum.

    ``margin`` covers twice the float error of both forms, with u the
    machine epsilon.  The solved metric is d.x with d = b~ - R y and
    x = R^-1 d; a solve with backward error dR, |dR| <~ K u |R|, errs in it
    by about x^T dR x, and x = R^-1 b~ - y, so that error is at most about
    K u sum |R_kl| (|R^-1 b~| + sqrt(K))^2, whatever cond(R) is.  s errs by
    about K u A, where A = sum |R_kl| + 2 |b~|_1 bounds |s|.
    _MARGIN_SAFETY covers the factor 2 and the constants of the solve, the
    products and the sums up to MAX_EXHAUSTIVE_USERS users.  So the exact
    search's winner is always counted: a row that counts one candidate
    takes it, and every other row (ties, all-zero rows, near-ties within
    the margin) reruns the exact search.  Across several candidate
    chunks a row's count is kept while its minimum moves by less than the
    margin and restarts when it moves further, so a count can come out too
    large, never too small.
    """
    T, K = soft.shape
    n = _chunk_size(K)
    step = max(1, RESIDUAL_BYTES // (8 * n))
    buf = np.empty(min(step, T) * n)
    size = np.abs(R).sum()
    A = size + 2 * np.abs(soft).sum(axis=1)
    x = np.linalg.norm(soft @ np.linalg.inv(R).T, axis=1) + np.sqrt(K)
    margin = _MARGIN_SAFETY * K * np.finfo(float).eps * (size * x * x + A)
    best = np.full(T, np.inf)
    arg = np.zeros(T, dtype=np.int64)
    count = np.zeros(T, dtype=np.int64)
    for c0, chunk in _candidate_chunks(K):
        quad = np.einsum("nk,nk->n", chunk @ R, chunk)
        neg2c = -2.0 * chunk.T
        for lo in range(0, T, step):
            hi = min(lo + step, T)
            s = np.matmul(soft[lo:hi], neg2c,
                          out=buf[:(hi - lo) * len(chunk)].reshape(hi - lo, len(chunk)))
            s += quad
            i = s.argmin(axis=1)
            low = s[np.arange(hi - lo), i]
            row_best, row_margin, row_count = best[lo:hi], margin[lo:hi], count[lo:hi]
            # A new minimum more than a margin below the old one leaves
            # every candidate counted so far outside the margin.
            row_count *= row_best <= low + row_margin
            better = low < row_best
            row_best[better] = low[better]
            arg[lo:hi][better] = c0 + i[better]
            row_count += np.count_nonzero(s <= (row_best + row_margin)[:, None], axis=1)
    out = _candidates(arg, K).astype(int)
    exact = np.flatnonzero(count != 1)
    if exact.size:
        out[exact] = _exact_rows(soft[exact], R)
    return out


def _exact_rows(soft: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Exhaustive search of the exact metric for every row of soft, a slice of rows at a time.

    Each candidate chunk's fitted values R y are computed once per call;
    the strict < keeps the earliest argmin across chunks.
    """
    T, K = soft.shape
    step = max(1, RESIDUAL_BYTES // (8 * K * _chunk_size(K)))
    best_obj = np.full(T, np.inf)
    best = np.empty((T, K))
    for _, chunk in _candidate_chunks(K):
        fitted = chunk @ R.T
        for lo in range(0, T, step):
            rows = np.arange(lo, min(lo + step, T))
            objs = _metric_rows(soft[rows], fitted, R)
            i = np.argmin(objs, axis=1)
            obj = objs[np.arange(rows.size), i]
            better = obj < best_obj[rows]
            best_obj[rows[better]] = obj[better]
            best[rows[better]] = chunk[i[better]]
    return best.astype(int)
