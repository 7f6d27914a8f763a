"""Classical multi-user detectors operating on matched-filter outputs.

Four baselines: the single-user sign detector, the decorrelator, linear
MMSE, and the optimal joint detector found by exhaustive search over all
bit vectors of the quadratic likelihood metric.

Each detector is written once, for rows of soft outputs (``detect_rows``).
The per-symbol functions check their matrix, then run that code on one row.
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

# Candidates scored per likelihood-metric evaluation.
_ENUM_CHUNK = 1 << 16

# Cap on the (trials, candidates, K) residual array that one metric
# evaluation over many trials allocates; detect_rows splits its rows to
# stay under it.
RESIDUAL_BYTES = 1 << 20


class DetectorKind(enum.Enum):
    SUD = "sud"
    DECORRELATOR = "decorrelator"
    MMSE = "mmse"
    OPTIMAL = "optimal"


def _check_condition(M: np.ndarray):
    """Raise SingularMatrix for a non-finite or ill-conditioned matrix."""
    if not np.all(np.isfinite(M)) or np.linalg.cond(M) > CONDITION_LIMIT:
        raise SingularMatrix(
            f"matrix condition exceeds {CONDITION_LIMIT:g}; degenerate signature set")


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
    """
    soft = np.asarray(soft, dtype=float)
    R = np.asarray(R, dtype=float)
    K = len(soft)
    if K > MAX_EXHAUSTIVE_USERS:
        raise KTooLarge(f"K={K} exceeds exhaustive-search cap {MAX_EXHAUSTIVE_USERS}")
    _check_condition(R)
    return _optimal_rows(soft[None], R)[0]


def detect_rows(kinds, soft: np.ndarray, R: np.ndarray, noise_variance: float) -> dict:
    """Decisions of each selected detector for every row of soft (T, K).

    The per-symbol detectors are this code on one row, after their checks.
    The matrices are not checked here: callers run each per-symbol
    detector once first, which raises SingularMatrix or KTooLarge for a
    degenerate scenario.
    """
    out = {}
    for kind in kinds:
        if kind is DetectorKind.SUD:
            out[kind] = _sign(soft)
        elif kind is DetectorKind.DECORRELATOR:
            out[kind] = _solve_sign(R, soft)
        elif kind is DetectorKind.MMSE:
            out[kind] = _solve_sign(R + noise_variance * np.eye(len(R)), soft)
        else:
            out[kind] = _optimal_rows(soft, R)
    return out


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


def _candidate_chunks(K: int):
    """{-1,+1}^K in lexicographic order (-1 < +1), _ENUM_CHUNK rows at a time.

    Bit j of candidate i is (i >> (K - 1 - j)) & 1, read as -1 for 0 and
    +1 for 1.
    """
    shifts = np.arange(K - 1, -1, -1)
    for lo in range(0, 1 << K, _ENUM_CHUNK):
        i = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << K))
        yield 2.0 * ((i[:, None] >> shifts) & 1) - 1.0


def _optimal_rows(soft: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Exhaustive likelihood search for every row of soft, a slice of rows at a time.

    Each candidate chunk's fitted values R y are computed once per call;
    the strict < keeps the earliest argmin across chunks.
    """
    T, K = soft.shape
    step = max(1, RESIDUAL_BYTES // (8 * K * min(2 ** K, _ENUM_CHUNK)))
    best_obj = np.full(T, np.inf)
    best = np.empty((T, K))
    for chunk in _candidate_chunks(K):
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
