"""Dense linear-algebra helpers, public and independent of the solvers.

Everything here is dense and desk-scale (m, N up to a few hundred):
minimum-norm solutions of underdetermined systems and projection onto
affine sets {x : Ax = y}, both via a Cholesky factor of A A^T, and a
pivot-based invertibility test.  lps.solvers does not use them (it factors
A^T = Q R instead); the tests use them as independent references.  They
factor with scipy.linalg, which loads on the first call, not on import.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InvalidInputError, RankDeficientError

__all__ = [
    "least_norm_solution",
    "affine_project",
    "is_invertible",
]


def _as_matrix(M, name: str = "M") -> np.ndarray:
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _as_vector(b, name: str = "b") -> np.ndarray:
    arr = np.asarray(b, dtype=float).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _gram_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A A^T)^{-1} b by a Cholesky factor; raises RankDeficientError when A lacks row rank."""
    import scipy.linalg

    gram = A @ A.T
    try:
        c = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficientError("A A^T is numerically singular") from exc
    scale = np.abs(gram).max(initial=0.0)
    if np.abs(np.diag(c[0])).min() ** 2 <= 1e-14 * max(scale, 1e-300):
        raise RankDeficientError("A A^T is numerically singular")
    return scipy.linalg.cho_solve(c, b, check_finite=False)


def least_norm_solution(A, y) -> np.ndarray:
    """Minimum Euclidean-norm solution A^T (A A^T)^{-1} y of Ax = y.

    Requires A to have full row rank; the result is orthogonal to the null
    space of A and is the p=2 minimizer of the norm over the affine set.
    """
    A = _as_matrix(A, "A")
    y = _as_vector(y, "y")
    if A.shape[0] != y.shape[0]:
        raise InvalidInputError(f"A has {A.shape[0]} rows but y has length {y.shape[0]}")
    return A.T @ _gram_solve(A, y)


def affine_project(A, y, x) -> np.ndarray:
    """Euclidean projection of x onto {z : Az = y}: x - A^T (A A^T)^{-1} (Ax - y)."""
    A = _as_matrix(A, "A")
    y = _as_vector(y, "y")
    x = _as_vector(x, "x")
    if A.shape[0] != y.shape[0] or A.shape[1] != x.shape[0]:
        raise InvalidInputError(
            f"shape mismatch: A is {A.shape}, y has length {y.shape[0]}, x has length {x.shape[0]}"
        )
    return x - A.T @ _gram_solve(A, A @ x - y)


def is_invertible(M, tol: float = 1e-12) -> bool:
    """Pivot test for invertibility of a square matrix.

    True iff the smallest absolute pivot of the pivoted LU factorization
    exceeds tol * max|M_ij|.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {M.shape}")
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    scale = np.abs(M).max()
    if scale == 0.0:
        return False
    import scipy.linalg

    with warnings.catch_warnings():
        # singular input is an expected answer here, not an anomaly
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(M, check_finite=False)
    return bool(np.abs(np.diag(lu)).min() > tol * scale)
