"""Random and structured instance generation, set-S membership, RIP constants.

Sampling uses the Philox counter-based generator so every draw is a pure
function of the seed: identical specs give bit-identical instances on any
machine and in any execution order.  "Almost all (A, y)" statements are
operationalized as i.i.d. standard Gaussian sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import CapacityError, InvalidInputError

__all__ = [
    "EnsembleSpec",
    "rng_for",
    "derive_seed",
    "gen_gaussian_instance",
    "gen_sparse_measured",
    "is_in_set_S",
    "rip_constant",
    "SUBSET_CAP",
]

SUBSET_CAP = 200_000
SIGNAL_VALUES = ("pm_one", "gaussian")  # a planted signal's entries: +-1 or Gaussian
SET_S_MAX_N = 25


@dataclass(frozen=True)
class EnsembleSpec:
    """Dimensions, seed, and optional sparsity of a Gaussian instance."""

    m: int
    N: int
    seed: int
    sparsity: Optional[int] = None
    signal_values: str = "pm_one"  # one of SIGNAL_VALUES

    def __post_init__(self):
        if self.m < 1 or self.N < 1:
            raise InvalidInputError("m and N must be positive")
        if self.sparsity is not None and not (1 <= self.sparsity <= self.N):
            raise InvalidInputError("sparsity must satisfy 1 <= s <= N")
        if self.signal_values not in SIGNAL_VALUES:
            raise InvalidInputError(f"unsupported signal_values {self.signal_values!r}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise InvalidInputError("seed must be a 64-bit unsigned integer")


def rng_for(*keys: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of integers.

    Distinct key tuples give statistically independent streams; equal keys
    give bit-identical streams, independent of call order.
    """
    ss = np.random.SeedSequence([int(k) for k in keys])
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(*keys: int) -> int:
    """A stable 64-bit seed derived from a tuple of integers."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def gen_gaussian_instance(spec: EnsembleSpec):
    """I.i.d. standard normal (A, y) drawn deterministically from spec.seed."""
    rng = rng_for(spec.seed)
    A = rng.standard_normal((spec.m, spec.N))
    y = rng.standard_normal(spec.m)
    return A, y


def gen_sparse_measured(spec: EnsembleSpec):
    """Gaussian A plus a measurement generated by a random s-sparse signal.

    Returns (A, y, x0, support) with y = A x0 exactly; x0 carries random
    +-1 entries (or Gaussian magnitudes when spec.signal_values says so) on
    a uniformly random s-subset.
    """
    if spec.sparsity is None:
        raise InvalidInputError("gen_sparse_measured needs spec.sparsity")
    rng = rng_for(spec.seed)
    A = rng.standard_normal((spec.m, spec.N))
    support = np.sort(rng.choice(spec.N, size=spec.sparsity, replace=False))
    x0 = np.zeros(spec.N)
    signs = rng.integers(0, 2, size=spec.sparsity) * 2.0 - 1.0
    if spec.signal_values == "gaussian":
        x0[support] = signs * np.abs(rng.standard_normal(spec.sparsity))
    else:
        x0[support] = signs
    y = A @ x0
    return A, y, x0, support


def _check_subset_count(n: int, k: int) -> int:
    count = 1
    for i in range(k):
        count = count * (n - i) // (i + 1)
        if count > SUBSET_CAP:
            raise CapacityError(
                f"C({n},{k}) exceeds the exhaustive-subset cap of {SUBSET_CAP}"
            )
    return count


def is_in_set_S(A, y, tol: float = 1e-12) -> bool:
    """Exhaustive check that (A, y) lies in the generic instance set.

    True iff y != 0 and every m x m column submatrix of A is invertible at
    the given relative pivot tolerance.  Exhaustive over all C(N, m)
    submatrices, so N is capped at desk scale.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    m, n = A.shape
    if n > SET_S_MAX_N:
        raise CapacityError(f"set-S check is exhaustive; N <= {SET_S_MAX_N} required")
    if n < m:
        raise InvalidInputError("set-S membership needs N >= m")
    _check_subset_count(n, m)
    if not np.any(y):
        return False
    for cols in itertools.combinations(range(n), m):
        if not linalg.is_invertible(A[:, cols], tol):
            return False
    # membership implies full row rank; cheap consistency assertion
    assert np.linalg.matrix_rank(A) == m
    return True


def rip_constant(A, k: int) -> float:
    """Restricted isometry constant of order k, by subset enumeration.

    delta_k = max over k-subsets S of max(lmax(A_S^T A_S) - 1,
    1 - lmin(A_S^T A_S)); exact up to the symmetric eigensolver tolerance.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    k = int(k)
    if not (1 <= k <= n):
        raise InvalidInputError(f"order k must satisfy 1 <= k <= {n}")
    _check_subset_count(n, k)
    subsets = np.array(list(itertools.combinations(range(n), k)))
    delta = 0.0
    chunk = max(1, 4096 // max(k, 1))
    for start in range(0, len(subsets), chunk):
        batch = subsets[start:start + chunk]
        cols = A[:, batch.reshape(-1)].reshape(A.shape[0], len(batch), k)
        cols = np.moveaxis(cols, 1, 0)  # (batch, m, k)
        grams = np.einsum("bik,bil->bkl", cols, cols)
        eigs = np.linalg.eigvalsh(grams)
        delta = max(delta, float((eigs[:, -1] - 1.0).max()), float((1.0 - eigs[:, 0]).max()))
    return delta
