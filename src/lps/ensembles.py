"""Random and structured instance generation, set-S membership, RIP constants.

Sampling uses the Philox counter-based generator so every draw is a pure
function of the seed: identical specs give bit-identical instances on any
machine and in any execution order.  "Almost all (A, y)" statements are
operationalized as i.i.d. standard Gaussian sampling.

The seed rule is the public contract: a trial's seed is
derive_seed(master_seed, p_index, trial), and its instance is drawn from
rng_for(seed), both through numpy's SeedSequence.  derive_seeds and
philox_keys compute the same seeds and Philox keys for a whole array of
trials at once, with numpy's SeedSequence hash written out over arrays;
tests check them against derive_seed and SeedSequence.
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
    "derive_seeds",
    "philox_keys",
    "rekey",
    "draw_instance",
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
    give bit-identical streams, independent of call order.  The generator is
    Philox keyed by SeedSequence(keys).generate_state(2, uint64).
    """
    ss = np.random.SeedSequence([int(k) for k in keys])
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(*keys: int) -> int:
    """A stable 64-bit seed derived from a tuple of integers:
    SeedSequence(keys).generate_state(1, uint64)."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over uint32 arrays,
# one column per row of entropy
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MAX_WORDS = 8  # entropy words per row: derive_seeds needs at most 6


def _hash_constants(init: int, mult: int, n: int):
    """(xor, mul) as (n, 1) uint32 columns: the i-th hashmix xors with the
    i-th constant and multiplies by the next; each is the last times mult."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875,
                                     _POOL_SIZE * _MAX_WORDS)  # 4 + 12 + 4 (words - 4)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> _SHIFT


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> _SHIFT


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's 4-word pool, (4, B), from (L, B) uint32 entropy words.

    Each mixing step that reads one pool word into the other three is one
    array operation: the three hashmix constants are consecutive.
    """
    fill = np.zeros((max(_POOL_SIZE - len(words), 0), words.shape[1]), dtype=np.uint32)
    pool = _hashmix(np.vstack([words[:_POOL_SIZE], fill]), _MIX_XOR[:4], _MIX_MUL[:4])
    i = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_XOR[i:i + 3], _MIX_MUL[i:i + 3]))
        i += 3
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, _MIX_XOR[i:i + 4], _MIX_MUL[i:i + 4]))
        i += 4
    return pool


def _seed_sequence_state(columns: list, n: int) -> np.ndarray:
    """SeedSequence([c[k] for c in columns]).generate_state(n, uint64) for each
    row k, as a (B, n) uint64 array (n <= 4).

    SeedSequence splits each integer into its little-endian 32-bit words, one
    word for values under 2^32 and two above, so rows are hashed in groups
    of equal word layout.
    """
    wide = sum((c > np.uint64(_MASK32)).astype(np.intp) << j for j, c in enumerate(columns))
    out = np.empty((len(wide), n), dtype=np.uint64)
    cycle = np.arange(2 * n) % _POOL_SIZE
    for layout in np.unique(wide).tolist():
        rows = np.flatnonzero(wide == layout)
        words = []
        for j, c in enumerate(columns):
            c = c[rows]
            words.append(c.astype(np.uint32))
            if layout >> j & 1:
                words.append((c >> np.uint64(32)).astype(np.uint32))
        state = _hashmix(_pool(np.array(words))[cycle], _STATE_XOR[:2 * n],
                         _STATE_MUL[:2 * n]).astype(np.uint64)
        out[rows] = (state[0::2] | state[1::2] << np.uint64(32)).T
    return out


def derive_seeds(master_seed: int, p_index: int, trials) -> np.ndarray:
    """derive_seed(master_seed, p_index, t) for each t in trials, as uint64."""
    trials = np.asarray(trials, dtype=np.uint64)
    columns = [np.full(trials.shape, int(k), dtype=np.uint64) for k in (master_seed, p_index)]
    return _seed_sequence_state(columns + [trials], 1)[:, 0]


def philox_keys(seeds) -> np.ndarray:
    """The Philox key of rng_for(s) for each seed s: rows of
    SeedSequence([s]).generate_state(2, uint64)."""
    return _seed_sequence_state([np.asarray(seeds, dtype=np.uint64)], 2)


_ZEROS4 = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """rng, a Philox generator, reset to the start of the stream of `key`.

    With key = philox_keys([s])[0] it then draws exactly what rng_for(s)
    draws.  Re-keying one generator per trial spares building a
    SeedSequence and a Philox for each.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def draw_instance(rng: np.random.Generator, m: int, N: int, sparsity: Optional[int] = None,
                  signal_values: str = "pm_one"):
    """(A, y, x0, support) drawn from rng: i.i.d. standard normal A (m x N), then
    either a standard normal y (sparsity None; x0 and support None) or
    y = A x0 for an s-sparse x0 on a uniformly random sorted support, with
    random signs and unit (or, for "gaussian" signal_values, half-normal)
    magnitudes.  The one draw behind gen_gaussian_instance,
    gen_sparse_measured and the experiment harness.
    """
    A = rng.standard_normal((m, N))
    if sparsity is None:
        return A, rng.standard_normal(m), None, None
    support = np.sort(rng.choice(N, size=sparsity, replace=False))
    x0 = np.zeros(N)
    signs = rng.integers(0, 2, size=sparsity) * 2.0 - 1.0
    if signal_values == "gaussian":
        x0[support] = signs * np.abs(rng.standard_normal(sparsity))
    else:
        x0[support] = signs
    return A, A @ x0, x0, support


def gen_gaussian_instance(spec: EnsembleSpec):
    """I.i.d. standard normal (A, y) drawn deterministically from spec.seed."""
    A, y, _, _ = draw_instance(rng_for(spec.seed), spec.m, spec.N)
    return A, y


def gen_sparse_measured(spec: EnsembleSpec):
    """Gaussian A plus a measurement generated by a random s-sparse signal.

    Returns (A, y, x0, support) with y = A x0 exactly; x0 carries random
    +-1 entries (or Gaussian magnitudes when spec.signal_values says so) on
    a uniformly random s-subset.
    """
    if spec.sparsity is None:
        raise InvalidInputError("gen_sparse_measured needs spec.sparsity")
    return draw_instance(rng_for(spec.seed), spec.m, spec.N, spec.sparsity, spec.signal_values)


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
