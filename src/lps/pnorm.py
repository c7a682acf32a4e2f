"""Scalar and vector calculus for the p-th power of the p-norm.

The central objects are f(x) = sum_i |x_i|^p, its componentwise derivative
map g(z) = p*sgn(z)*|z|^(p-1), the inverse map h of g, and their
derivatives.  Every solver in this library is built from these maps:
g' exists globally for p >= 2, h' exists globally for 1 < p <= 2, and the
solvers pick whichever is defined on their exponent range.

All functions accept scalars or ndarrays and apply elementwise; scalar
input yields a Python float.  A Python int or float takes a pure-float
path through the scalar maps that runs the same checks and the same
floating-point operations as the array path, so both give identical bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidInputError,
    SingularPointError,
    UndefinedDerivativeError,
    UnsupportedExponentError,
)

__all__ = [
    "pnorm",
    "pnorm_pow",
    "g_scalar",
    "h_scalar",
    "g_prime",
    "h_prime",
    "pnorm_grad",
]


def _check_exponent(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise UnsupportedExponentError(f"exponent p must be a finite real > 0, got {p}")
    return p


def _require_p_gt1(p: float) -> float:
    p = _check_exponent(p)
    if p <= 1.0:
        raise UnsupportedExponentError(f"operation requires p > 1, got p={p}")
    return p


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _finite_float(z) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise InvalidInputError("z contains non-finite entries")
    return z


def _sign(z: float) -> float:
    return 1.0 if z > 0.0 else (-1.0 if z < 0.0 else 0.0)


def _abs_pow_float(z: float, a: float) -> float:
    """Scalar twin of _abs_pow.

    Uses numpy's exp and log on Python floats, which run the same loops as
    the array path (math.exp differs from them in the last bit).
    """
    if a == 0.0:
        return 1.0
    if z == 0.0:
        if a < 0.0:
            raise SingularPointError("negative power of zero")
        return 0.0
    t = a * np.log(abs(z))
    if t > 709.0:  # near exp's overflow point: saturate to inf without a warning
        with np.errstate(over="ignore"):
            return float(np.exp(t))
    return float(np.exp(t))


def _abs_pow(z: np.ndarray, a: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):
        return _abs_pow_raw(z, a)


def _abs_pow_raw(z: np.ndarray, a: float) -> np.ndarray:
    """|z|^a as exp(a log|z|); the caller ignores overflow (saturating to inf) and log(0)."""
    if a == 0.0:
        return np.ones_like(z)
    az = np.abs(z)
    if a < 0.0 and not az.all():
        raise SingularPointError("negative power of zero")
    return np.exp(a * np.log(az))  # exp(a * -inf) = 0 at z = 0


# Unchecked array kernels: the solvers' inner loops call these on stacks of
# validated vectors; the public functions below validate, then call them.
# Overflow saturates to inf without a warning, as in _abs_pow.

def _g(z: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):
        return p * np.sign(z) * _abs_pow_raw(z, p - 1.0)


def _h(z: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):
        return np.sign(z) * _abs_pow_raw(z / p, 1.0 / (p - 1.0))


def _g_prime(z: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):
        return p * (p - 1.0) * _abs_pow_raw(z, p - 2.0)


def _h_prime(z: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore"):
        return _abs_pow_raw(z, (2.0 - p) / (p - 1.0)) / ((p - 1.0) * p ** (1.0 / (p - 1.0)))


def _pow_sum(x: np.ndarray, p: float) -> np.ndarray:
    """sum_i |x_i|^p along the last axis."""
    with np.errstate(over="ignore", divide="ignore"):
        return _abs_pow_raw(x, p).sum(axis=-1)


# the rounding model of the solvers' stopping floors and of the certificate
_U = np.finfo(float).eps / 2.0  # unit roundoff


def _gamma(n: int) -> float:
    """Rounding allowance of a length-n dot product relative to |a|^T |b|."""
    return 2.0 * (n + 2) * _U


def abs_pow(z, a: float):
    """|z|^a with an explicit zero branch: 0^a = 0 for a > 0, 0^0 = 1.

    Computed via exp(a*log|z|) away from zero so non-integer exponents never
    see log(0).
    """
    out = _abs_pow(np.asarray(z, dtype=float), a)
    return out if out.ndim else float(out)


def pnorm_pow(x, p: float) -> float:
    """f(x) = sum_i |x_i|^p for p > 0.  Nonnegative; zero iff x = 0."""
    p = _check_exponent(p)
    return float(_pow_sum(_as_finite_array(x).ravel(), p))


def pnorm(x, p: float) -> float:
    """The p-norm (p >= 1) or p-quasi-norm (0 < p < 1): pnorm_pow(x, p)^(1/p)."""
    return pnorm_pow(x, p) ** (1.0 / _check_exponent(p))


def g_scalar(z, p: float):
    """g(z) = p * sgn(z) * |z|^(p-1), the derivative of |z|^p for p > 1.

    Odd and strictly increasing; g(0) = 0.
    """
    p = _require_p_gt1(p)
    if isinstance(z, (int, float)):
        z = _finite_float(z)
        return p * _sign(z) * _abs_pow_float(z, p - 1.0)
    out = _g(_as_finite_array(z, "z"), p)
    return out if out.ndim else float(out)


def h_scalar(z, p: float):
    """Inverse of g for p > 1: h(z) = sgn(z) * |z/p|^(1/(p-1))."""
    p = _require_p_gt1(p)
    if isinstance(z, (int, float)):
        z = _finite_float(z)
        return _sign(z) * _abs_pow_float(z / p, 1.0 / (p - 1.0))
    out = _h(_as_finite_array(z, "z"), p)
    return out if out.ndim else float(out)


def g_prime(z, p: float):
    """g'(z) = p(p-1) * |z|^(p-2).

    Globally defined for p >= 2 (constant 2 when p = 2).  For 1 < p < 2 the
    map g is not differentiable at 0, so z = 0 is rejected there.
    """
    p = _require_p_gt1(p)
    scalar = isinstance(z, (int, float))
    z = _finite_float(z) if scalar else _as_finite_array(z, "z")
    if p < 2.0 and (z == 0.0 if scalar else np.any(z == 0.0)):
        raise UndefinedDerivativeError(f"g is not differentiable at 0 for p={p} < 2")
    if scalar:
        return p * (p - 1.0) * _abs_pow_float(z, p - 2.0)
    out = _g_prime(z, p)
    return out if out.ndim else float(out)


def h_prime(z, p: float):
    """h'(z) = |z|^((2-p)/(p-1)) / [(p-1) * p^(1/(p-1))] for 1 < p <= 2.

    Globally defined on that range (constant 1/2 when p = 2); other
    exponents are rejected.
    """
    p = _check_exponent(p)
    if not (1.0 < p <= 2.0):
        raise UnsupportedExponentError(f"h_prime requires 1 < p <= 2, got p={p}")
    if isinstance(z, (int, float)):
        denom = (p - 1.0) * p ** (1.0 / (p - 1.0))
        return _abs_pow_float(_finite_float(z), (2.0 - p) / (p - 1.0)) / denom
    out = _h_prime(_as_finite_array(z, "z"), p)
    return out if out.ndim else float(out)


def pnorm_grad(x, p: float) -> np.ndarray:
    """Gradient of f(x) = sum |x_i|^p: the componentwise g map."""
    return _g(_as_finite_array(x), _require_p_gt1(p))
