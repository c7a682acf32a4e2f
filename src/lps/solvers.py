"""Numerical solvers for the p-norm problem families.

Five convex families for p > 1, each solved from its first-order
(KKT / stationarity) characterization:

  bp        minimize ||x||_p             subject to A x = y
  bpdn_eps  minimize ||x||_p             subject to ||A x - y||_2 <= eps
  bpdn_eta  minimize ||A x - y||_2       subject to ||x||_p <= eta
  rr        minimize 0.5 ||A x - y||_2^2 + lam * ||x||_p^p
  en        minimize 0.5 ||A x - y||_2^2 + lam1 * ||x||_p^r + lam2 * ||x||_2^2

plus two comparison solvers outside the p > 1 regime:

  bp_l1     minimize ||x||_1 subject to A x = y   (operator splitting)
  rr_irls   local solver for the rr objective with 0 < p < 1
            (iteratively reweighted least squares with smoothing)

Algorithm selection follows the exponent range: for 1 < p < 2 the inverse
map h and its globally defined derivative h' drive dual/fixed-point Newton
iterations; for p >= 2 the derivative g' is globally defined and plain
(primal) Newton systems are used.  A projected-gradient / first-order
fallback covers line-search breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import scipy.linalg

from . import pnorm
from .errors import InvalidInputError, RankDeficientError

__all__ = [
    "SolverConfig",
    "SolveResult",
    "ProblemInstance",
    "FAMILIES",
    "solve_bp",
    "solve_rr",
    "solve_en",
    "solve_bpdn_eps",
    "solve_bpdn_eta",
    "solve_bp_l1",
    "solve_rr_irls",
    "solve_instance",
    "kkt_residual",
]

FAMILIES = ("bp", "bpdn_eps", "bpdn_eta", "rr", "en", "bp_l1", "rr_irls")

CONVERGED = "converged"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"
DEGENERATE = "degenerate"

# operator-splitting constants for the l1 comparison solver
_L1_RHO = 1.0
_L1_MAX_ITER = 5000
_L1_DUAL_TOL = 1e-9

# smoothing schedule for the 0 < p < 1 comparison solver
_IRLS_EPS_START = 1.0
_IRLS_EPS_FINAL = 1e-12
_IRLS_EPS_SHRINK = 0.1
_IRLS_INNER_MAX = 60

_TIKHONOV = 1e-12


@dataclass
class SolverConfig:
    """Tolerances and iteration budgets shared by all solvers."""

    kkt_tol: float = 1e-10
    max_iter: int = 500
    max_iter_first_order: int = 50000
    # bpdn path-match tolerance, relative to ||y||_2 (eps form) or eta
    bisection_tol: float = 1e-10
    ls_shrink: float = 0.5
    ls_decrease: float = 1e-4
    algorithm: str = "auto"

    def validate(self):
        if self.kkt_tol <= 0 or self.bisection_tol <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_iter < 1 or self.max_iter_first_order < 1:
            raise InvalidInputError("iteration limits must be >= 1")
        if not (0 < self.ls_shrink < 1) or self.ls_decrease <= 0:
            raise InvalidInputError("invalid line-search parameters")


@dataclass
class SolveResult:
    x: np.ndarray
    multiplier: Union[np.ndarray, float, None]
    objective: float
    kkt_residual: float
    iterations: int
    status: str
    reduced_to_bp: bool = False

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass
class ProblemInstance:
    """A measurement pair plus the family tag and its parameters."""

    A: np.ndarray
    y: np.ndarray
    family: str
    p: Optional[float] = None
    lam: Optional[float] = None
    lam1: Optional[float] = None
    lam2: Optional[float] = None
    r: Optional[float] = None
    eps: Optional[float] = None
    eta: Optional[float] = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown family {self.family!r}")
        if self.A.ndim != 2 or self.A.shape[0] != self.y.shape[0]:
            raise InvalidInputError(
                f"A is {self.A.shape} but y has length {self.y.shape[0]}"
            )


def _validated(A, y):
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if A.ndim != 2:
        raise InvalidInputError(f"A must be a matrix, got shape {A.shape}")
    if A.shape[0] != y.shape[0]:
        raise InvalidInputError(f"A has {A.shape[0]} rows but y has length {y.shape[0]}")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(y)):
        raise InvalidInputError("A or y contains non-finite entries")
    return A, y


def _require_p_gt1(p):
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidInputError(f"this family requires p > 1, got p={p}")
    return p


def _gram_cho(A):
    """Cholesky factor of A A^T, or None when A lacks full row rank."""
    gram = A @ A.T
    try:
        c = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    if np.abs(np.diag(c[0])).min() ** 2 <= 1e-14 * max(np.abs(gram).max(), 1e-300):
        return None
    return c


def _project(A, cho, y, x):
    return x - A.T @ scipy.linalg.cho_solve(cho, A @ x - y, check_finite=False)


def _solve_shifted(M, rhs, scale):
    """Solve M d = rhs for symmetric PSD M, escalating a diagonal shift on failure."""
    shift = 0.0
    n = M.shape[0]
    for _ in range(8):
        try:
            c = scipy.linalg.cho_factor(M + shift * np.eye(n), check_finite=False)
            return scipy.linalg.cho_solve(c, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            shift = max(_TIKHONOV * max(scale, 1.0), shift * 100.0, 1e-300)
            if shift == 1e-300:
                shift = _TIKHONOV
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


class _StallGuard:
    """Detects an iteration grinding at its floating-point floor.

    Counts consecutive iterations whose residual fails to improve on the
    best seen by even a fraction of a percent; a run of those means the
    tolerance sits below what double precision can deliver here.
    """

    def __init__(self, patience: int = 8):
        self.best = np.inf
        self.count = 0
        self.patience = patience

    def stalled(self, res_norm: float) -> bool:
        if res_norm <= self.best * (1.0 - 1e-3):
            self.count = 0
        else:
            self.count += 1
        self.best = min(self.best, res_norm)
        return self.count >= self.patience


# ---------------------------------------------------------------------------
# generalized basis pursuit
# ---------------------------------------------------------------------------

def solve_bp(A, y, p, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_p over A x = y for p > 1.

    For 1 < p < 2 a damped Newton iteration runs on the dual residual
    F(nu) = A h(A^T nu) - y whose Jacobian A diag(h'(a_i^T nu)) A^T is
    positive semi-definite.  For p >= 2 a feasible-start Newton iteration
    runs on the primal KKT system with the diagonal Hessian diag(g'(x_i)).
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = _require_p_gt1(p)

    if not np.any(y):
        x = np.zeros(A.shape[1])
        return SolveResult(x, np.zeros(A.shape[0]), 0.0, 0.0, 0, CONVERGED)

    cho = _gram_cho(A)
    if cho is None:
        x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
        if np.linalg.norm(A @ x_ls - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
            return SolveResult(
                x=x_ls, multiplier=None, objective=pnorm.pnorm(x_ls, p),
                kkt_residual=np.inf, iterations=0, status=INFEASIBLE,
            )
        raise RankDeficientError("A is rank deficient; BP solver requires full row rank")

    algo = cfg.algorithm
    if algo == "auto":
        algo = "dual_newton" if p < 2.0 else "primal_dual_newton"
    if algo == "dual_newton":
        if p > 2.0:
            raise InvalidInputError("dual_newton requires 1 < p <= 2 (h' must be global)")
        return _bp_dual_newton(A, y, p, cfg, cho)
    if algo == "primal_dual_newton":
        if p < 2.0:
            raise InvalidInputError("primal_dual_newton requires p >= 2 (g' must be global)")
        return _bp_primal_newton(A, y, p, cfg, cho)
    if algo == "projected_gradient":
        x0 = A.T @ scipy.linalg.cho_solve(cho, y, check_finite=False)
        return _bp_projected_gradient(A, y, p, cfg, cho, x0, 0)
    raise InvalidInputError(f"unknown algorithm {algo!r} for bp")


def _bp_wrap(A, y, p, x, nu, iters, status):
    grad = pnorm.pnorm_grad(x, p)
    return SolveResult(
        x=x,
        multiplier=nu,
        objective=pnorm.pnorm(x, p),
        kkt_residual=float(
            np.abs(grad - A.T @ nu).max() + np.abs(A @ x - y).max()
        ),
        iterations=iters,
        status=status,
    )


def _bp_dual_conj(s, p):
    # convex conjugate of |.|^p, evaluated elementwise: (p-1) |s/p|^(p/(p-1))
    return (p - 1.0) * pnorm.abs_pow(np.asarray(s) / p, p / (p - 1.0))


def _bp_dual_newton(A, y, p, cfg, cho):
    m = A.shape[0]
    ny = np.linalg.norm(y)
    nu = 2.0 * scipy.linalg.cho_solve(cho, y, check_finite=False)

    def dual_obj(v):
        return float(v @ y - np.sum(_bp_dual_conj(A.T @ v, p)))

    q = dual_obj(nu)
    fails = 0
    guard = _StallGuard()
    for it in range(cfg.max_iter):
        s = A.T @ nu
        x = pnorm.h_scalar(s, p)
        F = A @ x - y
        if np.linalg.norm(F) <= cfg.kkt_tol * ny:
            return _bp_wrap(A, y, p, x, nu, it, CONVERGED)
        if guard.stalled(float(np.linalg.norm(F))):
            return _bp_wrap(A, y, p, x, nu, it, MAX_ITER)
        gamma = pnorm.h_prime(s, p)
        Q = (A * gamma) @ A.T
        d = _solve_shifted(Q, -F, np.trace(Q) / m)
        slope = float(-F @ d)
        if slope <= 0.0:
            d = -F  # gradient ascent on the dual
            slope = float(F @ F)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            q_new = dual_obj(nu + t * d)
            if q_new >= q + cfg.ls_decrease * t * slope - 1e-14 * (1.0 + abs(q)):
                nu = nu + t * d
                q = q_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            fails += 1
            if fails >= 3:
                x0 = A.T @ scipy.linalg.cho_solve(cho, y, check_finite=False)
                return _bp_projected_gradient(A, y, p, cfg, cho, x0, it)
        else:
            fails = 0
    s = A.T @ nu
    x = pnorm.h_scalar(s, p)
    return _bp_wrap(A, y, p, x, nu, cfg.max_iter, MAX_ITER)


def _bp_primal_newton(A, y, p, cfg, cho):
    """Feasible Newton on the primal KKT system, eliminated onto null(A).

    Iterates are kept exactly feasible by stepping only along an
    orthonormal null-space basis Z of A; the Newton system on the reduced
    variable has the matrix Z^T diag(g'(x_i)) Z, shifted when iterates sit
    near zero.
    """
    x = A.T @ scipy.linalg.cho_solve(cho, y, check_finite=False)
    Z = scipy.linalg.null_space(A)
    if Z.shape[1] == 0:
        # square invertible system: the feasible point is the solution
        nu = scipy.linalg.cho_solve(cho, A @ pnorm.pnorm_grad(x, p), check_finite=False)
        return _bp_wrap(A, y, p, x, nu, 0, CONVERGED)
    fx = pnorm.pnorm_pow(x, p)
    fails = 0
    guard = _StallGuard()
    nu = np.zeros(A.shape[0])
    for it in range(cfg.max_iter):
        grad = pnorm.pnorm_grad(x, p)
        nu = scipy.linalg.cho_solve(cho, A @ grad, check_finite=False)
        resid = grad - A.T @ nu
        if np.abs(resid).max() <= cfg.kkt_tol * (1.0 + np.abs(grad).max()):
            return _bp_wrap(A, y, p, x, nu, it, CONVERGED)
        if guard.stalled(float(np.abs(resid).max())):
            return _bp_wrap(A, y, p, x, nu, it, MAX_ITER)
        lam = pnorm.g_prime(x, p)
        if lam.min() < _TIKHONOV:
            lam = lam + _TIKHONOV
        H = (Z * lam[:, None]).T @ Z
        du = _solve_shifted(H, -(Z.T @ grad), np.trace(H) / H.shape[0])
        dx = Z @ du
        slope = float(grad @ dx)
        if slope >= 0.0:
            dx = -Z @ (Z.T @ grad)
            slope = float(grad @ dx)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            x_new = x + t * dx
            f_new = pnorm.pnorm_pow(x_new, p)
            if f_new <= fx + cfg.ls_decrease * t * slope + 1e-14 * (1.0 + abs(fx)):
                x, fx = x_new, f_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            fails += 1
            if fails >= 3:
                return _bp_projected_gradient(A, y, p, cfg, cho, x, it)
        else:
            fails = 0
    return _bp_wrap(A, y, p, x, nu, cfg.max_iter, MAX_ITER)


def _bp_projected_gradient(A, y, p, cfg, cho, x0, iters_used):
    """Gradient steps projected onto {Ax = y}, with BB trial step and Armijo."""
    x = _project(A, cho, y, x0)
    fx = pnorm.pnorm_pow(x, p)

    def proj_grad(v):
        grad = pnorm.pnorm_grad(v, p)
        return grad, grad - A.T @ scipy.linalg.cho_solve(cho, A @ grad, check_finite=False)

    grad, pg = proj_grad(x)
    t = 1.0 / max(float(np.abs(pg).max()), 1.0)
    x_prev = None
    pg_prev = None
    it = 0
    for it in range(cfg.max_iter_first_order):
        if np.abs(pg).max() <= cfg.kkt_tol * (1.0 + np.abs(grad).max()):
            nu = scipy.linalg.cho_solve(cho, A @ grad, check_finite=False)
            return _bp_wrap(A, y, p, x, nu, iters_used + it, CONVERGED)
        if x_prev is not None:
            s = x - x_prev
            sg = pg - pg_prev
            denom = float(s @ sg)
            if denom > 0:
                t = min(max(float(s @ s) / denom, 1e-12), 1e8)
        accepted = False
        tt = t
        pg2 = float(pg @ pg)
        while tt >= 1e-18:
            x_new = x - tt * pg
            f_new = pnorm.pnorm_pow(x_new, p)
            if f_new <= fx - cfg.ls_decrease * tt * pg2 + 1e-14 * (1.0 + abs(fx)):
                x_prev, pg_prev = x, pg
                x, fx = x_new, f_new
                grad, pg = proj_grad(x)
                accepted = True
                break
            tt *= cfg.ls_shrink
        if not accepted:
            break
    nu = scipy.linalg.cho_solve(cho, A @ pnorm.pnorm_grad(x, p), check_finite=False)
    return _bp_wrap(A, y, p, x, nu, iters_used + it + 1, MAX_ITER)


# ---------------------------------------------------------------------------
# generalized ridge regression
# ---------------------------------------------------------------------------

def solve_rr(A, y, p, lam, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize 0.5 ||A x - y||_2^2 + lam ||x||_p^p for p > 1, lam > 0.

    Stationarity: A^T (A x - y) + lam * grad_f(x) = 0.  For 1 < p < 2 the
    equivalent fixed-point form x_i = -h(a_i^T (A x - y) / lam) is solved by
    a damped Newton iteration in the residual variable w = y - A x, whose
    Jacobian I + lam^{-1} A diag(h') A^T is symmetric positive definite.
    For p >= 2 plain Newton runs on the stationarity system.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = _require_p_gt1(p)
    lam = float(lam)
    if lam <= 0:
        raise InvalidInputError(f"rr requires lam > 0, got {lam}")
    return _rr_core(A, y, p, lam, cfg, None)


def _rr_core(A, y, p, lam, cfg, warm) -> SolveResult:
    aty = A.T @ y
    if not np.any(aty):
        return SolveResult(np.zeros(A.shape[1]), None, 0.5 * float(y @ y), 0.0, 0, CONVERGED)
    algo = cfg.algorithm
    if algo == "auto":
        algo = "fixed_point" if p < 2.0 else "primal_dual_newton"
    if algo == "fixed_point":
        if p > 2.0:
            raise InvalidInputError("fixed_point requires 1 < p <= 2 (h' must be global)")
        return _rr_residual_newton(A, y, p, lam, cfg, warm)
    if algo == "primal_dual_newton":
        if p < 2.0:
            raise InvalidInputError("primal_dual_newton requires p >= 2 (g' must be global)")
        return _rr_primal_newton(A, y, p, lam, cfg, warm)
    if algo == "projected_gradient":
        obj = lambda x: 0.5 * float(np.sum((A @ x - y) ** 2)) + lam * pnorm.pnorm_pow(x, p)
        grad = lambda x: A.T @ (A @ x - y) + lam * pnorm.pnorm_grad(x, p)
        x0 = warm if warm is not None else _ridge2_start(A, y, lam)
        return _first_order(A, y, obj, grad, x0, cfg, _rr_result(A, y, p, lam))
    raise InvalidInputError(f"unknown algorithm {algo!r} for rr")


def _ridge2_start(A, y, lam):
    n = A.shape[1]
    return _solve_shifted(A.T @ A + 2.0 * lam * np.eye(n), A.T @ y, 1.0)


def _rr_result(A, y, p, lam):
    def wrap(x, iters, status):
        resid = A @ x - y
        station = A.T @ resid + lam * pnorm.pnorm_grad(x, p)
        return SolveResult(
            x=x,
            multiplier=None,
            objective=0.5 * float(resid @ resid) + lam * pnorm.pnorm_pow(x, p),
            kkt_residual=float(np.abs(station).max()),
            iterations=iters,
            status=status,
        )
    return wrap


def _rr_residual_newton(A, y, p, lam, cfg, warm):
    wrap = _rr_result(A, y, p, lam)
    scale = np.abs(A.T @ y).max()
    m = A.shape[0]
    x0 = warm if warm is not None else _ridge2_start(A, y, lam)
    w = y - A @ x0

    def residual(wv):
        s = (A.T @ wv) / lam
        x = pnorm.h_scalar(s, p)
        return x, s, wv - y + A @ x

    x, s, G = residual(w)
    merit = float(G @ G)
    guard = _StallGuard()
    for it in range(cfg.max_iter):
        station = float(np.abs(A.T @ G).max())
        if station <= cfg.kkt_tol * scale:
            return wrap(x, it, CONVERGED)
        if guard.stalled(station):
            return wrap(x, it, MAX_ITER)
        gamma = pnorm.h_prime(s, p) / lam
        J = np.eye(m) + (A * gamma) @ A.T
        d = _solve_shifted(J, -G, np.trace(J) / m)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            w_new = w + t * d
            x_new, s_new, G_new = residual(w_new)
            m_new = float(G_new @ G_new)
            if m_new <= merit - cfg.ls_decrease * t * merit:
                w, x, s, G, merit = w_new, x_new, s_new, G_new, m_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            obj = lambda x: 0.5 * float(np.sum((A @ x - y) ** 2)) + lam * pnorm.pnorm_pow(x, p)
            grad = lambda x: A.T @ (A @ x - y) + lam * pnorm.pnorm_grad(x, p)
            return _first_order(A, y, obj, grad, x, cfg, wrap, it)
    return wrap(x, cfg.max_iter, MAX_ITER)


def _rr_primal_newton(A, y, p, lam, cfg, warm):
    wrap = _rr_result(A, y, p, lam)
    n = A.shape[1]
    scale = np.abs(A.T @ y).max()
    AtA = A.T @ A
    x = warm if warm is not None else _ridge2_start(A, y, lam)

    def objective(v):
        return 0.5 * float(np.sum((A @ v - y) ** 2)) + lam * pnorm.pnorm_pow(v, p)

    fx = objective(x)
    guard = _StallGuard()
    for it in range(cfg.max_iter):
        G = A.T @ (A @ x - y) + lam * pnorm.pnorm_grad(x, p)
        gnorm = float(np.abs(G).max())
        if gnorm <= cfg.kkt_tol * scale:
            return wrap(x, it, CONVERGED)
        if guard.stalled(gnorm):
            return wrap(x, it, MAX_ITER)
        J = AtA + np.diag(lam * pnorm.g_prime(x, p))
        d = _solve_shifted(J, -G, np.trace(J) / n)
        slope = float(G @ d)
        if slope >= 0.0:
            d, slope = -G, -float(G @ G)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            x_new = x + t * d
            f_new = objective(x_new)
            if f_new <= fx + cfg.ls_decrease * t * slope + 1e-14 * (1.0 + abs(fx)):
                x, fx = x_new, f_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            grad = lambda v: A.T @ (A @ v - y) + lam * pnorm.pnorm_grad(v, p)
            return _first_order(A, y, objective, grad, x, cfg, wrap, it)
    return wrap(x, cfg.max_iter, MAX_ITER)


def _first_order(A, y, obj, grad, x0, cfg, wrap, iters_used=0):
    """Barzilai-Borwein gradient descent with a nonmonotone Armijo safeguard.

    The sufficient-decrease test compares against the worst of the last ten
    accepted objective values (Grippo style), which lets the BB step keep
    its fast asymptotic behavior.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = obj(x)
    g = grad(x)
    scale = np.abs(A.T @ y).max()
    t = 1.0 / max(float(np.abs(g).max()), 1.0)
    x_prev = None
    g_prev = None
    recent = [fx]
    for it in range(cfg.max_iter_first_order):
        if np.abs(g).max() <= cfg.kkt_tol * scale:
            return wrap(x, iters_used + it, CONVERGED)
        if x_prev is not None:
            sx = x - x_prev
            sg = g - g_prev
            denom = float(sx @ sg)
            if denom > 0:
                t = min(max(float(sx @ sx) / denom, 1e-12), 1e8)
        accepted = False
        tt = t
        gnorm2 = float(g @ g)
        f_ref = max(recent)
        while tt >= 1e-18:
            x_new = x - tt * g
            f_new = obj(x_new)
            if f_new <= f_ref - cfg.ls_decrease * tt * gnorm2 + 1e-14 * (1.0 + abs(f_ref)):
                x_prev, g_prev = x, g
                x, fx = x_new, f_new
                g = grad(x)
                recent.append(fx)
                if len(recent) > 10:
                    recent.pop(0)
                accepted = True
                break
            tt *= cfg.ls_shrink
        if not accepted:
            return wrap(x, iters_used + it, MAX_ITER)
    return wrap(x, iters_used + cfg.max_iter_first_order, MAX_ITER)


# ---------------------------------------------------------------------------
# generalized elastic net
# ---------------------------------------------------------------------------

def solve_en(A, y, p, r, lam1, lam2, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize 0.5 ||A x - y||_2^2 + lam1 ||x||_p^r + lam2 ||x||_2^2.

    Requires p > 1, r >= 1, lam1 > 0, lam2 > 0 (the strictly convex case
    with a unique minimizer).  Stationarity at nonzero x:

        A^T (A x - y) + (r lam1 / p) ||x||_p^(r-p) grad_f(x) + 2 lam2 x = 0.

    Newton with the exact Hessian of ||.||_p^r for p >= 2; for 1 < p <= 2
    a damped Newton iteration on the inverse-map form of the stationarity
    system (which stays smooth as coordinates cross zero).  A BB + Armijo
    first-order method backs both up and is selectable as
    algorithm="projected_gradient".
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = _require_p_gt1(p)
    r, lam1, lam2 = float(r), float(lam1), float(lam2)
    if r < 1.0:
        raise InvalidInputError(f"en requires r >= 1, got r={r}")
    if lam1 <= 0 or lam2 <= 0:
        raise InvalidInputError("en requires lam1 > 0 and lam2 > 0")

    aty = A.T @ y
    wrap = _en_result(A, y, p, r, lam1, lam2)
    if not np.any(aty):
        return wrap(np.zeros(A.shape[1]), 0, CONVERGED)
    if r == 1.0:
        # x = 0 is optimal iff the dual-norm subgradient condition holds
        q = p / (p - 1.0)
        if pnorm.pnorm(aty, q) <= lam1:
            return wrap(np.zeros(A.shape[1]), 0, CONVERGED)

    def objective(x):
        return (
            0.5 * float(np.sum((A @ x - y) ** 2))
            + lam1 * pnorm.pnorm(x, p) ** r
            + lam2 * float(x @ x)
        )

    def gradient(x):
        base = A.T @ (A @ x - y) + 2.0 * lam2 * x
        fpow = pnorm.pnorm_pow(x, p)
        if fpow == 0.0:
            return base
        return base + (r * lam1 / p) * fpow ** ((r - p) / p) * pnorm.pnorm_grad(x, p)

    algo = cfg.algorithm
    if algo == "auto":
        algo = "fixed_point" if p < 2.0 else "primal_dual_newton"
    x0 = _solve_shifted(A.T @ A + 2.0 * (lam1 + lam2) * np.eye(A.shape[1]), aty, 1.0)
    if algo == "projected_gradient":
        return _first_order(A, y, objective, gradient, x0, cfg, wrap)
    if algo == "fixed_point":
        if p > 2.0:
            raise InvalidInputError("fixed_point requires 1 < p <= 2 (h' must be global)")
        return _en_h_newton(A, y, p, r, lam1, lam2, cfg, x0, objective, gradient, wrap)
    if algo != "primal_dual_newton":
        raise InvalidInputError(f"unknown algorithm {algo!r} for en")
    if p < 2.0:
        raise InvalidInputError("primal_dual_newton requires p >= 2 for en")

    n = A.shape[1]
    AtA = A.T @ A
    scale = 1.0 + np.abs(aty).max()
    x = x0
    fx = objective(x)
    guard = _StallGuard()
    for it in range(cfg.max_iter):
        G = gradient(x)
        gnorm = float(np.abs(G).max())
        if gnorm <= cfg.kkt_tol * scale:
            return wrap(x, it, CONVERGED)
        if guard.stalled(gnorm):
            return wrap(x, it, MAX_ITER)
        J = AtA + lam1 * pnorm.pnorm_r_hessian(x, p, r) + 2.0 * lam2 * np.eye(n)
        d = _solve_shifted(J, -G, np.trace(J) / n)
        slope = float(G @ d)
        if slope >= 0.0:
            d, slope = -G, -float(G @ G)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            x_new = x + t * d
            f_new = objective(x_new)
            if f_new <= fx + cfg.ls_decrease * t * slope + 1e-14 * (1.0 + abs(fx)):
                x, fx = x_new, f_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            return _first_order(A, y, objective, gradient, x, cfg, wrap, it)
    return wrap(x, cfg.max_iter, MAX_ITER)


def _en_h_newton(A, y, p, r, lam1, lam2, cfg, x0, objective, gradient, wrap):
    """Damped Newton on the inverse-map form of the en stationarity, 1 < p <= 2.

    The system is Psi(x) = x + h(w(x)) = 0 with
    w_i = p ||x||_p^(p-r) (a_i^T (Ax - y) + 2 lam2 x_i) / (r lam1), which is
    continuously differentiable wherever x != 0 (the componentwise crossing
    through zero is smooth, unlike the x-space Hessian which blows up).
    """
    n = A.shape[1]
    AtA = A.T @ A
    aty = A.T @ y
    scale = 1.0 + np.abs(aty).max()
    x = x0.copy()

    def system(v):
        fpow = pnorm.pnorm_pow(v, p)
        npow = fpow ** ((p - r) / p)  # ||v||_p^(p-r)
        base = AtA @ v - aty + 2.0 * lam2 * v
        w = (p / (r * lam1)) * npow * base
        return w, npow, base, v + pnorm.h_scalar(w, p)

    w, npow, base, psi = system(x)
    merit = float(np.linalg.norm(psi))
    guard = _StallGuard()
    for it in range(cfg.max_iter):
        G = gradient(x)
        gnorm = float(np.abs(G).max())
        if gnorm <= cfg.kkt_tol * scale:
            return wrap(x, it, CONVERGED)
        if guard.stalled(gnorm):
            return wrap(x, it, MAX_ITER)
        gamma = pnorm.h_prime(w, p)
        grad_npow = (p - r) / p * pnorm.pnorm_grad(x, p) / max(pnorm.pnorm_pow(x, p) ** (r / p), 1e-300)
        inner = np.outer(base, grad_npow) + npow * (AtA + 2.0 * lam2 * np.eye(n))
        J = np.eye(n) + (p / (r * lam1)) * gamma[:, None] * inner
        try:
            d = np.linalg.solve(J, -psi)
        except np.linalg.LinAlgError:
            return _first_order(A, y, objective, gradient, x, cfg, wrap, it)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            x_new = x + t * d
            w_new, npow_new, base_new, psi_new = system(x_new)
            m_new = float(np.linalg.norm(psi_new))
            if m_new <= (1.0 - cfg.ls_decrease * t) * merit + 1e-14 * (1.0 + merit):
                x, w, npow, base, psi, merit = x_new, w_new, npow_new, base_new, psi_new, m_new
                accepted = True
                break
            t *= cfg.ls_shrink
        if not accepted:
            return _first_order(A, y, objective, gradient, x, cfg, wrap, it)
    return wrap(x, cfg.max_iter, MAX_ITER)




def _en_result(A, y, p, r, lam1, lam2):
    def wrap(x, iters, status):
        resid = A @ x - y
        station = A.T @ resid + 2.0 * lam2 * x
        fpow = pnorm.pnorm_pow(x, p)
        if fpow > 0.0:
            station = station + (r * lam1 / p) * fpow ** ((r - p) / p) * pnorm.pnorm_grad(x, p)
        obj = 0.5 * float(resid @ resid) + lam1 * pnorm.pnorm(x, p) ** r + lam2 * float(x @ x)
        return SolveResult(
            x=x, multiplier=None, objective=obj,
            kkt_residual=float(np.abs(station).max()), iterations=iters, status=status,
        )
    return wrap


# ---------------------------------------------------------------------------
# basis pursuit denoising, residual-constrained form
# ---------------------------------------------------------------------------

def solve_bpdn_eps(A, y, p, eps, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_p over ||A x - y||_2 <= eps, for p > 1 and eps > 0.

    For eps >= ||y||_2 the solution is x = 0 with multiplier 0.  Otherwise
    the constraint is active and there is a unique mu > 0 with
    grad_f(x) + 2 mu A^T (A x - y) = 0; the solution lies on the penalized
    path x(lam) = rr-solution(lam) at lam = 1/(2 mu), located by a
    safeguarded Newton root-find (_rr_path_root) on ||A x(lam) - y||_2 = eps.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = _require_p_gt1(p)
    eps = float(eps)
    if eps <= 0:
        raise InvalidInputError(f"bpdn_eps requires eps > 0, got {eps}")
    if _gram_cho(A) is None:
        raise RankDeficientError("bpdn_eps requires A with full row rank")

    ny = float(np.linalg.norm(y))
    n = A.shape[1]
    if eps >= ny:
        x = np.zeros(n)
        return SolveResult(x, 0.0, 0.0, 0.0, 0, CONVERGED)

    inner = _rr_path_root(A, y, p, cfg, residual=True, target=eps,
                          tol=cfg.bisection_tol * ny, tol_floor=1e-8 * ny)
    if inner is None:
        x = np.zeros(n)
        return SolveResult(x, None, pnorm.pnorm(x, p), np.inf, 0, DEGENERATE)
    x, lam, iters = inner
    mu = 1.0 / (2.0 * lam)
    grad = pnorm.pnorm_grad(x, p)
    resid = A @ x - y
    kkt = float(
        np.abs(grad + 2.0 * mu * (A.T @ resid)).max()
        + max(0.0, float(np.linalg.norm(resid)) - eps)
    )
    return SolveResult(x, mu, pnorm.pnorm(x, p), kkt, iters, CONVERGED)


def solve_bpdn_eta(A, y, p, eta, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||A x - y||_2 over ||x||_p <= eta, for p > 1 and eta > 0.

    When eta >= min {||x||_p : A x = y} the residual can be driven to zero
    and the problem reduces to basis pursuit; the bp solution is returned
    with multiplier 0 and the reduction flagged.  Otherwise the constraint
    is active, the multiplier mu > 0 is unique, and the solution lies on
    the same penalized path at lam = mu, located by the same root-find on
    ||x(mu)||_p = eta.  bp is solved only when eta is not below a dual lower
    bound on its optimum.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = _require_p_gt1(p)
    eta = float(eta)
    if eta <= 0:
        raise InvalidInputError(f"bpdn_eta requires eta > 0, got {eta}")
    cho = _gram_cho(A)
    if cho is None:
        raise RankDeficientError("bpdn_eta requires A with full row rank")

    # every x with A x = y has ||x||_p >= ||x_ls||_2^2 / ||x_ls||_q (Hoelder
    # against the least-norm solution x_ls), so below that bound the
    # constraint is active and bp is not needed; the factor is a rounding
    # allowance.  Internal solves pick their own branch: cfg.algorithm names
    # rr/bp-specific methods that need not coincide.
    bp_cfg = replace(cfg, algorithm="auto")
    x_ls = A.T @ scipy.linalg.cho_solve(cho, y, check_finite=False)
    bp = None
    if eta * pnorm.pnorm(x_ls, p / (p - 1.0)) >= (1.0 - 1e-10) * float(x_ls @ x_ls):
        bp = solve_bp(A, y, p, bp_cfg)
        if pnorm.pnorm(bp.x, p) <= eta:
            return SolveResult(bp.x, 0.0, float(np.linalg.norm(A @ bp.x - y)), bp.kkt_residual,
                               bp.iterations, bp.status, reduced_to_bp=True)

    inner = _rr_path_root(A, y, p, cfg, residual=False, target=eta,
                          tol=cfg.bisection_tol * eta, tol_floor=1e-8 * eta)
    if inner is None:
        if bp is None:
            bp = solve_bp(A, y, p, bp_cfg)
        return SolveResult(bp.x, None, float(np.linalg.norm(A @ bp.x - y)),
                           np.inf, bp.iterations, DEGENERATE)
    x, mu, iters = inner
    resid = A @ x - y
    kkt = float(
        np.abs(A.T @ resid + mu * pnorm.pnorm_grad(x, p)).max()
        + max(0.0, pnorm.pnorm(x, p) - eta)
    )
    return SolveResult(x, mu, float(np.linalg.norm(resid)), kkt, iters, CONVERGED)


def _path_dx(A, p, lam, x):
    """dx/dlam on the rr path, from the derivative of its stationarity.

    Differentiating A^T (A x - y) + lam g(x) = 0 gives
    (A^T A + lam diag(g'(x))) dx = -g(x).  For p >= 2 that n x n system is
    solved as it stands; for 1 < p < 2, where g' blows up at 0, it is solved
    in Woodbury form with E = diag(h'(g(x)) / lam) and the m x m matrix
    J = I + A E A^T of the residual Newton iteration.
    """
    g = pnorm.pnorm_grad(x, p)
    if p >= 2.0:
        J = A.T @ A + np.diag(lam * pnorm.g_prime(x, p))
        return _solve_shifted(J, -g, np.trace(J) / J.shape[0])
    e = pnorm.h_prime(g, p) / lam
    J = np.eye(A.shape[0]) + (A * e) @ A.T
    dw = _solve_shifted(J, A @ (e * g), np.trace(J) / J.shape[0])
    return e * (A.T @ dw - g)


def _rr_path_root(A, y, p, cfg, residual, target, tol, tol_floor):
    """Find lam on the rr path x(lam) where the path value meets target.

    The path value is ||A x - y||_2 when `residual` (it grows with lam),
    else ||x||_p (it falls).  Newton steps in log lam take their slope
    from _path_dx.  The bracket [lo, hi] seen so far guards them: a step
    that leaves it, or that follows a Newton step which failed to halve the
    mismatch, is replaced by a geometric one (x8, /8 or sqrt(lo hi)).  The
    start mean(A * A) and the floor 1e-12 times it scale as c^2 when (A, y)
    scales by c, so the iteration is scale-free.  The loop aims for
    |value - target| <= tol; when the bracket collapses to machine width
    first (the tolerance sits below what the inner solves can certify), the
    closest point is still accepted if it matches within tol_floor.
    Returns (x, lam, inner_iterations), or None when even the floor lies
    past the target or no point meets tol_floor.
    """
    # inner solves are polished well below the match tolerance so the path
    # value and its slope carry negligible noise
    inner_cfg = replace(cfg, kkt_tol=max(1e-13, cfg.kkt_tol * 1e-3), algorithm="auto")
    lam = float(np.mean(A * A))
    floor = 1e-12 * lam
    lo, hi = 0.0, np.inf
    total, warm = 0, None
    best = (np.inf, None, None)
    last_gap = np.inf
    newton = False
    for _ in range(200):  # budget of inner rr solves
        res = _rr_core(A, y, p, lam, inner_cfg, warm)
        total += res.iterations
        x = warm = res.x
        r = A @ x - y
        value = float(np.linalg.norm(r)) if residual else pnorm.pnorm(x, p)
        gap = value - target
        if abs(gap) <= tol:
            return x, lam, total
        if abs(gap) < best[0]:
            best = (abs(gap), x, lam)
        if (gap > 0.0) == residual:
            if lam <= floor:
                return None
            hi = lam
        else:
            lo = lam
        if lo >= (1.0 - 1e-13) * hi:
            break
        dx = _path_dx(A, p, lam, x)
        with np.errstate(all="ignore"):
            if residual:
                # Newton on log ||r||, which is near linear in log lam where
                # the residual grows like lam; ||x||_p is stepped on as it is
                phi, slope = np.log(value / target), lam * (r @ (A @ dx)) / value ** 2
            else:
                phi, slope = gap, lam * (pnorm.pnorm_grad(x / value, p) @ dx) / p
            step = float(lam * np.exp(-phi / slope))
        # an open side of the bracket reaches one geometric step out
        if hi == np.inf:
            geometric = 8.0 * lam
            inside = lo < step <= geometric
        elif lo == 0.0:
            geometric = max(lam / 8.0, floor)
            inside = geometric <= step < hi
        else:
            geometric = float(np.sqrt(lo * hi))
            inside = lo < step < hi
        newton = inside and not (newton and abs(gap) > 0.5 * last_gap)
        lam = step if newton else geometric
        last_gap = abs(gap)
    gap, x, lam = best
    return (x, lam, total) if gap <= tol_floor else None


# ---------------------------------------------------------------------------
# l1 comparison solver (p = 1)
# ---------------------------------------------------------------------------

def solve_bp_l1(A, y, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_1 over A x = y by operator splitting.

    Alternates between projection onto the affine set and componentwise
    soft thresholding with an augmented penalty (rho = 1), stopping on the
    dual residual.  For non-unique optima the objective value, not the
    point, is the contract.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    cho = _gram_cho(A)
    if cho is None:
        raise RankDeficientError("bp_l1 requires A with full row rank")
    n = A.shape[1]
    if not np.any(y):
        return SolveResult(np.zeros(n), np.zeros(A.shape[0]), 0.0, 0.0, 0, CONVERGED)

    rho = _L1_RHO
    x = A.T @ scipy.linalg.cho_solve(cho, y, check_finite=False)
    z = x.copy()
    u = np.zeros(n)
    status = MAX_ITER
    it = 0
    for it in range(_L1_MAX_ITER):
        x = _project(A, cho, y, z - u)
        z_old = z
        v = x + u
        z = np.sign(v) * np.maximum(np.abs(v) - 1.0 / rho, 0.0)
        u = u + x - z
        r_primal = float(np.linalg.norm(x - z))
        r_dual = rho * float(np.linalg.norm(z - z_old))
        if r_dual <= _L1_DUAL_TOL and r_primal <= _L1_DUAL_TOL * (1.0 + float(np.abs(x).max())):
            status = CONVERGED
            break
    x_out = _project(A, cho, y, z)
    nu = rho * scipy.linalg.cho_solve(cho, A @ u, check_finite=False)
    gap = abs(float(np.abs(x_out).sum()) - float(y @ nu))
    kkt = float(
        np.abs(A @ x_out - y).max()
        + max(0.0, float(np.abs(A.T @ nu).max()) - 1.0)
        + gap
    )
    return SolveResult(
        x=x_out, multiplier=nu, objective=float(np.abs(x_out).sum()),
        kkt_residual=kkt, iterations=it + 1, status=status,
    )


# ---------------------------------------------------------------------------
# 0 < p < 1 comparison solver (IRLS with smoothing)
# ---------------------------------------------------------------------------

def solve_rr_irls(A, y, p, lam, cfg: SolverConfig | None = None,
                  trace: Optional[list] = None) -> SolveResult:
    """Local solver for 0.5 ||A x - y||_2^2 + lam sum (x_i^2 + eps)^(p/2), 0 < p < 1.

    Iteratively reweighted least squares on a decreasing smoothing schedule
    eps: 1 -> 1e-12.  Each reweighted solve minimizes a majorizer of the
    smoothed objective, so the smoothed objective is monotone non-increasing
    along the iteration.  When `trace` is a list, (eps, smoothed objective)
    pairs are appended after every inner step.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"rr_irls requires 0 < p < 1, got p={p}")
    lam = float(lam)
    if lam <= 0:
        raise InvalidInputError(f"rr_irls requires lam > 0, got {lam}")

    n = A.shape[1]
    if not np.any(A.T @ y):
        return SolveResult(np.zeros(n), None, 0.5 * float(y @ y), 0.0, 0, CONVERGED)

    AtA = A.T @ A
    aty = A.T @ y
    x = _solve_shifted(AtA + lam * np.eye(n), aty, 1.0)
    iters = 0
    final_inner_converged = False
    eps = _IRLS_EPS_START
    if trace is not None:
        trace.append((eps, smoothed_irls_objective(A, y, x, p, lam, eps)))
    while True:
        for _ in range(_IRLS_INNER_MAX):
            w = (x * x + eps) ** (p / 2.0 - 1.0)
            x_new = _solve_shifted(AtA + lam * p * np.diag(w), aty, 1.0)
            iters += 1
            step = float(np.abs(x_new - x).max())
            x = x_new
            if trace is not None:
                trace.append((eps, smoothed_irls_objective(A, y, x, p, lam, eps)))
            if step <= 1e-13 * (1.0 + float(np.abs(x).max())):
                final_inner_converged = True
                break
        else:
            final_inner_converged = False
        if eps <= _IRLS_EPS_FINAL:
            break
        eps = max(eps * _IRLS_EPS_SHRINK, _IRLS_EPS_FINAL)

    station = aty - AtA @ x - lam * p * x * (x * x + _IRLS_EPS_FINAL) ** (p / 2.0 - 1.0)
    status = CONVERGED if final_inner_converged else MAX_ITER
    obj = 0.5 * float(np.sum((A @ x - y) ** 2)) + lam * pnorm.pnorm_pow(x, p)
    return SolveResult(x, None, obj, float(np.abs(station).max()), iters, status)


def smoothed_irls_objective(A, y, x, p, lam, eps):
    """The smoothing objective used by solve_rr_irls at a given eps."""
    r = A @ x - y
    return 0.5 * float(r @ r) + lam * float(np.sum((x * x + eps) ** (p / 2.0)))


# ---------------------------------------------------------------------------
# unified dispatch and diagnostics
# ---------------------------------------------------------------------------

def solve_instance(inst: ProblemInstance, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a ProblemInstance by dispatching on its family tag."""
    f = inst.family
    if f == "bp":
        return solve_bp(inst.A, inst.y, inst.p, cfg)
    if f == "rr":
        return solve_rr(inst.A, inst.y, inst.p, inst.lam, cfg)
    if f == "en":
        return solve_en(inst.A, inst.y, inst.p, inst.r, inst.lam1, inst.lam2, cfg)
    if f == "bpdn_eps":
        return solve_bpdn_eps(inst.A, inst.y, inst.p, inst.eps, cfg)
    if f == "bpdn_eta":
        return solve_bpdn_eta(inst.A, inst.y, inst.p, inst.eta, cfg)
    if f == "bp_l1":
        return solve_bp_l1(inst.A, inst.y, cfg)
    if f == "rr_irls":
        return solve_rr_irls(inst.A, inst.y, inst.p, inst.lam, cfg)
    raise InvalidInputError(f"unknown family {f!r}")


def kkt_residual(inst: ProblemInstance, result: SolveResult) -> float:
    """Max-norm stationarity residual plus feasibility violation for a solution.

    Zero for exact solutions; absolute, not relative.
    """
    A, y = inst.A, inst.y
    x = np.asarray(result.x, dtype=float).ravel()
    if x.shape[0] != A.shape[1]:
        raise InvalidInputError("solution dimension does not match the instance")
    f = inst.family

    if f == "bp":
        nu = result.multiplier
        if nu is None:
            raise InvalidInputError("bp kkt residual requires the multiplier nu")
        nu = np.asarray(nu, dtype=float).ravel()
        grad = pnorm.pnorm_grad(x, _require_p_gt1(inst.p))
        return float(np.abs(grad - A.T @ nu).max() + np.abs(A @ x - y).max())

    if f == "rr":
        p = _require_p_gt1(inst.p)
        if inst.lam is None or inst.lam <= 0:
            raise InvalidInputError("rr requires lam > 0")
        return float(np.abs(A.T @ (A @ x - y) + inst.lam * pnorm.pnorm_grad(x, p)).max())

    if f == "en":
        p = _require_p_gt1(inst.p)
        if None in (inst.r, inst.lam1, inst.lam2):
            raise InvalidInputError("en requires r, lam1, lam2")
        base = A.T @ (A @ x - y) + 2.0 * inst.lam2 * x
        fpow = pnorm.pnorm_pow(x, p)
        if fpow == 0.0:
            if inst.r == 1.0:
                q = p / (p - 1.0)
                return max(0.0, pnorm.pnorm(A.T @ y, q) - inst.lam1)
            return float(np.abs(base).max())
        station = base + (inst.r * inst.lam1 / p) * fpow ** ((inst.r - p) / p) * pnorm.pnorm_grad(x, p)
        return float(np.abs(station).max())

    if f == "bpdn_eps":
        p = _require_p_gt1(inst.p)
        if inst.eps is None or inst.eps <= 0:
            raise InvalidInputError("bpdn_eps requires eps > 0")
        mu = result.multiplier
        if mu is None:
            raise InvalidInputError("bpdn_eps kkt residual requires the multiplier mu")
        mu = float(mu)
        resid = A @ x - y
        rn = float(np.linalg.norm(resid))
        station = pnorm.pnorm_grad(x, p) + 2.0 * mu * (A.T @ resid)
        return float(np.abs(station).max() + max(0.0, rn - inst.eps))

    if f == "bpdn_eta":
        p = _require_p_gt1(inst.p)
        if inst.eta is None or inst.eta <= 0:
            raise InvalidInputError("bpdn_eta requires eta > 0")
        mu = result.multiplier
        if mu is None:
            raise InvalidInputError("bpdn_eta kkt residual requires the multiplier mu")
        mu = float(mu)
        xn = pnorm.pnorm(x, p)
        station = A.T @ (A @ x - y) + mu * pnorm.pnorm_grad(x, p)
        return float(np.abs(station).max() + max(0.0, xn - inst.eta))

    if f == "bp_l1":
        nu = result.multiplier
        if nu is None:
            raise InvalidInputError("bp_l1 kkt residual requires the dual vector")
        nu = np.asarray(nu, dtype=float).ravel()
        gap = abs(float(np.abs(x).sum()) - float(y @ nu))
        return float(
            np.abs(A @ x - y).max()
            + max(0.0, float(np.abs(A.T @ nu).max()) - 1.0)
            + gap
        )

    if f == "rr_irls":
        if inst.p is None or not (0.0 < inst.p < 1.0):
            raise InvalidInputError("rr_irls requires 0 < p < 1")
        if inst.lam is None or inst.lam <= 0:
            raise InvalidInputError("rr_irls requires lam > 0")
        w = (x * x + _IRLS_EPS_FINAL) ** (inst.p / 2.0 - 1.0)
        station = A.T @ (A @ x - y) + inst.lam * inst.p * x * w
        return float(np.abs(station).max())

    raise InvalidInputError(f"unknown family {f!r}")
