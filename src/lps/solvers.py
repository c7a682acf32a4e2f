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

bp, rr and en run through one damped-Newton driver (_newton) over a stack
of same-shape instances that share p and the parameters (solve_stack).
Each of the six branches (bp dual and bp primal on null(A); rr residual
and rr primal; en inverse-map and en primal) supplies its start point,
stopping measure, Newton direction and merit; the driver keeps every
per-instance state in arrays.  The bpdn forms run their Pareto-path
root-find (_rr_path_root) over a stack in lockstep: each round solves the
active instances' rr, each at its own lam, as one stack.  Every step works
row by row, so an instance's result does not depend on the other instances
of its stack: solve_bp, solve_rr, solve_en and the solve_bpdn_* functions
are stacks of one.  Validation happens at the public functions; the inner
loops call unchecked pnorm kernels.
"""

from __future__ import annotations

import copy
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
    "solve_stack",
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
    """Cholesky factor of A A^T, or None when A lacks full row rank (_full_rank)."""
    gram = A @ A.T
    if not _full_rank(gram[None])[0]:
        return None
    return scipy.linalg.cho_factor(gram, check_finite=False)


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


# ---------------------------------------------------------------------------
# batched damped Newton: one driver, six branch steps
# ---------------------------------------------------------------------------

_STALL_PATIENCE = 8  # iterations in a row without a _STALL_GAIN gain on the best residual
_STALL_GAIN = 1e-3
_LS_FLOOR = 1e-14    # smallest Armijo step tried
_CHOLESKY_MIN = 64   # order from which _solve factors PSD systems one by one


def _mv(A, x):
    """A x for a stack of matrices and a stack of vectors."""
    return np.matmul(A, x[..., None])[..., 0]


def _tmv(A, w):
    """A^T w for a stack of matrices and a stack of vectors."""
    return np.matmul(w[..., None, :], A)[..., 0, :]


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _amax(a):
    return np.abs(a).max(axis=-1)


def _add_diag(J, v):
    """J += diag(v) in place, for a stack of matrices and a stack of vectors (or a scalar)."""
    n = J.shape[-1]
    J.reshape(J.shape[:-2] + (n * n,))[..., ::n + 1] += v
    return J


def _solve(M, rhs, shift=True):
    """Solve M[k] d[k] = rhs[k] for every slice of a stack; returns (d, failed).

    Small systems are solved as one stack by LU.  When a slice is singular
    each slice is solved alone, so a slice's answer never depends on the
    others; a singular one is retried by _solve_shifted (symmetric PSD
    systems, `shift`) or marked failed.  Symmetric PSD systems of order
    _CHOLESKY_MIN or more go to _solve_shifted slice by slice: there a
    Cholesky factorization, half the work of LU, outweighs the per-call cost
    that one stacked call saves.
    """
    failed = np.zeros(len(M), dtype=bool)
    n = M.shape[-1]
    if shift and n >= _CHOLESKY_MIN:
        return np.array([_solve_shifted(M[k], rhs[k], np.trace(M[k]) / n)
                         for k in range(len(M))]), failed
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0], failed
    except np.linalg.LinAlgError:
        pass
    d = np.zeros_like(rhs)
    for k in range(len(M)):
        try:
            d[k] = np.linalg.solve(M[k:k + 1], rhs[k:k + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            if shift:
                d[k] = _solve_shifted(M[k], rhs[k], np.trace(M[k]) / n)
            else:
                failed[k] = True
    return d, failed


def _full_rank(G):
    """Per slice of a stack of Gram matrices A A^T: does A have full row rank?

    The Cholesky factorization must succeed with its smallest pivot squared
    above 1e-14 max |A A^T|.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        L = np.zeros_like(G)
        for k in range(len(G)):
            try:
                L[k] = np.linalg.cholesky(G[k])
            except np.linalg.LinAlgError:
                pass
    pivot = np.abs(np.diagonal(L, axis1=-2, axis2=-1)).min(axis=-1)
    return pivot * pivot > 1e-14 * np.maximum(np.abs(G).max(axis=(-2, -1)), 1e-300)


class _Stack:
    """Instances of one family that share p and its parameters, stacked on axis 0.

    Family classes define objective, gradient and solution (the SolveResults
    of some rows); their branch subclasses add the Newton step that _newton
    drives:

      start()                    -> state: dict of per-instance arrays, with "merit"
      measure(st)                -> (residual, scale) of the stopping and stall tests
      direction(st)              -> (d, slope of the merit along d, failed rows or None)
      trial(st, rows, step)      -> the state of `rows` moved by `step`
      results(st, rows, it, ok)  -> SolveResults of `rows`
      fallback(st, j, it)        -> SolveResult of row j from the first-order method

    Every method works row by row: a row's numbers never depend on the
    other rows, so a batch gives each instance the bits of its batch of one.
    """

    stacked = ("A", "y")
    slack = 1e-14  # Armijo allowance, relative to |merit|

    def __init__(self, A, y, p, cfg):
        self.A, self.y, self.p, self.cfg = A, y, p, cfg

    @property
    def size(self):
        return len(self.A)

    def take(self, rows):
        new = copy.copy(self)
        for name in self.stacked:
            setattr(new, name, getattr(self, name)[rows])
        return new


def _newton(br, out):
    """Damped Newton with Armijo backtracking on every instance of branch `br`.

    All per-instance state lives in arrays; instances leave the batch when
    they converge, stall (no _STALL_GAIN gain on their best residual in
    _STALL_PATIENCE iterations), exhaust the budget, or fail a line search.
    A failed instance finishes alone in the first-order method at once: its
    state did not move, so another try would repeat the same direction.
    Writes out[k] for instance k.
    """
    cfg = br.cfg
    st = br.start()
    n = br.size
    st.update(row=np.arange(n), best=np.full(n, np.inf), count=np.zeros(n, dtype=int))
    for it in range(cfg.max_iter + 1):
        res, scale = br.measure(st)
        done = res <= cfg.kkt_tol * scale
        st["count"] = np.where(res <= st["best"] * (1.0 - _STALL_GAIN), 0, st["count"] + 1)
        st["best"] = np.minimum(st["best"], res)
        leave = done | (st["count"] >= _STALL_PATIENCE)
        if it == cfg.max_iter:
            leave[:] = True
        if leave.any():
            rows = np.flatnonzero(leave)
            for k, r in zip(st["row"][rows], br.results(st, rows, it, done[rows])):
                out[k] = r
            if leave.all():
                return
            br, st = _keep(br, st, ~leave)
        d, slope, failed = br.direction(st)
        moved = _line_search(br, st, d, slope, failed)
        if moved.all():
            continue
        for j in np.flatnonzero(~moved):
            out[st["row"][j]] = br.fallback(st, j, it)
        if not moved.any():
            return
        br, st = _keep(br, st, moved)


def _line_search(br, st, d, slope, failed):
    """Armijo backtracking from t = 1 on every row not `failed`; moves st in place.

    All rows still searching share one t.  Returns the mask of rows that moved.
    """
    cfg = br.cfg
    moved = np.zeros(br.size, dtype=bool)
    rows = None if failed is None else np.flatnonzero(~failed)  # None: every row
    t = 1.0
    while t >= _LS_FLOOR and (rows is None or rows.size):
        at = slice(None) if rows is None else rows
        new = br.trial(st, at, t * d[at])
        merit = st["merit"][at]
        bound = merit + cfg.ls_decrease * t * slope[at]
        if br.slack:
            bound = bound + br.slack * np.abs(merit)
        ok = new["merit"] <= bound
        if rows is None:
            if ok.all():
                st.update(new)
                moved[:] = True
                break
            rows = np.arange(br.size)
        for key, v in new.items():
            st[key][rows[ok]] = v[ok]
        moved[rows[ok]] = True
        rows = rows[~ok]
        t *= cfg.ls_shrink
    return moved


def _all_or(rows, n):
    """rows (sorted, distinct) as an index: a slice when they are all n rows, so nothing is copied."""
    return slice(None) if len(rows) == n else rows


def _keep(br, st, keep):
    if keep.all():
        return br, st
    return br.take(keep), {key: v[keep] for key, v in st.items()}


def _run(br, out, rows):
    """Solve the instances `rows` of br; out[rows[j]] gets the j-th result.

    With algorithm="projected_gradient" each runs the first-order method
    from the branch's start point; otherwise the Newton driver runs.
    """
    if not len(rows):
        return
    sub = [None] * len(rows)
    if len(rows) < br.size:
        br = br.take(rows)
    if br.cfg.algorithm == "projected_gradient":
        for j in range(len(rows)):
            sub[j] = br.first_order(j, None, 0)
    else:
        _newton(br, sub)
    for k, r in zip(rows, sub):
        out[k] = r


def _branch(family, p, algorithm):
    """The branch class of `family` for `algorithm`: the first of
    _BRANCHES[family] needs p <= 2 (h' global), the second p >= 2 (g' global)."""
    low, high = _BRANCHES[family]
    if algorithm == "auto":
        return low if p < 2.0 else high
    if algorithm == low.name:
        if p > 2.0:
            raise InvalidInputError(f"{low.name} requires 1 < p <= 2 (h' must be global)")
        return low
    if algorithm == high.name:
        if p < 2.0:
            raise InvalidInputError(f"{high.name} requires p >= 2 (g' must be global)")
        return high
    if algorithm == "projected_gradient":
        return low
    raise InvalidInputError(f"unknown algorithm {algorithm!r} for {family}")


# ---------------------------------------------------------------------------
# generalized basis pursuit
# ---------------------------------------------------------------------------

class _Bp(_Stack):
    stacked = ("A", "y", "G")

    def __init__(self, A, y, p, cfg):
        super().__init__(A, y, p, cfg)
        self.G = np.matmul(A, A.transpose(0, 2, 1))

    def least_norm(self):
        return _tmv(self.A, _solve(self.G, self.y)[0])

    def solution(self, rows, x, nu, iters, ok):
        A, y, p = self.A[rows], self.y[rows], self.p
        kkt = _amax(pnorm._g(x, p) - _tmv(A, nu)) + _amax(_mv(A, x) - y)
        obj = pnorm._pow_sum(x, p) ** (1.0 / p)
        return [SolveResult(x[j], nu[j], float(obj[j]), float(kkt[j]), iters,
                            CONVERGED if ok[j] else MAX_ITER) for j in range(len(x))]

    def results(self, st, rows, it, ok):
        return self.solution(rows, st["x"][rows], st["nu"][rows], it, ok)

    def first_order(self, j, x0, iters):
        one = self.take([j])
        cho = _gram_cho(one.A[0])
        if x0 is None:
            x0 = one.A[0].T @ scipy.linalg.cho_solve(cho, one.y[0], check_finite=False)
        return _bp_projected_gradient(one, cho, x0, iters)


class _BpDual(_Bp):
    """1 < p <= 2: Newton ascent on the concave dual in nu, whose gradient is
    -F(nu) = y - A h(A^T nu) and whose negative Hessian A diag(h'(A^T nu)) A^T
    is positive semi-definite."""

    name = "dual_newton"
    stacked = _Bp.stacked + ("ny",)

    def __init__(self, A, y, p, cfg):
        super().__init__(A, y, p, cfg)
        self.ny = np.sqrt(_dot(y, y))

    def _at(self, nu, rows):
        s = _tmv(self.A[rows], nu)
        conj = (self.p - 1.0) * pnorm._pow_sum(s / self.p, self.p / (self.p - 1.0))
        return {"nu": nu, "s": s, "merit": conj - _dot(nu, self.y[rows])}  # minus the dual objective

    def start(self):
        # nu = kappa (A A^T)^-1 y with kappa maximizing the dual on that ray:
        # the p = 2 solution (kappa = 2) there, and nu scales as y^(p-1)
        # like the optimum when y is scaled
        p = self.p
        v = _solve(self.G, self.y)[0]
        conj = (p - 1.0) * pnorm._pow_sum(_tmv(self.A, v) / p, p / (p - 1.0))
        kappa = (_dot(v, self.y) / (p / (p - 1.0) * conj)) ** (p - 1.0)
        return self._at(kappa[:, None] * v, slice(None))

    def measure(self, st):
        st["x"] = pnorm._h(st["s"], self.p)
        st["F"] = _mv(self.A, st["x"]) - self.y
        return np.sqrt(_dot(st["F"], st["F"])), self.ny

    def direction(self, st):
        F = st["F"]
        gamma = pnorm._h_prime(st["s"], self.p)
        Q = np.matmul(self.A * gamma[:, None, :], self.A.transpose(0, 2, 1))
        d = _solve(Q, -F)[0]
        ascent = -_dot(F, d)
        flat = ascent <= 0.0  # not an ascent direction: take the dual gradient
        if flat.any():
            d[flat] = -F[flat]
            ascent[flat] = _dot(F[flat], F[flat])
        return d, -ascent, None

    def trial(self, st, rows, step):
        return self._at(st["nu"][rows] + step, rows)

    def fallback(self, st, j, it):
        return self.first_order(j, None, it)


class _BpPrimal(_Bp):
    """p >= 2: feasible Newton on the primal KKT system, eliminated onto
    null(A).  Iterates step only along an orthonormal null-space basis Z, so
    they stay exactly feasible; the reduced Newton matrix is
    Z^T diag(g'(x)) Z, with a shift relative to max g'(x) when some g'(x_i)
    sits near zero."""

    name = "primal_dual_newton"
    stacked = _Bp.stacked + ("Z",)

    def __init__(self, A, y, p, cfg):
        super().__init__(A, y, p, cfg)
        m = A.shape[1]
        self.Z = np.linalg.svd(A)[2][:, m:, :].transpose(0, 2, 1)

    def start(self):
        x = self.least_norm()
        return {"x": x, "merit": pnorm._pow_sum(x, self.p)}

    def measure(self, st):
        grad = st["grad"] = pnorm._g(st["x"], self.p)
        st["nu"] = _solve(self.G, _mv(self.A, grad))[0]
        return _amax(grad - _tmv(self.A, st["nu"])), _amax(grad)

    def direction(self, st):
        grad, Z = st["grad"], self.Z
        lam = pnorm._g_prime(st["x"], self.p)
        floor = _TIKHONOV * lam.max(axis=-1)
        lam = np.where((lam.min(axis=-1) < floor)[:, None], lam + floor[:, None], lam)
        Zt = Z.transpose(0, 2, 1)
        du = _solve(np.matmul(Zt * lam[:, None, :], Z), -_mv(Zt, grad))[0]
        dx = _mv(Z, du)
        slope = _dot(grad, dx)
        flat = slope >= 0.0  # not a descent direction: take the projected gradient
        if flat.any():
            dx[flat] = -_mv(Z[flat], _mv(Zt[flat], grad[flat]))
            slope[flat] = _dot(grad[flat], dx[flat])
        return dx, slope, None

    def trial(self, st, rows, step):
        x = st["x"][rows] + step
        return {"x": x, "merit": pnorm._pow_sum(x, self.p)}

    def fallback(self, st, j, it):
        return self.first_order(j, st["x"][j], it)


def _bp_stack(branch, A, y, p, cfg):
    """bp on a stack of finite instances: one entry per instance, a SolveResult or an exception."""
    B, m, N = A.shape
    out = [None] * B
    zero = ~np.any(y, axis=1)
    for k in np.flatnonzero(zero):
        out[k] = SolveResult(np.zeros(N), np.zeros(m), 0.0, 0.0, 0, CONVERGED)
    rows = np.flatnonzero(~zero)
    if not rows.size:
        return out
    sel = _all_or(rows, B)
    br = branch(A[sel], y[sel], p, cfg)
    rank = _full_rank(br.G)
    for j in np.flatnonzero(~rank):
        x_ls = np.linalg.lstsq(A[rows[j]], y[rows[j]], rcond=None)[0]
        if np.linalg.norm(A[rows[j]] @ x_ls - y[rows[j]]) > 1e-8 * (1.0 + np.linalg.norm(y[rows[j]])):
            out[rows[j]] = SolveResult(x_ls, None, pnorm.pnorm(x_ls, p), np.inf, 0, INFEASIBLE)
        else:
            out[rows[j]] = RankDeficientError(
                "A is rank deficient; BP solver requires full row rank")
    if branch is _BpPrimal and N == m and rank.any():
        # square invertible systems: the feasible point is the solution
        sq = br.take(rank)
        st = sq.start()
        sq.measure(st)
        for k, r in zip(rows[rank], sq.results(st, np.arange(sq.size), 0, np.ones(sq.size, bool))):
            out[k] = r
        return out
    sub = [None] * int(rank.sum())
    _run(br, sub, np.flatnonzero(rank))
    for k, r in zip(rows[rank], sub):
        out[k] = r
    return out


def _bp_projected_gradient(one, cho, x0, iters_used):
    """Gradient steps projected onto {Ax = y}, with BB trial step and Armijo, on one instance."""
    A, y, p, cfg = one.A[0], one.y[0], one.p, one.cfg
    x = _project(A, cho, y, x0)
    fx = pnorm.pnorm_pow(x, p)

    def proj_grad(v):
        grad = pnorm.pnorm_grad(v, p)
        return grad, grad - A.T @ scipy.linalg.cho_solve(cho, A @ grad, check_finite=False)

    def wrap(v, iters, ok):
        nu = scipy.linalg.cho_solve(cho, A @ pnorm.pnorm_grad(v, p), check_finite=False)
        return one.solution([0], v[None], nu[None], iters, [ok])[0]

    grad, pg = proj_grad(x)
    t = 1.0 / max(float(np.abs(pg).max()), 1.0)
    x_prev = None
    pg_prev = None
    it = 0
    for it in range(cfg.max_iter_first_order):
        if np.abs(pg).max() <= cfg.kkt_tol * np.abs(grad).max():
            return wrap(x, iters_used + it, True)
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
            if f_new <= fx - cfg.ls_decrease * tt * pg2 + 1e-14 * abs(fx):
                x_prev, pg_prev = x, pg
                x, fx = x_new, f_new
                grad, pg = proj_grad(x)
                accepted = True
                break
            tt *= cfg.ls_shrink
        if not accepted:
            break
    return wrap(x, iters_used + it + 1, False)


def solve_bp(A, y, p, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_p over A x = y for p > 1.

    For 1 < p < 2 a damped Newton iteration runs on the dual residual
    F(nu) = A h(A^T nu) - y whose Jacobian A diag(h'(a_i^T nu)) A^T is
    positive semi-definite.  For p >= 2 a feasible-start Newton iteration
    runs on the primal KKT system with the diagonal Hessian diag(g'(x_i)).
    A batch of one through the stacked driver (see solve_stack).
    """
    return _raised(solve_stack("bp", *_one(A, y), p, cfg)[0])


# ---------------------------------------------------------------------------
# generalized ridge regression
# ---------------------------------------------------------------------------

class _Smooth(_Stack):
    """rr and en: a smooth objective, stationarity (kkt) as the max-norm of
    its gradient, and BB first-order descent as the fallback."""

    def solution(self, rows, x, iters, ok):
        obj = self.objective(x, rows)
        kkt = _amax(self.gradient(x, rows))
        return [SolveResult(x[j], None, float(obj[j]), float(kkt[j]), iters,
                            CONVERGED if ok[j] else MAX_ITER) for j in range(len(x))]

    def measure(self, st):
        st["G"] = self.gradient(st["x"])
        return _amax(st["G"]), self.scale

    def results(self, st, rows, it, ok):
        return self.solution(rows, st["x"][rows], it, ok)

    def first_order(self, j, x0, iters):
        return _first_order(self.take([j]), self.x0[j] if x0 is None else x0, iters)

    def fallback(self, st, j, it):
        return self.first_order(j, st["x"][j], it)


class _Rr(_Smooth):
    stacked = ("A", "y", "lam", "scale", "x0")

    def __init__(self, A, y, p, cfg, lam, warm):
        super().__init__(A, y, p, cfg)
        self.lam = lam[:, None]  # each row's own lam, as a column
        self.scale = _amax(_tmv(A, y))
        if warm is None:  # the p = 2 solution at twice lam
            AtA = np.matmul(A.transpose(0, 2, 1), A)
            warm = _solve(_add_diag(AtA, 2.0 * self.lam), _tmv(A, y))[0]
        self.x0 = warm

    def objective(self, x, rows=slice(None)):
        r = _mv(self.A[rows], x) - self.y[rows]
        return 0.5 * _dot(r, r) + self.lam[rows, 0] * pnorm._pow_sum(x, self.p)

    def gradient(self, x, rows=slice(None)):
        A = self.A[rows]
        return _tmv(A, _mv(A, x) - self.y[rows]) + self.lam[rows] * pnorm._g(x, self.p)


class _RrResidual(_Rr):
    """1 < p <= 2: the fixed-point form x = -h(A^T (A x - y) / lam), solved by
    Newton in the residual w = y - A x; its Jacobian I + A diag(h'/lam) A^T
    is symmetric positive definite.  The merit is |G(w)|^2."""

    name = "fixed_point"
    slack = 0.0

    def _at(self, w, rows):
        A = self.A[rows]
        s = _tmv(A, w) / self.lam[rows]
        x = pnorm._h(s, self.p)
        G = w - self.y[rows] + _mv(A, x)
        return {"w": w, "s": s, "x": x, "G": G, "merit": _dot(G, G)}

    def start(self):
        return self._at(self.y - _mv(self.A, self.x0), slice(None))

    def measure(self, st):
        return _amax(_tmv(self.A, st["G"])), self.scale

    def direction(self, st):
        gamma = pnorm._h_prime(st["s"], self.p) / self.lam
        J = _add_diag(np.matmul(self.A * gamma[:, None, :], self.A.transpose(0, 2, 1)), 1.0)
        return _solve(J, -st["G"])[0], -st["merit"], None

    def trial(self, st, rows, step):
        return self._at(st["w"][rows] + step, rows)


class _RrPrimal(_Rr):
    """p >= 2: Newton on the stationarity system, matrix A^T A + lam diag(g'(x))."""

    name = "primal_dual_newton"
    stacked = _Rr.stacked + ("AtA",)

    def __init__(self, A, y, p, cfg, lam, warm):
        super().__init__(A, y, p, cfg, lam, warm)
        self.AtA = np.matmul(A.transpose(0, 2, 1), A)

    def start(self):
        return {"x": self.x0.copy(), "merit": self.objective(self.x0)}

    def direction(self, st):
        G = st["G"]
        d = _solve(_add_diag(self.AtA.copy(), self.lam * pnorm._g_prime(st["x"], self.p)), -G)[0]
        return _descent(G, d)

    def trial(self, st, rows, step):
        x = st["x"][rows] + step
        return {"x": x, "merit": self.objective(x, rows)}


def _descent(G, d):
    """(d, slope), with -G in place of d where d is not a descent direction."""
    slope = _dot(G, d)
    flat = slope >= 0.0
    if flat.any():
        d[flat] = -G[flat]
        slope[flat] = -_dot(G[flat], G[flat])
    return d, slope, None


def _rr_stack(branch, A, y, p, cfg, lam, warm=None):
    """rr on a stack of finite instances, row k at lam (a scalar) or lam[k]."""
    B, m, N = A.shape
    out = [None] * B
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (B,))
    zero = ~np.any(_tmv(A, y), axis=1)
    for k in np.flatnonzero(zero):
        out[k] = SolveResult(np.zeros(N), None, 0.5 * float(y[k] @ y[k]), 0.0, 0, CONVERGED)
    rows = np.flatnonzero(~zero)
    if rows.size:
        sel = _all_or(rows, B)
        br = branch(A[sel], y[sel], p, cfg, lam[sel], None if warm is None else warm[sel])
        sub = [None] * rows.size
        _run(br, sub, np.arange(rows.size))
        for k, r in zip(rows, sub):
            out[k] = r
    return out


def solve_rr(A, y, p, lam, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize 0.5 ||A x - y||_2^2 + lam ||x||_p^p for p > 1, lam > 0.

    Stationarity: A^T (A x - y) + lam * grad_f(x) = 0.  For 1 < p < 2 the
    equivalent fixed-point form x_i = -h(a_i^T (A x - y) / lam) is solved by
    a damped Newton iteration in the residual variable w = y - A x, whose
    Jacobian I + lam^{-1} A diag(h') A^T is symmetric positive definite.
    For p >= 2 plain Newton runs on the stationarity system.  A batch of one
    through the stacked driver (see solve_stack).
    """
    return _raised(solve_stack("rr", *_one(A, y), p, cfg, lam=lam)[0])


def _rr_core(A, y, p, lam, cfg, warm) -> list:
    """rr on a stack of validated instances, row k at lam[k] and from warm[k]
    (or the ridge start when warm is None): the inner solves of the bpdn path."""
    return _rr_stack(_branch("rr", p, cfg.algorithm), A, y, p, cfg, lam, warm)


def _first_order(one, x0, iters_used=0):
    """Barzilai-Borwein gradient descent with a nonmonotone Armijo safeguard, on one instance.

    The sufficient-decrease test compares against the worst of the last ten
    accepted objective values (Grippo style), which lets the BB step keep
    its fast asymptotic behavior.
    """
    cfg = one.cfg

    def obj(v):
        return float(one.objective(v[None])[0])

    def grad(v):
        return one.gradient(v[None])[0]

    def wrap(v, iters, ok):
        return one.solution([0], v[None], iters, [ok])[0]

    x = np.array(x0, dtype=float)
    fx = obj(x)
    g = grad(x)
    scale = float(one.scale[0])
    t = 1.0 / max(float(np.abs(g).max()), 1.0)
    x_prev = None
    g_prev = None
    recent = [fx]
    for it in range(cfg.max_iter_first_order):
        if np.abs(g).max() <= cfg.kkt_tol * scale:
            return wrap(x, iters_used + it, True)
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
            if f_new <= f_ref - cfg.ls_decrease * tt * gnorm2 + 1e-14 * abs(f_ref):
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
            return wrap(x, iters_used + it, False)
    return wrap(x, iters_used + cfg.max_iter_first_order, False)


# ---------------------------------------------------------------------------
# generalized elastic net
# ---------------------------------------------------------------------------

class _En(_Smooth):
    stacked = ("A", "y", "AtA", "aty", "scale", "x0")

    def __init__(self, A, y, p, cfg, r, lam1, lam2):
        super().__init__(A, y, p, cfg)
        self.r, self.lam1, self.lam2 = r, lam1, lam2
        self.AtA = np.matmul(A.transpose(0, 2, 1), A)
        self.aty = _tmv(A, y)
        self.scale = _amax(self.aty)
        self.x0 = _solve(_add_diag(self.AtA.copy(), 2.0 * (lam1 + lam2)), self.aty)[0]

    def _coef(self, fpow):
        """(r lam1 / p) ||x||_p^(r-p) from fpow = ||x||_p^p; 0 at x = 0."""
        nz = fpow > 0.0
        return np.where(nz, (self.r * self.lam1 / self.p)
                        * np.where(nz, fpow, 1.0) ** ((self.r - self.p) / self.p), 0.0)

    def objective(self, x, rows=slice(None)):
        res = _mv(self.A[rows], x) - self.y[rows]
        norm_r = (pnorm._pow_sum(x, self.p) ** (1.0 / self.p)) ** self.r
        return 0.5 * _dot(res, res) + self.lam1 * norm_r + self.lam2 * _dot(x, x)

    def gradient(self, x, rows=slice(None)):
        A = self.A[rows]
        base = _tmv(A, _mv(A, x) - self.y[rows]) + 2.0 * self.lam2 * x
        return base + self._coef(pnorm._pow_sum(x, self.p))[:, None] * pnorm._g(x, self.p)


class _EnInverse(_En):
    """1 < p <= 2: Newton on the inverse-map form Psi(x) = x + h(w(x)) = 0 of
    the stationarity, with w_i = p ||x||_p^(p-r) (a_i^T (Ax - y) + 2 lam2 x_i)
    / (r lam1).  Psi is continuously differentiable wherever x != 0 (the
    crossing of a coordinate through zero is smooth, unlike the x-space
    Hessian, which blows up).  The merit is |Psi|."""

    name = "fixed_point"

    def _at(self, x, rows):
        p, r = self.p, self.r
        fpow = pnorm._pow_sum(x, p)
        npow = fpow ** ((p - r) / p)  # ||x||_p^(p-r)
        base = _mv(self.AtA[rows], x) - self.aty[rows] + 2.0 * self.lam2 * x
        w = (p / (r * self.lam1)) * npow[:, None] * base
        psi = x + pnorm._h(w, p)
        return {"x": x, "fpow": fpow, "npow": npow, "base": base, "w": w, "psi": psi,
                "merit": np.sqrt(_dot(psi, psi))}

    def start(self):
        return self._at(self.x0.copy(), slice(None))

    def direction(self, st):
        p, r, x = self.p, self.r, st["x"]
        gamma = pnorm._h_prime(st["w"], p)
        grad_npow = ((p - r) / p * pnorm._g(x, p)
                     / np.maximum(st["fpow"] ** (r / p), 1e-300)[:, None])
        inner = (st["base"][:, :, None] * grad_npow[:, None, :]
                 + st["npow"][:, None, None] * _add_diag(self.AtA.copy(), 2.0 * self.lam2))
        J = _add_diag((p / (r * self.lam1)) * gamma[:, :, None] * inner, 1.0)
        d, failed = _solve(J, -st["psi"], shift=False)
        return d, -st["merit"], failed

    def trial(self, st, rows, step):
        return self._at(st["x"][rows] + step, rows)


class _EnPrimal(_En):
    """p >= 2: Newton with the exact Hessian of ||x||_p^r,
    (r/p) ||x||_p^(r-p) [diag(g'(x)) + ((r-p) / (p ||x||_p^p)) g(x) g(x)^T]."""

    name = "primal_dual_newton"

    def start(self):
        return {"x": self.x0.copy(), "merit": self.objective(self.x0)}

    def direction(self, st):
        p, r, x, G = self.p, self.r, st["x"], st["G"]
        fpow = pnorm._pow_sum(x, p)
        zero = fpow == 0.0  # the Hessian is undefined at x = 0
        fpow = np.where(zero, 1.0, fpow)
        grad = pnorm._g(x, p)
        diag = self.lam1 * (r / p) * fpow ** ((r - p) / p)  # lam1 times the Hessian's factor
        rank1 = diag * (r - p) / (p * fpow)
        J = self.AtA + (rank1[:, None] * grad)[:, :, None] * grad[:, None, :]
        _add_diag(J, diag[:, None] * pnorm._g_prime(x, p) + 2.0 * self.lam2)
        d, slope, _ = _descent(G, _solve(J, -G)[0])
        return d, slope, zero

    def trial(self, st, rows, step):
        x = st["x"][rows] + step
        return {"x": x, "merit": self.objective(x, rows)}


def _en_stack(branch, A, y, p, cfg, r, lam1, lam2):
    B, m, N = A.shape
    out = [None] * B
    aty = _tmv(A, y)
    zero = ~np.any(aty, axis=1)
    if r == 1.0:
        # x = 0 is optimal iff the dual-norm subgradient condition holds
        q = p / (p - 1.0)
        zero |= pnorm._pow_sum(aty, q) ** (1.0 / q) <= lam1
    br = branch(A, y, p, cfg, r, lam1, lam2)
    rows = np.flatnonzero(zero)
    for k, res in zip(rows, br.solution(rows, np.zeros((rows.size, N)), 0, np.ones(rows.size, bool))):
        out[k] = res
    _run(br, out, np.flatnonzero(~zero))
    return out


def solve_en(A, y, p, r, lam1, lam2, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize 0.5 ||A x - y||_2^2 + lam1 ||x||_p^r + lam2 ||x||_2^2.

    Requires p > 1, r >= 1, lam1 > 0, lam2 > 0 (the strictly convex case
    with a unique minimizer).  Stationarity at nonzero x:

        A^T (A x - y) + (r lam1 / p) ||x||_p^(r-p) grad_f(x) + 2 lam2 x = 0.

    Newton with the exact Hessian of ||.||_p^r for p >= 2; for 1 < p <= 2
    a damped Newton iteration on the inverse-map form of the stationarity
    system (which stays smooth as coordinates cross zero).  A BB + Armijo
    first-order method backs both up and is selectable as
    algorithm="projected_gradient".  A batch of one through the stacked
    driver (see solve_stack).
    """
    return _raised(solve_stack("en", *_one(A, y), p, cfg, r=r, lam1=lam1, lam2=lam2)[0])


# ---------------------------------------------------------------------------
# stacks: the public entry of the Newton families and the bpdn forms
# ---------------------------------------------------------------------------

def _one(A, y):
    A, y = _validated(A, y)
    return A[None], y[None]


def _raised(entry):
    if isinstance(entry, Exception):
        raise entry
    return entry


def _stack_params(family, params, B):
    if family == "bp":
        return {}
    if family == "rr":
        lam = float(params["lam"])
        if not lam > 0:
            raise InvalidInputError(f"rr requires lam > 0, got {lam}")
        return {"lam": lam}
    if family == "en":
        r, lam1, lam2 = float(params["r"]), float(params["lam1"]), float(params["lam2"])
        if not r >= 1.0:
            raise InvalidInputError(f"en requires r >= 1, got r={r}")
        if not (lam1 > 0 and lam2 > 0):
            raise InvalidInputError("en requires lam1 > 0 and lam2 > 0")
        return {"r": r, "lam1": lam1, "lam2": lam2}
    if family in ("bpdn_eps", "bpdn_eta"):
        name = family[5:]
        try:
            v = np.broadcast_to(np.asarray(params[name], dtype=float), (B,))
        except (KeyError, TypeError, ValueError):
            raise InvalidInputError(f"{family} requires {name}: a scalar or one "
                                    f"value per instance") from None
        if not np.all(v > 0):
            raise InvalidInputError(f"{family} requires {name} > 0, got {float(v[~(v > 0)][0])}")
        return {name: v}
    raise InvalidInputError(f"solve_stack takes bp, rr, en, bpdn_eps or bpdn_eta, got {family!r}")


def _rows_of(params, rows):
    """params of the instances `rows`: per-instance arrays are indexed, scalars kept."""
    return {k: v[rows] if isinstance(v, np.ndarray) else v for k, v in params.items()}


def solve_stack(family, A, y, p, cfg: SolverConfig | None = None, **params) -> list:
    """Solve a stack of bp, rr, en, bpdn_eps or bpdn_eta instances that share p.

    A has shape (B, m, N) and y shape (B, m); params are those of
    solve_<family> (lam for rr; r, lam1, lam2 for en; eps or eta for the
    bpdn forms, each a scalar or one value per instance).  bp, rr and en
    run one damped-Newton driver over the whole stack, each instance with
    its own stopping test, stall guard, Armijo step and line-search
    failure; an instance that needs the first-order fallback leaves the
    stack and finishes alone.  The bpdn forms run their Pareto-path
    root-find over the stack in lockstep.  Returns one entry per instance:
    the SolveResult of solve_<family>(A[k], y[k], p, ...), bit for bit, or
    the exception that call raises.  Invalid p, parameters or config raise
    here.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 3 or y.shape != A.shape[:2]:
        raise InvalidInputError(f"need A of shape (B, m, N) and y of shape (B, m), "
                                f"got {A.shape} and {y.shape}")
    p = _require_p_gt1(p)
    params = _stack_params(family, params, len(A))
    branch = _branch(family, p, cfg.algorithm) if family in _BRANCHES else None
    out = [None] * len(A)
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    for k in np.flatnonzero(~finite):
        out[k] = InvalidInputError("A or y contains non-finite entries")
    rows = np.flatnonzero(finite)
    solve = _STACKS[family]
    try:
        sel = _all_or(rows, len(A))
        sub = solve(branch, A[sel], y[sel], p, cfg, **_rows_of(params, sel))
    except Exception as exc:  # keep one instance's fault out of the others' results
        if len(rows) == 1:
            sub = [exc]
        else:
            sub = [solve_stack(family, A[k:k + 1], y[k:k + 1], p, cfg,
                               **_rows_of(params, slice(k, k + 1)))[0] for k in rows]
    for k, r in zip(rows, sub):
        out[k] = r
    return out


def _full_row_rank(family, A, out):
    """Rows of A with full row rank; the others get the family's RankDeficientError in out."""
    rank = _full_rank(np.matmul(A, A.transpose(0, 2, 1)))
    for k in np.flatnonzero(~rank):
        out[k] = RankDeficientError(f"{family} requires A with full row rank")
    return np.flatnonzero(rank)


def _bpdn_eps_stack(branch, A, y, p, cfg, eps):
    B, m, N = A.shape
    out = [None] * B
    ny = np.sqrt(_dot(y, y))
    rows = _full_row_rank("bpdn_eps", A, out)
    slack = eps[rows] >= ny[rows]
    for k in rows[slack]:
        out[k] = SolveResult(np.zeros(N), 0.0, 0.0, 0.0, 0, CONVERGED)
    rows = rows[~slack]
    A, y, eps = A[rows], y[rows], eps[rows]
    x, lam, iters, found = _rr_path_root(A, y, p, cfg, True, eps, cfg.bisection_tol * ny[rows],
                                         1e-8 * ny[rows])
    mu = 1.0 / (2.0 * lam)
    r = _mv(A, x) - y
    kkt = (_amax(pnorm._g(x, p) + 2.0 * mu[:, None] * _tmv(A, r))
           + np.maximum(0.0, np.sqrt(_dot(r, r)) - eps))
    obj = pnorm._pow_sum(x, p) ** (1.0 / p)
    for j, k in enumerate(rows):
        out[k] = (SolveResult(x[j], float(mu[j]), float(obj[j]), float(kkt[j]), int(iters[j]),
                              CONVERGED) if found[j] else
                  SolveResult(np.zeros(N), None, 0.0, np.inf, 0, DEGENERATE))
    return out


def _bp_of(A, y, p, cfg, rows):
    """{k: bp entry of row k} for `rows`, from one bp stack; bp picks its own branch."""
    if not len(rows):
        return {}
    return dict(zip(rows, solve_stack("bp", A[rows], y[rows], p, replace(cfg, algorithm="auto"))))


def _bpdn_eta_stack(branch, A, y, p, cfg, eta):
    B, m, N = A.shape
    out = [None] * B
    rows = _full_row_rank("bpdn_eta", A, out)
    # every x with A x = y has ||x||_p >= ||x_ls||_2^2 / ||x_ls||_q (Hoelder
    # against the least-norm solution x_ls), so below that bound the
    # constraint is active and bp is not needed; the factor is a rounding
    # allowance
    Ar = A[rows]
    x_ls = _tmv(Ar, _solve(np.matmul(Ar, Ar.transpose(0, 2, 1)), y[rows])[0])
    q = p / (p - 1.0)
    above = eta[rows] * pnorm._pow_sum(x_ls, q) ** (1.0 / q) >= (1.0 - 1e-10) * _dot(x_ls, x_ls)
    bp = _bp_of(A, y, p, cfg, rows[above])
    for k, b in bp.items():
        if isinstance(b, Exception):
            out[k] = b
        elif pnorm.pnorm(b.x, p) <= eta[k]:
            out[k] = SolveResult(b.x, 0.0, float(np.linalg.norm(A[k] @ b.x - y[k])),
                                 b.kkt_residual, b.iterations, b.status, reduced_to_bp=True)
    rows = np.array([k for k in rows if out[k] is None], dtype=int)
    x, mu, iters, found = _rr_path_root(A[rows], y[rows], p, cfg, False, eta[rows],
                                        cfg.bisection_tol * eta[rows], 1e-8 * eta[rows])
    bp.update(_bp_of(A, y, p, cfg, [k for k, f in zip(rows, found) if not (f or k in bp)]))
    r = _mv(A[rows], x) - y[rows]
    kkt = (_amax(_tmv(A[rows], r) + mu[:, None] * pnorm._g(x, p))
           + np.maximum(0.0, pnorm._pow_sum(x, p) ** (1.0 / p) - eta[rows]))
    obj = np.sqrt(_dot(r, r))
    for j, k in enumerate(rows):
        if found[j]:
            out[k] = SolveResult(x[j], float(mu[j]), float(obj[j]), float(kkt[j]), int(iters[j]),
                                 CONVERGED)
        elif isinstance(bp[k], Exception):
            out[k] = bp[k]
        else:
            out[k] = SolveResult(bp[k].x, None, float(np.linalg.norm(A[k] @ bp[k].x - y[k])),
                                 np.inf, bp[k].iterations, DEGENERATE)
    return out


_BRANCHES = {"bp": (_BpDual, _BpPrimal), "rr": (_RrResidual, _RrPrimal),
             "en": (_EnInverse, _EnPrimal)}
_STACKS = {"bp": _bp_stack, "rr": _rr_stack, "en": _en_stack,
           "bpdn_eps": _bpdn_eps_stack, "bpdn_eta": _bpdn_eta_stack}


def solve_bpdn_eps(A, y, p, eps, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_p over ||A x - y||_2 <= eps, for p > 1 and eps > 0.

    For eps >= ||y||_2 the solution is x = 0 with multiplier 0.  Otherwise
    the constraint is active and there is a unique mu > 0 with
    grad_f(x) + 2 mu A^T (A x - y) = 0; the solution lies on the penalized
    path x(lam) = rr-solution(lam) at lam = 1/(2 mu), located by a
    safeguarded Newton root-find (_rr_path_root) on ||A x(lam) - y||_2 = eps.
    A batch of one through the stacked root-find (see solve_stack).
    """
    return _raised(solve_stack("bpdn_eps", *_one(A, y), p, cfg, eps=eps)[0])


def solve_bpdn_eta(A, y, p, eta, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||A x - y||_2 over ||x||_p <= eta, for p > 1 and eta > 0.

    When eta >= min {||x||_p : A x = y} the residual can be driven to zero
    and the problem reduces to basis pursuit; the bp solution is returned
    with multiplier 0 and the reduction flagged.  Otherwise the constraint
    is active, the multiplier mu > 0 is unique, and the solution lies on
    the same penalized path at lam = mu, located by the same root-find on
    ||x(mu)||_p = eta.  bp is solved only when eta is not below a dual lower
    bound on its optimum.  A batch of one through the stacked root-find
    (see solve_stack).
    """
    return _raised(solve_stack("bpdn_eta", *_one(A, y), p, cfg, eta=eta)[0])


def _path_dx(A, p, lam, x):
    """dx/dlam on the rr path of every row of a stack, from the derivative of its stationarity.

    Differentiating A^T (A x - y) + lam g(x) = 0 gives
    (A^T A + lam diag(g'(x))) dx = -g(x).  For p >= 2 that n x n system is
    solved as it stands; for 1 < p < 2, where g' blows up at 0, it is solved
    in Woodbury form with E = diag(h'(g(x)) / lam) and the m x m matrix
    J = I + A E A^T of the residual Newton iteration.
    """
    g = pnorm._g(x, p)
    if p >= 2.0:
        J = _add_diag(np.matmul(A.transpose(0, 2, 1), A), lam[:, None] * pnorm._g_prime(x, p))
        return _solve(J, -g)[0]
    e = pnorm._h_prime(g, p) / lam[:, None]
    J = _add_diag(np.matmul(A * e[:, None, :], A.transpose(0, 2, 1)), 1.0)
    return e * (_tmv(A, _solve(J, _mv(A, e * g))[0]) - g)


def _rr_path_root(A, y, p, cfg, residual, target, tol, tol_floor):
    """Find, on each row k of a stack, lam on its rr path x(lam) where the path value meets target[k].

    The path value is ||A x - y||_2 when `residual` (it grows with lam),
    else ||x||_p (it falls).  Newton steps in log lam take their slope
    from _path_dx.  The bracket [lo, hi] seen so far guards them: a step
    that leaves it, or that follows a Newton step which failed to halve the
    mismatch, is replaced by a geometric one (x8, /8 or sqrt(lo hi)).  The
    start mean(A * A) and the floor 1e-12 times it scale as c^2 when (A, y)
    scales by c, so the iteration is scale-free.  A row aims for
    |value - target| <= tol; when its bracket collapses to machine width
    first (the tolerance sits below what the inner solves can certify), the
    closest point is still accepted if it matches within tol_floor.

    The rows run in lockstep: each round solves the active rows' rr at their
    own lam as one stack (_rr_core) and takes one stacked _path_dx, and a
    row leaves when it matches, its bracket collapses, it reaches the floor,
    or it has used 200 inner solves.  Each row's numbers depend on that row
    alone.  Returns (x, lam, inner_iterations, found) over the rows; found is
    False where even the floor lies past the target or no point met
    tol_floor.
    """
    # inner solves are polished well below the match tolerance so the path
    # value and its slope carry negligible noise
    inner_cfg = replace(cfg, kkt_tol=max(1e-13, cfg.kkt_tol * 1e-3), algorithm="auto")
    B, m, N = A.shape
    lam = (A * A).reshape(B, m * N).mean(axis=1)
    x_out, lam_out = np.zeros((B, N)), np.full(B, np.nan)
    iters, found = np.zeros(B, dtype=int), np.zeros(B, dtype=bool)
    s = {"row": np.arange(B), "A": A, "y": y, "target": target, "tol": tol, "tol_floor": tol_floor,
         "lam": lam, "floor": 1e-12 * lam, "lo": np.zeros(B), "hi": np.full(B, np.inf),
         "total": np.zeros(B, dtype=int), "best": np.full(B, np.inf), "best_x": np.zeros((B, N)),
         "best_lam": np.zeros(B), "last_gap": np.full(B, np.inf), "newton": np.zeros(B, dtype=bool)}
    warm = None
    for solves in range(1, 201):  # budget of inner rr solves
        if not B:
            break
        res = _rr_core(s["A"], s["y"], p, s["lam"], inner_cfg, warm)
        x = np.array([t.x for t in res])
        s["total"] = s["total"] + [t.iterations for t in res]
        r = _mv(s["A"], x) - s["y"]
        value = np.sqrt(_dot(r, r)) if residual else pnorm._pow_sum(x, p) ** (1.0 / p)
        gap = value - s["target"]
        match = np.abs(gap) <= s["tol"]
        better = np.abs(gap) < s["best"]
        s["best"] = np.where(better, np.abs(gap), s["best"])
        s["best_x"] = np.where(better[:, None], x, s["best_x"])
        s["best_lam"] = np.where(better, s["lam"], s["best_lam"])
        past = (gap > 0.0) == residual
        dead = ~match & past & (s["lam"] <= s["floor"])
        s["hi"] = np.where(past, s["lam"], s["hi"])
        s["lo"] = np.where(past, s["lo"], s["lam"])
        shut = ~match & ~dead & ((s["lo"] >= (1.0 - 1e-13) * s["hi"]) | (solves == 200))
        ok = match | (shut & (s["best"] <= s["tol_floor"]))
        k = s["row"][ok]
        found[k] = True
        x_out[k] = np.where(match[ok, None], x[ok], s["best_x"][ok])
        lam_out[k] = np.where(match[ok], s["lam"][ok], s["best_lam"][ok])
        iters[k] = s["total"][ok]
        s.update(x=x, r=r, value=value, gap=gap)
        keep = ~(match | dead | shut)
        if not keep.all():
            s = {key: v[keep] for key, v in s.items()}
        if not len(s["row"]):
            break
        warm = x = s["x"]
        lam, lo, hi = s["lam"], s["lo"], s["hi"]
        dx = _path_dx(s["A"], p, lam, x)
        with np.errstate(all="ignore"):
            if residual:
                # Newton on log ||r||, which is near linear in log lam where
                # the residual grows like lam; ||x||_p is stepped on as it is
                phi = np.log(s["value"] / s["target"])
                slope = lam * _dot(s["r"], _mv(s["A"], dx)) / s["value"] ** 2
            else:
                phi = s["gap"]
                slope = lam * _dot(pnorm._g(x / s["value"][:, None], p), dx) / p
            step = lam * np.exp(-phi / slope)
            # an open side of the bracket reaches one geometric step out
            up, down = hi == np.inf, lo == 0.0
            geometric = np.where(up, 8.0 * lam,
                                 np.where(down, np.maximum(lam / 8.0, s["floor"]), np.sqrt(lo * hi)))
            inside = np.where(up, (lo < step) & (step <= geometric),
                              np.where(down, geometric <= step, lo < step) & (step < hi))
        gap = np.abs(s["gap"])
        s["newton"] = inside & ~(s["newton"] & (gap > 0.5 * s["last_gap"]))
        s["lam"] = np.where(s["newton"], step, geometric)
        s["last_gap"] = gap
    return x_out, lam_out, iters, found


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
