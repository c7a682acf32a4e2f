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
(primal) Newton systems are used.  One first-order method (_first_order,
Barzilai-Borwein descent along the gradient on the feasible set) is the
fallback of every branch when its line search breaks down.

One table, FAMILIES, holds each family's facts: the ProblemInstance fields
it takes, the range of p, its solve function, its KKT residual kernel and,
for bp, rr and en, its pair of Newton branches.
Everything that dispatches on the family tag reads it: validation
(_checked), solve_instance, solve_stack and kkt_residual.  Each residual is
written once, row by row over a stack; the solvers fill
SolveResult.kkt_residual with it, and the public kkt_residual runs it on a
stack of one, so the two agree bit for bit.

bp, rr and en run through one damped-Newton driver (_newton) over a stack
of same-shape instances that share p and the parameters (solve_stack);
p alone picks one of four branches (bp dual and bp primal on null(A); rr
residual and rr primal; rr is en at r = p, lam2 = 0, and below p = 2 en
is rr on augmented data at its own lam).  The base classes write the
boilerplate once: _Stack the primal state map, start, trial step,
fallback, stopping test and row selection (take); _Bp and _Rr the
objective, stopping measure and result builder.  A branch writes its
Newton direction, and the two fixed-point forms also their state map,
start and stopping measure.  The driver keeps every per-instance state in
arrays; a family stack builds its branch on all its rows, and the driver
writes each row's result in place.  The bpdn forms, and en below p = 2,
run the same driver on rr's branch bordered by their constraint
(_Bordered): one Newton solve in the rr state and log lam together, with
one stopping rule.  The bpdn rows it leaves unsolved find a root in lam
on rr's solution path (_rr_path_root) over a stack in lockstep: each
round solves the active instances' rr, each at its own lam, as one stack.
Every step works row by row, so an instance's result does not depend on
the other instances of its stack: solve_bp, solve_rr, solve_en and the
solve_bpdn_* functions are stacks of one.  Validation happens at the
public functions; the inner loops call unchecked pnorm kernels.

One QR factorization A^T = Q R per row (_qr) answers all that bp, the
bpdn forms and bp_l1 ask of A: its row rank, the least-norm point, the
projection onto A x = y, bp's multiplier and null(A); none goes via A A^T.
Every other system (Newton, warm start, path slope, IRLS step) is solved by
numpy.linalg's LU, one stacked call per stack (_solve); scipy.linalg is not used.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np
import scipy  # the package alone, no submodule: perfbench/spans.py swaps lps.solvers.scipy

from . import pnorm
from .errors import InvalidInputError, RankDeficientError, UnsupportedExponentError

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
_IRLS_INNER_MAX = 60  # steps per stage
_IRLS_FINAL_MAX = 600  # steps at the last stage, eps = _IRLS_EPS_FINAL

_TIKHONOV = 1e-12


@dataclass
class SolverConfig:
    """The stopping tolerance and the Newton iteration budget shared by all solvers."""

    kkt_tol: float = 1e-10
    max_iter: int = 500

    def validate(self):
        # NaN fails too (no residual would ever pass it), and inf (every residual would)
        if not 0.0 < self.kkt_tol < np.inf:
            raise InvalidInputError(f"kkt_tol must be positive and finite, got {self.kkt_tol!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise InvalidInputError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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


def _solve_shifted(M, rhs, scale):
    """Solve M d = rhs for one symmetric PSD M by LU, retried with an escalating
    shift on a copy's diagonal while M is exactly singular, then by least
    squares; it serves _solve's singular slices and solve_rr_irls's steps."""
    shift = 0.0
    for _ in range(8):
        try:
            return np.linalg.solve(_add_diag(M.copy(), shift) if shift else M, rhs)
        except np.linalg.LinAlgError:
            shift = max(_TIKHONOV * max(scale, 1.0), shift * 100.0)
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


# ---------------------------------------------------------------------------
# batched damped Newton: one driver, four branch steps
# ---------------------------------------------------------------------------

_STALL_PATIENCE = 8  # iterations in a row without a _STALL_GAIN gain on the best residual
_STALL_GAIN = 1e-3
_LS_FLOOR = 1e-14    # smallest Armijo step tried
_LS_SHRINK = 0.5     # Armijo backtracking factor
_LS_DECREASE = 1e-4  # Armijo sufficient-decrease fraction
_FIRST_ORDER_MAX_ITER = 50000  # step budget of _first_order
_PATH_MATCH_TOL = 1e-10  # bpdn path match, relative to ||y||_2 (eps form) or eta


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


def _solve(M, rhs):
    """Solve M[k] d[k] = rhs[k] for every slice of a stack of symmetric systems,
    rhs[k] a vector or an n x k block of right-hand sides.

    The stack is solved by one stacked LU (np.linalg.solve) at every order.
    When a slice is exactly singular each slice is solved alone, so a
    slice's answer never depends on the others; a singular one is retried
    by _solve_shifted.
    """
    n = M.shape[-1]
    block = rhs if rhs.ndim == M.ndim else rhs[..., None]
    try:
        d = np.linalg.solve(M, block)
    except np.linalg.LinAlgError:
        d = np.zeros_like(block)
        for k in range(len(M)):
            try:
                d[k] = np.linalg.solve(M[k:k + 1], block[k:k + 1])[0]
            except np.linalg.LinAlgError:
                d[k] = _solve_shifted(M[k], block[k], np.trace(M[k]) / n)
    return d if block is rhs else d[..., 0]


def _qr(A, mode="reduced"):
    """(full, R^-1, Q) of A^T = Q R for every row of a stack, by one stacked
    np.linalg.qr in `mode` (Q is None in mode "r").

    full: full row rank, each |R_ii|^2 > 1e-14 max_i ||a_i||^2 (the Cholesky
    pivot test, as A A^T = R^T R); R is taken as I elsewhere.  Q's first m
    columns Q1 span range(A^T), its others null(A).  Hence (A A^T)^-1 y =
    R^-1 R^-T y, x_ls = Q1 R^-T y, the projection x - Q1 Q1^T x + x_ls onto
    A x = y and nu = R^-1 Q1^T g, rounded to u kappa(A), not u kappa(A)^2.
    With m > N no row has full rank, and the factors are zeros.
    """
    B, m, N = A.shape
    if m > N:
        return np.zeros(B, dtype=bool), np.zeros((B, m, m)), None if mode == "r" else np.zeros((B, N, m))
    At = A.transpose(0, 2, 1)
    Q, R = (None, np.linalg.qr(At, mode="r")) if mode == "r" else np.linalg.qr(At, mode=mode)
    R = R[:, :m]
    pivot = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1)
    full = pivot * pivot > 1e-14 * np.maximum(_dot(A, A).max(axis=-1), 1e-300)
    return full, np.linalg.inv(np.where(full[:, None, None], R, np.eye(m))), Q


class _Stack:
    """Instances of one family that share p and its parameters, stacked on axis 0.

    _newton and _first_order call:

      start()                    -> state: dict of per-instance arrays, with var and "merit"
      measure(st)                -> (residual, scale) of the Newton stopping and stall tests
      done(st, res, scale)       -> the rows that pass the stopping test, res <= kkt_tol scale
      direction(st)              -> (d, slope of the merit along d, failed rows or None)
      trial(st, rows, step)      -> the state of `rows` at st[var][rows] + step
      fallback(st, j, it)        -> SolveResult of row j from _first_order
      objective(x, rows)         -> the objective of `rows` at x
      gradient_measure(st)       -> (max-norm of st["G"], scale) of the first-order stopping
                                    test, st["G"] the gradient on the feasible set at st["x"]
      results(st, rows, it, ok)  -> SolveResults of `rows` from st["x"] (and st["nu"] for bp)

    _Stack supplies start, trial, fallback, done and take, and the state map
    _at(x, rows) of the primal branches: x and its objective as the merit,
    started at self.x0.  The family classes _Bp and _Rr supply objective
    and results, and _Rr and _BpPrimal gradient_measure (also their
    measure).  A branch writes its direction; the fixed-point forms (_BpDual
    in nu, _RrResidual in w) also write _at, start and measure, and _BpDual
    its fallback, which hands the row to _BpPrimal.

    take rule: every ndarray attribute holds one entry per instance on axis
    0, and take(rows) slices them all; what the rows share is not an array.
    Every method works row by row: a row's numbers never depend on the
    other rows, so a batch gives each instance the bits of its batch of one.
    """

    var = "x"  # the state entry that the Newton step moves
    slack = 1e-14  # Armijo allowance, relative to |merit|

    def __init__(self, A, y, p, cfg):
        self.A, self.y, self.p, self.cfg = A, y, p, cfg

    @property
    def size(self):
        return len(self.A)

    def take(self, rows):
        new = copy.copy(self)
        for name, v in vars(self).items():
            if isinstance(v, np.ndarray):
                setattr(new, name, v[rows])
        return new

    def _at(self, x, rows):
        return {"x": x, "merit": self.objective(x, rows)}

    def start(self):
        return self._at(self.x0.copy(), slice(None))

    def trial(self, st, rows, step):
        return self._at(st[self.var][rows] + step, rows)

    def fallback(self, st, j, it):
        return _first_order(self.take([j]), st["x"][j], it)

    def done(self, st, res, scale):
        return res <= self.cfg.kkt_tol * scale


def _newton(br, out, rows):
    """Damped Newton with Armijo backtracking on every instance of branch `br`.

    All per-instance state lives in arrays; instances leave the batch when
    they converge, stall (no _STALL_GAIN gain on their best residual in
    _STALL_PATIENCE iterations), exhaust the budget, or fail a line search.
    A failed instance finishes alone in the first-order method at once: its
    state did not move, so another try would repeat the same direction.
    Writes out[rows[k]] for instance k.
    """
    cfg = br.cfg
    st = br.start()
    n = br.size
    st.update(row=rows, best=np.full(n, np.inf), count=np.zeros(n, dtype=int))
    for it in range(cfg.max_iter + 1):
        res, scale = br.measure(st)
        done = br.done(st, res, scale)
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
    moved = np.zeros(br.size, dtype=bool)
    rows = None if failed is None else np.flatnonzero(~failed)  # None: every row
    t = 1.0
    while t >= _LS_FLOOR and (rows is None or rows.size):
        at = slice(None) if rows is None else rows
        new = br.trial(st, at, t * d[at])
        merit = st["merit"][at]
        bound = merit + _LS_DECREASE * t * slope[at]
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
        t *= _LS_SHRINK
    return moved


def _first_order(one, x0, iters_used):
    """Barzilai-Borwein descent along the gradient on the feasible set, with a
    nonmonotone Armijo safeguard, on a stack of one instance from x0 (which
    must be feasible).

    `one` supplies its objective, gradient_measure and results (see _Stack);
    the stopping test is that of the Newton branches, max |G| <= kkt_tol
    scale.  The sufficient-decrease test compares against the worst of the
    last ten accepted objective values (Grippo, Lampariello & Lucidi, SIAM
    J. Numer. Anal. 1986), which lets the BB step keep its fast asymptotic
    behavior.  A failed line search or _FIRST_ORDER_MAX_ITER steps end it
    short of the tolerance.
    """
    st = {"x": np.array(x0, dtype=float)[None]}
    res, scale = one.gradient_measure(st)
    recent = [float(one.objective(st["x"])[0])]
    t = 1.0 / max(float(res[0]), 1.0)
    x_prev = g_prev = None
    for it in range(_FIRST_ORDER_MAX_ITER):
        if res[0] <= one.cfg.kkt_tol * scale[0]:
            return one.results(st, [0], iters_used + it, [True])[0]
        x, g = st["x"][0], st["G"][0]
        if x_prev is not None:
            sx = x - x_prev
            sg = g - g_prev
            denom = float(sx @ sg)
            if denom > 0:
                t = min(max(float(sx @ sx) / denom, 1e-12), 1e8)
        tt = t
        gnorm2 = float(g @ g)
        f_ref = max(recent)
        while tt >= 1e-18:
            new = {"x": (x - tt * g)[None]}
            f_new = float(one.objective(new["x"])[0])
            if f_new <= f_ref - _LS_DECREASE * tt * gnorm2 + 1e-14 * abs(f_ref):
                break
            tt *= _LS_SHRINK
        else:
            return one.results(st, [0], iters_used + it, [False])[0]
        x_prev, g_prev, st = x, g, new
        res, scale = one.gradient_measure(st)
        recent = (recent + [f_new])[-10:]
    return one.results(st, [0], iters_used + _FIRST_ORDER_MAX_ITER, [False])[0]


def _keep(br, st, keep):
    if keep.all():
        return br, st
    return br.take(keep), {key: v[keep] for key, v in st.items()}


def _descent(G, d):
    """(d, slope, None), with -G in place of d where d is not a descent direction."""
    slope = _dot(G, d)
    flat = slope >= 0.0
    if flat.any():
        d[flat] = -G[flat]
        slope[flat] = -_dot(G[flat], G[flat])
    return d, slope, None


def _run(br, out, rows):
    """Solve the instances `rows` of br by the Newton driver, each into its own out[k]."""
    if len(rows):
        _newton(br.take(rows) if len(rows) < br.size else br, out, rows)


def _branch(family, p):
    """The branch class of `family` at p: the first of its FAMILIES branches
    needs p <= 2 (h' global), the second p >= 2 (g' global)."""
    low, high = FAMILIES[family].branches
    return low if p < 2.0 else high


# ---------------------------------------------------------------------------
# generalized basis pursuit
# ---------------------------------------------------------------------------

class _Bp(_Stack):
    """bp: each branch factors every row's A^T = Q R once (_qr) and keeps
    its full-row-rank mask as full."""

    def results(self, st, rows, it, ok):
        x, nu = st["x"][rows], st["nu"][rows]
        kkt = _kkt_bp(self.A[rows], self.y[rows], x, nu, self.p)
        obj = pnorm._pow_sum(x, self.p) ** (1.0 / self.p)
        return [SolveResult(x[j], nu[j], float(obj[j]), float(kkt[j]), it,
                            CONVERGED if ok[j] else MAX_ITER) for j in range(len(x))]

    def objective(self, x, rows=None):
        """||x||_p^p, which has the minimizers of ||x||_p (the same map on every row)."""
        return pnorm._pow_sum(x, self.p)


class _BpDual(_Bp):
    """1 < p <= 2: Newton ascent on the concave dual in nu, whose gradient is
    -F(nu) = y - A h(A^T nu) and whose negative Hessian A diag(h'(A^T nu)) A^T
    is positive semi-definite."""

    var = "nu"

    def __init__(self, A, y, p, cfg):
        super().__init__(A, y, p, cfg)
        self.full, self.Rinv, _ = _qr(A, "r")  # Q only in the rare fallback
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
        v = _mv(self.Rinv, _tmv(self.Rinv, self.y))
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
        return _descent(F, _solve(Q, -F))  # descent on the merit: ascent on the dual

    def fallback(self, st, j, it):
        """Row j's SolveResult from _first_order, started at the least-norm
        point: row j's primal branch, which factors it in full, runs it."""
        one = _BpPrimal(self.A[[j]], self.y[[j]], self.p, self.cfg)
        return _first_order(one, one.x0[0], it)


class _BpPrimal(_Bp):
    """p >= 2: feasible Newton on the primal KKT system, eliminated onto
    null(A).  Iterates step only along an orthonormal null-space basis Z, so
    they stay exactly feasible; the reduced Newton matrix is
    Z^T diag(g'(x)) Z, with a shift relative to max g'(x) when some g'(x_i)
    sits near zero."""

    def __init__(self, A, y, p, cfg):
        super().__init__(A, y, p, cfg)
        m = A.shape[1]
        self.full, self.Rinv, Q = _qr(A, "complete")
        # contiguous, so that matmul takes the same loop for a stack of one
        # as for a stack, and a row's bits do not depend on its batch
        self.Q1 = np.ascontiguousarray(Q[..., :m])
        self.Z = np.ascontiguousarray(Q[..., m:])
        self.x0 = _mv(self.Q1, _tmv(self.Rinv, y))  # the least-norm point

    def gradient_measure(self, st):
        """The gradient projected onto null(A), g(x) - Q1 Q1^T g(x) = g(x) - A^T nu
        with nu = R^-1 Q1^T g(x) the least-squares multiplier, against the
        scale max |g(x)|."""
        grad = st["grad"] = pnorm._g(st["x"], self.p)
        c = _tmv(self.Q1, grad)
        st["nu"] = _mv(self.Rinv, c)
        st["G"] = grad - _mv(self.Q1, c)
        return _amax(st["G"]), _amax(grad)

    measure = gradient_measure

    def fallback(self, st, j, it):
        """Row j's SolveResult from _first_order, started at its x projected onto A x = y."""
        x, Q1 = st["x"][j], self.Q1[j]
        return _first_order(self.take([j]), x - Q1 @ (Q1.T @ x) + self.x0[j], it)

    def direction(self, st):
        Z = self.Z
        lam = pnorm._g_prime(st["x"], self.p)
        floor = _TIKHONOV * lam.max(axis=-1)
        lam = np.where((lam.min(axis=-1) < floor)[:, None], lam + floor[:, None], lam)
        Zt = Z.transpose(0, 2, 1)
        du = _solve(np.matmul(Zt * lam[:, None, :], Z), -_mv(Zt, st["grad"]))
        return _descent(st["G"], _mv(Z, du))  # the slope along null(A) is G^T dx


def _bp_stack(A, y, p, cfg):
    """bp on a stack of finite instances: one entry per instance, a SolveResult or an exception."""
    B, m, N = A.shape
    out = [None] * B
    zero = ~np.any(y, axis=1)
    for k in np.flatnonzero(zero):
        out[k] = SolveResult(np.zeros(N), np.zeros(m), 0.0, 0.0, 0, CONVERGED)
    br = _branch("bp", p)(A, y, p, cfg)
    for k in np.flatnonzero(~br.full & ~zero):
        x_ls = np.linalg.lstsq(A[k], y[k], rcond=None)[0]
        if np.linalg.norm(A[k] @ x_ls - y[k]) > 1e-8 * (1.0 + np.linalg.norm(y[k])):
            out[k] = SolveResult(x_ls, None, pnorm.pnorm(x_ls, p), np.inf, 0, INFEASIBLE)
        else:
            out[k] = RankDeficientError("A is rank deficient; BP solver requires full row rank")
    _run(br, out, np.flatnonzero(br.full & ~zero))
    return out


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
# generalized ridge regression and elastic net: one smooth family
# ---------------------------------------------------------------------------

class _Rr(_Stack):
    """rr and en as one family, 0.5 ||A x - y||_2^2 + lam ||x||_p^r + lam2 ||x||_2^2:
    rr at r = p (None) and lam2 = 0, en at lam = lam1.  Each row has its own
    lam, as a column.  The start is the p = 2 solution at twice lam + lam2
    unless `warm` gives one."""

    lean = False  # results: (x, lam, iterations) alone, for the inner solves of a root in lam
    gram = False  # keeps A^T A as AtA (the p >= 2 branches)

    def __init__(self, A, y, p, cfg, lam, warm=None, r=None, lam2=0.0):
        super().__init__(A, y, p, cfg)
        self.lam, self.r, self.lam2 = lam[:, None], (p if r is None else r), lam2
        aty = _tmv(A, y)
        self.scale = _amax(aty)
        if self.gram or warm is None:
            AtA = np.matmul(A.transpose(0, 2, 1), A)
        if self.gram:
            self.AtA = AtA
        if warm is None:
            warm = _solve(_add_diag(AtA.copy() if self.gram else AtA, 2.0 * (self.lam + lam2)), aty)
        self.x0 = warm

    def objective(self, x, rows=slice(None)):
        res = _mv(self.A[rows], x) - self.y[rows]
        fpow = pnorm._pow_sum(x, self.p)
        penalty = fpow if self.r == self.p else (fpow ** (1.0 / self.p)) ** self.r
        obj = 0.5 * _dot(res, res) + self.lam[rows, 0] * penalty
        return obj + self.lam2 * _dot(x, x) if self.lam2 else obj

    def gradient_measure(self, st):
        st["G"] = _rr_gradient(self.A, self.y, st["x"], self.p, self.lam, self.r, self.lam2)
        return _amax(st["G"]), self.scale

    measure = gradient_measure

    def kkt(self, x, rows):
        A, y, lam = self.A[rows], self.y[rows], self.lam[rows]
        return _kkt_en(A, y, x, None, self.p, self.r, lam, self.lam2)

    def results(self, st, rows, it, ok):
        """Converged: the driver's test `ok` and the KKT test at x, which the
        test in w of _RrResidual does not imply where h underflows."""
        x = st["x"][rows]
        if self.lean:
            return [(xj, lam, it) for xj, lam in zip(x, self.lam[rows, 0])]
        obj = self.objective(x, rows)
        kkt = self.kkt(x, rows)
        ok = np.asarray(ok) & (kkt <= self.cfg.kkt_tol * self.scale[rows])
        return [SolveResult(x[j], None, float(obj[j]), float(kkt[j]), it,
                            CONVERGED if ok[j] else MAX_ITER) for j in range(len(x))]


def _augmented(A, y, lam2):
    """(A*, y*) = ([A; sqrt(2 lam2) I], [y; 0]) of every row: the data on which en
    at lam2 is rr (Zou & Hastie, J. R. Stat. Soc. B 2005, Lemma 1)."""
    B, m, N = A.shape
    eye = np.broadcast_to(np.sqrt(2.0 * lam2) * np.eye(N), (B, N, N))
    return np.concatenate([A, eye], axis=1), np.concatenate([y, np.zeros((B, N))], axis=1)


def _block(A, e, lam2, rhs):
    """d with (I + A* diag(e) A*^T) d = rhs, A* of _augmented and rhs of shape
    (B, rows of A*, k), by the m x m Schur complement I + A diag(D) A^T,
    D = e / (1 + 2 lam2 e), of the diagonal block of A*'s last N rows."""
    D = e / (1.0 + 2.0 * lam2 * e) if lam2 else e
    J = _add_diag(np.matmul(A * D[:, None, :], A.transpose(0, 2, 1)), 1.0)
    if not lam2:
        return _solve(J, rhs)
    m, c, At = A.shape[1], np.sqrt(2.0 * lam2), A.transpose(0, 2, 1)
    d1 = _solve(J, rhs[:, :m] - c * np.matmul(A, D[..., None] * rhs[:, m:]))
    d2 = (rhs[:, m:] - c * e[..., None] * np.matmul(At, d1)) / (1.0 + 2.0 * lam2 * e)[..., None]
    return np.concatenate([d1, d2], axis=1)


class _RrResidual(_Rr):
    """1 < p <= 2, r = p: x = h(A*^T w / lam) for rr on (A*, y*) of _augmented
    (A* = A at lam2 = 0), by Newton in the residual w = y* - A* x, its SPD
    Jacobian I + A* diag(h'/lam) A*^T solved by _block; merit |G(w)|^2."""

    var = "w"
    slack = 0.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.As, self.ys = _augmented(self.A, self.y, self.lam2) if self.lam2 else (self.A, self.y)

    def _rr_at(self, w, lam, rows):
        A = self.As[rows]
        s = _tmv(A, w) / lam
        x = pnorm._h(s, self.p)
        return {"w": w, "s": s, "x": x, "G": w - self.ys[rows] + _mv(A, x)}

    def _at(self, w, rows):
        st = self._rr_at(w, self.lam[rows], rows)
        st["merit"] = _dot(st["G"], st["G"])
        return st

    def start(self):
        return self._at(self.ys - _mv(self.As, self.x0), slice(None))

    def measure(self, st):
        return _amax(_tmv(self.As, st["G"])), self.scale

    def direction(self, st):
        e = pnorm._h_prime(st["s"], self.p) / self.lam
        return _block(self.A, e, self.lam2, -st["G"][..., None])[..., 0], -st["merit"], None


class _EnPrimal(_Rr):
    """p >= 2: Newton with the exact Hessian of lam ||x||_p^r, whose rank-one term is 0 at r = p:
    lam (r/p) ||x||_p^(r-p) [diag(g'(x)) + ((r-p) / (p ||x||_p^p)) g(x) g(x)^T]."""

    gram = True

    def direction(self, st):
        p, r, x, G = self.p, self.r, st["x"], st["G"]
        J, diag, zero = self.AtA.copy(), self.lam, None  # diag: lam times the Hessian's factor
        if r != p:
            fpow = pnorm._pow_sum(x, p)
            zero = fpow == 0.0  # the Hessian is undefined at x = 0
            fpow = np.where(zero, 1.0, fpow)[:, None]
            diag = self.lam * (r / p) * fpow ** ((r - p) / p)
            grad = pnorm._g(x, p)
            J += (diag * (r - p) / (p * fpow) * grad)[:, :, None] * grad[:, None, :]
        _add_diag(J, diag * pnorm._g_prime(x, p) + 2.0 * self.lam2)
        d, slope, _ = _descent(G, _solve(J, -G))
        return d, slope, zero


def _coef(x, p, lam, r=None):
    """lam (r/p) ||x||_p^(r-p), the factor of g(x) in the gradient of
    lam ||x||_p^r, as a column: lam at r = p (None), 0 at x = 0."""
    if r is None or r == p:
        return lam
    fpow = pnorm._pow_sum(x, p)[:, None]
    nz = fpow > 0.0
    return np.where(nz, (r * lam / p) * np.where(nz, fpow, 1.0) ** ((r - p) / p), 0.0)


def _rr_gradient(A, y, x, p, lam, r=None, lam2=0.0):
    """A^T (A x - y) + 2 lam2 x + _coef g(x) of every row (rr: r = p, lam2 = 0)."""
    G = _tmv(A, _mv(A, x) - y)
    if lam2:
        G = G + 2.0 * lam2 * x
    return G + _coef(x, p, lam, r) * pnorm._g(x, p)


def _rr_stack(A, y, p, cfg, lam=None, r=None, lam1=None, lam2=0.0):
    """rr (row k at lam or lam[k]) or en (r, lam1, lam2) on a stack of finite
    instances, by the family's Newton branch at p.  x = 0 solves the rows
    with A^T y = 0 (for en at r = 1 also ||A^T y||_q <= lam1)."""
    B, m, N = A.shape
    out = [None] * B
    lam = np.broadcast_to(np.asarray(lam1 if lam is None else lam, dtype=float), (B,))
    br = _branch("rr" if r is None else "en", p)(A, y, p, cfg, lam, None, r, lam2)
    done = br.kkt(np.zeros((B, N)), slice(None)) == 0.0 if r == 1.0 else br.scale == 0.0
    if done.any():
        for k, res in zip(np.flatnonzero(done), br.results({"x": np.zeros((B, N))}, done, 0, True)):
            out[k] = res
    _run(br, out, np.flatnonzero(~done))
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


def _rr_core(A, y, p, lam, cfg, warm, aim=None, target=None, tol=None):
    """The Newton solves on rr's path, row k from warm[k] and lam[k], with A^T y != 0,
    as arrays (x, lam, iterations): with aim None rr at lam (_RrResidual or
    _EnPrimal), the inner solves of _rr_path_root, lam as it went in; with an
    aim the bpdn form of _Bordered, lam the one found (nan where not found).
    A call is one solve of every row of its stack.  The benchmark's tracer
    and the tests count the rows solved through this name, and forward
    positional arguments only, so callers pass them by position.
    """
    if aim is None:
        br = _branch("rr", p)(A, y, p, cfg, lam, warm)
        br.lean = True
    else:
        br = (_BorderedResidual if p < 2.0 else _BorderedPrimal)(A, y, p, cfg, lam, warm, aim, target, tol)
    out = [None] * len(A)
    with np.errstate(all="ignore"):  # a budget too small can overflow x; the callers check x
        _newton(br, out, np.arange(len(A)))
    x, lam, iterations = zip(*out)
    return np.array(x), np.array(lam), np.array(iterations)


def solve_en(A, y, p, r, lam1, lam2, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize 0.5 ||A x - y||_2^2 + lam1 ||x||_p^r + lam2 ||x||_2^2.

    Requires p > 1, r >= 1, lam1 > 0, lam2 > 0 (the strictly convex case
    with a unique minimizer).  Stationarity at nonzero x:

        A^T (A x - y) + (r lam1 / p) ||x||_p^(r-p) grad_f(x) + 2 lam2 x = 0.

    For p >= 2 Newton with the exact Hessian of ||.||_p^r.  For 1 < p < 2 en
    is rr on A* = [A; sqrt(2 lam2) I], y* = [y; 0] at lam* = (r lam1 / p)
    ||x||_p^(r-p), solved by one Newton iteration in rr's residual variable
    and log lam together (_BorderedEn).  A batch of one.
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


def _rows_of(params, rows):
    """params of the instances `rows`: per-instance arrays are indexed, scalars kept."""
    return {k: v[rows] if isinstance(v, np.ndarray) else v for k, v in params.items()}


def solve_stack(family, A, y, p, cfg: SolverConfig | None = None, **params) -> list:
    """Solve a stack of bp, rr, en, bpdn_eps or bpdn_eta instances that share p.

    A has shape (B, m, N) and y shape (B, m); params are those of
    solve_<family> (lam for rr; r, lam1, lam2 for en; eps or eta for the
    bpdn forms, each a scalar or one value per instance).  One
    damped-Newton driver runs over the whole stack, each instance with its
    own stopping test, stall guard, Armijo step and line-search failure; an
    instance that needs a fallback leaves the stack and finishes alone (the
    bpdn forms' path root-find runs its rows in lockstep).  Returns one
    entry per instance: the SolveResult of solve_<family>(A[k], y[k], p,
    ...), bit for bit, or the exception that call raises.  Invalid p,
    parameters or config raise here.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 3 or y.shape != A.shape[:2]:
        raise InvalidInputError(f"need A of shape (B, m, N) and y of shape (B, m), "
                                f"got {A.shape} and {y.shape}")
    fam, args = _checked(family, dict(params, p=p), len(A))
    if fam.stack is None:
        raise InvalidInputError(f"solve_stack takes the p > 1 families, got {family!r}")
    out = [None] * len(A)
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    for k in np.flatnonzero(~finite):
        out[k] = InvalidInputError("A or y contains non-finite entries")
    rows = np.flatnonzero(finite)
    try:
        sel = slice(None) if len(rows) == len(A) else rows  # all rows: a slice copies nothing
        sub = fam.stack(A[sel], y[sel], cfg=cfg, **_rows_of(args, sel))
    except Exception as exc:  # keep one instance's fault out of the others' results
        if len(rows) == 1:
            sub = [exc]
        else:
            sub = [solve_stack(family, A[k:k + 1], y[k:k + 1], cfg=cfg,
                               **_rows_of(args, slice(k, k + 1)))[0] for k in rows]
    for k, r in zip(rows, sub):
        out[k] = r
    return out


def _full_row_rank(family, A, y, out):
    """(rows of A with full row rank, x_ls = Q1 R^-T y of every row) by _qr; the
    other rows get the family's RankDeficientError in out."""
    full, Rinv, Q1 = _qr(A)
    for k in np.flatnonzero(~full):
        out[k] = RankDeficientError(f"{family} requires A with full row rank")
    return np.flatnonzero(full), _mv(Q1, _tmv(Rinv, y))


def _bpdn_eps_stack(A, y, p, cfg, eps):
    B, m, N = A.shape
    out = [None] * B
    ny = np.sqrt(_dot(y, y))
    rows, x_ls = _full_row_rank("bpdn_eps", A, y, out)
    slack = eps[rows] >= ny[rows]
    for k in rows[slack]:
        out[k] = SolveResult(np.zeros(N), 0.0, 0.0, 0.0, 0, CONVERGED)
    rows = rows[~slack]
    A, y, eps = A[rows], y[rows], eps[rows]
    x, lam, iters, found = _bpdn_path(A, y, p, cfg, "residual", eps, _PATH_MATCH_TOL * ny[rows],
                                      1e-8 * ny[rows], x_ls[rows])
    mu = 1.0 / (2.0 * lam)
    kkt = _kkt_bpdn_eps(A, y, x, mu, p, eps)
    obj = pnorm._pow_sum(x, p) ** (1.0 / p)
    for j, k in enumerate(rows):
        out[k] = (SolveResult(x[j], float(mu[j]), float(obj[j]), float(kkt[j]), int(iters[j]),
                              CONVERGED) if found[j] else
                  SolveResult(np.zeros(N), None, 0.0, np.inf, 0, DEGENERATE))
    return out


def _bp_of(A, y, p, cfg, rows):
    """{k: bp entry of row k} for `rows`, from one bp stack."""
    if not len(rows):
        return {}
    return dict(zip(rows, solve_stack("bp", A[rows], y[rows], p, cfg)))


def _bpdn_eta_stack(A, y, p, cfg, eta):
    B, m, N = A.shape
    out = [None] * B
    rows, x_ls = _full_row_rank("bpdn_eta", A, y, out)
    # every x with A x = y has ||x||_p >= ||x_ls||_2^2 / ||x_ls||_q (Hoelder
    # against the least-norm solution x_ls), so below that bound the
    # constraint is active and bp is not needed; the factor is a rounding
    # allowance
    q = p / (p - 1.0)
    above = (eta[rows] * pnorm._pow_sum(x_ls[rows], q) ** (1.0 / q)
             >= (1.0 - 1e-10) * _dot(x_ls[rows], x_ls[rows]))
    bp = _bp_of(A, y, p, cfg, rows[above])
    for k, b in bp.items():
        if isinstance(b, Exception):
            out[k] = b
        elif pnorm.pnorm(b.x, p) <= eta[k]:  # reduced to bp: the multiplier is 0
            kkt = _kkt_bpdn_eta(A[k:k + 1], y[k:k + 1], b.x[None], np.zeros(1), p, eta[k])
            out[k] = SolveResult(b.x, 0.0, float(np.linalg.norm(A[k] @ b.x - y[k])),
                                 float(kkt[0]), b.iterations, b.status, reduced_to_bp=True)
    rows = np.array([k for k in rows if out[k] is None], dtype=int)
    x, mu, iters, found = _bpdn_path(A[rows], y[rows], p, cfg, "norm", eta[rows],
                                     _PATH_MATCH_TOL * eta[rows], 1e-8 * eta[rows], x_ls[rows])
    bp.update(_bp_of(A, y, p, cfg, [k for k, f in zip(rows, found) if not (f or k in bp)]))
    r = _mv(A[rows], x) - y[rows]
    kkt = _kkt_bpdn_eta(A[rows], y[rows], x, mu, p, eta[rows])
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


def solve_bpdn_eps(A, y, p, eps, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||x||_p over ||A x - y||_2 <= eps, for p > 1 and eps > 0.

    For eps >= ||y||_2 the solution is x = 0 with multiplier 0.  Otherwise
    the constraint is active and there is a unique mu > 0 with
    grad_f(x) + 2 mu A^T (A x - y) = 0; the solution lies on the penalized
    path x(lam) = rr-solution(lam) at lam = 1/(2 mu).  One damped Newton
    iteration (_Bordered) solves rr's stationarity at lam and
    ||A x - y||_2 = eps together, in x (or rr's residual variable below
    p = 2) and log lam.  It starts from the least-norm solution x_ls of
    A x = y scaled by 1 - eps / ||y||_2, which meets the constraint, and
    from the lam that best fits the rr stationarity there.  A row it
    leaves unsolved finishes by a safeguarded Newton root-find on the path
    (_rr_path_root) from the same start; the result's iterations are the
    bordered ones plus the root-find's inner ones.  A batch of one through
    the stacked solve (see solve_stack).
    """
    return _raised(solve_stack("bpdn_eps", *_one(A, y), p, cfg, eps=eps)[0])


def solve_bpdn_eta(A, y, p, eta, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize ||A x - y||_2 over ||x||_p <= eta, for p > 1 and eta > 0.

    When eta >= min {||x||_p : A x = y} the residual can be driven to zero
    and the problem reduces to basis pursuit; the bp solution is returned
    with multiplier 0 and the reduction flagged.  Otherwise the constraint
    is active, the multiplier mu > 0 is unique, and the solution lies on
    the same penalized path at lam = mu, located as for solve_bpdn_eps
    with ||x||_p = eta as the constraint, started from x_ls scaled to
    ||x||_p = eta.  bp is solved only when eta is not below a dual lower
    bound on its optimum.  A batch of one through the stacked solve (see
    solve_stack).
    """
    return _raised(solve_stack("bpdn_eta", *_one(A, y), p, cfg, eta=eta)[0])


class _Bordered:
    """A bpdn form, or en below p = 2, as one Newton solve in z = (v, t),
    t = log lam and v the state of the rr branch it extends (w below p = 2,
    x from p = 2): the branch's residual G at lam = exp(t) and the constraint

      c = log(||r||_2 / eps)  aim "residual", r = A x - y (below p = 2, w)
      c = log(||x||_p / eta)  aim "norm"
      c = t - log(r lam1 / p) - ((r - p) / p) log ||x||_p^p  aim "en" (_BorderedEn)

    vanish together (Keller's bordering method, 1977).  A step solves the
    branch's Newton matrix for -G and -dG/dt as one block; the linearized
    constraint gives dt.  The merit is ||G / sigma||^2 + c^2 (sigma the scale
    of G), its Newton slope -2 merit; the stall guard reads sqrt(merit).  A
    row is done when its rr residual is at most max(1e-3 kkt_tol scale, its
    rounding floor _floor), capped at kkt_tol scale, and its gap meets tol:
    |value - target| (value ||A x - y||_2 or ||x||_p), or for en the rest of
    its gradient, (lam - lam*) max |s|, held to the rr test.  A bpdn result
    is (x, lam, iterations), lam = nan where the row stalls, exhausts the
    budget or fails its line search.  Subclasses supply sigma, _v0 (and
    _t0), _rr_at, _rr_residual, _floor and _linear (the solved block, dc).
    """

    var = "z"
    slack = 0.0

    def __init__(self, A, y, p, cfg, lam, warm, aim, target, tol, r=None, lam2=0.0):
        super().__init__(A, y, p, cfg, lam, warm, r, lam2)
        self.aim, self.target, self.tol = aim, target, tol

    def _at(self, z, rows):
        lam = np.exp(z[:, -1:])
        st = self._rr_at(z[:, :-1], lam, rows)
        if self.aim == "residual":
            c = np.log(np.sqrt(_dot(st["r"], st["r"])) / self.target[rows])
        else:
            F = st["F"] = pnorm._pow_sum(st["x"], self.p)
            if self.aim == "norm":
                c = np.log(F ** (1.0 / self.p) / self.target[rows])
            else:  # at r = p, c = t - log lam1 even where F underflows to 0
                k = (self.r - self.p) / self.p
                c = z[:, -1] - self.target[rows] - (k * np.log(F) if k else 0.0)
        G = st["G"] / self.sigma[rows, None]
        st.update(z=z, lam=lam, c=c, merit=_dot(G, G) + c * c)
        return st

    def start(self):
        v = self._v0()
        return self._at(np.concatenate([v, self._t0(v)], axis=1), slice(None))

    def _t0(self, v):
        return np.log(self.lam)

    def measure(self, st):
        """(sqrt(merit), 1) for the stall test; the stopping test's parts go to st."""
        if self.aim == "residual":  # of A x - y itself, which w equals only at the solution
            r = _mv(self.A, st["x"]) - self.y
            st["gap"] = np.abs(np.sqrt(_dot(r, r)) - self.target)
        elif self.aim == "norm":
            st["gap"] = np.abs(st["F"] ** (1.0 / self.p) - self.target)
        else:  # lam* = lam exp(-c)
            st["gap"] = np.abs(st["lam"][:, 0] * np.expm1(-st["c"])) * _amax(st["s"])
        rr, tol = self._rr_residual(st), self.cfg.kkt_tol * self.scale
        floor = self._floor(st) if ((rr > 1e-3 * tol) & (rr <= tol)).any() else 0.0  # only there it counts
        st["rr"], st["rr_tol"] = rr, np.minimum(np.maximum(1e-3 * tol, floor), tol)
        return np.sqrt(st["merit"]), 1.0

    def done(self, st, res, scale):  # en (tol None) holds its gap to the rr test
        return (st["rr"] <= st["rr_tol"]) & (st["gap"] <= (st["rr_tol"] if self.tol is None else self.tol))

    def direction(self, st):
        d, cv, ct = self._linear(st)
        a, b = d[..., 0], d[..., 1]
        dt = -(st["c"] + _dot(cv, a)) / (_dot(cv, b) + ct)
        d = np.concatenate([a + dt[:, None] * b, dt[:, None]], axis=1)
        failed = ~np.isfinite(d).all(axis=1)
        return d, -2.0 * st["merit"], failed if failed.any() else None

    def results(self, st, rows, it, ok):
        lam = np.where(ok, st["lam"][rows, 0], np.nan)
        return [(x, lam_j, it) for x, lam_j in zip(st["x"][rows], lam)]

    def fallback(self, st, j, it):
        return st["x"][j], np.nan, it


class _BorderedResidual(_Bordered, _RrResidual):
    """1 < p < 2: v = w and G = w - y* + A* h(s), s = A*^T w / lam, whose
    Newton matrix in w is I + A* diag(E) A*^T, E = h'(s) / lam (_block)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sigma = np.sqrt(_dot(self.y, self.y))
        self.absA = np.abs(self.As)

    def _v0(self):
        return self.y - _mv(self.A, self.x0)

    def _t0(self, w):
        """t at w for aim "norm": where c(w, t) = 0, as ||h(A^T w / lam)||_p = eta
        at lam = ||A^T w||_q / (p eta^(p-1)), q = p / (p-1).  The fitted lam0
        of _bpdn_start can miss that lam by orders of magnitude near p = 1."""
        if self.aim != "norm":
            return super()._t0(w)
        v = np.abs(_tmv(self.A, w))
        top = v.max(axis=1)
        q = self.p / (self.p - 1.0)
        norm_q = top * pnorm._pow_sum(v / top[:, None], q) ** (1.0 / q)
        return (np.log(norm_q / self.p) - (self.p - 1.0) * np.log(self.target))[:, None]

    def _rr_at(self, w, lam, rows):
        st = super()._rr_at(w, lam, rows)
        st["r"] = st.pop("w")
        return st

    def _rr_residual(self, st):
        return _amax(_tmv(self.As, st["G"]))

    def _floor(self, st):
        """gamma(n) max |A*|^T (|w| + |y*| + |A*| (|x| + E |A*|^T |w|)), n the rows and
        columns of A*: the forward error of A*^T G (Higham, Accuracy and Stability,
        2nd ed., ch. 3), the rounding of A*^T w carried through h by E = h'(s) / lam."""
        absA, w = self.absA, np.abs(st["r"])
        E = pnorm._h_prime(st["s"], self.p) / st["lam"]
        bound = _tmv(absA, w + np.abs(self.ys) + _mv(absA, np.abs(st["x"]) + E * _tmv(absA, w)))
        return pnorm._gamma(sum(self.As.shape[1:])) * _amax(bound)

    def _linear(self, st):
        """dx = E A*^T dw - lam E s dt, so dG/dt = -lam u with u = A* (E s); with
        g(x) = s, F = ||x||_p^p moves by dF = u^T dw - lam s^T E s dt, and
        dc = dF / (p F) (aim "norm") or dt - ((r - p) / p) dF / F (aim "en")."""
        lam, s = st["lam"], st["s"]
        E = pnorm._h_prime(s, self.p) / lam
        Es = E * s
        u = _mv(self.As, Es)
        d = _block(self.A, E, self.lam2, np.stack([-st["G"], lam * u], axis=-1))
        if self.aim == "residual":  # c of w alone
            return d, st["r"] / _dot(st["r"], st["r"])[:, None], 0.0
        dF_dt = -lam[:, 0] * _dot(s, Es)
        if self.aim == "norm":
            pF = self.p * st["F"]
            return d, u / pF[:, None], dF_dt / pF
        k = (self.r - self.p) / (self.p * st["F"])
        return d, -k[:, None] * u, 1.0 - k * dF_dt


class _BorderedEn(_BorderedResidual):
    """en below p = 2: rr on (A*, y*) of _augmented at lam* = (r lam1 / p)
    ||x||_p^(r-p) (Zou & Hastie, J. R. Stat. Soc. B 2005, Lemma 1) by aim
    "en", from the ridge start x0 at lam*(x0).  Its lam is lam1, as in _Rr's
    objective, gradient and KKT test, and a failed line search ends in _first_order."""

    fallback = _Stack.fallback

    def __init__(self, A, y, p, cfg, lam, warm=None, r=None, lam2=0.0):
        super().__init__(A, y, p, cfg, lam, warm, "en", np.log(r / p * lam), None, r, lam2)

    def results(self, st, rows, it, ok):
        """en's; a stalled row whose x has no zero (g' is infinite at 0) finishes from
        x by en's primal Newton (_EnPrimal), past the rounding of h(A*^T w / lam)."""
        out, x = _Rr.results(self, st, rows, it, ok), st["x"][rows]
        left = np.array([j for j, res in enumerate(out) if not res.converged and x[j].all()], dtype=int)
        if len(left) and it < self.cfg.max_iter:
            one = self.take(np.arange(self.size)[rows][left])
            _newton(_EnPrimal(one.A, one.y, self.p, replace(self.cfg, max_iter=self.cfg.max_iter - it),
                              one.lam[:, 0], x[left], self.r, self.lam2), out, left)
            for j in left:
                out[j] = replace(out[j], iterations=it + out[j].iterations)
        return out

    def start(self):  # A*^T w = lam g(x0) maps to x0 itself; y* - A* x0 overflows h on badly scaled rows
        lam = _coef(self.x0, self.p, self.lam, self.r)
        w = self.ys - _mv(self.As, self.x0)
        N = self.A.shape[2]
        w[:, -N:] = (lam * pnorm._g(self.x0, self.p) - _tmv(self.A, w[:, :-N])) / np.sqrt(2.0 * self.lam2)
        return self._at(np.concatenate([w, np.log(lam)], axis=1), slice(None))


class _BorderedPrimal(_Bordered, _EnPrimal):
    """p >= 2: v = x and G = A^T (A x - y) + lam g(x), whose Newton matrix
    is A^T A + lam diag(g'(x)); dG/dt = lam g(x)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sigma = self.scale
        self.absA = np.abs(self.A)

    def _v0(self):
        return self.x0

    def _rr_at(self, x, lam, rows):
        A = self.A[rows]
        r = _mv(A, x) - self.y[rows]
        g = pnorm._g(x, self.p)
        return {"x": x, "g": g, "r": r, "G": _tmv(A, r) + lam * g}

    def _rr_residual(self, st):
        return _amax(st["G"])

    def _floor(self, st):
        """gamma(m + N) max (|A|^T (|y| + |A| |x|) + lam |g(x)|), the forward error of G."""
        bound = (_tmv(self.absA, np.abs(self.y) + _mv(self.absA, np.abs(st["x"])))
                 + st["lam"] * np.abs(st["g"]))
        return pnorm._gamma(sum(self.A.shape[1:])) * _amax(bound)

    def _linear(self, st):
        """c is of x alone: dc = r^T A dx / ||r||^2 or g(x)^T dx / (p ||x||_p^p)."""
        lam, g, r = st["lam"], st["g"], st["r"]
        J = _add_diag(self.AtA.copy(), lam * pnorm._g_prime(st["x"], self.p))
        d = _solve(J, np.stack([-st["G"], -lam * g], axis=-1))
        if self.aim == "residual":
            return d, _tmv(self.A, r) / _dot(r, r)[:, None], 0.0
        return d, g / (self.p * st["F"][:, None]), 0.0


def _bpdn_start(A, y, p, aim, target, x_ls):
    """(x_bar, lam0) of every bpdn row: x_bar = s x_ls meets the target (s = 1 -
    eps / ||y|| or eta / ||x_ls||_p), and lam0 = ||y||^2 s (1 - s) / (p
    ||x_bar||_p^p) best fits rr's stationarity along it, at least 1e-12
    mean(A * A); a non-finite lam0 (s^p underflows) gives way to mean(A * A)."""
    B, m, N = A.shape
    mean_sq = (A * A).reshape(B, m * N).mean(axis=1)
    ny2 = _dot(y, y)
    with np.errstate(all="ignore"):
        frac = (1.0 - target / np.sqrt(ny2) if aim == "residual"
                else target / pnorm._pow_sum(x_ls, p) ** (1.0 / p))
        x_bar = frac[:, None] * x_ls
        lam = ny2 * frac * (1.0 - frac) / (p * pnorm._pow_sum(x_bar, p))
    return x_bar, np.where(np.isfinite(lam), np.maximum(lam, 1e-12 * mean_sq), mean_sq)


def _bpdn_path(A, y, p, cfg, aim, target, tol, tol_floor, x_ls):
    """(x, lam, iterations, found) of every bpdn row, aim "residual" or "norm":
    the bordered Newton (_rr_core with aim) from _bpdn_start, and
    _rr_path_root from the same start on the rows it leaves unsolved, with
    their iterations added."""
    B, m, N = A.shape
    if not B:
        return np.zeros((0, N)), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    x_bar, lam = _bpdn_start(A, y, p, aim, target, x_ls)
    x, lam, iters = _rr_core(A, y, p, lam, cfg, x_bar, aim, target, tol)
    found = np.isfinite(lam)
    rows = np.flatnonzero(~found)
    if len(rows):
        x[rows], lam[rows], more, found[rows] = _rr_path_root(
            A[rows], y[rows], p, cfg, aim, target[rows], tol[rows], tol_floor[rows], x_ls[rows])
        iters[rows] += more
    return x, lam, iters, found


def _path_dx(A, p, lam, x):
    """dx/dlam on the rr path of every row of a stack.

    Differentiating A^T (A x - y) + lam g(x) = 0 gives
    (A^T A + diag(lam g'(x))) dx = -g(x).  For p >= 2 that n x n system is
    solved as it stands; for 1 < p < 2, where g' blows up at 0, it is
    solved in Woodbury form with E = diag(h'(g(x)) / lam) and the m x m
    matrix of the residual Newton iteration (_block).
    """
    g = pnorm._g(x, p)
    if p >= 2.0:
        J = _add_diag(np.matmul(A.transpose(0, 2, 1), A), lam[:, None] * pnorm._g_prime(x, p))
        return _solve(J, -g)
    D = pnorm._h_prime(g, p) / lam[:, None]
    return D * (_tmv(A, _block(A, D, 0.0, _mv(A, D * g)[..., None])[..., 0]) - g)


def _rr_path_root(A, y, p, cfg, aim, target, tol, tol_floor, x_ls):
    """Find, on each row k of a stack, lam on its rr path x(lam) where the path
    meets `aim`, for the bpdn rows that _Bordered leaves unsolved:

      "residual"  ||A x - y||_2 = target[k] (bpdn_eps); it grows with lam
      "norm"      ||x||_p = target[k] (bpdn_eta); it falls

    A row starts at _bpdn_start of x_ls.  Newton steps in log lam on
    log ||A x - y|| or on ||x||_p take their slope from _path_dx and start
    each rr solve on the tangent, x + dx/dlam (lam_new - lam).  The bracket
    [lo, hi] seen so far guards them: a step that leaves it, or follows a
    Newton step that failed to halve the mismatch, is replaced by a
    geometric one (x8, /8 or sqrt(lo hi)) from x.  lam0 and the floor
    1e-12 mean(A * A) scale as c^2 with (A, y), so the iteration is
    scale-free.  A row aims for |gap| <= tol, or tol_floor once its bracket
    collapses to machine width.  The rows run in lockstep, each row's
    numbers its own: each round solves the active rows' rr as one stack
    (_rr_core) and takes one stacked _path_dx.  A row leaves when it
    matches, its bracket collapses, it reaches the floor, it has used 200
    inner solves, or its inner x is not finite (a budget too small).
    Returns (x, lam, inner_iterations, found); where not found (even the
    floor lies past the target, no point met tol_floor, or an inner x was
    not finite), x and lam are the closest point seen and its lam (the
    start and nan if no inner x was finite).
    """
    inner_cfg = replace(cfg, kkt_tol=max(1e-13, cfg.kkt_tol * 1e-3))  # well below the match tolerance
    B, m, N = A.shape
    floor = 1e-12 * (A * A).reshape(B, m * N).mean(axis=1)
    x0, lam = _bpdn_start(A, y, p, aim, target, x_ls)
    x_out, lam_out = np.zeros((B, N)), np.full(B, np.nan)
    iters, found = np.zeros(B, dtype=int), np.zeros(B, dtype=bool)
    grows = aim != "norm"
    s = {"row": np.arange(B), "A": A, "y": y, "target": target, "tol": tol, "tol_floor": tol_floor,
         "lam": lam, "floor": floor, "lo": np.zeros(B), "hi": np.full(B, np.inf), "warm": x0,
         "total": np.zeros(B, dtype=int), "best": np.full(B, np.inf), "best_x": x0.copy(),
         "best_lam": np.full(B, np.nan), "last_gap": np.full(B, np.inf), "newton": np.zeros(B, dtype=bool)}
    for solves in range(1, 201):  # budget of inner rr solves
        x, _, inner = _rr_core(s["A"], s["y"], p, s["lam"], inner_cfg, s["warm"])
        s["total"] = s["total"] + inner
        with np.errstate(all="ignore"):
            res = _mv(s["A"], x) - s["y"]
            value = (np.sqrt(_dot(res, res)) if aim == "residual"
                     else pnorm._pow_sum(x, p) ** (1.0 / p))
            gap = value - s["target"]
        lost = ~(np.isfinite(x).all(axis=1) & np.isfinite(gap))
        match = ~lost & (np.abs(gap) <= s["tol"])
        better = ~lost & (np.abs(gap) < s["best"])
        s["best"] = np.where(better, np.abs(gap), s["best"])
        s["best_x"] = np.where(better[:, None], x, s["best_x"])
        s["best_lam"] = np.where(better, s["lam"], s["best_lam"])
        past = (gap > 0.0) == grows
        dead = lost | (~match & past & (s["lam"] <= s["floor"]))
        s["hi"] = np.where(past, s["lam"], s["hi"])
        s["lo"] = np.where(past, s["lo"], s["lam"])
        shut = ~match & ~dead & ((s["lo"] >= (1.0 - 1e-13) * s["hi"]) | (solves == 200))
        found[s["row"][match | (shut & (s["best"] <= s["tol_floor"]))]] = True
        leave = match | dead | shut
        k = s["row"][leave]
        x_out[k] = np.where(match[leave, None], x[leave], s["best_x"][leave])
        lam_out[k] = np.where(match[leave], s["lam"][leave], s["best_lam"][leave])
        iters[k] = s["total"][leave]
        s.update(x=x, r=res, value=value, gap=gap)
        if leave.any():
            s = {key: v[~leave] for key, v in s.items()}
        if not len(s["row"]):
            break
        x = s["x"]
        lam, lo, hi = s["lam"], s["lo"], s["hi"]
        with np.errstate(all="ignore"):
            dx = _path_dx(s["A"], p, lam, x)
            if aim == "residual":
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
            newton = s["newton"] = inside & ~(s["newton"] & (gap > 0.5 * s["last_gap"]))
            s["lam"] = np.where(newton, step, geometric)
            s["last_gap"] = gap
            s["warm"] = x.copy()
            s["warm"][newton] += dx[newton] * (s["lam"][newton] - lam[newton])[:, None]
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
    _checked("bp_l1", {})
    full, Rinv, Q1 = (f[0] for f in _qr(A[None]))
    if not full:
        raise RankDeficientError("bp_l1 requires A with full row rank")
    n = A.shape[1]
    if not np.any(y):
        return SolveResult(np.zeros(n), np.zeros(A.shape[0]), 0.0, 0.0, 0, CONVERGED)

    x_ls = Q1 @ (Rinv.T @ y)

    def project(v):  # onto A x = y
        return v - Q1 @ (Q1.T @ v) + x_ls

    rho = _L1_RHO
    z = x_ls
    u = np.zeros(n)
    status = MAX_ITER
    it = 0
    for it in range(_L1_MAX_ITER):
        x = project(z - u)
        z_old = z
        v = x + u
        z = np.sign(v) * np.maximum(np.abs(v) - 1.0 / rho, 0.0)
        u = u + x - z
        r_primal = float(np.linalg.norm(x - z))
        r_dual = rho * float(np.linalg.norm(z - z_old))
        if r_dual <= _L1_DUAL_TOL and r_primal <= _L1_DUAL_TOL * (1.0 + float(np.abs(x).max())):
            status = CONVERGED
            break
    x_out = project(z)
    nu = rho * (Rinv @ (Q1.T @ u))
    kkt = float(_kkt_bp_l1(A[None], y[None], x_out[None], nu[None])[0])
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
    eps: 1 -> 1e-12, with 60 inner steps per stage and 600 at the last.
    Each reweighted solve minimizes a majorizer of the smoothed objective,
    so the smoothed objective is monotone non-increasing along the
    iteration.  When `trace` is a list, (eps, smoothed objective)
    pairs are appended after every inner step.  The status is converged
    when the KKT residual at the final eps is at most kkt_tol * ||A^T y||_inf,
    the scale solve_rr stops at.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A, y = _validated(A, y)
    _, args = _checked("rr_irls", {"p": p, "lam": lam})
    p, lam = args["p"], args["lam"]

    n = A.shape[1]
    if not np.any(A.T @ y):
        return SolveResult(np.zeros(n), None, 0.5 * float(y @ y), 0.0, 0, CONVERGED)

    AtA = A.T @ A
    aty = A.T @ y
    x = _solve_shifted(_add_diag(AtA.copy(), lam), aty, 1.0)
    iters = 0
    eps = _IRLS_EPS_START
    if trace is not None:
        trace.append((eps, smoothed_irls_objective(A, y, x, p, lam, eps)))
    while True:
        for _ in range(_IRLS_FINAL_MAX if eps <= _IRLS_EPS_FINAL else _IRLS_INNER_MAX):
            w = (x * x + eps) ** (p / 2.0 - 1.0)
            x_new = _solve_shifted(_add_diag(AtA.copy(), lam * p * w), aty, 1.0)
            iters += 1
            step = float(np.abs(x_new - x).max())
            x = x_new
            if trace is not None:
                trace.append((eps, smoothed_irls_objective(A, y, x, p, lam, eps)))
            if step <= 1e-13 * (1.0 + float(np.abs(x).max())):
                break
        if eps <= _IRLS_EPS_FINAL:
            break
        eps = max(eps * _IRLS_EPS_SHRINK, _IRLS_EPS_FINAL)

    obj = 0.5 * float(np.sum((A @ x - y) ** 2)) + lam * pnorm.pnorm_pow(x, p)
    kkt = float(_kkt_rr_irls(A[None], y[None], x[None], None, p, lam)[0])
    status = CONVERGED if kkt <= cfg.kkt_tol * float(np.abs(aty).max()) else MAX_ITER
    return SolveResult(x, None, obj, kkt, iters, status)


def smoothed_irls_objective(A, y, x, p, lam, eps):
    """The smoothing objective used by solve_rr_irls at a given eps."""
    r = A @ x - y
    return 0.5 * float(r @ r) + lam * float(np.sum((x * x + eps) ** (p / 2.0)))


# ---------------------------------------------------------------------------
# the family table: one KKT residual per family, validation, dispatch
# ---------------------------------------------------------------------------

def _kkt_bp(A, y, x, nu, p):
    """bp: ||g(x) - A^T nu||_inf + ||A x - y||_inf."""
    return _amax(pnorm._g(x, p) - _tmv(A, nu)) + _amax(_mv(A, x) - y)


def _kkt_bpdn_eps(A, y, x, mu, p, eps):
    """bpdn_eps: ||g(x) + 2 mu A^T (A x - y)||_inf plus the excess of ||A x - y||_2 over eps."""
    r = _mv(A, x) - y
    return (_amax(pnorm._g(x, p) + 2.0 * mu[:, None] * _tmv(A, r))
            + np.maximum(0.0, np.sqrt(_dot(r, r)) - eps))


def _kkt_bpdn_eta(A, y, x, mu, p, eta):
    """bpdn_eta: the rr stationarity at lam = mu plus the excess of ||x||_p over eta."""
    return (_amax(_rr_gradient(A, y, x, p, mu[:, None]))
            + np.maximum(0.0, pnorm._pow_sum(x, p) ** (1.0 / p) - eta))


def _kkt_rr(A, y, x, _, p, lam):
    """rr: ||A^T (A x - y) + lam g(x)||_inf."""
    return _amax(_rr_gradient(A, y, x, p, lam))


def _kkt_en(A, y, x, _, p, r, lam1, lam2):
    """en: the max-norm of the gradient; for r = 1 at x = 0, where ||x||_p has
    no gradient, the excess of the dual norm ||A^T y||_q over lam1 (a scalar
    or a column; x = 0 is optimal iff it is 0)."""
    kkt = _amax(_rr_gradient(A, y, x, p, lam1, r, lam2))
    zero = ~x.any(axis=-1)
    if r == 1.0 and zero.any():
        q = p / (p - 1.0)
        dual = pnorm._pow_sum(_tmv(A[zero], y[zero]), q) ** (1.0 / q)
        kkt[zero] = np.maximum(0.0, dual - np.broadcast_to(lam1, (len(x), 1))[zero, 0])
    return kkt


def _kkt_bp_l1(A, y, x, nu):
    """bp_l1: ||A x - y||_inf + (||A^T nu||_inf - 1)_+ + the duality gap."""
    gap = np.abs(x).sum(axis=-1) - _mv(y[:, None], nu)[:, 0]  # y^T nu by BLAS, not _dot
    return _amax(_mv(A, x) - y) + np.maximum(0.0, _amax(_tmv(A, nu)) - 1.0) + np.abs(gap)


def _kkt_rr_irls(A, y, x, _, p, lam):
    """rr_irls: the max-norm of the gradient of the objective smoothed at the final eps."""
    w = (x * x + _IRLS_EPS_FINAL) ** (p / 2.0 - 1.0)
    return _amax(_tmv(A, _mv(A, x) - y) + lam * p * x * w)


@dataclass(frozen=True)
class _Family:
    """What the code needs to know of one family."""

    params: tuple                     # its ProblemInstance fields besides p
    p_range: Optional[tuple]          # the open interval p must lie in; None: no p
    solve: Callable                   # solve_<family>
    kkt: Callable                     # its residual: (A, y, x, multiplier, p, **params) on stacks
    stack: Optional[Callable] = None  # solve_stack's solver for it (the p > 1 families)
    branches: Optional[tuple] = None  # its Newton branch classes for p < 2 and p >= 2 (_branch)
    per_row: bool = False             # solve_stack takes one value per instance of each param
    multiplier: Optional[str] = None  # the multiplier its residual needs


_P_GT1 = (1.0, np.inf)
FAMILIES = {
    "bp": _Family((), _P_GT1, solve_bp, _kkt_bp, _bp_stack, (_BpDual, _BpPrimal),
                  multiplier="nu"),
    "bpdn_eps": _Family(("eps",), _P_GT1, solve_bpdn_eps, _kkt_bpdn_eps, _bpdn_eps_stack,
                        per_row=True, multiplier="mu"),
    "bpdn_eta": _Family(("eta",), _P_GT1, solve_bpdn_eta, _kkt_bpdn_eta, _bpdn_eta_stack,
                        per_row=True, multiplier="mu"),
    "rr": _Family(("lam",), _P_GT1, solve_rr, _kkt_rr, _rr_stack, (_RrResidual, _EnPrimal)),
    "en": _Family(("r", "lam1", "lam2"), _P_GT1, solve_en, _kkt_en, _rr_stack,
                  (_BorderedEn, _EnPrimal)),
    "bp_l1": _Family((), None, solve_bp_l1, _kkt_bp_l1, multiplier="nu"),
    "rr_irls": _Family(("lam",), (0.0, 1.0), solve_rr_irls, _kkt_rr_irls),
}

# each parameter's name in messages (the CLI flag and config key) and its bound
_BOUNDS = {"lam": ("lambda", ">", 0.0), "lam1": ("lambda1", ">", 0.0),
           "lam2": ("lambda2", ">", 0.0), "r": ("r", ">=", 1.0),
           "eps": ("eps", ">", 0.0), "eta": ("eta", ">", 0.0)}


def _checked(family, values, B=None):
    """(FAMILIES[family], {"p": p, param: value}) from `values`, validated.

    p and each parameter of the family must be numbers in their ranges
    (_valid).  For a stack of B instances a per_row family's parameters may
    hold one value per instance, and they come back as arrays of length B.
    """
    fam = FAMILIES.get(family)
    if fam is None:
        raise InvalidInputError(f"unknown family {family!r}")
    names = ("p",) * bool(fam.p_range) + fam.params
    return fam, {name: _valid(family, name, values.get(name), B) for name in names}


def _valid(family, name, v, B=None):
    """v as p or as the parameter `name` of `family`, checked against its
    range (finite): a float, or an array of length B for a per_row family's
    parameter on a stack of B instances."""
    fam = FAMILIES[family]
    if name == "p":
        lo, hi = fam.p_range
        try:
            p = float(v)
        except (TypeError, ValueError):
            p = np.nan  # no p, or not a number: fails the range test
        if not lo < p < hi:
            raise UnsupportedExponentError(f"{family} requires p in ({lo:g}, {hi:g}), got p={v!r}")
        return p
    per_row = fam.per_row and B is not None
    label, op, bound = _BOUNDS[name]
    rule = f"{family} requires {label} {op} {bound:g}"
    if v is None:
        raise InvalidInputError(rule)
    try:
        v = np.broadcast_to(np.asarray(v, dtype=float), (B,)) if per_row else float(v)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{rule}{' per instance' if per_row else ''}, got {v!r}") from None
    a = np.asarray(v)
    ok = (a >= bound if op == ">=" else a > bound) & np.isfinite(a)
    if not ok.all():
        bad = float(a[~ok][0])
        raise InvalidInputError(f"{rule}{'' if np.isfinite(bad) else ' and finite'}, got {bad}")
    return v


def solve_instance(inst: ProblemInstance, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a ProblemInstance: its family's solve function at its p and parameters."""
    fam, args = _checked(inst.family, vars(inst))
    return fam.solve(inst.A, inst.y, cfg=cfg, **args)


def kkt_residual(inst: ProblemInstance, result: SolveResult) -> float:
    """Max-norm stationarity residual plus feasibility violation for a solution.

    Zero for exact solutions; absolute, not relative.  The family's residual
    kernel on a stack of one: the solvers fill SolveResult.kkt_residual with
    the same kernel, so for a solver's own result the two are equal.
    """
    fam, args = _checked(inst.family, vars(inst))
    x = np.asarray(result.x, dtype=float).ravel()
    if x.shape[0] != inst.A.shape[1]:
        raise InvalidInputError("solution dimension does not match the instance")
    multiplier = None
    if fam.multiplier:
        if result.multiplier is None:
            raise InvalidInputError(f"{inst.family} kkt residual requires the multiplier "
                                    f"{fam.multiplier}")
        multiplier = np.asarray(result.multiplier, dtype=float)[None]
    return float(fam.kkt(inst.A[None], inst.y[None], x[None], multiplier, **args)[0])
