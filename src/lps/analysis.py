"""Support measurement and Monte-Carlo genericity/recovery experiments.

The experiments realize the almost-everywhere statements empirically: draw
Gaussian instances, solve, measure supports, and aggregate.  Full-support
statements are fractions over converged trials.  Each trial is measured
twice: by a relative threshold on the computed x, and by a certificate
(`certify_nonzero`) that proves, from the optimality system and with
rounding allowances, which coordinates of the exact solution are nonzero.
A certified full support is a proof about the exact solution of that one
instance; the fraction over instances stays an empirical estimate of the
almost-everywhere statement.  Per-trial random streams derive from
(master_seed, p_index, trial_index), so results are bit-identical across
runs and worker counts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import pnorm, solvers
from .ensembles import EnsembleSpec, derive_seed, gen_gaussian_instance, gen_sparse_measured, rng_for
from .errors import InvalidInputError
from .solvers import (  # solve_bp stays importable here for callers that wrap it
    CONVERGED,
    ProblemInstance,
    SolveResult,
    SolverConfig,
    kkt_residual,
    solve_bp,
    solve_bp_l1,
    solve_instance,
)

__all__ = [
    "SupportReport",
    "ExperimentConfig",
    "TrialRecord",
    "CellStats",
    "ExperimentStats",
    "support",
    "check_lower_bound",
    "certify_nonzero",
    "certified_full_support",
    "run_genericity_experiment",
    "run_recovery_comparison",
    "perturbation_robustness",
    "check_dual_jacobian_spd",
    "GENERICITY_FAMILIES",
    "RECOVERY_FAMILIES",
]

GENERICITY_FAMILIES = ("bp", "rr", "en", "bpdn_eps", "bpdn_eta")
RECOVERY_FAMILIES = ("bp_l1", "rr_irls")

DEFAULT_P_GRID = (1.2, 1.5, 2.0, 3.0, 4.5)
DEFAULT_SUPPORT_TOL = 1e-6
DEFAULT_EPSILON_FRACTION = 0.1
DEFAULT_ETA_FRACTION = 0.5
RECOVERY_TOL = 1e-6
CHUNK = 64  # trials per task and per stack: fixed, so records never depend on the worker count


@dataclass(frozen=True)
class SupportReport:
    """Thresholded support of a vector: {i : |x_i| > tol * ||x||_inf}."""

    indices: tuple
    size: int
    min_rel_magnitude: float
    tol_used: float


def support(x, tol: float = DEFAULT_SUPPORT_TOL) -> SupportReport:
    """Support of x at a relative threshold against its max magnitude.

    The zero vector has empty support.  min_rel_magnitude is the smallest
    |x_i| / ||x||_inf over the reported support (0 for x = 0).
    """
    if not (0.0 <= tol < 1.0):
        raise InvalidInputError(f"support tol must lie in [0, 1), got {tol}")
    return _support(_relative(x), tol)


def _relative(x) -> np.ndarray:
    """|x_i| / ||x||_inf, all zeros for x = 0."""
    a = np.abs(np.asarray(x, dtype=float).ravel())
    amax = a.max(initial=0.0)
    return a / amax if amax > 0.0 else a


def _support(rel: np.ndarray, tol: float) -> SupportReport:
    idx = np.flatnonzero(rel > tol)
    if not idx.size:
        return SupportReport((), 0, 0.0, tol)
    return SupportReport(tuple(idx.tolist()), int(idx.size), float(rel[idx].min()), tol)


def check_lower_bound(report: SupportReport, m: int, N: int) -> bool:
    """True iff the support size meets the generic lower bound N - m + 1."""
    return report.size >= N - m + 1


# ---------------------------------------------------------------------------
# certified support: proving coordinates of the exact solution nonzero
# ---------------------------------------------------------------------------

_U = np.finfo(float).eps / 2.0  # unit roundoff


def _gamma(n: int) -> float:
    """Rounding allowance of a length-n dot product relative to |a|^T |b|."""
    return 2.0 * (n + 2) * _U


def _pow_err(r: np.ndarray) -> np.ndarray:
    """Rounding allowance of a power r = exp(a log z): 4u (1 + |log r|) |r|."""
    r = np.abs(r)
    with np.errstate(divide="ignore"):
        logs = np.abs(np.log(r, where=r > 0.0, out=np.zeros_like(r)))
    return 4.0 * _U * (1.0 + logs) * r


def _h_prime_abs(z: np.ndarray, p: float) -> np.ndarray:
    """h'(z) at |z| for any p > 1; +inf at z = 0 when p > 2."""
    with np.errstate(divide="ignore"):
        return np.power(z, (2.0 - p) / (p - 1.0)) / ((p - 1.0) * p ** (1.0 / (p - 1.0)))


def _h_prime_range(lo: np.ndarray, hi: np.ndarray, p: float):
    """(min, max) of h' over lo <= |z| <= hi.

    h' grows with |z| for p < 2 and shrinks for p > 2, so both are endpoint
    values.
    """
    a, b = _h_prime_abs(lo, p), _h_prime_abs(hi, p)
    return (a, b) if p <= 2.0 else (b, a)


def _h_step(abs_s: np.ndarray, ds: np.ndarray, p: float) -> np.ndarray:
    """Bound on |h(s') - h(s)| over |s' - s| <= ds."""
    _, hp_max = _h_prime_range(np.maximum(abs_s - ds, 0.0), abs_s + ds, p)
    far = 2.0 * np.abs(pnorm.h_scalar(abs_s + ds, p))  # |h(s')| + |h(s)|
    with np.errstate(invalid="ignore"):
        near = hp_max * ds
    return np.where(np.isfinite(near), np.minimum(near, far), far)


def _certify_bp(A, y, p, nu) -> np.ndarray:
    m, N = A.shape
    absA = np.abs(A)
    norms = np.linalg.norm(A, axis=0) * (1.0 + _gamma(m))
    s = A.T @ nu
    abs_s = np.abs(s)
    ds = _gamma(m) * (absA.T @ np.abs(nu))
    x = pnorm.h_scalar(s, p)
    dx = _h_step(abs_s, ds, p) + _pow_err(x) + _U / (p - 1.0) * np.abs(x)  # last: rounding of s / p
    dF = _gamma(N + 1) * (absA @ np.abs(x) + np.abs(y)) + absA @ dx
    res = (np.linalg.norm(A @ x - y) + np.linalg.norm(dF)) * (1.0 + _gamma(m))
    weights = norms * norms
    rho = 0.0
    for _ in range(5):
        lo = np.maximum(abs_s - ds - norms * rho, 0.0)
        gamma_lo, _ = _h_prime_range(lo, abs_s + ds + norms * rho, p)
        gamma_lo = np.where(np.isfinite(gamma_lo), gamma_lo, 0.0)  # dropping a term keeps a lower bound
        slack = _gamma(N + 2 * m) * (gamma_lo @ weights) + _pow_err(gamma_lo) @ weights
        lam_lo = float(np.linalg.eigvalsh((A * gamma_lo) @ A.T)[0]) - slack
        if lam_lo <= 0.0:
            break
        if rho > 0.0 and res < rho * lam_lo:
            return abs_s - ds > norms * rho
        rho = 2.0 * res / lam_lo
    return np.zeros(N, dtype=bool)


def _certify_rr(A, y, p, lam, x) -> np.ndarray:
    m, N = A.shape
    absA = np.abs(A)
    norms = np.linalg.norm(A, axis=0) * (1.0 + _gamma(m))
    theta = y - A @ x
    t = A.T @ theta
    dt = _gamma(m) * (absA.T @ np.abs(theta))
    s = t / lam
    ds = dt / lam + _U * np.abs(s)
    # gap = P(x) - D(theta) = lam * sum_i FY_i + ||A x - y + theta||^2 / 2,
    # FY_i = |x_i|^p + phi*(s_i) - s_i x_i the Fenchel-Young gap of |.|^p
    t1 = pnorm.abs_pow(x, p)
    t2 = (p - 1.0) * pnorm.abs_pow(s / p, p / (p - 1.0))
    t3 = s * x
    fy = t1 + t2 - t3
    terms = t1 + t2 + np.abs(t3)
    fy_err = (
        _pow_err(t1) + _pow_err(t2) + 4.0 * _U * terms + p / (p - 1.0) * _U * t2
        + ds * (np.abs(pnorm.h_scalar(s, p) - x) + _h_step(np.abs(s), ds, p))
    )
    delta = _gamma(N + 1) * np.linalg.norm(absA @ np.abs(x) + np.abs(y))
    gap = lam * (fy.sum() + fy_err.sum() + _gamma(N) * terms.sum()) + 0.5 * delta * delta
    radius = np.sqrt(2.0 * max(gap, 0.0)) * (1.0 + 4.0 * _U)
    return np.abs(t) - dt > norms * radius


def _certify_en(A, y, p, r, lam1, lam2, x) -> np.ndarray:
    m, N = A.shape
    if not np.any(x):
        return np.zeros(N, dtype=bool)
    absA = np.abs(A)
    resid = A @ x - y
    data = A.T @ resid
    fpow = pnorm.pnorm_pow(x, p)
    coef = (r * lam1 / p) * fpow ** ((r - p) / p)
    pen = coef * pnorm.pnorm_grad(x, p)
    ridge = 2.0 * lam2 * x
    grad = data + pen + ridge
    d_resid = _gamma(N + 1) * (absA @ np.abs(x) + np.abs(y))
    d_grad = (
        absA.T @ d_resid + _gamma(m) * (absA.T @ np.abs(resid))
        + (_gamma(N) * (1.0 + abs(r - p) / p) + 4.0 * _U * (3.0 + abs(np.log(coef)))) * np.abs(pen)
        + _pow_err(pen)
        + 4.0 * _U * (np.abs(data) + np.abs(pen) + np.abs(ridge))
    )
    # 2 lam2-strong convexity: ||x - x*|| <= ||grad P(x)|| / (2 lam2)
    bound = (np.linalg.norm(grad) + np.linalg.norm(d_grad)) / (2.0 * lam2) * (1.0 + _gamma(N))
    return np.abs(x) > bound


def certify_nonzero(inst: ProblemInstance, result: SolveResult) -> np.ndarray:
    """Per-coordinate proof that the exact solution of `inst` is nonzero.

    Returns a boolean mask over the N coordinates.  True at i proves
    x*_i != 0 for the exact minimizer x*; False proves nothing.  The bounds
    follow the paper's identity x*_i = h(a_i^T w*) for an optimal dual w*:

    * bp: for the returned multiplier nu and a radius rho, let
      Q_lo = A diag(gamma_lo) A^T with gamma_lo_i the smallest h' over
      |z| in [(|a_i^T nu| - ||a_i|| rho)_+, |a_i^T nu| + ||a_i|| rho] (h' is
      monotone in |z| on each side of p = 2).  If
      ||A h(A^T nu) - y||_2 < rho * lambda_min(Q_lo), the dual optimum nu*
      lies in the ball B(nu, rho), and i is certified when
      |a_i^T nu| > ||a_i|| rho.  Any p > 1.
    * rr (and the bpdn forms): the rr dual in theta is 1-strongly concave,
      so ||theta - theta*||_2 <= sqrt(2 gap) at theta = y - A x, with the
      duality gap written as a sum of Fenchel-Young gaps.  i is certified
      when |a_i^T theta| > ||a_i|| sqrt(2 gap).  bpdn_eps and bpdn_eta
      solutions solve rr at lam = 1/(2 mu) and lam = mu respectively; for
      them the mask certifies the rr solution at the returned multiplier
      mu, the reduction the paper's bpdn argument makes.  No multiplier or
      mu = 0 certifies nothing.
    * en: the objective is 2 lam2-strongly convex, so
      ||x - x*||_2 <= ||grad P(x)||_2 / (2 lam2), and i is certified when
      |x_i| exceeds that bound.

    Every computed quantity carries a first-order rounding allowance
    relative to its own magnitude (gamma_n = 2(n+2)u for length-n dot
    products, 4u(1 + |log r|) r for a power r), never an absolute floor,
    so the mask does not change when A and y are rescaled.
    """
    A, y = inst.A, inst.y
    N = A.shape[1]
    x = np.asarray(result.x, dtype=float).ravel()
    if x.shape[0] != N:
        raise InvalidInputError("solution dimension does not match the instance")
    none = np.zeros(N, dtype=bool)
    family = inst.family
    if family == "bp":
        if result.multiplier is None:
            return none
        return _certify_bp(A, y, inst.p, np.asarray(result.multiplier, dtype=float).ravel())
    if family == "rr":
        return _certify_rr(A, y, inst.p, inst.lam, x)
    if family in ("bpdn_eps", "bpdn_eta"):
        mu = result.multiplier
        if mu is None or not float(mu) > 0.0:
            return none
        lam = 1.0 / (2.0 * float(mu)) if family == "bpdn_eps" else float(mu)
        return _certify_rr(A, y, inst.p, lam, x)
    if family == "en":
        return _certify_en(A, y, inst.p, inst.r, inst.lam1, inst.lam2, x)
    raise InvalidInputError(f"family {family!r} is not a genericity family {GENERICITY_FAMILIES}")


def certified_full_support(inst: ProblemInstance, result: SolveResult,
                           tol: float = DEFAULT_SUPPORT_TOL) -> bool:
    """True when support(x, tol) is full or every coordinate at or under tol is certified.

    The certificate runs only for a converged result with a coordinate under
    the threshold.
    """
    return _certified(inst, result, support(result.x, tol))


def _certified(inst: ProblemInstance, result: SolveResult, rep: SupportReport) -> bool:
    n = inst.A.shape[1]
    if rep.size == n:
        return True
    if result.status != CONVERGED:
        return False
    below = np.ones(n, dtype=bool)
    below[list(rep.indices)] = False
    return bool(certify_nonzero(inst, result)[below].all())


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    m: int
    N: int
    trials: int
    master_seed: int
    p_grid: tuple = DEFAULT_P_GRID
    support_tol: float = DEFAULT_SUPPORT_TOL
    sparsity: Optional[int] = None
    epsilon_fraction: Optional[float] = None
    eta_fraction: Optional[float] = None
    lam: float = 0.1
    lam1: float = 0.1
    lam2: float = 0.1
    r: float = 1.0
    signal_values: str = "pm_one"

    def __post_init__(self):
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.m < 1 or self.N < 1:
            raise InvalidInputError("m and N must be positive")
        if not (0.0 <= self.support_tol < 1.0):
            raise InvalidInputError("support_tol must lie in [0, 1)")
        for name in ("epsilon_fraction", "eta_fraction"):
            v = getattr(self, name)
            if v is not None and not (0.0 < v < 1.0):
                raise InvalidInputError(f"{name} must lie in (0, 1)")
        if self.sparsity is not None and not (1 <= self.sparsity <= self.N):
            raise InvalidInputError("sparsity must satisfy 1 <= s <= N")


@dataclass
class TrialRecord:
    trial: int
    seed: int
    m: int
    N: int
    p: float
    family: str
    support_size: int
    min_rel_magnitude: float
    kkt_residual: float
    iterations: int
    status: str
    wall_time_ms: float
    full_support: bool = False
    full_support_certified: bool = False  # thresholded support full, or the rest certified
    lower_bound_ok: bool = False
    min_rel_nonzero: float = 0.0  # smallest |x_i|/||x||_inf over exactly nonzero coords
    constraint_target: Optional[float] = None
    constraint_value: Optional[float] = None
    multiplier_value: Optional[float] = None
    recovered: Optional[bool] = None
    error: Optional[str] = None  # "ExceptionType: message" of a status="error" trial


@dataclass
class CellStats:
    family: str
    p: float
    trials_run: int = 0
    full_support_count: int = 0
    full_support_certified_count: int = 0
    min_support_seen: int = 0
    mean_min_rel_magnitude: float = 0.0
    kkt_residual_max: float = 0.0
    failures: int = 0
    recovered_count: Optional[int] = None
    support_le_m_count: Optional[int] = None

    @property
    def full_support_fraction(self) -> float:
        ok = self.trials_run - self.failures
        return self.full_support_count / ok if ok else 0.0

    @property
    def full_support_fraction_certified(self) -> float:
        ok = self.trials_run - self.failures
        return self.full_support_certified_count / ok if ok else 0.0

    @property
    def recovery_fraction(self) -> float:
        ok = self.trials_run - self.failures
        if not ok or self.recovered_count is None:
            return 0.0
        return self.recovered_count / ok


@dataclass
class ExperimentStats:
    cells: list
    trials: list


def _aggregate(cfg: ExperimentConfig, records, recovery: bool) -> ExperimentStats:
    cells = []
    for p in cfg.p_grid:
        rows = [r for r in records if r.p == p]
        ok = [r for r in rows if r.status == CONVERGED]
        cell = CellStats(
            family=cfg.family,
            p=p,
            trials_run=len(rows),
            full_support_count=sum(r.full_support for r in ok),
            full_support_certified_count=sum(r.full_support_certified for r in ok),
            min_support_seen=min((r.support_size for r in ok), default=0),
            mean_min_rel_magnitude=(
                float(np.mean([r.min_rel_magnitude for r in ok])) if ok else 0.0
            ),
            kkt_residual_max=max((r.kkt_residual for r in ok), default=0.0),
            failures=len(rows) - len(ok),
        )
        if recovery:
            cell.recovered_count = sum(bool(r.recovered) for r in ok)
            cell.support_le_m_count = sum(r.support_size <= cfg.m for r in ok)
        cells.append(cell)
    return ExperimentStats(cells=cells, trials=list(records))


def _failure_record(cfg, p, trial, seed, elapsed_ms, exc) -> TrialRecord:
    return TrialRecord(
        trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
        support_size=0, min_rel_magnitude=0.0, kkt_residual=float("inf"),
        iterations=0, status="error", wall_time_ms=elapsed_ms,
        error=f"{type(exc).__name__}: {exc}",
    )


def _spec(cfg: ExperimentConfig, seed: int) -> EnsembleSpec:
    return EnsembleSpec(m=cfg.m, N=cfg.N, seed=seed,
                        sparsity=cfg.sparsity, signal_values=cfg.signal_values)


def _draw(cfg: ExperimentConfig, p: float, seed: int):
    """One genericity trial's instance and its constraint target (bpdn_eps).

    A bpdn_eta trial's target needs its bp solution; _eta_targets sets it.
    """
    spec = _spec(cfg, seed)
    if cfg.sparsity is not None:
        A, y, _, _ = gen_sparse_measured(spec)
    else:
        A, y = gen_gaussian_instance(spec)
    if cfg.family == "bp":
        return ProblemInstance(A, y, "bp", p=p), None
    if cfg.family == "rr":
        return ProblemInstance(A, y, "rr", p=p, lam=cfg.lam), None
    if cfg.family == "en":
        return ProblemInstance(A, y, "en", p=p, r=cfg.r, lam1=cfg.lam1, lam2=cfg.lam2), None
    if cfg.family == "bpdn_eps":
        target = (cfg.epsilon_fraction or DEFAULT_EPSILON_FRACTION) * float(np.linalg.norm(y))
        return ProblemInstance(A, y, "bpdn_eps", p=p, eps=target), target
    if cfg.family == "bpdn_eta":
        return ProblemInstance(A, y, "bpdn_eta", p=p), None
    raise InvalidInputError(
        f"family {cfg.family!r} is not a genericity family {GENERICITY_FAMILIES}"
    )


def _solve_chunk(family, p, insts, solver_cfg, **params):
    """(entry of one solve_stack call, ms share) for each instance; an exception
    in place of an instance passes through with no time.

    Each instance is charged an equal share of the call.  The bpdn forms
    read each instance's own eps or eta.
    """
    out = [(inst, 0.0) for inst in insts]
    ok = [k for k, inst in enumerate(insts) if not isinstance(inst, Exception)]
    if not ok:
        return out
    if family in ("bpdn_eps", "bpdn_eta"):
        params = {family[5:]: [getattr(insts[k], family[5:]) for k in ok]}
    start = time.perf_counter()
    results = solvers.solve_stack(family, np.array([insts[k].A for k in ok]),
                                  np.array([insts[k].y for k in ok]), p, solver_cfg, **params)
    share = (time.perf_counter() - start) * 1e3 / len(ok)
    for k, res in zip(ok, results):
        out[k] = (res, share)
    return out


def _eta_targets(cfg: ExperimentConfig, p: float, drawn: list, solver_cfg: SolverConfig) -> list:
    """Set each drawn bpdn_eta trial's eta to eta_fraction ||x_bp||_p, from one bp stack.

    A trial whose bp solve raises carries that exception in place of its
    instance.  Each trial's draw time gains an equal share of the bp solve.
    """
    out = []
    for (trial, seed, inst, _, ms), (bp, share) in zip(
            drawn, _solve_chunk("bp", p, [d[2] for d in drawn], solver_cfg)):
        if isinstance(bp, Exception):  # the bp solve's, or the draw's
            out.append((trial, seed, bp, None, ms + share))
            continue
        inst.eta = (cfg.eta_fraction or DEFAULT_ETA_FRACTION) * pnorm.pnorm(bp.x, p)
        out.append((trial, seed, inst, inst.eta, ms + share))
    return out


def _genericity_record(cfg, p, trial, seed, inst, res, target) -> TrialRecord:
    kkt = kkt_residual(inst, res)
    rel = _relative(res.x)
    rep = _support(rel, cfg.support_tol)
    nonzero = rel[rel > 0.0]
    constraint_value = None
    multiplier_value = None
    if cfg.family in ("bpdn_eps", "bpdn_eta"):
        if cfg.family == "bpdn_eps":
            constraint_value = float(np.linalg.norm(inst.A @ res.x - inst.y))
        else:
            constraint_value = pnorm.pnorm(res.x, p)
        multiplier_value = float(res.multiplier) if res.multiplier is not None else None
    return TrialRecord(
        trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
        support_size=rep.size, min_rel_magnitude=rep.min_rel_magnitude,
        kkt_residual=kkt, iterations=res.iterations, status=res.status,
        wall_time_ms=0.0,
        full_support=rep.size == cfg.N,
        full_support_certified=_certified(inst, res, rep),
        lower_bound_ok=check_lower_bound(rep, cfg.m, cfg.N),
        min_rel_nonzero=float(nonzero.min()) if nonzero.size else 0.0,
        constraint_target=target, constraint_value=constraint_value,
        multiplier_value=multiplier_value,
    )


def _genericity_chunk(cfg: ExperimentConfig, p_index: int, lo: int, hi: int) -> list:
    """Trials lo..hi-1 at p_grid[p_index]: draw each, solve them together, measure each.

    A trial whose draw, solve or measurement raises gets a status="error"
    record that keeps the exception; the other trials are unaffected.
    wall_time_ms is a trial's own draw and measurement time plus its share
    of the stacked solve (and, for bpdn_eta, of the bp solve that sets the
    targets).
    """
    p = cfg.p_grid[p_index]
    solver_cfg = SolverConfig()
    drawn = []
    for trial in range(lo, hi):
        seed = derive_seed(cfg.master_seed, p_index, trial)
        start = time.perf_counter()
        try:
            inst, target = _draw(cfg, p, seed)
        except InvalidInputError:
            raise
        except Exception as exc:
            inst, target = exc, None
        drawn.append((trial, seed, inst, target, (time.perf_counter() - start) * 1e3))
    if cfg.family == "bpdn_eta":
        drawn = _eta_targets(cfg, p, drawn, solver_cfg)
    params = {"rr": {"lam": cfg.lam},
              "en": {"r": cfg.r, "lam1": cfg.lam1, "lam2": cfg.lam2}}.get(cfg.family, {})
    solved = _solve_chunk(cfg.family, p, [d[2] for d in drawn], solver_cfg, **params)
    records = []
    for (trial, seed, inst, target, draw_ms), (res, solve_ms) in zip(drawn, solved):
        start = time.perf_counter()
        try:
            if isinstance(res, Exception):
                raise res
            rec = _genericity_record(cfg, p, trial, seed, inst, res, target)
        except InvalidInputError:
            raise
        except Exception as exc:
            rec = _failure_record(cfg, p, trial, seed, 0.0, exc)
        rec.wall_time_ms = draw_ms + solve_ms + (time.perf_counter() - start) * 1e3
        records.append(rec)
    return records


def _recovery_trial(cfg: ExperimentConfig, p_index: int, trial: int) -> TrialRecord:
    p = cfg.p_grid[p_index]
    seed = derive_seed(cfg.master_seed, p_index, trial)
    start = time.perf_counter()
    try:
        A, y, x0, _ = gen_sparse_measured(_spec(cfg, seed))
        if cfg.family == "bp_l1":
            inst = ProblemInstance(A, y, "bp_l1")
        elif cfg.family == "rr_irls":
            inst = ProblemInstance(A, y, "rr_irls", p=p, lam=cfg.lam)
        else:
            raise InvalidInputError(
                f"family {cfg.family!r} is not a recovery family {RECOVERY_FAMILIES}"
            )
        res = solve_instance(inst, SolverConfig())
        kkt = kkt_residual(inst, res)
    except InvalidInputError:
        raise
    except Exception as exc:
        return _failure_record(cfg, p, trial, seed, (time.perf_counter() - start) * 1e3, exc)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    rep = support(res.x, cfg.support_tol)
    recovered = bool(np.abs(res.x - x0).max() <= RECOVERY_TOL)
    return TrialRecord(
        trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
        support_size=rep.size, min_rel_magnitude=rep.min_rel_magnitude,
        kkt_residual=kkt, iterations=res.iterations, status=res.status,
        wall_time_ms=elapsed_ms,
        full_support=rep.size == cfg.N,
        lower_bound_ok=check_lower_bound(rep, cfg.m, cfg.N),
        recovered=recovered,
    )


def _recovery_chunk(cfg: ExperimentConfig, p_index: int, lo: int, hi: int) -> list:
    return [_recovery_trial(cfg, p_index, trial) for trial in range(lo, hi)]


def _run_trials(chunk_fn, cfg: ExperimentConfig, workers: int):
    """Records of every (p_index, trial), in that order.

    Tasks are chunks of at most CHUNK trials at one p, the same for every
    worker count, so the records are too; the pool gets one task per chunk.
    """
    chunks = [(p_index, lo, min(lo + CHUNK, cfg.trials))
              for p_index in range(len(cfg.p_grid))
              for lo in range(0, cfg.trials, CHUNK)]
    if workers <= 1:
        return [rec for c in chunks for rec in chunk_fn(cfg, *c)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk_fn, cfg, *c) for c in chunks]
        return [rec for f in futures for rec in f.result()]


def run_genericity_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Solve `trials` Gaussian (or sparse-measured) instances per p and aggregate.

    Requires p > 1 throughout the grid and, for the bp family, N >= 2m - 1;
    the other families need N >= m.  Solver failures are recorded in the
    failures count and never abort the run.
    """
    if cfg.family not in GENERICITY_FAMILIES:
        raise InvalidInputError(f"unknown genericity family {cfg.family!r}")
    if any(p <= 1.0 for p in cfg.p_grid):
        raise InvalidInputError("genericity experiments require p > 1 across the grid")
    if cfg.family == "bp" and cfg.N < 2 * cfg.m - 1:
        raise InvalidInputError("bp genericity requires N >= 2m - 1")
    if cfg.N < cfg.m:
        raise InvalidInputError("experiments require N >= m")
    records = _run_trials(_genericity_chunk, cfg, workers)
    return _aggregate(cfg, records, recovery=False)


def run_recovery_comparison(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Sparse-recovery comparison runs for the p <= 1 solvers.

    For bp_l1, counts exact recoveries (max-norm error <= 1e-6) of the
    planted s-sparse signal; for rr_irls, the aggregate also counts trials
    whose support stays within m.
    """
    if cfg.family not in RECOVERY_FAMILIES:
        raise InvalidInputError(f"unknown recovery family {cfg.family!r}")
    if cfg.sparsity is None:
        raise InvalidInputError("recovery experiments need sparsity set")
    if cfg.family == "rr_irls" and any(not (0.0 < p < 1.0) for p in cfg.p_grid):
        raise InvalidInputError("rr_irls recovery requires 0 < p < 1 across the grid")
    records = _run_trials(_recovery_chunk, cfg, workers)
    return _aggregate(cfg, records, recovery=True)


def perturbation_robustness(A, s: int, trials: int, delta_grid: Sequence[float],
                            seed: int) -> list:
    """Recovery fraction of the l1 solver when the model matrix is perturbed.

    Trial signals are measured with the baseline A (y = A x0) while
    reconstruction runs against A + delta * E, with E Gaussian scaled to
    unit spectral norm (one E per delta).  Trial signals are independent of
    delta, so delta = 0 reproduces the baseline fractions exactly; tiny
    deltas probe the openness of the recovery set, huge ones destroy it.
    Returns one dict per delta.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if not (1 <= s <= n):
        raise InvalidInputError("sparsity must satisfy 1 <= s <= N")
    rows = []
    for d_index, delta in enumerate(delta_grid):
        if delta:
            E = rng_for(seed, 0, d_index).standard_normal((m, n))
            E /= np.linalg.norm(E, 2)
            A_pert = A + float(delta) * E
        else:
            A_pert = A
        recovered = 0
        failures = 0
        for trial in range(trials):
            rng = rng_for(seed, 1, trial)  # independent of delta: same signals
            sup = rng.choice(n, size=s, replace=False)
            x0 = np.zeros(n)
            x0[sup] = rng.integers(0, 2, size=s) * 2.0 - 1.0
            y = A @ x0
            try:
                res = solve_bp_l1(A_pert, y)
            except Exception:
                failures += 1
                continue
            if np.abs(res.x - x0).max() <= RECOVERY_TOL:
                recovered += 1
        rows.append({
            "delta": float(delta),
            "trials": trials,
            "failures": failures,
            "recovered": recovered,
            "recovery_fraction": recovered / trials if trials else 0.0,
        })
    return rows


def check_dual_jacobian_spd(A, y, p, result: SolveResult) -> float:
    """Smallest eigenvalue of Q = A diag(h'(a_i^T nu)) A^T at a bp solution.

    Requires 1 < p <= 2 and the bp multiplier nu; on generic instances the
    value is strictly positive.
    """
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise InvalidInputError(f"dual Jacobian check requires 1 < p <= 2, got p={p}")
    if result.multiplier is None:
        raise InvalidInputError("dual Jacobian check requires the bp multiplier nu")
    A = np.asarray(A, dtype=float)
    nu = np.asarray(result.multiplier, dtype=float).ravel()
    if nu.shape[0] != A.shape[0]:
        raise InvalidInputError("multiplier dimension does not match A")
    gamma = pnorm.h_prime(A.T @ nu, p)
    Q = (A * gamma) @ A.T
    return float(np.linalg.eigvalsh(Q).min())
