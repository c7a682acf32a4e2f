"""Support measurement and Monte-Carlo genericity/recovery experiments.

The experiments realize the almost-everywhere statements empirically: draw
Gaussian instances, solve, measure supports, and aggregate.  Full-support
statements are fractions over converged trials.  Each trial is measured
twice: by a relative threshold on the computed x, and by a certificate
(`certify_nonzero`) that proves, from the optimality system and with
rounding allowances, which coordinates of the exact solution are nonzero:
a dual ball for bp, and for rr, en and the bpdn forms the rr duality gap
of the rr instance each of them solves.
A certified full support is a proof about the exact solution of that one
instance; the fraction over instances stays an empirical estimate of the
almost-everywhere statement.  Per-trial random streams derive from
(master_seed, p_index, trial_index), so results are bit-identical across
runs and worker counts.
"""

from __future__ import annotations

import numbers
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import pnorm, solvers
from .ensembles import (  # EnsembleSpec, derive_seed and the gen_* stay importable here for callers
    SIGNAL_VALUES,
    EnsembleSpec,
    derive_seed,
    derive_seeds,
    draw_instance,
    gen_gaussian_instance,
    gen_sparse_measured,
    philox_keys,
    rekey,
    rng_for,
)
from .errors import InvalidInputError
from .solvers import (  # kkt_residual and solve_bp stay importable here for callers that wrap them
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
    "check_experiment",
    "perturbation_robustness",
    "check_dual_jacobian_spd",
    "GENERICITY_FAMILIES",
    "RECOVERY_FAMILIES",
]

GENERICITY_FAMILIES = tuple(f for f, fam in solvers.FAMILIES.items() if fam.stack)  # p > 1
RECOVERY_FAMILIES = tuple(f for f, fam in solvers.FAMILIES.items() if not fam.stack)

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
    above, size, magnitude = _measure_one(x, tol)
    return SupportReport(tuple(np.flatnonzero(above).tolist()), size, magnitude, tol)


def _measure(X: np.ndarray, tol: float):
    """Each row x of X (B, N) at a relative threshold, as arrays over the rows:
    (above, size, min_rel_magnitude, min_rel_nonzero).

    With rel = |x| / ||x||_inf (rel = |x| where ||x||_inf is 0 or NaN; an inf
    entry makes its own rel NaN), above is rel > tol, size counts it,
    min_rel_magnitude is the smallest rel over above and min_rel_nonzero the
    smallest over rel > 0, each 0 where its set is empty.
    """
    a = np.abs(X)
    amax = a.max(axis=1, keepdims=True, initial=0.0)
    with np.errstate(invalid="ignore"):  # inf / inf
        rel = np.divide(a, amax, out=a, where=amax > 0.0)
    above = rel > tol
    nonzero = rel > 0.0
    size = above.sum(axis=1)
    magnitude = np.where(above, rel, np.inf).min(axis=1)
    smallest = np.where(nonzero, rel, np.inf).min(axis=1)
    magnitude[size == 0] = 0.0
    smallest[~nonzero.any(axis=1)] = 0.0
    return above, size, magnitude, smallest


def _measure_one(x, tol: float):
    """(above, size, min_rel_magnitude) of _measure for the one vector x, tol checked."""
    if not (0.0 <= tol < 1.0):
        raise InvalidInputError(f"support tol must lie in [0, 1), got {tol}")
    above, size, magnitude, _ = _measure(np.asarray(x, dtype=float).reshape(1, -1), tol)
    return above[0], int(size[0]), float(magnitude[0])


def check_lower_bound(report: SupportReport, m: int, N: int) -> bool:
    """True iff the support size meets the generic lower bound N - m + 1."""
    return report.size >= N - m + 1


# ---------------------------------------------------------------------------
# certified support: proving coordinates of the exact solution nonzero
# ---------------------------------------------------------------------------

_U, _gamma = pnorm._U, pnorm._gamma  # unit roundoff and dot-product allowance


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


def _rr_form(family, A, y, x, args, mu):
    """(A, y, lam) of the rr instance that a smooth family's solution x solves
    (certify_nonzero); lam = 0 where the multiplier mu proves nothing."""
    if family == "rr":
        return A, y, args["lam"]
    if family == "en":
        As, ys = solvers._augmented(A[None], y[None], args["lam2"])
        coef = solvers._coef(x[None], args["p"], args["lam1"], args["r"])
        return As[0], ys[0], float(np.ravel(coef)[0])
    if mu is None or not float(mu) > 0.0:
        return A, y, 0.0
    return A, y, 1.0 / (2.0 * float(mu)) if family == "bpdn_eps" else float(mu)


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
    * rr, en and the bpdn forms, each as the rr instance (A, y, lam) its
      solution solves: the rr dual in theta is 1-strongly concave, so
      ||theta - theta*||_2 <= sqrt(2 gap) at theta = y - A x, with the
      duality gap written as a sum of Fenchel-Young gaps, and i is
      certified when |a_i^T theta| > ||a_i|| sqrt(2 gap).
      - rr: (A, y, lam).
      - bpdn_eps and bpdn_eta: (A, y, 1/(2 mu)) and (A, y, mu) at the
        returned multiplier mu, the reduction the paper's bpdn argument
        makes.
      - en: (A*, y*, (r lam1 / p) ||x||_p^(r-p)) with A* = [A; sqrt(2 lam2) I]
        and y* = [y; 0] (Zou & Hastie, J. R. Stat. Soc. B 2005, Lemma 1);
        the lam is lam1 at r = p.  For r != p the mask certifies the en
        instance whose lam1 makes the rr solution at that lam optimal.
        That lam1 agrees with the given one to rounding, and so does the
        lam2 that the rounded sqrt(2 lam2) encodes.
      No multiplier, mu = 0, lam = 0 or x = 0 certifies nothing.  A
      bpdn_eta row reduced to bp (eta at or above ||x_bp||_p) has mu = 0:
      every x with A x = y and ||x||_p <= eta is then a minimizer, so no
      coordinate is proven nonzero.

    Every computed quantity carries a first-order rounding allowance
    relative to its own magnitude (gamma_n = 2(n+2)u for length-n dot
    products, 4u(1 + |log r|) r for a power r), never an absolute floor,
    so the mask does not change when A and y are rescaled.  An instance no
    solver accepts raises InvalidInputError, as in kkt_residual.
    """
    family = inst.family
    if family not in GENERICITY_FAMILIES:
        raise InvalidInputError(f"family {family!r} is not a genericity family {GENERICITY_FAMILIES}")
    _, args = solvers._checked(family, vars(inst))
    A, y, p = inst.A, inst.y, args["p"]
    N = A.shape[1]
    x = np.asarray(result.x, dtype=float).ravel()
    if x.shape[0] != N:
        raise InvalidInputError("solution dimension does not match the instance")
    if family == "bp":
        if result.multiplier is None:
            return np.zeros(N, dtype=bool)
        return _certify_bp(A, y, p, np.asarray(result.multiplier, dtype=float).ravel())
    A, y, lam = _rr_form(family, A, y, x, args, result.multiplier)
    if not (lam > 0.0 and x.any()):
        return np.zeros(N, dtype=bool)
    return _certify_rr(A, y, p, lam, x)


def certified_full_support(inst: ProblemInstance, result: SolveResult,
                           tol: float = DEFAULT_SUPPORT_TOL) -> bool:
    """True when support(x, tol) is full or every coordinate at or under tol is certified.

    The certificate runs only for a converged result with a coordinate under
    the threshold.
    """
    above, size, _ = _measure_one(result.x, tol)
    return _certified(inst, result, above, size)


def _certified(inst: ProblemInstance, result: SolveResult, above: np.ndarray, size: int) -> bool:
    """certified_full_support, given the mask of coordinates over the threshold
    and its count."""
    if size == above.shape[0]:
        return True
    if result.status != CONVERGED:
        return False
    return bool(certify_nonzero(inst, result)[~above].all())


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


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
        for name in ("m", "N", "trials", "master_seed", "sparsity"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (
                    isinstance(v, (int, np.integer)) or name == "sparsity" and v is None):
                raise InvalidInputError(f"{name} must be an integer, got {v!r}")
        if not (isinstance(self.p_grid, (tuple, list, np.ndarray)) and all(map(_real, self.p_grid))):
            raise InvalidInputError(f"p_grid must hold numbers, got {self.p_grid!r}")
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        if not 0 <= self.master_seed < 2 ** 64:
            raise InvalidInputError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.m < 1 or self.N < 1:
            raise InvalidInputError("m and N must be positive")
        if not (_real(self.support_tol) and 0.0 <= self.support_tol < 1.0):
            raise InvalidInputError(f"support_tol must lie in [0, 1), got {self.support_tol!r}")
        for name in ("epsilon_fraction", "eta_fraction"):
            v = getattr(self, name)
            if v is not None and not (_real(v) and 0.0 < v < 1.0):
                raise InvalidInputError(f"{name} must lie in (0, 1), got {v!r}")
        if self.sparsity is not None and not (1 <= self.sparsity <= self.N):
            raise InvalidInputError("sparsity must satisfy 1 <= s <= N")
        if self.signal_values not in SIGNAL_VALUES:
            raise InvalidInputError(f"unsupported signal_values {self.signal_values!r}")


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


def _aggregate(cfg: ExperimentConfig, records) -> ExperimentStats:
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
        if cfg.family in RECOVERY_FAMILIES:
            cell.recovered_count = sum(bool(r.recovered) for r in ok)
            cell.support_le_m_count = sum(r.support_size <= cfg.m for r in ok)
        cells.append(cell)
    return ExperimentStats(cells=cells, trials=list(records))


def _failure_record(cfg, p, trial, seed, exc) -> TrialRecord:
    return TrialRecord(
        trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
        support_size=0, min_rel_magnitude=0.0, kkt_residual=float("inf"),
        iterations=0, status="error", wall_time_ms=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _params(cfg: ExperimentConfig, p: float) -> dict:
    """A trial instance's p and the parameters its family takes, as cfg holds
    them (cfg holds no bpdn bound: each trial sets its own eps or eta)."""
    return dict(p=p, **{k: getattr(cfg, k, None) for k in solvers.FAMILIES[cfg.family].params})


def _draw(cfg: ExperimentConfig, params: dict, rng: np.random.Generator):
    """One trial's instance and planted signal (None for a Gaussian draw), from
    the trial's generator.

    A bpdn_eps trial's eps is a fraction of ||y||_2.  A bpdn_eta trial's eta
    needs its bp solution; _eta_targets sets it.
    """
    A, y, x0, _ = draw_instance(rng, cfg.m, cfg.N, cfg.sparsity, cfg.signal_values)
    inst = ProblemInstance(A, y, cfg.family, **params)
    if cfg.family == "bpdn_eps":
        inst.eps = (cfg.epsilon_fraction or DEFAULT_EPSILON_FRACTION) * float(np.linalg.norm(y))
    return inst, x0


def _solve_chunk(family, p, insts, solver_cfg):
    """(SolveResult or the exception its solve raised, ms) for each instance; an
    exception in place of an instance passes through with no time.

    A family with no stack solver (bp_l1, rr_irls) is solved one instance at
    a time, each charged its own time.  The others are solved in one
    solve_stack call, each instance charged an equal share; the parameters
    are those the family table names, read from the instances: one value per
    instance where solve_stack takes that (the bpdn bounds), else the first's.
    """
    out = [(inst, 0.0) for inst in insts]
    ok = [k for k, inst in enumerate(insts) if not isinstance(inst, Exception)]
    if not ok:
        return out
    fam = solvers.FAMILIES[family]
    if fam.stack is None:
        for k in ok:
            start = time.perf_counter()
            try:
                res = solve_instance(insts[k], solver_cfg)
            except Exception as exc:
                res = exc
            out[k] = (res, (time.perf_counter() - start) * 1e3)
        return out
    params = {name: [getattr(insts[k], name) for k in ok] if fam.per_row
              else getattr(insts[ok[0]], name) for name in fam.params}
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
    for (trial, seed, inst, x0, ms), (bp, share) in zip(
            drawn, _solve_chunk("bp", p, [d[2] for d in drawn], solver_cfg)):
        if not isinstance(bp, Exception):  # else the bp solve's exception, or the draw's
            inst.eta = (cfg.eta_fraction or DEFAULT_ETA_FRACTION) * pnorm.pnorm(bp.x, p)
            bp = inst
        out.append((trial, seed, bp, x0, ms + share))
    return out


def _record(cfg, p, trial, seed, inst, x0, res, above, size, magnitude, smallest) -> TrialRecord:
    """A solved trial's record from its row of the chunk's _measure: for a
    recovery family whether it recovered the planted x0, else its certified
    support and any bpdn constraint."""
    rec = TrialRecord(
        trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
        support_size=size, min_rel_magnitude=magnitude,
        kkt_residual=res.kkt_residual, iterations=res.iterations, status=res.status,
        wall_time_ms=0.0, full_support=size == cfg.N, min_rel_nonzero=smallest,
    )
    if cfg.family in RECOVERY_FAMILIES:
        rec.recovered = bool(np.abs(res.x - x0).max() <= RECOVERY_TOL)
        return rec
    rec.full_support_certified = _certified(inst, res, above, size)
    if cfg.family == "bpdn_eps":
        rec.constraint_target = inst.eps
        rec.constraint_value = float(np.linalg.norm(inst.A @ res.x - inst.y))
    elif cfg.family == "bpdn_eta":
        rec.constraint_target, rec.constraint_value = inst.eta, pnorm.pnorm(res.x, p)
    if rec.constraint_target is not None and res.multiplier is not None:
        rec.multiplier_value = float(res.multiplier)
    return rec


def _chunk(cfg: ExperimentConfig, p_index: int, lo: int, hi: int) -> list:
    """Trials lo..hi-1 at p_grid[p_index]: seed all, draw each, solve them, measure all.

    The trials' seeds and Philox keys are hashed in one pass (derive_seeds,
    philox_keys) and each trial draws from one re-keyed generator, exactly
    what rng_for(derive_seed(master_seed, p_index, trial)) draws.  The
    solutions are measured as one array (_measure).  A trial whose draw,
    solve or record raises gets a status="error" record that keeps the
    exception; the other trials are unaffected.  wall_time_ms is a trial's
    own draw and record time, plus an equal share of the chunk's seed
    hashing and measurement, plus its solve time as _solve_chunk charges it
    (and, for bpdn_eta, its share of the bp solve that sets the targets).
    """
    p = cfg.p_grid[p_index]
    params = _params(cfg, p)
    solver_cfg = SolverConfig()
    n = hi - lo
    start = time.perf_counter()
    seeds = derive_seeds(cfg.master_seed, p_index, np.arange(lo, hi))
    keys = philox_keys(seeds)
    rng = np.random.Generator(np.random.Philox(key=keys[0]))
    shared_ms = (time.perf_counter() - start) * 1e3 / n
    drawn = []
    for trial, seed, key in zip(range(lo, hi), seeds.tolist(), keys):
        start = time.perf_counter()
        try:
            inst, x0 = _draw(cfg, params, rekey(rng, key))
        except InvalidInputError:
            raise
        except Exception as exc:
            inst, x0 = exc, None
        drawn.append((trial, seed, inst, x0, (time.perf_counter() - start) * 1e3))
    if cfg.family == "bpdn_eta":
        drawn = _eta_targets(cfg, p, drawn, solver_cfg)
    solved = _solve_chunk(cfg.family, p, [d[2] for d in drawn], solver_cfg)
    start = time.perf_counter()
    X = np.zeros((n, cfg.N))
    for k, (res, _) in enumerate(solved):
        if not isinstance(res, Exception):
            X[k] = res.x
    above, *columns = _measure(X, cfg.support_tol)
    rows = zip(above, *(c.tolist() for c in columns))
    shared_ms += (time.perf_counter() - start) * 1e3 / n
    records = []
    for (trial, seed, inst, x0, draw_ms), (res, solve_ms), row in zip(drawn, solved, rows):
        start = time.perf_counter()
        try:
            if isinstance(res, Exception):
                raise res
            rec = _record(cfg, p, trial, seed, inst, x0, res, *row)
        except InvalidInputError:
            raise
        except Exception as exc:
            rec = _failure_record(cfg, p, trial, seed, exc)
        rec.wall_time_ms = shared_ms + draw_ms + solve_ms + (time.perf_counter() - start) * 1e3
        records.append(rec)
    return records


_pool = None  # the process pool _run_trials reuses across calls
_pool_lock = threading.Lock()  # held by the call using _pool, so threads take turns


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The module's pool with `workers` workers, made at first use.

    It is replaced, the old one shut down first, when the worker count
    changes, when it is broken, or when its type is no longer exactly
    ProcessPoolExecutor as this module names it now (so that a patched
    name takes effect).  The exit hook of concurrent.futures joins it.
    _max_workers and _broken are the executor's own attributes.
    """
    global _pool
    if (_pool is None or _pool._max_workers != workers or _pool._broken
            or type(_pool) is not ProcessPoolExecutor):
        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
    return _pool


def _drop_pool():
    global _pool
    if _pool is not None:
        _pool.shutdown()
    _pool = None


def _run_trials(chunk_fn, cfg: ExperimentConfig, workers: int):
    """Records of every (p_index, trial), in that order.

    Tasks are chunks of at most CHUNK trials at one p, the same for every
    worker count, so the records are too; the pool gets one task per chunk.
    With workers > 1 they run in the module's one pool (_shared_pool),
    whose workers are forked with the module state of the moment the pool
    was created: a later change to a module's globals does not reach them.
    Calls from several threads take turns with it.  If collecting the
    results raises, the call's pending chunks are cancelled, and a broken
    pool is dropped.
    """
    chunks = [(p_index, lo, min(lo + CHUNK, cfg.trials))
              for p_index in range(len(cfg.p_grid))
              for lo in range(0, cfg.trials, CHUNK)]
    if workers <= 1:
        return [rec for c in chunks for rec in chunk_fn(cfg, *c)]
    with _pool_lock:
        pool = _shared_pool(workers)
        futures = []
        try:
            for c in chunks:
                futures.append(pool.submit(chunk_fn, cfg, *c))
            return [rec for f in futures for rec in f.result()]
        except BaseException as exc:
            for f in futures:
                f.cancel()
            if isinstance(exc, BrokenProcessPool):
                _drop_pool()
            raise


def check_experiment(cfg: ExperimentConfig, kind: str) -> None:
    """Raise InvalidInputError naming each field of cfg that breaks a rule of a
    `kind` ("genericity" or "recovery") experiment."""
    families = GENERICITY_FAMILIES if kind == "genericity" else RECOVERY_FAMILIES
    if cfg.family not in families:
        raise InvalidInputError(f"field 'family': unknown {kind} family {cfg.family!r}")
    bp = kind == "genericity" and cfg.family == "bp"
    rules = [("p_grid", kind == "genericity" and any(p <= 1.0 for p in cfg.p_grid),
              "genericity experiments require p > 1 across the grid"),
             ("sparsity", kind == "recovery" and cfg.sparsity is None,
              "recovery experiments need sparsity set"),
             ("p_grid", cfg.family == "rr_irls" and any(not 0.0 < p < 1.0 for p in cfg.p_grid),
              "rr_irls recovery requires 0 < p < 1 across the grid"),
             ("N", cfg.N < (2 * cfg.m - 1 if bp else cfg.m),
              "bp genericity requires N >= 2m - 1" if bp else "experiments require N >= m")]
    problems = [f"field {key!r}: {message}" for key, broken, message in rules if broken]
    if problems:
        raise InvalidInputError("; ".join(problems))


def run_genericity_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Solve `trials` Gaussian (or sparse-measured) instances per p and aggregate
    (cfg must pass check_experiment); solver failures never abort the run."""
    check_experiment(cfg, "genericity")
    return _aggregate(cfg, _run_trials(_chunk, cfg, workers))


def run_recovery_comparison(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Sparse-recovery comparison runs for the p <= 1 solvers.

    For bp_l1, counts exact recoveries (max-norm error <= 1e-6) of the
    planted s-sparse signal; for rr_irls, the aggregate also counts trials
    whose support stays within m.  The config must pass check_experiment.
    """
    check_experiment(cfg, "recovery")
    return _aggregate(cfg, _run_trials(_chunk, cfg, workers))


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
