"""Checks of solver outputs, computed apart from the program.

Every formula here is the benchmark's own numpy code: no function of `lps`
is called.  Each check returns a list of problems; an empty list means the
output passed.  Residuals are measured relative to the magnitudes of the
terms they are made of, so a check reads the same on (A, y) and on
(cA, cy).
"""

from __future__ import annotations

import csv
import io

import numpy as np

KKT_RTOL = 1e-7          # relative first-order residual
FEAS_RTOL = 1e-8         # relative feasibility |Ax - y| / |y|
CLOSED_FORM_RTOL = 1e-8  # p = 2 closed forms
CONSTRAINT_RTOL = 1e-6   # bpdn constraint match
OBJECTIVE_RTOL = 1e-6    # objective against scipy.optimize
CERTIFIED_MIN = 0.99     # certified full-support fraction per cell


def gaussian_instance(seed: int, m: int, N: int):
    """(A, y) as the program's Gaussian ensemble draws them from one seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed)])))
    A = rng.standard_normal((m, N))
    return A, rng.standard_normal(m)


def support_size(x, tol=1e-6) -> int:
    """Coordinates above tol * max |x_i|, the harness's thresholded support."""
    x = np.abs(np.asarray(x, dtype=float))
    top = x.max(initial=0.0)
    return int(np.count_nonzero(x > tol * top)) if top > 0.0 else 0


def g(x, p):
    """Gradient of sum |x_i|^p."""
    return p * np.sign(x) * np.abs(x) ** (p - 1.0)


def pnorm(x, p):
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _rel(num, den):
    den = float(den)
    return float(num) / den if den > 0.0 else (0.0 if num == 0.0 else np.inf)


def _station(name, A, x, y, mu, others):
    """Problem when mu A^T (Ax - y) + sum(others) is not small.

    The size it is measured against is that of its parts before they cancel:
    mu |A^T A x| + mu |A^T y| + sum |other|.
    """
    total = mu * (A.T @ (A @ x - y)) + sum(others)
    size = mu * (np.linalg.norm(A.T @ (A @ x)) + np.linalg.norm(A.T @ y))
    size += sum(np.linalg.norm(t) for t in others)
    rel = _rel(np.linalg.norm(total), size)
    return [] if rel <= KKT_RTOL else [f"{name} stationarity {rel:.2e} > {KKT_RTOL:g}"]


def _feasible(A, y, x):
    rel = _rel(np.linalg.norm(A @ x - y), np.linalg.norm(y))
    return [] if rel <= FEAS_RTOL else [f"feasibility |Ax-y|/|y| {rel:.2e} > {FEAS_RTOL:g}"]


def _nu_fit(A, grad):
    """Least-squares multiplier for grad = A^T nu; returns the misfit."""
    nu = np.linalg.lstsq(A.T, grad, rcond=None)[0]
    return grad - A.T @ nu


def bp(A, y, x, mu, p):
    out = _feasible(A, y, x)
    grad = g(x, p)
    rel = _rel(np.linalg.norm(_nu_fit(A, grad)), np.linalg.norm(grad))
    if rel > KKT_RTOL:
        out.append(f"bp stationarity {rel:.2e} > {KKT_RTOL:g}")
    if p == 2.0:
        out += _closed_form(x, A.T @ np.linalg.solve(A @ A.T, y), "least-norm")
    return out


def rr(A, y, x, mu, p, lam):
    out = _station("rr", A, x, y, 1.0, [lam * g(x, p)])
    if p == 2.0:
        N = A.shape[1]
        out += _closed_form(x, np.linalg.solve(A.T @ A + 2.0 * lam * np.eye(N), A.T @ y), "ridge")
    return out


def en(A, y, x, mu, p, r, lam1, lam2):
    norm_p = pnorm(x, p)
    if norm_p == 0.0:
        return ["en returned x = 0"] if np.linalg.norm(A.T @ y, p / (p - 1.0)) > lam1 else []
    pen = (r * lam1 / p) * norm_p ** (r - p) * g(x, p)
    return _station("en", A, x, y, 1.0, [pen, 2.0 * lam2 * x])


def bpdn_eps(A, y, x, mu, p, eps):
    out = _multiplier(mu)
    resid = A @ x - y
    match = abs(np.linalg.norm(resid) - eps) / eps
    if match > CONSTRAINT_RTOL:
        out.append(f"constraint match {match:.2e} > {CONSTRAINT_RTOL:g}")
    if not out:
        out += _station("bpdn_eps", A, x, y, 2.0 * mu, [g(x, p)])
    return out


def bpdn_eta(A, y, x, mu, p, eta):
    out = _multiplier(mu)
    match = abs(pnorm(x, p) - eta) / eta
    if match > CONSTRAINT_RTOL:
        out.append(f"constraint match {match:.2e} > {CONSTRAINT_RTOL:g}")
    if not out:
        out += _station("bpdn_eta", A, x, y, 1.0, [mu * g(x, p)])
    return out


def bp_l1(A, y, x, mu, x0):
    """Ax = y and |x|_1 <= |x0|_1 for the planted signal x0."""
    out = _feasible(A, y, x)
    excess = np.abs(x).sum() - np.abs(x0).sum()
    if excess > FEAS_RTOL * np.abs(x0).sum():
        out.append(f"|x|_1 exceeds |x0|_1 by {excess:.2e}")
    return out


def rr_irls(A, y, x, mu, p, lam, smoothing=1e-12):
    """Stationarity of the smoothed objective the IRLS solver minimizes last."""
    pen = lam * p * x * (x * x + smoothing) ** (p / 2.0 - 1.0)
    return _station("rr_irls", A, x, y, 1.0, [pen])


def _multiplier(mu):
    if mu is None or not np.isfinite(float(mu)) or float(mu) <= 0.0:
        return [f"multiplier {mu!r} is not > 0"]
    return []


def _closed_form(x, ref, name):
    rel = _rel(np.linalg.norm(x - ref), np.linalg.norm(ref))
    return [] if rel <= CLOSED_FORM_RTOL else [f"{name} closed form off by {rel:.2e}"]


CHECKS = {"bp": bp, "rr": rr, "en": en, "bpdn_eps": bpdn_eps, "bpdn_eta": bpdn_eta,
          "bp_l1": bp_l1, "rr_irls": rr_irls}


def solution(family, A, y, params, x, mu):
    """Problems of one solver output; params are the family's keyword parameters."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.shape[1],) or not np.all(np.isfinite(x)):
        return ["solution has the wrong shape or non-finite entries"]
    return CHECKS[family](A, y, x, mu, **params)


# ---------------------------------------------------------------------------
# objective against scipy.optimize, on a sample
# ---------------------------------------------------------------------------

def objective(family, A, y, params, x):
    p = params.get("p")
    if family in ("bp", "bpdn_eps"):
        return pnorm(x, p)
    if family == "bpdn_eta":
        return float(np.linalg.norm(A @ x - y))
    if family == "bp_l1":
        return float(np.abs(x).sum())
    fit = 0.5 * float(np.sum((A @ x - y) ** 2))
    if family == "rr":
        return fit + params["lam"] * float(np.sum(np.abs(x) ** p))
    if family == "en":
        return fit + params["lam1"] * pnorm(x, p) ** params["r"] + params["lam2"] * float(x @ x)
    raise ValueError(f"no objective for {family}")


def reference_objective(family, A, y, params):
    """Optimal value found by scipy.optimize from the least-norm point.

    Returns (value, constraint violation relative to the constraint's scale).
    """
    import scipy.optimize as so

    N = A.shape[1]
    start = A.T @ np.linalg.solve(A @ A.T, y)
    if family == "bp_l1":
        # min 1^T (u + v)  s.t.  A (u - v) = y,  u, v >= 0
        res = so.linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=y, bounds=(0, None),
                         method="highs")
        return float(res.fun), 0.0
    p = params["p"]
    fit = lambda v: 0.5 * float(np.sum((A @ v - y) ** 2))
    fit_grad = lambda v: A.T @ (A @ v - y)
    if family in ("rr", "en"):
        f = lambda v: objective(family, A, y, params, v)
        if family == "rr":
            jac = lambda v: fit_grad(v) + params["lam"] * g(v, p)
        else:
            r, lam1, lam2 = params["r"], params["lam1"], params["lam2"]
            jac = lambda v: (fit_grad(v) + 2.0 * lam2 * v
                             + (r * lam1 / p) * pnorm(v, p) ** (r - p) * g(v, p))
        res = so.minimize(f, start, jac=jac, method="L-BFGS-B",
                          options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
        return float(res.fun), 0.0
    powsum = lambda v: float(np.sum(np.abs(v) ** p))
    opts = {"maxiter": 2000, "ftol": 1e-15}
    if family == "bp":
        cons = {"type": "eq", "fun": lambda v: A @ v - y, "jac": lambda v: A}
        res = so.minimize(powsum, start, jac=lambda v: g(v, p), constraints=[cons],
                          method="SLSQP", options=opts)
        viol = np.linalg.norm(A @ res.x - y) / np.linalg.norm(y)
        return pnorm(res.x, p), float(viol)
    if family == "bpdn_eps":
        eps = params["eps"]
        cons = {"type": "ineq", "fun": lambda v: eps * eps - 2.0 * fit(v),
                "jac": lambda v: -2.0 * fit_grad(v)}
        res = so.minimize(powsum, start, jac=lambda v: g(v, p), constraints=[cons],
                          method="SLSQP", options=opts)
        viol = max(0.0, np.linalg.norm(A @ res.x - y) / eps - 1.0)
        return pnorm(res.x, p), float(viol)
    if family == "bpdn_eta":
        eta = params["eta"]
        cons = {"type": "ineq", "fun": lambda v: eta ** p - powsum(v), "jac": lambda v: -g(v, p)}
        res = so.minimize(fit, start * min(1.0, 0.5 * eta / pnorm(start, p)), jac=fit_grad,
                          constraints=[cons], method="SLSQP", options=opts)
        viol = max(0.0, pnorm(res.x, p) / eta - 1.0)
        return float(np.linalg.norm(A @ res.x - y)), float(viol)
    raise ValueError(f"no reference objective for {family}")


def objective_vs_scipy(family, A, y, params, x):
    """Problem when the output's objective is worse than scipy.optimize's."""
    got = objective(family, A, y, params, x)
    ref, viol = reference_objective(family, A, y, params)
    if not viol <= 1e-6:
        return [f"{family}: scipy.optimize reference violates its constraint by {viol:.2e}"]
    if got > ref * (1.0 + OBJECTIVE_RTOL):
        return [f"{family} objective {got!r} above scipy.optimize's {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# Monte-Carlo outputs: trial records and the experiment CSV
# ---------------------------------------------------------------------------

def records(recs, m, N):
    """Problems of genericity-experiment TrialRecords.

    Every trial is converged with support >= N - m + 1; each (family, p)
    cell has a certified full-support fraction >= 0.99; bpdn trials match
    their constraint within 1e-6 relative with a multiplier > 0.
    """
    out = []
    cells = {}
    for r in recs:
        tag = f"{r.family} p={r.p} trial {r.trial}"
        if r.status != "converged":
            out.append(f"{tag}: status {r.status}")
            continue
        cells.setdefault((r.family, r.p), []).append(r.full_support_certified)
        if r.support_size < N - m + 1:
            out.append(f"{tag}: support {r.support_size} < N - m + 1 = {N - m + 1}")
        if r.family.startswith("bpdn"):
            out += [f"{tag}: {e}" for e in _multiplier(r.multiplier_value)]
            match = abs(r.constraint_value - r.constraint_target) / r.constraint_target
            if match > CONSTRAINT_RTOL:
                out.append(f"{tag}: constraint match {match:.2e} > {CONSTRAINT_RTOL:g}")
    for (family, p), flags in cells.items():
        frac = sum(flags) / len(flags)
        if frac < CERTIFIED_MIN:
            out.append(f"{family} p={p}: certified full-support fraction {frac:.3f} "
                       f"< {CERTIFIED_MIN}")
    return out


def csv_rows(text):
    """The data lines of an `lps experiment` CSV, as dicts keyed by its header."""
    data = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(data))))


def experiment_csv(text, m, N, trials, p_grid):
    """Problems of an `lps experiment --kind genericity` CSV.

    Returns (problems, rows); rows are dicts of the data lines.
    """
    summary = [ln for ln in text.splitlines() if ln.startswith("# ") and "family=" in ln]
    rows = csv_rows(text)
    out = []
    if len(rows) != trials * len(p_grid):
        out.append(f"{len(rows)} rows, expected {trials * len(p_grid)}")
    if len(summary) != len(p_grid):
        out.append(f"{len(summary)} summary lines, expected {len(p_grid)}")
    for row in rows:
        tag = f"row p={row.get('p')} trial {row.get('trial')}"
        try:
            if row["status"] != "converged":
                out.append(f"{tag}: status {row['status']}")
            if int(row["support_size"]) < N - m + 1:
                out.append(f"{tag}: support {row['support_size']} < N - m + 1 = {N - m + 1}")
            if (int(row["m"]), int(row["N"])) != (m, N) or float(row["p"]) not in p_grid:
                out.append(f"{tag}: shape or p differs from the config")
            if not float(row["kkt_residual"]) < 1e-6:
                out.append(f"{tag}: kkt_residual {row['kkt_residual']}")
        except (KeyError, TypeError, ValueError) as exc:
            out.append(f"{tag}: malformed ({exc})")
    for ln in summary:
        fields = dict(kv.split("=", 1) for kv in ln[2:].split(","))
        if fields.get("failures") != "0" or fields.get("trials_run") != str(trials):
            out.append(f"summary {ln!r}")
    return out, rows
